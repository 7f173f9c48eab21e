"""AIGER file I/O.

Supports the combinational subset of the AIGER 1.9 format in both ASCII
(``.aag``) and binary (``.aig``) flavours, including the symbol table and
comment section. Latches are rejected: this package handles combinational
equivalence only.
"""

from .aig import AIG
from .literal import lit_var, make_lit


class AigerError(ValueError):
    """Raised on malformed AIGER input."""


def write_aag(aig, path_or_file):
    """Write *aig* in ASCII AIGER format.

    Accepts a filesystem path or a writable text file object.
    """
    if hasattr(path_or_file, "write"):
        _write_aag(aig, path_or_file)
    else:
        with open(path_or_file, "w") as handle:
            _write_aag(aig, handle)


def _write_aag(aig, out):
    max_var = aig.num_vars - 1
    out.write(
        "aag %d %d 0 %d %d\n"
        % (max_var, aig.num_inputs, aig.num_outputs, aig.num_ands)
    )
    for var in aig.inputs:
        out.write("%d\n" % make_lit(var))
    for lit in aig.outputs:
        out.write("%d\n" % lit)
    for var in aig.and_vars():
        f0, f1 = aig.fanins(var)
        out.write("%d %d %d\n" % (make_lit(var), f0, f1))
    _write_symbols(aig, out)


def _write_symbols(aig, out):
    for idx, name in enumerate(aig.input_names):
        if name:
            out.write("i%d %s\n" % (idx, name))
    for idx, name in enumerate(aig.output_names):
        if name:
            out.write("o%d %s\n" % (idx, name))
    if aig.name:
        out.write("c\n%s\n" % aig.name)


def read_aag(path_or_file):
    """Parse an ASCII AIGER file into an :class:`AIG`."""
    if hasattr(path_or_file, "read"):
        lines = path_or_file.read().splitlines()
    else:
        with open(path_or_file) as handle:
            lines = handle.read().splitlines()
    return _parse_aag(lines)


def _parse_header(line, expected_magic):
    fields = line.split()
    if len(fields) < 6 or fields[0] != expected_magic:
        raise AigerError("bad AIGER header: %r" % line)
    try:
        max_var, n_in, n_latch, n_out, n_and = (int(f) for f in fields[1:6])
    except ValueError:
        raise AigerError("non-numeric AIGER header: %r" % line)
    if n_latch:
        raise AigerError("sequential AIGER (latches) is not supported")
    if max_var != n_in + n_and:
        raise AigerError(
            "header inconsistent: M=%d but I+A=%d" % (max_var, n_in + n_and)
        )
    return max_var, n_in, n_out, n_and


def _parse_aag(lines):
    if not lines:
        raise AigerError("empty AIGER file")
    max_var, n_in, n_out, n_and = _parse_header(lines[0], "aag")
    aig = AIG()
    pos = 1
    input_lits = []
    for _ in range(n_in):
        lit = _read_int_line(lines, pos)
        pos += 1
        if lit & 1 or lit == 0:
            raise AigerError("invalid input literal %d" % lit)
        input_lits.append(lit)
        aig.add_input()
    # Input literals must be consecutive in aag-from-this-writer, but the
    # format allows arbitrary variable numbering; build a remapping.
    var_map = {0: 0}
    for k, lit in enumerate(input_lits):
        var_map[lit_var(lit)] = k + 1
    output_lits = []
    for _ in range(n_out):
        output_lits.append(_read_int_line(lines, pos))
        pos += 1
    end = pos + n_and
    if len(lines) < end:
        raise AigerError(
            "truncated or malformed AIGER body at line %d" % (len(lines) + 1)
        )
    and_rows = []
    for line in lines[pos:end]:
        fields = line.split()
        if len(fields) != 3:
            raise AigerError("bad AND line: %r" % line)
        lhs, rhs0, rhs1 = map(int, fields)
        if lhs & 1:
            raise AigerError("AND lhs must be even: %d" % lhs)
        and_rows.append((lhs, rhs0, rhs1))
    pos = end
    _install_ands(aig, and_rows, var_map)
    for lit in output_lits:
        aig.add_output(_map_lit(lit, var_map))
    _parse_symbols(aig, lines[pos:])
    return aig


def _read_int_line(lines, pos):
    try:
        return int(lines[pos])
    except (IndexError, ValueError):
        raise AigerError("truncated or malformed AIGER body at line %d" % (pos + 1))


def _map_lit(lit, var_map):
    var = lit_var(lit)
    if var not in var_map:
        raise AigerError("literal %d references undefined variable" % lit)
    return make_lit(var_map[var]) ^ (lit & 1)


def _install_ands(aig, and_rows, var_map):
    """Add AND rows, tolerating any topological ordering of definitions.

    A row whose fanins are not defined yet waits for the next pass; a
    pass that installs nothing means a cycle or a dangling reference.
    """
    add_and = aig.add_and
    mapped_var = var_map.get
    pending = and_rows
    while pending:
        deferred = []
        for row in pending:
            lhs, rhs0, rhs1 = row
            v0 = mapped_var(rhs0 >> 1)
            v1 = mapped_var(rhs1 >> 1)
            if v0 is None or v1 is None:
                deferred.append(row)
                continue
            lit = add_and(2 * v0 ^ (rhs0 & 1), 2 * v1 ^ (rhs1 & 1))
            # Structural hashing may fold the node; remember polarity.
            if lit & 1:
                raise AigerError(
                    "AND %d folds to a complemented literal; "
                    "input file is not strashed consistently" % lhs
                )
            var_map[lhs >> 1] = lit >> 1
        if len(deferred) == len(pending):
            raise AigerError("cyclic or dangling AND definitions")
        pending = deferred


def _parse_symbols(aig, lines):
    names_in = list(aig.input_names)
    names_out = list(aig.output_names)
    comment = []
    in_comment = False
    for line in lines:
        if in_comment:
            comment.append(line)
            continue
        if not line.strip():
            continue
        if line.strip() == "c":
            in_comment = True
            continue
        kind, _, rest = line.partition(" ")
        if len(kind) >= 2 and kind[0] in "io" and kind[1:].isdigit():
            idx = int(kind[1:])
            if kind[0] == "i" and idx < len(names_in):
                names_in[idx] = rest
            elif kind[0] == "o" and idx < len(names_out):
                names_out[idx] = rest
            else:
                raise AigerError("symbol index out of range: %r" % line)
        else:
            raise AigerError("unrecognized symbol line: %r" % line)
    aig._input_names = names_in
    aig._output_names = names_out
    if comment:
        aig.name = comment[0]


# ----------------------------------------------------------------------
# Binary format
# ----------------------------------------------------------------------


def _encode_delta(delta):
    out = bytearray()
    while delta >= 0x80:
        out.append(0x80 | (delta & 0x7F))
        delta >>= 7
    out.append(delta)
    return bytes(out)


def _decode_delta(data, pos):
    value = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise AigerError("truncated binary AIGER delta")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


def write_aig(aig, path_or_file):
    """Write *aig* in binary AIGER format.

    The binary format requires inputs to occupy variables ``1..I`` and each
    AND definition ``lhs > rhs0 >= rhs1`` — both guaranteed by this
    package's construction discipline.
    """
    if hasattr(path_or_file, "write"):
        _write_aig(aig, path_or_file)
    else:
        with open(path_or_file, "wb") as handle:
            _write_aig(aig, handle)


def _write_aig(aig, out):
    max_var = aig.num_vars - 1
    header = "aig %d %d 0 %d %d\n" % (
        max_var,
        aig.num_inputs,
        aig.num_outputs,
        aig.num_ands,
    )
    out.write(header.encode("ascii"))
    for lit in aig.outputs:
        out.write(("%d\n" % lit).encode("ascii"))
    for var in aig.and_vars():
        lhs = make_lit(var)
        f0, f1 = aig.fanins(var)
        if not lhs > f0 >= f1:
            raise AigerError("AND node %d violates binary ordering" % var)
        out.write(_encode_delta(lhs - f0))
        out.write(_encode_delta(f0 - f1))
    symbols = _SymbolBuffer()
    _write_symbols(aig, symbols)
    out.write(symbols.data().encode("ascii"))


class _SymbolBuffer:
    def __init__(self):
        self._parts = []

    def write(self, text):
        self._parts.append(text)

    def data(self):
        return "".join(self._parts)


def read_aig(path_or_file):
    """Parse a binary AIGER file into an :class:`AIG`."""
    if hasattr(path_or_file, "read"):
        data = path_or_file.read()
    else:
        with open(path_or_file, "rb") as handle:
            data = handle.read()
    newline = data.find(b"\n")
    if newline < 0:
        raise AigerError("missing binary AIGER header")
    max_var, n_in, n_out, n_and = _parse_header(
        data[:newline].decode("ascii"), "aig"
    )
    pos = newline + 1
    aig = AIG()
    var_map = {0: 0}
    for k in range(n_in):
        aig.add_input()
        var_map[k + 1] = k + 1
    output_lits = []
    for _ in range(n_out):
        end = data.find(b"\n", pos)
        if end < 0:
            raise AigerError("truncated binary AIGER outputs")
        output_lits.append(int(data[pos:end]))
        pos = end + 1
    for k in range(n_and):
        lhs = 2 * (n_in + 1 + k)
        delta0, pos = _decode_delta(data, pos)
        delta1, pos = _decode_delta(data, pos)
        rhs0 = lhs - delta0
        rhs1 = rhs0 - delta1
        if rhs0 < 0 or rhs1 < 0:
            raise AigerError("binary AIGER deltas underflow at AND %d" % lhs)
        lit = aig.add_and(_map_lit(rhs0, var_map), _map_lit(rhs1, var_map))
        if lit & 1:
            raise AigerError("binary AND %d folds to complemented literal" % lhs)
        var_map[lit_var(lhs)] = lit_var(lit)
    for lit in output_lits:
        aig.add_output(_map_lit(lit, var_map))
    tail = data[pos:].decode("ascii", errors="replace").splitlines()
    _parse_symbols(aig, tail)
    return aig


def read_auto(path):
    """Read an AIGER file, dispatching on its magic string."""
    with open(path, "rb") as handle:
        magic = handle.read(3)
    if magic == b"aag":
        return read_aag(path)
    if magic == b"aig":
        return read_aig(path)
    raise AigerError("not an AIGER file: %r" % path)
