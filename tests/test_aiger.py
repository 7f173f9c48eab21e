"""Tests for AIGER reading/writing (ASCII and binary)."""

import io
import random

import pytest

from repro.aig import AIG, AigerError, read_aag, read_aig, read_auto, \
    write_aag, write_aig
from repro.aig import aiger, structhash
from repro.aig.literal import FALSE, TRUE, lit_not, lit_var, make_lit
from repro.circuits import (
    alu,
    array_multiplier,
    carry_lookahead_adder,
    majority,
    ripple_carry_adder,
)
from repro.circuits.benchmarks import SUITE
from repro.circuits.faults import Fault, inject
from repro.service.cache import cache_key

from conftest import assert_equivalent_exhaustive

#: Malformed ASCII AIGER texts, each rejected with an AigerError.
MALFORMED_AAG = {
    "empty": "",
    "bad-magic": "agg 1 1 0 0 0\n2\n",
    "latches": "aag 2 1 1 0 0\n2\n4 2\n",
    "inconsistent-header": "aag 5 1 0 0 1\n2\n4 2 2\n",
    "truncated-inputs": "aag 2 2 0 1 0\n2\n",
    "truncated-ands": "aag 3 2 0 1 1\n2\n4\n6\n",
    "odd-input-literal": "aag 1 1 0 0 0\n3\n",
    "undefined-output": "aag 1 1 0 1 0\n2\n8\n",
    "cyclic-ands": "aag 3 1 0 1 2\n2\n4\n4 6 2\n6 4 2\n",
    "odd-and-lhs": "aag 2 1 0 0 1\n2\n5 2 2\n",
    "symbol-out-of-range": "aag 1 1 0 1 0\n2\n2\ni5 name\n",
}

#: Valid texts in orders this package's writer never produces.
FOREIGN_AAG = {
    # Inputs at variables 2 and 1.
    "non-contiguous": "aag 3 2 0 1 1\n4\n2\n6\n6 4 2\n",
    # An AND defined before its operand's definition appears.
    "reordered": "aag 4 2 0 1 2\n2\n4\n8\n8 6 2\n6 2 4\n",
    # Two identical ANDs, folded into one node by structural hashing.
    "duplicate-ands": "aag 4 2 0 2 2\n2\n4\n6\n8\n6 2 4\n8 2 4\n",
}


def roundtrip_aag(aig):
    buffer = io.StringIO()
    write_aag(aig, buffer)
    buffer.seek(0)
    return read_aag(buffer)


def roundtrip_aig(aig):
    buffer = io.BytesIO()
    write_aig(aig, buffer)
    buffer.seek(0)
    return read_aig(buffer)


CIRCUITS = [
    ripple_carry_adder(3),
    carry_lookahead_adder(3),
    array_multiplier(3),
    alu(2),
    majority(5),
]


class TestAagRoundtrip:
    @pytest.mark.parametrize("aig", CIRCUITS, ids=lambda a: a.name)
    def test_function_preserved(self, aig):
        assert_equivalent_exhaustive(aig, roundtrip_aag(aig))

    @pytest.mark.parametrize("aig", CIRCUITS, ids=lambda a: a.name)
    def test_counts_preserved(self, aig):
        back = roundtrip_aag(aig)
        assert back.num_inputs == aig.num_inputs
        assert back.num_outputs == aig.num_outputs
        assert back.num_ands == aig.num_ands

    def test_symbols_preserved(self, tiny_aig):
        back = roundtrip_aag(tiny_aig)
        assert back.input_names == ("a", "b", "c")
        assert back.output_names == ("y",)

    def test_comment_becomes_name(self, tiny_aig):
        back = roundtrip_aag(tiny_aig)
        assert back.name == "tiny"


class TestBinaryRoundtrip:
    @pytest.mark.parametrize("aig", CIRCUITS, ids=lambda a: a.name)
    def test_function_preserved(self, aig):
        assert_equivalent_exhaustive(aig, roundtrip_aig(aig))

    @pytest.mark.parametrize("aig", CIRCUITS, ids=lambda a: a.name)
    def test_counts_preserved(self, aig):
        back = roundtrip_aig(aig)
        assert back.num_ands == aig.num_ands

    def test_delta_encoding_is_compact(self):
        aig = ripple_carry_adder(8)
        text = io.StringIO()
        write_aag(aig, text)
        binary = io.BytesIO()
        write_aig(aig, binary)
        assert len(binary.getvalue()) < len(text.getvalue())


class TestReadAuto:
    def test_dispatch(self, tmp_path, tiny_aig):
        ascii_path = tmp_path / "t.aag"
        binary_path = tmp_path / "t.aig"
        write_aag(tiny_aig, str(ascii_path))
        write_aig(tiny_aig, str(binary_path))
        assert_equivalent_exhaustive(tiny_aig, read_auto(str(ascii_path)))
        assert_equivalent_exhaustive(tiny_aig, read_auto(str(binary_path)))

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("not an aiger file")
        with pytest.raises(AigerError):
            read_auto(str(path))


class TestMalformedInput:
    def test_empty(self):
        with pytest.raises(AigerError):
            read_aag(io.StringIO(MALFORMED_AAG["empty"]))

    def test_bad_magic(self):
        with pytest.raises(AigerError):
            read_aag(io.StringIO(MALFORMED_AAG["bad-magic"]))

    def test_latches_rejected(self):
        with pytest.raises(AigerError, match="latches"):
            read_aag(io.StringIO(MALFORMED_AAG["latches"]))

    def test_inconsistent_header(self):
        with pytest.raises(AigerError, match="inconsistent"):
            read_aag(io.StringIO(MALFORMED_AAG["inconsistent-header"]))

    @pytest.mark.parametrize("section", ["inputs", "ands"])
    def test_truncated_body(self, section):
        text = MALFORMED_AAG["truncated-" + section]
        with pytest.raises(AigerError, match="truncated"):
            read_aag(io.StringIO(text))

    def test_odd_input_literal(self):
        with pytest.raises(AigerError, match="input literal"):
            read_aag(io.StringIO(MALFORMED_AAG["odd-input-literal"]))

    def test_undefined_literal_in_output(self):
        with pytest.raises(AigerError):
            read_aag(io.StringIO(MALFORMED_AAG["undefined-output"]))

    def test_cyclic_ands(self):
        with pytest.raises(AigerError, match="cyclic"):
            read_aag(io.StringIO(MALFORMED_AAG["cyclic-ands"]))

    def test_odd_and_lhs(self):
        with pytest.raises(AigerError, match="lhs"):
            read_aag(io.StringIO(MALFORMED_AAG["odd-and-lhs"]))

    def test_symbol_out_of_range(self):
        with pytest.raises(AigerError, match="out of range"):
            read_aag(io.StringIO(MALFORMED_AAG["symbol-out-of-range"]))

    def test_binary_truncated(self):
        with pytest.raises(AigerError):
            read_aig(io.BytesIO(b"aig 2 1 0 1 1\n2\n\x80"))


class TestForeignEncodings:
    def test_aag_with_non_contiguous_vars(self):
        aig = read_aag(io.StringIO(FOREIGN_AAG["non-contiguous"]))
        assert aig.num_inputs == 2
        assert aig.num_ands == 1
        # Output is AND of the two inputs.
        assert aig.evaluate([1, 1]) == [1]
        assert aig.evaluate([1, 0]) == [0]

    def test_aag_with_reordered_and_definitions(self):
        aig = read_aag(io.StringIO(FOREIGN_AAG["reordered"]))
        assert aig.evaluate([1, 1]) == [1]
        assert aig.evaluate([0, 1]) == [0]

    def test_duplicate_ands_folded_by_strash(self):
        aig = read_aag(io.StringIO(FOREIGN_AAG["duplicate-ands"]))
        assert aig.num_ands == 1
        assert aig.evaluate([1, 1]) == [1, 1]


# ----------------------------------------------------------------------
# The per-call ingest, kept as the reference for the inlined one
# ----------------------------------------------------------------------


class ReferenceAIG(AIG):
    """An AIG whose add_and checks and folds through the literal
    helpers, one call per step."""

    def add_and(self, a, b):
        self._check_lit(a)
        self._check_lit(b)
        if a < b:
            a, b = b, a
        if b == FALSE or a == lit_not(b):
            return FALSE
        if b == TRUE or a == b:
            return a
        key = (a, b)
        var = self._strash.get(key)
        if var is None:
            var = self.num_vars
            self._fanin0.append(a)
            self._fanin1.append(b)
            self._strash[key] = var
        return make_lit(var)


def reference_install_ands(aig, and_rows, var_map):
    pending = list(and_rows)
    while pending:
        progressed = False
        deferred = []
        for lhs, rhs0, rhs1 in pending:
            v0, v1 = lit_var(rhs0), lit_var(rhs1)
            if v0 in var_map and v1 in var_map:
                lit = aig.add_and(
                    aiger._map_lit(rhs0, var_map),
                    aiger._map_lit(rhs1, var_map),
                )
                var_map[lit_var(lhs)] = lit_var(lit)
                if lit & 1:
                    raise AigerError(
                        "AND %d folds to a complemented literal; "
                        "input file is not strashed consistently" % lhs
                    )
                progressed = True
            else:
                deferred.append((lhs, rhs0, rhs1))
        if not progressed:
            raise AigerError("cyclic or dangling AND definitions")
        pending = deferred


def reference_read_aag(text):
    lines = text.splitlines()
    if not lines:
        raise AigerError("empty AIGER file")
    _, n_in, n_out, n_and = aiger._parse_header(lines[0], "aag")
    aig = ReferenceAIG()
    pos = 1
    input_lits = []
    for _ in range(n_in):
        lit = aiger._read_int_line(lines, pos)
        pos += 1
        if lit & 1 or lit == 0:
            raise AigerError("invalid input literal %d" % lit)
        input_lits.append(lit)
        aig.add_input()
    var_map = {0: 0}
    for k, lit in enumerate(input_lits):
        var_map[lit_var(lit)] = k + 1
    output_lits = []
    for _ in range(n_out):
        output_lits.append(aiger._read_int_line(lines, pos))
        pos += 1
    and_rows = []
    for _ in range(n_and):
        fields = lines[pos].split()
        pos += 1
        if len(fields) != 3:
            raise AigerError("bad AND line: %r" % lines[pos - 1])
        lhs, rhs0, rhs1 = (int(f) for f in fields)
        if lhs & 1:
            raise AigerError("AND lhs must be even: %d" % lhs)
        and_rows.append((lhs, rhs0, rhs1))
    reference_install_ands(aig, and_rows, var_map)
    for lit in output_lits:
        aig.add_output(aiger._map_lit(lit, var_map))
    aiger._parse_symbols(aig, lines[pos:])
    return aig


def reference_node_digests(aig):
    digests = [b""] * aig.num_vars
    digests[0] = structhash._blake(structhash._CONST_TAG)
    for position, var in enumerate(aig.inputs):
        digests[var] = structhash._blake(
            structhash._INPUT_TAG, position.to_bytes(4, "big"),
        )
    for var in aig.and_vars():
        f0, f1 = aig.fanins(var)
        pair0 = digests[f0 >> 1] + (b"~" if f0 & 1 else b".")
        pair1 = digests[f1 >> 1] + (b"~" if f1 & 1 else b".")
        if pair1 < pair0:
            pair0, pair1 = pair1, pair0
        digests[var] = structhash._blake(structhash._AND_TAG, pair0, pair1)
    return digests


def graph_of(aig):
    """Everything an AIG built by the parser holds."""
    return (
        aig._fanin0, aig._fanin1, aig._strash, aig.inputs, aig.outputs,
        aig.input_names, aig.output_names, aig.name,
    )


def text_of(aig):
    buffer = io.StringIO()
    write_aag(aig, buffer)
    return buffer.getvalue()


#: Node faults cycled over the suite pairs, one mutant each.
NODE_FAULTS = ("stuck_at_0", "stuck_at_1", "edge_flip", "and_to_or",
               "wrong_fanin")


def suite_texts(index, pair):
    """A suite pair, its output-flip mutant and one node-fault mutant,
    as AIGER texts."""
    aig_a, aig_b = pair.build()
    and_vars = list(aig_b.and_vars())
    node_fault = Fault(NODE_FAULTS[index % len(NODE_FAULTS)],
                       and_vars[len(and_vars) // 2])
    return [text_of(aig) for aig in (
        aig_a, aig_b, inject(aig_b, Fault("output_flip", 0)),
        inject(aig_b, node_fault),
    )]


class TestIngestReference:
    @pytest.mark.parametrize(
        "index", range(len(SUITE)), ids=[pair.name for pair in SUITE],
    )
    def test_suite_pairs_and_mutants(self, index, monkeypatch):
        texts = suite_texts(index, SUITE[index])
        fast = [read_aag(io.StringIO(text)) for text in texts]
        slow = [reference_read_aag(text) for text in texts]
        for aig, reference in zip(fast, slow):
            assert type(aig) is AIG
            assert graph_of(aig) == graph_of(reference)
            assert structhash.node_digests(aig) == \
                reference_node_digests(aig)
        hashes = [structhash.structural_hash(aig) for aig in fast]
        keys = [cache_key(fast[0], aig) for aig in fast[1:]]
        monkeypatch.setattr(structhash, "node_digests",
                            reference_node_digests)
        assert hashes == [structhash.structural_hash(aig) for aig in slow]
        assert keys == [cache_key(slow[0], aig) for aig in slow[1:]]

    @pytest.mark.parametrize("name", sorted(FOREIGN_AAG))
    def test_foreign_encodings(self, name, monkeypatch):
        aig = read_aag(io.StringIO(FOREIGN_AAG[name]))
        reference = reference_read_aag(FOREIGN_AAG[name])
        assert graph_of(aig) == graph_of(reference)
        key = cache_key(aig, aig)
        monkeypatch.setattr(structhash, "node_digests",
                            reference_node_digests)
        assert key == cache_key(reference, reference)

    @pytest.mark.parametrize(
        "name", sorted(set(MALFORMED_AAG) - {"truncated-ands"}),
    )
    def test_malformed_inputs_fail_the_same_way(self, name):
        with pytest.raises(Exception) as fast:
            read_aag(io.StringIO(MALFORMED_AAG[name]))
        with pytest.raises(Exception) as slow:
            reference_read_aag(MALFORMED_AAG[name])
        assert type(fast.value) is type(slow.value) is AigerError
        assert str(fast.value) == str(slow.value)

    def test_add_and_matches_reference(self):
        rng = random.Random(7)
        aig, reference = AIG(), ReferenceAIG()
        for _ in range(6):
            assert aig.add_input() == reference.add_input()
        for _ in range(3000):
            # Mostly defined literals, some constants, some beyond the
            # last variable or negative.
            top = 2 * aig.num_vars + 3
            a, b = rng.randrange(-2, top), rng.randrange(-2, top)
            outcomes = []
            for target in (aig, reference):
                try:
                    outcomes.append(target.add_and(a, b))
                except ValueError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], (a, b)
        assert aig.num_ands > 100
        assert graph_of(aig) == graph_of(reference)
