"""Miter construction for equivalence checking.

A *miter* of two circuits A and B with matching interfaces is a single
AIG over shared inputs whose one output is 1 exactly when some output of A
differs from the corresponding output of B. Equivalence of A and B is then
the unsatisfiability of the miter output.

The miter built here keeps track of which new variable each original node
of A and B maps to, and of the per-output XOR literals; the sweeping engine
uses the output-pair map to know what it must prove.
"""

from .aig import AIG
from .literal import lit_not_cond, lit_sign, lit_var


class Miter:
    """A miter AIG plus bookkeeping about its origins.

    Attributes:
        aig: the miter :class:`AIG` (single output = disequality).
        map_a: list mapping variables of A to literals in the miter.
        map_b: list mapping variables of B to literals in the miter.
        output_pairs: list of ``(lit_a, lit_b)`` miter literals, one pair
            per original output, which the checker must prove equal.
        xor_lits: per-output XOR literal inside the miter.
    """

    def __init__(self, aig, map_a, map_b, output_pairs, xor_lits):
        self.aig = aig
        self.map_a = map_a
        self.map_b = map_b
        self.output_pairs = output_pairs
        self.xor_lits = xor_lits

    @property
    def output(self):
        """The single miter output literal (1 = circuits differ)."""
        return self.aig.outputs[0]


def match_interfaces_by_name(aig_a, aig_b):
    """Reorder *aig_b*'s interface to match *aig_a* by port names.

    Returns a copy of *aig_b* whose inputs and outputs are permuted so
    that position k carries the same name as *aig_a*'s position k. Both
    circuits must have fully named, duplicate-free, identical name sets
    on both interfaces.

    Raises:
        ValueError: when the name sets differ or names are missing.
    """
    in_perm = _name_permutation(
        aig_a.input_names, aig_b.input_names, "input"
    )
    out_perm = _name_permutation(
        aig_a.output_names, aig_b.output_names, "output"
    )
    reordered = AIG(aig_b.name)
    lit_map = [None] * aig_b.num_vars
    lit_map[0] = 0
    # Create inputs in aig_a's name order.
    for position in in_perm:
        var = aig_b.inputs[position]
        lit_map[var] = reordered.add_input(aig_b.input_names[position])
    for var in aig_b.and_vars():
        f0, f1 = aig_b.fanins(var)
        lit_map[var] = reordered.add_and(
            lit_not_cond(lit_map[f0 >> 1], f0 & 1),
            lit_not_cond(lit_map[f1 >> 1], f1 & 1),
        )
    for position in out_perm:
        lit = aig_b.outputs[position]
        reordered.add_output(
            lit_not_cond(lit_map[lit_var(lit)], lit_sign(lit)),
            aig_b.output_names[position],
        )
    return reordered


def _name_permutation(names_a, names_b, kind):
    if "" in names_a or "" in names_b:
        raise ValueError("name matching requires fully named %ss" % kind)
    if len(set(names_a)) != len(names_a) or len(set(names_b)) != len(names_b):
        raise ValueError("duplicate %s names" % kind)
    if set(names_a) != set(names_b):
        raise ValueError(
            "%s name sets differ: %r vs %r"
            % (kind, sorted(names_a), sorted(names_b))
        )
    index_b = {name: position for position, name in enumerate(names_b)}
    return [index_b[name] for name in names_a]


def check_interface(aig_a, aig_b):
    """Raise ``ValueError`` unless the circuits have the same numbers
    of inputs and outputs (the precondition of every engine)."""
    if (aig_a.num_inputs != aig_b.num_inputs
            or aig_a.num_outputs != aig_b.num_outputs):
        raise ValueError(
            "interface mismatch: %dx%d vs %dx%d inputs/outputs"
            % (aig_a.num_inputs, aig_a.num_outputs,
               aig_b.num_inputs, aig_b.num_outputs)
        )


def build_miter(aig_a, aig_b, name="", match_names=False):
    """Build the miter of two input-compatible AIGs.

    Inputs are matched positionally by default; pass ``match_names=True``
    to permute *aig_b*'s interface by port names first. Both circuits
    must have the same number of inputs and outputs.

    Returns:
        A :class:`Miter`.

    Raises:
        ValueError: when the interfaces do not match.
    """
    if match_names:
        aig_b = match_interfaces_by_name(aig_a, aig_b)
    if aig_a.num_inputs != aig_b.num_inputs:
        raise ValueError(
            "input counts differ: %d vs %d" % (aig_a.num_inputs, aig_b.num_inputs)
        )
    if aig_a.num_outputs != aig_b.num_outputs:
        raise ValueError(
            "output counts differ: %d vs %d"
            % (aig_a.num_outputs, aig_b.num_outputs)
        )
    miter = AIG(name or "miter(%s,%s)" % (aig_a.name, aig_b.name))
    inputs = [
        miter.add_input(name_a or name_b)
        for name_a, name_b in zip(aig_a.input_names, aig_b.input_names)
    ]
    map_a = _copy_into(aig_a, miter, inputs)
    map_b = _copy_into(aig_b, miter, inputs)
    output_pairs = []
    xor_lits = []
    for lit_a, lit_b in zip(aig_a.outputs, aig_b.outputs):
        ma = lit_not_cond(map_a[lit_var(lit_a)], lit_sign(lit_a))
        mb = lit_not_cond(map_b[lit_var(lit_b)], lit_sign(lit_b))
        output_pairs.append((ma, mb))
        xor_lits.append(miter.add_xor(ma, mb))
    miter.add_output(miter.add_or_multi(xor_lits), "miter")
    return Miter(miter, map_a, map_b, output_pairs, xor_lits)


def _copy_into(src, dst, input_lits):
    """Copy the AND logic of *src* into *dst*, sharing *input_lits*.

    Returns a list mapping each variable of *src* to its literal in *dst*.
    Structural hashing in *dst* automatically shares identical logic
    between the two copied circuits.
    """
    lit_map = [None] * src.num_vars
    lit_map[0] = 0
    for var, lit in zip(src.inputs, input_lits):
        lit_map[var] = lit
    for var in src.and_vars():
        f0, f1 = src.fanins(var)
        a = lit_not_cond(lit_map[f0 >> 1], f0 & 1)
        b = lit_not_cond(lit_map[f1 >> 1], f1 & 1)
        lit_map[var] = dst.add_and(a, b)
    return lit_map
