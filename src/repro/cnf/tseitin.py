"""Tseitin encoding of AIGs into CNF.

Every AIG variable (constant, inputs, AND nodes) receives one CNF variable.
The encoding is the textbook three-clause AND definition plus a unit clause
forcing the constant variable to FALSE:

    n = AND(l1, l2)   ~~>   (~n | l1), (~n | l2), (n | ~l1 | ~l2)

The resulting :class:`TseitinResult` records which proof-relevant clause
plays which role per node, because the proof-stitching engine must name the
defining clauses of specific AND nodes when it builds structural-merge
derivations.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..aig.literal import lit_sign, lit_var
from .clause import CNF


class TseitinResult:
    """CNF encoding of an AIG plus the node-to-clause bookkeeping.

    Attributes:
        cnf: the :class:`CNF` formula.
        var_of: list mapping AIG variable -> CNF variable.
        const_clause_index: index (into ``cnf.clauses``) of the unit clause
            asserting the constant variable false.
        defining_clauses: dict mapping AIG AND variable -> triple of clause
            indices ``(c_a, c_b, c_o)`` for ``(~n|l1)``, ``(~n|l2)``,
            ``(n|~l1|~l2)``.
    """

    def __init__(
        self,
        cnf: CNF,
        var_of: List[int],
        const_clause_index: int,
        defining_clauses: Dict[int, Tuple[int, int, int]],
    ) -> None:
        self.cnf = cnf
        self.var_of = var_of
        self.const_clause_index = const_clause_index
        self.defining_clauses = defining_clauses

    def lit_to_cnf(self, aig_lit: int) -> int:
        """Translate an AIG literal to a DIMACS literal."""
        var = self.var_of[lit_var(aig_lit)]
        return -var if lit_sign(aig_lit) else var


def tseitin_encode(aig: Any) -> TseitinResult:
    """Encode *aig* into CNF with full per-node bookkeeping.

    Outputs are *not* constrained; callers add unit clauses or assumptions
    for the properties they check (:func:`miter_axioms` adds the
    miter-output unit clause).

    Returns:
        A :class:`TseitinResult`.
    """
    cnf = CNF()
    var_of = [0] * aig.num_vars
    for aig_var in range(aig.num_vars):
        var_of[aig_var] = cnf.new_var()
    const_var = var_of[0]
    cnf.add_clause([-const_var])
    const_clause_index = len(cnf.clauses) - 1
    defining: Dict[int, Tuple[int, int, int]] = {}
    for aig_var in aig.and_vars():
        f0, f1 = aig.fanins(aig_var)
        n = var_of[aig_var]
        l1 = _cnf_lit(var_of, f0)
        l2 = _cnf_lit(var_of, f1)
        cnf.add_clause([-n, l1])
        cnf.add_clause([-n, l2])
        cnf.add_clause([n, -l1, -l2])
        count = len(cnf.clauses)
        defining[aig_var] = (count - 3, count - 2, count - 1)
    return TseitinResult(cnf, var_of, const_clause_index, defining)


def miter_axioms(encoding: TseitinResult, output_lit: int) -> CNF:
    """The axiom set a miter refutation refutes: a copy of *encoding*'s
    CNF plus the unit clause asserting the miter output *output_lit*
    (an AIG literal)."""
    cnf = encoding.cnf.copy()
    cnf.add_clause([encoding.lit_to_cnf(output_lit)])
    return cnf


def _cnf_lit(var_of: List[int], aig_lit: int) -> int:
    var = var_of[aig_lit >> 1]
    return -var if aig_lit & 1 else var
