"""Differential tests: flat-arena ``Solver`` vs. ``ReferenceSolver``.

The cache-conscious rewrite must be *trajectory-identical* to the
retained pre-rewrite implementation: same decisions, same propagation
order, same learned clauses, and therefore byte-identical trimmed
resolution proofs. These tests drive both solvers over a deterministic
corpus — adder/comparator miters, non-equivalent mutants, the proof
corpus's base formula, assumption solves, a long-clause watch-migration
cascade, and the committed add24 miter — and assert verdict, model,
statistics, and proof equality, plus ``check_proof`` replay of every
refutation. The add24 solve is also pinned to its committed statistics
fingerprint and to the committed trimmed proof
``examples/data/add24_miter.tc``, byte for byte.
"""

from pathlib import Path

import pytest

from proof_corpus import base_cnf
from repro.aig import lit_not
from repro.aig.miter import build_miter
from repro.circuits import kogge_stone_adder, ripple_carry_adder
from repro.cnf.dimacs import read_dimacs
from repro.cnf.tseitin import tseitin_encode
from repro.proof import ProofStore, check_proof
from repro.proof.tracecheck import dumps_tracecheck
from repro.proof.trim import trim
from repro.sat.reference import ReferenceSolver
from repro.sat.solver import SAT, UNSAT, Solver

DATA = Path(__file__).resolve().parent.parent / "examples" / "data"
ADD24_CNF = DATA / "add24_miter.cnf"
ADD24_TC = DATA / "add24_miter.tc"

# Trajectory fingerprint of the add24 solve, with or without proof
# logging; a change to any search heuristic shows up here first.
ADD24_STATS = {
    "decisions": 3889,
    "propagations": 130770,
    "conflicts": 1581,
    "restarts": 9,
    "learned": 1580,
    "deleted": 783,
}


def miter_clauses(aig_a, aig_b):
    """CNF clause list asserting the miter output (SAT = not equivalent)."""
    miter = build_miter(aig_a, aig_b)
    enc = tseitin_encode(miter.aig)
    clauses = list(enc.cnf.clauses)
    clauses.append([enc.lit_to_cnf(miter.output)])
    return clauses


def mutant(width):
    """A ripple-carry adder with its top output negated."""
    aig = ripple_carry_adder(width).copy()
    aig.set_output(0, lit_not(aig.outputs[0]))
    return aig


def run_solver(cls, clauses, assumptions=(), proof=False):
    store = ProofStore() if proof else None
    solver = cls(proof=store)
    alive = True
    for clause in clauses:
        if not solver.add_clause(clause):
            alive = False
            break
    outcome = {
        "alive": alive,
        "stats": None,
        "status": None,
        "model": None,
        "final": None,
        "store": store,
        "unsat_proof_id": None,
    }
    if alive:
        result = solver.solve(assumptions=list(assumptions))
        outcome["status"] = result.status
        outcome["final"] = result.final_clause
        if result.status is SAT:
            outcome["model"] = tuple(
                result.model_value(var)
                for var in range(1, solver.num_vars + 1)
            )
        if result.status is UNSAT and store is not None:
            outcome["unsat_proof_id"] = result.proof_id
    else:
        # Level-0 refutation during loading (same convention as the
        # monolithic baseline): the formula is UNSAT.
        outcome["status"] = UNSAT
    outcome["stats"] = solver.stats
    return outcome


def assert_identical(clauses, assumptions=(), proof=False, axioms=None):
    new = run_solver(Solver, clauses, assumptions, proof)
    ref = run_solver(ReferenceSolver, clauses, assumptions, proof)
    assert new["alive"] == ref["alive"]
    assert new["status"] == ref["status"]
    assert new["model"] == ref["model"]
    assert new["final"] == ref["final"]
    assert repr(new["stats"]) == repr(ref["stats"]), \
        "trajectory diverged: %s vs %s" % (new["stats"], ref["stats"])
    if proof and new["status"] is UNSAT and not assumptions:
        new_trim, _ = trim(new["store"])
        ref_trim, _ = trim(ref["store"])
        new["tracecheck"] = dumps_tracecheck(new_trim)
        assert new["tracecheck"] == dumps_tracecheck(ref_trim), \
            "trimmed proofs are not byte-identical"
        replay_axioms = axioms if axioms is not None else clauses
        check_proof(new_trim, axioms=replay_axioms)
        check_proof(ref_trim, axioms=replay_axioms)
    return new, ref


class TestEquivalentMiters:
    @pytest.mark.parametrize("width", [2, 4, 8])
    def test_adder_miters_unsat(self, width):
        clauses = miter_clauses(
            ripple_carry_adder(width), kogge_stone_adder(width)
        )
        new, _ = assert_identical(clauses, proof=True)
        assert new["status"] is UNSAT

    def test_committed_add24_miter(self):
        cnf = read_dimacs(str(ADD24_CNF))
        new, _ = assert_identical(list(cnf.clauses), proof=True)
        assert new["status"] is UNSAT
        stats = new["stats"]
        assert {name: getattr(stats, name) for name in ADD24_STATS} \
            == ADD24_STATS
        assert new["tracecheck"] == ADD24_TC.read_text()


class TestNonEquivalentMutants:
    @pytest.mark.parametrize("width", [2, 4, 6])
    def test_mutant_miters_sat_same_model(self, width):
        clauses = miter_clauses(ripple_carry_adder(width), mutant(width))
        new, ref = assert_identical(clauses, proof=True)
        assert new["status"] is SAT
        assert new["model"] is not None
        assert new["model"] == ref["model"]

    def test_cross_width_structures(self):
        # rca vs. ks with one ks output negated: SAT with a proof store
        # attached (proof logging must not perturb the trajectory).
        aig_b = kogge_stone_adder(4).copy()
        aig_b.set_output(2, lit_not(aig_b.outputs[2]))
        clauses = miter_clauses(ripple_carry_adder(4), aig_b)
        new, _ = assert_identical(clauses, proof=True)
        assert new["status"] is SAT


class TestProofCorpusInputs:
    def test_base_cnf_refutation(self):
        clauses = [list(c) for c in base_cnf().clauses]
        new, _ = assert_identical(clauses, proof=True)
        assert new["status"] is UNSAT

    def test_base_cnf_under_assumptions(self):
        clauses = [list(c) for c in base_cnf().clauses[:2]]  # (1 2), (-1 2)
        new, _ = assert_identical(clauses, assumptions=[-2], proof=True)
        assert new["status"] is UNSAT
        assert new["final"] is not None

    def test_empty_clause_via_units(self):
        new, _ = assert_identical([[1], [-1]], proof=True)
        assert new["alive"] is False


def scan_migration_clauses(n, window):
    """A long-clause watch-migration cascade.

    Assuming ``-1`` falsifies every chain variable through the binary
    implications ``(i, -(i+1))``, so each clause over an overlapping
    window of them moves its watches along its falsified body to the
    two fresh literals at its end.
    """
    clauses = [[i, -(i + 1)] for i in range(1, n)]
    extra = n + 1
    for j in range(1, n - window):
        clauses.append(list(range(j, j + window)) + [extra, extra + 1])
        extra += 2
    return clauses


class TestAssumptionSolves:
    def test_scan_migration_cascade(self):
        new, _ = assert_identical(
            scan_migration_clauses(2400, 60), assumptions=[-1],
        )
        assert new["status"] is SAT
        assert (new["stats"].decisions, new["stats"].propagations) \
            == (2340, 7078)

    def test_sat_under_assumptions(self):
        clauses = miter_clauses(ripple_carry_adder(3), kogge_stone_adder(3))
        # Assuming the first CNF variable true/false must not change the
        # UNSAT verdict and must agree on the final conflict clause.
        for assumption in ([1], [-1], [1, 2]):
            new, ref = assert_identical(clauses, assumptions=assumption)
            assert new["status"] == ref["status"]

    def test_conflict_budget_agreement(self):
        clauses = miter_clauses(ripple_carry_adder(8), kogge_stone_adder(8))

        def run(cls):
            solver = cls()
            for clause in clauses:
                solver.add_clause(clause)
            result = solver.solve(max_conflicts=20)
            return result.status, repr(solver.stats)

        assert run(Solver) == run(ReferenceSolver)
