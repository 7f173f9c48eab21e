"""Regression tests for the solver/proof-store hot-path fixes.

Each test here fails on the pre-fix code:

* ``Solver.add_clause`` used an O(n^2) list-membership tautology scan
  and allocated variables for a prefix of a tautological clause before
  bailing out; and both solvers read a clause with literal 0 as a
  tautology (``-0 == 0``) and dropped it without a word.
* ``Solver._record_learnt`` enqueued unit learned clauses with a
  throwaway duplicate ``_Clause`` as the reason instead of the recorded
  clause itself.
* ``ProofStore.find_empty_clause`` rescanned every stored clause on
  each call.
* Counterexample extraction indexes ``enc.var_of[var]`` for every
  primary input, including structurally irrelevant (dangling) ones.
"""

import pytest

from repro.aig import AIG, build_miter
from repro.core.cec import check_equivalence
from repro.core.fraig import SweepOptions
from repro.proof.checker import check_proof
from repro.proof.store import ProofStore
from repro.sat.reference import ReferenceSolver
from repro.sat.solver import SAT, UNSAT, Solver, propagate_kernel


class TestTautologyHandling:
    def test_tautology_allocates_no_variables(self):
        solver = Solver()
        assert solver.add_clause([1, 5, -1]) is True
        # Pre-fix, variable 1 was allocated before the tautology was
        # detected (the scan visited -1 first and called ensure_vars).
        assert solver.num_vars == 0
        assert solver._clauses == []

    def test_tautology_registers_no_axiom(self):
        store = ProofStore()
        solver = Solver(proof=store)
        solver.add_clause([3, -3])
        assert len(store) == 0

    def test_tautology_detection_uses_set_membership(self):
        # A wide tautological clause must be dropped without touching
        # the solver; with the old quadratic scan this still passed but
        # allocated the full variable prefix below the complemented pair.
        lits = list(range(1, 2001)) + [-2000]
        solver = Solver()
        assert solver.add_clause(lits) is True
        assert solver.num_vars == 0

    def test_non_tautology_still_added(self):
        solver = Solver()
        assert solver.add_clause([1, -2, 3]) is True
        assert solver.num_vars == 3
        assert len(solver._clauses) == 1
        result = solver.solve()
        assert result.status is SAT


class TestLiteralZero:
    """A clause with literal 0 is refused, as ``normalize_clause``,
    ``ProofStore.add_axiom`` and ``solve(assumptions=[0])`` refuse it,
    instead of reading as a tautology (``-0 == 0``) and vanishing."""

    @pytest.mark.parametrize("logging", [False, True],
                             ids=["plain", "proof"])
    @pytest.mark.parametrize("cls", [Solver, ReferenceSolver],
                             ids=["Solver", "ReferenceSolver"])
    def test_literal_zero_raises(self, cls, logging):
        store = ProofStore() if logging else None
        solver = cls(proof=store)
        with pytest.raises(ValueError, match="literal 0"):
            solver.add_clause([0, 1])
        assert solver.num_vars == 0
        if store is not None:
            assert len(store) == 0
        # The solver is untouched and still usable.
        assert solver.add_clause([-1]) is True
        result = solver.solve()
        assert result.status is SAT and result.model_value(1) == 0


#: Clause refs exist only with the C search: without it, Solver is
#: ReferenceSolver, which stores clause records.
arena_only = pytest.mark.skipif(
    propagate_kernel() != "native",
    reason="Solver is ReferenceSolver without the C search",
)


class TestUnitLearntReason:
    @staticmethod
    def _force_unit_learnt(proof=None):
        solver = Solver(proof=proof)
        solver.add_clause([1, 2])
        solver.add_clause([1, -2])
        result = solver.solve()
        assert result.status is SAT
        return solver

    @arena_only
    def test_unit_learnt_reason_is_the_recorded_clause(self):
        # Deciding -1 propagates 2 and conflicts on (1 -2); analysis
        # learns the unit (1), which is enqueued at level 0 and keeps
        # its reason across the solve. Pre-fix the reason was a
        # throwaway copy with learnt=False that _reduce_db could never
        # lock and that was absent from _learnts.
        solver = self._force_unit_learnt()
        assert solver.stats.learned == 1
        reason = solver.reason_ref(1)
        assert reason is not None
        assert solver.clause_is_learnt(reason) is True

    @arena_only
    def test_unit_learnt_reason_carries_proof_id(self):
        store = ProofStore(validate=True)
        solver = self._force_unit_learnt(proof=store)
        reason = solver.reason_ref(1)
        proof_id = solver.clause_proof_id(reason)
        assert proof_id is not None
        assert store.clause(proof_id) == (1,)

    def test_unit_learning_under_proof_logging_replays(self):
        # Continue past the unit learnt to a refutation and replay the
        # whole proof (including the unit's chain) through the
        # independent checker.
        clauses = [[1, 2], [1, -2], [-1, 2], [-1, -2]]
        store = ProofStore(validate=True)
        solver = Solver(proof=store)
        for clause in clauses:
            solver.add_clause(clause)
        result = solver.solve()
        assert result.status is UNSAT
        check = check_proof(store, axioms=clauses, require_empty=True)
        assert check.empty_clause_id is not None


class _NoScan(list):
    """List stand-in that fails the test when iterated."""

    def __iter__(self):
        raise AssertionError("find_empty_clause scanned the clause list")


class TestFindEmptyClauseCache:
    def test_empty_clause_id_cached_at_append_time(self):
        store = ProofStore()
        a = store.add_axiom((1,))
        b = store.add_axiom((-1,))
        empty = store.add_derived((), [a, (1, b)])
        # Pre-fix find_empty_clause enumerated _clauses on every call.
        store._clauses = _NoScan(store._clauses)
        assert store.find_empty_clause() == empty

    def test_no_empty_clause_returns_none_without_scanning(self):
        store = ProofStore()
        store.add_axiom((1, 2))
        store._clauses = _NoScan(store._clauses)
        assert store.find_empty_clause() is None

    def test_first_empty_clause_wins(self):
        store = ProofStore()
        a = store.add_axiom((1,))
        b = store.add_axiom((-1,))
        first = store.add_derived((), [a, (1, b)])
        store.add_axiom((2,))
        assert store.find_empty_clause() == first

    def test_cache_matches_linear_scan(self):
        store = ProofStore()
        a = store.add_axiom((1, 2))
        b = store.add_axiom((-1, 2))
        c = store.add_axiom((-2,))
        d = store.add_derived((2,), [a, (1, b)])
        empty = store.add_derived((), [d, (2, c)])
        scan = next(
            (i for i in store.ids() if not store.clause(i)), None
        )
        assert store.find_empty_clause() == scan == empty


def _pair_with_dangling_input():
    """Two one-output circuits, non-equivalent, sharing a dangling input.

    Input 3 feeds no gate in either circuit, so the miter keeps it as a
    structurally irrelevant primary input.
    """
    a = AIG("a")
    x = a.add_input("x")
    y = a.add_input("y")
    a.add_input("unused")
    a.add_output(a.add_and(x, y), "o")

    b = AIG("b")
    x = b.add_input("x")
    y = b.add_input("y")
    b.add_input("unused")
    b.add_output(b.add_or(x, y), "o")
    return a, b


class TestDanglingInputCounterexample:
    def test_encoder_preregisters_all_inputs(self):
        # var_of is a dense list over *every* AIG variable, so dangling
        # miter inputs always have a CNF variable: extraction cannot
        # KeyError and unconstrained inputs default to 0 via model_value.
        from repro.cnf.tseitin import tseitin_encode

        a, b = _pair_with_dangling_input()
        miter = build_miter(a, b)
        enc = tseitin_encode(miter.aig)
        for var in miter.aig.inputs:
            assert enc.var_of[var] > 0

    def test_final_sat_counterexample_with_dangling_input(self):
        # sim_words=0 leaves simulation with no patterns, forcing the
        # verdict through the final SAT call's model extraction
        # (core/cec.py) over all miter inputs, dangling one included.
        a, b = _pair_with_dangling_input()
        result = check_equivalence(a, b, SweepOptions(sim_words=0))
        assert result.equivalent is False
        assert len(result.counterexample) == 3

    def test_refinement_path_with_dangling_input(self):
        # With empty signatures every node is a candidate for constant
        # 0, so candidate SAT calls return models and _refine extracts
        # patterns over all inputs (core/fraig.py) before the verdict.
        a, b = _pair_with_dangling_input()
        result = check_equivalence(a, b, SweepOptions(sim_words=0))
        assert result.engine.stats.refinements >= 1

    def test_equivalent_pair_with_dangling_input(self):
        a, _ = _pair_with_dangling_input()
        result = check_equivalence(a, a.copy(), SweepOptions(sim_words=1))
        assert result.equivalent is True
