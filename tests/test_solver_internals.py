"""White-box tests of CDCL solver internals."""

import random

import pytest

from repro.proof import ProofStore, check_proof
from repro.sat import SAT, UNKNOWN, UNSAT, Solver
from repro.sat.solver import propagate_kernel

#: The clause arena exists only with the C search: without it, Solver
#: is ReferenceSolver, which stores clause records.
arena_only = pytest.mark.skipif(
    propagate_kernel() != "native",
    reason="Solver is ReferenceSolver without the C search",
)


class TestVariableManagement:
    def test_new_var_sequential(self):
        solver = Solver()
        assert solver.new_var() == 1
        assert solver.new_var() == 2
        assert solver.num_vars == 2

    def test_ensure_vars_idempotent(self):
        solver = Solver()
        solver.ensure_vars(5)
        solver.ensure_vars(3)
        assert solver.num_vars == 5

    def test_watch_index_distinct(self):
        indices = {Solver._widx(lit) for lit in
                   [1, -1, 2, -2, 3, -3]}
        assert len(indices) == 6

    def test_value_unassigned(self):
        solver = Solver()
        solver.ensure_vars(1)
        assert solver.value(1) == 0
        assert solver.value(-1) == 0


class TestTrailAndBacktracking:
    def test_level0_assignments_persist(self):
        solver = Solver()
        solver.add_clause([1])
        solver.add_clause([-1, 2])
        solver.solve()
        # After solving, level-0 units are still assigned.
        assert solver.value(1) == 1
        assert solver.value(2) == 1

    def test_cancel_until_restores(self):
        solver = Solver()
        solver.ensure_vars(3)
        solver._new_decision_level()
        solver._enqueue(2, None)
        assert solver.value(2) == 1
        solver.cancel_until(0)
        assert solver.value(2) == 0
        assert solver.decision_level() == 0

    def test_phase_saving(self):
        solver = Solver()
        solver.ensure_vars(2)
        solver._new_decision_level()
        solver._enqueue(2, None)
        solver.cancel_until(0)
        assert solver._phase[2] is True
        solver._new_decision_level()
        solver._enqueue(-2, None)
        solver.cancel_until(0)
        assert solver._phase[2] is False


class TestPropagation:
    def test_unit_chain(self):
        solver = Solver()
        for v in range(1, 10):
            solver.add_clause([-v, v + 1])
        solver.add_clause([1])
        assert solver.value(10) == 1  # propagated at level 0 on add

    def test_watched_literal_migration(self):
        """A clause watched on two falsified literals must find a third."""
        solver = Solver()
        solver.add_clause([1, 2, 3])
        solver.add_clause([-1])  # kills one watch at level 0
        solver.add_clause([-2])  # kills the second; 3 must propagate
        assert solver.value(3) == 1

    def test_propagation_counter(self):
        solver = Solver()
        solver.add_clause([1])
        solver.add_clause([-1, 2])
        solver.solve()
        assert solver.stats.propagations >= 2


class TestLearnedClauseDatabase:
    def _hard_instance(self, solver):
        var = lambda p, h: p * 5 + h + 1
        for p in range(6):
            solver.add_clause([var(p, h) for h in range(5)])
        for h in range(5):
            for p1 in range(6):
                for p2 in range(p1 + 1, 6):
                    solver.add_clause([-var(p1, h), -var(p2, h)])

    def test_reduce_db_fires_and_stays_sound(self):
        solver = Solver()
        self._hard_instance(solver)
        assert solver.solve().status is UNSAT
        assert solver.stats.deleted > 0

    @arena_only
    def test_binary_learned_clauses_never_deleted(self):
        solver = Solver()
        self._hard_instance(solver)
        solver.solve()
        for ref in solver._learnts:
            assert solver.clause_size(ref) >= 2

    def test_learned_count_matches_stats(self):
        store = ProofStore()
        solver = Solver(proof=store)
        self._hard_instance(solver)
        solver.solve()
        assert solver.stats.learned > 0


class TestRestarts:
    def test_restarts_happen_with_small_base(self):
        solver = Solver(restart_base=1)
        var = lambda p, h: p * 6 + h + 1
        for p in range(7):
            solver.add_clause([var(p, h) for h in range(6)])
        for h in range(6):
            for p1 in range(7):
                for p2 in range(p1 + 1, 7):
                    solver.add_clause([-var(p1, h), -var(p2, h)])
        assert solver.solve().status is UNSAT
        assert solver.stats.restarts > 0

    def test_verdict_stable_across_restart_bases(self):
        rng = random.Random(5)
        clauses = []
        for _ in range(40):
            variables = rng.sample(range(1, 11), 3)
            clauses.append(
                [v if rng.random() < 0.5 else -v for v in variables]
            )
        verdicts = []
        for base in (1, 10, 1000):
            solver = Solver(restart_base=base)
            alive = all(solver.add_clause(c) for c in clauses)
            verdicts.append(solver.solve().status if alive else UNSAT)
        assert len(set(verdicts)) == 1


class TestActivityHeap:
    def test_decision_prefers_active_vars(self):
        # Deciding -1, -2, -3 and -4 propagates 5 through (4 5) and
        # conflicts on (4 -5): analysis bumps 4 and 5 and learns (4).
        # Of the unassigned variables 5 is then the most active, so the
        # next decision takes it before the lower-numbered 1, 2 and 3.
        solver = Solver()
        solver.add_clause([4, 5])
        solver.add_clause([4, -5])
        assert solver.solve(max_conflicts=1).status is UNKNOWN
        assert solver.value(4) == 1
        activity = solver._activity
        assert activity[5] > max(activity[1:4])
        assert solver._pick_branch_var() == 5


@arena_only
class TestClauseArena:
    def test_accessors_roundtrip(self):
        solver = Solver()
        assert solver.add_clause([3, -1, 2])
        ref = solver.clause_refs()[0]
        assert solver.clause_size(ref) == 3
        assert solver.clause_is_learnt(ref) is False
        assert sorted(solver.clause_lits(ref)) == [-1, 2, 3]
        assert solver.clause_proof_id(ref) is None
        assert solver.clause_activity(ref) == 0.0

    def test_proof_id_registered(self):
        store = ProofStore()
        solver = Solver(proof=store)
        assert solver.add_clause([1, 2])
        ref = solver.clause_refs()[0]
        assert solver.clause_proof_id(ref) is not None

    def test_watches_are_flat_ref_blocker_pairs(self):
        solver = Solver()
        assert solver.add_clause([1, 2, 3])
        ref = solver.clause_refs()[0]
        w1 = solver._watches[Solver._widx(1)]
        w2 = solver._watches[Solver._widx(2)]
        # Each watch list interleaves (clause_ref, blocker_lit) and the
        # two watches of a clause use each other as blockers.
        assert w1 == [ref, Solver._widx(2)]
        assert w2 == [ref, Solver._widx(1)]

    def test_reason_ref_for_propagated_var(self):
        solver = Solver()
        solver.add_clause([1, 2])
        solver.add_clause([-1])
        ref = solver.reason_ref(2)
        assert ref is not None
        assert sorted(solver.clause_lits(ref)) == [1, 2]
        unit_ref = solver.reason_ref(1)
        assert unit_ref is not None
        assert solver.clause_lits(unit_ref) == [-1]

    def test_arena_compaction_preserves_clauses(self):
        # Two pigeonhole instances (6 pigeons, 5 holes), each guarded by
        # its own variable.  Refuting the first under -1 deletes learnt
        # clauses that lie before the second's clauses in the arena; the
        # compaction during the second refutation moves those clauses
        # down, and every problem clause keeps its literals, in order.
        def guarded_php(guard, base):
            var = lambda p, h: base + p * 5 + h + 1
            clauses = [[var(p, h) for h in range(5)] for p in range(6)]
            for h in range(5):
                for p1 in range(6):
                    for p2 in range(p1 + 1, 6):
                        clauses.append([-var(p1, h), -var(p2, h)])
            return [clause + [guard] for clause in clauses]

        solver = Solver()
        for clause in guarded_php(1, 2):
            solver.add_clause(clause)
        assert solver.solve(assumptions=[-1]).status is UNSAT
        assert solver.stats.deleted > 0
        for clause in guarded_php(2, 32):
            solver.add_clause(clause)
        refs = solver.clause_refs()
        clauses = [sorted(solver.clause_lits(ref)) for ref in refs]
        assert solver.solve(assumptions=[-2]).status is UNSAT
        moved = solver.clause_refs()
        assert moved[:81] == refs[:81]
        assert all(new < old for new, old in zip(moved[81:], refs[81:]))
        assert [sorted(solver.clause_lits(ref)) for ref in moved] == clauses
        for ref in moved:
            assert len(solver.clause_lits(ref)) == solver.clause_size(ref)


class TestProofIdsStability:
    def test_deleted_clause_proofs_remain_valid(self):
        store = ProofStore()
        solver = Solver(proof=store)
        var = lambda p, h: p * 5 + h + 1
        for p in range(6):
            solver.add_clause([var(p, h) for h in range(5)])
        for h in range(5):
            for p1 in range(6):
                for p2 in range(p1 + 1, 6):
                    solver.add_clause([-var(p1, h), -var(p2, h)])
        assert solver.solve().status is UNSAT
        assert solver.stats.deleted > 0
        # Every chain in the store must still replay even though many
        # learned clauses were detached from the solver.
        check_proof(store)


class TestModelExtraction:
    def test_model_covers_late_vars(self):
        solver = Solver()
        solver.add_clause([1])
        solver.ensure_vars(10)
        result = solver.solve()
        assert result.status is SAT
        assert result.model_value(10) in (0, 1)

    def test_model_signs(self):
        solver = Solver()
        solver.add_clause([-3])
        result = solver.solve()
        assert result.model_value(3) == 0
        assert result.model_value(-3) == 1
