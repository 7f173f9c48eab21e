"""Budget-degradation tests: exhaustion yields UNKNOWN, never a wrong
verdict, and leaves every component in a reusable state."""

from repro.circuits import carry_lookahead_adder, ripple_carry_adder
from repro.core.cec import check_equivalence
from repro.core.fraig import SweepEngine, SweepOptions
from repro.instrument import Budget
from repro.instrument.recorder import validate_report
from repro.proof.checker import check_proof
from repro.proof.store import ProofStore
from repro.sat.solver import SAT, UNKNOWN, UNSAT, Solver


def _equivalent_pair(width=8):
    return ripple_carry_adder(width), carry_lookahead_adder(width)


def _nonequivalent_pair(width=8):
    from repro.aig import lit_not

    a = ripple_carry_adder(width)
    b = a.copy()
    b.set_output(0, lit_not(b.outputs[0]))
    return a, b


class TestCheckEquivalenceDegradation:
    def test_tiny_conflict_budget_returns_none(self):
        aig_a, aig_b = _equivalent_pair()
        budget = Budget(conflict_limit=1)
        result = check_equivalence(aig_a, aig_b, budget=budget)
        # Equivalent circuits under an exhausted budget must degrade to
        # "undecided" — a False verdict here would be unsound.
        assert result.equivalent is None
        assert result.counterexample is None
        assert budget.exhausted_reason() == "conflicts"

    def test_pre_exhausted_time_budget_returns_none(self):
        aig_a, aig_b = _equivalent_pair(width=4)
        budget = Budget(time_limit=0.0)
        result = check_equivalence(aig_a, aig_b, budget=budget)
        assert result.equivalent is None
        assert budget.exhausted_reason() == "time"

    def test_tiny_proof_clause_budget_returns_none(self):
        aig_a, aig_b = _equivalent_pair()
        budget = Budget(proof_clause_limit=1)
        result = check_equivalence(aig_a, aig_b, budget=budget)
        assert result.equivalent is None
        assert budget.exhausted_reason() == "proof_clauses"

    def test_exhausted_run_never_claims_equivalence_falsely(self):
        # Non-equivalent pair: simulation may still find the
        # counterexample without SAT, so False is acceptable — True
        # never is.
        aig_a, aig_b = _nonequivalent_pair()
        budget = Budget(conflict_limit=1)
        result = check_equivalence(aig_a, aig_b, budget=budget)
        assert result.equivalent is not True
        if result.equivalent is False:
            assert aig_a.evaluate(result.counterexample) != aig_b.evaluate(
                result.counterexample
            )

    def test_stats_report_carries_budget_block(self):
        aig_a, aig_b = _equivalent_pair(width=4)
        budget = Budget(conflict_limit=1)
        result = check_equivalence(aig_a, aig_b, budget=budget)
        report = validate_report(result.stats)
        assert report["budget"]["conflict_limit"] == 1
        assert report["budget"]["exhausted"] == "conflicts"
        assert report["gauges"]["cec/verdict"] == "undecided"

    def test_generous_budget_does_not_change_the_verdict(self):
        aig_a, aig_b = _equivalent_pair(width=4)
        budget = Budget(time_limit=3600.0, conflict_limit=10 ** 9)
        result = check_equivalence(aig_a, aig_b, budget=budget)
        assert result.equivalent is True
        assert budget.exhausted_reason() is None


class TestSweepEngineDegradation:
    def test_exhausted_budget_skips_candidates_not_correctness(self):
        aig_a, aig_b = _equivalent_pair()
        from repro.aig import build_miter

        miter = build_miter(aig_a, aig_b)
        budget = Budget(conflict_limit=1)
        engine = SweepEngine(miter.aig, SweepOptions(), budget=budget)
        engine.sweep()
        assert engine.stats.budget_exhausted is True
        assert engine.stats.skipped_candidates > 0


class TestSolverReusability:
    @staticmethod
    def _load_unsat(solver):
        # Full binary tableau over 3 vars: UNSAT, needs real conflicts.
        clauses = []
        for bits in range(8):
            clause = [
                (var if bits >> (var - 1) & 1 else -var)
                for var in (1, 2, 3)
            ]
            clauses.append(clause)
            solver.add_clause(clause)
        return clauses

    def test_exhausted_solve_returns_unknown_and_solver_reusable(self):
        store = ProofStore(validate=True)
        solver = Solver(proof=store)
        clauses = self._load_unsat(solver)

        tiny = Budget(conflict_limit=1)
        first = solver.solve(budget=tiny)
        assert first.status is UNKNOWN
        assert tiny.exhausted_reason() == "conflicts"

        # Same solver, fresh budget: the run completes and the proof —
        # including lemmas learnt under the exhausted budget — replays
        # through the independent checker.
        second = solver.solve(budget=Budget(conflict_limit=10 ** 6))
        assert second.status is UNSAT
        check = check_proof(store, axioms=clauses, require_empty=True)
        assert check.empty_clause_id is not None

    def test_exhausted_solve_unwinds_the_trail(self):
        solver = Solver()
        self._load_unsat(solver)
        solver.solve(budget=Budget(conflict_limit=1))
        # Cooperative wind-down cancels back to the root level so the
        # next call starts clean.
        assert solver._trail_lim == []

    def test_exhausted_solve_then_sat_query(self):
        solver = Solver()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 2])
        solver.add_clause([1, -2])
        solver.solve(budget=Budget(time_limit=0.0))
        result = solver.solve()
        assert result.status is SAT
        assert result.model_value(1) and result.model_value(2)

    def test_instance_budget_honoured_and_overridable(self):
        exhausted = Budget(conflict_limit=0)
        exhausted.on_conflict(0)
        solver = Solver(budget=exhausted)
        self._load_unsat(solver)
        assert solver.solve().status is UNKNOWN
        # A per-call budget overrides the instance one.
        assert solver.solve(budget=Budget()).status is UNSAT
