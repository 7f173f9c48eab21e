"""Unit tests for the instrumentation layer (Recorder, Budget, schema)."""

import json
import time
from contextlib import contextmanager

import pytest

from repro.circuits import kogge_stone_adder, ripple_carry_adder
from repro.core.cec import check_equivalence
from repro.instrument import (
    NULL_RECORDER,
    Budget,
    BudgetExhausted,
    Recorder,
    STATS_SCHEMA,
)
from repro.instrument.recorder import validate_report


class FakeClock:
    """Deterministic clock the timers and budgets accept injection of."""

    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestRecorderPhases:
    def test_phase_accumulates_seconds_and_count(self):
        clock = FakeClock()
        rec = Recorder(clock=clock)
        for _ in range(3):
            with rec.phase("solve"):
                clock.advance(0.5)
        assert rec.phase_seconds("solve") == pytest.approx(1.5)
        assert rec.report()["phases"]["solve"] == {
            "seconds": pytest.approx(1.5), "count": 3,
            "self_seconds": pytest.approx(1.5),
        }

    def test_nested_phases_get_hierarchical_names(self):
        clock = FakeClock()
        rec = Recorder(clock=clock)
        with rec.phase("cec"):
            with rec.phase("sweep"):
                clock.advance(1.0)
            clock.advance(0.25)
        phases = rec.report()["phases"]
        assert phases["cec/sweep"]["seconds"] == pytest.approx(1.0)
        # The outer phase includes the nested time.
        assert phases["cec"]["seconds"] == pytest.approx(1.25)

    def test_phase_records_on_exception(self):
        clock = FakeClock()
        rec = Recorder(clock=clock)
        with pytest.raises(RuntimeError):
            with rec.phase("solve"):
                clock.advance(2.0)
                raise RuntimeError("boom")
        assert rec.phase_seconds("solve") == pytest.approx(2.0)
        # The stack unwound: a later phase is not nested under "solve".
        with rec.phase("other"):
            pass
        assert "other" in rec.report()["phases"]

    def test_add_time_charges_explicit_names(self):
        rec = Recorder(clock=FakeClock())
        rec.add_time("solver/propagate", 0.75, count=128)
        rec.add_time("solver/propagate", 0.25, count=64)
        cell = rec.report()["phases"]["solver/propagate"]
        assert cell == {"seconds": pytest.approx(1.0), "count": 192,
                        "self_seconds": pytest.approx(1.0)}

    def test_phase_seconds_defaults_to_zero(self):
        assert Recorder(clock=FakeClock()).phase_seconds("never") == 0.0


class TestRecorderCountersGauges:
    def test_counters_accumulate(self):
        rec = Recorder(clock=FakeClock())
        rec.count("sweep/merges")
        rec.count("sweep/merges", 4)
        assert rec.counter("sweep/merges") == 5
        assert rec.counter("missing") == 0

    def test_gauges_last_write_wins(self):
        rec = Recorder(clock=FakeClock())
        rec.gauge("proof/clauses", 10)
        rec.gauge("proof/clauses", 7)
        assert rec.report()["gauges"]["proof/clauses"] == 7


class TestSolverThroughputCounters:
    """SolverStats surface as recorder counters (repro-stats / /metrics)."""

    SOLVER_COUNTERS = (
        "solver/conflicts", "solver/decisions", "solver/propagations",
        "solver/restarts", "solver/learned", "solver/deleted",
    )

    @staticmethod
    def _solved_recorder():
        from repro.sat.solver import UNSAT, Solver

        rec = Recorder()
        solver = Solver(recorder=rec, restart_base=1)
        var = lambda p, h: p * 5 + h + 1
        for p in range(6):
            solver.add_clause([var(p, h) for h in range(5)])
        for h in range(5):
            for p1 in range(6):
                for p2 in range(p1 + 1, 6):
                    solver.add_clause([-var(p1, h), -var(p2, h)])
        assert solver.solve().status is UNSAT
        return rec, solver

    def test_all_solver_stats_recorded(self):
        rec, solver = self._solved_recorder()
        counters = rec.report()["counters"]
        for name in self.SOLVER_COUNTERS:
            assert name in counters, name
        assert counters["solver/conflicts"] == solver.stats.conflicts
        assert counters["solver/restarts"] == solver.stats.restarts
        assert counters["solver/learned"] == solver.stats.learned
        assert counters["solver/propagations"] == solver.stats.propagations
        assert counters["solver/restarts"] > 0

    def test_stats_cli_show_lists_throughput(self, tmp_path, capsys):
        from repro.instrument.stats_cli import main as stats_main

        rec, _ = self._solved_recorder()
        path = str(tmp_path / "solver_counters.json")
        rec.write_json(path)
        assert stats_main(["show", path]) == 0
        text = capsys.readouterr().out
        for name in self.SOLVER_COUNTERS:
            assert name in text, name

    def test_prometheus_exposition_has_solver_totals(self):
        from repro.instrument.metrics import MetricsRegistry, \
            to_prometheus_text

        rec, _ = self._solved_recorder()
        text = to_prometheus_text(
            MetricsRegistry().report(), stats_report=rec.report()
        )
        assert "repro_solver_restarts_total" in text
        assert "repro_solver_propagations_total" in text
        assert "repro_solver_conflicts_total" in text


class TestRecorderTrace:
    def test_events_written_as_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        clock = FakeClock()
        rec = Recorder(trace_path=str(path), clock=clock)
        rec.event("merge", method="structural", node=12)
        clock.advance(1.5)
        rec.event("refine", patterns=64)
        rec.close()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["event"] for l in lines] == ["merge", "refine"]
        assert lines[0]["node"] == 12
        assert lines[1]["t"] == pytest.approx(1.5)

    def test_no_trace_path_means_no_file(self, tmp_path):
        rec = Recorder()
        rec.event("merge", node=1)   # must not raise or open anything
        rec.close()

    def test_close_is_idempotent(self, tmp_path):
        rec = Recorder(trace_path=str(tmp_path / "t.jsonl"))
        rec.event("x")
        rec.close()
        rec.close()


class TestReportSchema:
    def test_report_validates(self):
        rec = Recorder(clock=FakeClock())
        with rec.phase("p"):
            pass
        rec.count("c")
        rec.gauge("g", "value")
        rec.meta["tool"] = "test"
        report = validate_report(rec.report())
        assert report["schema"] == STATS_SCHEMA
        assert report["budget"] is None
        assert report["meta"]["tool"] == "test"

    def test_report_with_budget_validates(self):
        rec = Recorder(clock=FakeClock())
        budget = Budget(conflict_limit=5, clock=FakeClock())
        budget.on_conflict(2)
        report = validate_report(rec.report(budget=budget))
        assert report["budget"]["conflicts"] == 2
        assert report["budget"]["exhausted"] is None

    def test_write_json_round_trips(self, tmp_path):
        path = tmp_path / "stats.json"
        rec = Recorder(clock=FakeClock())
        rec.count("n", 3)
        rec.write_json(str(path))
        report = validate_report(json.loads(path.read_text()))
        assert report["counters"]["n"] == 3

    @pytest.mark.parametrize("mutate", [
        lambda r: r.update(schema="other/9"),
        lambda r: r.pop("counters"),
        lambda r: r["phases"].update(bad={"seconds": 1.0}),
        lambda r: r["counters"].update(bad=-1),
        lambda r: r["counters"].update(bad=1.5),
        lambda r: r["budget"].pop("exhausted"),
        lambda r: r["budget"].update(exhausted="memory"),
    ])
    def test_validate_rejects_malformed_reports(self, mutate):
        report = Recorder(clock=FakeClock()).report(
            budget=Budget(clock=FakeClock())
        )
        mutate(report)
        with pytest.raises(ValueError):
            validate_report(report)


class TestNullRecorder:
    def test_disabled_and_inert(self):
        assert NULL_RECORDER.enabled is False
        with NULL_RECORDER.phase("p"):
            pass
        NULL_RECORDER.add_time("p", 1.0)
        NULL_RECORDER.count("c", 5)
        NULL_RECORDER.gauge("g", 1)
        NULL_RECORDER.event("e", x=1)
        report = NULL_RECORDER.report()
        assert report["phases"] == {}
        assert report["counters"] == {}
        assert report["gauges"] == {}


class CountingNullRecorder:
    """Behaves like NULL_RECORDER and counts every hook call made on it."""

    enabled = False

    def __init__(self):
        self.calls = 0

    @contextmanager
    def phase(self, name):
        self.calls += 1
        yield

    def count(self, name, value=1):
        self.calls += 1

    def gauge(self, name, value):
        self.calls += 1

    def add_time(self, name, seconds, count=1):
        self.calls += 1

    def add_span(self, name, seconds, **fields):
        self.calls += 1

    def start_trace(self, context=None):
        self.calls += 1
        return None

    def report(self, budget=None):
        self.calls += 1
        return {}

    def __getattr__(self, name):
        # Any other hook (event, ...): count the call, do nothing.
        def hook(*args, **kwargs):
            self.calls += 1
        return hook


class TestDisabledHookBudget:
    """Disabled instrumentation costs under 3% of a check.

    No uninstrumented build exists to time against, so the cost is
    bounded from its parts: the hook calls one disabled pass makes,
    times the price of one no-op ``NULL_RECORDER.phase()``, over the
    time of that pass. Each timing is the minimum of three.
    """

    BUDGET = 0.03
    PRICE_CALLS = 50_000
    WORKLOAD = [
        (ripple_carry_adder(width), kogge_stone_adder(width))
        for width in (4, 5, 6)
    ]

    def run_pass(self, recorder):
        start = time.perf_counter()
        for aig_a, aig_b in self.WORKLOAD:
            result = check_equivalence(aig_a, aig_b, recorder=recorder)
            assert result.equivalent is True
        return time.perf_counter() - start

    def price_null_hook(self):
        start = time.perf_counter()
        for _ in range(self.PRICE_CALLS):
            with NULL_RECORDER.phase("bench/noop"):
                pass
        return (time.perf_counter() - start) / self.PRICE_CALLS

    def test_disabled_hooks_cost_under_budget(self):
        counter = CountingNullRecorder()
        self.run_pass(counter)
        assert counter.calls > 0
        pass_seconds = min(self.run_pass(NULL_RECORDER) for _ in range(3))
        price = min(self.price_null_hook() for _ in range(3))
        overhead = counter.calls * price / pass_seconds
        assert overhead < self.BUDGET, (
            "disabled hooks cost %.2f%%: %d calls x %.0f ns against "
            "%.4f s of work" % (
                100 * overhead, counter.calls, 1e9 * price, pass_seconds,
            )
        )


class TestBudget:
    def test_no_limits_never_exhausts(self):
        budget = Budget(clock=FakeClock())
        budget.on_conflict(10 ** 9)
        budget.note_proof_size(10 ** 9)
        assert budget.exhausted_reason() is None
        assert budget.remaining_conflicts() is None
        assert budget.remaining_seconds() is None

    def test_conflict_limit(self):
        budget = Budget(conflict_limit=3, clock=FakeClock())
        budget.on_conflict(2)
        assert budget.exhausted_reason() is None
        assert budget.remaining_conflicts() == 1
        budget.on_conflict()
        assert budget.exhausted_reason() == "conflicts"
        assert budget.remaining_conflicts() == 0

    def test_time_limit(self):
        clock = FakeClock()
        budget = Budget(time_limit=2.0, clock=clock)
        assert budget.exhausted_reason() is None
        assert budget.remaining_seconds() == pytest.approx(2.0)
        clock.advance(2.5)
        assert budget.exhausted_reason() == "time"
        assert budget.remaining_seconds() == 0.0

    def test_proof_clause_limit_is_monotone_max(self):
        budget = Budget(proof_clause_limit=100, clock=FakeClock())
        budget.note_proof_size(50)
        budget.note_proof_size(40)      # smaller observations don't regress
        assert budget.proof_clauses == 50
        assert budget.exhausted_reason() is None
        budget.note_proof_size(100)
        assert budget.exhausted_reason() == "proof_clauses"

    def test_reason_is_sticky(self):
        clock = FakeClock()
        budget = Budget(time_limit=1.0, conflict_limit=5, clock=clock)
        clock.advance(1.5)
        assert budget.exhausted_reason() == "time"
        # A later conflict overflow does not rewrite the reason.
        budget.on_conflict(100)
        assert budget.exhausted_reason() == "time"

    def test_check_raises_with_reason(self):
        budget = Budget(conflict_limit=1, clock=FakeClock())
        budget.check()
        budget.on_conflict()
        with pytest.raises(BudgetExhausted) as info:
            budget.check()
        assert info.value.reason == "conflicts"

    def test_as_dict_shape(self):
        budget = Budget(
            time_limit=5.0, conflict_limit=10, proof_clause_limit=99,
            clock=FakeClock(),
        )
        block = budget.as_dict()
        assert block["time_limit"] == 5.0
        assert block["conflict_limit"] == 10
        assert block["proof_clause_limit"] == 99
        assert block["conflicts"] == 0
        assert block["exhausted"] is None
