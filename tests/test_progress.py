"""Progress heartbeats: tracker units, spool files, trajectory identity.

The trajectory-identity half is the load-bearing contract: attaching a
:class:`ProgressTracker` (even one emitting on every conflict) must
leave the solver's statistics and the trimmed resolution proof
byte-identical to a run without one — progress observes, never
perturbs.
"""

import json
import os

import pytest

from repro.aig.miter import build_miter
from repro.circuits import kogge_stone_adder, ripple_carry_adder
from repro.cnf.tseitin import tseitin_encode
from repro.core.cec import check_equivalence
from repro.core.fraig import SweepOptions
from repro.instrument import Budget, Recorder
from repro.instrument.progress import (
    DEFAULT_INTERVAL,
    PROGRESS_SCHEMA,
    ProgressTracker,
    estimate_eta_band,
    format_heartbeat,
    latest_heartbeat,
    progress_bar,
    remove_spool,
    snapshot_sink,
    validate_progress,
)
from repro.proof import ProofStore
from repro.proof.tracecheck import dumps_tracecheck
from repro.proof.trim import trim
from repro.sat.solver import UNSAT, Solver


class FakeStats:
    def __init__(self, conflicts=0, decisions=0, propagations=0,
                 restarts=0, learned=0):
        self.conflicts = conflicts
        self.decisions = decisions
        self.propagations = propagations
        self.restarts = restarts
        self.learned = learned


class FakeClock:
    def __init__(self, start=100.0):
        self.now = start
        self.reads = 0

    def __call__(self):
        self.reads += 1
        return self.now


class TestEtaBand:
    def test_too_young_says_nothing(self):
        assert estimate_eta_band(0.01) is None
        assert estimate_eta_band(0.01, budget_fraction=0.5) is None

    def test_budget_fraction_extrapolates(self):
        low, high = estimate_eta_band(10.0, budget_fraction=0.5)
        # remaining = 10 * (1 - 0.5)/0.5 = 10; spread = 1 + 2*0.5 = 2.
        assert low == pytest.approx(5.0)
        assert high == pytest.approx(20.0)

    def test_band_tightens_as_budget_drains(self):
        low_a, high_a = estimate_eta_band(10.0, budget_fraction=0.2)
        low_b, high_b = estimate_eta_band(10.0, budget_fraction=0.9)
        assert (high_b - low_b) < (high_a - low_a)
        assert estimate_eta_band(10.0, budget_fraction=1.0) == (0.0, 0.0)

    def test_no_band_without_budget(self):
        assert estimate_eta_band(10.0) is None
        assert estimate_eta_band(10.0, budget_fraction=0.0) is None


class TestProgressTracker:
    def test_countdown_skips_clock_reads(self):
        clock = FakeClock()
        tracker = ProgressTracker(
            lambda doc: None, clock=clock, ticks_per_check=8,
        )
        baseline = clock.reads  # constructor reads once
        stats = FakeStats()
        for _ in range(7):
            tracker.tick(stats)
        assert clock.reads == baseline
        tracker.tick(stats)
        assert clock.reads == baseline + 1

    def test_interval_gates_emission(self):
        clock = FakeClock()
        docs = []
        tracker = ProgressTracker(
            docs.append, interval_seconds=1.0, clock=clock,
            ticks_per_check=1,
        )
        stats = FakeStats(conflicts=5)
        tracker.tick(stats)
        assert docs == []  # no time has passed
        clock.now += 1.5
        tracker.tick(stats)
        assert len(docs) == 1
        tracker.tick(stats)
        assert len(docs) == 1  # interval not yet elapsed again

    def test_emitted_document_shape(self):
        clock = FakeClock()
        docs = []
        tracker = ProgressTracker(
            docs.append, interval_seconds=0.0, clock=clock,
            ticks_per_check=1, meta={"tool": "test"},
        )
        clock.now += 2.0
        tracker.tick(FakeStats(conflicts=10, decisions=20,
                               propagations=200, restarts=1, learned=9))
        clock.now += 2.0
        tracker.tick(FakeStats(conflicts=30, decisions=50,
                               propagations=700, restarts=2, learned=27))
        first, second = docs
        validate_progress(first)
        validate_progress(second)
        assert first["schema"] == PROGRESS_SCHEMA
        assert first["seq"] == 1 and second["seq"] == 2
        assert second["counters"]["conflicts"] == 30
        assert second["deltas"]["conflicts"] == 20
        assert second["rates"]["conflicts"] == pytest.approx(10.0)
        assert second["meta"] == {"tool": "test"}
        assert first["phase"] == "solve"

    def test_heartbeat_without_budget_has_null_eta(self):
        clock = FakeClock()
        docs = []
        tracker = ProgressTracker(
            docs.append, interval_seconds=0.0, clock=clock,
            ticks_per_check=1,
        )
        for conflicts in (10, 12):
            clock.now += 2.0
            tracker.tick(FakeStats(conflicts=conflicts))
        assert [doc["eta_seconds"] for doc in docs] == [None, None]
        assert "eta " not in format_heartbeat(docs[-1])

    def test_budget_fraction_takes_the_tightest_axis(self):
        budget = Budget(time_limit=1000.0, conflict_limit=100)
        budget.conflicts = 50
        tracker = ProgressTracker(lambda doc: None, budget=budget)
        assert tracker.budget_fraction() == pytest.approx(0.5, abs=0.01)
        budget.conflicts = 1000  # over the limit: capped
        assert tracker.budget_fraction() == 1.0
        assert ProgressTracker(lambda d: None).budget_fraction() is None

    def test_sweep_block_rides_heartbeats(self):
        clock = FakeClock()
        docs = []
        tracker = ProgressTracker(
            docs.append, interval_seconds=0.0, clock=clock,
            ticks_per_check=1,
        )
        tracker.phase = "sweep"
        tracker.update_sweep(
            wave=2, nodes_processed=10, nodes_total=40, classes=3,
        )
        clock.now += 1.0
        tracker.tick(FakeStats())
        (doc,) = docs
        assert doc["phase"] == "sweep"
        assert doc["sweep"] == {
            "wave": 2, "nodes_processed": 10, "nodes_total": 40,
            "classes": 3,
        }

    def test_broken_sink_is_swallowed(self):
        clock = FakeClock()

        def explode(document):
            raise OSError("disk full")

        tracker = ProgressTracker(
            explode, interval_seconds=0.0, clock=clock, ticks_per_check=1,
        )
        clock.now += 1.0
        tracker.tick(FakeStats())  # must not raise
        assert tracker.dropped == 1
        assert tracker.seq == 1  # the heartbeat was still built

    def test_default_interval_is_coarse(self):
        assert DEFAULT_INTERVAL >= 0.1


class TestValidateProgress:
    def _valid(self):
        clock = FakeClock()
        docs = []
        tracker = ProgressTracker(
            docs.append, interval_seconds=0.0, clock=clock,
            ticks_per_check=1,
        )
        clock.now += 1.0
        tracker.tick(FakeStats(conflicts=1))
        return docs[0]

    @pytest.mark.parametrize("mutate", [
        lambda d: d.__setitem__("schema", "nope"),
        lambda d: d.pop("seq"),
        lambda d: d.__setitem__("seq", 0),
        lambda d: d.__setitem__("counters", [1]),
        lambda d: d["counters"].__setitem__("conflicts", -1),
        lambda d: d.__setitem__("eta_seconds", [3.0, 1.0]),
        lambda d: d.__setitem__("eta_seconds", [1.0]),
    ])
    def test_rejects_malformed(self, mutate):
        document = self._valid()
        mutate(document)
        with pytest.raises(ValueError):
            validate_progress(document)

    def test_rejects_non_dict(self):
        with pytest.raises(ValueError):
            validate_progress([])


class TestSpoolFiles:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "hb.json")
        sink = snapshot_sink(path)
        for seq in (1, 2, 3):
            sink({"schema": PROGRESS_SCHEMA, "seq": seq})
        assert latest_heartbeat(path) == {
            "schema": PROGRESS_SCHEMA, "seq": 3,
        }

    def test_spool_holds_only_the_newest_heartbeat(self, tmp_path):
        path = str(tmp_path / "hb.json")
        tracker = ProgressTracker(
            snapshot_sink(path), interval_seconds=0.0, clock=FakeClock(),
            ticks_per_check=1,
        )
        for conflicts in range(2000):
            tracker.tick(FakeStats(conflicts=conflicts))
        assert tracker.seq == 2000 and tracker.dropped == 0
        # One document, the newest, and no temporary file left behind.
        with open(path) as handle:
            document = json.loads(handle.read())
        assert document["seq"] == 2000
        assert document["counters"]["conflicts"] == 1999
        validate_progress(document)
        assert latest_heartbeat(path) == document
        assert sorted(os.listdir(str(tmp_path))) == ["hb.json"]

    def test_missing_file_reads_empty(self, tmp_path):
        path = str(tmp_path / "nope.json")
        assert latest_heartbeat(path) is None
        remove_spool(path)  # idempotent, no raise


class TestRendering:
    def test_progress_bar(self):
        assert progress_bar(None, width=4) == "----"
        assert progress_bar(0.0, width=4) == "...."
        assert progress_bar(0.5, width=4) == "##.."
        assert progress_bar(2.0, width=4) == "####"  # clamped

    def test_format_heartbeat_mentions_the_essentials(self):
        line = format_heartbeat({
            "schema": PROGRESS_SCHEMA, "seq": 3, "phase": "sweep",
            "elapsed_seconds": 1.5, "budget_fraction": 0.25,
            "counters": {"conflicts": 120, "decisions": 300,
                         "restarts": 2},
            "rates": {"conflicts": 80.0},
            "sweep": {"wave": 1, "classes": 4, "nodes_processed": 9,
                      "nodes_total": 40},
            "eta_seconds": [2.0, 8.0],
        })
        assert "sweep" in line
        assert "conflicts=120" in line
        assert "wave=1" in line
        assert "eta 2.0-8.0s" in line
        assert "#" in line and "." in line


# ---------------------------------------------------------------------------
# Trajectory identity: progress must never perturb the proof
# ---------------------------------------------------------------------------


def _miter_clauses(width=6):
    miter = build_miter(
        ripple_carry_adder(width), kogge_stone_adder(width)
    )
    enc = tseitin_encode(miter.aig)
    clauses = list(enc.cnf.clauses)
    clauses.append([enc.lit_to_cnf(miter.output)])
    return clauses


def _solve_with(recorder):
    store = ProofStore()
    solver = Solver(proof=store, recorder=recorder)
    for clause in clauses_fixture:
        solver.add_clause(clause)
    result = solver.solve()
    assert result.status is UNSAT
    trimmed, _ = trim(store)
    return dumps_tracecheck(trimmed), repr(solver.stats)


clauses_fixture = _miter_clauses()


class TestTrajectoryIdentity:
    def test_solver_proof_identical_with_progress(self):
        plain = Recorder()
        baseline_proof, baseline_stats = _solve_with(plain)

        watched = Recorder()
        docs = []
        # Maximal observation pressure: check the clock on every tick
        # and emit on every clock read.
        watched.progress = ProgressTracker(
            docs.append, interval_seconds=0.0, ticks_per_check=1,
        )
        watched_proof, watched_stats = _solve_with(watched)

        assert docs, "tracker never emitted despite zero interval"
        for document in docs:
            validate_progress(document)
        assert watched_stats == baseline_stats, "trajectory diverged"
        assert watched_proof == baseline_proof, \
            "trimmed proofs are not byte-identical under progress"

    def test_reference_solver_ticks_progress(self):
        # ReferenceSolver is Solver where the C search cannot be built:
        # it must feed the tracker the same way.
        from repro.sat.reference import ReferenceSolver

        def ticks(cls):
            recorder = Recorder()
            docs = []
            recorder.progress = ProgressTracker(
                docs.append, interval_seconds=0.0, ticks_per_check=1,
            )
            solver = cls(recorder=recorder)
            for clause in clauses_fixture:
                solver.add_clause(clause)
            assert solver.solve().status is UNSAT
            return [doc["counters"] for doc in docs]

        reference = ticks(ReferenceSolver)
        assert reference
        assert reference == ticks(Solver)

    def test_cec_sweep_proof_identical_with_progress(self):
        aig_a = ripple_carry_adder(4)
        aig_b = kogge_stone_adder(4)

        def run(attach_progress):
            recorder = Recorder()
            docs = []
            if attach_progress:
                recorder.progress = ProgressTracker(
                    docs.append, interval_seconds=0.0, ticks_per_check=1,
                )
            result = check_equivalence(
                aig_a, aig_b, SweepOptions(), recorder=recorder,
            )
            assert result.equivalent is True
            trimmed, _ = trim(result.proof)
            return dumps_tracecheck(trimmed), docs

        baseline_proof, _ = run(False)
        watched_proof, docs = run(True)
        assert docs, "sweep emitted no heartbeats"
        assert any(d.get("phase") == "sweep" for d in docs)
        assert any("sweep" in d for d in docs)
        assert watched_proof == baseline_proof
