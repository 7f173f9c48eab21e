"""The perf-gate verdict on synthetic perfbench result lines.

``benchmarks/perf_gate.py`` compares the medians of parent and change
runs under the bounds in ``BENCHMARK.json``. These tests write run files
by hand, so they need no benchmark run and no timing.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"

_spec = importlib.util.spec_from_file_location(
    "perf_gate", str(ROOT / "benchmarks" / "perf_gate.py")
)
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)

SPEC = json.loads(BENCHMARK.read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
BASE = {
    "setup_s": 0.004,
    "pairs_per_s": 6.0,
    "verdict_p50_ms": 40.0,
    "verdict_tail_ms": 900.0,
    "certified_p50_ms": 45.0,
    "certified_tail_ms": 950.0,
    "proof_resolutions": 127483.0,
    "peak_rss_mb": 80.0,
}
# Run-to-run jitter of +-1%, so each side has a nonzero spread.
JITTER = (0.99, 1.0, 1.01, 0.995, 1.005)
PROOF_DIGEST = "a319ae44" + "0" * 56
CEX_DIGEST = "96354207" + "0" * 56
DIGEST_LINE = "proof_digest %s (40 proofs)  cex_digest %s (19)\n"


def write_runs(directory, scale=None, failed=0, correct=True,
               digests=(PROOF_DIGEST, CEX_DIGEST)):
    """Five result files per gated workload; *scale* multiplies metrics.

    Each file holds perfbench's digest ledger line with *digests*, or no
    such line when *digests* is None.
    """
    scale = scale or {}
    digest_line = DIGEST_LINE % digests if digests else ""
    directory.mkdir()
    for workload in WORKLOADS:
        for n, jitter in enumerate(JITTER, 1):
            metrics = {
                metric["name"]: {
                    "value": BASE[metric["name"]] * jitter
                    * scale.get(metric["name"], 1.0),
                    "unit": metric["unit"],
                }
                for metric in SPEC["end_to_end"]
            }
            result = {"correct": correct, "attempted": 400,
                      "failed": failed, "metrics": metrics}
            (directory / ("%s-%d.out" % (workload, n))).write_text(
                "ledger text\n" + digest_line + json.dumps(result) + "\n"
            )


def gate(tmp_path, capsys):
    code = perf_gate.main([
        str(BENCHMARK), str(tmp_path / "parent"), str(tmp_path / "change"),
    ])
    return code, capsys.readouterr().out


def run_gate(tmp_path, capsys, **change):
    write_runs(tmp_path / "parent")
    write_runs(tmp_path / "change", **change)
    return gate(tmp_path, capsys)


def test_every_gated_end_to_end_metric_is_in_the_fixture():
    assert {metric["name"] for metric in SPEC["end_to_end"]} == set(BASE)


def test_identical_sides_pass(tmp_path, capsys):
    code, out = run_gate(tmp_path, capsys)
    assert code == 0
    assert out.rstrip().endswith("perf-gate: PASS")
    # One row per workload and metric, plus the failed share.
    rows = [line for line in out.splitlines() if line.endswith("pass")]
    assert len(rows) == len(WORKLOADS) * (len(SPEC["end_to_end"]) + 1)
    # Both sides' digests, per workload.
    for workload in WORKLOADS:
        for side in ("parent", "change"):
            assert any(
                line.split()[:4] == [workload, side, PROOF_DIGEST[:16],
                                     CEX_DIGEST[:16]]
                for line in out.splitlines()
            )


def test_lower_throughput_fails(tmp_path, capsys):
    code, out = run_gate(tmp_path, capsys, scale={"pairs_per_s": 0.7})
    assert code == 1
    assert "pairs_per_s: -30.0%" in out


def test_higher_throughput_passes(tmp_path, capsys):
    code, _ = run_gate(tmp_path, capsys, scale={"pairs_per_s": 1.3})
    assert code == 0


def test_resolution_bound_is_tighter(tmp_path, capsys):
    code, out = run_gate(tmp_path, capsys, scale={"proof_resolutions": 1.06})
    assert code == 1
    assert "proof_resolutions: +6.0% against a bound of 5%" in out


def test_more_failed_requests_fail(tmp_path, capsys):
    code, out = run_gate(tmp_path, capsys, failed=2)
    assert code == 1
    assert "failed share rose" in out


def test_incorrect_run_fails(tmp_path, capsys):
    code, out = run_gate(tmp_path, capsys, correct=False)
    assert code == 1
    assert "reports correct: false" in out


@pytest.mark.parametrize("text", ["", "Traceback (most recent call last)\n"])
def test_run_without_a_result_line_fails(tmp_path, capsys, text):
    write_runs(tmp_path / "parent")
    write_runs(tmp_path / "change")
    (tmp_path / "change" / ("%s-1.out" % WORKLOADS[0])).write_text(text)
    code, out = gate(tmp_path, capsys)
    assert code == 1
    assert "no JSON result line" in out


def test_missing_workload_runs_fail(tmp_path, capsys):
    write_runs(tmp_path / "parent")
    (tmp_path / "change").mkdir()
    code, out = gate(tmp_path, capsys)
    assert code == 1
    assert "no runs in" in out


@pytest.mark.parametrize("kind,digests", [
    ("proof", ("b" * 64, CEX_DIGEST)),
    ("cex", (PROOF_DIGEST, "c" * 64)),
])
def test_changed_digest_fails(tmp_path, capsys, kind, digests):
    code, out = run_gate(tmp_path, capsys, digests=digests)
    assert code == 1
    for workload in WORKLOADS:
        assert "%s: runs print 2 different %s digests" % (workload, kind) \
            in out
    # The gate shows both sides' digests.
    assert PROOF_DIGEST[:16] in out and digests[0][:16] in out
    assert CEX_DIGEST[:16] in out and digests[1][:16] in out


@pytest.mark.parametrize("side", ["parent", "change"])
def test_one_differing_run_on_either_side_fails(tmp_path, capsys, side):
    write_runs(tmp_path / "parent")
    write_runs(tmp_path / "change")
    path = tmp_path / side / ("%s-3.out" % WORKLOADS[0])
    path.write_text(path.read_text().replace(PROOF_DIGEST, "d" * 64))
    code, out = gate(tmp_path, capsys)
    assert code == 1
    assert "%s: runs print 2 different proof digests" % WORKLOADS[0] in out


def test_run_without_a_digest_line_fails(tmp_path, capsys):
    code, out = run_gate(tmp_path, capsys, digests=None)
    assert code == 1
    assert "%s-1.out: no proof_digest line" % WORKLOADS[0] in out
