"""Quick self-check of the benchmark on a tiny slice of each workload.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import ledger  # noqa: E402
import library  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def run(workload, trace, cwd=ROOT, pairs=2):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--pairs", str(pairs)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ledger.WORKLOADS)
def test_slice_reports_every_metric(workload, trace):
    out = run(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: cell["unit"] for name, cell in result["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in table}
    if not trace:
        for name, cell in result["metrics"].items():
            assert cell["value"] > 0, name


def test_layer_table_matches_spec():
    assert set(ledger.PER_LAYER) == {
        metric["name"] for metric in SPEC["per_layer"]}


def test_fleet_crosses_every_layer():
    run("fleet-mixed", 1)
    path = os.path.join(ROOT, "perfbench", "out",
                        "fleet-mixed-seed7-trace1.json")
    with open(path) as handle:
        document = json.load(handle)
    assert document["layers_not_crossed"] == []
    assert document["hit_breakdown"]["hits"] > 0


def test_proofs_identical_across_library_and_fleet():
    digests = []
    for workload in ("prove", "fleet-mixed"):
        out = run(workload, 0)
        line = next(line for line in out.stdout.splitlines()
                    if line.startswith("proof_digest"))
        digests.append(line.split()[1])
    assert digests[0] == digests[1]


def session_members(sid):
    """Pids, zombies included, of every process in session *sid*."""
    members = []
    for entry in os.listdir("/proc"):
        try:
            with open("/proc/%s/stat" % entry) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[3]) == sid:
            members.append(int(entry))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_no_process_outlives_a_run():
    # In a session of its own, every process the run starts stays
    # findable, also once orphaned.
    process = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-mixed",
         "--seed", "7", "--seconds", "1", "--trace", "0", "--pairs", "2"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    assert process.wait(timeout=300) == 0
    assert session_members(process.pid) == []


def test_wrong_verdict_fails_the_gate():
    pair = inputs.suite_items(1)[0]
    wrong = inputs.Item(pair.name, pair.a, pair.b, expected=False)
    with pytest.raises(ledger.WrongAnswer):
        library.answer(wrong, traced=False,
                       certificates=ledger.Certificates())


def test_nondeterministic_proof_is_flagged():
    certificates = ledger.Certificates()
    certificates.proof("pair", "1 2 0 0\n")
    certificates.proof("pair", "1 -2 0 0\n")
    assert certificates.report()["nondeterministic_items"] == ["pair"]


def test_refuses_to_run_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = run("prove", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
