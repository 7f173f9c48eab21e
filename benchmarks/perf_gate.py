"""Parent-vs-change gate over perfbench runs.

Run from the repository root, after running perfbench on both trees::

    python3 benchmarks/perf_gate.py BENCHMARK.json PARENT_DIR CHANGE_DIR

Each directory holds the standard output of one perfbench run per file,
named ``<workload>-<n>.out``. Two lines of it are read: the last, the
JSON result object with ``correct``, ``attempted``, ``failed`` and
``metrics``, and the ledger line ``proof_digest ... cex_digest ...``.
Workloads, end-to-end metric names, their ``better`` directions and
their bounds all come from ``BENCHMARK.json``.

For every workload and metric the gate takes the median of each side's
runs. It fails when the change's median is worse than the parent's by
more than the metric's bound, relative to the parent. It also fails when
any run reports ``correct: false`` or has no result line, when a side
has no runs of a workload, and when the change's failed share of
attempted requests is higher than the parent's. Trimmed proofs and
counterexamples must stay byte-identical, so it also fails when a run
has no digest line, and when two runs of one workload, on either side,
print a different proof digest or cex digest.

It prints one row per workload and metric (both medians, both
interquartile ranges, the relative change, pass or fail), then each
side's digests per workload, and exits 0 on pass and 1 on fail.
"""

import argparse
import json
import math
import re
import statistics
import sys
from pathlib import Path

RESULT_KEYS = ("correct", "attempted", "failed", "metrics")
DIGEST_LINE = re.compile(r"proof_digest (\S+) .*\bcex_digest (\S+)")


class RunError(Exception):
    """A run file without a usable result line."""


def read_run(path):
    """``(result, digests)`` of the run file *path*.

    *result* is the JSON object on the last non-empty line; *digests* is
    ``(proof_digest, cex_digest)`` from the ledger line, or None.
    """
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RunError("%s: no JSON result line" % path) from None
    if not isinstance(result, dict) or any(
        key not in result for key in RESULT_KEYS
    ):
        raise RunError(
            "%s: result line lacks %s" % (path, ", ".join(RESULT_KEYS))
        )
    matches = (DIGEST_LINE.match(line) for line in lines)
    return result, next((match.groups() for match in matches if match), None)


def run_files(directory, workload):
    """``<workload>-<n>.out`` files in *directory*, in name order."""
    pattern = re.compile(re.escape(workload) + r"-\d+\.out")
    return sorted(
        path for path in Path(directory).iterdir()
        if pattern.fullmatch(path.name)
    )


def median_and_iqr(values):
    if len(values) < 2:
        return values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3 - q1


def relative_change(parent, change):
    if parent == 0:
        return 0.0 if change == 0 else math.copysign(math.inf, change)
    return (change - parent) / abs(parent)


def failed_share(results):
    attempted = sum(result["attempted"] for result in results)
    return sum(result["failed"] for result in results) / max(attempted, 1)


def load_side(directory, workload, failures):
    """``(results, digests)`` of one side's readable runs.

    Problems go to *failures*.
    """
    paths = run_files(directory, workload)
    if not paths:
        failures.append("%s: no runs in %s" % (workload, directory))
    results, digests = [], []
    for path in paths:
        try:
            result, digest = read_run(path)
        except RunError as exc:
            failures.append(str(exc))
            continue
        if result["correct"] is not True:
            failures.append("%s: reports correct: false" % path)
        results.append(result)
        if digest is None:
            failures.append("%s: no proof_digest line" % path)
        else:
            digests.append(digest)
    return results, digests


def check_digests(workload, sides, failures):
    """Every run of *workload*, on both sides, prints the same digests."""
    for index, kind in enumerate(("proof", "cex")):
        values = {digest[index] for digests in sides for digest in digests}
        if len(values) > 1:
            failures.append("%s: runs print %d different %s digests"
                            % (workload, len(values), kind))


def gate(benchmark, parent_dir, change_dir):
    """``(rows, digests, failures)``.

    *rows* holds one table row per workload and metric; *digests* maps
    each workload to the parent's and the change's digest pairs.
    """
    rows, digests, failures = [], {}, []
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        parent, parent_digests = load_side(parent_dir, workload, failures)
        change, change_digests = load_side(change_dir, workload, failures)
        digests[workload] = (parent_digests, change_digests)
        check_digests(workload, digests[workload], failures)
        if not parent or not change:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            try:
                sides = [
                    [result["metrics"][name]["value"] for result in results]
                    for results in (parent, change)
                ]
            except KeyError:
                failures.append("%s: a run lacks metric %s" % (workload, name))
                continue
            (parent_med, parent_iqr), (change_med, change_iqr) = (
                median_and_iqr(values) for values in sides
            )
            change_rel = relative_change(parent_med, change_med)
            worse = change_rel if metric["better"] == "lower" else -change_rel
            passed = worse <= metric["bound"]
            if not passed:
                failures.append(
                    "%s %s: %+.1f%% against a bound of %.0f%%"
                    % (workload, name, 100 * change_rel, 100 * metric["bound"])
                )
            rows.append((workload, name, parent_med, parent_iqr, change_med,
                         change_iqr, change_rel, passed))
        parent_share, change_share = failed_share(parent), failed_share(change)
        passed = change_share <= parent_share
        if not passed:
            failures.append(
                "%s: failed share rose from %.4f to %.4f"
                % (workload, parent_share, change_share)
            )
        rows.append((workload, "failed_frac", parent_share, 0.0, change_share,
                     0.0, relative_change(parent_share, change_share), passed))
    return rows, digests, failures


def format_rows(rows):
    header = ("workload", "metric", "parent", "IQR", "change", "IQR",
              "rel", "result")
    lines = ["%-12s %-18s %12s %10s %12s %10s %8s  %s" % header]
    for (workload, name, parent_med, parent_iqr, change_med, change_iqr,
         change_rel, passed) in rows:
        lines.append("%-12s %-18s %12.6g %10.4g %12.6g %10.4g %+7.1f%%  %s" % (
            workload, name, parent_med, parent_iqr, change_med, change_iqr,
            100 * change_rel, "pass" if passed else "FAIL",
        ))
    return "\n".join(lines)


def format_digests(digests):
    """Each side's distinct digests per workload, 16 hex digits each."""
    lines = ["%-12s %-7s %-34s %s"
             % ("workload", "side", "proof_digest", "cex_digest")]
    for workload, sides in digests.items():
        for side, pairs in zip(("parent", "change"), sides):
            columns = [
                ",".join(sorted({pair[index][:16] for pair in pairs})) or "-"
                for index in (0, 1)
            ]
            lines.append("%-12s %-7s %-34s %s" % (workload, side, *columns))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("benchmark", help="BENCHMARK.json")
    parser.add_argument("parent", help="directory of the parent's run outputs")
    parser.add_argument("change", help="directory of the change's run outputs")
    args = parser.parse_args(argv)
    with open(args.benchmark) as handle:
        benchmark = json.load(handle)
    rows, digests, failures = gate(benchmark, args.parent, args.change)
    print(format_rows(rows))
    print(format_digests(digests))
    for failure in failures:
        print("FAIL: %s" % failure)
    print("perf-gate: %s" % ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
