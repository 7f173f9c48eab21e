"""Performance benchmark: batched counterexample refinement.

Runnable as a standalone script (used by the CI perf-smoke job) or
under the benchmark harness::

    PYTHONPATH=src python benchmarks/bench_perf_refinement.py --out BENCH_refinement.json
    PYTHONPATH=src python benchmarks/bench_perf_refinement.py --small --out /tmp/b.json

It sweeps an adder pair with ``sim_words=0`` so every candidate class
is built purely from counterexample refinement, and compares full-AIG
simulation passes between the legacy one-pattern-per-pass path
(``refine_batch=0``), the batched path (``refine_batch=1``), and
deferred flushing (``refine_batch=4``). The batched path must do at
least 3x fewer passes at an identical verdict.

The JSON written by ``--out`` embeds the batched sweep's
``repro-stats/1`` report so CI can validate it.
"""

import argparse
import json
import sys
import time

from repro.circuits import kogge_stone_adder, ripple_carry_adder
from repro.core.cec import check_equivalence
from repro.core.fraig import SweepOptions
from repro.instrument import Recorder
from repro.instrument.recorder import validate_report

CEX_NEIGHBORS = 4  # each refinement simulates the cex plus 4 neighbours
REFINE_MODES = [("legacy", 0), ("batched", 1), ("deferred4", 4)]


def _sweep(width, refine_batch):
    aig_a = ripple_carry_adder(width)
    aig_b = kogge_stone_adder(width)
    options = SweepOptions(
        sim_words=0, cex_neighbors=CEX_NEIGHBORS, refine_batch=refine_batch
    )
    start = time.perf_counter()
    result = check_equivalence(aig_a, aig_b, options)
    elapsed = time.perf_counter() - start
    return result, elapsed


def refinement_benchmark(small=False):
    """Compare simulation passes across refinement modes on one pair."""
    width = 8 if small else 16
    runs = {}
    for name, refine_batch in REFINE_MODES:
        result, elapsed = _sweep(width, refine_batch)
        assert result.equivalent is True, name
        stats = result.engine.stats
        runs[name] = {
            "refine_batch": refine_batch,
            "sim_passes": stats.sim_passes,
            "refinements": stats.refinements,
            "refine_flushes": stats.refine_flushes,
            "refine_patterns": stats.refine_patterns,
            "sat_calls": stats.sat_calls,
            "seconds": round(elapsed, 4),
        }
        if refine_batch == 1:
            validate_report(result.stats)
            runs[name]["stats"] = result.stats
    legacy, batched = runs["legacy"], runs["batched"]
    assert batched["refinements"] == legacy["refinements"]
    ratio = legacy["sim_passes"] / max(batched["sim_passes"], 1)
    if not small:
        # The full-size pair must exercise the acceptance criterion:
        # >= 50 refinements and >= 3x fewer simulation passes.
        assert batched["refinements"] >= 50, batched["refinements"]
    assert ratio >= 3.0, ratio
    return {
        "pair": "rca%d-vs-ks%d" % (width, width),
        "cex_neighbors": CEX_NEIGHBORS,
        "runs": runs,
        "sim_pass_ratio": round(ratio, 2),
    }


def run(small=False):
    """Run the experiment; returns the result document."""
    return {
        "bench": "perf_refinement",
        "mode": "small" if small else "full",
        "refinement": refinement_benchmark(small=small),
    }


def test_perf_refinement_smoke(tmp_path):
    """Harness entry: the small configuration must hold end to end."""
    from conftest import report_table

    document = run(small=True)
    runs = document["refinement"]["runs"]
    report_table(
        "Perf: batched refinement (pair %s)"
        % document["refinement"]["pair"],
        ["mode", "sim passes", "refinements", "flushes", "time(s)"],
        [
            [name, r["sim_passes"], r["refinements"], r["refine_flushes"],
             r["seconds"]]
            for name, r in runs.items()
        ],
        notes=[
            "sim-pass ratio legacy/batched: %.1fx"
            % document["refinement"]["sim_pass_ratio"],
        ],
    )


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Batched-refinement benchmark"
    )
    parser.add_argument(
        "--small",
        action="store_true",
        help="CI-sized configuration (8-bit adders)",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        help="write the JSON result document (with the embedded "
        "repro-stats/1 report) to PATH",
    )
    args = parser.parse_args(argv)
    document = run(small=args.small)
    refinement = document["refinement"]
    print(
        "refinement %s: legacy %d passes, batched %d, deferred %d "
        "(%.1fx fewer; %d refinements)"
        % (
            refinement["pair"],
            refinement["runs"]["legacy"]["sim_passes"],
            refinement["runs"]["batched"]["sim_passes"],
            refinement["runs"]["deferred4"]["sim_passes"],
            refinement["sim_pass_ratio"],
            refinement["runs"]["batched"]["refinements"],
        )
    )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("results written to %s" % args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
