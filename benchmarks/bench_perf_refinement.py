"""Performance benchmark: batched counterexample refinement.

Runnable as a standalone script (used by the CI perf-smoke job) or
under the benchmark harness::

    PYTHONPATH=src python benchmarks/bench_perf_refinement.py --out BENCH_refinement.json
    PYTHONPATH=src python benchmarks/bench_perf_refinement.py --small --out /tmp/b.json

It sweeps an adder pair with ``sim_words=0`` so every candidate class
is built purely from counterexample refinement. Each refinement round
absorbs the counterexample and its distance-1 neighbours with one
full-AIG simulation pass, so the sweep must take exactly one pass per
round. ``sim_pass_ratio`` is refinement patterns per pass: the passes a
one-pattern-per-pass refinement would take, divided by the passes
taken. It must be at least 3 at an identical verdict.

The JSON written by ``--out`` embeds the sweep's ``repro-stats/1``
report so CI can validate it.
"""

import argparse
import json
import sys
import time

from repro.circuits import kogge_stone_adder, ripple_carry_adder
from repro.core.cec import check_equivalence
from repro.core.fraig import SweepOptions
from repro.instrument.recorder import validate_report

CEX_NEIGHBORS = 4  # each refinement simulates the cex plus 4 neighbours


def refinement_benchmark(small=False):
    """Count simulation passes and refinement patterns on one pair."""
    width = 8 if small else 16
    aig_a = ripple_carry_adder(width)
    aig_b = kogge_stone_adder(width)
    options = SweepOptions(sim_words=0, cex_neighbors=CEX_NEIGHBORS)
    start = time.perf_counter()
    result = check_equivalence(aig_a, aig_b, options)
    elapsed = time.perf_counter() - start
    assert result.equivalent is True
    validate_report(result.stats)
    stats = result.engine.stats
    batched = {
        "sim_passes": stats.sim_passes,
        "refinements": stats.refinements,
        "refine_patterns": stats.refine_patterns,
        "sat_calls": stats.sat_calls,
        "seconds": round(elapsed, 4),
        "stats": result.stats,
    }
    # One pass per refinement round (sim_words=0: no initial pass).
    assert stats.sim_passes == stats.refinements, batched
    ratio = stats.refine_patterns / max(stats.sim_passes, 1)
    if not small:
        # The full-size pair must exercise the acceptance criterion:
        # >= 50 refinements and >= 3x fewer simulation passes.
        assert stats.refinements >= 50, stats.refinements
    assert ratio >= 3.0, ratio
    return {
        "pair": "rca%d-vs-ks%d" % (width, width),
        "cex_neighbors": CEX_NEIGHBORS,
        "runs": {"batched": batched},
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
    refinement = document["refinement"]
    batched = refinement["runs"]["batched"]
    report_table(
        "Perf: batched refinement (pair %s)" % refinement["pair"],
        ["sim passes", "refinements", "patterns", "time(s)"],
        [[batched["sim_passes"], batched["refinements"],
          batched["refine_patterns"], batched["seconds"]]],
        notes=[
            "refinement patterns per sim pass: %.1fx"
            % refinement["sim_pass_ratio"],
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
    batched = refinement["runs"]["batched"]
    print(
        "refinement %s: %d patterns in %d passes (%.1fx fewer than one "
        "pass per pattern; %d refinements)"
        % (
            refinement["pair"],
            batched["refine_patterns"],
            batched["sim_passes"],
            refinement["sim_pass_ratio"],
            batched["refinements"],
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
