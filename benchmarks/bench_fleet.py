"""Fleet benchmark: sharded throughput behind the asyncio router.

Runnable standalone (used by the CI fleet-smoke job) or under the
benchmark harness::

    PYTHONPATH=src python benchmarks/bench_fleet.py --out BENCH_fleet.json
    PYTHONPATH=src python benchmarks/bench_fleet.py --small --out /tmp/b.json

An async load generator drives a workload of distinct adder-vs-adder
equivalence checks through two configurations:

* **single** — one in-process ``CecServer`` (one solver worker),
  clients connect directly;
* **fleet** — the same workload through ``repro-router`` fronting two
  identically-sized shards, so the consistent-hash ring spreads the
  solves over twice the worker capacity.

Every configuration is measured with the same concurrency (several
`AsyncServiceClient` connections submitting in parallel), and every
verdict is asserted ``equivalent`` — the fleet must be faster *and*
right. On a multi-core machine the two-shard fleet must reach >= 1.5x
the single-shard throughput. On starved runners (fewer than three
CPUs: two solver workers plus the router/event loop have nothing to
run on in parallel) the document is honestly labelled
``"mode": "fallback"`` with *no* ``speedup`` key instead of
publishing a fake number.
"""

import argparse
import asyncio
import io
import json
import os
import sys
import tempfile
import time

from repro.aig.aiger import write_aag
from repro.circuits import (
    carry_lookahead_adder,
    kogge_stone_adder,
    ripple_carry_adder,
)
from repro.fleet import AsyncServiceClient, FleetRouter
from repro.service import CecServer

#: Two-shard fleet vs one shard: required gain on real hardware.
SPEEDUP_FLOOR = 1.5


def _aag(aig):
    buffer = io.StringIO()
    write_aag(aig, buffer)
    return buffer.getvalue()


def build_workload(small=False):
    """Distinct (name, aag_a, aag_b) queries: every pair is a cold
    solve (distinct cache keys), so throughput measures solver
    capacity, not cache hits."""
    widths = range(2, 6) if small else range(2, 8)
    queries = []
    for width in widths:
        ripple = _aag(ripple_carry_adder(width))
        queries.append(
            ("rca%d-vs-ks%d" % (width, width), ripple,
             _aag(kogge_stone_adder(width))),
        )
        queries.append(
            ("rca%d-vs-cla%d" % (width, width), ripple,
             _aag(carry_lookahead_adder(width))),
        )
    return queries


async def _drive(address, workload, concurrency):
    """The load generator: *concurrency* client connections pull
    queries from one shared list and submit them concurrently."""
    queue = list(enumerate(workload))
    routed_to = {}

    async def client_worker():
        async with AsyncServiceClient(address, timeout=300.0) as client:
            while queue:
                index, (name, aag_a, aag_b) = queue.pop()
                submitted = await client.submit(aag_a, aag_b)
                job = submitted["job"]
                # Routed ids are "<raw>@<shard>"; direct ids have no @.
                _, _, shard = job.partition("@")
                routed_to[index] = shard or address
                response = await client.result(job, wait=True)
                assert response["verdict"] == "equivalent", (
                    name, response,
                )

    start = time.perf_counter()
    await asyncio.gather(
        *(client_worker() for _ in range(concurrency))
    )
    seconds = time.perf_counter() - start
    return {
        "jobs": len(workload),
        "seconds": round(seconds, 4),
        "jobs_per_second": round(
            len(workload) / max(seconds, 1e-9), 2
        ),
        "shards_used": sorted(set(routed_to.values())),
    }


async def _run_single(scratch, workload, concurrency):
    server = CecServer(
        scratch + "/single.sock", workers=1,
        cache_dir=scratch + "/single-cache",
    )
    server.start()
    try:
        return await _drive(server.address, workload, concurrency)
    finally:
        server.close()


async def _run_fleet(scratch, workload, concurrency):
    shards = []
    for label in ("a", "b"):
        shard = CecServer(
            scratch + "/shard-%s.sock" % label, workers=1,
            cache_dir=scratch + "/cache-%s" % label,
        )
        shard.start()
        shards.append(shard)
    router = FleetRouter(
        scratch + "/router.sock",
        [shard.address for shard in shards],
    )
    await router.start()
    try:
        measured = await _drive(
            scratch + "/router.sock", workload, concurrency
        )
        measured["router_counters"] = {
            name: value
            for name, value in sorted(
                router.stats_report()["counters"].items()
            )
            if name.startswith("fleet/")
        }
        return measured
    finally:
        await router.close()
        for shard in shards:
            shard.close()


async def _run_async(small, concurrency):
    workload = build_workload(small=small)
    with tempfile.TemporaryDirectory() as scratch:
        single = await _run_single(scratch, workload, concurrency)
        fleet = await _run_fleet(scratch, workload, concurrency)
    return workload, single, fleet


def run(small=False, concurrency=4):
    """Measure both configurations; honest fallback when starved."""
    workload, single, fleet = asyncio.run(
        _run_async(small, concurrency)
    )
    assert fleet["router_counters"]["fleet/jobs-routed"] \
        == len(workload), fleet
    cpus = os.cpu_count() or 1
    document = {
        "bench": "fleet",
        "mode": "small" if small else "full",
        "cpus": cpus,
        "concurrency": concurrency,
        "pairs": [name for name, _, _ in workload],
        "single": single,
        "fleet": fleet,
    }
    speedup = fleet["jobs_per_second"] / max(
        single["jobs_per_second"], 1e-9
    )
    if cpus < 3:
        # One core runs one solver at a time no matter how many
        # shards front it; record the observation, claim nothing.
        document["mode"] = "fallback"
        document["fallback"] = "cpus"
    else:
        document["speedup"] = round(speedup, 2)
    return document


def test_fleet_bench_smoke():
    """Harness entry: the small configuration must hold end to end."""
    from conftest import report_table

    document = run(small=True, concurrency=2)
    report_table(
        "Fleet: single shard vs 2-shard router",
        ["config", "jobs", "seconds", "jobs/sec"],
        [
            ["single", document["single"]["jobs"],
             document["single"]["seconds"],
             document["single"]["jobs_per_second"]],
            ["fleet (2 shards)", document["fleet"]["jobs"],
             document["fleet"]["seconds"],
             document["fleet"]["jobs_per_second"]],
        ],
        notes=[
            "speedup: %.2fx" % document["speedup"]
            if "speedup" in document
            else "fallback (%d cpu(s)): no speedup claimed"
            % document["cpus"],
        ],
    )
    # Correctness invariants hold regardless of hardware.
    assert len(document["fleet"]["shards_used"]) == 2, document["fleet"]
    if "speedup" in document:
        assert document["speedup"] >= SPEEDUP_FLOOR, document


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="sharded fleet throughput benchmark "
        "(async load generator, 2-shard router vs one server)"
    )
    parser.add_argument(
        "--small", action="store_true",
        help="CI-sized configuration (8 pairs instead of 12)",
    )
    parser.add_argument(
        "--concurrency", type=int, default=4, metavar="N",
        help="concurrent client connections (default %(default)s)",
    )
    parser.add_argument(
        "--out", metavar="PATH",
        help="write the JSON result document to PATH",
    )
    args = parser.parse_args(argv)
    document = run(small=args.small, concurrency=args.concurrency)
    summary = (
        "%.2fx speedup" % document["speedup"]
        if "speedup" in document
        else "fallback on %d cpu(s), no speedup claimed"
        % document["cpus"]
    )
    print(
        "fleet bench (%s): single %d jobs in %.3fs (%.1f/s), "
        "2-shard fleet %d jobs in %.3fs (%.1f/s), %s"
        % (
            document["mode"],
            document["single"]["jobs"], document["single"]["seconds"],
            document["single"]["jobs_per_second"],
            document["fleet"]["jobs"], document["fleet"]["seconds"],
            document["fleet"]["jobs_per_second"],
            summary,
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
