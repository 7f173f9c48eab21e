"""The layered CEC benchmark: three workloads, one ledger.

Run from the repository root::

    python3 perfbench/run.py --workload prove --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics, the tracing overhead, and (``prove``) the paper's
Table 3/4 view or (``fleet-mixed``) a breakdown of a cache hit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are the human-readable ledger, and the full ledger document is
written under ``perfbench/out/``. The run exits 1 on a wrong verdict, a
certificate that fails replay, a counterexample that does not simulate
to a mismatch, or a proof that is not byte-identical across repeats.
"""

import argparse
import json
import os
import shutil
import sys
import time

import ledger  # the program under test is imported only once src/ is found

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join("perfbench", "out")
#: Set-up runs at least this many times and until this much set-up time
#: has passed; ``setup_s`` is the median, so a short burst of host
#: contention does not move it.
SETUP_REPEATS = 7
SETUP_SECONDS = 3.0


def timed_setups(make, teardown=None):
    """Time *make* repeatedly; ``(median seconds, last value)``.

    *teardown* releases every value but the last (the one the
    measurement uses) and runs outside the timer.
    """
    seconds = []
    while True:
        start = time.perf_counter()
        value = make()
        seconds.append(time.perf_counter() - start)
        if len(seconds) >= SETUP_REPEATS and sum(seconds) >= SETUP_SECONDS:
            return ledger.median(seconds), value
        if teardown is not None:
            teardown(value)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=ledger.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pairs", type=int, default=None,
        help="use only the first N suite pairs and stop after one round "
        "(a quick self-check; the full benchmark omits it)")
    return parser.parse_args(argv)


def run_library(args, certificates, document):
    import inputs
    import library

    faults = None
    if args.workload == "refute":
        start = time.perf_counter()
        faults = inputs.oracle_faults(args.pairs, args.seed,
                                     inputs.REFUTE_KINDS)
        document["oracle_s"] = time.perf_counter() - start

    def make():
        pairs = inputs.suite_items(args.pairs)
        return pairs if faults is None else inputs.mutant_items(pairs, faults)

    setup_s, items = timed_setups(make)
    document["inputs"] = [item.name for item in items]
    ledger.reset_peak_rss()
    min_samples = ledger.min_samples(args.workload)
    if faults is None:
        groups = [items]
    else:
        # Mutants come pair by pair; group j takes each pair's j-th.
        per_pair = len(inputs.REFUTE_KINDS)
        groups = [items[j::per_pair] for j in range(per_pair)]
        min_samples = max(min_samples, len(items))
    if args.pairs:
        min_samples = len(items)
    if args.trace:
        layers, rounds, overhead = library.measure_traced(
            groups, args.seed, args.seconds, certificates)
        document["overhead"] = overhead
        if args.workload == "prove":
            document["paper_view"] = library.paper_view(
                items, rounds.traced_samples)
        return layers, rounds
    metrics, rounds = library.measure(
        groups, args.seed, args.seconds, certificates, min_samples,
        ledger.TAIL_PERCENTILE[args.workload])
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = ledger.vm_hwm_mb()
    return metrics, rounds


def run_fleet(args, certificates, document):
    import fleet
    import inputs

    start = time.perf_counter()
    faults = inputs.oracle_faults(args.pairs, args.seed,
                                 inputs.FLEET_KINDS)
    document["oracle_s"] = time.perf_counter() - start
    # A fixed directory gives the shards the same addresses on every run,
    # so the consistent-hash ring places each item on the same shard.
    run_dir = os.path.join(OUT, "fleet")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    fleets = []

    def make():
        pairs = inputs.suite_items(args.pairs)
        items = pairs + inputs.mutant_items(pairs, faults)
        for item in items:
            item.texts()
        instance = fleet.Fleet(ROOT, run_dir)
        fleets.append(instance)
        instance.start()
        return items

    try:
        setup_s, items = timed_setups(make, lambda items: fleets[-1].stop())
        document["inputs"] = [item.name for item in items]
        ledger.reset_peak_rss()
        min_samples = (len(items) if args.pairs
                       else ledger.min_samples(args.workload))
        if args.trace:
            layers, rounds, breakdown, overhead = fleet.measure_traced(
                fleets[-1], items, args.seed, args.seconds, certificates)
            document["overhead"] = overhead
            document["hit_breakdown"] = breakdown
            return layers, rounds
        metrics, rounds = fleet.measure(
            fleets[-1], items, args.seed, args.seconds, certificates,
            min_samples, ledger.TAIL_PERCENTILE[args.workload])
        document["round_phase_seconds"] = rounds.phase_seconds
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = (ledger.vm_hwm_mb()
                                  + fleets[-1].peak_rss_mb())
        return metrics, rounds
    finally:
        for instance in fleets:
            instance.stop()
        shutil.rmtree(run_dir, ignore_errors=True)


def print_ledger(document):
    machine = document["machine"]
    print("perfbench %s seed=%d trace=%d  python %s  cpus %s  %s"
          % (machine["workload"], machine["seed"], document["trace"],
             machine["python"], machine["cpu_count"], machine["platform"]))
    print("source %s  commit %s" % (machine["source_sha256"][:16],
                                    machine["git_commit"]))
    for name, cell in document["metrics"].items():
        print("%-34s %14.4f %s" % (name, cell["value"], cell["unit"]))
    # Printed, not gated: a healthy run reads 0, and a bound that is a
    # share of the parent's median means nothing at 0.
    print("%-34s %14.4f frac  (%d failed of %d attempted)"
          % ("failed_frac", document["failed_frac"], document["failed"],
             document["attempted"]))
    print("tail = p%d of %d verdicts"
          % (document["tail_percentile"], document["samples"]))
    certificates = document["certificates"]
    print("proof_digest %s (%d proofs)  cex_digest %s (%d)"
          % (certificates["proof_digest"], certificates["proofs"],
             certificates["cex_digest"], certificates["counterexamples"]))
    paper = document.get("paper_view")
    if paper:
        print("paper view: geo-mean time ratio %.2fx, resolution ratio "
              "%.2fx (monolithic / sweep)"
              % (paper["geomean_time_ratio"],
                 paper["geomean_resolution_ratio"]))
    print("ledger document: %s" % document["path"])


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no program sources under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    # Every process the run starts, and every one those start, has ended
    # by the time the run exits.
    ledger.adopt_orphans()
    try:
        return measure_and_report(args)
    finally:
        ledger.reap_children()


def measure_and_report(args):
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(OUT, exist_ok=True)
    certificates = ledger.Certificates()
    document = {
        "schema": "perfbench-ledger/1",
        "machine": ledger.machine(ROOT, args.workload, args.seed),
        "trace": args.trace,
        "seconds": args.seconds,
    }
    runner = run_fleet if args.workload == "fleet-mixed" else run_library
    try:
        values, counts = runner(args, certificates, document)
    except ledger.WrongAnswer as exc:
        print("perfbench: WRONG ANSWER: %s" % exc, file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 1
    report = certificates.report()
    correct = not report["nondeterministic_items"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    table = {metric["name"]: metric["unit"]
             for metric in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in table.items()
    }
    document.update(
        metrics=metrics,
        attempted=counts.attempted,
        failed=counts.failed,
        failed_frac=counts.failed / float(counts.attempted),
        samples=len(counts.traced_samples if args.trace
                    else counts.samples),
        tail_percentile=ledger.TAIL_PERCENTILE[args.workload],
        certificates=report,
        requests=[
            [sample["item"], sample.get("cached"), sample["verdict_s"],
             sample["certified_s"]]
            for sample in counts.samples
        ],
        path=os.path.join(OUT, "%s-seed%d-trace%d.json"
                          % (args.workload, args.seed, args.trace)),
    )
    if args.trace:
        document["layers_not_crossed"] = sorted(set(table) - set(values))
        document["expected_moves"] = {
            name: {"layer": layer, "moves": moves, "on": on}
            for name, (layer, moves, on) in ledger.PER_LAYER.items()
        }
    with open(document["path"], "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True, default=str)
    print_ledger(document)
    if not correct:
        print("perfbench: proofs not byte-identical across repeats: %s"
              % ", ".join(report["nondeterministic_items"]), file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": counts.attempted,
        "failed": counts.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
