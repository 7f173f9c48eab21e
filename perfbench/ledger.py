"""Shared bookkeeping for the layered CEC benchmark.

Percentiles, the trajectory digest, the machine record, and the table of
per-layer metrics: the module each one measures, and the end-to-end
metric and workload it is expected to move.
"""

import hashlib
import math
import os
import platform
import signal
import subprocess
import sys
import time

WORKLOADS = ("prove", "refute", "fleet-mixed")

#: The percentile each workload reports as its tail. ``prove`` puts it
#: inside mul05, the pair a twentieth of its requests belong to (p95
#: would sit on that pair's edge and jump between pairs); the others take
#: p95. A run keeps going until :func:`min_samples` verdicts exist, so at
#: least ten samples lie beyond the tail.
TAIL_PERCENTILE = {"prove": 97, "refute": 95, "fleet-mixed": 95}


def min_samples(workload):
    return int(math.ceil(10 / (1 - TAIL_PERCENTILE[workload] / 100.0)))


#: Per-layer metric -> (layer, end-to-end metric it should move, on which
#: workload); names and units are in BENCHMARK.json. Times, sizes and
#: counts are means per request of the traced rounds, except
#: ``service.jobs_failed`` and ``fleet.cache_transfers``, which are
#: totals over them. A layer the workload's requests never cross reads 0.
PER_LAYER = {
    "aig.parse_ms": ("aig", "verdict_p50_ms", "fleet-mixed"),
    "aig.structhash_ms": ("aig", "verdict_p50_ms", "fleet-mixed"),
    "aig.miter_ms": ("aig", "pairs_per_s", "prove"),
    "cnf.encode_ms": ("cnf", "pairs_per_s", "prove+refute"),
    "cnf.load_ms": ("cnf", "pairs_per_s", "prove+refute"),
    "core.sweep.sim_ms": ("core", "pairs_per_s", "prove+refute"),
    "core.sweep.strash_ms": ("core", "pairs_per_s", "prove"),
    "core.sweep.sat_ms": ("core", "pairs_per_s", "prove+refute"),
    "core.sweep.refine_ms": ("core", "pairs_per_s", "refute"),
    "core.conclude_ms": ("core", "pairs_per_s", "refute"),
    "core.sweep.merges_structural": ("core", "pairs_per_s", "prove"),
    "core.sweep.merges_sat": ("core", "pairs_per_s", "prove"),
    "core.sweep.sat_calls": ("core", "pairs_per_s", "prove"),
    "core.sweep.sat_disproofs": ("core", "pairs_per_s", "refute"),
    "core.sweep.sim_passes": ("core", "pairs_per_s", "refute"),
    "core.sweep.sat_useful_frac": ("core", "pairs_per_s", "prove"),
    "sat.solve_ms": ("sat", "verdict_tail_ms", "prove"),
    "sat.propagate_ms": ("sat", "verdict_tail_ms", "prove"),
    "sat.analyze_ms": ("sat", "verdict_tail_ms", "prove"),
    "sat.conflicts": ("sat", "pairs_per_s", "refute"),
    "sat.propagations": ("sat", "pairs_per_s", "refute"),
    "sat.propagations_per_s": ("sat", "verdict_tail_ms", "prove"),
    "proof.resolutions_logged": ("proof", "certified_p50_ms", "prove"),
    "proof.trim_ms": ("proof", "certified_p50_ms", "prove"),
    "proof.trim_survival": ("proof", "certified_p50_ms", "prove"),
    "proof.check_ms": ("proof", "certified_tail_ms", "prove"),
    "proof.check_resolutions_per_s": ("proof", "certified_tail_ms", "prove"),
    "proof.tracecheck_kb": ("proof", "certified_p50_ms", "prove"),
    "core.serialize_ms": ("core", "verdict_p50_ms", "fleet-mixed"),
    "core.decode_ms": ("core", "certified_p50_ms", "fleet-mixed"),
    "service.response_kb": ("service", "verdict_p50_ms", "fleet-mixed"),
    "service.queue_wait_ms": ("service", "verdict_tail_ms", "fleet-mixed"),
    "service.job_self_ms": ("service", "verdict_tail_ms", "fleet-mixed"),
    "service.worker_check_ms": ("service", "verdict_tail_ms", "fleet-mixed"),
    "service.worker_trim_ms": ("service", "verdict_tail_ms", "fleet-mixed"),
    "service.cache.lookup_ms": ("service", "verdict_p50_ms", "fleet-mixed"),
    "service.cache.store_ms": ("service", "verdict_tail_ms", "fleet-mixed"),
    "service.cache.hit_frac": ("service", "verdict_p50_ms", "fleet-mixed"),
    "service.jobs_failed": ("service", "pairs_per_s", "fleet-mixed"),
    "client.submit_ms": ("service", "verdict_p50_ms", "fleet-mixed"),
    "client.result_ms": ("service", "verdict_p50_ms", "fleet-mixed"),
    "fleet.route_self_ms": ("fleet", "verdict_p50_ms", "fleet-mixed"),
    "fleet.shard_requests_per_submit": (
        "fleet", "verdict_p50_ms", "fleet-mixed"),
    "fleet.cache_transfers": ("fleet", "verdict_p50_ms", "fleet-mixed"),
    "fleet.shard_skew": ("fleet", "verdict_p50_ms", "fleet-mixed"),
    "instrument.trace_overhead_frac": ("instrument", "pairs_per_s", "all"),
}


class WrongAnswer(Exception):
    """A verdict, proof or counterexample that fails the correctness gate."""


def percentile(values, pct):
    """Linear-interpolation percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(math.floor(rank))
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values):
    return percentile(values, 50)


def geometric_mean(values):
    return math.exp(sum(math.log(value) for value in values) / len(values))


def end_to_end(per_round, tail, walls=None):
    """Throughput, latency and proof-size metrics of untraced rounds.

    *per_round* holds each round's samples. Throughput and medians are
    taken per round and the median over rounds reported: host contention
    comes in bursts of seconds, and a burst then slows a minority of
    rounds without moving the result. Tails, at percentile *tail*, pool
    every request of the run, the only way to leave ten samples beyond.
    Throughput is verdicts over the round's wall time when *walls* is
    given (concurrent clients), else over the summed request times.
    """
    rates = []
    for index, samples in enumerate(per_round):
        busy = (walls[index] if walls
                else sum(sample["certified_s"] for sample in samples))
        rates.append(len(samples) / busy)
    metrics = {"pairs_per_s": median(rates)}
    pooled = [sample for samples in per_round for sample in samples]
    for name in ("verdict", "certified"):
        key = name + "_s"
        metrics[name + "_p50_ms"] = 1000.0 * median([
            median([sample[key] for sample in samples])
            for samples in per_round
        ])
        metrics[name + "_tail_ms"] = 1000.0 * percentile(
            [sample[key] for sample in pooled], tail)
    # Each distinct item counts once; its certificate is the same on
    # every repeat (checked by Certificates).
    per_item = {sample["item"]: sample["resolutions"] for sample in pooled}
    metrics["proof_resolutions"] = sum(per_item.values())
    return metrics


def sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Certificates:
    """Per-item certificate digests, checked for byte identity.

    Each item must yield the same certificate (trimmed TraceCheck text or
    counterexample bits) every time it is answered in one run; the run's
    digest covers every item once, in name order, so two runs of the same
    code print the same digest.
    """

    def __init__(self):
        self.proofs = {}
        self.cexes = {}
        self.mismatches = []

    def _note(self, table, item, text):
        digest = sha256_text(text)
        previous = table.setdefault(item, digest)
        if previous != digest:
            self.mismatches.append(item)

    def proof(self, item, tracecheck_text):
        self._note(self.proofs, item, tracecheck_text)

    def counterexample(self, item, bits):
        self._note(self.cexes, item, "".join(str(bit) for bit in bits))

    @staticmethod
    def _digest(table):
        return sha256_text("".join(
            "%s %s\n" % (item, table[item]) for item in sorted(table)
        ))

    def report(self):
        return {
            "proof_digest": self._digest(self.proofs),
            "proofs": len(self.proofs),
            "cex_digest": self._digest(self.cexes),
            "counterexamples": len(self.cexes),
            "nondeterministic_items": sorted(set(self.mismatches)),
        }


def source_digest(root):
    """sha256 over the program's sources (the checkout may not be a git
    repository, so this stands in for the commit)."""
    digest = hashlib.sha256()
    for directory, subdirs, files in sorted(os.walk(os.path.join(root,
                                                                 "src"))):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_commit(root):
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine(root, workload, seed):
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
    }


def vm_hwm_mb(pid="self"):
    """Peak resident set of one process (``VmHWM``) in MB, or None."""
    try:
        with open("/proc/%s/status" % pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def reset_peak_rss():
    """Restart this process's ``VmHWM`` from its current RSS, so the peak
    covers the measured phase and not set-up (Linux; no-op elsewhere)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def descendants(pid):
    """Pids of every live descendant of *pid* (Linux ``/proc`` scan)."""
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z":
            parents.setdefault(int(fields[1]), []).append(int(entry))
    found, stack = [], [pid]
    while stack:
        for child in parents.get(stack.pop(), ()):
            found.append(child)
            stack.append(child)
    return found


PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans():
    """Make this process the parent of every orphan among its
    descendants (a pool's resource tracker, a shard worker's helper), so
    :func:`reap_children` can wait for them (Linux; no-op elsewhere)."""
    try:
        import ctypes
        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def reap_children(grace=10.0):
    """Return once no process started by this one is left.

    Stops this process's multiprocessing resource tracker, which would
    otherwise outlive the run, then waits for every child and adopted
    orphan, killing what still runs after *grace* seconds.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in descendants(os.getpid()):
                try:
                    os.kill(child, signal.SIGKILL)
                except OSError:
                    pass
        time.sleep(0.01)


class Sums:
    """Accumulates named per-request values; reports means per request."""

    def __init__(self):
        self.totals = {}
        self.requests = 0

    def add(self, name, value):
        self.totals[name] = self.totals.get(name, 0.0) + value

    def total(self, name):
        return self.totals.get(name, 0.0)

    def mean(self, name):
        return self.total(name) / self.requests if self.requests else 0.0

    def ratio(self, numerator, denominator):
        below = self.total(denominator)
        return self.total(numerator) / below if below else 0.0


def phase_seconds(stats, name):
    """Seconds of phase *name* in a ``repro-stats/1`` report, also where
    an enclosing phase prefixed it (``service/check/cec/miter``)."""
    suffix = "/" + name
    return sum(
        cell["seconds"] for key, cell in stats["phases"].items()
        if key == name or key.endswith(suffix)
    )


def add_engine_stats(sums, stats):
    """Fold one check's ``repro-stats/1`` report into the engine layers."""
    counters = stats["counters"]
    for metric, phase in (
        ("aig.miter_ms", "cec/miter"),
        ("cnf.encode_ms", "sweep/encode"),
        ("cnf.load_ms", "sweep/load"),
        ("core.sweep.sim_ms", "sweep/sim"),
        ("core.sweep.strash_ms", "sweep/strash"),
        ("core.sweep.sat_ms", "sweep/sat"),
        ("core.sweep.refine_ms", "sweep/refine-batch"),
        ("core.conclude_ms", "cec/conclude"),
        ("sat.solve_ms", "solver/solve"),
        ("sat.propagate_ms", "solver/propagate"),
        ("sat.analyze_ms", "solver/analyze"),
    ):
        sums.add(metric, 1000.0 * phase_seconds(stats, phase))
    for metric, counter in (
        ("core.sweep.merges_structural", "sweep/structural_merges"),
        ("core.sweep.merges_sat", "sweep/sat_merges"),
        ("core.sweep.sat_calls", "sweep/sat_calls"),
        ("core.sweep.sat_disproofs", "sweep/sat_calls_sat"),
        ("sweep.sat_unsat", "sweep/sat_calls_unsat"),
        ("core.sweep.sim_passes", "sweep/sim_passes"),
        ("sat.conflicts", "solver/conflicts"),
        ("sat.propagations", "solver/propagations"),
        ("proof.resolutions_logged", "proof/resolutions"),
    ):
        sums.add(metric, counters.get(counter, 0))
    sums.add("propagate_s", phase_seconds(stats, "solver/propagate"))


ENGINE_MEANS = (
    "aig.miter_ms", "cnf.encode_ms", "cnf.load_ms", "core.sweep.sim_ms",
    "core.sweep.strash_ms", "core.sweep.sat_ms", "core.sweep.refine_ms",
    "core.conclude_ms", "sat.solve_ms", "sat.propagate_ms",
    "sat.analyze_ms", "core.sweep.merges_structural",
    "core.sweep.merges_sat", "core.sweep.sat_calls",
    "core.sweep.sat_disproofs", "core.sweep.sim_passes", "sat.conflicts",
    "sat.propagations", "proof.resolutions_logged",
)


def engine_layers(sums):
    """Per-request engine-layer metrics from :func:`add_engine_stats`."""
    layers = {name: sums.mean(name) for name in ENGINE_MEANS}
    layers["core.sweep.sat_useful_frac"] = sums.ratio(
        "sweep.sat_unsat", "core.sweep.sat_calls")
    layers["sat.propagations_per_s"] = sums.ratio(
        "sat.propagations", "propagate_s")
    return layers


def overhead_frac(untraced_rates, traced_rates):
    """Fractional slowdown of traced rounds against untraced ones."""
    return median(untraced_rates) / median(traced_rates) - 1.0
