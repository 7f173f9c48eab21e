"""``prove`` and ``refute``: the paper's artifact path in one process.

Each request is ``check_equivalence`` -> ``trim`` (equivalent only) ->
``certify``. Untraced rounds pass the null recorder; traced rounds pass
a recording ``Recorder`` with a started trace, and time ``trim`` and
``certify`` from outside.
"""

import gc
import random
import sys
import time
import traceback

from repro.baselines.monolithic import monolithic_check
from repro.core.cec import check_equivalence
from repro.core.certify import CertificationError, certify
from repro.instrument import Recorder
from repro.instrument.recorder import NULL_RECORDER
from repro.proof.tracecheck import dumps_tracecheck
from repro.proof.trim import trim

import ledger
from ledger import WrongAnswer


def answer(item, traced, certificates):
    """Check, trim and certify *item*; returns one sample dict."""
    recorder = Recorder() if traced else NULL_RECORDER
    if traced:
        recorder.start_trace()
    start = time.perf_counter()
    result = check_equivalence(item.a, item.b, recorder=recorder)
    verdict_at = time.perf_counter()
    if result.equivalent is not item.expected:
        raise WrongAnswer("%s: verdict %r, expected %r"
                          % (item.name, result.equivalent, item.expected))
    logged = result.engine.proof.num_resolutions
    if result.equivalent:
        trimmed, _ = trim(result.proof, recorder=recorder)
        result.proof = trimmed
        result.empty_clause_id = trimmed.find_empty_clause()
    trimmed_at = time.perf_counter()
    try:
        certify(result)
    except CertificationError as exc:
        raise WrongAnswer("%s: %s" % (item.name, exc))
    done = time.perf_counter()
    sample = {
        "item": item.name,
        "verdict_s": verdict_at - start,
        "certified_s": done - start,
    }
    if result.equivalent:
        text = dumps_tracecheck(result.proof)
        certificates.proof(item.name, text)
        # A delivered proof counts its trimmed resolutions; a refutation
        # delivers none, so it counts what the engine logged on the way.
        sample["resolutions"] = result.proof.num_resolutions
    else:
        cex = result.counterexample
        if item.a.evaluate(cex) == item.b.evaluate(cex):
            raise WrongAnswer("%s: counterexample shows no mismatch"
                              % item.name)
        certificates.counterexample(item.name, cex)
        sample["resolutions"] = logged
    if traced:
        sample.update(
            stats=result.stats,
            logged=logged,
            trim_s=trimmed_at - verdict_at if result.equivalent else 0.0,
            check_s=done - trimmed_at,
            tracecheck_kb=len(text) / 1024.0 if result.equivalent else 0.0,
        )
    return sample


class Rounds:
    """Rounds of one workload, cycling over *groups* of items.

    A round answers every item of the next group once, in seeded order.
    Each group holds one item per suite pair, so every round has the same
    make-up and per-round figures are comparable.
    """

    def __init__(self, groups, seed, certificates):
        self.groups = groups
        self.rng = random.Random("perfbench-order-%d" % seed)
        self.certificates = certificates
        self.samples = []
        self.traced_samples = []
        self.per_round = []
        self.count = 0
        self.failed = 0
        self.attempted = 0

    def run(self, traced):
        """One round; returns its throughput (verdicts per second)."""
        order = list(self.groups[self.count % len(self.groups)])
        self.count += 1
        self.rng.shuffle(order)
        samples = []
        for item in order:
            self.attempted += 1
            # Results hold reference cycles; collecting them here, outside
            # every timer, keeps one request's garbage out of the next
            # request's time and the peak RSS at one request's worth.
            gc.collect()
            try:
                samples.append(answer(item, traced, self.certificates))
            except WrongAnswer:
                raise
            except Exception:  # a failed request is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                self.failed += 1
        if traced:
            self.traced_samples.extend(samples)
        else:
            self.samples.extend(samples)
            self.per_round.append(samples)
        busy = sum(sample["certified_s"] for sample in samples)
        return len(samples) / busy if busy else 0.0


def measure(groups, seed, seconds, certificates, min_samples, tail):
    """Untraced rounds until *seconds* pass and *min_samples* verdicts
    exist; returns the end-to-end metrics (without set-up and memory)."""
    rounds = Rounds(groups, seed, certificates)
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        rounds.run(traced=False)
        now = time.perf_counter()
        if (len(rounds.samples) >= min_samples
                and now - start + (now - round_start) > seconds):
            break
    return ledger.end_to_end(rounds.per_round, tail), rounds


def measure_traced(groups, seed, seconds, certificates):
    """Alternate untraced and traced rounds over the same groups; returns
    per-layer metrics from the traced ones and the tracing overhead."""
    rounds = Rounds(groups, seed, certificates)
    untraced_rates, traced_rates = [], []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        untraced_rates.append(rounds.run(traced=False))
        traced_rates.append(rounds.run(traced=True))
        now = time.perf_counter()
        if now - start + (now - pair_start) > seconds:
            break
    sums = ledger.Sums()
    for sample in rounds.traced_samples:
        sums.requests += 1
        ledger.add_engine_stats(sums, sample["stats"])
        sums.add("proof.trim_ms", 1000.0 * sample["trim_s"])
        sums.add("proof.check_ms", 1000.0 * sample["check_s"])
        sums.add("check_s", sample["check_s"])
        sums.add("proof.tracecheck_kb", sample["tracecheck_kb"])
        if sample["tracecheck_kb"]:
            sums.add("proofs", 1)
            sums.add("kept", sample["resolutions"])
            sums.add("logged_proved", sample["logged"])
    layers = ledger.engine_layers(sums)
    layers["proof.trim_ms"] = sums.mean("proof.trim_ms")
    layers["proof.check_ms"] = sums.mean("proof.check_ms")
    layers["proof.trim_survival"] = sums.ratio("kept", "logged_proved")
    layers["proof.check_resolutions_per_s"] = sums.ratio("kept", "check_s")
    layers["proof.tracecheck_kb"] = sums.ratio("proof.tracecheck_kb",
                                               "proofs")
    layers["instrument.trace_overhead_frac"] = ledger.overhead_frac(
        untraced_rates, traced_rates)
    return layers, rounds, {
        "untraced_pairs_per_s": untraced_rates,
        "traced_pairs_per_s": traced_rates,
    }


def paper_view(items, traced_samples):
    """Per-pair Table 3/4 quantities plus the head-to-head geo-means.

    The engine side comes from each pair's first traced request; the
    baseline is one ``monolithic_check`` per pair. Ratios are
    monolithic over engine, so above 1 means the engine wins.
    """
    first = {}
    for sample in traced_samples:
        first.setdefault(sample["item"], sample)
    rows = []
    for item in items:
        sample = first[item.name]
        counters = sample["stats"]["counters"]
        mono = monolithic_check(item.a, item.b)
        if mono.equivalent is not True:
            raise WrongAnswer("%s: monolithic verdict %r"
                              % (item.name, mono.equivalent))
        mono_resolutions = mono.proof.num_resolutions
        rows.append({
            "pair": item.name,
            "merges_structural": counters.get("sweep/structural_merges", 0),
            "merges_sat": counters.get("sweep/sat_merges", 0),
            "sat_calls": counters.get("sweep/sat_calls", 0),
            "resolutions": sample["logged"],
            "resolutions_trimmed": sample["resolutions"],
            "trim_survival": sample["resolutions"] / sample["logged"],
            "cec_s": sample["verdict_s"],
            "mono_s": mono.elapsed_seconds,
            "mono_resolutions": mono_resolutions,
            "time_ratio": mono.elapsed_seconds / sample["verdict_s"],
            "resolution_ratio": mono_resolutions / sample["logged"],
        })
    return {
        "rows": rows,
        "geomean_time_ratio": ledger.geometric_mean(
            [row["time_ratio"] for row in rows]),
        "geomean_resolution_ratio": ledger.geometric_mean(
            [row["resolution_ratio"] for row in rows]),
        "geomean_trim_survival": ledger.geometric_mean(
            [row["trim_survival"] for row in rows]),
    }
