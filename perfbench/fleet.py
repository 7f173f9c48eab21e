"""``fleet-mixed``: equivalent pairs and mutants through ``repro-router``.

Two ``repro-serve --workers 1`` shards and one ``repro-router`` run as
separate CLI processes, each starting from an empty cache. A round sends
every item once cold (a miss: worker dispatch, worker-side trim,
serialize, cache store), then ``HITS`` more times in a seeded order with
alternating orientation (hits: router and shard parse and structhash,
cache read, response encode, client decode). Two closed-loop client
connections share one process. Between rounds the shard caches are
emptied, so every round sees the same miss/hit mix.
"""

import io
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
import traceback

from repro.aig.aiger import read_aag
from repro.core.certify import CertificationError, certify
from repro.core.serialize import result_from_dict, result_to_dict
from repro.instrument.tracing import (
    TraceContext,
    span_self_seconds,
)
from repro.service import protocol
from repro.service.cache import cache_key
from repro.service.client import ServiceClient, ServiceError

import ledger
from ledger import WrongAnswer

SHARDS = 2
CONNECTIONS = 2
HITS = 3
READY_TIMEOUT = 60.0
REQUEST_TIMEOUT = 60.0
STOP_TIMEOUT = 15.0
#: Shard-side counters that each stand for one router->shard request.
SHARD_REQUEST_COUNTERS = (
    "service/jobs-submitted", "service/cache-probes",
    "service/cache-remote-gets", "service/cache-remote-puts",
)


class Fleet:
    """The shard and router processes of one fleet, plus their files.

    Addresses are Unix sockets given relative to the checkout, which is
    every process's working directory, so they stay short and inside it.
    """

    def __init__(self, root, run_dir):
        self.root = root
        self.run_dir = run_dir
        self.shards = [os.path.join(run_dir, "shard%d.sock" % index)
                       for index in range(SHARDS)]
        self.caches = [os.path.join(run_dir, "cache%d" % index)
                       for index in range(SHARDS)]
        self.router = os.path.join(run_dir, "router.sock")
        self.processes = []
        tmp = os.path.join(root, run_dir, "tmp")
        os.makedirs(tmp, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        TMPDIR=tmp)

    def _spawn(self, name, args):
        with open(os.path.join(self.run_dir, name + ".log"), "wb") as log:
            process = subprocess.Popen(
                [sys.executable, "-m"] + args, cwd=self.root, env=self.env,
                stdin=subprocess.DEVNULL, stdout=log,
                stderr=subprocess.STDOUT,
            )
        self.processes.append(process)
        return process

    def _wait_ready(self, address, process):
        deadline = time.monotonic() + READY_TIMEOUT
        while True:
            if process.poll() is not None:
                raise RuntimeError("%s exited with %d before answering"
                                   % (address, process.returncode))
            try:
                with ServiceClient(address, timeout=5.0, retries=0) as client:
                    client.ping()
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.02)

    def start(self):
        shard_processes = [
            self._spawn("shard%d" % index, [
                "repro.service.serve_cli", "--listen", address,
                "--workers", "1", "--cache", cache,
                "--log-level", "warning",
            ])
            for index, (address, cache) in enumerate(
                zip(self.shards, self.caches))
        ]
        for address, process in zip(self.shards, shard_processes):
            self._wait_ready(address, process)
        args = ["repro.fleet.router_cli", "--listen", self.router,
                "--log-level", "warning"]
        for address in self.shards:
            args += ["--shard", address]
        self._wait_ready(self.router, self._spawn("router", args))

    def reset_caches(self):
        """Empty every shard's proof cache (the shards read it from disk
        on each lookup, so the next submit of any item misses)."""
        for cache in self.caches:
            for entry in os.listdir(cache):
                shutil.rmtree(os.path.join(cache, entry))

    def counters(self):
        """``(per-shard counters, router counters)`` from the stats verb."""
        shards = []
        for address in self.shards:
            with ServiceClient(address, timeout=10.0, retries=0) as client:
                shards.append(client.stats()["counters"])
        with ServiceClient(self.router, timeout=10.0, retries=0) as client:
            router = client.stats()["counters"]
        return shards, router

    def peak_rss_mb(self):
        """Summed peak RSS of every fleet process and its workers."""
        total = 0.0
        for process in self.processes:
            for pid in [process.pid] + ledger.descendants(process.pid):
                total += ledger.vm_hwm_mb(pid) or 0.0
        return total

    def stop(self):
        """Shut the router, then the shards, down; kill what lingers."""
        for address in [self.router] + self.shards:
            try:
                with ServiceClient(address, timeout=5.0, retries=0) as client:
                    client.shutdown()
            except (OSError, ServiceError):
                pass
        for process in self.processes:
            try:
                process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                # Kill the workers first: once their parent is gone they
                # can no longer be found by parentage.
                for pid in ledger.descendants(process.pid):
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
                process.kill()
                process.wait()
        self.processes = []


def request(client, item, reverse, traced, certificates):
    """Submit one item, wait for the verdict, decode and certify it."""
    aag_a, aag_b = item.texts()
    if reverse:
        aag_a, aag_b = aag_b, aag_a
    trace = TraceContext.new().to_wire() if traced else None
    start = time.perf_counter()
    submitted = client.submit(aag_a, aag_b, trace=trace)
    submitted_at = time.perf_counter()
    response = client.result(submitted["job"], wait=True)
    verdict_at = time.perf_counter()
    result = result_from_dict(response["result"])
    decoded_at = time.perf_counter()
    if result.equivalent is not item.expected:
        raise WrongAnswer("%s: verdict %r, expected %r"
                          % (item.name, result.equivalent, item.expected))
    try:
        certify(result)
    except CertificationError as exc:
        raise WrongAnswer("%s: %s" % (item.name, exc))
    done = time.perf_counter()
    if result.equivalent:
        certificates.proof(item.name, response["result"]["proof"])
    else:
        cex = result.counterexample
        if item.a.evaluate(cex) == item.b.evaluate(cex):
            raise WrongAnswer("%s: counterexample shows no mismatch"
                              % item.name)
        certificates.counterexample(item.name, cex)
    sample = {
        "item": item.name,
        "cached": bool(submitted.get("cached")),
        "verdict_s": verdict_at - start,
        "certified_s": done - start,
        "resolutions": (result.proof.num_resolutions
                        if result.equivalent else 0),
    }
    if traced:
        sample.update(
            submit_s=submitted_at - start,
            result_s=verdict_at - submitted_at,
            decode_s=decoded_at - verdict_at,
            check_s=done - decoded_at if result.equivalent else 0.0,
            job_stats=response.get("job_stats"),
            worker_stats=response.get("worker_stats"),
            trace=response.get("trace"),
            response=response,
        )
    return sample


class Client:
    """Closed-loop connections that answer a list of requests."""

    def __init__(self, address, certificates):
        self.address = address
        self.certificates = certificates
        self.failed = 0
        self.attempted = 0
        self.fatal = []
        self._lock = threading.Lock()

    def drive(self, work, traced):
        """Answer ``[(item, reverse)]`` over ``CONNECTIONS`` connections;
        returns the samples in completion order."""
        samples = []
        pending = iter(work)

        def connection():
            with ServiceClient(self.address, timeout=REQUEST_TIMEOUT,
                               retries=0) as client:
                while True:
                    with self._lock:
                        if self.fatal:
                            return
                        step = next(pending, None)
                        if step is None:
                            return
                        self.attempted += 1
                    try:
                        sample = request(client, step[0], step[1], traced,
                                         self.certificates)
                    except WrongAnswer as exc:
                        with self._lock:
                            self.fatal.append(exc)
                        return
                    except Exception:  # counted as a failed request
                        traceback.print_exc(file=sys.stderr)
                        with self._lock:
                            self.failed += 1
                        continue
                    with self._lock:
                        samples.append(sample)

        threads = [threading.Thread(target=connection)
                   for _ in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if self.fatal:
            raise self.fatal[0]
        return samples


class Rounds:
    """Rounds of the fleet workload: cold pass, then seeded hit order."""

    def __init__(self, fleet, items, seed, certificates):
        self.fleet = fleet
        self.items = items
        self.rng = random.Random("perfbench-order-%d" % seed)
        self.client = Client(fleet.router, certificates)
        self.samples = []
        self.traced_samples = []
        self.deltas = []
        self.phase_seconds = []
        self.per_round = []
        self.walls = []

    @property
    def attempted(self):
        return self.client.attempted

    @property
    def failed(self):
        return self.client.failed

    def run(self, traced):
        """One round from empty caches; returns verdicts per second."""
        self.fleet.reset_caches()
        # Cold requests go in suite order, pairs before mutants: which
        # two misses run side by side decides how the two shards share
        # the solving, and a fixed order keeps that the same every round.
        cold = [(item, False) for item in self.items]
        hits = [(item, hit % 2 == 0) for item in self.items
                for hit in range(HITS)]
        self.rng.shuffle(hits)
        before = self.fleet.counters() if traced else None
        start = time.perf_counter()
        samples = self.client.drive(cold, traced)
        cold_s = time.perf_counter() - start
        samples += self.client.drive(hits, traced)
        wall = time.perf_counter() - start
        self.phase_seconds.append({"cold": cold_s, "hits": wall - cold_s})
        if traced:
            self.deltas.append((before, self.fleet.counters()))
            self.traced_samples.extend(samples)
        else:
            self.samples.extend(samples)
            self.per_round.append(samples)
            self.walls.append(wall)
        return len(samples) / wall, wall


def measure(fleet, items, seed, seconds, certificates, min_samples, tail):
    """Untraced rounds until *seconds* pass and *min_samples* verdicts
    exist; returns the end-to-end metrics (without set-up and memory)."""
    rounds = Rounds(fleet, items, seed, certificates)
    start = time.perf_counter()
    while True:
        wall = rounds.run(traced=False)[1]
        elapsed = time.perf_counter() - start
        if (len(rounds.samples) >= min_samples
                and elapsed + wall > seconds):
            break
    return ledger.end_to_end(rounds.per_round, tail, rounds.walls), rounds


def measure_traced(fleet, items, seed, seconds, certificates):
    """Alternate untraced and traced rounds; returns the per-layer
    metrics, the rounds, and a breakdown of a cache hit."""
    rounds = Rounds(fleet, items, seed, certificates)
    untraced_rates, traced_rates = [], []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        untraced_rates.append(rounds.run(traced=False)[0])
        traced_rates.append(rounds.run(traced=True)[0])
        now = time.perf_counter()
        if now - start + (now - pair_start) > seconds:
            break
    layers, breakdown = _layers(rounds, {item.name: item for item in items})
    layers["instrument.trace_overhead_frac"] = ledger.overhead_frac(
        untraced_rates, traced_rates)
    return layers, rounds, breakdown, {
        "untraced_pairs_per_s": untraced_rates,
        "traced_pairs_per_s": traced_rates,
    }


def _span_seconds(trace, name):
    """``(duration, self time)`` summed over the trace's spans *name*."""
    if not trace:
        return 0.0, 0.0
    self_seconds = span_self_seconds(trace)
    spans = [span for span in trace["spans"] if span["name"] == name]
    return (sum(span["dur"] for span in spans),
            sum(self_seconds[span["span_id"]] for span in spans))


def _probe(sample, item):
    """Outside timings of the per-hop work on one request's payloads:
    parsing both texts, their cache key, and serializing the result
    response (``result_to_dict`` plus the protocol's JSON encoding)."""
    aag_a, aag_b = item.texts()
    start = time.perf_counter()
    aig_a = read_aag(io.StringIO(aag_a))
    aig_b = read_aag(io.StringIO(aag_b))
    parsed = time.perf_counter()
    cache_key(aig_a, aig_b)
    hashed = time.perf_counter()
    response = sample["response"]
    result = result_from_dict(response["result"])
    encode_start = time.perf_counter()
    result_to_dict(result)
    line = protocol.encode(response)
    encoded = time.perf_counter()
    return {
        "parse_s": parsed - start,
        "structhash_s": hashed - parsed,
        "serialize_s": encoded - encode_start,
        "response_kb": len(line) / 1024.0,
    }


def _layers(rounds, items):
    samples = rounds.traced_samples
    probes = {}
    sums = ledger.Sums()
    hit_rows = []
    for sample in samples:
        sums.requests += 1
        name = sample["item"]
        if name not in probes:
            probes[name] = _probe(sample, items[name])
        probe = probes[name]
        # Every hop parses both texts (router, shard, and on a miss the
        # worker); router and shard each compute the cache key.
        hops = 2 if sample["cached"] else 3
        sums.add("aig.parse_ms", 1000.0 * probe["parse_s"] * hops)
        sums.add("aig.structhash_ms", 1000.0 * probe["structhash_s"] * 2)
        sums.add("core.serialize_ms", 1000.0 * probe["serialize_s"])
        sums.add("service.response_kb", probe["response_kb"])
        sums.add("core.decode_ms", 1000.0 * sample["decode_s"])
        sums.add("client.submit_ms", 1000.0 * sample["submit_s"])
        sums.add("client.result_ms", 1000.0 * sample["result_s"])
        sums.add("proof.check_ms", 1000.0 * sample["check_s"])
        sums.add("check_s", sample["check_s"])
        if sample["check_s"]:
            sums.add("checked_resolutions", sample["resolutions"])
        sums.add("hits", 1 if sample["cached"] else 0)
        job = sample["job_stats"] or {"phases": {}}
        for metric, phase in (
            ("service.cache.lookup_ms", "cache/lookup"),
            ("service.cache.store_ms", "cache/store"),
            ("service.queue_wait_ms", "service/queue-wait"),
        ):
            sums.add(metric, 1000.0 * ledger.phase_seconds(job, phase))
        route_s, route_self_s = _span_seconds(sample["trace"], "fleet/route")
        job_s, job_self_s = _span_seconds(sample["trace"], "service/job")
        sums.add("fleet.route_self_ms", 1000.0 * route_self_s)
        sums.add("service.job_self_ms", 1000.0 * job_self_s)
        worker = sample["worker_stats"]
        if worker:
            ledger.add_engine_stats(sums, worker)
            sums.add("service.worker_check_ms",
                     1000.0 * ledger.phase_seconds(worker, "service/check"))
            sums.add("service.worker_trim_ms",
                     1000.0 * ledger.phase_seconds(worker, "service/trim"))
            sums.add("proof.trim_ms", 1000.0 * (
                ledger.phase_seconds(worker, "trim/cone")
                + ledger.phase_seconds(worker, "trim/rebuild")))
            if sample["resolutions"]:
                sums.add("proofs", 1)
                sums.add("kept", sample["resolutions"])
                sums.add("logged_proved",
                         worker["counters"].get("proof/resolutions", 0))
                sums.add("tracecheck_kb",
                         len(sample["response"]["result"]["proof"]) / 1024.0)
        if sample["cached"]:
            hit_rows.append({
                "verdict_ms": 1000.0 * sample["verdict_s"],
                "client_submit_ms": 1000.0 * sample["submit_s"],
                "router_route_ms": 1000.0 * route_s,
                "router_self_ms": 1000.0 * route_self_s,
                "shard_job_ms": 1000.0 * job_s,
                "parse_structhash_per_hop_ms": 1000.0 * (
                    probe["parse_s"] + probe["structhash_s"]),
                "cache_lookup_ms": 1000.0 * ledger.phase_seconds(
                    job, "cache/lookup"),
                "client_result_ms": 1000.0 * sample["result_s"],
                "response_kb": probe["response_kb"],
                "serialize_per_hop_ms": 1000.0 * probe["serialize_s"],
                "client_decode_ms": 1000.0 * sample["decode_s"],
                "client_certify_ms": 1000.0 * sample["check_s"],
                "certified_ms": 1000.0 * sample["certified_s"],
            })
    layers = ledger.engine_layers(sums)
    for metric in (
        "aig.parse_ms", "aig.structhash_ms", "core.serialize_ms",
        "core.decode_ms", "service.response_kb", "client.submit_ms",
        "client.result_ms", "proof.check_ms", "proof.trim_ms",
        "service.cache.lookup_ms", "service.cache.store_ms",
        "service.queue_wait_ms", "fleet.route_self_ms",
        "service.job_self_ms", "service.worker_check_ms",
        "service.worker_trim_ms",
    ):
        layers[metric] = sums.mean(metric)
    layers["proof.trim_survival"] = sums.ratio("kept", "logged_proved")
    layers["proof.check_resolutions_per_s"] = sums.ratio(
        "checked_resolutions", "check_s")
    layers["proof.tracecheck_kb"] = sums.ratio("tracecheck_kb", "proofs")
    layers["service.cache.hit_frac"] = sums.mean("hits")
    layers.update(_counter_layers(rounds.deltas))
    breakdown = {
        key: ledger.median([row[key] for row in hit_rows])
        for key in (hit_rows[0] if hit_rows else ())
    }
    breakdown["hits"] = len(hit_rows)
    return layers, breakdown


def _counter_layers(deltas):
    """Fleet and service counters over the traced rounds."""
    failed = transfers = requests = submits = 0
    per_shard = [0] * SHARDS
    for (shards_before, router_before), (shards_after, router_after) in (
            deltas):
        for index, (before, after) in enumerate(
                zip(shards_before, shards_after)):

            def delta(name):
                return after.get(name, 0) - before.get(name, 0)

            failed += delta("service/jobs-failed")
            requests += sum(delta(name) for name in SHARD_REQUEST_COUNTERS)
            per_shard[index] += delta("service/jobs-submitted")
        routed = (router_after.get("fleet/jobs-routed", 0)
                  - router_before.get("fleet/jobs-routed", 0))
        submits += routed
        transfers += (router_after.get("fleet/cache-transfers", 0)
                      - router_before.get("fleet/cache-transfers", 0))
    # Each routed submit is followed by one forwarded result request.
    return {
        "service.jobs_failed": failed,
        "fleet.shard_requests_per_submit": (
            (requests + submits) / submits if submits else 0.0),
        "fleet.cache_transfers": transfers,
        "fleet.shard_skew": (
            max(per_shard) / min(per_shard) if min(per_shard) else 0.0),
    }
