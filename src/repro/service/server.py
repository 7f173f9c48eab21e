"""The persistent CEC server: socket front end, job queue, worker pool.

:class:`CecServer` is a long-running process component that accepts
``repro-service/1`` requests over a Unix-domain or TCP socket, admits
jobs into a bounded queue, fans them out to a multiprocess worker pool
(:func:`repro.service.worker.execute_job`), and consults the
structural-hash :class:`~repro.service.cache.ProofCache` before paying
for any solving — a repeated or symmetric query is answered from disk
in microseconds, certificate included.

Threading model: ``socketserver.ThreadingMixIn`` gives one handler
thread per connection; handler threads only parse requests, perform
cache lookups, and wait on job events. All solving happens in the
worker pool (``workers >= 1``: separate processes; ``workers == 0``:
one in-process thread, for tests and platforms without ``fork``). A
worker that dies breaks the process pool; the next submit replaces it
(counted as ``service/pool-replacements``), and the jobs queued behind
the one it killed run on the new pool, so a crash costs that one job,
not the shard.
Shared state is the :class:`~repro.service.jobs.JobTable` (locked) and
the server's :class:`~repro.instrument.Recorder` (thread-safe), which
aggregates per-job timings into server-level throughput and hit-rate
telemetry served by the ``stats`` verb.
"""

import io
import multiprocessing
import os
import shutil
import socketserver
import tempfile
import threading
import time
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)

from .. import __version__
from ..aig.aiger import AigerError, read_aag
from ..aig.miter import check_interface
from ..core.cec import verdict_name
from ..instrument import Recorder, TraceContext, get_logger
from ..instrument.budget import non_negative
from ..instrument.metrics import observe_stats_workload, to_prometheus_text
from ..instrument.progress import (
    DEFAULT_INTERVAL as DEFAULT_PROGRESS_INTERVAL,
    latest_heartbeat,
    remove_spool,
)
from ..instrument.tracing import merge_trace_documents, new_span_id
from . import protocol
from .cache import ProofCache, cache_key, valid_key
from .jobs import DONE, JobTable, QueueFullError
from .metrics_http import MetricsHTTPServer
from .worker import build_options, check_budget, execute_job

#: Heartbeat interval while a ``result --wait`` request is blocked.
DEFAULT_POLL_INTERVAL = 0.25

log = get_logger("service.server")


def _warm_worker():
    """No-op warm-up task: forces the process pool to fork its workers
    while the server is still single-threaded (see ``__init__``)."""
    return os.getpid()


class _Handler(socketserver.StreamRequestHandler):
    """One connection: read request lines, answer each in turn."""

    def handle(self):
        server = self.server.cec_server
        while True:
            try:
                line = self.rfile.readline(protocol.MAX_LINE_BYTES + 1)
            except OSError:
                return
            if not line:
                return
            if len(line) > protocol.MAX_LINE_BYTES:
                self._send(protocol.error_response(
                    protocol.ERR_INVALID_REQUEST,
                    "request line exceeds %d bytes"
                    % protocol.MAX_LINE_BYTES,
                ))
                return
            try:
                request = protocol.decode(line)
            except protocol.ProtocolError as exc:
                self._send(protocol.error_response(exc.code, str(exc)))
                continue
            try:
                done = server.dispatch(request, self._send)
            except BrokenPipeError:
                return
            if done:
                return

    def _send(self, response):
        self.wfile.write(protocol.encode(response))
        self.wfile.flush()


class _ThreadingTCPServer(socketserver.ThreadingMixIn, socketserver.TCPServer):
    allow_reuse_address = True
    daemon_threads = True


class _ThreadingUnixServer(
    socketserver.ThreadingMixIn, socketserver.UnixStreamServer
):
    daemon_threads = True


class CecServer:
    """Persistent equivalence-checking service.

    Args:
        address: ``host:port`` or a Unix socket path (see
            :func:`repro.service.protocol.parse_address`).
        workers: worker processes (``0`` = one in-process worker
            thread).
        queue_limit: maximum queued+running jobs before ``submit``
            answers ``queue-full``.
        cache_dir: proof-cache directory (``None`` disables caching).
        default_time_limit / default_conflict_limit: per-job budget
            applied when the request does not carry its own.
        poll_interval: heartbeat period for blocked ``result`` waits.
        recorder: server-level :class:`Recorder` (one is created when
            omitted); serves the ``stats`` verb.
        retain_jobs: terminal jobs kept for late ``status``/``result``
            queries before eviction (bounds server memory; defaults to
            :attr:`JobTable.DEFAULT_RETAIN_TERMINAL`).
        metrics_address: optional ``host:port`` for the Prometheus
            ``/metrics`` HTTP endpoint (``None`` disables it; the
            ``metrics`` protocol verb works either way).
        progress_interval: seconds between live progress heartbeats
            from running workers (``None`` = the default ~0.25s;
            ``0`` disables the progress plane entirely).
    """

    def __init__(
        self,
        address,
        workers=1,
        queue_limit=32,
        cache_dir=None,
        default_time_limit=None,
        default_conflict_limit=None,
        poll_interval=DEFAULT_POLL_INTERVAL,
        recorder=None,
        retain_jobs=None,
        metrics_address=None,
        progress_interval=None,
    ):
        self.family, self.target = protocol.parse_address(address)
        metrics_target = None
        if metrics_address is not None:
            family, metrics_target = protocol.parse_address(metrics_address)
            if family != "tcp":
                raise ValueError(
                    "metrics endpoint needs host:port, got %r"
                    % metrics_address
                )
        self.workers = workers
        self.jobs = JobTable(
            queue_limit=queue_limit, retain_terminal=retain_jobs,
            workers=max(workers, 1),
        )
        self.recorder = recorder if recorder is not None else Recorder()
        self.recorder.meta.setdefault("tool", "repro-serve")
        self.recorder.meta["address"] = protocol.format_address(
            self.family, self.target
        )
        self.cache = (
            ProofCache(cache_dir, recorder=self.recorder)
            if cache_dir else None
        )
        self.default_time_limit = default_time_limit
        self.default_conflict_limit = default_conflict_limit
        self.poll_interval = poll_interval
        self.progress_interval = (
            DEFAULT_PROGRESS_INTERVAL
            if progress_interval is None else float(progress_interval)
        )
        # Heartbeat spool: one file per running job, holding the
        # newest heartbeat the worker process wrote, read by the
        # `progress` verb. A private tempdir (removed in close()) keeps
        # the server free of any cross-job file naming discipline.
        self._progress_dir = (
            tempfile.mkdtemp(prefix="repro-progress-")
            if self.progress_interval > 0 else None
        )
        self._started_monotonic = time.monotonic()
        self._shutting_down = False
        self._serving = False
        self._lock = threading.Lock()
        self.recorder.gauge("service/workers", max(workers, 1))
        self._executor = None
        self._broken_pool = None   # the pool a dead worker broke
        self._retired_pools = []   # replaced pools, reaped in close()
        self._unstarted = {}       # broken pool -> ids of jobs it queued
        self._server = None
        self._metrics_http = None
        try:
            if workers >= 1:
                # A fork-start pool in a threaded server is safe only
                # because the workers are all forked HERE, while this
                # process is still single-threaded: the warm-up submit
                # below forces the executor to launch every worker
                # before the listener or any handler thread exists.
                self._executor = ProcessPoolExecutor(  # repro-lint: ignore[concurrency.fork-after-thread]
                    max_workers=workers
                )
                self._executor.submit(_warm_worker).result()
            else:
                self._executor = ThreadPoolExecutor(max_workers=1)
            if self.family == "unix":
                if os.path.exists(self.target):
                    os.unlink(self.target)
                self._server = _ThreadingUnixServer(self.target, _Handler)
            else:
                self._server = _ThreadingTCPServer(self.target, _Handler)
            self._server.cec_server = self
            if metrics_target is not None:
                host, port = metrics_target
                self._metrics_http = MetricsHTTPServer(
                    host, port, self.prometheus_text
                ).start()
        except BaseException:
            self.close()  # e.g. a taken port: release what was opened
            raise

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self):
        """The bound address (with the OS-assigned port for ``:0``)."""
        if self.family == "unix":
            return self.target
        host, port = self._server.server_address[:2]
        return "%s:%d" % (host, port)

    def serve_forever(self):
        """Serve until :meth:`shutdown` (blocking)."""
        with self._lock:
            if self._shutting_down:
                return
            self._serving = True
        self._server.serve_forever(poll_interval=self.poll_interval)

    def start(self):
        """Serve on a daemon thread (tests/benchmarks); returns it."""
        thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        thread.start()
        return thread

    def shutdown(self):
        """Stop accepting connections and wind down the pool."""
        with self._lock:
            if self._shutting_down:
                return
            self._shutting_down = True
            serving = self._serving
        # socketserver's shutdown() handshakes with a *running*
        # serve_forever loop; on a server that never served it would
        # wait forever on the loop-exit event, so skip it — the flag
        # above already keeps serve_forever() from starting late.
        if serving:
            self._server.shutdown()
        if self._executor is not None:
            self._executor.shutdown(wait=False)

    def close(self):
        """Release sockets and the worker pool (synchronously).

        :meth:`shutdown` leaves the executor winding down on its
        manager thread so the shutdown verb never blocks a handler;
        here the pool must be reaped before returning — its manager
        thread and GC finalizers release pipe fds asynchronously, and
        letting them run past ``close()`` lets those closes race the
        fds of whatever server is created next (observed as a fresh
        listener dying before its first ``accept``).
        """
        self.shutdown()
        with self._lock:
            pools = self._retired_pools + [self._executor]
        for pool in pools:
            if pool is not None:
                pool.shutdown(wait=True)
        if self._server is not None:
            self._server.server_close()
        # Swap the endpoint out under the lock (close() may race a
        # late metrics_address reader), then close it unlocked.
        with self._lock:
            metrics_http, self._metrics_http = self._metrics_http, None
        if metrics_http is not None:
            metrics_http.close()
        if self._progress_dir is not None:
            shutil.rmtree(self._progress_dir, ignore_errors=True)
        if self.family == "unix" and os.path.exists(self.target):
            os.unlink(self.target)

    @property
    def metrics_address(self):
        """``host:port`` of the /metrics endpoint (None when disabled)."""
        if self._metrics_http is None:
            return None
        return self._metrics_http.address

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def dispatch(self, request, send):
        """Answer one request via *send*; True ends the connection."""
        verb = request.get("verb")
        if not isinstance(verb, str) or (
            verb not in protocol.VERBS and verb not in protocol.FLEET_VERBS
        ):
            send(protocol.error_response(
                protocol.ERR_INVALID_REQUEST,
                "unknown verb %r" % (verb,), verb=verb,
            ))
            return False
        # Cache verbs stay answerable while draining: they touch only
        # the on-disk cache, never the queue or the worker pool.
        # `progress` likewise only reads the job table, and a draining
        # server's in-flight jobs are exactly the ones worth watching.
        if self._shutting_down and verb not in (
            "ping", "stats", "metrics", "progress",
        ) and verb not in protocol.FLEET_VERBS:
            send(protocol.error_response(
                protocol.ERR_SHUTTING_DOWN, "server is shutting down",
                verb=verb,
            ))
            return False
        if verb in protocol.FLEET_VERBS:
            send(self._handle_cache_verb(request, verb))
            return False
        if verb == "ping":
            send(protocol.ping_response())
            return False
        if verb == "submit":
            send(self._handle_submit(request))
            return False
        if verb == "status":
            send(self._handle_status(request))
            return False
        if verb == "result":
            self._handle_result(request, send)
            return False
        if verb == "cancel":
            send(self._handle_cancel(request))
            return False
        if verb == "progress":
            send(self._handle_progress(request))
            return False
        if verb == "stats":
            # Runtime gauges (queue depth, uptime) are refreshed on
            # every stats/metrics read, not only on job transitions, so
            # scrapes between jobs never see stale values.
            self._refresh_runtime_gauges()
            send(protocol.ok_response("stats", stats=self.stats_report()))
            return False
        if verb == "metrics":
            self._refresh_runtime_gauges()
            send(protocol.ok_response(
                "metrics", metrics=self.recorder.metrics_report(),
                prometheus=self.prometheus_text(),
            ))
            return False
        # shutdown: acknowledge, then stop the server from another
        # thread (shutdown() must not run on a handler thread that
        # serve_forever is waiting on).
        send(protocol.ok_response("shutdown"))
        threading.Thread(target=self.shutdown, daemon=True).start()
        return True

    # ------------------------------------------------------------------
    # submit
    # ------------------------------------------------------------------

    def _handle_submit(self, request):
        # The router's cache-only submit asks for a hit and nothing
        # else. A hit or a refusal is answered and counted like any
        # submit; a miss admits no job and counts as a cache probe only,
        # so every shard request shows in exactly one counter.
        cache_only = request.get("cache_only") is True
        response = self._submit(request, cache_only)
        if cache_only and response["ok"] and not response["cached"]:
            self.recorder.count("service/cache-probes")
        else:
            self.recorder.count("service/jobs-submitted")
        return response

    def _submit(self, request, cache_only):
        # Trace context: adopt the client's when present and
        # well-formed, otherwise degrade to a fresh trace — a malformed
        # header must never fail the job. All server-side spans of this
        # job hang under one root "service/job" span whose id is minted
        # here and propagated to the worker.
        context, propagated = TraceContext.from_wire(request.get("trace"))
        if "trace" in request and not propagated:
            self.recorder.count("service/trace-degraded")
        job_span_id = new_span_id()
        job_recorder = Recorder()
        job_recorder.meta["tool"] = "repro-serve"
        job_recorder.start_trace(context.child(job_span_id))
        try:
            aig_a = read_aag(io.StringIO(request["aag_a"]))
            aig_b = read_aag(io.StringIO(request["aag_b"]))
            options = build_options(request.get("options"))
            check_budget(request)
            check_interface(aig_a, aig_b)
        except (AigerError, ValueError, KeyError, TypeError) as exc:
            self.recorder.count("service/jobs-rejected")
            return protocol.error_response(
                protocol.ERR_BAD_INPUT, str(exc), verb="submit",
            )
        key = cache_key(aig_a, aig_b, request.get("options"))
        if self.cache is not None:
            with job_recorder.phase("cache/lookup"):
                cached = self.cache.lookup(key)
            self.recorder.observe(
                "cache/lookup-seconds",
                job_recorder.phase_seconds("cache/lookup"),
            )
            if cached is not None:
                self.recorder.count("service/cache-hits")
                job = self.jobs.add_terminal(key=key)
                job.recorder = job_recorder
                job.span_id = job_span_id
                job.trace_parent = context.parent_id
                # Observability is assembled BEFORE finish(): finish
                # sets the terminal event a blocked `result --wait`
                # handler wakes on, and that response must already see
                # job.trace / job.job_stats.
                verdict = verdict_name(cached["equivalent"])
                self._assemble_job_telemetry(
                    job, verdict=verdict, cached=True,
                )
                job.finish(verdict, cached, worker_stats=None, cached=True)
                self._note_job_done(job)
                self.jobs.note_terminal(job)
                return protocol.ok_response(
                    "submit", job=job.id, state=job.state, cached=True,
                    verdict=job.verdict,
                )
        if cache_only:
            return protocol.ok_response(
                "submit", cached=False, idle_workers=self.idle_workers(),
            )
        if self.cache is not None:
            self.recorder.count("service/cache-misses")
        try:
            job = self.jobs.admit(key=key)
        except QueueFullError as exc:
            self.recorder.count("service/queue-rejects")
            return protocol.error_response(
                protocol.ERR_QUEUE_FULL, str(exc), verb="submit",
                queue_limit=self.jobs.queue_limit,
            )
        job.recorder = job_recorder
        job.span_id = job_span_id
        job.trace_parent = context.parent_id
        job.job_stats = job_recorder.report()
        if self._progress_dir is not None:
            job.progress_path = os.path.join(
                self._progress_dir, "%s.json" % job.id
            )
        payload = {
            "aag_a": request["aag_a"],
            "aag_b": request["aag_b"],
            "options": request.get("options") or {},
            "time_limit": request.get(
                "time_limit", self.default_time_limit
            ),
            "conflict_limit": request.get(
                "conflict_limit", self.default_conflict_limit
            ),
            "certify": bool(request.get("certify")),
            "lint": bool(request.get("lint")),
            # Worker-side phases become spans of the same trace,
            # parented under this job's root span.
            "trace": context.child(job_span_id).to_wire(),
            # Live heartbeat spool (None disables progress in the
            # worker).
            "progress_path": job.progress_path,
            "progress_interval": self.progress_interval,
        }
        job.payload = payload
        try:
            executor, job.future = self._submit_to_pool(payload)
        except RuntimeError as exc:  # pool shut down with the server
            self.jobs.release(job)
            job.fail(protocol.ERR_SHUTTING_DOWN, str(exc))
            self.jobs.note_terminal(job)
            return protocol.error_response(
                protocol.ERR_SHUTTING_DOWN, str(exc), verb="submit",
            )
        job.future.add_done_callback(
            lambda future, job=job, executor=executor:
            self._on_job_finished(job, future, executor)
        )
        log.info(
            "job %s admitted (queue depth %d)",
            job.id, self.jobs.pending(),
            extra={"job_id": job.id, "trace_id": context.trace_id},
        )
        self.recorder.gauge("service/queue-depth", self.jobs.pending())
        return protocol.ok_response(
            "submit", job=job.id, state=job.state, cached=False,
            queue_depth=self.jobs.pending(),
        )

    def _submit_to_pool(self, payload):
        """Submit a job; returns ``(pool, future)``.

        A pool that a dead worker broke is replaced first (see
        :meth:`_replace_broken_pool`), so a crash costs the job it
        killed, not the shard. A pool the server shut down raises
        ``RuntimeError``.
        """
        executor = self._executor
        if executor is self._broken_pool:
            executor = self._replace_broken_pool(executor)
        try:
            return executor, executor.submit(execute_job, payload)
        except BrokenExecutor:  # broke before any job noticed
            executor = self._replace_broken_pool(executor)
            return executor, executor.submit(execute_job, payload)

    def _replace_broken_pool(self, broken):
        """Swap the broken pool *broken* for a new one, once per
        breakage, and return the current pool.

        Only a process pool breaks (the in-process thread pool has no
        initializer to fail). The server is threaded by now, so the new
        pool spawns its workers instead of forking them. The broken pool
        is reaped in :meth:`close`. While the server shuts down nothing
        is replaced, and the broken pool's refusal answers the submit.
        """
        with self._lock:
            replaced = (self._executor is broken
                        and not self._shutting_down)
            if replaced:
                self._retired_pools.append(broken)
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=multiprocessing.get_context("spawn"),
                )
            executor = self._executor
        if replaced:
            self.recorder.count("service/pool-replacements")
            log.warning("replaced the worker pool a dead worker broke")
        return executor

    def _on_job_finished(self, job, future, executor):
        # Runs as a Future done-callback: any exception escaping here is
        # swallowed by the executor, so the try/finally guarantees the
        # job always reaches a terminal state (otherwise result --wait
        # clients would heartbeat forever).
        if not future.cancelled() \
                and isinstance(future.exception(), BrokenExecutor):
            # A worker died under a job: the pool takes no more jobs,
            # so this shard reports no idle worker until it is replaced.
            # The pool fails every job it held; those the table still
            # had queued when the first of them came back never started
            # (taken before any release promotes one) and run again.
            with self._lock:
                if self._executor is executor:
                    self._broken_pool = executor
                if executor not in self._unstarted:
                    self._unstarted[executor] = {
                        queued.id for queued in self.jobs.queued()
                    }
                unstarted = job.id in self._unstarted[executor]
            if unstarted and self._resubmit(job):
                return
        job.payload = None
        self.jobs.release(job)
        try:
            self._finalize_job(job, future)
        finally:
            self._harvest_progress(job)
            if not job.is_terminal:
                job.fail(protocol.ERR_WORKER_FAILED,
                         "internal error while finalizing the job")
                self.recorder.count("service/jobs-failed")
            self.jobs.note_terminal(job)
            if job.state != DONE:
                error = job.error or {}
                log.warning(
                    "job %s %s: %s", job.id, job.state,
                    error.get("message", "no detail"),
                    extra={"job_id": job.id,
                           "trace_id": _trace_id_of(job)},
                )

    def _resubmit(self, job):
        """Run *job*, which a broken pool never started, on its
        replacement; False when the server is shutting down."""
        try:
            executor, job.future = self._submit_to_pool(job.payload)
        except RuntimeError:
            return False
        job.future.add_done_callback(
            lambda future, job=job, executor=executor:
            self._on_job_finished(job, future, executor)
        )
        log.warning("job %s resubmitted: its worker pool broke before it "
                    "started", job.id, extra={"job_id": job.id})
        return True

    def _finalize_job(self, job, future):
        if future.cancelled():
            job.fail(protocol.ERR_CANCELLED, "job was cancelled",
                     cancelled=True)
            self.recorder.count("service/jobs-cancelled")
            return
        exc = future.exception()
        if exc is not None:
            job.fail(protocol.ERR_WORKER_FAILED,
                     "%s: %s" % (type(exc).__name__, exc))
            self.recorder.count("service/jobs-failed")
            return
        response = future.result()
        if isinstance(response.get("started_at"), float):
            job.started_at = response["started_at"]
        if not response.get("ok"):
            error = response.get("error") or {}
            job.fail(error.get("code", protocol.ERR_WORKER_FAILED),
                     error.get("message", "worker reported failure"))
            self.recorder.count("service/jobs-failed")
            return
        # Fold the worker's report into the server-wide aggregates: its
        # phase timings and counters into the stats report, its check
        # time and workload into the histograms.
        worker_stats = response.get("stats")
        if isinstance(worker_stats, dict):
            try:
                self.recorder.merge_report(worker_stats)
                observe_stats_workload(self.recorder, worker_stats)
            except (KeyError, TypeError, ValueError):
                self.recorder.count("service/stats-merge-failures")
        # Store before marking the job terminal: a client that sees the
        # result and immediately re-submits must find the cache entry.
        # A cache failure is an operational problem, not a job failure:
        # the verdict is still valid and must still be delivered.
        if (self.cache is not None and job.key is not None
                and response["result"].get("equivalent") is not None):
            try:
                with job.recorder.phase("cache/store"):
                    self.cache.store(
                        job.key, response["result"], meta={"job": job.id},
                    )
            except OSError as store_exc:
                self.recorder.count("service/cache-store-failures")
                log.warning(
                    "cache store failed for job %s: %s",
                    job.id, store_exc,
                    extra={"job_id": job.id,
                           "trace_id": _trace_id_of(job)},
                )
        # Observability is assembled BEFORE finish() (see the cache-hit
        # path): the terminal event must only fire once job.trace and
        # job.job_stats are in place for waiting result handlers.
        self._assemble_job_telemetry(
            job, verdict=response["verdict"], cached=False,
            worker_trace=response.get("trace"),
        )
        job.finish(
            response["verdict"], response["result"],
            worker_stats=worker_stats, cached=False,
        )
        self._note_job_done(job)

    def _assemble_job_telemetry(
        self, job, verdict, cached, worker_trace=None,
    ):
        """Record the job's spans, stats block, and latency metrics.

        Must run before :meth:`Job.finish`: the result handlers read
        ``job.trace``/``job.job_stats`` as soon as the terminal event
        fires.
        """
        self.recorder.observe("service/job-seconds", job.elapsed_seconds())
        recorder = job.recorder
        if recorder is None:
            return
        if job.started_at is not None:
            wait = job.queue_wait_seconds()
            self.recorder.observe("service/queue-wait-seconds", wait)
            recorder.add_time("service/queue-wait", wait)
            self.recorder.add_time("service/queue-wait", wait)
            recorder.add_span(
                "service/queue-wait", wait, ts=job.submitted_at,
                parent_id=job.span_id, job=job.id,
            )
        # The job's root span covers submission to completion and
        # carries the id every other server/worker span parents under.
        recorder.add_span(
            "service/job", job.elapsed_seconds(), ts=job.submitted_at,
            span_id=job.span_id, parent_id=job.trace_parent,
            job=job.id, cached=cached, verdict=verdict,
        )
        job.job_stats = recorder.report()
        trace = recorder.trace_report()
        if isinstance(worker_trace, dict):
            try:
                trace = merge_trace_documents(trace, worker_trace)
            except (KeyError, TypeError, ValueError):
                self.recorder.count("service/trace-merge-failures")
        job.trace = trace

    def _note_job_done(self, job):
        self.recorder.count("service/jobs-completed")
        self.recorder.count("service/verdict-%s" % job.verdict)
        self.recorder.add_time("service/job", job.elapsed_seconds())
        self.recorder.gauge("service/queue-depth", self.jobs.pending())
        log.info(
            "job %s done verdict=%s cached=%s elapsed=%.3fs",
            job.id, job.verdict, job.cached, job.elapsed_seconds(),
            extra={"job_id": job.id, "trace_id": _trace_id_of(job)},
        )

    # ------------------------------------------------------------------
    # status / result / cancel
    # ------------------------------------------------------------------

    def _get_job(self, request, verb):
        job_id = request.get("job")
        job = self.jobs.get(job_id) if isinstance(job_id, str) else None
        if job is None:
            return None, protocol.error_response(
                protocol.ERR_UNKNOWN_JOB, "unknown job %r" % (job_id,),
                verb=verb,
            )
        return job, None

    def _handle_status(self, request):
        job, error = self._get_job(request, "status")
        if error is not None:
            return error
        return protocol.ok_response("status", **job.snapshot())

    def _handle_result(self, request, send):
        timeout = request.get("timeout")
        if timeout is not None and not non_negative(timeout):
            send(protocol.error_response(
                protocol.ERR_INVALID_REQUEST,
                "'timeout' must be a non-negative number or null, not %r"
                % (timeout,),
                verb="result",
            ))
            return
        job, error = self._get_job(request, "result")
        if error is not None:
            send(error)
            return
        wait = bool(request.get("wait"))
        deadline = None
        if wait and timeout is not None:
            deadline = job.elapsed_seconds() + float(timeout)
        while wait and not job.is_terminal:
            if deadline is not None and job.elapsed_seconds() >= deadline:
                send(protocol.error_response(
                    protocol.ERR_TIMEOUT,
                    "job %s still %s after the wait timeout"
                    % (job.id, job.state),
                    verb="result", **job.snapshot(),
                ))
                return
            if job.wait(self.poll_interval):
                break
            # Heartbeats during a blocked wait carry the job's live
            # progress document so `repro-client submit --wait` shows
            # the search moving, not just "running".
            send(protocol.ok_response(
                "result", final=False,
                progress=self._job_progress(job), **job.snapshot(),
            ))
        if not job.is_terminal:
            send(protocol.ok_response("result", **job.snapshot()))
            return
        if job.state == DONE:
            send(protocol.ok_response(
                "result", result=job.result,
                worker_stats=job.worker_stats, job_stats=job.job_stats,
                trace=job.trace, **job.snapshot(),
            ))
        else:
            error = job.error or {}
            send(protocol.error_response(
                error.get("code", protocol.ERR_WORKER_FAILED),
                error.get("message", "job did not complete"),
                verb="result", **job.snapshot(),
            ))

    # ------------------------------------------------------------------
    # progress (live heartbeats)
    # ------------------------------------------------------------------

    def _job_progress(self, job):
        """The job's newest ``repro-progress/1`` heartbeat, or None."""
        if job.progress is not None:
            return job.progress
        if job.progress_path is None:
            return None
        document = latest_heartbeat(job.progress_path)
        if document is None:
            return None
        document["job"] = job.id
        return document

    def _harvest_progress(self, job):
        """Cache the final heartbeat on the job and drop its spool."""
        path = job.progress_path
        if path is None:
            return
        document = latest_heartbeat(path)
        if document is not None:
            document["job"] = job.id
            job.progress = document
        remove_spool(path)
        job.progress_path = None

    def _handle_progress(self, request):
        """The ``progress`` verb: one job's latest heartbeat."""
        job, error = self._get_job(request, "progress")
        if error is not None:
            return error
        return protocol.ok_response(
            "progress", progress=self._job_progress(job),
            **job.snapshot(),
        )

    def _handle_cancel(self, request):
        job, error = self._get_job(request, "cancel")
        if error is not None:
            return error
        if job.is_terminal:
            return protocol.ok_response(
                "cancel", cancelled=(job.state == "cancelled"),
                **job.snapshot(),
            )
        cancelled = job.future.cancel() if job.future is not None else False
        if cancelled:
            # The done-callback fires with future.cancelled() and marks
            # the job; wait for it so the response reflects the final
            # state.
            job.wait(timeout=5.0)
        return protocol.ok_response(
            "cancel", cancelled=cancelled, **job.snapshot(),
        )

    # ------------------------------------------------------------------
    # cache verbs (repro-fleet/1)
    # ------------------------------------------------------------------

    def _handle_cache_verb(self, request, verb):
        """One ``repro-fleet/1`` cache-protocol request.

        This is the single code path behind both the router's
        cross-shard fetch and ``repro-client cache``: ``cache`` with no
        key answers lookup/store statistics, ``cache`` with a key is a
        metadata probe, ``cache-get`` ships the stored result document,
        ``cache-put`` installs one received from a peer shard.
        """
        if self.cache is None:
            return protocol.fleet_error(
                protocol.ERR_NO_CACHE,
                "server runs without a proof cache", verb=verb,
            )
        key = request.get("key")
        if verb == "cache" and key is None:
            return protocol.fleet_response(
                "cache",
                entries=len(self.cache.keys()),
                hits=self.recorder.counter("cache/hits"),
                misses=self.recorder.counter("cache/misses"),
                stores=self.recorder.counter("cache/stores"),
            )
        if not valid_key(key):
            # The key names a directory: refuse it before any disk access.
            return protocol.fleet_error(
                protocol.ERR_INVALID_REQUEST,
                "cache verbs need a lowercase-hex 'key'", verb=verb,
            )
        if verb == "cache":
            self.recorder.count("service/cache-probes")
            found = key in self.cache
            return protocol.fleet_response(
                "cache", key=key, found=found,
                meta=self.cache.read_meta(key) if found else None,
                idle_workers=self.idle_workers(),
            )
        if verb == "cache-get":
            self.recorder.count("service/cache-remote-gets")
            result = self.cache.lookup(key)
            if result is None:
                return protocol.fleet_response(
                    "cache-get", key=key, found=False,
                )
            return protocol.fleet_response(
                "cache-get", key=key, found=True, result=result,
                meta=self.cache.read_meta(key),
            )
        # cache-put: install a peer's content-addressed result document.
        result = request.get("result")
        if not isinstance(result, dict):
            return protocol.fleet_error(
                protocol.ERR_BAD_INPUT,
                "cache-put needs a 'result' document", verb=verb,
            )
        meta = request.get("meta")
        if meta is not None and not isinstance(meta, dict):
            return protocol.fleet_error(
                protocol.ERR_BAD_INPUT,
                "cache-put 'meta' must be a mapping", verb=verb,
            )
        try:
            stored = self.cache.store(key, result, meta=meta)
        except ValueError as exc:  # undecided results are never cached
            return protocol.fleet_error(
                protocol.ERR_BAD_INPUT, str(exc), verb=verb,
            )
        except OSError as exc:
            self.recorder.count("service/cache-store-failures")
            return protocol.fleet_error(
                protocol.ERR_CACHE_STORE_FAILED, str(exc), verb=verb,
            )
        self.recorder.count("service/cache-remote-puts")
        return protocol.fleet_response("cache-put", key=key, stored=stored)

    def idle_workers(self):
        """Workers not taken by an admitted, unfinished job (0 while
        draining, and while a pool that a dead worker broke awaits
        replacement). The router offloads a miss from a busy home shard
        to a peer that reports one."""
        if self._shutting_down or (self._broken_pool is not None
                                   and self._broken_pool is self._executor):
            return 0
        return max(0, max(self.workers, 1) - self.jobs.pending())

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------

    def _refresh_runtime_gauges(self):
        """Re-gauge point-in-time values that otherwise only change on
        job transitions. Called from the stats/metrics verbs and from
        :meth:`stats_report` so every scrape sees fresh values even
        when no job has started or finished since the last one."""
        self.recorder.gauge("service/queue-depth", self.jobs.pending())
        self.recorder.gauge(
            "service/uptime-seconds",
            time.monotonic() - self._started_monotonic,
        )

    def stats_report(self):
        """Server-level ``repro-stats/1`` report with derived gauges."""
        hits = self.recorder.counter("service/cache-hits")
        misses = self.recorder.counter("service/cache-misses")
        if hits + misses:
            self.recorder.gauge(
                "service/hit-rate", hits / float(hits + misses)
            )
        completed = self.recorder.counter("service/jobs-completed")
        seconds = self.recorder.phase_seconds("service/job")
        if completed and seconds > 0:
            self.recorder.gauge(
                "service/jobs-per-second", completed / seconds
            )
        self._refresh_runtime_gauges()
        # Latency quantiles from the histograms, e.g.
        # "service/job-seconds/p50" — refreshed on every stats request.
        for name, value in self.recorder.quantile_gauges().items():
            self.recorder.gauge(name, value)
        self.recorder.meta["version"] = __version__
        return self.recorder.report()

    def prometheus_text(self):
        """Prometheus text rendering of metrics + stats (the `/metrics`
        body and the ``metrics`` verb's ``prometheus`` field)."""
        return to_prometheus_text(
            self.recorder.metrics_report(),
            stats_report=self.stats_report(),
            build_info={
                "component": "repro-serve", "version": __version__,
            },
        )


def _trace_id_of(job):
    recorder = getattr(job, "recorder", None)
    context = recorder.trace_context if recorder is not None else None
    return context.trace_id if context is not None else None
