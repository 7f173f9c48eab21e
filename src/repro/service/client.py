"""Client side of the CEC service: connection, retries, typed calls.

:class:`ServiceClient` speaks ``repro-service/1`` to a running
``repro-serve``. Each call opens (or reuses) one socket, writes one
request line, and reads response lines until the ``final`` one —
heartbeat lines streamed during a blocking ``result`` wait are handed
to the caller's ``on_update`` hook as they arrive, which is how the
CLI surfaces live per-job telemetry.

Transient *connect* failures (connection refused while the server is
still binding) are retried with exponentially capped **full-jitter**
backoff up to ``retries`` times: each delay is drawn uniformly from
``[0, min(backoff * 2**attempt, cap)]``, so a crowd of clients
reconnecting to a recovering server spreads out instead of stampeding
it in synchronized waves. Failures after the request may have been
written (a dropped connection, a read timeout) are never retried — the
server may already be executing the request, and re-sending a
non-idempotent verb like ``submit`` would duplicate solver work.
Protocol-level failures (``ok: false`` responses) are likewise never
retried — they are answers, raised as :class:`ServiceError` with the
server's stable error code.
"""

import random
import socket
import time

from ..core.serialize import result_from_dict
from ..instrument.tracing import (
    TraceContext,
    merge_trace_documents,
    new_span_id,
)
from . import protocol

DEFAULT_TIMEOUT = 60.0
DEFAULT_RETRIES = 3
DEFAULT_BACKOFF = 0.2
#: Ceiling of any single retry delay (seconds); the jittered draw never
#: exceeds it no matter how many attempts have failed.
BACKOFF_CAP = 5.0


class ServiceError(Exception):
    """A structured failure response from the server.

    Attributes:
        code: the server's stable error code (``ERR_*``).
        response: the full response object.
    """

    def __init__(self, response):
        error = response.get("error") or {}
        self.code = error.get("code", "unknown")
        self.response = response
        Exception.__init__(
            self, "%s: %s" % (self.code, error.get("message", "no message"))
        )


class ServiceClient:
    """One logical connection to a ``repro-serve`` instance.

    Args:
        address: ``host:port`` or Unix socket path.
        timeout: socket timeout per read (seconds). Blocking ``result``
            waits keep the socket alive via server heartbeats, so this
            bounds silence, not job duration.
        retries: connection attempts per request before giving up.
        backoff: base retry delay; attempt *n* sleeps a uniformly
            random duration in ``[0, min(backoff * 2**(n-1),
            BACKOFF_CAP)]`` (full jitter — no two clients share a
            retry schedule).

    Raises :class:`ValueError` on a malformed *address*, a *retries*
    that is not a non-negative int, a *timeout* that is neither None
    nor positive, or a negative *backoff*. Usable as a context
    manager; :meth:`close` drops the socket.
    """

    def __init__(
        self,
        address,
        timeout=DEFAULT_TIMEOUT,
        retries=DEFAULT_RETRIES,
        backoff=DEFAULT_BACKOFF,
    ):
        self.family, self.target = protocol.parse_address(address)
        if isinstance(retries, bool) or not isinstance(retries, int) \
                or retries < 0:
            raise ValueError(
                "retries must be a non-negative integer, got %r" % (retries,)
            )
        if timeout is not None and (
            isinstance(timeout, bool)
            or not isinstance(timeout, (int, float))
            or not timeout > 0
        ):
            raise ValueError(
                "timeout must be a positive number of seconds or None, "
                "got %r" % (timeout,)
            )
        if isinstance(backoff, bool) or not isinstance(backoff, (int, float)) \
                or not backoff >= 0:
            raise ValueError(
                "backoff must be a non-negative number, got %r" % (backoff,)
            )
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self._sock = None
        self._reader = None

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _connect(self):
        if self.family == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            sock.connect(self.target)
        else:
            sock = socket.create_connection(
                self.target, timeout=self.timeout
            )
        self._sock = sock
        self._reader = sock.makefile("rb")

    def close(self):
        """Drop the connection (reopened on the next request)."""
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
            self._reader = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def request(self, message, on_update=None):
        """Send one request; return the final response object.

        Non-final (heartbeat) responses are passed to *on_update* and
        never returned. Raises :class:`ServiceError` on an ``ok: false``
        final response and ``OSError`` when the transport fails.

        Only *connect* failures are retried: once any request bytes may
        have been written, a transport failure (e.g. a read timeout) is
        raised immediately, because the server may already be executing
        the request and re-sending a non-idempotent verb such as
        ``submit`` would duplicate solver work.
        """
        last_error = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.retry_delay(attempt))
            if self._sock is None:
                try:
                    self._connect()
                except OSError as exc:
                    last_error = exc
                    self.close()
                    continue
            try:
                return self._exchange(message, on_update)
            except OSError:
                self.close()
                raise
        raise last_error

    def retry_delay(self, attempt):
        """The jittered backoff before connect attempt *attempt* (>= 1).

        Full jitter: drawn uniformly from zero to the exponentially
        growing (capped) ceiling. A fixed schedule would march every
        waiting client back onto a recovering server in lockstep —
        exactly the stampede the cap-and-jitter draw disperses.
        """
        ceiling = min(self.backoff * (2 ** (attempt - 1)), BACKOFF_CAP)
        return random.uniform(0.0, ceiling)

    def _exchange(self, message, on_update):
        self._sock.sendall(protocol.encode(message))
        while True:
            line = self._reader.readline(protocol.MAX_LINE_BYTES + 1)
            if not line:
                raise ConnectionError("server closed the connection")
            response = protocol.decode(line)
            if not response.get("final", True):
                if on_update is not None:
                    on_update(response)
                continue
            if not response.get("ok"):
                raise ServiceError(response)
            return response

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------

    def ping(self):
        """Server identity block (version, protocol)."""
        return self.request({"verb": "ping"})

    def submit(
        self,
        aag_a,
        aag_b,
        options=None,
        time_limit=None,
        conflict_limit=None,
        certify=False,
        lint=False,
        trim=True,
        trace=None,
    ):
        """Submit one check (AIGER texts); returns the submit response.

        The response carries ``job`` (the id) and ``cached`` (True when
        the answer was served from the proof cache without running).

        *trace* (a :class:`~repro.instrument.tracing.TraceContext` or
        its wire mapping) threads this client's trace through the
        server and its workers; the job's ``result`` response then
        carries the stitched ``repro-trace/1`` document.
        """
        message = {
            "verb": "submit",
            "aag_a": aag_a,
            "aag_b": aag_b,
            "certify": certify,
            "lint": lint,
            "trim": trim,
        }
        if options:
            message["options"] = options
        if time_limit is not None:
            message["time_limit"] = time_limit
        if conflict_limit is not None:
            message["conflict_limit"] = conflict_limit
        if trace is not None:
            if isinstance(trace, TraceContext):
                trace = trace.to_wire()
            message["trace"] = trace
        return self.request(message)

    def status(self, job_id):
        """Status snapshot of a job."""
        return self.request({"verb": "status", "job": job_id})

    def result(self, job_id, wait=False, timeout=None, on_update=None):
        """Result of a job, optionally blocking until it is terminal."""
        message = {"verb": "result", "job": job_id, "wait": wait}
        if timeout is not None:
            message["timeout"] = timeout
        return self.request(message, on_update=on_update)

    def cancel(self, job_id):
        """Attempt to cancel a queued job."""
        return self.request({"verb": "cancel", "job": job_id})

    def progress(self, job_id=None):
        """Live progress: with *job_id*, that job's snapshot plus its
        latest ``repro-progress/1`` heartbeat (``progress`` is None
        until the worker's first emission); without, the server's
        listing of active and recently finished jobs plus the current
        queue depth."""
        message = {"verb": "progress"}
        if job_id is not None:
            message["job"] = job_id
        return self.request(message)

    def stats(self):
        """Server-level ``repro-stats/1`` report."""
        return self.request({"verb": "stats"})["stats"]

    def metrics(self):
        """Server metrics: ``(repro-metrics/1 doc, prometheus_text)``."""
        response = self.request({"verb": "metrics"})
        return response["metrics"], response.get("prometheus", "")

    def shutdown(self):
        """Ask the server to stop serving."""
        return self.request({"verb": "shutdown"})

    # ------------------------------------------------------------------
    # Cache verbs (repro-fleet/1)
    # ------------------------------------------------------------------

    def cache_stats(self):
        """The server's proof-cache statistics (entry count, hits...)."""
        return self.request({"verb": "cache"})

    def cache_probe(self, key):
        """Metadata probe for *key*: ``(found, meta)`` without the
        result document (the cheap half of an entry)."""
        response = self.request({"verb": "cache", "key": key})
        return bool(response.get("found")), response.get("meta")

    def cache_get(self, key):
        """Fetch the content-addressed result document stored under
        *key*, or ``None`` on a miss. Returns ``(result, meta)``."""
        response = self.request({"verb": "cache-get", "key": key})
        if not response.get("found"):
            return None, None
        return response.get("result"), response.get("meta")

    def cache_put(self, key, result, meta=None):
        """Install a result document under *key* (idempotent); True
        when a new entry was written."""
        message = {"verb": "cache-put", "key": key, "result": result}
        if meta is not None:
            message["meta"] = meta
        return bool(self.request(message).get("stored"))

    # ------------------------------------------------------------------
    # High-level
    # ------------------------------------------------------------------

    def check(self, aag_a, aag_b, on_update=None, recorder=None,
              **submit_kwargs):
        """Submit, wait, and decode: the one-call equivalence check.

        Returns ``(result, response)`` where *result* is a rebuilt
        :class:`~repro.core.cec.CecResult` (certifiable client-side)
        and *response* the final wire response (``cached``,
        ``job_stats``, ``worker_stats``...).

        With an enabled *recorder*, the whole round trip is traced: a
        ``client/request`` span is recorded locally, the trace context
        rides the submit request, and the server's stitched trace comes
        back merged with the client span under one trace id in
        ``response["trace"]``.
        """
        traced = recorder is not None and recorder.enabled
        if traced:
            context = recorder.start_trace()
            request_span = new_span_id()
            submit_kwargs.setdefault("trace", {
                "trace_id": context.trace_id, "parent_id": request_span,
            })
            start = time.time()
        submitted = self.submit(aag_a, aag_b, **submit_kwargs)
        response = self.result(
            submitted["job"], wait=True, on_update=on_update
        )
        if traced:
            elapsed = time.time() - start
            recorder.add_time("client/request", elapsed)
            recorder.add_span(
                "client/request", elapsed, ts=start,
                span_id=request_span, parent_id=context.parent_id,
                job=submitted.get("job"),
            )
            local = recorder.trace_report()
            server_trace = response.get("trace")
            if isinstance(server_trace, dict):
                local = merge_trace_documents(local, server_trace)
            response["trace"] = local
        return result_from_dict(response["result"]), response
