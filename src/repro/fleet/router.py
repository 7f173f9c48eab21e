"""The fleet front door: an asyncio router over ``repro-serve`` shards.

:class:`FleetRouter` binds one listening socket and speaks plain
``repro-service/1`` to clients — an unmodified ``repro-client`` (or
:class:`~repro.service.client.ServiceClient`) pointed at the router
sees one big server. Behind it, every submit is consistent-hashed by
its proof-cache key (:func:`repro.service.cache.cache_key`, the same
structural pair hash the shards key their caches by) onto the
:class:`~repro.fleet.ring.HashRing` of backend shards, so repeated and
symmetric queries land on the shard that already holds their
certificate.

Job identity across the fleet: the router suffixes shard job ids with
the shard's address (``j000007@127.0.0.1:7801``) before they reach the
client, and strips the suffix when forwarding ``status`` / ``result``
/ ``cancel``. Clients treat job ids as opaque strings, so the routed
form rides the existing protocol unchanged.

Replay safety mirrors the client's no-retry-after-send rule: a
``submit`` is idempotent (cache-keyed, content-addressed answer), so
a shard failure mid-submit fails over to the next shard on the ring;
job verbs are bound to the shard that owns the job's state and are
*never* re-routed — a dead shard answers ``shard-down`` instead.

Cross-shard cache tier (``repro-fleet/1``): before forwarding a
submit, the router probes the home shard's cache and, on a miss, the
other shards in ring order; a peer hit is transferred home with
``cache-get`` / ``cache-put`` so the home shard answers from its own
disk. N private caches behave as one logical cache while every shard
stays ignorant of its peers.

Health: a background task pings every shard each ``health_interval``
seconds; ``down_after`` consecutive failures (pings and forwarded
requests both count) remove the shard from the ring, the first
successful ping re-adds it. Ring membership changes move only the
affected shard's keys (see :mod:`repro.fleet.ring`).

Threading model: everything runs on one event loop; the only other
thread is the optional Prometheus ``/metrics`` endpoint, which reads
nothing but the thread-safe :class:`~repro.instrument.Recorder` and
:class:`~repro.instrument.MetricsRegistry`.
"""

import asyncio
import collections
import io
import os
import time

from .. import __version__
from ..aig.aiger import AigerError, read_aag
from ..instrument import MetricsRegistry, Recorder, get_logger
from ..instrument.metrics import TIME_BUCKETS, to_prometheus_text
from ..instrument.tracing import (
    TraceContext,
    merge_trace_documents,
    new_span_id,
)
from ..service import protocol
from ..service.cache import cache_key
from ..service.metrics_http import MetricsHTTPServer
from ..service.worker import build_options
from .aioclient import AsyncServiceClient
from .ring import DEFAULT_REPLICAS, HashRing

log = get_logger("fleet.router")

DEFAULT_HEALTH_INTERVAL = 2.0
#: Consecutive probe/request failures before a shard leaves the ring.
DEFAULT_DOWN_AFTER = 2
DEFAULT_SHARD_TIMEOUT = 60.0

#: Separator between a shard job id and the owning shard's address in
#: the routed ids handed to clients.
JOB_SEPARATOR = "@"

#: Router-side span stashes kept for jobs whose result has not been
#: fetched yet (bounds memory under clients that never collect).
RETAIN_JOB_SPANS = 512

#: Job states after which a result will never change again.
_TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: Transport-level failures that mark a shard unhealthy.
_TRANSPORT_ERRORS = (OSError, asyncio.TimeoutError, protocol.ProtocolError)


class ShardState:
    """Health and identity of one backend shard (loop-thread only)."""

    __slots__ = ("address", "up", "failures")

    def __init__(self, address):
        self.address = address
        self.up = True
        self.failures = 0


class FleetRouter:
    """Consistent-hash router and cross-shard cache broker.

    Args:
        address: listen address (``host:port`` or Unix socket path).
        shards: backend ``repro-serve`` addresses (>= 1; must not
            contain ``@``, which delimits routed job ids).
        replicas: ring points per shard (see :class:`HashRing`).
        health_interval: seconds between background shard pings.
        down_after: consecutive failures that mark a shard down.
        shard_timeout: seconds allowed per shard connect/response line.
        recorder: router-level :class:`Recorder` (created when
            omitted); serves the ``stats`` verb and the gauges.
        metrics_address: optional ``host:port`` for the Prometheus
            ``/metrics`` endpoint.
    """

    def __init__(
        self,
        address,
        shards,
        replicas=DEFAULT_REPLICAS,
        health_interval=DEFAULT_HEALTH_INTERVAL,
        down_after=DEFAULT_DOWN_AFTER,
        shard_timeout=DEFAULT_SHARD_TIMEOUT,
        recorder=None,
        metrics_address=None,
    ):
        if not shards:
            raise ValueError("a fleet needs at least one shard")
        for shard in shards:
            if JOB_SEPARATOR in shard:
                raise ValueError(
                    "shard address %r may not contain %r"
                    % (shard, JOB_SEPARATOR)
                )
        self.family, self.target = protocol.parse_address(address)
        self.address = address
        self.shards = {address: ShardState(address) for address in shards}
        self.ring = HashRing(self.shards, replicas=replicas)
        self.health_interval = health_interval
        self.down_after = down_after
        self.shard_timeout = shard_timeout
        self.recorder = recorder if recorder is not None else Recorder()
        self.metrics = MetricsRegistry()
        self._metrics_address = metrics_address
        self._metrics_http = None
        self._server = None
        self._health_task = None
        self._stopping = asyncio.Event()
        self._job_spans = collections.OrderedDict()
        self._started_monotonic = time.monotonic()
        self._update_ring_gauges()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self):
        """Bind the socket, start health checks and metrics; returns
        self."""
        if self.family == "unix":
            self._server = await asyncio.start_unix_server(
                self._serve_connection, self.target,
                limit=protocol.MAX_LINE_BYTES + 1,
            )
        else:
            host, port = self.target
            self._server = await asyncio.start_server(
                self._serve_connection, host, port,
                limit=protocol.MAX_LINE_BYTES + 1,
            )
        self._health_task = asyncio.ensure_future(self._health_loop())
        if self._metrics_address is not None:
            family, target = protocol.parse_address(self._metrics_address)
            if family != "tcp":
                raise ValueError(
                    "metrics endpoint needs host:port, got %r"
                    % self._metrics_address
                )
            host, port = target
            self._metrics_http = MetricsHTTPServer(
                host, port, self.prometheus_text,
            ).start()
        log.info(
            "router listening on %s over %d shard(s)",
            self.address, len(self.shards),
        )
        return self

    @property
    def listen_port(self):
        """The bound TCP port (useful with port 0); None for Unix."""
        if self.family != "tcp" or self._server is None:
            return None
        return self._server.sockets[0].getsockname()[1]

    @property
    def metrics_port(self):
        """The bound ``/metrics`` port, or None when disabled."""
        if self._metrics_http is None:
            return None
        return self._metrics_http.port

    def request_stop(self):
        """Ask :meth:`serve_forever` to wind down (signal-handler
        safe when called via ``loop.call_soon_threadsafe``)."""
        self._stopping.set()

    async def serve_forever(self):
        """Run until :meth:`request_stop` (or a ``shutdown`` verb)."""
        if self._server is None:
            await self.start()
        try:
            await self._stopping.wait()
        finally:
            await self.close()

    async def close(self):
        """Stop accepting, cancel health checks, release the metrics
        endpoint (idempotent)."""
        self._stopping.set()
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                # Bounded: asyncio.wait_for on Python < 3.12 can swallow
                # a cancellation that races with an inner completion, so
                # a ping inside the health loop may eat the cancel. The
                # loop also watches ``_stopping`` and exits within one
                # interval on its own; wait for that instead of hanging.
                await asyncio.wait_for(
                    self._health_task,
                    timeout=self.health_interval + 5.0,
                )
            except (asyncio.CancelledError, asyncio.TimeoutError):
                pass
            self._health_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
            if self.family == "unix":
                try:
                    os.unlink(self.target)
                except OSError:
                    pass
        if self._metrics_http is not None:
            self._metrics_http.close()
            self._metrics_http = None

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _serve_connection(self, reader, writer):
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # StreamReader.readline signals a limit overrun
                    # (line longer than MAX_LINE_BYTES) as ValueError.
                    await self._send(writer, protocol.error_response(
                        protocol.ERR_INVALID_REQUEST,
                        "request line exceeds %d bytes"
                        % protocol.MAX_LINE_BYTES,
                    ))
                    return
                except OSError:
                    return
                if not line:
                    return
                try:
                    request = protocol.decode(line)
                except protocol.ProtocolError as exc:
                    await self._send(writer, protocol.error_response(
                        exc.code, str(exc),
                    ))
                    continue
                try:
                    done = await self._dispatch(request, writer)
                except (OSError, ConnectionResetError):
                    return
                if done:
                    return
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    @staticmethod
    async def _send(writer, response):
        writer.write(protocol.encode(response))
        await writer.drain()

    async def _dispatch(self, request, writer):
        """Answer one request; True when the connection should close."""
        verb = request.get("verb")
        if not isinstance(verb, str):
            await self._send(writer, protocol.error_response(
                protocol.ERR_INVALID_REQUEST, "request needs a 'verb'",
            ))
            return False
        self.recorder.count("fleet/requests")
        if verb == "ping":
            await self._send(writer, protocol.ping_response())
            return False
        if verb == "submit":
            await self._send(writer, await self._handle_submit(request))
            return False
        if verb in ("status", "result", "cancel"):
            await self._forward_job_verb(request, verb, writer)
            return False
        if verb == "progress":
            if isinstance(request.get("job"), str):
                await self._forward_job_verb(request, verb, writer)
            else:
                await self._send(
                    writer, await self._handle_progress_listing()
                )
            return False
        if verb in protocol.FLEET_VERBS:
            await self._send(
                writer, await self._handle_cache_verb(request, verb)
            )
            return False
        if verb == "stats":
            await self._send(writer, protocol.ok_response(
                "stats", stats=self.stats_report(),
            ))
            return False
        if verb == "metrics":
            await self._send(writer, protocol.ok_response(
                "metrics", metrics=self.metrics.report(),
                prometheus=self.prometheus_text(),
            ))
            return False
        if verb == "shutdown":
            # Stops the router only; shards are independent processes
            # with their own lifecycles.
            await self._send(writer, protocol.ok_response("shutdown"))
            self.request_stop()
            return True
        await self._send(writer, protocol.error_response(
            protocol.ERR_INVALID_REQUEST, "unknown verb %r" % verb,
            verb=verb,
        ))
        return False

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _preferred_shards(self, key):
        """Up shards in failover order for *key* (ring holds only up
        members, so preference order is already health-filtered)."""
        return [self.shards[name] for name in self.ring.preference(key)]

    def _routed_id(self, job_id, shard):
        return "%s%s%s" % (job_id, JOB_SEPARATOR, shard.address)

    def _rewrite_job(self, response, shard):
        job_id = response.get("job")
        if isinstance(job_id, str) and JOB_SEPARATOR not in job_id:
            response["job"] = self._routed_id(job_id, shard)

    async def _shard_request(self, shard, message, on_update=None):
        """One request/response exchange with *shard* on a fresh
        connection; transport failures mark the shard and re-raise."""
        client = AsyncServiceClient(
            shard.address, timeout=self.shard_timeout,
        )
        try:
            async with client:
                response = await client.request(
                    message, on_update=on_update, raise_on_error=False,
                )
        except _TRANSPORT_ERRORS:
            self._note_shard_failure(shard)
            raise
        self._note_shard_success(shard)
        return response

    async def _handle_submit(self, request):
        loop = asyncio.get_event_loop()
        started = loop.time()
        try:
            aig_a = read_aag(io.StringIO(request["aag_a"]))
            aig_b = read_aag(io.StringIO(request["aag_b"]))
            build_options(request.get("options"))
        except (AigerError, ValueError, KeyError, TypeError) as exc:
            self.recorder.count("fleet/jobs-rejected")
            return protocol.error_response(
                protocol.ERR_BAD_INPUT, str(exc), verb="submit",
            )
        key = cache_key(aig_a, aig_b, request.get("options"))
        order = self._preferred_shards(key)
        if not order:
            self.recorder.count("fleet/jobs-rejected")
            return protocol.error_response(
                protocol.ERR_SHARD_DOWN,
                "no shard is up to accept the job", verb="submit",
            )
        # Trace rider: the router becomes one hop of the client's
        # trace — its spans parent under the client's request span and
        # the shard's spans parent under the router's route span.
        message = dict(request)
        context = route_span_id = None
        if "trace" in request:
            context, propagated = TraceContext.from_wire(
                request.get("trace")
            )
            if not propagated:
                self.recorder.count("fleet/trace-degraded")
            route_span_id = new_span_id()
            message["trace"] = context.child(route_span_id).to_wire()
        spans = []
        if len(order) > 1:
            transfer_span = await self._fetch_across_shards(key, order)
            if transfer_span is not None and context is not None:
                transfer_span.update(
                    trace_id=context.trace_id, parent_id=route_span_id,
                )
                spans.append(transfer_span)
        response = None
        for attempt, shard in enumerate(order):
            try:
                response = await self._shard_request(shard, message)
            except _TRANSPORT_ERRORS as exc:
                log.warning(
                    "submit to shard %s failed (%s); trying next",
                    shard.address, exc,
                )
                self.recorder.count("fleet/submit-failovers")
                continue
            if attempt:
                # The job ran on a fallback shard: replay-safe because
                # a submit is cache-keyed and idempotent.
                self.recorder.count("fleet/resubmits")
            break
        if response is None:
            self.recorder.count("fleet/jobs-rejected")
            return protocol.error_response(
                protocol.ERR_SHARD_DOWN,
                "every shard in preference order failed", verb="submit",
            )
        elapsed = loop.time() - started
        self.metrics.observe(
            "fleet/route-seconds", elapsed,
            buckets=TIME_BUCKETS, unit="seconds",
        )
        self.recorder.add_time("fleet/route", elapsed)
        if response.get("ok"):
            self.recorder.count("fleet/jobs-routed")
            self.recorder.count("fleet/jobs-to/%s" % shard.address)
            if response.get("cached"):
                self.recorder.count("fleet/jobs-cached")
            self._update_hit_gauges()
        job_id = response.get("job")
        if isinstance(job_id, str):
            routed = self._routed_id(job_id, shard)
            response["job"] = routed
            if context is not None:
                spans.append(self._span(
                    context.trace_id, "fleet/route", route_span_id,
                    context.parent_id, started, elapsed,
                    job=routed, shard=shard.address,
                ))
                self._stash_spans(routed, spans)
        return response

    async def _fetch_across_shards(self, key, order):
        """Pull *key*'s certificate to its home shard from a peer.

        Best effort: probe the home shard, then each peer in ring
        order; on a peer hit, copy the result document home so the
        forwarded submit is a local cache hit there. Returns the
        transfer span (sans trace identity) when a transfer happened.
        """
        loop = asyncio.get_event_loop()
        home = order[0]
        try:
            found, _ = await self._probe_cache(home, key)
        except _TRANSPORT_ERRORS:
            return None
        if found:
            self.recorder.count("fleet/cache-home-hits")
            return None
        for peer in order[1:]:
            try:
                found, _ = await self._probe_cache(peer, key)
            except _TRANSPORT_ERRORS:
                continue
            if not found:
                continue
            started = loop.time()
            # Error envelopes (a full disk answers cache-put with
            # cache-store-failed) fail the transfer like a dead peer.
            stored = {}
            try:
                got = await self._shard_request(
                    peer, {"verb": "cache-get", "key": key},
                )
                if got.get("ok") and got.get("found"):
                    stored = await self._shard_request(home, {
                        "verb": "cache-put", "key": key,
                        "result": got.get("result"), "meta": got.get("meta"),
                    })
            except _TRANSPORT_ERRORS:
                pass
            if not stored.get("ok"):
                self.recorder.count("fleet/cache-transfer-failures")
                continue
            elapsed = loop.time() - started
            self.recorder.count("fleet/cache-transfers")
            self.recorder.add_time("fleet/cache-transfer", elapsed)
            self.metrics.observe(
                "fleet/transfer-seconds", elapsed,
                buckets=TIME_BUCKETS, unit="seconds",
            )
            log.info(
                "transferred cache entry %s from %s to %s",
                key[:12], peer.address, home.address,
            )
            return self._span(
                None, "fleet/cache-transfer", new_span_id(), None,
                started, elapsed, shard=home.address, source=peer.address,
            )
        return None

    async def _probe_cache(self, shard, key):
        """``(found, meta)`` for *key* on *shard*; cache-less shards
        read as a miss. Transport failures propagate (callers skip)."""
        response = await self._shard_request(
            shard, {"verb": "cache", "key": key},
        )
        if not response.get("ok"):
            # A shard without a cache (or any protocol-level refusal)
            # is simply not a source or target for transfers.
            return False, None
        return bool(response.get("found")), response.get("meta")

    async def _forward_job_verb(self, request, verb, writer):
        """Forward ``status``/``result``/``cancel``/``progress`` to
        the owning shard, streaming heartbeats through and
        re-suffixing job ids.

        Job verbs are never re-routed: the job's state lives on one
        shard, and asking any other shard would invent an
        ``unknown-job`` answer for a job that still exists.
        """
        routed = request.get("job")
        if not isinstance(routed, str) or JOB_SEPARATOR not in routed:
            await self._send(writer, protocol.error_response(
                protocol.ERR_UNKNOWN_JOB,
                "job id %r carries no shard suffix" % (routed,),
                verb=verb,
            ))
            return
        raw_id, _, shard_address = routed.rpartition(JOB_SEPARATOR)
        shard = self.shards.get(shard_address)
        if shard is None:
            await self._send(writer, protocol.error_response(
                protocol.ERR_UNKNOWN_JOB,
                "job %r names no configured shard" % (routed,),
                verb=verb,
            ))
            return
        if not shard.up:
            await self._send(writer, protocol.error_response(
                protocol.ERR_SHARD_DOWN,
                "shard %s owning job %s is down"
                % (shard.address, routed),
                verb=verb,
            ))
            return
        message = dict(request)
        message["job"] = raw_id

        async def relay(update):
            self._rewrite_job(update, shard)
            await self._send(writer, update)

        try:
            response = await self._shard_request(
                shard, message, on_update=relay,
            )
        except _TRANSPORT_ERRORS as exc:
            await self._send(writer, protocol.error_response(
                protocol.ERR_SHARD_DOWN,
                "shard %s failed mid-%s: %s"
                % (shard.address, verb, exc),
                verb=verb,
            ))
            return
        self._rewrite_job(response, shard)
        if verb == "result":
            self._stitch_result_trace(routed, response)
        await self._send(writer, response)

    async def _handle_progress_listing(self):
        """Fleet-wide ``progress`` listing: every up shard's active and
        recently finished jobs, ids re-suffixed with the owning shard,
        plus the summed queue depth. A shard failing mid-poll is simply
        absent from this round's listing — observation never blocks on
        a sick shard."""
        jobs = []
        queue_depth = 0
        for shard in self.shards.values():
            if not shard.up:
                continue
            try:
                response = await self._shard_request(
                    shard, {"verb": "progress"},
                )
            except _TRANSPORT_ERRORS:
                continue
            if not response.get("ok"):
                continue
            for entry in response.get("jobs") or []:
                entry = dict(entry)
                self._rewrite_job(entry, shard)
                jobs.append(entry)
            depth = response.get("queue_depth")
            if isinstance(depth, (int, float)):
                queue_depth += int(depth)
        return protocol.ok_response(
            "progress", jobs=jobs, queue_depth=queue_depth,
        )

    # ------------------------------------------------------------------
    # Trace stitching
    # ------------------------------------------------------------------

    @staticmethod
    def _span(trace_id, name, span_id, parent_id, ts, dur, **attrs):
        span = {
            "trace_id": trace_id,
            "span_id": span_id,
            "parent_id": parent_id,
            "name": name,
            "ts": ts,
            "dur": dur,
            "pid": os.getpid(),
            "process": "repro-router",
            "thread": "event-loop",
        }
        span.update(attrs)
        return span

    def _stash_spans(self, routed_id, spans):
        if not spans:
            return
        self._job_spans[routed_id] = spans
        while len(self._job_spans) > RETAIN_JOB_SPANS:
            self._job_spans.popitem(last=False)

    def _stitch_result_trace(self, routed_id, response):
        """Merge the router's stashed spans into a terminal result's
        trace document (client, router, shard, and worker spans then
        share one trace id)."""
        spans = self._job_spans.get(routed_id)
        if spans is None:
            return
        trace = response.get("trace")
        if isinstance(trace, dict):
            response["trace"] = merge_trace_documents(
                trace, {"spans": spans},
            )
        if response.get("state") in _TERMINAL_STATES:
            self._job_spans.pop(routed_id, None)

    # ------------------------------------------------------------------
    # Cache verbs through the router
    # ------------------------------------------------------------------

    async def _handle_cache_verb(self, request, verb):
        """Route a client's ``repro-fleet/1`` verb onto the fleet.

        Keyed requests go to the key's home shard (failing over along
        the ring); a keyless ``cache`` aggregates every up shard's
        statistics into one fleet-wide answer.
        """
        key = request.get("key")
        if key is None and verb == "cache":
            return await self._aggregate_cache_stats()
        if not isinstance(key, str) or not key:
            return protocol.fleet_error(
                protocol.ERR_INVALID_REQUEST,
                "cache verbs need a string 'key'", verb=verb,
            )
        order = self._preferred_shards(key)
        for shard in order:
            try:
                return await self._shard_request(shard, dict(request))
            except _TRANSPORT_ERRORS:
                continue
        return protocol.fleet_error(
            protocol.ERR_SHARD_DOWN,
            "no shard is up to answer %r" % verb, verb=verb,
        )

    async def _aggregate_cache_stats(self):
        entries = hits = misses = stores = 0
        reached = False
        for shard in self.shards.values():
            if not shard.up:
                continue
            try:
                response = await self._shard_request(
                    shard, {"verb": "cache"},
                )
            except _TRANSPORT_ERRORS:
                continue
            if not response.get("ok"):
                continue
            reached = True
            entries += int(response.get("entries") or 0)
            hits += int(response.get("hits") or 0)
            misses += int(response.get("misses") or 0)
            stores += int(response.get("stores") or 0)
        if not reached:
            return protocol.fleet_error(
                protocol.ERR_SHARD_DOWN,
                "no shard is up to report cache statistics",
                verb="cache",
            )
        return protocol.fleet_response(
            "cache", entries=entries, hits=hits, misses=misses,
            stores=stores,
        )

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------

    async def _health_loop(self):
        while not self._stopping.is_set():
            try:
                await asyncio.wait_for(
                    self._stopping.wait(), self.health_interval,
                )
                return
            except asyncio.TimeoutError:
                pass
            for shard in list(self.shards.values()):
                if self._stopping.is_set():
                    return
                await self._ping_shard(shard)

    async def _ping_shard(self, shard):
        client = AsyncServiceClient(
            shard.address, timeout=self.shard_timeout,
        )
        try:
            async with client:
                await client.ping()
        except _TRANSPORT_ERRORS:
            self._note_shard_failure(shard)
            return False
        self._note_shard_success(shard)
        return True

    def _note_shard_failure(self, shard):
        shard.failures += 1
        self.recorder.count("fleet/shard-errors")
        if shard.up and shard.failures >= self.down_after:
            shard.up = False
            self.ring.remove(shard.address)
            self.recorder.count("fleet/shard-downs")
            self._update_ring_gauges()
            log.warning(
                "shard %s marked down after %d consecutive failures; "
                "ring now %d shard(s)",
                shard.address, shard.failures, len(self.ring),
            )

    def _note_shard_success(self, shard):
        shard.failures = 0
        if not shard.up:
            shard.up = True
            self.ring.add(shard.address)
            self.recorder.count("fleet/shard-ups")
            self._update_ring_gauges()
            log.info(
                "shard %s marked up; ring now %d shard(s)",
                shard.address, len(self.ring),
            )

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def _update_ring_gauges(self):
        occupancy = self.ring.occupancy()
        for address in self.shards:
            self.recorder.gauge(
                "fleet/ring-occupancy/%s" % address,
                occupancy.get(address, 0.0),
            )
        self.recorder.gauge("fleet/shards-up", len(self.ring))
        self.recorder.gauge("fleet/shards-configured", len(self.shards))

    def _update_hit_gauges(self):
        routed = self.recorder.counter("fleet/jobs-routed")
        if not routed:
            return
        self.recorder.gauge(
            "fleet/cache-hit-rate",
            self.recorder.counter("fleet/jobs-cached") / routed,
        )
        self.recorder.gauge(
            "fleet/cache-transfer-rate",
            self.recorder.counter("fleet/cache-transfers") / routed,
        )

    def stats_report(self):
        """Router-level ``repro-stats/1`` report (counters, ring and
        hit-rate gauges; uptime re-gauged per report so scrapes always
        see a fresh value)."""
        self.recorder.gauge(
            "fleet/uptime-seconds",
            time.monotonic() - self._started_monotonic,
        )
        return self.recorder.report()

    def prometheus_text(self):
        """The ``/metrics`` exposition: histograms plus stats counters
        and gauges (thread-safe; called from the scrape thread)."""
        return to_prometheus_text(
            self.metrics.report(), self.stats_report(),
            build_info={
                "component": "repro-router", "version": __version__,
            },
        )
