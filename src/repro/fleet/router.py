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

Cross-shard cache tier (``repro-fleet/1``): the router first forwards
a submit to the home shard with ``cache_only``, which answers a hit
and admits nothing on a miss. Only after a home miss does it probe the
other shards in ring order; a peer hit is transferred home with
``cache-get`` / ``cache-put`` so the plain submit that follows is
answered from the home shard's own disk. N private caches behave as
one logical cache while every shard stays ignorant of its peers.

Miss placement: the home's miss answer and each peer's probe answer
carry ``idle_workers``. When home has none free and no peer holds the
entry, the miss runs on the first peer in ring order with a free
worker (home and the rest behind it as failover). Once the job's
decided result has been relayed to the client, a background task
copies the peer's entry for the job's key home with the same keyed
``cache-get`` / ``cache-put`` as a transfer, so later hits stay home
hits.

Connections: forwarded requests reuse idle router->shard connections
(at most :data:`MAX_IDLE_CONNECTIONS` per shard). A connection goes
back to the pool only after a complete exchange, and a request whose
reused connection turns out stale is sent once more on a fresh one.
Health pings always open a fresh connection, so they keep testing
that the shard accepts connections.

Health: a background task pings every shard each ``health_interval``
seconds; ``down_after`` consecutive failures (pings and forwarded
requests both count) remove the shard from the ring, the first
successful ping re-adds it. Ring membership changes move only the
affected shard's keys (see :mod:`repro.fleet.ring`).

Threading model: everything runs on one event loop; the only other
thread is the optional Prometheus ``/metrics`` endpoint, which reads
nothing but the thread-safe :class:`~repro.instrument.Recorder`.
"""

import asyncio
import collections
import io
import os
import time

from .. import __version__
from ..aig.aiger import AigerError, read_aag
from ..instrument import Recorder, get_logger
from ..instrument.metrics import to_prometheus_text
from ..instrument.tracing import (
    TraceContext,
    make_span,
    merge_trace_documents,
    new_span_id,
)
from ..service import protocol
from ..service.cache import cache_key, valid_key
from ..service.jobs import TERMINAL_STATES
from ..service.metrics_http import MetricsHTTPServer
from ..service.worker import build_options, check_budget
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

#: Router-side span stashes, and offloaded jobs awaiting their home
#: fill, kept for jobs whose result has not been fetched yet (bounds
#: memory under clients that never collect).
RETAIN_JOB_SPANS = 512

#: Verdicts a shard caches (an undecided one reflects its budget).
_DECIDED_VERDICTS = frozenset({"equivalent", "not_equivalent"})

#: Idle router->shard connections kept per shard for reuse. A bound on
#: sockets and shard handler threads, not a tuned value: one router
#: keeps about as many idle connections as it has requests in flight,
#: and perfbench's two client connections never reach it.
MAX_IDLE_CONNECTIONS = 8

#: Transport-level failures that mark a shard unhealthy.
_TRANSPORT_ERRORS = (OSError, asyncio.TimeoutError, protocol.ProtocolError)


def _idle_workers(answer):
    """A shard answer's ``idle_workers``, or None when it carries none
    (a shard that predates the field): such a home counts as not busy,
    and such a peer is never chosen for a miss."""
    idle = answer.get("idle_workers")
    if isinstance(idle, int) and not isinstance(idle, bool):
        return idle
    return None


def _retain(table, routed_id, value):
    """Record *value* for a routed job in an ordered *table*, dropping
    the oldest entries beyond :data:`RETAIN_JOB_SPANS`."""
    table[routed_id] = value
    while len(table) > RETAIN_JOB_SPANS:
        table.popitem(last=False)


class _ClientGone(Exception):
    """The router's own client hung up while a shard's heartbeats were
    relayed to it; the shard is not at fault."""


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
        self._metrics_address = metrics_address
        self._metrics_http = None
        self._server = None
        self._health_task = None
        self._stopping = asyncio.Event()
        self._job_spans = collections.OrderedDict()
        # Routed id -> (key, home shard) of jobs run away from home.
        self._offloads = collections.OrderedDict()
        # Home fills in flight (awaited by close).
        self._fills = set()
        # Idle shard connections by shard address (loop-thread only).
        self._idle = collections.defaultdict(list)
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
        endpoint, finish home fills in flight (idempotent)."""
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
        # No fill starts once _stopping is set; let the running ones
        # finish (each shard request is bounded by shard_timeout).
        while self._fills:
            await asyncio.gather(*self._fills, return_exceptions=True)
        idle, self._idle = self._idle, collections.defaultdict(list)
        for clients in idle.values():
            for client in clients:
                await client.close()

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
                except (OSError, _ClientGone):
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
        if verb in ("status", "result", "cancel", "progress"):
            await self._forward_job_verb(request, verb, writer)
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
                "metrics", metrics=self.recorder.metrics_report(),
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
        """One request/response exchange with *shard*, on an idle pooled
        connection when there is one; transport failures mark the shard
        and re-raise.

        A reused connection is stale when it fails before its first
        response line, other than by timing out (the shard restarted or
        dropped it), or when its first answer is ``shutting-down`` (a
        draining shard still answers on connections it accepted before;
        whether it takes new work is for a fresh connection to find
        out). It is closed with the shard's other idle connections (as
        old as it), so the request goes once more, on a fresh
        connection, without charging the shard. Every verb the router
        forwards is safe to resend: ``submit``, ``cache-put`` and
        ``cancel`` are idempotent, the others only read.
        """
        while True:
            idle = self._idle[shard.address]
            reused = bool(idle)
            client = idle.pop() if reused else AsyncServiceClient(
                shard.address, timeout=self.shard_timeout,
            )
            lines_read = client.lines_read
            try:
                response = await client.request(
                    message, on_update=on_update, raise_on_error=False,
                )
            except _TRANSPORT_ERRORS as exc:
                client.abort()
                if (reused and client.lines_read == lines_read
                        and not isinstance(exc, asyncio.TimeoutError)):
                    self._drop_idle(shard.address)
                    continue
                self._note_shard_failure(shard)
                raise
            except BaseException:
                # Cancelled, or our own client hung up mid-relay: the
                # exchange is unfinished, so the connection cannot be
                # reused, but the shard is not at fault.
                client.abort()
                raise
            error = response.get("error") or {}
            if (reused and client.lines_read == lines_read + 1
                    and error.get("code") == protocol.ERR_SHUTTING_DOWN):
                client.abort()
                self._drop_idle(shard.address)
                continue
            break
        self._note_shard_success(shard)
        idle = self._idle[shard.address]
        if len(idle) < MAX_IDLE_CONNECTIONS and not self._stopping.is_set():
            idle.append(client)
        else:
            client.abort()
        return response

    def _drop_idle(self, address):
        for client in self._idle.pop(address, ()):
            client.abort()

    async def _handle_submit(self, request):
        loop = asyncio.get_event_loop()
        started = loop.time()
        try:
            aig_a = read_aag(io.StringIO(request["aag_a"]))
            aig_b = read_aag(io.StringIO(request["aag_b"]))
            build_options(request.get("options"))
            check_budget(request)
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
        # cache_only is the router's own field, for its home request.
        message.pop("cache_only", None)
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
        response = shard = offloaded_from = None
        if len(order) > 1:
            # Ask home for a hit inside the submit. A hit, a refusal, or
            # a job from a shard that ignores cache_only is the answer;
            # only a miss sends the router to the peers, and a miss or
            # an unreachable home to the plain submit below.
            home = order[0]
            try:
                answer = await self._shard_request(
                    home, dict(message, cache_only=True),
                )
            except _TRANSPORT_ERRORS:
                answer = None
            if answer is not None and (
                    not answer.get("ok") or "job" in answer):
                response, shard = answer, home
                if answer.get("cached"):
                    self.recorder.count("fleet/cache-home-hits")
            elif answer is not None:
                transfer_span, idle_peer = await self._fetch_across_shards(
                    key, order,
                )
                if transfer_span is not None and context is not None:
                    transfer_span.update(
                        trace_id=context.trace_id, parent_id=route_span_id,
                    )
                    spans.append(transfer_span)
                if idle_peer is not None and _idle_workers(answer) == 0:
                    # Home is busy and no peer holds the entry: solve on
                    # the idle peer, with home and the rest as failover.
                    order = [idle_peer] + [
                        other for other in order if other is not idle_peer
                    ]
                    offloaded_from = home
        if response is None:
            response, shard = await self._submit_with_failover(
                order, message,
            )
        if response is None:
            self.recorder.count("fleet/jobs-rejected")
            return protocol.error_response(
                protocol.ERR_SHARD_DOWN,
                "every shard in preference order failed", verb="submit",
            )
        elapsed = loop.time() - started
        self.recorder.observe("fleet/route-seconds", elapsed)
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
            attrs = {}
            if offloaded_from is not None and shard is not offloaded_from:
                self.recorder.count("fleet/miss-offloads")
                _retain(self._offloads, routed, (key, offloaded_from))
                attrs["offloaded_from"] = offloaded_from.address
            if context is not None:
                # Span timestamps are epoch seconds, not loop time.
                spans.append(make_span(
                    context.trace_id, route_span_id, context.parent_id,
                    "fleet/route", time.time() - elapsed, elapsed,
                    process="repro-router", thread="event-loop",
                    job=routed, shard=shard.address, **attrs
                ))
                self._stash_spans(routed, spans)
        return response

    async def _submit_with_failover(self, order, message):
        """Forward a plain submit along *order* until a shard answers:
        ``(response, shard)``, or ``(None, None)`` when all failed."""
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
            return response, shard
        return None, None

    async def _fetch_across_shards(self, key, order):
        """Pull *key*'s certificate to its home shard from a peer.

        Called after a home miss. Best effort: probe each peer in ring
        order; on a peer hit, copy the result document home so the
        forwarded submit is a local cache hit there. Returns
        ``(span, idle_peer)``: the transfer span (sans trace identity)
        when a transfer happened, and, when no peer holds the entry,
        the first probed peer that reported an idle worker.
        """
        loop = asyncio.get_event_loop()
        home = order[0]
        idle_peer = None
        held = False
        for peer in order[1:]:
            try:
                found, idle = await self._probe_cache(peer, key)
            except _TRANSPORT_ERRORS:
                continue
            if not found:
                if idle_peer is None and idle is not None and idle >= 1:
                    idle_peer = peer
                continue
            held = True
            started = loop.time()
            if not await self._copy_entry(peer, home, key):
                self.recorder.count("fleet/cache-transfer-failures")
                continue
            elapsed = loop.time() - started
            self.recorder.count("fleet/cache-transfers")
            self.recorder.add_time("fleet/cache-transfer", elapsed)
            self.recorder.observe("fleet/transfer-seconds", elapsed)
            log.info(
                "transferred cache entry %s from %s to %s",
                key[:12], peer.address, home.address,
            )
            return make_span(
                None, new_span_id(), None, "fleet/cache-transfer",
                time.time() - elapsed, elapsed, process="repro-router",
                thread="event-loop", shard=home.address, source=peer.address,
            ), None
        return None, (None if held else idle_peer)

    async def _probe_cache(self, shard, key):
        """``(found, idle_workers)`` for *key* on *shard*; cache-less
        shards read as a miss and a shard that reports no
        ``idle_workers`` as None. Transport failures propagate (callers
        skip)."""
        response = await self._shard_request(
            shard, {"verb": "cache", "key": key},
        )
        if not response.get("ok"):
            # A shard without a cache (or any protocol-level refusal)
            # is simply not a source or target for transfers.
            return False, None
        return bool(response.get("found")), _idle_workers(response)

    async def _copy_entry(self, source, target, key):
        """Copy *key*'s cache entry from *source* to *target* with a
        keyed ``cache-get`` and a ``cache-put``; True when *target*
        holds it afterwards. A miss on *source*, an error envelope (a
        full disk answers ``cache-put`` with ``cache-store-failed``) and
        a transport failure all read as False."""
        try:
            got = await self._shard_request(
                source, {"verb": "cache-get", "key": key},
            )
            if not (got.get("ok") and got.get("found")):
                return False
            stored = await self._shard_request(target, {
                "verb": "cache-put", "key": key,
                "result": got.get("result"), "meta": got.get("meta"),
            })
        except _TRANSPORT_ERRORS:
            return False
        return bool(stored.get("ok"))

    def _start_fill(self, peer, key, home):
        """Fill *home* with the entry an offloaded job left on *peer*,
        in the background: neither the relayed result nor the client's
        next request waits for it."""
        if self._stopping.is_set():
            return
        task = asyncio.ensure_future(self._fill_home(peer, key, home))
        self._fills.add(task)
        task.add_done_callback(self._fill_done)

    def _fill_done(self, task):
        self._fills.discard(task)
        if not task.cancelled() and task.exception() is not None:
            log.error("home fill crashed", exc_info=task.exception())

    async def _fill_home(self, peer, key, home):
        """Copy *key*'s entry from *peer* to *home*.

        The copy is keyed, so it installs what *peer*'s cache holds for
        *key* and nothing else, even when the relayed job was not the
        offloaded one (a restarted peer reuses job ids). A failed fill,
        like a result nobody fetches, leaves the lazy transfer to serve
        the next hit.
        """
        if await self._copy_entry(peer, home, key):
            self.recorder.count("fleet/home-fills")
            return
        self.recorder.count("fleet/home-fill-failures")
        log.warning(
            "home fill of %s from %s to %s failed",
            key[:12], peer.address, home.address,
        )

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
            try:
                await self._send(writer, update)
            except OSError as exc:
                raise _ClientGone(str(exc)) from exc

        try:
            response = await self._shard_request(
                shard, message, on_update=relay,
            )
        except _TRANSPORT_ERRORS as exc:
            if verb == "result":
                self._offloads.pop(routed, None)
            await self._send(writer, protocol.error_response(
                protocol.ERR_SHARD_DOWN,
                "shard %s failed mid-%s: %s"
                % (shard.address, verb, exc),
                verb=verb,
            ))
            return
        self._rewrite_job(response, shard)
        offload = None
        if verb == "result":
            self._stitch_result_trace(routed, response)
            if response.get("state") in TERMINAL_STATES:
                offload = self._offloads.pop(routed, None)
        await self._send(writer, response)
        if (offload is not None
                and response.get("verdict") in _DECIDED_VERDICTS):
            key, home = offload
            self._start_fill(shard, key, home)

    # ------------------------------------------------------------------
    # Trace stitching
    # ------------------------------------------------------------------

    def _stash_spans(self, routed_id, spans):
        if spans:
            _retain(self._job_spans, routed_id, spans)

    def _stitch_result_trace(self, routed_id, response):
        """Merge the router's stashed spans into a terminal result's
        trace document (client, router, shard, and worker spans then
        share one trace id).

        A restarted shard numbers its jobs from ``j000001`` again, so a
        stash can outlive its job and meet a later job with the same
        routed id: it is merged only into a trace with its own trace
        id, and dropped when it meets another."""
        spans = self._job_spans.get(routed_id)
        if spans is None:
            return
        trace = response.get("trace")
        stale = isinstance(trace, dict) and \
            trace.get("trace_id") != spans[0]["trace_id"]
        if isinstance(trace, dict) and not stale:
            response["trace"] = merge_trace_documents(
                trace, {"spans": spans},
            )
        if stale or response.get("state") in TERMINAL_STATES:
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
        if not valid_key(key):
            return protocol.fleet_error(
                protocol.ERR_INVALID_REQUEST,
                "cache verbs need a lowercase-hex 'key'", verb=verb,
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
            self._drop_idle(shard.address)
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
        hit-rate gauges; uptime and the latency quantiles, e.g.
        ``fleet/route-seconds/p50``, re-gauged per report so scrapes
        always see fresh values)."""
        self.recorder.gauge(
            "fleet/uptime-seconds",
            time.monotonic() - self._started_monotonic,
        )
        for name, value in self.recorder.quantile_gauges().items():
            self.recorder.gauge(name, value)
        return self.recorder.report()

    def prometheus_text(self):
        """The ``/metrics`` exposition: histograms plus stats counters
        and gauges (thread-safe; called from the scrape thread)."""
        return to_prometheus_text(
            self.recorder.metrics_report(), self.stats_report(),
            build_info={
                "component": "repro-router", "version": __version__,
            },
        )
