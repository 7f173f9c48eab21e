"""Asyncio client for ``repro-service/1`` / ``repro-fleet/1`` sockets.

The router talks to its backend shards with this client: same line-
JSON protocol as :class:`repro.service.client.ServiceClient`, but
non-blocking, so one event loop multiplexes health pings, cache
probes, and forwarded jobs across the whole fleet.

One connection carries one request pipeline at a time (responses have
no request ids, so interleaving two requests on a socket would
scramble their replies). The router therefore gives each forwarded
request a connection of its own, reusing one that finished its last
exchange when it has one idle; this client connects lazily and counts
the response lines it has read, so the router can tell a stale reused
connection (nothing read) from a shard failing mid-answer.

Failures keep the :class:`~repro.service.client.ServiceError` /
``OSError`` / ``ProtocolError`` split of the synchronous client:
protocol-level ``ok: false`` responses raise ``ServiceError`` (they
are answers), transport problems raise ``OSError`` subclasses (the
caller decides whether re-sending is replay-safe), and a reply that is
not a protocol line, one longer than ``MAX_LINE_BYTES`` included,
raises :class:`~repro.service.protocol.ProtocolError`.
"""

import asyncio

from ..service import protocol
from ..service.client import ServiceError

DEFAULT_TIMEOUT = 60.0


class AsyncServiceClient:
    """One asyncio connection to a shard (or to the router itself).

    Args:
        address: ``host:port`` or Unix socket path.
        timeout: seconds allowed for the connect and for each response
            line. Heartbeats during a blocking ``result`` wait reset
            the clock, so the timeout bounds silence, not job runtime.
    """

    def __init__(self, address, timeout=DEFAULT_TIMEOUT):
        self.address = address
        self.family, self.target = protocol.parse_address(address)
        self.timeout = timeout
        #: Response lines read on this connection (heartbeats included).
        self.lines_read = 0
        self._reader = None
        self._writer = None

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    async def connect(self):
        """Open the connection (idempotent); returns self."""
        if self._writer is not None:
            return self
        # The stream limit must admit a whole protocol line: requests
        # embed AIGER texts and responses whole proofs, far beyond the
        # 64 KiB asyncio default.
        if self.family == "unix":
            opening = asyncio.open_unix_connection(
                self.target, limit=protocol.MAX_LINE_BYTES + 1,
            )
        else:
            host, port = self.target
            opening = asyncio.open_connection(
                host, port, limit=protocol.MAX_LINE_BYTES + 1,
            )
        self._reader, self._writer = await asyncio.wait_for(
            opening, self.timeout,
        )
        return self

    def abort(self):
        """Drop the connection without waiting for the close to finish
        (idempotent; safe in a cancelled task or synchronous code)."""
        writer = self._writer
        self._reader = None
        self._writer = None
        if writer is not None:
            writer.close()

    async def close(self):
        """Drop the connection and wait until it is closed
        (idempotent)."""
        writer = self._writer
        self.abort()
        if writer is None:
            return
        try:
            await writer.wait_closed()
        except (OSError, asyncio.TimeoutError):
            pass

    async def __aenter__(self):
        await self.connect()
        return self

    async def __aexit__(self, *exc_info):
        await self.close()

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    async def request(self, message, on_update=None, raise_on_error=True):
        """Send one request; return the final response object.

        Non-final (heartbeat) responses go to *on_update* (which may
        be a coroutine function) and are never returned. With
        *raise_on_error* (the default) an ``ok: false`` final response
        raises :class:`ServiceError`; the router disables that and
        relays failure envelopes verbatim instead.
        """
        await self.connect()
        self._writer.write(protocol.encode(message))
        await asyncio.wait_for(self._writer.drain(), self.timeout)
        while True:
            try:
                line = await asyncio.wait_for(
                    self._reader.readline(), self.timeout,
                )
            except ValueError:
                # StreamReader.readline signals a line longer than the
                # stream limit as ValueError. The peer did answer, so
                # the line counts as read.
                self.lines_read += 1
                raise protocol.ProtocolError(
                    "reply line exceeds %d bytes" % protocol.MAX_LINE_BYTES
                )
            if not line:
                raise ConnectionError(
                    "%s closed the connection mid-request" % self.address
                )
            self.lines_read += 1
            response = protocol.decode(line)
            if not response.get("final", True):
                if on_update is not None:
                    outcome = on_update(response)
                    if asyncio.iscoroutine(outcome):
                        await outcome
                continue
            if raise_on_error and not response.get("ok"):
                raise ServiceError(response)
            return response

    # ------------------------------------------------------------------
    # Verb helper (the router's liveness ping)
    # ------------------------------------------------------------------

    async def ping(self):
        """Server identity block (liveness probe)."""
        return await self.request({"verb": "ping"})
