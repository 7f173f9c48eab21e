"""Asyncio client for ``repro-service/1`` / ``repro-fleet/1`` sockets.

The router talks to its backend shards with this client: same line-
JSON protocol as :class:`repro.service.client.ServiceClient`, but
non-blocking, so one event loop multiplexes health pings, cache
probes, and forwarded jobs across the whole fleet.

One connection carries one request pipeline at a time (responses have
no request ids, so interleaving two requests on a socket would
scramble their replies). The router therefore opens a connection per
forwarded request; this client keeps that cheap by connecting lazily
and exposing an async context manager.

Failures keep the :class:`~repro.service.client.ServiceError` /
``OSError`` split of the synchronous client: protocol-level ``ok:
false`` responses raise ``ServiceError`` (they are answers), transport
problems raise ``OSError`` subclasses (the caller decides whether
re-sending is replay-safe).
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

    async def close(self):
        """Drop the connection (idempotent)."""
        writer = self._writer
        self._reader = None
        self._writer = None
        if writer is None:
            return
        writer.close()
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
            line = await asyncio.wait_for(
                self._reader.readline(), self.timeout,
            )
            if not line:
                raise ConnectionError(
                    "%s closed the connection mid-request" % self.address
                )
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
    # Verb helpers (the router's ping, plus submit/result for callers)
    # ------------------------------------------------------------------

    async def ping(self):
        """Server identity block (liveness probe)."""
        return await self.request({"verb": "ping"})

    async def submit(self, aag_a, aag_b, **fields):
        """Submit one check; extra *fields* ride the request as-is."""
        message = {"verb": "submit", "aag_a": aag_a, "aag_b": aag_b}
        message.update(fields)
        return await self.request(message)

    async def result(self, job_id, wait=False, timeout=None,
                     on_update=None):
        """Result of a job, optionally blocking until terminal."""
        message = {"verb": "result", "job": job_id, "wait": wait}
        if timeout is not None:
            message["timeout"] = timeout
        return await self.request(message, on_update=on_update)
