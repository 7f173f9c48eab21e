"""Wire protocol of the CEC service: line-delimited JSON (``repro-service/1``).

Every request and every response is one JSON object on one ``\\n``-
terminated line, UTF-8 encoded. A connection may carry any number of
requests sequentially; the server answers each request with one or more
response lines on the same connection:

* every response carries ``"ok"`` (bool), ``"verb"`` (echoing the
  request), and ``"final"`` (bool);
* all responses are final except the *heartbeat* lines streamed while a
  ``result --wait`` request is blocked on a running job — those have
  ``"final": false`` and repeat until the terminal response;
* failures are structured: ``{"ok": false, "error": {"code": ...,
  "message": ...}, ...}`` with a stable machine-readable code from
  the ``ERR_*`` constants below. The server never answers a malformed
  request by dropping the connection unless the line limit is exceeded.

Verbs: ``ping``, ``submit``, ``status``, ``result``, ``cancel``,
``stats``, ``metrics``, ``shutdown``. The full field-by-field
description lives in ``docs/service.md``.

Observability riders (all optional, all additive to
``repro-service/1``): a ``submit`` request may carry a ``trace``
mapping (``trace_id`` + optional ``parent_id``, see
:class:`repro.instrument.tracing.TraceContext`) that the server
propagates through the queue and the worker pool so one job yields one
stitched ``repro-trace/1`` document, returned on the job's ``result``
response as ``trace``. The ``metrics`` verb answers with the server's
``repro-metrics/1`` document and its Prometheus text rendering (the
same payload the optional ``/metrics`` HTTP endpoint serves).
"""

import json

from .. import __version__
from ..analyze.schemas import (
    FLEET_SCHEMA,
    FLEET_VERBS as _FLEET_VERBS,
    SERVICE_SCHEMA,
    SERVICE_VERBS,
)

#: Historical alias of :data:`repro.analyze.schemas.SERVICE_SCHEMA`.
PROTOCOL_SCHEMA = SERVICE_SCHEMA

#: Hard per-line cap (requests embed whole AIGER texts and responses
#: whole TraceCheck proofs; 256 MiB is far above any committed
#: benchmark and protects the server from unbounded buffering).
MAX_LINE_BYTES = 256 * 1024 * 1024

VERBS = frozenset(SERVICE_VERBS)

#: The cross-shard cache-protocol verbs (``repro-fleet/1``), accepted
#: by the same dispatcher on the same socket as the service verbs.
FLEET_VERBS = frozenset(_FLEET_VERBS)

# Stable error codes.
ERR_INVALID_REQUEST = "invalid-request"  # malformed JSON / unknown verb
ERR_BAD_INPUT = "bad-input"              # unparseable or incompatible AIGs
ERR_QUEUE_FULL = "queue-full"            # bounded queue rejected the job
ERR_UNKNOWN_JOB = "unknown-job"          # job id not in the table
ERR_WORKER_FAILED = "worker-failed"      # worker process raised/died
ERR_CANCELLED = "cancelled"              # job was cancelled before running
ERR_SHUTTING_DOWN = "shutting-down"      # server is draining
ERR_CERTIFY_FAILED = "certificate-invalid"  # server-side certify rejected
ERR_TIMEOUT = "timeout"                  # result --wait timed out (job lives)
ERR_NO_CACHE = "no-cache"                # cache verb on a cache-less server
ERR_SHARD_DOWN = "shard-down"            # router: the job's shard is gone
ERR_CACHE_STORE_FAILED = "cache-store-failed"  # cache-put hit a disk error


class ProtocolError(Exception):
    """A malformed message or a transport-level protocol violation.

    Attributes:
        code: stable error code (one of the ``ERR_*`` constants).
    """

    def __init__(self, message, code=ERR_INVALID_REQUEST):
        Exception.__init__(self, message)
        self.code = code


def encode(message):
    """Serialize one message to its wire form (bytes, newline-terminated)."""
    return (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")


def decode(line):
    """Parse one wire line into a message dict.

    Raises:
        ProtocolError: on malformed JSON or a non-object payload.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError("message is not valid UTF-8: %s" % exc)
    try:
        message = json.loads(line)
    except ValueError as exc:
        raise ProtocolError("message is not valid JSON: %s" % exc)
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    return message


def ok_response(verb, final=True, **fields):
    """Build a success response envelope."""
    response = {
        "schema": PROTOCOL_SCHEMA, "ok": True, "verb": verb, "final": final,
    }
    response.update(fields)
    return response


def error_response(code, message, verb=None, final=True, **fields):
    """Build a structured failure response envelope."""
    response = {
        "schema": PROTOCOL_SCHEMA,
        "ok": False,
        "verb": verb,
        "final": final,
        "error": {"code": code, "message": message},
    }
    response.update(fields)
    return response


def fleet_response(verb, final=True, **fields):
    """Build a success response for a ``repro-fleet/1`` cache verb."""
    response = {
        "schema": FLEET_SCHEMA, "ok": True, "verb": verb, "final": final,
    }
    response.update(fields)
    return response


def fleet_error(code, message, verb=None, final=True, **fields):
    """Build a structured failure response for a fleet cache verb."""
    response = {
        "schema": FLEET_SCHEMA,
        "ok": False,
        "verb": verb,
        "final": final,
        "error": {"code": code, "message": message},
    }
    response.update(fields)
    return response


def ping_response():
    """The ``ping`` answer: liveness plus server identity."""
    return ok_response("ping", version=__version__, protocol=PROTOCOL_SCHEMA)


def parse_address(spec):
    """Parse an address argument into ``(family, target)``.

    ``host:port`` (the last colon splits) selects TCP; anything
    containing a path separator — ``/tmp/cec.sock``, ``./srv.sock`` —
    selects a Unix-domain socket.

    Returns:
        ``("tcp", (host, port))`` or ``("unix", path)``.

    Raises:
        ValueError: when the spec matches neither form.
    """
    if "/" in spec or spec.startswith("."):
        return ("unix", spec)
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(
            "address %r is neither host:port nor a socket path" % spec
        )
    try:
        return ("tcp", (host, int(port)))
    except ValueError:
        raise ValueError("address %r has a non-numeric port" % spec)


def format_address(family, target):
    """Human-readable form of a parsed address."""
    if family == "unix":
        return target
    return "%s:%d" % target
