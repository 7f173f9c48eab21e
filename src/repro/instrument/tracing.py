"""Distributed tracing primitives: trace context, spans, exporters.

A **span** is one timed phase execution with an identity: it carries a
``trace_id`` shared by every span of one logical operation (for the CEC
service: one submitted job, from the client's request through the queue
to the worker's solver phases and the cache store), its own ``span_id``,
and the ``parent_id`` of the enclosing span. Spans are plain dicts so
they serialize to JSON without ceremony; the full document schema is
``repro-trace/1``::

    {
      "schema": "repro-trace/1",
      "trace_id": "4bf92f3577b34da6a3ce929d0e0e4736",
      "spans": [
        {"trace_id": "...", "span_id": "00f067aa0ba902b7",
         "parent_id": null, "name": "service/job",
         "ts": 1754500000.123456, "dur": 0.2843,
         "pid": 4242, "process": "repro-serve", "thread": "MainThread"}
      ]
    }

``ts`` is wall-clock epoch seconds (so spans from different processes
stitch onto one timeline) and ``dur`` is seconds measured on the
producing process's monotonic clock.

:class:`TraceContext` is the propagated part: ``(trace_id, parent_id)``
travels over the ``repro-service/1`` protocol as a small JSON mapping
(:meth:`TraceContext.to_wire`); :meth:`TraceContext.from_wire`
**degrades to a fresh trace** on a missing or malformed header instead
of raising, so a bad client can never crash — or detrace — the server.

Exporters turn a ``repro-trace/1`` document into the two de-facto
profiling interchange formats: Chrome ``trace_event`` JSON
(:func:`to_chrome_trace`, loadable in Perfetto / ``chrome://tracing`` /
speedscope) and collapsed flamegraph stacks
(:func:`to_collapsed_stacks`, the ``a;b;c <weight>`` lines consumed by
``flamegraph.pl`` and speedscope).
"""

from __future__ import annotations

import os
import re
import uuid
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..analyze.schemas import TRACE_SCHEMA as TRACE_SCHEMA  # registry

#: A span is a flat JSON-compatible mapping (see the module docstring).
Span = Dict[str, Any]

#: Accepted id shapes: lowercase hex, 16-64 nibbles for trace ids and
#: 8-32 for span ids (we emit 32/16, the W3C traceparent widths).
_TRACE_ID = re.compile(r"^[0-9a-f]{16,64}$")
_SPAN_ID = re.compile(r"^[0-9a-f]{8,32}$")


def new_trace_id() -> str:
    """A fresh 32-nibble trace id."""
    return uuid.uuid4().hex


def new_span_id() -> str:
    """A fresh 16-nibble span id."""
    return uuid.uuid4().hex[:16]


class TraceContext:
    """The propagated identity of a trace: ``(trace_id, parent_id)``.

    ``parent_id`` is the span id that spans created under this context
    should report as their parent — ``None`` at the root of a trace.
    """

    __slots__ = ("trace_id", "parent_id")

    def __init__(self, trace_id: str, parent_id: Optional[str] = None) -> None:
        self.trace_id = trace_id
        self.parent_id = parent_id

    @classmethod
    def new(cls) -> "TraceContext":
        """A fresh root context (new trace id, no parent)."""
        return cls(new_trace_id(), None)

    def child(self, parent_id: str) -> "TraceContext":
        """The same trace, re-rooted under span *parent_id*."""
        return TraceContext(self.trace_id, parent_id)

    def to_wire(self) -> Dict[str, str]:
        """The JSON mapping carried in protocol messages."""
        wire = {"trace_id": self.trace_id}
        if self.parent_id is not None:
            wire["parent_id"] = self.parent_id
        return wire

    @classmethod
    def from_wire(cls, wire: Any) -> Tuple["TraceContext", bool]:
        """Parse a wire mapping; degrade to a fresh trace when malformed.

        Returns ``(context, propagated)`` where *propagated* is False
        when the header was absent or malformed and a fresh trace was
        started instead. Never raises: observability must not be able
        to fail a job.
        """
        if not isinstance(wire, Mapping):
            return cls.new(), False
        trace_id = wire.get("trace_id")
        if not (isinstance(trace_id, str) and _TRACE_ID.match(trace_id)):
            return cls.new(), False
        parent_id = wire.get("parent_id")
        if parent_id is not None and not (
            isinstance(parent_id, str) and _SPAN_ID.match(parent_id)
        ):
            return cls.new(), False
        return cls(trace_id, parent_id), True

    def __repr__(self) -> str:
        return "TraceContext(trace_id=%r, parent_id=%r)" % (
            self.trace_id, self.parent_id,
        )


def make_span(
    trace_id: Optional[str], span_id: str, parent_id: Optional[str],
    name: str, ts: float, dur: float, process: str, thread: str,
    **attrs: Any,
) -> Span:
    """One span of this process (see the module docstring); *attrs*
    become extra keys of the span."""
    span: Span = {
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "ts": ts,
        "dur": dur,
        "pid": os.getpid(),
        "process": process,
        "thread": thread,
    }
    span.update(attrs)
    return span


def make_trace_document(trace_id: str, spans: List[Span]) -> Dict[str, Any]:
    """Assemble a ``repro-trace/1`` document (spans sorted by start)."""
    return {
        "schema": TRACE_SCHEMA,
        "trace_id": trace_id,
        "spans": sorted(spans, key=lambda span: (span["ts"], span["name"])),
    }


def merge_trace_documents(
    base: Dict[str, Any], *others: Optional[Dict[str, Any]]
) -> Dict[str, Any]:
    """One document holding the spans of *base* plus every other.

    The merged document keeps *base*'s trace id; spans keep the ids they
    were recorded with (a degraded child trace therefore stays visible
    as a foreign-trace island rather than silently re-parented).
    """
    spans: List[Span] = list(base.get("spans", ()))
    for other in others:
        if other:
            spans.extend(other.get("spans", ()))
    return make_trace_document(base["trace_id"], spans)


def validate_trace_report(document: Any) -> Dict[str, Any]:
    """Check *document* against the ``repro-trace/1`` schema.

    Raises ``ValueError`` with the first problem found; returns the
    document unchanged when valid (mirrors
    :func:`repro.instrument.recorder.validate_report`).
    """
    if not isinstance(document, dict):
        raise ValueError("trace document must be a dict")
    if document.get("schema") != TRACE_SCHEMA:
        raise ValueError("bad schema tag %r" % (document.get("schema"),))
    trace_id = document.get("trace_id")
    if not (isinstance(trace_id, str) and _TRACE_ID.match(trace_id)):
        raise ValueError("bad trace_id %r" % (trace_id,))
    spans = document.get("spans")
    if not isinstance(spans, list):
        raise ValueError("spans must be a list")
    for index, span in enumerate(spans):
        if not isinstance(span, dict):
            raise ValueError("span %d must be a dict" % index)
        for key in ("trace_id", "span_id", "name", "ts", "dur"):
            if key not in span:
                raise ValueError("span %d missing key %r" % (index, key))
        if not (isinstance(span["span_id"], str)
                and _SPAN_ID.match(span["span_id"])):
            raise ValueError("span %d has bad span_id %r"
                             % (index, span["span_id"]))
        parent = span.get("parent_id")
        if parent is not None and not (
            isinstance(parent, str) and _SPAN_ID.match(parent)
        ):
            raise ValueError("span %d has bad parent_id %r"
                             % (index, parent))
        if not isinstance(span["name"], str) or not span["name"]:
            raise ValueError("span %d has an empty name" % index)
        if not isinstance(span["ts"], (int, float)):
            raise ValueError("span %d has non-numeric ts" % index)
        if not isinstance(span["dur"], (int, float)) or span["dur"] < 0:
            raise ValueError("span %d has negative dur" % index)
    return document


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


def to_chrome_trace(document: Dict[str, Any]) -> Dict[str, Any]:
    """Convert a ``repro-trace/1`` document to Chrome ``trace_event`` JSON.

    Emits one complete (``"ph": "X"``) event per span, with timestamps
    in microseconds relative to the earliest span, plus ``process_name``
    / ``thread_name`` metadata events so Perfetto and speedscope label
    the tracks. The result is JSON-serializable as-is.
    """
    validate_trace_report(document)
    spans = document["spans"]
    origin = min((span["ts"] for span in spans), default=0.0)
    events: List[Dict[str, Any]] = []
    named_processes: Dict[int, str] = {}
    thread_ids: Dict[Tuple[int, str], int] = {}
    for span in spans:
        pid = int(span.get("pid", 0))
        process = str(span.get("process", "") or "")
        if process and named_processes.get(pid) != process:
            named_processes[pid] = process
            events.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": process},
            })
        thread = str(span.get("thread", "") or "main")
        tid_key = (pid, thread)
        if tid_key not in thread_ids:
            thread_ids[tid_key] = len(thread_ids) + 1
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid,
                "tid": thread_ids[tid_key], "args": {"name": thread},
            })
        events.append({
            "ph": "X",
            "name": span["name"],
            "cat": "phase",
            "ts": round((span["ts"] - origin) * 1e6, 3),
            "dur": round(span["dur"] * 1e6, 3),
            "pid": pid,
            "tid": thread_ids[tid_key],
            "args": {
                "trace_id": span["trace_id"],
                "span_id": span["span_id"],
                "parent_id": span.get("parent_id"),
            },
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        # Provenance tag inside Chrome's own JSON shape, not a
        # repro-trace/1 document.
        "otherData": {"trace_id": document["trace_id"],  # repro-lint: ignore[schema.missing-key]
                      "schema": TRACE_SCHEMA},
    }


def span_self_seconds(document: Dict[str, Any]) -> Dict[str, float]:
    """Per-span self time: duration minus the direct children's durations.

    Keyed by span id; negative values (clock skew between processes)
    clamp to zero.
    """
    child_seconds: Dict[str, float] = {}
    for span in document["spans"]:
        parent = span.get("parent_id")
        if parent is not None:
            child_seconds[parent] = (
                child_seconds.get(parent, 0.0) + float(span["dur"])
            )
    return {
        span["span_id"]: max(
            0.0, float(span["dur"]) - child_seconds.get(span["span_id"], 0.0)
        )
        for span in document["spans"]
    }


def to_collapsed_stacks(document: Dict[str, Any]) -> List[str]:
    """Flamegraph collapsed-stack lines (``a;b;c <microseconds>``).

    Each span contributes one stack — its ancestor chain within the
    document — weighted by its *self* time in integer microseconds
    (spans whose whole duration is covered by children contribute
    nothing). Spans with an unknown parent (e.g. the remote client's
    request span when only the server half is exported) root their own
    stack.
    """
    validate_trace_report(document)
    by_id = {span["span_id"]: span for span in document["spans"]}
    self_seconds = span_self_seconds(document)

    def stack_of(span: Span) -> List[str]:
        frames: List[str] = []
        cursor: Optional[Span] = span
        while cursor is not None:
            frames.append(str(cursor["name"]))
            parent = cursor.get("parent_id")
            cursor = by_id.get(parent) if parent is not None else None
            if len(frames) > len(by_id) + 1:  # cycle guard
                break
        return list(reversed(frames))

    weights: Dict[str, int] = {}
    for span in document["spans"]:
        micros = int(round(self_seconds[span["span_id"]] * 1e6))
        if micros <= 0:
            continue
        key = ";".join(stack_of(span))
        weights[key] = weights.get(key, 0) + micros
    return ["%s %d" % (stack, weight)
            for stack, weight in sorted(weights.items())]
