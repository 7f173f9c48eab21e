"""Phase timers, counters, gauges, spans and histograms.

The :class:`Recorder` is the package's single in-process store of what
happened. Components record into five namespaces:

* **phases** — wall-clock accumulators with call counts. Names are
  hierarchical with ``/`` separators; the :meth:`Recorder.phase`
  context manager builds the name from the enclosing phase stack, and
  :meth:`Recorder.add_time` charges a pre-measured duration to an
  explicit name (used by hot loops that accumulate locally and flush
  once).
* **counters** — monotonically increasing integers
  (:meth:`Recorder.count`).
* **gauges** — last-write-wins values (:meth:`Recorder.gauge`), for
  end-of-run sizes such as the final proof length.
* **spans** — once :meth:`Recorder.start_trace` is called, every phase
  is also recorded as a span of a ``repro-trace/1`` document
  (:meth:`Recorder.trace_report`).
* **histograms** — fixed-bucket distributions
  (:meth:`Recorder.observe`), served as the ``repro-metrics/1``
  document (:meth:`Recorder.metrics_report`) and as p50/p90/p99 gauges
  (:meth:`Recorder.quantile_gauges`).

:meth:`Recorder.report` serializes phases, counters and gauges to the
stable ``repro-stats/1`` schema documented in
``docs/instrumentation.md``; the benchmark harness and the
``--stats-json`` CLI flags all emit exactly this shape.

Literal phase names must belong to the registry in
:mod:`repro.instrument.phases`; the ``code.phase-registry`` lint rule
enforces this across ``src/repro``.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .metrics import REPORT_QUANTILES, TIME_BUCKETS, Histogram
from .tracing import (
    Span,
    TraceContext,
    make_span,
    make_trace_document,
    new_span_id,
)

from ..analyze.schemas import METRICS_SCHEMA
from ..analyze.schemas import STATS_SCHEMA as STATS_SCHEMA  # registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .progress import ProgressTracker


class Recorder:
    """Instrumentation sink: phases, counters, gauges, spans, histograms.

    A recorder is safe to share across threads (the service worker pool
    and server handler threads record into one instance): every
    mutation is serialized by an internal lock, and the active-phase
    stack that :meth:`phase` uses for hierarchical naming and span
    parenting is thread-local, so concurrent phases in different
    threads never corrupt each other's names.

    Args:
        clock: monotonic time source (overridable for tests).
    """

    enabled = True

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self._clock = clock
        self._start = clock()
        self._phases: Dict[str, List[float]] = {}  # name -> [seconds, count]
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, Any] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._local = threading.local()  # per-thread active phase stack
        self._lock = threading.RLock()
        self.meta: Dict[str, Any] = {}
        # Distributed-tracing state; inert until start_trace() is
        # called, so untraced recorders pay nothing beyond one None
        # check per phase entry.
        self._trace_ctx: Optional[TraceContext] = None
        self._spans: List[Span] = []
        self._wall: Callable[[], float] = time.time
        # Optional live-progress tracker (repro.instrument.progress).
        # The solver/sweep hot paths pick it up only when the recorder
        # is enabled, so NULL_RECORDER runs never see heartbeats.
        self.progress: Optional["ProgressTracker"] = None

    @property
    def _stack(self) -> List[Tuple[str, Optional[str]]]:
        """This thread's open phases: ``(full name, span id or None)``."""
        stack: Optional[List[Tuple[str, Optional[str]]]] = getattr(
            self._local, "stack", None
        )
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------

    @contextmanager
    def phase(self, name: str) -> Iterator["Recorder"]:
        """Time a phase; nested phases get ``outer/inner`` names.

        When a trace has been started (:meth:`start_trace`), every
        phase additionally records one span carrying the trace context:
        its parent is the enclosing phase's span in this thread, or the
        propagated remote parent at the top of the stack.
        """
        stack = self._stack
        outer = stack[-1] if stack else None
        full = outer[0] + "/" + name if outer else name
        ctx = self._trace_ctx
        span_id: Optional[str] = None
        parent_id: Optional[str] = None
        wall_start = 0.0
        if ctx is not None:
            span_id = new_span_id()
            # An untraced outer phase was entered before start_trace(),
            # and so was every phase below it.
            parent_id = outer[1] if outer and outer[1] else ctx.parent_id
            wall_start = self._wall()
        stack.append((full, span_id))
        start = self._clock()
        try:
            yield self
        finally:
            elapsed = self._clock() - start
            stack.pop()
            if span_id is not None:
                self._append_span(
                    full, wall_start, elapsed, span_id, parent_id
                )
            self.add_time(full, elapsed)

    def add_time(self, name: str, seconds: float, count: int = 1) -> None:
        """Charge *seconds* to phase *name* (explicit, non-stacked)."""
        with self._lock:
            cell = self._phases.get(name)
            if cell is None:
                self._phases[name] = [seconds, count]
            else:
                cell[0] += seconds
                cell[1] += count

    def phase_seconds(self, name: str) -> float:
        """Accumulated seconds of phase *name* (0.0 when never entered)."""
        cell = self._phases.get(name)
        return cell[0] if cell else 0.0

    # ------------------------------------------------------------------
    # Tracing (spans)
    # ------------------------------------------------------------------

    def start_trace(
        self,
        context: Optional[TraceContext] = None,
        process: Optional[str] = None,
        wall: Callable[[], float] = time.time,
    ) -> TraceContext:
        """Begin recording spans for every subsequent :meth:`phase`.

        Args:
            context: propagated :class:`TraceContext` (a fresh root
                trace is started when omitted). Top-level phases parent
                under ``context.parent_id``.
            process: process label stamped on every span (defaults to
                ``meta["tool"]`` at span-creation time).
            wall: wall-clock source for span start timestamps
                (injectable for tests; spans from different processes
                share the epoch timeline).

        Returns the active context. Tracing is opt-in and idempotent:
        calling again replaces the context but keeps recorded spans.
        """
        with self._lock:
            self._trace_ctx = context if context is not None \
                else TraceContext.new()
            if process is not None:
                self.meta.setdefault("tool", process)
            self._wall = wall
            return self._trace_ctx

    @property
    def trace_context(self) -> Optional[TraceContext]:
        """The active trace context (``None`` when not tracing)."""
        return self._trace_ctx

    def _append_span(
        self,
        name: str,
        wall_start: float,
        duration: float,
        span_id: str,
        parent_id: Optional[str],
        **attrs: Any,
    ) -> None:
        ctx = self._trace_ctx
        if ctx is None:
            return
        span = make_span(
            ctx.trace_id, span_id, parent_id, name, wall_start, duration,
            process=str(self.meta.get("tool", "")) or "repro",
            thread=threading.current_thread().name, **attrs
        )
        with self._lock:
            self._spans.append(span)

    def add_span(
        self,
        name: str,
        seconds: float,
        ts: Optional[float] = None,
        span_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        **attrs: Any,
    ) -> Optional[str]:
        """Record one explicit span (events not shaped like a ``with``).

        Used for retrospective intervals such as the service's
        queue-wait, where start and end are observed from bookkeeping
        timestamps rather than by wrapping code. No phase time is
        charged — pair with :meth:`add_time` when the interval should
        also appear in the stats report. Returns the span id (``None``
        when no trace is active).
        """
        if self._trace_ctx is None:
            return None
        sid = span_id if span_id is not None else new_span_id()
        self._append_span(
            name,
            ts if ts is not None else self._wall() - seconds,
            seconds, sid, parent_id, **attrs,
        )
        return sid

    def spans(self) -> List[Span]:
        """Snapshot of the recorded spans (order of completion)."""
        with self._lock:
            return list(self._spans)

    def trace_report(self) -> Optional[Dict[str, Any]]:
        """The ``repro-trace/1`` document, or ``None`` when not tracing."""
        ctx = self._trace_ctx
        if ctx is None:
            return None
        return make_trace_document(ctx.trace_id, self.spans())

    # ------------------------------------------------------------------
    # Counters and gauges
    # ------------------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Increment counter *name* by *n*."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def counter(self, name: str) -> int:
        """Current value of counter *name* (0 when never incremented)."""
        return self._counters.get(name, 0)

    def gauge(self, name: str, value: Any) -> None:
        """Set gauge *name* to *value* (last write wins)."""
        with self._lock:
            self._gauges[name] = value

    # ------------------------------------------------------------------
    # Histograms
    # ------------------------------------------------------------------

    def observe(
        self, name: str, value: float,
        buckets: Sequence[float] = TIME_BUCKETS, unit: str = "seconds",
    ) -> None:
        """Record one observation into histogram *name*.

        The first observation fixes the histogram's bounds (by default
        :data:`~repro.instrument.metrics.TIME_BUCKETS`, for latencies)
        and unit; later calls keep them whatever they pass.
        """
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = Histogram(name, buckets, unit=unit)
                self._histograms[name] = hist
            hist.observe(value)

    def metrics_report(self) -> Dict[str, Any]:
        """The ``repro-metrics/1`` document of every histogram."""
        with self._lock:
            return {
                "schema": METRICS_SCHEMA,
                "histograms": {
                    name: hist.as_dict()
                    for name, hist in sorted(self._histograms.items())
                },
            }

    def quantile_gauges(self) -> Dict[str, float]:
        """``{"<name>/p50": value, ...}`` for every histogram holding
        an observation (p50, p90 and p99)."""
        with self._lock:
            return {
                "%s/%s" % (name, label): hist.quantile(q)
                for name, hist in self._histograms.items() if hist.count
                for label, q in REPORT_QUANTILES
            }

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def report(self, budget: Optional[Any] = None) -> Dict[str, Any]:
        """Serialize to the stable ``repro-stats/1`` dict schema.

        Each phase cell carries ``seconds`` (inclusive of nested
        phases), ``count``, and ``self_seconds`` — the inclusive time
        minus the time of the phase's direct children in the ``/``
        hierarchy, so summing ``self_seconds`` over a subtree never
        double-counts (the flamegraph export weighs frames by it).

        Args:
            budget: optional :class:`~repro.instrument.budget.Budget`
                whose status is embedded under the ``"budget"`` key
                (``None`` there when no budget was in force).
        """
        with self._lock:
            # Attribute each phase's time to its nearest recorded
            # ancestor: the longest proper "/"-prefix present in the
            # table. Nested phase names may add several segments at
            # once ("cec/sweep" entering "sweep/sat" records
            # "cec/sweep/sweep/sat"), so the literal one-segment parent
            # often does not exist as a phase of its own.
            child_seconds: Dict[str, float] = {}
            for name, cell in self._phases.items():
                parts = name.split("/")
                for cut in range(len(parts) - 1, 0, -1):
                    prefix = "/".join(parts[:cut])
                    if prefix in self._phases:
                        child_seconds[prefix] = (
                            child_seconds.get(prefix, 0.0) + cell[0]
                        )
                        break
            return {
                "schema": STATS_SCHEMA,
                "elapsed_seconds": self._clock() - self._start,
                "phases": {
                    name: {
                        "seconds": cell[0],
                        "count": cell[1],
                        "self_seconds": max(
                            0.0, cell[0] - child_seconds.get(name, 0.0)
                        ),
                    }
                    for name, cell in sorted(self._phases.items())
                },
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "budget": budget.as_dict() if budget is not None else None,
                "meta": dict(self.meta),
            }

    def merge_report(self, report: Dict[str, Any]) -> None:
        """Fold another ``repro-stats/1`` report's phases and counters
        into this recorder.

        Used by the service front end to aggregate its worker
        processes' per-job reports into the server-level stats, so
        ``service``-scoped telemetry is not under-counted when the
        solving happens out of process. Gauges are last-write-wins and
        run-specific, so they are deliberately not merged.
        """
        for name, cell in report.get("phases", {}).items():
            self.add_time(name, cell["seconds"], count=cell["count"])
        for name, value in report.get("counters", {}).items():
            self.count(name, value)

    def write_json(self, path: str, budget: Optional[Any] = None) -> None:
        """Write :meth:`report` to *path* as indented JSON."""
        with open(path, "w") as handle:
            json.dump(self.report(budget=budget), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")


class _NullRecorder(Recorder):
    """Shared do-nothing recorder for uninstrumented runs.

    ``enabled`` is False so hot loops can skip even the cheap
    local-accumulation work; every mutating method is a no-op.
    """

    enabled = False

    def __init__(self) -> None:
        Recorder.__init__(self)

    @contextmanager
    def phase(self, name: str) -> Iterator[Recorder]:
        yield self

    def add_time(self, name: str, seconds: float, count: int = 1) -> None:
        pass

    def count(self, name: str, n: int = 1) -> None:
        pass

    def gauge(self, name: str, value: Any) -> None:
        pass

    def observe(
        self, name: str, value: float,
        buckets: Sequence[float] = TIME_BUCKETS, unit: str = "seconds",
    ) -> None:
        pass

    def start_trace(
        self,
        context: Optional[TraceContext] = None,
        process: Optional[str] = None,
        wall: Callable[[], float] = time.time,
    ) -> TraceContext:
        # Hand back a context so callers can propagate it, but record
        # nothing: the null recorder stays free of per-phase work.
        return context if context is not None else TraceContext.new()

    def add_span(
        self,
        name: str,
        seconds: float,
        ts: Optional[float] = None,
        span_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        **attrs: Any,
    ) -> Optional[str]:
        return None


NULL_RECORDER = _NullRecorder()


def validate_report(report: Any) -> Dict[str, Any]:
    """Check *report* against the ``repro-stats/1`` schema.

    Used by tests and the CI smoke job. Raises ``ValueError`` with the
    first problem found; returns the report unchanged when valid.
    """
    if not isinstance(report, dict):
        raise ValueError("report must be a dict")
    if report.get("schema") != STATS_SCHEMA:
        raise ValueError("bad schema tag %r" % (report.get("schema"),))
    for key in ("elapsed_seconds", "phases", "counters", "gauges",
                "budget", "meta"):
        if key not in report:
            raise ValueError("missing top-level key %r" % key)
    if not isinstance(report["elapsed_seconds"], (int, float)):
        raise ValueError("elapsed_seconds must be a number")
    for name, cell in report["phases"].items():
        # self_seconds is optional so pre-existing reports stay valid;
        # when present it must be a sane exclusive-time value.
        if not {"seconds", "count"} <= set(cell) \
                or not set(cell) <= {"seconds", "count", "self_seconds"}:
            raise ValueError("phase %r must have seconds+count" % name)
        if cell["seconds"] < 0 or cell["count"] < 0:
            raise ValueError("phase %r has negative fields" % name)
        if "self_seconds" in cell and not (
            0 <= cell["self_seconds"] <= cell["seconds"] + 1e-9
        ):
            raise ValueError(
                "phase %r self_seconds outside [0, seconds]" % name
            )
    for name, value in report["counters"].items():
        if not isinstance(value, int) or value < 0:
            raise ValueError("counter %r must be a non-negative int" % name)
    budget = report["budget"]
    if budget is not None:
        for key in ("time_limit", "conflict_limit", "proof_clause_limit",
                    "conflicts", "proof_clauses", "elapsed_seconds",
                    "exhausted"):
            if key not in budget:
                raise ValueError("budget block missing key %r" % key)
        if budget["exhausted"] not in (
            None, "time", "conflicts", "proof_clauses",
        ):
            raise ValueError(
                "bad budget exhaustion reason %r" % (budget["exhausted"],)
            )
    return report
