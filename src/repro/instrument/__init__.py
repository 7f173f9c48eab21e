"""Engine-wide instrumentation and resource budgeting.

Two small, dependency-free primitives shared by every layer of the
package (solver, sweep engine, proof store, trimmer, checker, CLIs,
benchmark harness):

* :class:`~repro.instrument.recorder.Recorder` — hierarchical phase
  timers, monotonic counters, gauges, spans and histograms; phases,
  counters and gauges serialize by
  :meth:`~repro.instrument.recorder.Recorder.report` to one stable
  JSON schema (``repro-stats/1``, see ``docs/instrumentation.md``).
* :class:`~repro.instrument.budget.Budget` — cooperative wall-time /
  conflict / proof-clause limits. Components consult the budget at
  natural checkpoints and degrade to ``UNKNOWN`` verdicts instead of
  hanging; a budget never changes an answer, only whether one is given.

Both are opt-in: every instrumented API accepts ``recorder=None`` /
``budget=None`` and falls back to a shared no-op
:data:`~repro.instrument.recorder.NULL_RECORDER`, keeping the hot paths
free of instrumentation overhead when disabled.
"""

from .budget import Budget, BudgetExhausted
from .logs import JsonLogFormatter, configure_logging, get_logger
from .metrics import (
    METRICS_SCHEMA,
    Histogram,
    to_prometheus_text,
    validate_metrics_report,
)
from .phases import PHASE_REGISTRY
from .profiling import maybe_profile
from .progress import (
    PROGRESS_SCHEMA,
    ProgressTracker,
    estimate_eta_band,
    format_heartbeat,
    latest_heartbeat,
    snapshot_sink,
    validate_progress,
)
from .recorder import NULL_RECORDER, Recorder, STATS_SCHEMA
from .tracing import (
    TRACE_SCHEMA,
    TraceContext,
    to_chrome_trace,
    to_collapsed_stacks,
    validate_trace_report,
)

__all__ = [
    "Budget",
    "BudgetExhausted",
    "Histogram",
    "JsonLogFormatter",
    "METRICS_SCHEMA",
    "NULL_RECORDER",
    "PHASE_REGISTRY",
    "PROGRESS_SCHEMA",
    "ProgressTracker",
    "Recorder",
    "STATS_SCHEMA",
    "TRACE_SCHEMA",
    "TraceContext",
    "configure_logging",
    "estimate_eta_band",
    "format_heartbeat",
    "get_logger",
    "latest_heartbeat",
    "maybe_profile",
    "snapshot_sink",
    "to_chrome_trace",
    "to_collapsed_stacks",
    "to_prometheus_text",
    "validate_metrics_report",
    "validate_progress",
    "validate_trace_report",
]
