"""Fixed-bucket histograms and their Prometheus rendering.

A recorder's phases answer "how long did phase X take *this run*"; its
histograms (:meth:`~repro.instrument.recorder.Recorder.observe`)
answer the distributional questions a long-lived service gets asked —
p50/p99 job latency, queue-wait spread, how heavy the solver workload
per job is. Histograms use **fixed buckets** (Prometheus-style
cumulative-on-export counters) so that:

* observation is O(log buckets) with no per-sample storage — safe for a
  server that lives for weeks;
* two histograms with the same bucket bounds **merge by addition**,
  which is how a Prometheus server aggregates the scrapes of several
  processes, so quantiles survive aggregation;
* quantiles are estimated the same way ``histogram_quantile`` does it:
  linear interpolation inside the bucket holding the target rank.

:meth:`~repro.instrument.recorder.Recorder.metrics_report` serializes
them to the ``repro-metrics/1`` schema::

    {
      "schema": "repro-metrics/1",
      "histograms": {
        "service/job-seconds": {
          "unit": "seconds",
          "buckets": [0.001, 0.005, ...],      # finite upper bounds
          "counts":  [0, 3, ...],              # len(buckets)+1, +Inf last
          "count": 17, "sum": 4.21,
          "p50": 0.11, "p90": 0.52, "p99": 1.8
        }
      }
    }

:func:`to_prometheus_text` renders a metrics document (plus, optionally,
the counters and numeric gauges of a ``repro-stats/1`` report) in the
Prometheus text exposition format served by ``repro-serve``'s
``/metrics`` endpoint and ``metrics`` protocol verb.
"""

from __future__ import annotations

import bisect
from typing import (
    TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple,
)

from ..analyze.schemas import METRICS_SCHEMA as METRICS_SCHEMA  # registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .recorder import Recorder

#: Default bounds for latency-shaped observations (seconds).
TIME_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

#: Default bounds for count-shaped observations (conflicts, clauses).
COUNT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
    2500.0, 5000.0, 10000.0, 25000.0, 50000.0, 100000.0, 250000.0,
    500000.0, 1000000.0,
)

#: Quantiles published in reports.
REPORT_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50), ("p90", 0.90), ("p99", 0.99),
)


class Histogram:
    """One fixed-bucket histogram (not thread-safe on its own; the
    owning :class:`~repro.instrument.recorder.Recorder` serializes
    access).

    Args:
        name: metric name (``/``-separated like phase names).
        buckets: strictly increasing finite upper bounds; an implicit
            ``+Inf`` bucket is always appended.
        unit: unit suffix for Prometheus rendering (``"seconds"``,
            ``"clauses"``, ...).
    """

    __slots__ = ("name", "unit", "buckets", "counts", "count", "sum")

    def __init__(
        self, name: str, buckets: Sequence[float], unit: str = "",
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram %r needs at least one bucket" % name)
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError(
                "histogram %r bounds must be strictly increasing" % name
            )
        self.name = name
        self.unit = unit
        self.buckets = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect.bisect_left(self.buckets, float(value))] += 1
        self.count += 1
        self.sum += float(value)

    def quantile(self, q: float) -> float:
        """Estimated value at quantile *q* (0..1).

        Linear interpolation within the bucket containing the target
        rank, Prometheus ``histogram_quantile`` style; observations in
        the ``+Inf`` bucket answer the largest finite bound. Returns
        0.0 for an empty histogram.
        """
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if index >= len(self.buckets):
                    return self.buckets[-1]
                lower = self.buckets[index - 1] if index else 0.0
                upper = self.buckets[index]
                within = (rank - (cumulative - bucket_count)) / bucket_count
                return lower + (upper - lower) * min(max(within, 0.0), 1.0)
        return self.buckets[-1]

    def as_dict(self) -> Dict[str, Any]:
        """The histogram's block in a ``repro-metrics/1`` document."""
        block: Dict[str, Any] = {
            "unit": self.unit,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
        }
        for label, q in REPORT_QUANTILES:
            block[label] = self.quantile(q)
        return block


def validate_metrics_report(document: Any) -> Dict[str, Any]:
    """Check *document* against the ``repro-metrics/1`` schema.

    Raises ``ValueError`` with the first problem found; returns the
    document unchanged when valid.
    """
    if not isinstance(document, dict):
        raise ValueError("metrics document must be a dict")
    if document.get("schema") != METRICS_SCHEMA:
        raise ValueError("bad schema tag %r" % (document.get("schema"),))
    histograms = document.get("histograms")
    if not isinstance(histograms, dict):
        raise ValueError("histograms must be a dict")
    for name, block in histograms.items():
        if not isinstance(block, dict):
            raise ValueError("histogram %r must be a dict" % name)
        for key in ("buckets", "counts", "count", "sum"):
            if key not in block:
                raise ValueError("histogram %r missing key %r" % (name, key))
        buckets = block["buckets"]
        counts = block["counts"]
        if not isinstance(buckets, list) or not buckets:
            raise ValueError("histogram %r has no buckets" % name)
        if any(b >= c for b, c in zip(buckets, buckets[1:])):
            raise ValueError(
                "histogram %r bounds must be strictly increasing" % name
            )
        if not isinstance(counts, list) or len(counts) != len(buckets) + 1:
            raise ValueError(
                "histogram %r needs len(buckets)+1 counts" % name
            )
        if any((not isinstance(c, int)) or c < 0 for c in counts):
            raise ValueError(
                "histogram %r counts must be non-negative ints" % name
            )
        if block["count"] != sum(counts):
            raise ValueError(
                "histogram %r count %r != sum of bucket counts %d"
                % (name, block["count"], sum(counts))
            )
    return document


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------


def prometheus_name(name: str, suffix: str = "") -> str:
    """A ``repro-stats``/``repro-metrics`` name as a Prometheus metric.

    ``service/job-seconds`` becomes ``repro_service_job_seconds``;
    *suffix* (``"total"``, ``"bucket"``...) is appended with ``_``.
    """
    base = "repro_" + "".join(
        ch if ch.isalnum() else "_" for ch in name
    ).strip("_")
    while "__" in base:
        base = base.replace("__", "_")
    return base + ("_" + suffix if suffix else "")


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return "%d" % int(value)
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    """Prometheus label-value escaping (backslash, quote, newline)."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def to_prometheus_text(
    metrics_document: Dict[str, Any],
    stats_report: Optional[Dict[str, Any]] = None,
    build_info: Optional[Dict[str, str]] = None,
) -> str:
    """Render metrics (plus optional stats counters/gauges) for scraping.

    Histograms become standard Prometheus histograms with cumulative
    ``_bucket{le="..."}`` series, ``_sum`` and ``_count``. When a
    ``repro-stats/1`` *stats_report* is given, its counters are
    rendered as ``..._total`` counters and its numeric gauges as
    gauges (non-numeric gauges such as verdict strings are skipped —
    Prometheus samples are numbers). A *build_info* mapping becomes
    the conventional constant-1 ``repro_build_info`` gauge whose
    labels carry the version/component strings.
    """
    validate_metrics_report(metrics_document)
    lines: List[str] = []
    if build_info:
        labels = ",".join(
            '%s="%s"' % (key, _escape_label_value(str(value)))
            for key, value in sorted(build_info.items())
        )
        lines.append(
            "# HELP repro_build_info Build and version information."
        )
        lines.append("# TYPE repro_build_info gauge")
        lines.append("repro_build_info{%s} 1" % labels)
    for name, block in sorted(metrics_document["histograms"].items()):
        metric = prometheus_name(name)
        lines.append("# HELP %s repro histogram %s" % (metric, name))
        lines.append("# TYPE %s histogram" % metric)
        cumulative = 0
        for bound, count in zip(block["buckets"], block["counts"]):
            cumulative += count
            lines.append('%s_bucket{le="%s"} %d'
                         % (metric, _format_value(float(bound)), cumulative))
        cumulative += block["counts"][-1]
        lines.append('%s_bucket{le="+Inf"} %d' % (metric, cumulative))
        lines.append("%s_sum %s" % (metric, _format_value(block["sum"])))
        lines.append("%s_count %d" % (metric, block["count"]))
    if stats_report is not None:
        counters: Dict[str, int] = stats_report.get("counters", {})
        for name, value in sorted(counters.items()):
            metric = prometheus_name(name, "total")
            lines.append("# TYPE %s counter" % metric)
            lines.append("%s %d" % (metric, value))
        gauges: Dict[str, Any] = stats_report.get("gauges", {})
        for name, value in sorted(gauges.items()):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            metric = prometheus_name(name)
            lines.append("# TYPE %s gauge" % metric)
            lines.append("%s %s" % (metric, _format_value(float(value))))
    return "\n".join(lines) + "\n"


def observe_stats_workload(
    recorder: "Recorder", stats_report: Dict[str, Any],
) -> None:
    """Fold one job's worker report into distribution histograms.

    One completed job's ``repro-stats/1`` report contributes a single
    observation per metric — its ``service/check`` time, solver
    conflicts and proof clauses — so the histograms answer "how heavy
    is a typical job", not "how many conflicts total" (the counters
    already do that). A checked job that made no SAT call (a pair the
    sweep refuted by simulation alone) has no ``solver/conflicts``
    counter and counts as 0 conflicts. Other metrics the report lacks
    are not observed.
    """
    check = stats_report.get("phases", {}).get("service/check")
    if check is not None:
        recorder.observe("service/check-seconds", float(check["seconds"]))
    counters = stats_report.get("counters", {})
    if check is not None or "solver/conflicts" in counters:
        recorder.observe(
            "solver/conflicts", float(counters.get("solver/conflicts", 0)),
            buckets=COUNT_BUCKETS, unit="conflicts",
        )
    gauges = stats_report.get("gauges", {})
    clauses: Any = gauges.get("proof/clauses", counters.get("proof/clauses"))
    if isinstance(clauses, (int, float)) and not isinstance(clauses, bool):
        recorder.observe(
            "proof/clauses", float(clauses),
            buckets=COUNT_BUCKETS, unit="clauses",
        )
