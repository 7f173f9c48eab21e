"""Live progress heartbeats for long solver and sweep runs.

A submitted equivalence check can disappear into a SAT run for minutes
with nothing between ``running`` and the final verdict. This module
adds the missing signal: a :class:`ProgressTracker` attached to a
:class:`~repro.instrument.recorder.Recorder` samples the search
counters at the hot path's existing checkpoints and emits periodic
``repro-progress/1`` heartbeat documents — conflicts / decisions /
propagations deltas and rates, restart count, sweep wave and
candidate-class counts, the fraction of the cooperative budget already
consumed, and, when a budget is attached, an ETA band extrapolated
from that fraction.

Two contracts shape the design:

* **Opt-in, like everything else in this package.** Progress only
  flows when a tracker is attached to an *enabled* recorder;
  ``NULL_RECORDER`` runs never construct heartbeats and pay only the
  existing ``rec.enabled`` check the hot loops already perform.
* **Observe, never perturb.** The tracker only *reads* search
  statistics; it never feeds anything back into the solver, so the
  search trajectory — and therefore the emitted resolution proof — is
  byte-identical with and without progress enabled (the differential
  suite asserts this). Emission failures are swallowed: a broken sink
  must not break a proof.

The tick cost is kept off the hot path's shoulders by a countdown:
only every :data:`TICKS_PER_CLOCK_CHECK` calls does :meth:`~
ProgressTracker.tick` read the clock, and only after
``interval_seconds`` have passed does it build a document. Nothing
gates the enabled tick path's cost; the <3% budget that
``tests/test_instrument.py`` asserts is for the disabled hooks only.

The ETA band needs a budget: remaining time is extrapolated linearly
from the budget fraction already consumed, and the band tightens as the
fraction grows. Without a budget no band is given (``eta_seconds`` is
null); a band calibrated on early search statistics, after Semenov et
al. (arXiv 2210.01484), is not implemented.
"""

from __future__ import annotations

import json
import os
import time
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Tuple,
)

from ..analyze.schemas import PROGRESS_SCHEMA as PROGRESS_SCHEMA  # registry
from .budget import Budget

#: Default seconds between heartbeats. Coarse enough that even a
#: file-writing sink is noise, fine enough for a live dashboard.
DEFAULT_INTERVAL = 0.25

#: Hot-loop ticks between clock reads. The solver ticks once per
#: conflict; at a typical 10k–100k conflicts/second this checks the
#: clock a few hundred times per second at most.
TICKS_PER_CLOCK_CHECK = 64

#: Below this age no ETA is ventured — the signal is pure noise.
MIN_ETA_ELAPSED = 0.05

#: Sink type: receives one finished heartbeat document.
ProgressSink = Callable[[Dict[str, Any]], None]

#: Counter names sampled from the search statistics, in emission order.
COUNTER_NAMES: Tuple[str, ...] = (
    "conflicts", "decisions", "propagations", "restarts", "learned",
)


class SearchStats(Protocol):
    """Duck type of the solver's statistics block (read-only here)."""

    conflicts: int
    decisions: int
    propagations: int
    restarts: int
    learned: int


def estimate_eta_band(
    elapsed: float,
    budget_fraction: Optional[float] = None,
) -> Optional[Tuple[float, float]]:
    """Remaining-time band ``(low, high)`` in seconds.

    Args:
        elapsed: seconds the search has already run.
        budget_fraction: fraction of the attached budget consumed
            (``None`` when no budget is attached).

    Returns:
        ``(low, high)`` seconds remaining, or ``None`` when no budget
        fraction is known or the run is too young to say anything
        (:data:`MIN_ETA_ELAPSED`).
    """
    if (elapsed < MIN_ETA_ELAPSED or budget_fraction is None
            or budget_fraction <= 0.0):
        return None
    fraction = min(1.0, budget_fraction)
    if fraction >= 1.0:
        return (0.0, 0.0)
    # Linear extrapolation from the consumed fraction; the spread
    # collapses toward x1 as the budget nears exhaustion.
    remaining = elapsed * (1.0 - fraction) / fraction
    spread = 1.0 + 2.0 * (1.0 - fraction)
    return (remaining / spread, remaining * spread)


class ProgressTracker:
    """Samples search counters and emits rate-limited heartbeats.

    Attach one to a :class:`~repro.instrument.recorder.Recorder` via
    ``recorder.progress``; the solver and sweep hot paths pick it up
    from there (only when ``recorder.enabled``) and call :meth:`tick`
    at their existing checkpoints.

    Args:
        sink: callable receiving each heartbeat document. Exceptions
            it raises are swallowed (counted in ``dropped``).
        interval_seconds: minimum seconds between heartbeats.
        budget: optional :class:`Budget` whose consumed fraction feeds
            the heartbeat and the ETA band.
        clock: monotonic time source (overridable for tests).
        meta: optional static block copied into every heartbeat.
        ticks_per_check: hot-loop ticks between clock reads.
    """

    def __init__(
        self,
        sink: ProgressSink,
        interval_seconds: float = DEFAULT_INTERVAL,
        budget: Optional[Budget] = None,
        clock: Callable[[], float] = time.monotonic,
        meta: Optional[Dict[str, Any]] = None,
        ticks_per_check: int = TICKS_PER_CLOCK_CHECK,
    ) -> None:
        self._sink = sink
        self.interval_seconds = interval_seconds
        self._budget = budget
        self._clock = clock
        self._start = clock()
        self._meta: Dict[str, Any] = dict(meta or {})
        self._ticks_per_check = max(1, ticks_per_check)
        self._countdown = self._ticks_per_check
        self._last_emit = self._start
        self._last_counters: Dict[str, int] = {}
        self.seq = 0
        self.ticks = 0
        self.dropped = 0
        #: Current activity label carried by heartbeats ("solve" for a
        #: bare SAT run, "sweep" while the sweep engine drives).
        self.phase = "solve"
        # Sweep-side gauges, updated by the sweep engine between SAT
        # calls; plain attribute writes so the per-node cost is nil.
        self._sweep: Optional[Dict[str, int]] = None

    # ------------------------------------------------------------------
    # Hot-path entry points
    # ------------------------------------------------------------------

    def tick(self, stats: SearchStats) -> None:
        """Cheap checkpoint: maybe read the clock, maybe emit.

        Called by the solver once per conflict (and periodically
        between decisions). The common case is one integer decrement.
        """
        self.ticks += 1
        self._countdown -= 1
        if self._countdown > 0:
            return
        self._countdown = self._ticks_per_check
        now = self._clock()
        if now - self._last_emit < self.interval_seconds:
            return
        self.emit(stats, now)

    def update_sweep(
        self,
        wave: int,
        nodes_processed: int,
        nodes_total: int,
        classes: int,
    ) -> None:
        """Record sweep-side gauges (wave and candidate-class counts).

        Attribute writes only — the sweep loop may call this per node.
        """
        self._sweep = {
            "wave": wave,
            "nodes_processed": nodes_processed,
            "nodes_total": nodes_total,
            "classes": classes,
        }

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def budget_fraction(self) -> Optional[float]:
        """Largest consumed fraction across the budget's axes."""
        budget = self._budget
        if budget is None:
            return None
        fractions: List[float] = []
        if budget.time_limit is not None and budget.time_limit > 0:
            fractions.append(budget.elapsed_seconds() / budget.time_limit)
        if budget.conflict_limit is not None and budget.conflict_limit > 0:
            fractions.append(budget.conflicts / budget.conflict_limit)
        if (budget.proof_clause_limit is not None
                and budget.proof_clause_limit > 0):
            fractions.append(
                budget.proof_clauses / budget.proof_clause_limit
            )
        if not fractions:
            return None
        return min(1.0, max(fractions))

    def emit(self, stats: SearchStats, now: Optional[float] = None) -> None:
        """Build and deliver one heartbeat unconditionally."""
        if now is None:
            now = self._clock()
        elapsed = now - self._start
        counters: Dict[str, int] = {
            "conflicts": stats.conflicts,
            "decisions": stats.decisions,
            "propagations": stats.propagations,
            "restarts": stats.restarts,
            "learned": stats.learned,
        }
        deltas = {
            name: counters[name] - self._last_counters.get(name, 0)
            for name in COUNTER_NAMES
        }
        window = max(1e-9, now - self._last_emit)
        rates = {
            name: deltas[name] / window for name in COUNTER_NAMES
        }
        fraction = self.budget_fraction()
        eta = estimate_eta_band(elapsed, fraction)
        self.seq += 1
        document: Dict[str, Any] = {
            "schema": PROGRESS_SCHEMA,
            "seq": self.seq,
            "elapsed_seconds": elapsed,
            "phase": self.phase,
            "counters": counters,
            "deltas": deltas,
            "rates": rates,
            "budget_fraction": fraction,
            "eta_seconds": list(eta) if eta is not None else None,
        }
        if self._sweep is not None:
            document["sweep"] = dict(self._sweep)
        if self._meta:
            document["meta"] = dict(self._meta)
        self._last_emit = now
        self._last_counters = counters
        try:
            self._sink(document)
        except Exception:
            # Observe, never perturb: a broken sink (full disk, closed
            # pipe) must not abort the proof run it is watching.
            self.dropped += 1


def validate_progress(document: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless *document* is a well-formed
    ``repro-progress/1`` heartbeat."""
    if not isinstance(document, dict):
        raise ValueError("progress document must be a dict")
    if document.get("schema") != PROGRESS_SCHEMA:
        raise ValueError(
            "schema must be %r, got %r"
            % (PROGRESS_SCHEMA, document.get("schema"))
        )
    for key in ("seq", "elapsed_seconds", "phase", "counters"):
        if key not in document:
            raise ValueError("missing required key %r" % key)
    if not isinstance(document["seq"], int) or document["seq"] < 1:
        raise ValueError("seq must be a positive integer")
    if not isinstance(document["counters"], dict):
        raise ValueError("counters must be a dict")
    for name, value in document["counters"].items():
        if not isinstance(value, int) or value < 0:
            raise ValueError("counter %r must be a non-negative int" % name)
    eta = document.get("eta_seconds")
    if eta is not None:
        if (not isinstance(eta, (list, tuple)) or len(eta) != 2
                or eta[0] > eta[1]):
            raise ValueError("eta_seconds must be a [low, high] pair")


# ---------------------------------------------------------------------------
# Spool files — how heartbeats cross the worker-process boundary
# ---------------------------------------------------------------------------


def snapshot_sink(path: str) -> ProgressSink:
    """Sink keeping exactly the newest heartbeat in the file *path*.

    Each heartbeat is written to a temporary file beside *path* and
    renamed over it, so a concurrent reader sees the previous document
    or the new one, never a partial write.
    """
    temp_path = path + ".tmp"

    def emit(document: Dict[str, Any]) -> None:
        with open(temp_path, "w") as handle:
            json.dump(document, handle, separators=(",", ":"))
        os.replace(temp_path, path)

    return emit


def latest_heartbeat(path: str) -> Optional[Dict[str, Any]]:
    """The heartbeat in a spool file, or ``None`` before the first."""
    try:
        with open(path) as handle:
            document = json.load(handle)
    except OSError:
        return None
    return document if isinstance(document, dict) else None


def remove_spool(path: str) -> None:
    """Best-effort removal of a heartbeat spool file."""
    try:
        os.unlink(path)
    except OSError:
        pass


# ---------------------------------------------------------------------------
# Rendering (repro-client heartbeat lines)
# ---------------------------------------------------------------------------


def progress_bar(fraction: Optional[float], width: int = 20) -> str:
    """ASCII progress bar; indeterminate runs get a spinner-less rule."""
    if fraction is None:
        return "-" * width
    fraction = max(0.0, min(1.0, fraction))
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


def format_heartbeat(document: Dict[str, Any], width: int = 20) -> str:
    """One-line human rendering of a heartbeat document."""
    counters = document.get("counters") or {}
    rates = document.get("rates") or {}
    fraction = document.get("budget_fraction")
    parts = [
        "%-5s" % document.get("phase", "?"),
        "%7.1fs" % float(document.get("elapsed_seconds", 0.0)),
        "[%s]" % progress_bar(
            float(fraction) if fraction is not None else None, width
        ),
        "conflicts=%d (%.0f/s)" % (
            int(counters.get("conflicts", 0)),
            float(rates.get("conflicts", 0.0)),
        ),
        "decisions=%d" % int(counters.get("decisions", 0)),
        "restarts=%d" % int(counters.get("restarts", 0)),
    ]
    sweep = document.get("sweep")
    if sweep:
        parts.append(
            "wave=%d classes=%d nodes=%d/%d" % (
                int(sweep.get("wave", 0)),
                int(sweep.get("classes", 0)),
                int(sweep.get("nodes_processed", 0)),
                int(sweep.get("nodes_total", 0)),
            )
        )
    eta = document.get("eta_seconds")
    if eta:
        parts.append("eta %.1f-%.1fs" % (float(eta[0]), float(eta[1])))
    return " ".join(parts)
