"""Cooperative resource budgets.

A :class:`Budget` bounds a run along three axes — wall-clock seconds,
SAT conflicts, and proof-store clauses — without any asynchronous
machinery: components *consult* the budget at natural checkpoints (the
solver once per conflict and periodically between decisions, the sweep
engine before each candidate SAT call, the proof checker every few
hundred clauses) and wind down cleanly when it reports exhaustion.

Two invariants make budgets safe to sprinkle anywhere:

* **Soundness** — exhaustion only ever converts an answer into
  ``UNKNOWN`` / ``equivalent=None``. Work already completed (merged
  classes, recorded lemmas, the proof store) remains valid and
  reusable; a later call with a fresh, larger budget picks up where the
  run left off.
* **Stickiness** — once :meth:`Budget.exhausted_reason` has reported a
  reason it keeps reporting it, so a multi-layer engine unwinds
  deterministically instead of re-deciding per layer.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional


def non_negative(value: Any, kinds: Any = (int, float)) -> bool:
    """True when *value* is a *kinds* number >= 0 (never a bool or NaN)."""
    return (
        isinstance(value, kinds) and not isinstance(value, bool)
        and value >= 0
    )


def check_limit(name: str, value: Any, kinds: Any = (int, float)) -> None:
    """The one rule for a limit: None, or a non-negative *kinds* number
    (pass ``int`` for a conflict or clause count); never a bool or NaN.

    Raises:
        ValueError: naming *name* and the rejected *value*.
    """
    if value is not None and not non_negative(value, kinds):
        raise ValueError("%r must be a non-negative %s or null, not %r"
                         % (name, "int" if kinds is int else "number", value))


class BudgetExhausted(Exception):
    """Raised by components that cannot return ``UNKNOWN`` in-band.

    Carries the budget's exhaustion reason string (``"time"``,
    ``"conflicts"`` or ``"proof_clauses"``).
    """

    def __init__(self, reason: str) -> None:
        Exception.__init__(self, "budget exhausted (%s)" % reason)
        self.reason = reason


class Budget:
    """Wall-time / conflict / proof-clause budget, consulted cooperatively.

    Args:
        time_limit: wall-clock seconds from construction (None = no limit).
        conflict_limit: total SAT conflicts across all solve calls
            charged to this budget (None = no limit).
        proof_clause_limit: proof-store size ceiling (None = no limit).
        clock: monotonic time source (overridable for tests).

    Raises:
        ValueError: when a limit breaks :func:`check_limit`.
    """

    def __init__(
        self,
        time_limit: Optional[float] = None,
        conflict_limit: Optional[int] = None,
        proof_clause_limit: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        check_limit("time_limit", time_limit)
        check_limit("conflict_limit", conflict_limit, int)
        check_limit("proof_clause_limit", proof_clause_limit, int)
        self.time_limit = time_limit
        self.conflict_limit = conflict_limit
        self.proof_clause_limit = proof_clause_limit
        self._clock = clock
        self._start = clock()
        self.conflicts = 0
        self.proof_clauses = 0
        self._reason: Optional[str] = None

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------

    def on_conflict(self, n: int = 1) -> None:
        """Charge *n* SAT conflicts."""
        self.conflicts += n

    def note_proof_size(self, size: int) -> None:
        """Record the current proof-store size (monotone max)."""
        if size > self.proof_clauses:
            self.proof_clauses = size

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def elapsed_seconds(self) -> float:
        """Seconds since the budget was created."""
        return self._clock() - self._start

    def exhausted_reason(self) -> Optional[str]:
        """``None`` while within budget, else a sticky reason string."""
        if self._reason is not None:
            return self._reason
        if (self.conflict_limit is not None
                and self.conflicts >= self.conflict_limit):
            self._reason = "conflicts"
        elif (self.proof_clause_limit is not None
                and self.proof_clauses >= self.proof_clause_limit):
            self._reason = "proof_clauses"
        elif (self.time_limit is not None
                and self.elapsed_seconds() >= self.time_limit):
            self._reason = "time"
        return self._reason

    @property
    def exhausted(self) -> bool:
        """True once any limit has been hit (sticky)."""
        return self.exhausted_reason() is not None

    def check(self) -> None:
        """Raise :class:`BudgetExhausted` when the budget is spent."""
        reason = self.exhausted_reason()
        if reason is not None:
            raise BudgetExhausted(reason)

    def remaining_conflicts(self) -> Optional[int]:
        """Conflicts left (None when unlimited; never negative)."""
        if self.conflict_limit is None:
            return None
        return max(0, self.conflict_limit - self.conflicts)

    def remaining_seconds(self) -> Optional[float]:
        """Seconds left (None when unlimited; never negative)."""
        if self.time_limit is None:
            return None
        return max(0.0, self.time_limit - self.elapsed_seconds())

    def as_dict(self) -> Dict[str, Any]:
        """Status block embedded in the ``repro-stats/1`` report."""
        return {
            "time_limit": self.time_limit,
            "conflict_limit": self.conflict_limit,
            "proof_clause_limit": self.proof_clause_limit,
            "conflicts": self.conflicts,
            "proof_clauses": self.proof_clauses,
            "elapsed_seconds": self.elapsed_seconds(),
            "exhausted": self.exhausted_reason(),
        }

    def __repr__(self) -> str:
        return (
            "Budget(time_limit=%r, conflict_limit=%r, proof_clause_limit=%r,"
            " exhausted=%r)"
            % (self.time_limit, self.conflict_limit, self.proof_clause_limit,
               self.exhausted_reason())
        )
