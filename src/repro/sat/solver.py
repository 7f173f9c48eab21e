"""A CDCL SAT solver with resolution-proof logging, its search in C.

The solver follows the MiniSat architecture: two-watched-literal
propagation with blocker literals, first-UIP conflict analysis with
(locally) minimized learned clauses, VSIDS branching with phase saving,
Luby restarts, and activity-based learned-clause deletion.  The public
interface speaks DIMACS integers.

:class:`Solver` is a thin Python class over ``Core``, a type of the C
module ``propagate.c`` (built on first import by :mod:`repro.native`).
The core owns the whole solver state as C arrays: a flat clause arena
(each clause's proof id, activity, header and literals, addressed by its
*ref*), per-literal values and watch lists, per-variable levels, reasons,
phases and activities, the ``(-activity, var)`` branching heap, the
trail and the clause lists.  ``add_clause`` and a whole solve call run
there; the core calls back into Python only to log a clause, charge a
budget, tick live progress and read the clock.  Tests see the state
through read-only snapshots (``_watches``, ``_heap``, ``_activity`` and
the like, each a fresh plain list).  A host that cannot build the module
runs :class:`~repro.sat.reference.ReferenceSolver` as ``Solver`` instead
(one warning on the ``repro.sat`` logger).

The C search makes none of its own decisions: watch-list order, literal
order inside clauses, bump order, heap order and tie-breaks replicate the
reference implementation (:mod:`repro.sat.reference`) exactly, so search
trajectories, and therefore emitted resolution proofs, are bit-identical.
See docs/performance.md for the rules that keep it so and the measured
effect.

What distinguishes the solver is *proof logging*: when constructed with a
:class:`~repro.proof.store.ProofStore`, every original clause is registered
as an axiom and every learned clause is registered together with the
trivial resolution chain that conflict analysis performed to produce it.
Final-conflict analysis under assumptions likewise emits a derived clause
over the negated assumptions.  A refuted instance therefore leaves behind a
complete, independently checkable resolution refutation; an instance
refuted *under assumptions* leaves a derived clause usable as a premise by
later solving episodes — the mechanism the equivalence-checking engine
builds on.

Incremental use: variables and clauses may be added between :meth:`solve`
calls; learned clauses and their proofs persist.
"""

from .. import native
from ..instrument import NULL_RECORDER, get_logger
from .reference import (
    SAT,
    UNKNOWN,
    UNSAT,
    ReferenceSolver,
    SolveResult,
    SolverStats,
    _solve,
    luby,
)

__all__ = [
    "SAT", "UNSAT", "UNKNOWN", "Solver", "SolveResult", "SolverStats",
    "luby", "propagate_kernel",
]

_KERNEL = native.load(  # None: this host cannot build propagate.c
    "repro.sat._propagate", get_logger("sat"),
    "native search kernel unavailable, running the Python ReferenceSolver",
)


def propagate_kernel():
    """Which search :class:`Solver` runs: ``"native"`` (the C search of
    ``propagate.c``) or ``"python"`` (:class:`ReferenceSolver`)."""
    return "python" if Solver is ReferenceSolver else "native"


class Solver(object if _KERNEL is None else _KERNEL.Core):
    """CDCL solver over DIMACS-integer literals.

    Args:
        proof: optional :class:`~repro.proof.store.ProofStore` receiving
            axioms and learned-clause derivations.
        restart_base: conflicts per Luby restart unit.
        var_decay: VSIDS decay factor.
        clause_decay: learned-clause activity decay factor.
        recorder: optional :class:`~repro.instrument.recorder.Recorder`
            receiving per-solve phase timings and counters.
        budget: optional :class:`~repro.instrument.budget.Budget`
            consulted once per conflict (and periodically between
            decisions); an exhausted budget makes :meth:`solve` return
            ``UNKNOWN`` with the solver left fully reusable.
    """

    def __init__(self, proof=None, restart_base=100, var_decay=0.95,
                 clause_decay=0.999, recorder=None, budget=None):
        super().__init__(restart_base, var_decay, clause_decay)
        self.proof = proof
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.budget = budget
        self.stats = SolverStats()
        # One int per proof id, which every chain the core logs shares
        # (the core keeps no Python object between calls).
        self._ids = []

    _widx = staticmethod(ReferenceSolver._widx)

    solve = _solve

    def _solve_loop(self, assumptions, assumption_set, max_conflicts,
                    budget, timing, clock, progress=None):
        """One solve call in the core; it checks the assumptions again."""
        return SolveResult(*self._search(
            assumptions, max_conflicts, budget, progress,
            clock if timing else None, self._ids,
        ))


if _KERNEL is None:
    # The one Python search serves where the C search cannot be built.
    Solver = ReferenceSolver  # noqa: F811
