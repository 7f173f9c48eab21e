"""The one Python CDCL search, and the result types both solvers share.

:class:`ReferenceSolver` is the object-graph solver the flat-arena core
in :mod:`repro.sat.solver` replaced: per-clause ``_Clause`` records,
list-of-list watch tables, DIMACS literals end to end.  It has two
roles:

* **The oracle.**  The differential tests
  (``tests/test_solver_differential.py``,
  ``tests/test_propagate_kernel.py``) assert that the arena solver, whose
  state and search live in C (``propagate.c``), reproduces this solver's
  verdicts, models, statistics, learnt clauses and resolution chains bit
  for bit.
* **The fallback.**  Where the C search cannot be built,
  ``repro.sat.solver.Solver`` *is* this class, so it serves production
  use: it validates assumptions, ticks live progress and records the
  same ``solver/*`` timings and counters as the arena solver.

``SAT``/``UNSAT``/``UNKNOWN``, :class:`SolverStats`, :class:`SolveResult`
and :func:`luby` live here and are re-exported by
:mod:`repro.sat.solver`, so a result from either solver is
interchangeable downstream.
"""

import heapq
import time

from ..instrument import NULL_RECORDER
from ..proof.store import ProofError

__all__ = [
    "SAT", "UNSAT", "UNKNOWN", "ReferenceSolver", "SolveResult",
    "SolverStats", "luby",
]

SAT = True
UNSAT = False
UNKNOWN = None

#: The SolverStats counters each solve call adds to ``solver/<name>``.
_COUNTED = ("conflicts", "decisions", "propagations", "restarts",
            "learned", "deleted")


class SolverStats:
    """Counters accumulated across all solve calls."""

    def __init__(self):
        self.decisions = 0
        self.propagations = 0
        self.conflicts = 0
        self.restarts = 0
        self.learned = 0
        self.deleted = 0
        self.minimized_literals = 0

    def __repr__(self):
        return (
            "SolverStats(decisions=%d, propagations=%d, conflicts=%d, "
            "restarts=%d, learned=%d, deleted=%d)"
            % (
                self.decisions,
                self.propagations,
                self.conflicts,
                self.restarts,
                self.learned,
                self.deleted,
            )
        )


def luby(index):
    """The Luby restart sequence (1-based): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8..."""
    if index < 1:
        raise ValueError("luby index is 1-based")
    x = index - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


class SolveResult:
    """Outcome of one ``solve`` call.

    Attributes:
        status: ``SAT`` (True), ``UNSAT`` (False) or ``UNKNOWN`` (None).
        final_clause: on UNSAT, the derived clause over negated
            assumptions (empty tuple for unconditional refutation).
        proof_id: proof-store id of *final_clause* when proof logging.
    """

    def __init__(self, status, model, final_clause, proof_id):
        self.status = status
        self._model = model
        self.final_clause = final_clause
        self.proof_id = proof_id

    def __bool__(self):
        return self.status is SAT

    def model_value(self, lit):
        """Value (0/1) of *lit* in the model (SAT results only)."""
        if self.status is not SAT:
            raise ValueError("no model: solver result is not SAT")
        val = self._model[abs(lit)]
        if val == 0:
            val = -1  # unconstrained variable: pick false
        return 1 if (val > 0) == (lit > 0) else 0

    def model(self):
        """Model as a list of signed values indexed by variable."""
        if self.status is not SAT:
            raise ValueError("no model: solver result is not SAT")
        return list(self._model)

    def __repr__(self):
        names = {SAT: "SAT", UNSAT: "UNSAT", UNKNOWN: "UNKNOWN"}
        return "SolveResult(%s)" % names[self.status]


def _solve(self, assumptions=(), max_conflicts=None, budget=None):
    """Solve under *assumptions*.

    The ``solve`` method of both :class:`ReferenceSolver` and the arena
    ``Solver``: it checks the assumptions, runs the class's
    ``_solve_loop`` and records the call's ``solver/*`` timings and
    counters.

    Args:
        assumptions: literals assumed true for this call only.
        max_conflicts: per-call conflict cap (None = unlimited).
        budget: optional :class:`~repro.instrument.budget.Budget`
            overriding the instance budget for this call. Conflicts
            are charged per conflict and wall time is checked once
            per conflict and every 256 decisions; exhaustion returns
            ``UNKNOWN`` and leaves the solver reusable (a later call
            under a fresh budget continues from the same state).

    Returns:
        A :class:`SolveResult` with status ``SAT`` (model available),
        ``UNSAT`` (final clause + proof id available) or ``UNKNOWN``
        (conflict/time budget exhausted).

    Raises:
        ValueError: an assumption is 0, or two assumptions share a
            variable.
    """
    if budget is None:
        budget = self.budget
    assumptions = list(assumptions)
    seen_vars = set()
    for lit in assumptions:
        if lit == 0:
            raise ValueError("0 is not an assumption literal")
        if abs(lit) in seen_vars:
            raise ValueError(
                "duplicate or contradictory assumption variable %d"
                % abs(lit)
            )
        seen_vars.add(abs(lit))
    if self._unsat:
        return SolveResult(UNSAT, None, (), self._unsat_proof_id)
    for lit in assumptions:
        self.ensure_vars(abs(lit))
    assumption_set = set(assumptions)
    rec = self.recorder
    timing = rec.enabled
    # Live progress, on enabled recorders only: the tracker just
    # reads the stats block, so the search is the same either way.
    progress = rec.progress if timing else None
    clock = time.perf_counter
    solve_start = clock() if timing else 0.0
    stats = self.stats
    before = [getattr(stats, name) for name in _COUNTED]
    try:
        return self._solve_loop(
            assumptions, assumption_set, max_conflicts, budget,
            timing, clock, progress,
        )
    finally:
        if timing:
            # The loop stores its per-phase accumulators on the
            # instance so this flush sees them even on early return.
            propagate_s, analyze_s, restart_s = self._last_solve_phases
            rec.add_time("solver/solve", clock() - solve_start)
            rec.add_time("solver/propagate", propagate_s)
            rec.add_time("solver/analyze", analyze_s)
            rec.add_time("solver/restart", restart_s)
            for name, start in zip(_COUNTED, before):
                rec.count("solver/" + name, getattr(stats, name) - start)


class _Clause:
    """Internal clause record."""

    __slots__ = ("lits", "learnt", "activity", "proof_id")

    def __init__(self, lits, learnt, proof_id):
        self.lits = lits
        self.learnt = learnt
        self.activity = 0.0
        self.proof_id = proof_id

    def __repr__(self):
        return "_Clause(%r)" % (self.lits,)


class ReferenceSolver:
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
        self.proof = proof
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.budget = budget
        self.stats = SolverStats()
        self._restart_base = restart_base
        self._var_decay = var_decay
        self._clause_decay = clause_decay

        self.num_vars = 0
        self._assign = [0]          # per var: 0 unknown, 1 true, -1 false
        self._level = [0]           # per var: decision level of assignment
        self._reason = [None]       # per var: _Clause or None
        self._phase = [False]       # per var: saved phase
        self._activity = [0.0]      # per var: VSIDS activity
        self._watches = [[], []]    # per lit index: list of _Clause
        self._trail = []
        self._trail_lim = []        # trail positions of decisions
        self._qhead = 0
        self._heap = []             # lazy max-heap of (-activity, var)
        self._var_inc = 1.0
        self._cla_inc = 1.0
        self._clauses = []          # problem clauses
        self._learnts = []          # learned clauses
        self._unsat = False         # empty clause derived (global)
        self._unsat_proof_id = None
        self._seen = [False]
        self._max_learnts = 0
        self._last_solve_phases = (0.0, 0.0, 0.0)

    # ------------------------------------------------------------------
    # Variables and clauses
    # ------------------------------------------------------------------

    def new_var(self):
        """Allocate a fresh variable and return its (positive) index."""
        self.num_vars += 1
        self._assign.append(0)
        self._level.append(0)
        self._reason.append(None)
        self._phase.append(False)
        self._activity.append(0.0)
        self._watches.append([])
        self._watches.append([])
        self._seen.append(False)
        heapq.heappush(self._heap, (0.0, self.num_vars))
        return self.num_vars

    def ensure_vars(self, count):
        """Grow the variable table to at least *count* variables."""
        while self.num_vars < count:
            self.new_var()

    @staticmethod
    def _widx(lit):
        # Watch-list index of a literal: positives at even slots.
        return (lit << 1) if lit > 0 else ((-lit << 1) | 1)

    def value(self, lit):
        """Current value of *lit*: 1 true, -1 false, 0 unassigned."""
        val = self._assign[abs(lit)]
        return val if lit > 0 else -val

    def add_clause(self, lits, axiom=True, proof_id=None):
        """Add a problem clause.

        Args:
            lits: literals (duplicates allowed; tautologies are dropped).
            axiom: when proof logging, register the clause as an axiom.
                Pass ``False`` with an explicit *proof_id* to install an
                externally derived clause (a lemma) as a premise.
            proof_id: proof id of an externally derived clause.

        Returns:
            True when the solver is still consistent, False when adding
            this clause (at level 0) produced the empty clause.

        Raises:
            ValueError: a literal is 0.
        """
        if self._unsat:
            return False
        unique = set(lits)
        if 0 in unique:
            raise ValueError("literal 0 is not allowed in a clause")
        if any(-lit in unique for lit in unique):
            return True  # tautology: satisfied everywhere, skip
        clause = sorted(unique)
        for lit in clause:
            self.ensure_vars(abs(lit))
        if self.proof is not None and proof_id is None:
            if not axiom:
                raise ProofError("non-axiom clauses need an explicit proof_id")
            proof_id = self.proof.add_axiom(clause)
        if self.decision_level():
            self.cancel_until(0)
        if not clause:
            self._unsat = True
            self._unsat_proof_id = proof_id
            return False
        record = _Clause(list(clause), learnt=False, proof_id=proof_id)
        # Count non-false literals at level 0 to classify the clause.
        free = [lit for lit in clause if self.value(lit) >= 0]
        satisfied = any(self.value(lit) == 1 for lit in clause)
        if satisfied or len(free) >= 2:
            self._install_watches(record)
            self._clauses.append(record)
            return True
        if len(free) == 1:
            self._clauses.append(record)
            self._install_watches(record)
            self._enqueue(free[0], record)
            return self._propagate_toplevel()
        # All literals false at level 0: immediate refutation.
        self._record_level0_refutation(record)
        return False

    def _install_watches(self, record):
        lits = record.lits
        # Move two watchable literals to the front: prefer unassigned/true.
        order = sorted(range(len(lits)), key=lambda i: self.value(lits[i]),
                       reverse=True)
        if len(order) >= 2:
            i0, i1 = order[0], order[1]
            lits[0], lits[i0] = lits[i0], lits[0]
            if i1 == 0:
                i1 = i0
            lits[1], lits[i1] = lits[i1], lits[1]
            self._watches[self._widx(lits[0])].append(record)
            self._watches[self._widx(lits[1])].append(record)
        else:
            self._watches[self._widx(lits[0])].append(record)

    def _propagate_toplevel(self):
        conflict = self._propagate()
        if conflict is None:
            return True
        self._record_level0_refutation(conflict)
        return False

    def _record_level0_refutation(self, conflict):
        """Derive the empty clause from a level-0 conflict."""
        self._unsat = True
        if self.proof is None:
            return
        clause, chain = self._resolve_out(conflict, keep=lambda lit: False)
        if clause:
            raise ProofError("level-0 refutation left literals %r" % (clause,))
        if len(chain) == 1:
            self._unsat_proof_id = chain[0]
        else:
            self._unsat_proof_id = self.proof.add_derived((), chain)

    # ------------------------------------------------------------------
    # Assignment trail
    # ------------------------------------------------------------------

    def decision_level(self):
        """Current decision level."""
        return len(self._trail_lim)

    def _enqueue(self, lit, reason):
        var = abs(lit)
        self._assign[var] = 1 if lit > 0 else -1
        self._level[var] = self.decision_level()
        self._reason[var] = reason
        self._trail.append(lit)

    def _new_decision_level(self):
        self._trail_lim.append(len(self._trail))

    def cancel_until(self, level):
        """Undo all assignments above *level*."""
        if self.decision_level() <= level:
            return
        bound = self._trail_lim[level]
        for pos in range(len(self._trail) - 1, bound - 1, -1):
            lit = self._trail[pos]
            var = abs(lit)
            self._phase[var] = lit > 0
            self._assign[var] = 0
            self._reason[var] = None
            heapq.heappush(self._heap, (-self._activity[var], var))
        del self._trail[bound:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------

    def _propagate(self):
        """Unit propagation; returns a conflicting _Clause or None."""
        trail = self._trail
        watches = self._watches
        assign = self._assign
        while self._qhead < len(trail):
            lit = trail[self._qhead]
            self._qhead += 1
            self.stats.propagations += 1
            false_lit = -lit
            widx = self._widx(false_lit)
            watchers = watches[widx]
            if not watchers:
                continue
            keep = []
            conflict = None
            idx = 0
            count = len(watchers)
            while idx < count:
                record = watchers[idx]
                idx += 1
                lits = record.lits
                if lits[0] == false_lit:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                val0 = assign[first] if first > 0 else -assign[-first]
                if val0 == 1:
                    keep.append(record)
                    continue
                moved = False
                for pos in range(2, len(lits)):
                    cand = lits[pos]
                    val = assign[cand] if cand > 0 else -assign[-cand]
                    if val != -1:
                        lits[1], lits[pos] = lits[pos], lits[1]
                        watches[self._widx(cand)].append(record)
                        moved = True
                        break
                if moved:
                    continue
                keep.append(record)
                if val0 == -1:
                    conflict = record
                    keep.extend(watchers[idx:])
                    break
                self._enqueue(first, record)
            watches[widx] = keep
            if conflict is not None:
                self._qhead = len(trail)
                return conflict
        return None

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------

    def _bump_var(self, var):
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for v in range(1, self.num_vars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100
        heapq.heappush(self._heap, (-self._activity[var], var))

    def _bump_clause(self, record):
        record.activity += self._cla_inc
        if record.activity > 1e20:
            for rec in self._learnts:
                rec.activity *= 1e-20
            self._cla_inc *= 1e-20

    def _analyze(self, conflict):
        """First-UIP conflict analysis with proof logging.

        Returns ``(learnt_lits, backtrack_level, chain)`` where
        ``learnt_lits[0]`` is the asserting literal and *chain* is the
        trivial resolution chain deriving the clause (or None when not
        proof logging).

        Level-0 literals are dropped from the learned clause, as usual in
        CDCL; to keep the logged chain exact, every dropped literal is
        resolved away against the level-0 reason chain in a final
        elimination pass (see :meth:`_eliminate_level0`).
        """
        seen = self._seen
        level = self._level
        current_level = self.decision_level()
        logging = self.proof is not None
        chain = [conflict.proof_id] if logging else None
        zero_marked = set()
        learnt = []
        path_count = 0
        resolvent = conflict
        pos = len(self._trail) - 1
        uip = None
        while True:
            if resolvent.learnt:
                self._bump_clause(resolvent)
            start = 1 if resolvent is not conflict else 0
            lits = resolvent.lits
            for k in range(start, len(lits)):
                lit = lits[k]
                var = abs(lit)
                if seen[var]:
                    continue
                if level[var] == 0:
                    zero_marked.add(var)
                    continue
                seen[var] = True
                self._bump_var(var)
                if level[var] >= current_level:
                    path_count += 1
                else:
                    learnt.append(lit)
            # Pick the next trail literal to expand.
            while not seen[abs(self._trail[pos])]:
                pos -= 1
            uip = self._trail[pos]
            var = abs(uip)
            seen[var] = False
            pos -= 1
            path_count -= 1
            if path_count == 0:
                break
            resolvent = self._reason[var]
            if logging:
                chain.append((var, resolvent.proof_id))
        learnt_full = [-uip] + learnt
        learnt_full, chain = self._minimize(learnt_full, chain, zero_marked)
        if logging and zero_marked:
            self._eliminate_level0(zero_marked, chain)
        for lit in learnt_full:
            seen[abs(lit)] = False
        # Note: literals resolved away at the current level were already
        # unmarked during the walk; _minimize unmarks removed ones.
        if len(learnt_full) == 1:
            backtrack = 0
        else:
            # Find the second-highest level and move its literal to slot 1.
            best = 1
            for k in range(2, len(learnt_full)):
                if level[abs(learnt_full[k])] > level[abs(learnt_full[best])]:
                    best = k
            learnt_full[1], learnt_full[best] = learnt_full[best], learnt_full[1]
            backtrack = level[abs(learnt_full[1])]
        self._var_inc /= self._var_decay
        self._cla_inc /= self._clause_decay
        return learnt_full, backtrack, chain

    def _minimize(self, learnt, chain, zero_marked):
        """Local learned-clause minimization (self-subsuming resolution).

        A literal ``l`` (other than the asserting one) is redundant when
        every other literal of ``reason(~l)`` is already in the learned
        clause or assigned false at level 0. Each removal appends one
        resolution step to the chain; level-0 literals it drags in are
        queued on *zero_marked* for the final elimination pass, keeping
        the proof exact.
        """
        level = self._level
        reason = self._reason
        members = set(learnt)
        changed = True
        while changed:
            changed = False
            for k in range(len(learnt) - 1, 0, -1):
                lit = learnt[k]
                var = abs(lit)
                rec = reason[var]
                if rec is None:
                    continue
                others = [l for l in rec.lits if abs(l) != var]
                if not all(l in members or level[abs(l)] == 0 for l in others):
                    continue
                members.discard(lit)
                learnt.pop(k)
                self.stats.minimized_literals += 1
                self._seen[var] = False
                if chain is not None:
                    chain.append((var, rec.proof_id))
                for l in others:
                    if l not in members and level[abs(l)] == 0:
                        zero_marked.add(abs(l))
                changed = True
        return learnt, chain

    def _eliminate_level0(self, zero_marked, chain):
        """Append chain steps resolving away level-0 literals.

        Walks the level-0 trail segment in reverse, resolving each marked
        variable with its reason; side literals of those reasons (also at
        level 0) are marked transitively. Reverse trail order guarantees a
        variable's elimination step comes after every step that could have
        introduced its literal into the resolvent.
        """
        bound = self._trail_lim[0] if self._trail_lim else len(self._trail)
        for pos in range(bound - 1, -1, -1):
            var = abs(self._trail[pos])
            if var not in zero_marked:
                continue
            rec = self._reason[var]
            if rec is None:
                raise ProofError("level-0 variable %d has no reason" % var)
            chain.append((var, rec.proof_id))
            for lit in rec.lits:
                lvar = abs(lit)
                if lvar != var:
                    zero_marked.add(lvar)

    # ------------------------------------------------------------------
    # Learned clauses
    # ------------------------------------------------------------------

    def _record_learnt(self, lits, chain):
        proof_id = None
        if self.proof is not None:
            if len(chain) == 1:
                proof_id = chain[0]
            else:
                proof_id = self.proof.add_derived(lits, chain)
        record = _Clause(list(lits), learnt=True, proof_id=proof_id)
        self.stats.learned += 1
        if len(lits) >= 2:
            self._learnts.append(record)
            self._bump_clause(record)
            self._watches[self._widx(lits[0])].append(record)
            self._watches[self._widx(lits[1])].append(record)
        self._enqueue(lits[0], record)
        return record

    def _reduce_db(self):
        """Remove roughly half of the inactive, unlocked learned clauses."""
        learnts = self._learnts
        learnts.sort(key=lambda rec: rec.activity)
        locked = set()
        for var in range(1, self.num_vars + 1):
            rec = self._reason[var]
            if rec is not None and rec.learnt:
                locked.add(id(rec))
        keep = []
        to_delete = len(learnts) // 2
        deleted = 0
        for pos, rec in enumerate(learnts):
            if deleted < to_delete and id(rec) not in locked and len(rec.lits) > 2:
                self._detach(rec)
                deleted += 1
            else:
                keep.append(rec)
        self._learnts = keep
        self.stats.deleted += deleted

    def _detach(self, record):
        for lit in record.lits[:2]:
            watchers = self._watches[self._widx(lit)]
            try:
                watchers.remove(record)
            except ValueError:
                pass

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def _pick_branch_var(self):
        heap = self._heap
        activity = self._activity
        assign = self._assign
        while heap:
            neg_act, var = heapq.heappop(heap)
            if assign[var] == 0 and -neg_act == activity[var]:
                return var
        for var in range(1, self.num_vars + 1):
            if assign[var] == 0:
                return var
        return None

    # ------------------------------------------------------------------
    # Final-conflict analysis (assumptions)
    # ------------------------------------------------------------------

    def _resolve_out(self, start_clause, keep):
        """Resolve away every trail-assigned literal not selected by *keep*.

        Walks the trail backwards from the top, exactly like conflict
        analysis but across all decision levels. Literals for which
        ``keep(lit)`` is true (the negations of responsible assumptions)
        stay in the clause; decisions must all satisfy *keep*.

        Returns ``(clause_lits, chain)``.
        """
        seen = self._seen
        marked = []
        result = []
        chain = [start_clause.proof_id] if self.proof is not None else None
        # Mark only the *false* literals of the start clause: a true literal
        # (the propagated one, in final-conflict analysis) must survive into
        # the result rather than be resolved against its own reason.
        for lit in start_clause.lits:
            var = abs(lit)
            if self.value(lit) == -1 and not seen[var]:
                seen[var] = True
                marked.append(var)
        # Walk the full trail top-down.
        for pos in range(len(self._trail) - 1, -1, -1):
            trail_lit = self._trail[pos]
            var = abs(trail_lit)
            if not seen[var]:
                continue
            seen[var] = False
            reason = self._reason[var]
            if reason is None:
                # A decision (assumption): it must be kept.
                if not keep(-trail_lit):
                    self._clear_marks(marked)
                    raise ProofError(
                        "final analysis reached non-assumption decision %d"
                        % trail_lit
                    )
                result.append(-trail_lit)
                continue
            if self.proof is not None:
                chain.append((var, reason.proof_id))
            for lit in reason.lits:
                lvar = abs(lit)
                if lvar != var and not seen[lvar]:
                    seen[lvar] = True
                    marked.append(lvar)
        self._clear_marks(marked)
        return result, chain

    def _clear_marks(self, marked):
        for var in marked:
            self._seen[var] = False

    def _analyze_final(self, false_assumption_lit, assumption_set):
        """Build the final conflict clause when an assumption is false.

        Returns ``(clause_lits, proof_id)``; the clause is a subset of the
        negated assumptions.
        """
        var = abs(false_assumption_lit)
        reason = self._reason[var]
        if reason is None:
            # The opposite literal was itself placed as an assumption:
            # the assumption set is directly contradictory; no resolution
            # clause exists (it would be a tautology).
            raise ProofError(
                "directly contradictory assumptions on variable %d" % var
            )
        clause, chain = self._resolve_out(
            reason, keep=lambda lit: -lit in assumption_set
        )
        # reason propagated -false_assumption_lit, which stays in the clause.
        clause = sorted(set(clause + [-false_assumption_lit]))
        proof_id = None
        if self.proof is not None:
            if len(chain) == 1:
                proof_id = chain[0]
            else:
                proof_id = self.proof.add_derived(clause, chain)
        return clause, proof_id

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------

    solve = _solve

    def _solve_loop(self, assumptions, assumption_set, max_conflicts,
                    budget, timing, clock, progress=None):
        """The CDCL search loop (split out of :meth:`solve` for timing)."""
        propagate_s = 0.0
        analyze_s = 0.0
        restart_s = 0.0
        self._last_solve_phases = (0.0, 0.0, 0.0)

        def flush():
            self._last_solve_phases = (propagate_s, analyze_s, restart_s)

        self.cancel_until(0)
        if not self._propagate_toplevel():
            flush()
            return SolveResult(UNSAT, None, (), self._unsat_proof_id)
        self._max_learnts = max(100, len(self._clauses) // 3)
        restart_index = 1
        conflicts_until_restart = self._restart_base * luby(restart_index)
        total_conflicts = 0
        decisions_since_check = 0
        while True:
            if timing:
                t0 = clock()
                conflict = self._propagate()
                propagate_s += clock() - t0
            else:
                conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                total_conflicts += 1
                conflicts_until_restart -= 1
                if self.decision_level() == 0:
                    self._record_level0_refutation(conflict)
                    flush()
                    return SolveResult(UNSAT, None, (), self._unsat_proof_id)
                if timing:
                    t0 = clock()
                    learnt, backtrack, chain = self._analyze(conflict)
                    analyze_s += clock() - t0
                else:
                    learnt, backtrack, chain = self._analyze(conflict)
                self.cancel_until(backtrack)
                self._record_learnt(learnt, chain)
                if len(self._learnts) > self._max_learnts:
                    self._reduce_db()
                    self._max_learnts = int(self._max_learnts * 1.5)
                if budget is not None:
                    budget.on_conflict()
                    if self.proof is not None:
                        budget.note_proof_size(len(self.proof))
                    if budget.exhausted_reason() is not None:
                        self.cancel_until(0)
                        flush()
                        return SolveResult(UNKNOWN, None, None, None)
                if progress is not None:
                    progress.tick(self.stats)
                if max_conflicts is not None and total_conflicts >= max_conflicts:
                    self.cancel_until(0)
                    flush()
                    return SolveResult(UNKNOWN, None, None, None)
                continue
            if conflicts_until_restart <= 0:
                self.stats.restarts += 1
                restart_index += 1
                conflicts_until_restart = self._restart_base * luby(restart_index)
                if timing:
                    t0 = clock()
                    self.cancel_until(0)
                    restart_s += clock() - t0
                else:
                    self.cancel_until(0)
                continue
            # Place pending assumptions as pseudo-decisions.
            lit = None
            while self.decision_level() < len(assumptions):
                candidate = assumptions[self.decision_level()]
                val = self.value(candidate)
                if val == 1:
                    self._new_decision_level()  # already true: dummy level
                    continue
                if val == -1:
                    clause, proof_id = self._analyze_final(
                        candidate, assumption_set
                    )
                    self.cancel_until(0)
                    flush()
                    return SolveResult(UNSAT, None, tuple(clause), proof_id)
                lit = candidate
                break
            if lit is None:
                var = self._pick_branch_var()
                if var is None:
                    model = list(self._assign)
                    self.cancel_until(0)
                    flush()
                    return SolveResult(SAT, model, None, None)
                lit = var if self._phase[var] else -var
            self.stats.decisions += 1
            decisions_since_check += 1
            if decisions_since_check >= 256 \
                    and (budget is not None or progress is not None):
                decisions_since_check = 0
                if progress is not None:
                    progress.tick(self.stats)
                if budget is not None \
                        and budget.exhausted_reason() is not None:
                    self.cancel_until(0)
                    flush()
                    return SolveResult(UNKNOWN, None, None, None)
            self._new_decision_level()
            self._enqueue(lit, None)
