"""A cache-conscious CDCL SAT solver with resolution-proof logging.

The solver follows the MiniSat architecture: two-watched-literal
propagation, first-UIP conflict analysis with (locally) minimized learned
clauses, VSIDS branching with phase saving, Luby restarts, and activity-
based learned-clause deletion.  The public interface speaks DIMACS
integers; internally the core runs on flat integer storage:

* **Clause arena.**  All clauses live in one flat integer sequence
  (``self._arena``).  A clause is addressed by its *ref* — the offset of
  its header word ``(size << 1) | learnt`` — with the literals in the
  following ``size`` slots.  ``self._clauses`` / ``self._learnts`` are
  offset tables into the arena; activity and proof ids are sidecar dicts
  keyed by ref.  Deleting a clause just abandons its words; the arena is
  compacted (with an order-preserving ref remap) once half of it is
  garbage.
* **Internal literals.**  Literal ``v`` is encoded as ``v << 1`` and
  ``-v`` as ``(v << 1) | 1`` — the same packing the old solver used for
  watch-list *indices*, now used end to end.  Negation is ``lit ^ 1``,
  the variable is ``lit >> 1``, and ``self._lit_val[lit]`` gives the
  literal's value (1/-1/0) in one subscript, replacing a sign branch plus
  ``abs()`` per lookup on the hottest line of ``_propagate``.
* **Blocker-literal watches.**  Watch lists are flat pair sequences
  ``[ref0, blocker0, ref1, blocker1, ...]``.  The blocker is a literal of
  the clause (normally the other watched literal); when it is already
  true the clause is satisfied and propagation can keep the watch after
  at most two arena reads, never touching the clause body.  Lists are
  compacted in place with a read/write cursor pair instead of rebuilding
  a ``keep`` list per visited literal.
* **Bounded VSIDS heap.**  The branching heap is a lazy min-heap of
  ``(-activity, var)`` entries.  A per-variable flag records whether it
  holds the variable's current entry, so backtracking pushes only
  variables that lack one; once more than half the entries are stale
  (over ``2 * num_vars`` of them) the heap is rebuilt from the current
  entries.
* **Native search.**  Unit propagation, conflict analysis (with
  minimization, level-0 elimination and both activity bumps and
  rescales), backtracking and branching run in C (``propagate.c``,
  built on first import by :mod:`repro.sat.native`) on these very lists,
  dicts and floats.  The solve loop, clause loading, clause-database
  reduction, arena compaction and final-conflict analysis stay here, as
  does proof logging: the C analysis returns the resolution chain and
  :meth:`Solver._record_learnt` logs it.  A host that cannot build the
  module runs :class:`~repro.sat.reference.ReferenceSolver` as
  ``Solver`` instead (one warning on the ``repro.sat`` logger).

The arena layout changes none of the solver's decisions: watch-list
order, literal order inside clauses, bump order, heap order and
tie-breaks replicate the reference implementation
(:mod:`repro.sat.reference`) exactly, so search trajectories — and
therefore emitted resolution proofs — are bit-identical.  The blocker
fast path fires only when the blocker is *still one of the two watched
literals* and replays the same slot swap the full path would have
performed; a plain MiniSat stale-tolerant blocker would keep watches the
reference solver moves and diverge.  See docs/performance.md for the
measured effect.

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

import heapq

from ..instrument import NULL_RECORDER
from ..proof.store import ProofError
from . import native
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

_NO_REASON = -1  # reason-table sentinel: decision / unassigned

_KERNEL = native.load()  # None: this host cannot build propagate.c


def propagate_kernel():
    """Which search :class:`Solver` runs: ``"native"`` (the C search of
    ``propagate.c``) or ``"python"`` (:class:`ReferenceSolver`)."""
    return "python" if Solver is ReferenceSolver else "native"


class Solver:
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
        # Flat clause storage: header (size << 1 | learnt) + literal words.
        self._arena = []
        self._wasted = 0            # abandoned arena words (deleted clauses)
        self._cla_act = {}          # ref -> learned-clause activity
        self._proof_ids = {}        # ref -> proof-store clause id
        self._lit_val = [0, 0]      # per internal lit: 1 true, -1 false, 0
        self._level = [0]           # per var: decision level of assignment
        self._reason = [_NO_REASON]  # per var: clause ref or _NO_REASON
        self._phase = [False]       # per var: saved phase
        self._activity = [0.0]      # per var: VSIDS activity
        self._watches = [[], []]    # per internal lit: [ref, blocker, ...]
        self._trail = []            # internal literals
        self._trail_lim = []        # trail positions of decisions
        self._qhead = 0
        self._heap = []             # lazy min-heap of (-activity, var)
        self._heap_live = [False]   # per var: heap holds its current entry
        self._var_inc = 1.0
        self._cla_inc = 1.0
        self._clauses = []          # problem clause refs
        self._learnts = []          # learned clause refs
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
        self._lit_val.append(0)
        self._lit_val.append(0)
        self._level.append(0)
        self._reason.append(_NO_REASON)
        self._phase.append(False)
        self._activity.append(0.0)
        self._watches.append([])
        self._watches.append([])
        self._seen.append(False)
        self._heap_live.append(True)
        heapq.heappush(self._heap, (0.0, self.num_vars))
        return self.num_vars

    def ensure_vars(self, count):
        """Grow the variable table to at least *count* variables."""
        while self.num_vars < count:
            self.new_var()

    @staticmethod
    def _widx(lit):
        # Internal encoding of a DIMACS literal: positives at even slots.
        # (Also the watch-list index, as in the reference solver.)
        return (lit << 1) if lit > 0 else ((-lit << 1) | 1)

    @staticmethod
    def _dimacs(ilit):
        # Internal literal back to DIMACS.
        return -(ilit >> 1) if ilit & 1 else (ilit >> 1)

    def value(self, lit):
        """Current value of *lit*: 1 true, -1 false, 0 unassigned."""
        return self._lit_val[
            (lit << 1) if lit > 0 else ((-lit << 1) | 1)
        ]

    # -- arena helpers --------------------------------------------------

    def _alloc(self, int_lits, learnt, proof_id):
        """Append a clause to the arena; returns its ref."""
        arena = self._arena
        ref = len(arena)
        arena.append((len(int_lits) << 1) | (1 if learnt else 0))
        arena.extend(int_lits)
        if proof_id is not None:
            self._proof_ids[ref] = proof_id
        return ref

    def clause_size(self, ref):
        """Number of literals of the clause at *ref*."""
        return self._arena[ref] >> 1

    def clause_is_learnt(self, ref):
        """Whether the clause at *ref* is a learned clause."""
        return bool(self._arena[ref] & 1)

    def clause_lits(self, ref):
        """DIMACS literals of the clause at *ref*, in arena order."""
        size = self._arena[ref] >> 1
        return [
            -(l >> 1) if l & 1 else (l >> 1)
            for l in self._arena[ref + 1:ref + 1 + size]
        ]

    def clause_proof_id(self, ref):
        """Proof-store id of the clause at *ref* (None when not logging)."""
        return self._proof_ids.get(ref)

    def clause_refs(self):
        """Refs of the live problem clauses, in insertion order."""
        return list(self._clauses)

    def clause_activity(self, ref):
        """Learned-clause activity of the clause at *ref*."""
        return self._cla_act.get(ref, 0.0)

    def reason_ref(self, var):
        """Clause ref that propagated *var*, or None for decisions."""
        ref = self._reason[var]
        return None if ref == _NO_REASON else ref

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
        """
        if self._unsat:
            return False
        unique = set(lits)
        if any(-lit in unique for lit in unique):
            return True  # tautology: satisfied everywhere, skip
        clause = sorted(unique)
        if clause:
            # Sorted, so the extreme literals bound the variable range.
            self.ensure_vars(max(clause[-1], -clause[0]))
        if self.proof is not None and proof_id is None:
            if not axiom:
                raise ProofError("non-axiom clauses need an explicit proof_id")
            proof_id = self.proof.add_axiom(clause)
        if self._trail_lim:
            self.cancel_until(0)
        if not clause:
            self._unsat = True
            self._unsat_proof_id = proof_id
            return False
        lit_val = self._lit_val
        int_lits = [
            (lit << 1) if lit > 0 else ((-lit << 1) | 1) for lit in clause
        ]
        ref = self._alloc(int_lits, learnt=False, proof_id=proof_id)
        if not self._trail and len(int_lits) >= 2:
            # Nothing assigned yet (the bulk CNF-loading case): every
            # literal is free, the clause is a plain two-watched clause.
            self._install_watches(ref, int_lits)
            self._clauses.append(ref)
            return True
        # Count non-false literals at level 0 to classify the clause.
        free = []
        satisfied = False
        for l in int_lits:
            v = lit_val[l]
            if v >= 0:
                free.append(l)
                if v == 1:
                    satisfied = True
        if satisfied or len(free) >= 2:
            self._install_watches(ref, int_lits)
            self._clauses.append(ref)
            return True
        if len(free) == 1:
            self._clauses.append(ref)
            self._install_watches(ref, int_lits)
            self._enqueue_int(free[0], ref)
            return self._propagate_toplevel()
        # All literals false at level 0: immediate refutation.
        self._record_level0_refutation(ref)
        return False

    def _install_watches(self, ref, lits):
        arena = self._arena
        lit_val = self._lit_val
        size = len(lits)
        if size >= 2:
            vals = [lit_val[l] for l in lits]
            if min(vals) == vals[0] == max(vals):
                # All literals at the same value (typically all free):
                # the stable sort below is the identity — skip it.
                w0, w1 = lits[0], lits[1]
                ws = self._watches[w0]
                ws.append(ref)
                ws.append(w1)
                ws = self._watches[w1]
                ws.append(ref)
                ws.append(w0)
                return
            lits = list(lits)
            # Move two watchable literals to the front: prefer
            # unassigned/true (stable descending sort, as the reference
            # solver does, so watch placement matches it exactly).
            order = sorted(range(size), key=vals.__getitem__, reverse=True)
            i0, i1 = order[0], order[1]
            lits[0], lits[i0] = lits[i0], lits[0]
            if i1 == 0:
                i1 = i0
            lits[1], lits[i1] = lits[i1], lits[1]
            arena[ref + 1:ref + 1 + size] = lits
            w0, w1 = lits[0], lits[1]
            ws = self._watches[w0]
            ws.append(ref)
            ws.append(w1)
            ws = self._watches[w1]
            ws.append(ref)
            ws.append(w0)
        else:
            ws = self._watches[lits[0]]
            ws.append(ref)
            ws.append(lits[0])

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
        """Assign DIMACS literal *lit* true (reason: clause ref or None)."""
        self._enqueue_int(
            (lit << 1) if lit > 0 else ((-lit << 1) | 1),
            _NO_REASON if reason is None else reason,
        )

    def _enqueue_int(self, ilit, reason_ref):
        lit_val = self._lit_val
        lit_val[ilit] = 1
        lit_val[ilit ^ 1] = -1
        var = ilit >> 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason_ref
        self._trail.append(ilit)

    def _new_decision_level(self):
        self._trail_lim.append(len(self._trail))

    # ------------------------------------------------------------------
    # The C search (propagate.c)
    # ------------------------------------------------------------------

    # Functions of propagate.c, bound like methods: unit propagation
    # (returns a conflicting clause ref or None), first-UIP analysis
    # (returns the learnt internal literals, asserting one first, the
    # backtrack level and the resolution chain, or None when not
    # logging), the learnt-clause activity bump, backtracking and the
    # VSIDS pick (a variable, or None when all are assigned).  Without
    # the module, Solver is ReferenceSolver (end of this module).
    if _KERNEL is not None:
        _propagate = _KERNEL.propagate
        _analyze = _KERNEL.analyze
        _bump_clause = _KERNEL.bump_clause
        cancel_until = _KERNEL.cancel_until
        _pick_branch_var = _KERNEL.pick_branch_var

    # ------------------------------------------------------------------
    # Learned clauses
    # ------------------------------------------------------------------

    def _record_learnt(self, int_lits, chain):
        proof_id = None
        if self.proof is not None:
            if len(chain) == 1:
                proof_id = chain[0]
            else:
                proof_id = self.proof.add_derived(
                    [-(l >> 1) if l & 1 else (l >> 1) for l in int_lits],
                    chain,
                )
        ref = self._alloc(int_lits, learnt=True, proof_id=proof_id)
        self.stats.learned += 1
        if len(int_lits) >= 2:
            self._learnts.append(ref)
            self._bump_clause(ref)
            w0, w1 = int_lits[0], int_lits[1]
            ws = self._watches[w0]
            ws.append(ref)
            ws.append(w1)
            ws = self._watches[w1]
            ws.append(ref)
            ws.append(w0)
        self._enqueue_int(int_lits[0], ref)
        return ref

    def _reduce_db(self):
        """Remove roughly half of the inactive, unlocked learned clauses."""
        arena = self._arena
        learnts = self._learnts
        learnts.sort(key=self._cla_act.__getitem__)
        locked = set()
        reason = self._reason
        for var in range(1, self.num_vars + 1):
            ref = reason[var]
            if ref != _NO_REASON and arena[ref] & 1:
                locked.add(ref)
        keep = []
        to_delete = len(learnts) // 2
        deleted = 0
        for ref in learnts:
            if (deleted < to_delete and ref not in locked
                    and (arena[ref] >> 1) > 2):
                self._detach(ref)
                self._free(ref)
                deleted += 1
            else:
                keep.append(ref)
        self._learnts = keep
        self.stats.deleted += deleted
        if self._wasted * 2 > len(arena):
            self._compact_arena()

    def _detach(self, ref):
        arena = self._arena
        for ilit in (arena[ref + 1], arena[ref + 2]):
            ws = self._watches[ilit]
            for i in range(0, len(ws), 2):
                if ws[i] == ref:
                    del ws[i:i + 2]
                    break

    def _free(self, ref):
        """Abandon the clause's arena words (reclaimed by compaction)."""
        self._wasted += (self._arena[ref] >> 1) + 1
        self._cla_act.pop(ref, None)
        self._proof_ids.pop(ref, None)

    def _compact_arena(self):
        """Rebuild the arena without abandoned words.

        Live refs are remapped everywhere they appear — clause/learnt
        offset tables, reason table, watch pairs, sidecar dicts — with
        every ordering preserved, so compaction never perturbs the search
        trajectory.
        """
        arena = self._arena
        new_arena = []
        remap = {}

        def move(ref):
            if ref in remap:
                return
            new_ref = len(new_arena)
            remap[ref] = new_ref
            new_arena.extend(arena[ref:ref + 1 + (arena[ref] >> 1)])

        for ref in self._clauses:
            move(ref)
        for ref in self._learnts:
            move(ref)
        for ref in self._reason:
            if ref != _NO_REASON:
                move(ref)  # unit learnts live only in the reason table
        self._arena = new_arena
        self._wasted = 0
        self._clauses = [remap[ref] for ref in self._clauses]
        self._learnts = [remap[ref] for ref in self._learnts]
        self._reason = [
            remap[ref] if ref != _NO_REASON else _NO_REASON
            for ref in self._reason
        ]
        for ws in self._watches:
            for i in range(0, len(ws), 2):
                ws[i] = remap[ws[i]]
        self._cla_act = {
            remap[ref]: act for ref, act in self._cla_act.items()
        }
        self._proof_ids = {
            remap[ref]: pid for ref, pid in self._proof_ids.items()
        }

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def _compact_heap(self):
        """Rebuild the heap from the current entry of each live variable.

        Called once the heap holds more than ``2 * num_vars`` entries, so
        at least half of them are stale.  Only stale entries are dropped,
        and pops follow the strict (-activity, var) order, so compaction
        never moves a decision.
        """
        activity = self._activity
        live = self._heap_live
        heap = self._heap
        heap[:] = [
            (-activity[var], var)
            for var in range(1, self.num_vars + 1) if live[var]
        ]
        heapq.heapify(heap)

    # ------------------------------------------------------------------
    # Final-conflict analysis (assumptions)
    # ------------------------------------------------------------------

    def _resolve_out(self, start_ref, keep):
        """Resolve away every trail-assigned literal not selected by *keep*.

        Walks the trail backwards from the top, exactly like conflict
        analysis but across all decision levels. DIMACS literals for which
        ``keep(lit)`` is true (the negations of responsible assumptions)
        stay in the clause; decisions must all satisfy *keep*.

        Returns ``(clause_lits, chain)`` with DIMACS literals.
        """
        seen = self._seen
        arena = self._arena
        lit_val = self._lit_val
        marked = []
        result = []
        logging = self.proof is not None
        chain = [self._proof_ids[start_ref]] if logging else None
        # Mark only the *false* literals of the start clause: a true literal
        # (the propagated one, in final-conflict analysis) must survive into
        # the result rather than be resolved against its own reason.
        for lit in arena[start_ref + 1:start_ref + 1 + (arena[start_ref] >> 1)]:
            var = lit >> 1
            if lit_val[lit] == -1 and not seen[var]:
                seen[var] = True
                marked.append(var)
        # Walk the full trail top-down.
        for pos in range(len(self._trail) - 1, -1, -1):
            trail_lit = self._trail[pos]
            var = trail_lit >> 1
            if not seen[var]:
                continue
            seen[var] = False
            ref = self._reason[var]
            if ref == _NO_REASON:
                # A decision (assumption): it must be kept.
                neg_dimacs = var if trail_lit & 1 else -var
                if not keep(neg_dimacs):
                    self._clear_marks(marked)
                    raise ProofError(
                        "final analysis reached non-assumption decision %d"
                        % (-neg_dimacs)
                    )
                result.append(neg_dimacs)
                continue
            if logging:
                chain.append((var, self._proof_ids[ref]))
            for lit in arena[ref + 1:ref + 1 + (arena[ref] >> 1)]:
                lvar = lit >> 1
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
        ref = self._reason[var]
        if ref == _NO_REASON:
            # The opposite literal was itself placed as an assumption:
            # the assumption set is directly contradictory; no resolution
            # clause exists (it would be a tautology).
            raise ProofError(
                "directly contradictory assumptions on variable %d" % var
            )
        clause, chain = self._resolve_out(
            ref, keep=lambda lit: -lit in assumption_set
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
                if not self._trail_lim:
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
            ilit = None
            while len(self._trail_lim) < len(assumptions):
                candidate = assumptions[len(self._trail_lim)]
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
                ilit = (candidate << 1) if candidate > 0 \
                    else ((-candidate << 1) | 1)
                break
            if ilit is None:
                var = self._pick_branch_var()
                if var is None:
                    model = self._lit_val[0::2]
                    self.cancel_until(0)
                    flush()
                    return SolveResult(SAT, model, None, None)
                ilit = (var << 1) if self._phase[var] else ((var << 1) | 1)
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
            self._enqueue_int(ilit, _NO_REASON)


if _KERNEL is None:
    # The one Python search serves where the C search cannot be built.
    Solver = ReferenceSolver  # noqa: F811
