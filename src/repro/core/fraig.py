"""Proof-producing SAT sweeping (fraiging) over a miter AIG.

The engine implements the modern CEC loop:

1. **Simulate** the miter on random patterns; nodes with equal (or
   complementary) signatures form candidate equivalence classes.
2. Visit AND nodes in topological order. For each node, first try a
   **structural merge**: if its fanins, rewritten to class
   representatives, are constant / equal / complementary / hash-equal to
   an earlier node's reduced fanins, the node joins that class — and the
   equivalence clauses are *derived by resolution* from Tseitin clauses
   and earlier lemmas (:mod:`repro.core.stitch`).
3. Otherwise, if simulation proposes a candidate, run two **assumption
   SAT calls** on the shared incremental solver; UNSAT answers return
   equivalence clauses with resolution derivations, a SAT answer returns
   a counterexample pattern that refines every class at once: the
   pattern (and its distance-1 neighbours, when configured) is absorbed
   in one resimulation pass and the class table is rebuilt from the
   processed roots.
4. Derived equivalence clauses are installed in the solver as premises,
   so later calls get monotonically easier.

After the sweep, the miter output has (when the circuits are equivalent)
been merged with constant 0: asserting the miter-output unit clause then
refutes the formula by level-0 propagation, completing a single
resolution proof of the miter CNF + output unit — the paper's artifact.

A non-equivalence verdict needs no proof, only a counterexample. Given
the miter output as its *witness* literal, the sweep stops as soon as
that literal's simulation signature is nonzero — checked before the
first AND node and after every refinement — so a pair that simulation
already separates costs its counterexample, not a proof-logged sweep.
Refinement only appends patterns, so the lowest witnessing pattern is
the one a full sweep would have ended with.
"""

import time

from ..aig.literal import FALSE, TRUE, lit_not_cond, lit_var
from ..aig.simulate import Simulator
from ..cnf.tseitin import tseitin_encode
from ..instrument import NULL_RECORDER
from ..instrument.budget import check_limit
from ..proof.store import ProofStore
from ..sat.solver import SAT, UNKNOWN, UNSAT, Solver
from .stitch import EquivLemma, StitchError, StructuralStitcher


def _is_int(value):
    """True for an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


class SweepOptions:
    """Tuning knobs for the sweeping engine.

    Every field is validated at construction (``ValueError`` on a wrong
    type or an out-of-range value), so options arriving from a service
    request are rejected before a job is admitted.

    Attributes:
        sim_words: initial random-simulation words (64 patterns each).
        seed: RNG seed for simulation patterns.
        structural_mode: ``"resolution"`` derives structural merges by
            explicit resolution chains (the paper's construction, with a
            per-case SAT fallback); ``"sat"`` proves them with assumption
            SAT calls; ``"off"`` disables structural merging entirely
            (every merge goes through simulation candidates + SAT) — the
            ablation configurations.
        cex_neighbors: when a SAT call refutes a candidate, also add this
            many single-bit perturbations of the counterexample pattern
            to the simulator (the classic distance-1 trick: neighbours of
            a distinguishing pattern distinguish many other near-misses).
            The counterexample and its neighbours share one resimulation
            pass.
        max_conflicts: per-call conflict budget (None = unlimited). A
            budget-exhausted candidate is skipped, never mis-merged.
        validate_proof: validate every derivation at insertion (slow;
            tests only).
    """

    def __init__(
        self,
        sim_words=4,
        seed=2007,
        structural_mode="resolution",
        cex_neighbors=0,
        max_conflicts=None,
        validate_proof=False,
    ):
        if structural_mode not in ("resolution", "sat", "off"):
            raise ValueError("bad structural_mode %r" % structural_mode)
        if not _is_int(seed):
            raise ValueError("seed must be an int, got %r" % (seed,))
        for name, value in (("sim_words", sim_words),
                            ("cex_neighbors", cex_neighbors)):
            if not _is_int(value) or value < 0:
                raise ValueError(
                    "%s must be a non-negative int, got %r" % (name, value)
                )
        check_limit("max_conflicts", max_conflicts, int)
        if not isinstance(validate_proof, bool):
            raise ValueError(
                "validate_proof must be a bool, got %r" % (validate_proof,)
            )
        self.sim_words = sim_words
        self.seed = seed
        self.structural_mode = structural_mode
        self.cex_neighbors = cex_neighbors
        self.max_conflicts = max_conflicts
        self.validate_proof = validate_proof


class SweepStats:
    """Counters describing one sweep run."""

    def __init__(self):
        self.nodes_processed = 0
        self.structural_merges = 0
        self.structural_fallbacks = 0
        self.sat_merges = 0
        self.const_merges = 0
        self.sat_calls = 0
        self.sat_calls_sat = 0
        self.sat_calls_unsat = 0
        self.sat_calls_unknown = 0
        # Refinement rounds, one resimulation pass each.
        self.refinements = 0
        # Refinement patterns absorbed (counterexamples + neighbours).
        self.refine_patterns = 0
        # Total full-AIG simulation passes, initial pass included
        # (mirrors Simulator.num_resimulations at the end of the sweep).
        self.sim_passes = 0
        self.skipped_candidates = 0
        # True when candidates were skipped because a Budget ran out
        # (as opposed to per-call max_conflicts exhaustion).
        self.budget_exhausted = False

    def __repr__(self):
        return (
            "SweepStats(nodes=%d, structural=%d, sat_merges=%d, const=%d, "
            "sat_calls=%d [sat=%d unsat=%d unknown=%d], refinements=%d)"
            % (
                self.nodes_processed,
                self.structural_merges,
                self.sat_merges,
                self.const_merges,
                self.sat_calls,
                self.sat_calls_sat,
                self.sat_calls_unsat,
                self.sat_calls_unknown,
                self.refinements,
            )
        )


class SweepEngine:
    """SAT sweeping over one AIG (normally a miter), with proof logging.

    Args:
        aig: the AIG to sweep. Every node receives a CNF variable; the
            whole Tseitin encoding is loaded into one incremental solver.
        options: a :class:`SweepOptions` (defaults used when None).
        recorder: optional :class:`~repro.instrument.recorder.Recorder`
            receiving sweep phase timings (``sweep/sim``,
            ``sweep/strash``, ``sweep/sat``) and candidate-outcome
            counters.
        budget: optional :class:`~repro.instrument.budget.Budget`.
            Candidate SAT calls consult it; once exhausted, remaining
            candidates are *skipped* (never mis-merged) so the sweep
            terminates quickly with whatever was proved so far.
    """

    def __init__(self, aig, options=None, recorder=None, budget=None):
        self.aig = aig
        self.options = options or SweepOptions()
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.budget = budget
        self.stats = SweepStats()
        with self.recorder.phase("sweep/encode"):
            self.enc = tseitin_encode(aig)
        self.proof = ProofStore(
            validate=self.options.validate_proof, recorder=recorder,
        )
        self.solver = Solver(proof=self.proof, recorder=recorder)
        with self.recorder.phase("sweep/load"):
            for clause in self.enc.cnf.clauses:
                if not self.solver.add_clause(clause):
                    raise RuntimeError(
                        "miter CNF is inconsistent; encoder bug"
                    )
        with self.recorder.phase("sweep/sim"):
            self.sim = Simulator(
                aig, num_words=self.options.sim_words, seed=self.options.seed,
            )
        # Union-find (single level): AIG var -> representative AIG literal.
        self._parent = [2 * var for var in range(aig.num_vars)]
        # AIG var -> EquivLemma (None while the var is its own root).
        self._lemmas = [None] * aig.num_vars
        self._stitcher = StructuralStitcher(
            self.proof, self.enc.defining_clauses, self._lemma_of
        )
        # Candidate classes: normalized signature -> the first processed
        # root with that signature.
        self._class_table = {}
        self._refine_seconds = 0.0
        self._processed = []
        # Reduced structural hashing: (root_lit0, root_lit1) -> AIG var.
        self._reduced_strash = {}
        self._swept = False

    # ------------------------------------------------------------------
    # Representatives and lemmas
    # ------------------------------------------------------------------

    def rep_lit(self, aig_lit):
        """Class-representative literal of *aig_lit* (identity when root)."""
        parent = self._parent[aig_lit >> 1]
        return parent ^ (aig_lit & 1)

    def is_root(self, var):
        """True when *var* is its own class representative."""
        return self._parent[var] == 2 * var

    def _lemma_of(self, var):
        return self._lemmas[var]

    def _merge(self, var, root_lit, lemma):
        self._parent[var] = root_lit
        self._lemmas[var] = lemma

    def proven_equiv(self, lit_a, lit_b):
        """True when the two literals were merged into one class."""
        return self.rep_lit(lit_a) == self.rep_lit(lit_b)

    def equivalence_classes(self):
        """The proved classes as a dict root literal -> member literals.

        Every member literal equals its root literal on all inputs (as
        certified by the recorded lemmas). Singleton classes are omitted;
        members are in increasing variable order and include the root.
        """
        classes = {}
        for var in range(self.aig.num_vars):
            root = self.rep_lit(2 * var)
            if root != 2 * var:
                classes.setdefault(root, [root]).append(2 * var)
        return classes

    # ------------------------------------------------------------------
    # Simulation classes
    # ------------------------------------------------------------------

    def _norm_signature(self, var):
        sig = self.sim.signatures[var]
        mask = self.sim.mask
        if sig & 1:
            return sig ^ mask, 1
        return sig, 0

    def _register_root(self, var):
        self._processed.append(var)
        norm, _ = self._norm_signature(var)
        self._class_table.setdefault(norm, var)

    def _candidate_for(self, var):
        """Simulation candidate root for *var*, or None.

        Returns ``(root_var, phase)`` where ``var ≡ root_var ^ phase`` is
        conjectured.
        """
        norm, phase = self._norm_signature(var)
        root = self._class_table.get(norm)
        if root is None or root == var:
            return None
        if not self.is_root(root):
            return None
        _, root_phase = self._norm_signature(root)
        return root, phase ^ root_phase

    def _witnessed(self, lit):
        """True when some simulation pattern sets *lit* (never for None)."""
        return lit is not None and self.sim.lit_signature(lit) != 0

    def _refine(self, model_result):
        """Absorb a counterexample pattern (plus distance-1 neighbours when
        configured) with one resimulation pass, then rebuild the class
        table.

        No node is merged after it is registered as a root, so the table
        is rebuilt over every processed node: each normalized signature
        maps to the first processed root that has it.
        """
        bits = [
            model_result.model_value(self.enc.var_of[var])
            for var in self.aig.inputs
        ]
        batch = [bits]
        neighbors = min(self.options.cex_neighbors, len(bits))
        for offset in range(neighbors):
            position = (self.stats.refinements + offset) % len(bits)
            flipped = list(bits)
            flipped[position] ^= 1
            batch.append(flipped)
        self.stats.refinements += 1
        self.stats.refine_patterns += len(batch)
        timing = self.recorder.enabled
        start = time.perf_counter() if timing else 0.0
        self.sim.add_patterns(batch)
        table = {}
        for var in self._processed:
            norm, _ = self._norm_signature(var)
            table.setdefault(norm, var)
        self._class_table = table
        if timing:
            self._refine_seconds += time.perf_counter() - start

    # ------------------------------------------------------------------
    # SAT-based equivalence proof
    # ------------------------------------------------------------------

    def _cnf_lit(self, aig_lit):
        return self.enc.lit_to_cnf(aig_lit)

    def _solve(self, assumptions, budgeted=True):
        """One assumption SAT call, optionally charged to the budget.

        Structural-merge fallback calls pass ``budgeted=False``: those
        queries are propositionally forced by already-installed lemma
        clauses, so they complete by propagation and must not be turned
        into spurious UNKNOWNs by an exhausted budget.
        """
        self.stats.sat_calls += 1
        limit = self.options.max_conflicts
        budget = self.budget if budgeted else None
        if budget is not None:
            remaining = budget.remaining_conflicts()
            if remaining is not None:
                limit = remaining if limit is None else min(limit, remaining)
        result = self.solver.solve(
            assumptions=assumptions, max_conflicts=limit, budget=budget
        )
        if result.status is SAT:
            self.stats.sat_calls_sat += 1
        elif result.status is UNSAT:
            self.stats.sat_calls_unsat += 1
        else:
            self.stats.sat_calls_unknown += 1
        return result

    def _budget_spent(self):
        return self.budget is not None and self.budget.exhausted

    def _prove_equiv_sat(self, var, root_lit, budgeted=True):
        """Prove ``var ≡ root_lit`` with two assumption SAT calls.

        Returns an :class:`EquivLemma` on success, the SAT
        :class:`~repro.sat.solver.SolveResult` on refutation-by-model,
        or None on conflict-budget exhaustion.
        """
        x = self.enc.var_of[var]
        y = self._cnf_lit(root_lit)
        fwd = self._solve([x, -y], budgeted)
        if fwd.status is SAT:
            return fwd
        if fwd.status is UNKNOWN:
            return None
        fwd_ok = self._install_lemma_clause(fwd)
        bwd = self._solve([-x, y], budgeted)
        if bwd.status is SAT:
            return bwd
        if bwd.status is UNKNOWN:
            return None
        bwd_ok = self._install_lemma_clause(bwd)
        return EquivLemma(fwd_id=fwd_ok, bwd_id=bwd_ok)

    def _install_lemma_clause(self, result):
        """Install an UNSAT final clause into the solver as a premise."""
        self.solver.add_clause(
            result.final_clause, axiom=False, proof_id=result.proof_id
        )
        return result.proof_id

    def _install_derived(self, proof_id):
        """Install a stitched equivalence clause into the solver."""
        self.solver.add_clause(
            list(self.proof.clause(proof_id)), axiom=False, proof_id=proof_id
        )

    # ------------------------------------------------------------------
    # Structural merging
    # ------------------------------------------------------------------

    @staticmethod
    def _reduced_key(p0, p1):
        """Order-normalized reduced-fanin pair (hash key)."""
        return (p0, p1) if p0 >= p1 else (p1, p0)

    def _try_structural(self, var):
        """Attempt a structural merge of AND node *var*.

        The node's fanins are rewritten to their class representatives;
        when the reduced pair is constant, equal, complementary, or equal
        to the reduced pair of an earlier root node, the merge is forced
        and its equivalence clauses are derived. Returns True when merged.
        """
        if self.options.structural_mode == "off":
            return False
        f0, f1 = self.aig.fanins(var)
        p0 = self.rep_lit(f0)
        p1 = self.rep_lit(f1)
        if p0 == FALSE:
            kind, target = "const0_fanin0", FALSE
        elif p1 == FALSE:
            kind, target = "const0_fanin1", FALSE
        elif p0 == lit_not_cond(p1, True):
            kind, target = "const0_complement", FALSE
        elif p0 == TRUE:
            kind, target = "copy_fanin1", p1
        elif p1 == TRUE:
            kind, target = "copy_fanin0", p0
        elif p0 == p1:
            kind, target = "copy_fanin0", p0
        else:
            other = self._reduced_strash.get(self._reduced_key(p0, p1))
            if other is None or other == var or not self.is_root(other):
                return False
            kind, target = "hash", 2 * other
        if self.options.structural_mode == "sat":
            return self._structural_via_sat(var, kind, target)
        try:
            return self._structural_via_resolution(
                var, kind, target, f0, f1, p0, p1
            )
        except StitchError:
            self.stats.structural_fallbacks += 1
            return self._structural_via_sat(var, kind, target)

    def _structural_via_sat(self, var, kind, target):
        outcome = self._prove_equiv_const_aware(var, target, budgeted=False)
        if isinstance(outcome, EquivLemma):
            self._merge(var, target, outcome)
            self.stats.structural_merges += 1
            if target <= TRUE:
                self.stats.const_merges += 1
            return True
        # A structural merge is propositionally forced by the installed
        # lemma clauses; a SAT/unknown answer here is an engine bug.
        raise RuntimeError(
            "structural %s merge of node %d failed in SAT fallback"
            % (kind, var)
        )

    def _structural_via_resolution(self, var, kind, target, f0, f1, p0, p1):
        stitcher = self._stitcher
        x = self.enc.var_of[var]
        l1 = self._cnf_lit(f0)
        l2 = self._cnf_lit(f1)
        v1 = lit_var(f0)
        v2 = lit_var(f1)
        if kind.startswith("const0"):
            which = kind[len("const0_"):]
            proof_id = stitcher.derive_const0(var, x, l1, l2, v1, v2, which)
            self._install_derived(proof_id)
            self._merge(var, FALSE, EquivLemma(fwd_id=proof_id, bwd_id=None))
            self.stats.const_merges += 1
        elif kind.startswith("copy"):
            through = kind[len("copy_"):]
            root_cnf = self._cnf_lit(target)
            fwd, bwd = stitcher.derive_copy(
                var, x, l1, l2, v1, v2, root_cnf, through
            )
            self._install_derived(fwd)
            self._install_derived(bwd)
            self._merge(var, target, EquivLemma(fwd, bwd))
        elif kind == "hash":
            other = target >> 1
            y = self.enc.var_of[other]
            g0, g1 = self.aig.fanins(other)
            # Align the other node's fanins with this node's reduced pair.
            if self.rep_lit(g0) == p0 and self.rep_lit(g1) == p1:
                pass
            elif self.rep_lit(g1) == p0 and self.rep_lit(g0) == p1:
                g0, g1 = g1, g0
            else:
                raise StitchError("reduced-strash table entry went stale")
            fwd, bwd = stitcher.derive_hash_merge(
                var,
                other,
                x,
                y,
                ((l1, v1), (l2, v2)),
                (
                    (self._cnf_lit(g0), lit_var(g0)),
                    (self._cnf_lit(g1), lit_var(g1)),
                ),
            )
            self._install_derived(fwd)
            self._install_derived(bwd)
            self._merge(var, target, EquivLemma(fwd, bwd))
        else:
            raise AssertionError(kind)
        self.stats.structural_merges += 1
        return True

    def _prove_equiv_const_aware(self, var, target_lit, budgeted=True):
        """Prove ``var ≡ target_lit`` by SAT, specializing constants.

        For constant targets a single call suffices and the lemma is a
        unit clause.
        """
        x = self.enc.var_of[var]
        if target_lit == FALSE:
            result = self._solve([x], budgeted)
            if result.status is not UNSAT:
                return result if result.status is SAT else None
            proof_id = self._install_lemma_clause(result)
            return EquivLemma(fwd_id=proof_id, bwd_id=None)
        if target_lit == TRUE:
            result = self._solve([-x], budgeted)
            if result.status is not UNSAT:
                return result if result.status is SAT else None
            proof_id = self._install_lemma_clause(result)
            return EquivLemma(fwd_id=None, bwd_id=proof_id)
        return self._prove_equiv_sat(var, target_lit, budgeted)

    # ------------------------------------------------------------------
    # Main sweep
    # ------------------------------------------------------------------

    def sweep(self, witness_lit=None):
        """Run the sweep over all AND nodes (idempotent).

        Args:
            witness_lit: optional AIG literal whose difference ends the
                check (the miter output). The sweep stops at the first
                simulation witness: as soon as the literal's signature is
                nonzero, before the first AND node or after any
                refinement. A stopped sweep is final; every phase,
                counter and gauge is still flushed to the recorder.
        """
        if self._swept:
            return self.stats
        stats = self.stats
        rec = self.recorder
        timing = rec.enabled
        # Live progress: observe-only updates at the top of each node's
        # turn (attribute writes plus a countdown tick); disabled runs
        # skip everything behind the one `progress is not None` check.
        progress = rec.progress if timing else None
        nodes_total = 0
        if progress is not None:
            progress.phase = "sweep"
            nodes_total = len(self.aig.and_vars())
        clock = time.perf_counter
        start = clock()
        strash_s = sat_s = sim_s = 0.0
        self._register_root(0)  # the constant
        for var in self.aig.inputs:
            self._register_root(var)
        witnessed = self._witnessed(witness_lit)
        for var in () if witnessed else self.aig.and_vars():
            stats.nodes_processed += 1
            if progress is not None:
                progress.update_sweep(
                    wave=stats.refinements,
                    nodes_processed=stats.nodes_processed,
                    nodes_total=nodes_total,
                    classes=len(self._class_table),
                )
                progress.tick(self.solver.stats)
            t0 = clock() if timing else 0.0
            structural = self._try_structural(var)
            if timing:
                strash_s += clock() - t0
            if structural:
                continue
            merged = False
            while True:
                if self._budget_spent():
                    # Degrade gracefully: skip the candidate rather than
                    # run SAT past the budget (never mis-merge).
                    if self._candidate_for(var) is not None:
                        stats.skipped_candidates += 1
                        stats.budget_exhausted = True
                    break
                candidate = self._candidate_for(var)
                if candidate is None:
                    break
                root, phase = candidate
                target = 2 * root ^ phase
                t0 = clock() if timing else 0.0
                if root == 0:
                    outcome = self._prove_equiv_const_aware(
                        var, FALSE if phase == 0 else TRUE
                    )
                else:
                    outcome = self._prove_equiv_const_aware(var, target)
                if timing:
                    sat_s += clock() - t0
                if isinstance(outcome, EquivLemma):
                    self._merge(var, target, outcome)
                    if root == 0:
                        stats.const_merges += 1
                    stats.sat_merges += 1
                    merged = True
                    break
                if outcome is None:
                    stats.skipped_candidates += 1
                    break
                # SAT model: refine classes and retry with the new table.
                t0 = clock() if timing else 0.0
                self._refine(outcome)
                if timing:
                    sim_s += clock() - t0
                if self._witnessed(witness_lit):
                    witnessed = True
                    break
            if witnessed:
                break
            if not merged:
                self._register_root(var)
                f0, f1 = self.aig.fanins(var)
                p, q = self.rep_lit(f0), self.rep_lit(f1)
                if p < q:
                    p, q = q, p
                self._reduced_strash.setdefault((p, q), var)
        self._swept = True
        stats.sim_passes = self.sim.num_resimulations
        total_s = clock() - start
        if timing:
            # Flush the per-activity accumulators; the keys are always
            # present (possibly at 0.0) so downstream schema consumers
            # can rely on them.
            rec.add_time("sweep/sim", sim_s)
            rec.add_time("sweep/strash", strash_s)
            rec.add_time("sweep/sat", sat_s)
            rec.add_time("sweep/total", total_s)
            rec.add_time("sweep/refine-batch", self._refine_seconds,
                         count=max(stats.refinements, 1))
            rec.count("sweep/nodes", stats.nodes_processed)
            rec.count("sweep/structural_merges", stats.structural_merges)
            rec.count("sweep/sat_merges", stats.sat_merges)
            rec.count("sweep/const_merges", stats.const_merges)
            rec.count("sweep/sat_calls", stats.sat_calls)
            rec.count("sweep/sat_calls_sat", stats.sat_calls_sat)
            rec.count("sweep/sat_calls_unsat", stats.sat_calls_unsat)
            rec.count("sweep/sat_calls_unknown", stats.sat_calls_unknown)
            rec.count("sweep/refinements", stats.refinements)
            rec.count("sweep/refine_patterns", stats.refine_patterns)
            rec.count("sweep/sim_passes", stats.sim_passes)
            rec.count("sweep/skipped_candidates", stats.skipped_candidates)
            rec.gauge("sweep/patterns", self.sim.num_patterns)
            rec.gauge("proof/clauses", len(self.proof))
            rec.gauge("proof/axioms", self.proof.num_axioms)
            rec.gauge("proof/derived", self.proof.num_derived)
            rec.gauge("proof/resolutions", self.proof.num_resolutions)
        return self.stats
