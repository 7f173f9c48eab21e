"""Top-level combinational equivalence checking.

:func:`check_equivalence` is the package's headline API: given two
input-compatible AIGs it builds their miter, runs the proof-producing
sweep engine, and returns either

* an **equivalence verdict with a resolution proof** of the miter CNF
  (plus the miter-output unit clause) deriving the empty clause, or
* a **non-equivalence verdict with a counterexample** input assignment,
  validated against both circuits. The sweep stops at the first
  simulation pattern on which the miter output is 1, so a pair that
  simulation separates is refuted without proof-logged SAT work.

The proof is the checkable artifact the paper is about; pass the result
to :func:`repro.core.certify.certify` to replay it independently.
"""

import time

from ..aig.literal import FALSE
from ..aig.miter import build_miter
from ..cnf.tseitin import miter_axioms
from ..instrument import Recorder
from ..sat.solver import SAT, UNKNOWN, UNSAT, propagate_kernel
from .fraig import SweepEngine, SweepOptions


class CecResult:
    """Outcome of one equivalence check.

    Attributes:
        equivalent: True / False / None (undecided under resource limits).
        counterexample: on non-equivalence, a list of 0/1 input values
            (in shared input order) on which the outputs differ.
        proof: the :class:`~repro.proof.store.ProofStore` refuting the
            miter (None unless the verdict is equivalent).
        empty_clause_id: proof id of the empty clause.
        miter: the :class:`~repro.aig.miter.Miter` that was analyzed.
        cnf: the miter CNF *including* the output unit clause — the
            axiom set the proof refutes.
        engine: the :class:`~repro.core.fraig.SweepEngine` (stats access).
        elapsed_seconds: wall-clock time of the whole check.
        stats: the run's ``repro-stats/1`` report dict (phase timings,
            counters, proof sizes, budget status); see
            ``docs/instrumentation.md``.
    """

    def __init__(
        self,
        equivalent,
        counterexample,
        proof,
        empty_clause_id,
        miter,
        cnf,
        engine,
        elapsed_seconds,
        stats=None,
    ):
        self.equivalent = equivalent
        self.counterexample = counterexample
        self.proof = proof
        self.empty_clause_id = empty_clause_id
        self.miter = miter
        self.cnf = cnf
        self.engine = engine
        self.elapsed_seconds = elapsed_seconds
        self.stats = stats

    def __repr__(self):
        if self.equivalent:
            return "CecResult(equivalent=True, proof_clauses=%d)" % (
                len(self.proof)
            )
        if self.equivalent is False:
            return "CecResult(equivalent=False, cex=%r)" % (
                self.counterexample,
            )
        return "CecResult(equivalent=None)"


def verdict_name(equivalent):
    """Stable string form of a three-valued verdict."""
    return {True: "equivalent", False: "not_equivalent",
            None: "undecided"}[equivalent]


def check_equivalence(aig_a, aig_b, options=None, match_names=False,
                      recorder=None, budget=None):
    """Check combinational equivalence of two AIGs.

    Args:
        aig_a, aig_b: circuits with matching input/output counts
            (positional correspondence by default).
        options: :class:`~repro.core.fraig.SweepOptions` overriding the
            engine defaults.
        match_names: permute *aig_b*'s interface by port names before
            building the miter (requires fully named interfaces).
        recorder: optional :class:`~repro.instrument.Recorder`; one is
            created internally when omitted so ``CecResult.stats`` is
            always populated.
        budget: optional :class:`~repro.instrument.Budget`. When it runs
            out before a verdict is reached the result has
            ``equivalent=None`` — never a guessed verdict; verdicts
            reached before exhaustion (a proved merge chain or a
            simulation counterexample) are still reported.

    Returns:
        A :class:`CecResult`.
    """
    recorder = recorder if recorder is not None else Recorder()
    start = time.perf_counter()
    with recorder.phase("cec/miter"):
        miter = build_miter(aig_a, aig_b, match_names=match_names)
    engine = SweepEngine(
        miter.aig, options or SweepOptions(), recorder=recorder,
        budget=budget,
    )
    out_lit = miter.output
    with recorder.phase("cec/sweep"):
        engine.sweep(witness_lit=out_lit)
    with recorder.phase("cec/conclude"):
        result = _conclude(miter, engine, out_lit, budget)
    result.elapsed_seconds = time.perf_counter() - start
    if result.equivalent is False:
        _validate_counterexample(aig_a, aig_b, result.counterexample)
    recorder.gauge("cec/verdict", verdict_name(result.equivalent))
    recorder.gauge("solver/kernel", propagate_kernel())
    if result.proof is not None:
        recorder.gauge("proof/clauses", len(result.proof))
        recorder.gauge("proof/axioms", result.proof.num_axioms)
        recorder.gauge("proof/derived", result.proof.num_derived)
        recorder.gauge("proof/resolutions", result.proof.num_resolutions)
    result.stats = recorder.report(budget=budget)
    return result


def _undecided(miter, engine):
    return CecResult(
        equivalent=None,
        counterexample=None,
        proof=None,
        empty_clause_id=None,
        miter=miter,
        cnf=None,
        engine=engine,
        elapsed_seconds=0.0,
    )


def _conclude(miter, engine, out_lit, budget=None):
    """Turn the post-sweep state into a verdict."""
    if engine.rep_lit(out_lit) == FALSE:
        return _finish_equivalent(miter, engine, out_lit)
    # The output did not merge with constant 0 during the sweep: either the
    # circuits differ (simulation already witnesses it) or a candidate was
    # skipped under resource limits. One final SAT call settles it.
    sig = engine.sim.lit_signature(out_lit)
    if sig:
        pattern_index = (sig & -sig).bit_length() - 1
        cex = engine.sim.pattern(pattern_index)
        return CecResult(
            equivalent=False,
            counterexample=cex,
            proof=None,
            empty_clause_id=None,
            miter=miter,
            cnf=None,
            engine=engine,
            elapsed_seconds=0.0,
        )
    if budget is not None and budget.exhausted:
        # No witness either way and no resources left for the final
        # call: report UNKNOWN rather than risk a wrong verdict.
        return _undecided(miter, engine)
    final = engine.solver.solve(
        assumptions=[engine.enc.lit_to_cnf(out_lit)],
        max_conflicts=None,
        budget=budget,
    )
    if final.status is UNKNOWN:
        return _undecided(miter, engine)
    if final.status is SAT:
        cex = [
            final.model_value(engine.enc.var_of[var])
            for var in miter.aig.inputs
        ]
        return CecResult(
            equivalent=False,
            counterexample=cex,
            proof=None,
            empty_clause_id=None,
            miter=miter,
            cnf=None,
            engine=engine,
            elapsed_seconds=0.0,
        )
    engine.solver.add_clause(
        list(final.final_clause), axiom=False, proof_id=final.proof_id
    )
    return _finish_equivalent(miter, engine, out_lit)


def _finish_equivalent(miter, engine, out_lit):
    """Assert the miter-output unit clause and harvest the refutation."""
    out_cnf = engine.enc.lit_to_cnf(out_lit)
    still_consistent = engine.solver.add_clause([out_cnf])
    if still_consistent:
        # Every route here installed a lemma that falsifies the output
        # literal, so the unit should conflict at level 0; if it did
        # not, one unconditional solve must refute now.
        final = engine.solver.solve()
        if final.status is not UNSAT:
            raise RuntimeError(
                "engine concluded equivalence but the miter is satisfiable"
            )
    proof = engine.proof
    empty_id = proof.find_empty_clause()
    if empty_id is None:
        raise RuntimeError("refutation finished without an empty clause")
    return CecResult(
        equivalent=True,
        counterexample=None,
        proof=proof,
        empty_clause_id=empty_id,
        miter=miter,
        cnf=miter_axioms(engine.enc, out_lit),
        engine=engine,
        elapsed_seconds=0.0,
    )


def _validate_counterexample(aig_a, aig_b, cex):
    out_a = aig_a.evaluate(cex)
    out_b = aig_b.evaluate(cex)
    if out_a == out_b:
        raise RuntimeError(
            "engine produced an invalid counterexample %r" % (cex,)
        )
