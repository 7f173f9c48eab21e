"""Monolithic SAT baseline: one proof-logging solve of the whole miter.

This is the comparison point the paper measures against: encode the miter
to CNF, assert the output unit clause, and hand everything to a CDCL
solver with proof logging. Correct and certificate-producing, but blind
to the structural similarity of the two circuits — the sweeping engine's
advantage is exactly that it exploits it.
"""

import time

from ..aig.miter import build_miter
from ..cnf.tseitin import miter_axioms, tseitin_encode
from ..instrument import Recorder
from ..proof.store import ProofStore
from ..sat.solver import SAT, UNKNOWN, Solver, propagate_kernel


class MonolithicResult:
    """Outcome of a monolithic miter solve.

    Attributes:
        equivalent: True / False / None (budget exhausted).
        counterexample: input assignment on non-equivalence.
        proof: :class:`~repro.proof.store.ProofStore` on equivalence
            (when logging was enabled).
        cnf: the refuted axiom set (miter CNF + output unit).
        miter: the :class:`~repro.aig.miter.Miter` that was solved.
        solver_stats: the solver's counters.
        elapsed_seconds: wall-clock solve time (encoding included).
        stats: the run's ``repro-stats/1`` report dict.
    """

    def __init__(
        self, equivalent, counterexample, proof, cnf, solver_stats,
        elapsed_seconds, stats=None,
    ):
        self.equivalent = equivalent
        self.counterexample = counterexample
        self.proof = proof
        self.cnf = cnf
        self.solver_stats = solver_stats
        self.elapsed_seconds = elapsed_seconds
        self.stats = stats
        self.miter = None

    def __repr__(self):
        return "MonolithicResult(equivalent=%r)" % (self.equivalent,)


def monolithic_check(aig_a, aig_b, proof=True, max_conflicts=None,
                     validate_proof=False, recorder=None, budget=None):
    """Check equivalence with a single monolithic SAT call.

    Args:
        aig_a, aig_b: input-compatible circuits.
        proof: enable resolution-proof logging.
        max_conflicts: optional conflict budget (None = unlimited).
        validate_proof: validate derivations at insertion (tests only).
        recorder: optional :class:`~repro.instrument.Recorder` receiving
            encode/solve phase timings and solver counters.
        budget: optional :class:`~repro.instrument.Budget`; exhaustion
            yields ``equivalent=None``.

    Returns:
        A :class:`MonolithicResult`.
    """
    rec = recorder if recorder is not None else Recorder()
    start = time.perf_counter()
    with rec.phase("monolithic/encode"):
        miter = build_miter(aig_a, aig_b)
        enc = tseitin_encode(miter.aig)
        cnf = miter_axioms(enc, miter.output)
    store = ProofStore(validate=validate_proof, recorder=rec) \
        if proof else None
    solver = Solver(proof=store, recorder=rec, budget=budget)
    consistent = True
    with rec.phase("monolithic/load"):
        for clause in cnf.clauses:
            if not solver.add_clause(clause):
                consistent = False
                break
    if consistent:
        with rec.phase("monolithic/solve"):
            result = solver.solve(max_conflicts=max_conflicts)
        status = result.status
    else:
        status = False
    elapsed = time.perf_counter() - start
    if status is SAT:
        cex = [
            result.model_value(enc.var_of[var]) for var in miter.aig.inputs
        ]
        out_a = aig_a.evaluate(cex)
        out_b = aig_b.evaluate(cex)
        if out_a == out_b:
            raise RuntimeError("monolithic counterexample invalid")
        outcome = MonolithicResult(
            False, cex, None, cnf, solver.stats, elapsed
        )
    elif status is UNKNOWN:
        outcome = MonolithicResult(
            None, None, None, cnf, solver.stats, elapsed
        )
    else:
        outcome = MonolithicResult(
            True, None, store, cnf, solver.stats, elapsed
        )
    rec.gauge("solver/kernel", propagate_kernel())
    if store is not None:
        rec.gauge("proof/clauses", len(store))
        rec.gauge("proof/axioms", store.num_axioms)
        rec.gauge("proof/derived", store.num_derived)
        rec.gauge("proof/resolutions", store.num_resolutions)
    outcome.miter = miter
    outcome.stats = rec.report(budget=budget)
    return outcome
