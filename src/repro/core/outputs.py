"""Per-output equivalence analysis.

Whole-miter checking answers "are the circuits equal?"; debugging wants
to know *which outputs* disagree. :func:`check_outputs` runs one sweep
over the shared miter and then settles every output pair individually —
proved pairs report ``equivalent=True`` (their equivalence is part of the
engine's lemma set), refuted pairs carry their own counterexample.
"""

from ..aig.literal import FALSE
from ..aig.miter import build_miter
from ..sat.solver import SAT, UNSAT
from .fraig import SweepEngine, SweepOptions


class OutputVerdict:
    """Status of one output pair.

    Attributes:
        index: output position.
        name: output name (from circuit A, when present).
        equivalent: True / False / None (budget exhausted).
        counterexample: differing input assignment when not equivalent.
    """

    def __init__(self, index, name, equivalent, counterexample):
        self.index = index
        self.name = name
        self.equivalent = equivalent
        self.counterexample = counterexample

    def __repr__(self):
        return "OutputVerdict(%d%s, equivalent=%r)" % (
            self.index,
            ", %r" % self.name if self.name else "",
            self.equivalent,
        )


class OutputsReport:
    """Result of :func:`check_outputs`.

    Attributes:
        verdicts: list of :class:`OutputVerdict`, one per output.
        engine: the shared :class:`~repro.core.fraig.SweepEngine`.
    """

    def __init__(self, verdicts, engine):
        self.verdicts = verdicts
        self.engine = engine

    @property
    def equivalent(self):
        """True when every output pair is proved equivalent."""
        return all(v.equivalent is True for v in self.verdicts)

    def failing(self):
        """Verdicts of the outputs proved different."""
        return [v for v in self.verdicts if v.equivalent is False]

    def __repr__(self):
        good = sum(1 for v in self.verdicts if v.equivalent is True)
        return "OutputsReport(%d/%d outputs equivalent)" % (
            good,
            len(self.verdicts),
        )


def check_outputs(aig_a, aig_b, options=None, recorder=None, budget=None):
    """Check every output pair of two circuits individually.

    One miter and one sweep are shared across all outputs; outputs the
    sweep did not already settle are decided with targeted SAT calls on
    their XOR literals.

    Args:
        recorder: optional :class:`~repro.instrument.Recorder` threaded
            through the shared engine.
        budget: optional :class:`~repro.instrument.Budget`; outputs
            whose targeted SAT call would exceed it report
            ``equivalent=None``.

    Returns:
        An :class:`OutputsReport`.
    """
    options = options or SweepOptions()
    miter = build_miter(aig_a, aig_b)
    engine = SweepEngine(miter.aig, options, recorder=recorder,
                         budget=budget)
    engine.sweep()
    verdicts = []
    for index, xor_lit in enumerate(miter.xor_lits):
        name = aig_a.output_names[index] or aig_b.output_names[index]
        verdicts.append(
            _settle_output(miter, engine, index, name, xor_lit, budget)
        )
    return OutputsReport(verdicts, engine)


def _settle_output(miter, engine, index, name, xor_lit, budget=None):
    if engine.rep_lit(xor_lit) == FALSE:
        return OutputVerdict(index, name, True, None)
    signature = engine.sim.lit_signature(xor_lit)
    if signature:
        pattern = (signature & -signature).bit_length() - 1
        cex = engine.sim.pattern(pattern)
        return OutputVerdict(index, name, False, cex)
    if budget is not None and budget.exhausted:
        return OutputVerdict(index, name, None, None)
    result = engine.solver.solve(
        assumptions=[engine.enc.lit_to_cnf(xor_lit)],
        max_conflicts=engine.options.max_conflicts,
        budget=budget,
    )
    if result.status is UNSAT:
        engine.solver.add_clause(
            list(result.final_clause), axiom=False, proof_id=result.proof_id,
        )
        return OutputVerdict(index, name, True, None)
    if result.status is SAT:
        cex = [
            result.model_value(engine.enc.var_of[var])
            for var in miter.aig.inputs
        ]
        return OutputVerdict(index, name, False, cex)
    return OutputVerdict(index, name, None, None)
