"""Differential tests for batched counterexample refinement.

The sweep engine absorbs each counterexample and its distance-1
neighbours with one resimulation pass and then rebuilds the candidate
class table. The reference is the one-pattern-per-pass path, replayed
here: a fresh :class:`Simulator` with the engine's seed is fed the
engine's refinement patterns one :meth:`~Simulator.add_pattern` at a
time, and the class table is recomputed from the processed roots. The
engine's signatures and class table must match it exactly, while the
engine performs one simulation pass per refinement round.
"""

import pytest

from repro.aig import lit_not
from repro.aig.simulate import Simulator
from repro.circuits import (
    alu,
    alu_mux_first,
    array_multiplier,
    carry_lookahead_adder,
    comparator,
    comparator_subtract,
    kogge_stone_adder,
    parity_chain,
    parity_tree,
    ripple_carry_adder,
    wallace_multiplier,
)
from repro.core.cec import check_equivalence
from repro.core.certify import certify
from repro.core.fraig import SweepOptions
from repro.instrument.recorder import validate_report

# (name, builder) pairs spanning the generator suite; sim_words=0 makes
# every node start in one candidate class, maximizing refinement
# pressure.
PAIRS = [
    ("adders4", lambda: (ripple_carry_adder(4), kogge_stone_adder(4))),
    ("adders8", lambda: (ripple_carry_adder(8), carry_lookahead_adder(8))),
    ("mult3", lambda: (array_multiplier(3), wallace_multiplier(3))),
    ("parity8", lambda: (parity_tree(8), parity_chain(8))),
    ("compare6", lambda: (comparator(6), comparator_subtract(6))),
    ("alu3", lambda: (alu(3), alu_mux_first(3))),
]


def _options(**overrides):
    base = dict(sim_words=0, cex_neighbors=3)
    base.update(overrides)
    return SweepOptions(**base)


def _one_pattern_per_pass(engine):
    """Replay the engine's refinement one pattern per simulation pass.

    Returns the reference simulator and the normalized signature of
    every processed root under it, in processed order.
    """
    options = engine.options
    reference = Simulator(
        engine.aig, num_words=options.sim_words, seed=options.seed
    )
    for k in range(reference.num_patterns, engine.sim.num_patterns):
        reference.add_pattern(engine.sim.pattern(k))
    mask = reference.mask
    norms = []
    for var in engine._processed:
        sig = reference.signatures[var]
        norms.append(sig ^ mask if sig & 1 else sig)
    return reference, norms


def _assert_matches_reference(engine):
    reference, norms = _one_pattern_per_pass(engine)
    table = {}
    for norm, var in zip(norms, engine._processed):
        table.setdefault(norm, var)
    assert engine.sim.num_patterns == reference.num_patterns
    assert engine.sim.signatures == reference.signatures
    assert engine._class_table == table
    initial = engine.options.sim_words * Simulator.WORD_BITS
    assert engine.stats.refine_patterns == reference.num_patterns - initial
    return reference, norms


@pytest.mark.parametrize("name,build", PAIRS, ids=[p[0] for p in PAIRS])
class TestBatchedMatchesLegacy:
    def test_bit_identical_state_and_verdict(self, name, build):
        aig_a, aig_b = build()
        result = check_equivalence(aig_a, aig_b, _options())
        assert result.equivalent is True
        _assert_matches_reference(result.engine)
        certify(result)

    def test_batched_does_fewer_simulation_passes(self, name, build):
        aig_a, aig_b = build()
        result = check_equivalence(aig_a, aig_b, _options())
        stats = result.engine.stats
        if stats.refinements == 0:
            pytest.skip("pair produced no refinements")
        reference, _ = _assert_matches_reference(result.engine)
        # The reference pays one pass per pattern (cex + 3 neighbours);
        # the engine pays one pass per refinement round. With
        # sim_words=0 there is no initial random pass.
        assert reference.num_resimulations == stats.refine_patterns
        assert stats.sim_passes == stats.refinements
        assert stats.sim_passes < reference.num_resimulations


class TestSkippedCandidates:
    def test_multi_member_classes_match_reference(self):
        # A tiny per-call conflict budget skips candidates, so some
        # processed roots keep sharing a signature with their class
        # root and the table has classes with more than one member.
        # sim_words=1 also puts random patterns ahead of the
        # refinement patterns.
        aig_a, aig_b = ripple_carry_adder(8), carry_lookahead_adder(8)
        result = check_equivalence(
            aig_a, aig_b, _options(sim_words=1, max_conflicts=2)
        )
        assert result.equivalent is True
        engine = result.engine
        assert engine.stats.skipped_candidates > 0
        assert engine.stats.refinements > 0
        _, norms = _assert_matches_reference(engine)
        assert len(set(norms)) < len(norms)
        certify(result)


class TestNonEquivalentPairs:
    @pytest.mark.parametrize("cex_neighbors", [0, 1, 4])
    def test_fault_detected_in_every_mode(self, cex_neighbors):
        aig_a = ripple_carry_adder(4)
        aig_b = ripple_carry_adder(4).copy()
        aig_b.set_output(2, lit_not(aig_b.outputs[2]))
        result = check_equivalence(
            aig_a, aig_b, _options(cex_neighbors=cex_neighbors)
        )
        assert result.equivalent is False
        assert aig_a.evaluate(result.counterexample) != aig_b.evaluate(
            result.counterexample
        )


class TestRefineBookkeeping:
    def test_flush_counters(self):
        aig_a, aig_b = ripple_carry_adder(8), kogge_stone_adder(8)
        result = check_equivalence(aig_a, aig_b, _options())
        stats = result.engine.stats
        assert stats.sim_passes == stats.refinements
        assert stats.refine_patterns == stats.refinements * 4  # cex + 3
        assert stats.sim_passes == result.engine.sim.num_resimulations
        # Stats surface through the repro-stats/1 report as counters.
        counters = result.stats["counters"]
        assert counters["sweep/sim_passes"] == stats.sim_passes
        assert counters["sweep/refinements"] == stats.refinements
        assert counters["sweep/refine_patterns"] == stats.refine_patterns
        refine = result.stats["phases"]["sweep/refine-batch"]
        assert refine["count"] == stats.refinements

    def test_rca16_ks16_counts(self):
        # Pinned counts of the refinement-heavy pair: one simulation
        # pass per refinement round, each absorbing the counterexample
        # and its 4 neighbours.
        aig_a, aig_b = ripple_carry_adder(16), kogge_stone_adder(16)
        result = check_equivalence(aig_a, aig_b, _options(cex_neighbors=4))
        assert result.equivalent is True
        stats = result.engine.stats
        assert (stats.refinements, stats.refine_patterns, stats.sim_passes,
                stats.sat_calls) == (61, 305, 61, 204)
        report = validate_report(result.stats)
        assert "sweep/refine-batch" in report["phases"]
        assert report["counters"]["sweep/sim_passes"] == 61
