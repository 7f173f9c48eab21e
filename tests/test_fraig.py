"""Tests for the sweep engine internals."""

import pytest

from repro import check_equivalence
from repro.aig import AIG, FALSE, build_miter
from repro.circuits import (
    carry_lookahead_adder,
    comparator,
    comparator_subtract,
    kogge_stone_adder,
    parity_chain,
    parity_tree,
    ripple_carry_adder,
)
from repro.core.fraig import SweepEngine, SweepOptions
from repro.proof import check_proof


def sweep_miter(aig_a, aig_b, **overrides):
    options = SweepOptions(validate_proof=True, **overrides)
    miter = build_miter(aig_a, aig_b)
    engine = SweepEngine(miter.aig, options)
    engine.sweep()
    return miter, engine


class TestOptions:
    def test_bad_structural_mode(self):
        with pytest.raises(ValueError):
            SweepOptions(structural_mode="magic")

    def test_defaults(self):
        options = SweepOptions()
        assert options.structural_mode == "resolution"
        assert options.max_conflicts is None
        assert options.validate_proof is False

    @pytest.mark.parametrize("field,value", [
        ("sim_words", "4"),
        ("sim_words", -1),
        ("sim_words", 1.0),
        ("sim_words", True),
        ("cex_neighbors", -2),
        ("cex_neighbors", "4"),
        ("seed", "2007"),
        ("seed", 1.5),
        ("seed", False),
        ("max_conflicts", "5"),
        ("max_conflicts", -1),
        ("max_conflicts", True),
        ("validate_proof", None),
    ])
    def test_rejects_wrong_type_or_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            SweepOptions(**{field: value})

    def test_accepts_boundary_values(self):
        options = SweepOptions(
            sim_words=0, cex_neighbors=0, seed=-3, max_conflicts=0,
            validate_proof=True,
        )
        assert options.max_conflicts == 0
        assert SweepOptions(max_conflicts=None).max_conflicts is None


class TestSweepBasics:
    def test_output_merges_to_constant_on_equivalence(self):
        miter, engine = sweep_miter(
            ripple_carry_adder(4), carry_lookahead_adder(4)
        )
        assert engine.rep_lit(miter.output) == FALSE

    def test_output_pairs_all_proven(self):
        miter, engine = sweep_miter(
            comparator(4), comparator_subtract(4)
        )
        for lit_a, lit_b in miter.output_pairs:
            assert engine.proven_equiv(lit_a, lit_b)

    def test_sweep_idempotent(self):
        miter, engine = sweep_miter(parity_tree(6), parity_chain(6))
        nodes = engine.stats.nodes_processed
        engine.sweep()
        assert engine.stats.nodes_processed == nodes

    def test_proofs_check_midway(self):
        miter, engine = sweep_miter(
            ripple_carry_adder(3), carry_lookahead_adder(3)
        )
        result = check_proof(engine.proof, require_empty=False)
        assert result.num_derived > 0

    def test_inconsistent_simulation_detected_by_sat(self):
        """Nodes with equal signatures but different functions must be
        separated by a refinement, not merged."""
        aig = AIG()
        a, b = aig.add_inputs(2)
        n1 = aig.add_and(a, b)
        n2 = aig.add_or(a, b)  # differs from n1 only on 01/10 inputs
        aig.add_output(n1)
        aig.add_output(n2)
        engine = SweepEngine(aig, SweepOptions(sim_words=0, validate_proof=True))
        # Force colliding signatures: zero patterns means all sigs are 0.
        engine.sweep()
        assert not engine.proven_equiv(aig.outputs[0], aig.outputs[1])


class TestRefinement:
    def test_refinement_counter(self):
        # Parity chains have highly structured signatures; adders with
        # random sims of one word tend to need refinements.
        _, engine = sweep_miter(
            ripple_carry_adder(8), carry_lookahead_adder(8), sim_words=1
        )
        assert engine.stats.sat_calls_sat == engine.stats.refinements

    def test_more_simulation_fewer_calls(self):
        _, small = sweep_miter(
            ripple_carry_adder(8), carry_lookahead_adder(8), sim_words=1,
        )
        _, large = sweep_miter(
            ripple_carry_adder(8), carry_lookahead_adder(8), sim_words=8,
        )
        assert (
            large.stats.sat_calls_sat <= small.stats.sat_calls_sat
        )


class TestAblationModes:
    PAIR = staticmethod(
        lambda: (comparator(5), comparator_subtract(5))
    )

    def test_structural_off_more_sat_merges(self):
        a, b = self.PAIR()
        _, with_structural = sweep_miter(a, b)
        a, b = self.PAIR()
        _, without = sweep_miter(a, b, structural_mode="off")
        assert without.stats.structural_merges == 0
        assert (
            without.stats.sat_merges
            >= with_structural.stats.sat_merges
        )
        assert without.stats.sat_calls > with_structural.stats.sat_calls

    def test_structural_sat_mode_merges_match(self):
        a, b = self.PAIR()
        _, resolution = sweep_miter(a, b)
        a, b = self.PAIR()
        _, via_sat = sweep_miter(a, b, structural_mode="sat")
        total_res = (
            resolution.stats.structural_merges + resolution.stats.sat_merges
        )
        total_sat = via_sat.stats.structural_merges + via_sat.stats.sat_merges
        assert total_res == total_sat


class TestStatsAccounting:
    def test_sat_call_breakdown_sums(self):
        _, engine = sweep_miter(
            ripple_carry_adder(6), carry_lookahead_adder(6)
        )
        stats = engine.stats
        assert stats.sat_calls == (
            stats.sat_calls_sat
            + stats.sat_calls_unsat
            + stats.sat_calls_unknown
        )

    def test_nodes_processed_counts_ands(self):
        miter, engine = sweep_miter(parity_tree(5), parity_chain(5))
        assert engine.stats.nodes_processed == miter.aig.num_ands

    def test_repr(self):
        _, engine = sweep_miter(parity_tree(3), parity_chain(3))
        assert "sat_calls" in repr(engine.stats)


class TestCexNeighbors:
    def test_option_accepted_and_correct(self):
        result = check_equivalence(
            ripple_carry_adder(8),
            kogge_stone_adder(8),
            SweepOptions(cex_neighbors=4, validate_proof=True),
        )
        assert result.equivalent is True

    def test_neighbors_reduce_refinements(self):
        plain = check_equivalence(
            ripple_carry_adder(16),
            kogge_stone_adder(16),
            SweepOptions(sim_words=1, cex_neighbors=0),
        )
        boosted = check_equivalence(
            ripple_carry_adder(16),
            kogge_stone_adder(16),
            SweepOptions(sim_words=1, cex_neighbors=8),
        )
        assert plain.equivalent and boosted.equivalent
        assert (
            boosted.engine.stats.refinements
            <= plain.engine.stats.refinements
        )
