"""Tests for per-output equivalence analysis."""

import pytest

from repro.aig import lit_not
from repro.circuits import (
    comparator,
    comparator_subtract,
    ripple_carry_adder,
    kogge_stone_adder,
)
from repro.core import SweepOptions, check_outputs
from repro.proof import check_proof


class TestAllEquivalent:
    def test_report(self):
        report = check_outputs(
            ripple_carry_adder(4), kogge_stone_adder(4)
        )
        assert report.equivalent
        assert len(report.verdicts) == 5
        assert report.failing() == []
        for verdict in report.verdicts:
            assert verdict.equivalent is True
            assert verdict.counterexample is None

    def test_names_carried(self):
        report = check_outputs(comparator(3), comparator_subtract(3))
        assert [v.name for v in report.verdicts] == ["lt", "eq", "gt"]

    def test_repr(self):
        report = check_outputs(comparator(3), comparator_subtract(3))
        assert "3/3" in repr(report)


class TestPartialFaults:
    def _faulty(self, index):
        bad = comparator_subtract(4).copy()
        bad.set_output(index, lit_not(bad.outputs[index]))
        return bad

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_single_flip_isolated(self, index):
        good = comparator(4)
        report = check_outputs(good, self._faulty(index))
        assert not report.equivalent
        failing = report.failing()
        assert [v.index for v in failing] == [index]
        bad = self._faulty(index)
        for verdict in failing:
            cex = verdict.counterexample
            assert (
                good.evaluate(cex)[verdict.index]
                != bad.evaluate(cex)[verdict.index]
            )

    def test_good_outputs_still_proved(self):
        good = comparator(4)
        report = check_outputs(good, self._faulty(1))
        statuses = [v.equivalent for v in report.verdicts]
        assert statuses == [True, False, True]

    def test_multiple_faults(self):
        bad = comparator_subtract(4).copy()
        bad.set_output(0, lit_not(bad.outputs[0]))
        bad.set_output(2, lit_not(bad.outputs[2]))
        report = check_outputs(comparator(4), bad)
        assert [v.index for v in report.failing()] == [0, 2]


class TestEngineSharing:
    def test_single_engine_used(self):
        report = check_outputs(
            ripple_carry_adder(6), kogge_stone_adder(6)
        )
        # The sweep proved output equality; the report's engine carries a
        # proof with all the lemmas; the proof must check.
        check_proof(report.engine.proof, require_empty=False)

    def test_options_forwarded(self):
        options = SweepOptions(structural_mode="sat")
        report = check_outputs(comparator(3), comparator_subtract(3), options)
        assert report.engine.options is options
        assert report.equivalent


class TestEquivalenceClasses:
    def test_classes_are_sound(self):
        from repro.aig import build_miter
        from repro.core.fraig import SweepEngine, SweepOptions as Opts
        from repro.aig import Simulator

        miter = build_miter(comparator(4), comparator_subtract(4))
        engine = SweepEngine(miter.aig, Opts())
        engine.sweep()
        classes = engine.equivalence_classes()
        assert classes, "sweeping these circuits must merge something"
        # Validate membership semantically on fresh random patterns.
        sim = Simulator(miter.aig, num_words=4, seed=999)
        for root, members in classes.items():
            root_sig = sim.lit_signature(root)
            for member in members:
                assert sim.lit_signature(member) == root_sig

    def test_singletons_omitted(self):
        from repro.aig import build_miter
        from repro.core.fraig import SweepEngine

        miter = build_miter(comparator(3), comparator_subtract(3))
        engine = SweepEngine(miter.aig)
        engine.sweep()
        classes = engine.equivalence_classes()
        for members in classes.values():
            assert len(members) >= 2


class TestCoreAxioms:
    def test_core_subset_of_axioms(self):
        from repro import check_equivalence
        from repro.proof import AXIOM
        from repro.proof.stats import core_axioms

        result = check_equivalence(comparator(4), comparator_subtract(4))
        core = core_axioms(result.proof)
        assert core
        for clause_id in core:
            assert result.proof.kind(clause_id) == AXIOM
        total_axioms = result.proof.num_axioms
        assert len(core) <= total_axioms
