"""The sweep stops at the first simulation witness of a difference.

``check_equivalence`` passes the miter output to ``SweepEngine.sweep``,
which stops as soon as that literal's simulation signature is nonzero.
Refinement only appends patterns, so the counterexample is the lowest
witnessing pattern of a full sweep, bit for bit. ``check_outputs`` must
settle every output and keeps the full sweep.
"""

import random

import pytest

from repro.aig import build_miter, lit_not
from repro.circuits import (
    array_multiplier,
    comparator,
    comparator_subtract,
    kogge_stone_adder,
    ripple_carry_adder,
    wallace_multiplier,
)
from repro.circuits.benchmarks import SUITE
from repro.circuits.faults import FAULT_KINDS, enumerate_faults, inject
from repro.core import SweepOptions, check_outputs
from repro.core.cec import check_equivalence
from repro.core.fraig import SweepEngine
from repro.instrument import Recorder
from repro.instrument.recorder import validate_report

SMALL_PAIRS = [
    ("rca4-ks4", ripple_carry_adder(4), kogge_stone_adder(4)),
    ("cmp4-sub4", comparator(4), comparator_subtract(4)),
    ("amul3-wmul3", array_multiplier(3), wallace_multiplier(3)),
]


def _output_flip(aig, index=0):
    mutant = aig.copy()
    mutant.set_output(index, lit_not(mutant.outputs[index]))
    return mutant


def _full_sweep(aig_a, aig_b, options=None, recorder=None):
    """A sweep without the stop, and the lowest pattern on which its
    miter output is 1 (None when simulation never witnessed one)."""
    miter = build_miter(aig_a, aig_b)
    engine = SweepEngine(miter.aig, options, recorder=recorder)
    engine.sweep()
    sig = engine.sim.lit_signature(miter.output)
    if not sig:
        return engine, None
    return engine, engine.sim.pattern((sig & -sig).bit_length() - 1)


def _assert_matches_full_sweep(aig_a, aig_b, options=None):
    result = check_equivalence(aig_a, aig_b, options)
    engine, witness = _full_sweep(aig_a, aig_b, options)
    if witness is None:
        # Nothing to stop at: the stopped run is the full sweep.
        assert (result.engine.stats.nodes_processed
                == engine.stats.nodes_processed)
        return result
    assert result.equivalent is False
    assert result.counterexample == witness
    return result


@pytest.mark.parametrize("pair", SUITE, ids=lambda pair: pair.name)
def test_output_flip_stops_before_the_first_and(pair):
    aig_a, aig_b = pair.build()
    result = _assert_matches_full_sweep(aig_a, _output_flip(aig_b))
    assert result.equivalent is False
    counters = result.stats["counters"]
    assert counters["sweep/nodes"] == 0
    assert counters["sweep/sat_calls"] == 0


def _fault_mutants():
    """One mutant per fault kind of each small pair."""
    for name, aig_a, aig_b in SMALL_PAIRS:
        faults = enumerate_faults(
            aig_b, FAULT_KINDS, rng=random.Random(name), per_kind=1,
        )
        for kind in FAULT_KINDS:
            fault = next(fault for fault in faults if fault.kind == kind)
            yield "%s~%s" % (name, kind), aig_a, inject(aig_b, fault)


FAULT_MUTANTS = list(_fault_mutants())


@pytest.mark.parametrize("sim_words", [4, 0])
@pytest.mark.parametrize(
    "aig_a,mutant", [mutant[1:] for mutant in FAULT_MUTANTS],
    ids=[mutant[0] for mutant in FAULT_MUTANTS],
)
def test_every_fault_kind_gets_the_full_sweeps_counterexample(
    aig_a, mutant, sim_words,
):
    # Without initial patterns only refinement patterns can witness the
    # difference, so the sweep stops after a refinement, with the
    # pattern a full sweep ends with many refinements later.
    options = SweepOptions(sim_words=sim_words)
    result = _assert_matches_full_sweep(aig_a, mutant, options)
    assert result.equivalent is False
    if sim_words == 0:
        assert result.engine.stats.refinements >= 1


def test_stop_after_the_first_refinement():
    # With no initial patterns every signature is 0, so the output can
    # only be witnessed by a refinement pattern: the first one does.
    aig_a, aig_b = ripple_carry_adder(6), kogge_stone_adder(6)
    mutant = _output_flip(aig_b, 3)
    options = SweepOptions(sim_words=0)
    result = _assert_matches_full_sweep(aig_a, mutant, options)
    stats = result.engine.stats
    assert stats.refinements == 1
    assert stats.sat_calls_sat == 1
    assert 0 < stats.nodes_processed < len(list(
        build_miter(aig_a, mutant).aig.and_vars()))
    full, _ = _full_sweep(aig_a, mutant, options)
    assert full.stats.refinements > 1


@pytest.mark.parametrize("sim_words", [4, 0])
def test_stopped_report_keeps_every_sweep_key(sim_words):
    aig_a, aig_b = ripple_carry_adder(6), kogge_stone_adder(6)
    mutant = _output_flip(aig_b, 2)
    options = SweepOptions(sim_words=sim_words)
    stopped = validate_report(
        check_equivalence(aig_a, mutant, options).stats)
    recorder = Recorder()
    _full_sweep(aig_a, mutant, options, recorder=recorder)
    full = recorder.report()
    for section in ("phases", "counters", "gauges"):
        expected = {key for key in full[section]
                    if key.startswith("sweep/")}
        assert expected <= set(stopped[section]), section
    assert "proof/clauses" in stopped["gauges"]
    assert stopped["gauges"]["cec/verdict"] == "not_equivalent"


def test_check_outputs_sweeps_every_and_node():
    aig_a, aig_b = ripple_carry_adder(6), kogge_stone_adder(6)
    mutant = _output_flip(aig_b, 2)
    report = check_outputs(aig_a, mutant)
    assert [verdict.index for verdict in report.failing()] == [2]
    num_ands = len(list(report.engine.aig.and_vars()))
    assert report.engine.stats.nodes_processed == num_ands
