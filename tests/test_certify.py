"""Tests for end-to-end certification."""

import os

import pytest

from repro import check_equivalence
from repro.aig import AIG, lit_not, read_aag
from repro.circuits import parity_chain, parity_tree, ripple_carry_adder, \
    kogge_stone_adder
from repro.circuits.faults import Fault, inject
from repro.core import CertificationError, certify, result_from_dict, \
    result_to_dict
from repro.core.cec import CecResult

DATA = os.path.join(os.path.dirname(__file__), "..", "examples", "data")


def data_pair(name):
    return (read_aag(os.path.join(DATA, name + "_a.aag")),
            read_aag(os.path.join(DATA, name + "_b.aag")))


def served(result):
    """*result* as a client receives it: through its JSON document."""
    return result_from_dict(result_to_dict(result))


def two_input(gate):
    aig = AIG()
    a, b = aig.add_input(), aig.add_input()
    aig.add_output(gate(aig, a, b))
    return aig


class TestCertifyEquivalence:
    def test_valid_certificate(self):
        result = check_equivalence(
            ripple_carry_adder(4), kogge_stone_adder(4)
        )
        check = certify(result)
        assert check.empty_clause_id is not None

    def test_rup_cross_check(self):
        result = check_equivalence(parity_tree(6), parity_chain(6))
        certify(result, rup=True)

    def test_tampered_proof_rejected(self):
        result = check_equivalence(
            ripple_carry_adder(3), kogge_stone_adder(3)
        )
        # Tamper with a derived clause.
        store = result.proof
        for cid in store.ids():
            if store.kind(cid) == "derived" and store.clause(cid):
                store._clauses[cid] = tuple(
                    -lit for lit in store.clause(cid)
                )
                break
        with pytest.raises(CertificationError, match="resolution check"):
            certify(result)

    def test_foreign_axiom_rejected(self):
        result = check_equivalence(parity_tree(4), parity_chain(4))
        result.proof.add_axiom([991, 992])
        with pytest.raises(CertificationError):
            certify(result)

    def test_missing_proof_rejected(self):
        # A document can arrive without its proof (a cache-put, a
        # foreign server): the verdict alone certifies nothing.
        result = check_equivalence(parity_tree(4), parity_chain(4))
        assert result.equivalent is True
        result.proof = None
        with pytest.raises(CertificationError, match="no proof"):
            certify(result)


class TestCertifyNonEquivalence:
    def test_valid_counterexample(self):
        bad = parity_chain(5).copy()
        bad.set_output(0, lit_not(bad.outputs[0]))
        result = check_equivalence(parity_tree(5), bad)
        assert certify(result) is True

    def test_bogus_counterexample_rejected(self):
        bad = parity_chain(5).copy()
        bad.set_output(0, lit_not(bad.outputs[0]))
        result = check_equivalence(parity_tree(5), bad)
        result.counterexample = [1 - b for b in result.counterexample]
        # Flipping all inputs of a parity pair still differs; craft a
        # genuinely non-firing witness instead.
        result.counterexample = None
        with pytest.raises(CertificationError, match="witness"):
            certify(result)

    def test_non_firing_witness_rejected(self):
        bad = parity_chain(5).copy()
        bad.set_output(0, lit_not(bad.outputs[0]))
        good = parity_tree(5)
        result = check_equivalence(good, bad)
        # Build a result whose miter is of two EQUAL circuits, with a
        # stale counterexample attached.
        equal = check_equivalence(good, parity_chain(5))
        fake = CecResult(
            equivalent=False,
            counterexample=result.counterexample,
            proof=None,
            empty_clause_id=None,
            miter=equal.miter,
            cnf=None,
            engine=equal.engine,
            elapsed_seconds=0.0,
        )
        with pytest.raises(CertificationError, match="does not set"):
            certify(fake)

    def test_undecided_rejected(self):
        result = check_equivalence(parity_tree(4), parity_chain(4))
        result.equivalent = None
        with pytest.raises(CertificationError, match="undecided"):
            certify(result)


class TestCertifyAgainstThePair:
    """``certify(result, pair=(A, B))`` binds a result to its query."""

    def test_another_querys_certificate_is_rejected(self):
        add08_a, add08_b = data_pair("add08")
        mutant = inject(add08_b, Fault("output_flip", 0))
        assert check_equivalence(add08_a, mutant).equivalent is False
        forged = served(check_equivalence(*data_pair("cmp10")))
        certify(forged)  # valid on its own ...
        with pytest.raises(CertificationError, match="another query"):
            certify(forged, pair=(add08_a, mutant))  # ... not for add08

    def test_the_pair_and_its_swap_certify(self):
        aig_a, aig_b = data_pair("add08")
        result = served(check_equivalence(aig_a, aig_b))
        certify(result, pair=(aig_a, aig_b))
        # The cache serves (B, A) from the (A, B) entry.
        certify(result, pair=(aig_b, aig_a))

    def test_counterexample_is_checked_on_the_pair(self):
        and_gate = two_input(lambda aig, a, b: aig.add_and(a, b))
        or_gate = two_input(lambda aig, a, b: aig.add_or(a, b))
        result = served(check_equivalence(and_gate, or_gate))
        assert certify(result, pair=(and_gate, or_gate)) is True
        assert certify(result, pair=(or_gate, and_gate)) is True
        result.counterexample = [1, 1]  # AND and OR agree here
        with pytest.raises(CertificationError, match="does not separate"):
            certify(result, pair=(and_gate, or_gate))

    def test_counterexample_of_another_query_is_rejected(self):
        and_gate = two_input(lambda aig, a, b: aig.add_and(a, b))
        or_gate = two_input(lambda aig, a, b: aig.add_or(a, b))
        xor_gate = two_input(lambda aig, a, b: aig.add_xor(a, b))
        result = served(check_equivalence(and_gate, xor_gate))
        with pytest.raises(CertificationError, match="another query"):
            certify(result, pair=(and_gate, or_gate))

    def test_a_pair_without_a_miter_is_rejected(self):
        add08_a, _ = data_pair("add08")
        cmp10_a, _ = data_pair("cmp10")
        assert add08_a.num_inputs != cmp10_a.num_inputs
        result = served(check_equivalence(*data_pair("add08")))
        with pytest.raises(CertificationError, match="no miter"):
            certify(result, pair=(add08_a, cmp10_a))
