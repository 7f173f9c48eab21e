"""Tests for the resolution proof store."""

import pytest

from repro.proof import AXIOM, DERIVED, ProofError, ProofStore, resolve


class TestResolve:
    def test_basic(self):
        assert resolve((1, 2), (-1, 3), 1) == (2, 3)

    def test_symmetric_arguments(self):
        assert resolve((-1, 3), (1, 2), 1) == (2, 3)

    def test_merges_duplicates(self):
        assert resolve((1, 2), (-1, 2), 1) == (2,)

    def test_to_empty(self):
        assert resolve((1,), (-1,), 1) == ()

    def test_missing_pivot(self):
        with pytest.raises(ProofError, match="pivot"):
            resolve((1, 2), (3,), 1)

    def test_same_phase_pivot(self):
        with pytest.raises(ProofError, match="pivot"):
            resolve((1, 2), (1, 3), 1)

    def test_tautological_resolvent_rejected(self):
        with pytest.raises(ProofError, match="tautolog"):
            resolve((1, 2), (-1, -2), 1)


class TestAxioms:
    def test_ids_sequential(self):
        store = ProofStore()
        assert store.add_axiom([1, 2]) == 0
        assert store.add_axiom([3]) == 1

    def test_duplicate_axiom_reuses_id(self):
        store = ProofStore()
        first = store.add_axiom([2, 1])
        second = store.add_axiom([1, 2, 2])
        assert first == second
        assert len(store) == 1

    def test_kind(self):
        store = ProofStore()
        cid = store.add_axiom([1])
        assert store.kind(cid) == AXIOM
        assert store.chain(cid) is None
        assert store.antecedents(cid) == ()


class TestDerived:
    def make_store(self):
        store = ProofStore(validate=True)
        a = store.add_axiom([1, 2])
        b = store.add_axiom([-1, 2])
        return store, a, b

    def test_valid_chain(self):
        store, a, b = self.make_store()
        cid = store.add_derived([2], [a, (1, b)])
        assert store.clause(cid) == (2,)
        assert store.kind(cid) == DERIVED
        assert store.antecedents(cid) == (a, b)

    def test_validation_catches_wrong_clause(self):
        store, a, b = self.make_store()
        with pytest.raises(ProofError, match="replays"):
            store.add_derived([2, 3], [a, (1, b)])

    def test_chain_too_short(self):
        store, a, b = self.make_store()
        with pytest.raises(ProofError, match="two antecedents"):
            store.add_derived([2], [a])

    def test_chain_shape_checked(self):
        store, a, b = self.make_store()
        with pytest.raises(ProofError):
            store.add_derived([2], [a, b])  # second element not a pair

    def test_forward_reference_rejected(self):
        store, a, b = self.make_store()
        with pytest.raises(ProofError, match="not yet derived"):
            store.add_derived([2], [a, (1, 99)])

    def test_replay_chain(self):
        store, a, b = self.make_store()
        assert store.replay_chain([a, (1, b)]) == (2,)

    def test_find_empty_clause(self):
        store = ProofStore(validate=True)
        a = store.add_axiom([1])
        b = store.add_axiom([-1])
        assert store.find_empty_clause() is None
        cid = store.add_derived([], [a, (1, b)])
        assert store.find_empty_clause() == cid

    def test_num_axioms(self):
        store, a, b = self.make_store()
        store.add_derived([2], [a, (1, b)])
        assert store.num_axioms == 2

    def test_multi_step_chain(self):
        store = ProofStore(validate=True)
        c1 = store.add_axiom([1, 2, 3])
        c2 = store.add_axiom([-1, 4])
        c3 = store.add_axiom([-2, 4])
        cid = store.add_derived([3, 4], [c1, (1, c2), (2, c3)])
        assert store.clause(cid) == (3, 4)
