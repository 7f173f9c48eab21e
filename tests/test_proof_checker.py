"""Tests for the independent resolution checker (and its mutation-hardness)."""

import pytest

from repro.instrument import Budget, BudgetExhausted, Recorder
from repro.proof import (
    AXIOM,
    ProofError,
    ProofStore,
    check_proof,
    check_refutation_of,
    proof_stats,
)
from repro.cnf import CNF


def refutation_store():
    """A small complete refutation of {(1 2), (1 -2), (-1 2), (-1 -2)}."""
    store = ProofStore()
    c1 = store.add_axiom([1, 2])
    c2 = store.add_axiom([1, -2])
    c3 = store.add_axiom([-1, 2])
    c4 = store.add_axiom([-1, -2])
    u1 = store.add_derived([1], [c1, (2, c2)])
    u2 = store.add_derived([-1], [c3, (2, c4)])
    store.add_derived([], [u1, (1, u2)])
    return store


AXIOMS = [[1, 2], [1, -2], [-1, 2], [-1, -2]]


def wide_refutation(blocks, width=4):
    """A wide refutation: *blocks* independent unit derivations over
    disjoint variables (each a chain of *width* resolutions), plus one
    completing empty-clause derivation. Returns ``(store, axioms)``."""
    store = ProofStore()
    axioms = []
    for b in range(blocks):
        base = (width + 2) * b + 1
        xs = list(range(base, base + width + 1))
        x = xs[0]
        big = [x] + xs[1:]
        first = store.add_axiom(big)
        axioms.append(big)
        chain = [first]
        for k in range(width, 0, -1):
            clause = [x] + xs[1:k] + [-xs[k]]
            step = store.add_axiom(clause)
            axioms.append(clause)
            chain.append((xs[k], step))
            store.add_derived(sorted([x] + xs[1:k]), list(chain))
        if b == 0:
            neg_a = store.add_axiom([-x, xs[1]])
            neg_b = store.add_axiom([-x, -xs[1]])
            axioms += [[-x, xs[1]], [-x, -xs[1]]]
            neg_unit = store.add_derived([-x], [neg_a, (xs[1], neg_b)])
            pos_unit = store.add_derived([x], list(chain))
            store.add_derived([], [pos_unit, (x, neg_unit)])
    return store, axioms


def corrupt_clause(store, target, extra_lit=999999):
    """Copy *store* with clause *target* claiming one extra literal."""
    bad = ProofStore()
    for clause_id in store.ids():
        if store.kind(clause_id) == AXIOM:
            bad.add_axiom(store.clause(clause_id))
        elif clause_id == target:
            bad.add_derived(
                list(store.clause(clause_id)) + [extra_lit],
                store.chain(clause_id),
            )
        else:
            bad.add_derived(store.clause(clause_id), store.chain(clause_id))
    return bad


def first_derived_after(store, start):
    for clause_id in range(start, len(store)):
        if store.kind(clause_id) != AXIOM:
            return clause_id
    raise AssertionError("no derived clause after %d" % start)


class TestAccepts:
    def test_valid_refutation(self):
        result = check_proof(refutation_store(), axioms=AXIOMS)
        assert result.num_axioms == 4
        assert result.num_derived == 3
        assert result.num_resolutions == 3
        assert result.empty_clause_id is not None

    def test_without_axiom_set(self):
        check_proof(refutation_store())

    def test_non_refutation_allowed_when_not_required(self):
        store = ProofStore()
        a = store.add_axiom([1, 2])
        b = store.add_axiom([-1, 2])
        store.add_derived([2], [a, (1, b)])
        result = check_proof(store, require_empty=False)
        assert result.empty_clause_id is None

    def test_check_refutation_of_cnf(self):
        cnf = CNF(clauses=AXIOMS)
        check_refutation_of(refutation_store(), cnf)

    def test_wide_refutation_counts(self):
        store, axioms = wide_refutation(40)
        result = check_proof(store, axioms=axioms)
        # Per block: 1 + 4 axioms, 4 derived with 1..4 resolutions;
        # block 0 adds 2 axioms and 3 derived (1 + 4 + 1 resolutions).
        assert result.num_axioms == 40 * 5 + 2
        assert result.num_derived == 40 * 4 + 3
        assert result.num_resolutions == 40 * 10 + 6
        assert result.empty_clause_id == 13  # block 0 ends at id 13

    def test_literals_beyond_32_bits(self):
        store = ProofStore()
        a = store.add_axiom([2 ** 40, 1])
        b = store.add_axiom([-(2 ** 40)])
        store.add_derived([1], [a, (2 ** 40, b)])
        result = check_proof(store, require_empty=False)
        assert result.num_derived == 1


class TestRejects:
    def test_foreign_axiom(self):
        with pytest.raises(ProofError, match="not a clause"):
            check_proof(refutation_store(), axioms=AXIOMS[:3])

    def test_foreign_axiom_reports_its_clause_id(self):
        store, axioms = wide_refutation(20)
        with pytest.raises(ProofError) as err:
            check_proof(store, axioms=axioms[1:])
        assert err.value.clause_id == 0
        assert err.value.rule_id == "proof.axiom-foreign"

    def test_corrupted_chain_reports_its_clause_id(self):
        store, _ = wide_refutation(40)
        target = first_derived_after(store, len(store) // 2)
        with pytest.raises(ProofError) as err:
            check_proof(corrupt_clause(store, target))
        assert err.value.clause_id == target
        assert err.value.rule_id == "proof.chain-mismatch"

    def test_two_corruptions_report_the_smaller_id(self):
        store, _ = wide_refutation(40)
        first = first_derived_after(store, 10)
        second = first_derived_after(store, len(store) - 30)
        bad = corrupt_clause(corrupt_clause(store, second), first)
        with pytest.raises(ProofError) as err:
            check_proof(bad)
        assert err.value.clause_id == first

    def test_missing_empty_clause(self):
        store = ProofStore()
        a = store.add_axiom([1, 2])
        b = store.add_axiom([-1, 2])
        store.add_derived([2], [a, (1, b)])
        with pytest.raises(ProofError, match="empty clause"):
            check_proof(store)

    def test_mutated_clause_detected(self):
        store = refutation_store()
        # Corrupt a derived clause behind the store's back.
        store._clauses[4] = (1, 2)
        with pytest.raises(ProofError, match="chain yields"):
            check_proof(store, axioms=AXIOMS)

    def test_mutated_pivot_detected(self):
        store = refutation_store()
        chain = store._chains[4]
        store._chains[4] = [chain[0], (1, chain[1][1])]
        with pytest.raises(ProofError):
            check_proof(store, axioms=AXIOMS)

    def test_mutated_antecedent_detected(self):
        store = refutation_store()
        chain = store._chains[6]
        store._chains[6] = [chain[0], (chain[1][0], 0)]
        with pytest.raises(ProofError):
            check_proof(store, axioms=AXIOMS)

    def test_unknown_kind(self):
        store = refutation_store()
        store._kinds[2] = "mystery"
        with pytest.raises(ProofError, match="unknown kind"):
            check_proof(store)


class TestBudgetAndRecorder:
    def test_budget_exhaustion_raises(self):
        store, axioms = wide_refutation(40)
        with pytest.raises(BudgetExhausted):
            check_proof(store, axioms=axioms, budget=Budget(time_limit=0.0))

    def test_recorder_records_the_replay(self):
        store, axioms = wide_refutation(40)
        recorder = Recorder()
        result = check_proof(store, axioms=axioms, recorder=recorder)
        report = recorder.report()
        assert "check/replay" in report["phases"]
        assert report["counters"]["check/clauses"] == len(store)
        assert report["counters"]["check/resolutions"] \
            == result.num_resolutions


class TestStats:
    def test_counts(self):
        stats = proof_stats(refutation_store())
        assert stats.num_clauses == 7
        assert stats.num_axioms == 4
        assert stats.num_derived == 3
        assert stats.num_resolutions == 3
        assert stats.max_width == 2
        assert stats.depth == 2

    def test_avg_width(self):
        stats = proof_stats(refutation_store())
        # Derived clauses: (1), (-1), () -> mean 2/3.
        assert stats.avg_derived_width == pytest.approx(2.0 / 3.0)

    def test_empty_store(self):
        stats = proof_stats(ProofStore())
        assert stats.num_clauses == 0
        assert stats.avg_derived_width == 0.0
