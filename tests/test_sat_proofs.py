"""Tests focused on the solver's proof logging."""

import itertools
import random

import pytest

from repro.proof import (
    AXIOM,
    ProofStore,
    check_proof,
    check_rup_proof,
    proof_stats,
    trim,
)
from repro.sat import UNSAT, Solver


def random_unsat_instances(count, seed):
    """Yield (clauses, num_vars) pairs that are UNSAT by brute force."""
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        num_vars = rng.randint(3, 7)
        clauses = []
        for _ in range(rng.randint(8, 30)):
            width = rng.randint(1, 3)
            variables = rng.sample(range(1, num_vars + 1), width)
            clauses.append(
                [v if rng.random() < 0.5 else -v for v in variables]
            )
        if not _brute_sat(num_vars, clauses):
            produced += 1
            yield clauses


def _brute_sat(num_vars, clauses):
    for bits in itertools.product([False, True], repeat=num_vars):
        if all(
            any(bits[abs(l) - 1] == (l > 0) for l in clause)
            for clause in clauses
        ):
            return True
    return False


class TestRefutationProofs:
    @pytest.mark.parametrize("seed", range(5))
    def test_resolution_checker_accepts(self, seed):
        for clauses in random_unsat_instances(10, seed):
            store = ProofStore(validate=True)
            solver = Solver(proof=store)
            alive = all(solver.add_clause(c) for c in clauses)
            if alive:
                assert solver.solve().status is UNSAT
            result = check_proof(store, axioms=clauses)
            assert result.empty_clause_id is not None

    @pytest.mark.parametrize("seed", range(3))
    def test_rup_checker_accepts(self, seed):
        for clauses in random_unsat_instances(8, 50 + seed):
            store = ProofStore()
            solver = Solver(proof=store)
            alive = all(solver.add_clause(c) for c in clauses)
            if alive:
                assert solver.solve().status is UNSAT
            check_rup_proof(store, axioms=clauses)

    @pytest.mark.parametrize("seed", range(3))
    def test_trimmed_proofs_still_check(self, seed):
        for clauses in random_unsat_instances(6, 90 + seed):
            store = ProofStore()
            solver = Solver(proof=store)
            alive = all(solver.add_clause(c) for c in clauses)
            if alive:
                solver.solve()
            trimmed, _ = trim(store)
            result = check_proof(trimmed, axioms=clauses)
            assert result.empty_clause_id is not None


class TestAxiomRegistration:
    def test_every_original_clause_is_axiom(self):
        store = ProofStore()
        solver = Solver(proof=store)
        clauses = [[1, 2], [-1, 2], [1, -2], [-1, -2]]
        for clause in clauses:
            solver.add_clause(clause)
        axioms = {
            store.clause(cid)
            for cid in store.ids()
            if store.kind(cid) == AXIOM
        }
        assert axioms == {tuple(sorted(c)) for c in clauses}

    def test_learned_clauses_are_derived(self):
        store = ProofStore()
        solver = Solver(proof=store)
        for clause in [[1, 2], [-1, 2], [1, -2], [-1, -2]]:
            solver.add_clause(clause)
        solver.solve()
        stats = proof_stats(store)
        assert stats.num_derived >= 1
        assert stats.num_axioms == 4


class TestProofWithClauseDeletion:
    def test_deleted_learned_clauses_stay_in_proof(self):
        """Aggressive DB reduction must not invalidate the final proof."""
        store = ProofStore()
        solver = Solver(proof=store, restart_base=10)
        clauses = []
        var = lambda p, h: p * 6 + h + 1
        for p in range(7):
            clauses.append([var(p, h) for h in range(6)])
        for h in range(6):
            for p1 in range(7):
                for p2 in range(p1 + 1, 7):
                    clauses.append([-var(p1, h), -var(p2, h)])
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.solve().status is UNSAT
        assert solver.stats.deleted > 0, "reduction never fired"
        result = check_proof(store, axioms=clauses)
        assert result.empty_clause_id is not None


class TestMinimizationProofs:
    def test_minimized_learned_clauses_replay(self):
        """Clause minimization removes literals; chains must stay exact."""
        store = ProofStore(validate=True)  # validate catches bad chains
        solver = Solver(proof=store)
        rng = random.Random(7)
        clauses = []
        for _ in range(60):
            variables = rng.sample(range(1, 12), 3)
            clauses.append(
                [v if rng.random() < 0.5 else -v for v in variables]
            )
        alive = all(solver.add_clause(c) for c in clauses)
        if alive:
            solver.solve()
        # Either verdict is fine; validation already ran on every chain.
        check_proof(store, require_empty=False)

    def test_minimization_counter_moves_eventually(self):
        total = 0
        for seed in range(30):
            store = ProofStore(validate=True)
            solver = Solver(proof=store)
            rng = random.Random(seed)
            for _ in range(80):
                variables = rng.sample(range(1, 14), 3)
                if not solver.add_clause(
                    [v if rng.random() < 0.5 else -v for v in variables]
                ):
                    break
            else:
                solver.solve()
            total += solver.stats.minimized_literals
        assert total > 0
