"""Tests for TraceCheck trace export/import."""

import io

import pytest

from repro.proof import (
    ProofError,
    ProofStore,
    check_proof,
    parse_tracecheck,
    read_tracecheck,
    write_tracecheck,
)
from repro.sat import UNSAT, Solver


def refutation_store():
    store = ProofStore()
    c1 = store.add_axiom([1, 2])
    c2 = store.add_axiom([1, -2])
    c3 = store.add_axiom([-1, 2])
    c4 = store.add_axiom([-1, -2])
    u1 = store.add_derived([1], [c1, (2, c2)])
    u2 = store.add_derived([-1], [c3, (2, c4)])
    store.add_derived([], [u1, (1, u2)])
    return store


def solver_refutation(clauses):
    store = ProofStore()
    solver = Solver(proof=store)
    alive = all(solver.add_clause(c) for c in clauses)
    if alive:
        assert solver.solve().status is UNSAT
    return store


class TestWriter:
    def test_format_shape(self):
        buffer = io.StringIO()
        write_tracecheck(refutation_store(), buffer)
        lines = buffer.getvalue().splitlines()
        assert len(lines) == 7
        # Axioms end with a lone terminating zero pair.
        assert lines[0].split() == ["1", "1", "2", "0", "0"]
        # Derived clauses carry antecedents.
        assert lines[4].split() == ["5", "1", "0", "1", "2", "0"]
        assert lines[6].split() == ["7", "0", "5", "6", "0"]

    def test_path_output(self, tmp_path):
        path = tmp_path / "trace.tc"
        write_tracecheck(refutation_store(), str(path))
        assert path.read_text().count("\n") == 7


class TestRoundtrip:
    def test_small(self):
        buffer = io.StringIO()
        write_tracecheck(refutation_store(), buffer)
        buffer.seek(0)
        store, id_map = read_tracecheck(buffer)
        result = check_proof(store)
        assert result.empty_clause_id is not None
        assert len(store) == 7

    def test_solver_proof_roundtrip(self):
        var = lambda p, h: p * 4 + h + 1
        clauses = [[var(p, h) for h in range(4)] for p in range(5)]
        for h in range(4):
            for p1 in range(5):
                for p2 in range(p1 + 1, 5):
                    clauses.append([-var(p1, h), -var(p2, h)])
        original = solver_refutation(clauses)
        buffer = io.StringIO()
        write_tracecheck(original, buffer)
        buffer.seek(0)
        back, _ = read_tracecheck(buffer)
        result = check_proof(back, axioms=clauses)
        assert result.num_derived == sum(
            1 for cid in original.ids() if original.kind(cid) == "derived"
        )

    def test_ids_preserved_through_map(self):
        buffer = io.StringIO()
        store = refutation_store()
        write_tracecheck(store, buffer)
        buffer.seek(0)
        back, id_map = read_tracecheck(buffer)
        for file_id, new_id in id_map.items():
            assert back.clause(new_id) == store.clause(file_id - 1)


class TestParserErrors:
    def test_non_numeric(self):
        with pytest.raises(ProofError, match="not numeric"):
            parse_tracecheck("1 x 0 0\n")

    def test_missing_literal_terminator(self):
        with pytest.raises(ProofError):
            parse_tracecheck("1 5 7\n")

    def test_missing_antecedent_terminator(self):
        with pytest.raises(ProofError, match="antecedent terminator"):
            parse_tracecheck("1 5 0 3\n")

    def test_duplicate_id(self):
        with pytest.raises(ProofError, match="duplicate"):
            parse_tracecheck("1 5 0 0\n1 6 0 0\n")

    def test_forward_antecedent(self):
        with pytest.raises(ProofError, match="not yet defined"):
            parse_tracecheck("1 5 0 2 3 0\n")

    def test_single_antecedent(self):
        with pytest.raises(ProofError, match=">= 2"):
            parse_tracecheck("1 5 0 0\n2 5 0 1 0\n")

    def test_wrong_claimed_clause(self):
        text = "1 1 2 0 0\n2 -1 2 0 0\n3 1 0 1 2 0\n"
        with pytest.raises(ProofError, match="claimed"):
            parse_tracecheck(text)

    def test_comments_and_blanks_skipped(self):
        text = "c a comment\n\n1 1 0 0\n"
        store, _ = parse_tracecheck(text)
        assert len(store) == 1

    def test_nonpositive_id(self):
        with pytest.raises(ProofError, match="non-positive"):
            parse_tracecheck("0 1 0 0\n")

    @pytest.mark.parametrize("line", [
        "1 9223372036854775808 0 0",
        "1 -9223372036854775808 0 0",
        "1 1 -1 0 0",
    ])
    def test_axiom_the_store_refuses_is_a_syntax_error(self, line):
        with pytest.raises(ProofError, match="trace line 2") as caught:
            parse_tracecheck("1 1 0 0\n" + line.replace("1 ", "2 ", 1))
        assert caught.value.rule_id == "trace.syntax"


class TestCecTraces:
    def test_engine_proof_exports_and_reimports(self):
        from repro import check_equivalence
        from repro.circuits import comparator, comparator_subtract

        result = check_equivalence(comparator(4), comparator_subtract(4))
        buffer = io.StringIO()
        write_tracecheck(result.proof, buffer)
        buffer.seek(0)
        back, _ = read_tracecheck(buffer)
        check = check_proof(back, axioms=result.cnf.clauses)
        assert check.empty_clause_id is not None
