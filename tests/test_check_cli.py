"""Tests for the repro-checkproof command-line interface."""

from pathlib import Path

import pytest

from repro.check_cli import main
from repro.cnf import CNF, write_dimacs
from repro.proof import ProofStore, write_tracecheck
from repro.sat import UNSAT, Solver

CLAUSES = [[1, 2], [1, -2], [-1, 2], [-1, -2]]

DATA = Path(__file__).resolve().parent.parent / "examples" / "data"


@pytest.fixture
def artifacts(tmp_path):
    store = ProofStore()
    solver = Solver(proof=store)
    for clause in CLAUSES:
        solver.add_clause(clause)
    assert solver.solve().status is UNSAT
    trace_path = tmp_path / "proof.tc"
    write_tracecheck(store, str(trace_path))
    cnf_path = tmp_path / "formula.cnf"
    write_dimacs(CNF(clauses=CLAUSES), str(cnf_path))
    return str(trace_path), str(cnf_path), tmp_path


class TestValid:
    def test_plain(self, artifacts, capsys):
        trace, _, _ = artifacts
        assert main([trace]) == 0
        out = capsys.readouterr().out
        assert out.startswith("VALID")
        assert "resolutions" in out

    def test_with_cnf(self, artifacts):
        trace, cnf, _ = artifacts
        assert main([trace, "--cnf", cnf]) == 0

    def test_with_rup(self, artifacts):
        trace, cnf, _ = artifacts
        assert main([trace, "--cnf", cnf, "--rup"]) == 0

    def test_quiet(self, artifacts, capsys):
        trace, _, _ = artifacts
        main([trace, "--quiet"])
        assert "resolutions" not in capsys.readouterr().out



class TestInvalid:
    def test_foreign_axiom(self, artifacts, capsys):
        trace, _, tmp_path = artifacts
        small = tmp_path / "small.cnf"
        write_dimacs(CNF(clauses=CLAUSES[:2]), str(small))
        assert main([trace, "--cnf", str(small)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_corrupted_trace(self, artifacts, capsys):
        trace, _, tmp_path = artifacts
        text = open(trace).read().replace(" 2 0", " 3 0", 1)
        bad = tmp_path / "bad.tc"
        bad.write_text(text)
        assert main([str(bad)]) in (1, 3)

    def test_non_refutation(self, tmp_path, capsys):
        store = ProofStore()
        a = store.add_axiom([1, 2])
        b = store.add_axiom([-1, 2])
        store.add_derived([2], [a, (1, b)])
        path = tmp_path / "partial.tc"
        write_tracecheck(store, str(path))
        assert main([str(path)]) == 1
        assert "empty clause" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["/nonexistent.tc"]) == 3

    def test_bad_cnf_path(self, artifacts):
        trace, _, _ = artifacts
        assert main([trace, "--cnf", "/nonexistent.cnf"]) == 3

    def test_non_utf8_trace_is_invalid_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.tc"
        bad.write_bytes(b"\xff\xfe")
        assert main([str(bad)]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_utf8_cnf_is_invalid_input(self, artifacts, capsys):
        trace, _, tmp_path = artifacts
        bad = tmp_path / "bad.cnf"
        bad.write_bytes(b"\xff\xfe")
        assert main([trace, "--cnf", str(bad)]) == 3
        assert capsys.readouterr().err.startswith("error: ")


class TestBudget:
    def test_exhausted_time_limit_is_undecided(self, capsys):
        code = main([
            str(DATA / "add24_miter.tc"),
            "--cnf", str(DATA / "add24_miter.cnf"),
            "--time-limit", "0",
        ])
        assert code == 2
        assert capsys.readouterr().out.startswith("UNDECIDED")


class TestEndToEndWithEngine:
    def test_cec_proof_via_files(self, tmp_path):
        """Full tool-chain: engine -> trace file -> standalone checker."""
        from repro import check_equivalence
        from repro.circuits import parity_chain, parity_tree
        from repro.cnf import write_dimacs as wd

        result = check_equivalence(parity_tree(5), parity_chain(5))
        trace_path = tmp_path / "cec.tc"
        write_tracecheck(result.proof, str(trace_path))
        cnf_path = tmp_path / "cec.cnf"
        wd(result.cnf, str(cnf_path))
        assert main([str(trace_path), "--cnf", str(cnf_path), "--rup"]) == 0
