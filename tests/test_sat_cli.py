"""Tests for the repro-sat command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cnf import CNF, write_dimacs
from repro.instrument.recorder import validate_report
from repro.proof import check_proof, parse_tracecheck
from repro.sat.reference import ReferenceSolver
from repro.sat.solver import Solver, propagate_kernel
from repro.sat_cli import build_parser, main

ADD24_CNF = (Path(__file__).resolve().parent.parent / "examples" / "data"
             / "add24_miter.cnf")


@pytest.fixture
def cnf_files(tmp_path):
    sat_path = tmp_path / "sat.cnf"
    unsat_path = tmp_path / "unsat.cnf"
    write_dimacs(CNF(clauses=[[1, 2], [-1, 2]]), str(sat_path))
    write_dimacs(
        CNF(clauses=[[1, 2], [1, -2], [-1, 2], [-1, -2]]), str(unsat_path)
    )
    return str(sat_path), str(unsat_path)


class TestVerdicts:
    def test_sat(self, cnf_files, capsys):
        sat_path, _ = cnf_files
        assert main([sat_path]) == 10
        out = capsys.readouterr().out
        assert "s SATISFIABLE" in out
        assert out.splitlines()[1].startswith("v ")

    def test_unsat(self, cnf_files, capsys):
        _, unsat_path = cnf_files
        assert main([unsat_path]) == 20
        assert "s UNSATISFIABLE" in capsys.readouterr().out

    def test_model_line_is_solution(self, cnf_files, capsys):
        sat_path, _ = cnf_files
        main([sat_path])
        value_line = capsys.readouterr().out.splitlines()[1]
        lits = [int(tok) for tok in value_line.split()[1:-1]]
        # Model must satisfy both clauses.
        assert 2 in lits

    def test_missing_file(self, capsys):
        assert main(["/nonexistent.cnf"]) == 3

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.cnf"
        bad.write_text("not dimacs")
        assert main([str(bad)]) == 3

    def test_non_utf8_file_is_invalid_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.cnf"
        bad.write_bytes(b"\xff\xfe")
        assert main([str(bad)]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_budget_unknown(self, tmp_path, capsys):
        # PHP(7) with a 1-conflict budget.
        holes = 6
        var = lambda p, h: p * holes + h + 1
        clauses = [[var(p, h) for h in range(holes)] for p in range(7)]
        for h in range(holes):
            for p1 in range(7):
                for p2 in range(p1 + 1, 7):
                    clauses.append([-var(p1, h), -var(p2, h)])
        path = tmp_path / "php.cnf"
        write_dimacs(CNF(clauses=clauses), str(path))
        assert main([str(path), "--max-conflicts", "1"]) == 0
        assert "s UNKNOWN" in capsys.readouterr().out


class TestAssumptions:
    def test_unsat_under_assumptions(self, cnf_files, capsys):
        sat_path, _ = cnf_files
        assert main([sat_path, "--assume", "-2"]) == 20
        out = capsys.readouterr().out
        assert "final clause" in out

    def test_sat_under_assumptions(self, cnf_files):
        sat_path, _ = cnf_files
        assert main([sat_path, "--assume", "1", "2"]) == 10

    @pytest.mark.parametrize("assume", [["0"], ["1", "-1"], ["1", "1"]])
    def test_bad_assumption_list_is_invalid_input(self, cnf_files, capsys,
                                                  assume):
        sat_path, _ = cnf_files
        assert main([sat_path, "--assume"] + assume) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "s " not in captured.out

    def test_bad_assumption_on_a_formula_refuted_while_loading(
            self, tmp_path, capsys):
        path = tmp_path / "units.cnf"
        write_dimacs(CNF(clauses=[[1], [-1]]), str(path))
        assert main([str(path), "--assume", "0"]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_solver_rejects_literal_zero(self):
        with pytest.raises(ValueError, match="0 is not"):
            Solver().solve(assumptions=[0])

    def test_reference_solver_rejects_literal_zero(self):
        with pytest.raises(ValueError, match="0 is not"):
            ReferenceSolver().solve(assumptions=[0])


class TestStatsReport:
    def test_report_names_the_search(self, tmp_path):
        stats_path = tmp_path / "stats.json"
        assert main([str(ADD24_CNF), "--stats-json", str(stats_path)]) == 20
        report = validate_report(json.loads(stats_path.read_text()))
        assert report["gauges"]["solver/kernel"] == propagate_kernel()
        counters = report["counters"]
        assert (counters["solver/restarts"], counters["solver/learned"],
                counters["solver/deleted"]) == (9, 1580, 783)


class TestProofOutput:
    def test_drup_written(self, cnf_files, tmp_path, capsys):
        _, unsat_path = cnf_files
        proof_path = tmp_path / "out.drup"
        assert main([unsat_path, "--proof", str(proof_path)]) == 20
        text = proof_path.read_text()
        assert text.strip().endswith("0")

    def test_tracecheck_written_and_valid(self, cnf_files, tmp_path):
        _, unsat_path = cnf_files
        trace_path = tmp_path / "out.tc"
        assert main([unsat_path, "--trace", str(trace_path)]) == 20
        store, _ = parse_tracecheck(trace_path.read_text())
        result = check_proof(store)
        assert result.empty_clause_id is not None

    def test_self_check_flag(self, cnf_files, capsys):
        _, unsat_path = cnf_files
        assert main([unsat_path, "--check"]) == 20
        assert "proof checked: OK" in capsys.readouterr().out

    def test_untrimmed_at_least_as_large(self, cnf_files, tmp_path):
        _, unsat_path = cnf_files
        trimmed = tmp_path / "trim.drup"
        full = tmp_path / "full.drup"
        main([unsat_path, "--proof", str(trimmed)])
        main([unsat_path, "--proof", str(full), "--no-trim"])
        assert len(full.read_text()) >= len(trimmed.read_text())

    def test_quiet(self, cnf_files, capsys):
        _, unsat_path = cnf_files
        main([unsat_path, "--check", "--quiet"])
        out = capsys.readouterr().out
        assert "resolutions" not in out


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["f.cnf"])
        assert args.assume == []
        assert args.max_conflicts is None
