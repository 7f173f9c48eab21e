"""Tests for the repro-cec command-line interface."""

import json
from pathlib import Path

import pytest

from repro.aig import lit_not, write_aag, write_aig
from repro.circuits import carry_lookahead_adder, ripple_carry_adder
from repro.cli import build_parser, main

DATA = Path(__file__).resolve().parent.parent / "examples" / "data"


@pytest.fixture
def circuit_files(tmp_path):
    good_a = tmp_path / "a.aag"
    good_b = tmp_path / "b.aig"
    bad = tmp_path / "bad.aag"
    write_aag(ripple_carry_adder(4), str(good_a))
    write_aig(carry_lookahead_adder(4), str(good_b))
    broken = carry_lookahead_adder(4).copy()
    broken.set_output(1, lit_not(broken.outputs[1]))
    write_aag(broken, str(bad))
    return str(good_a), str(good_b), str(bad)


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["x", "y"])
        assert args.engine == "sweep"
        assert args.sim_words == 4

    def test_engine_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["x", "y", "--engine", "zchaff"])


class TestMain:
    def test_equivalent_exit_code(self, circuit_files, capsys):
        file_a, file_b, _ = circuit_files
        assert main([file_a, file_b]) == 0
        assert "EQUIVALENT" in capsys.readouterr().out

    def test_non_equivalent_exit_code(self, circuit_files, capsys):
        file_a, _, bad = circuit_files
        assert main([file_a, bad]) == 1
        out = capsys.readouterr().out
        assert "NOT EQUIVALENT" in out
        assert "counterexample" in out

    def test_missing_file(self, capsys):
        assert main(["/nonexistent/a.aag", "/nonexistent/b.aag"]) == 3

    def test_proof_written(self, circuit_files, tmp_path, capsys):
        file_a, file_b, _ = circuit_files
        proof_path = tmp_path / "out.drup"
        assert main([file_a, file_b, "--proof", str(proof_path)]) == 0
        content = proof_path.read_text()
        assert content.strip().endswith("0")

    def test_untrimmed_proof_is_larger(self, circuit_files, tmp_path):
        file_a, file_b, _ = circuit_files
        trimmed = tmp_path / "trim.drup"
        full = tmp_path / "full.drup"
        main([file_a, file_b, "--proof", str(trimmed)])
        main([file_a, file_b, "--proof", str(full), "--no-trim"])
        assert len(full.read_text()) >= len(trimmed.read_text())

    def test_certify_flag(self, circuit_files, capsys):
        file_a, file_b, _ = circuit_files
        assert main([file_a, file_b, "--certify"]) == 0
        assert "certified" in capsys.readouterr().out

    def test_monolithic_engine(self, circuit_files, capsys):
        file_a, file_b, _ = circuit_files
        assert main([file_a, file_b, "--engine", "monolithic"]) == 0

    def test_monolithic_engine_certifies(self, capsys):
        code = main([
            str(DATA / "add08_a.aag"), str(DATA / "add08_b.aag"),
            "--engine", "monolithic", "--certify",
        ])
        assert code == 0
        assert "certified: proof replayed successfully" \
            in capsys.readouterr().out

    def test_bdd_engine(self, circuit_files, capsys):
        file_a, file_b, bad = circuit_files
        assert main([file_a, file_b, "--engine", "bdd"]) == 0
        assert main([file_a, bad, "--engine", "bdd"]) == 1

    def test_quiet_suppresses_stats(self, circuit_files, capsys):
        file_a, file_b, _ = circuit_files
        main([file_a, file_b, "--quiet"])
        out = capsys.readouterr().out
        assert "resolutions" not in out

    def test_seed_and_sim_words_accepted(self, circuit_files):
        file_a, file_b, _ = circuit_files
        assert main(
            [file_a, file_b, "--sim-words", "1", "--seed", "42"]
        ) == 0


class TestBddSweepEngine:
    def test_equivalent(self, circuit_files, capsys):
        file_a, file_b, _ = circuit_files
        assert main([file_a, file_b, "--engine", "bddsweep"]) == 0
        assert "EQUIVALENT" in capsys.readouterr().out

    def test_fault(self, circuit_files, capsys):
        file_a, _, bad = circuit_files
        assert main([file_a, bad, "--engine", "bddsweep"]) == 1
        assert "counterexample" in capsys.readouterr().out


class TestServerPassthrough:
    @pytest.fixture()
    def server(self, tmp_path):
        from repro.service import CecServer

        instance = CecServer(str(tmp_path / "cli.sock"), workers=0)
        instance.start()
        yield instance
        instance.close()

    def test_binary_aig_input_is_supported(
        self, server, circuit_files, capsys
    ):
        # file_b is binary AIGER: --server must accept exactly the
        # same inputs as a local run (read_auto + re-emit as text).
        file_a, file_b, _ = circuit_files
        assert main(
            [file_a, file_b, "--server", server.address, "--quiet"]
        ) == 0

    def test_not_equivalent_over_server(
        self, server, circuit_files, capsys
    ):
        file_a, _, bad = circuit_files
        assert main(
            [file_a, bad, "--server", server.address, "--quiet"]
        ) == 1

    def test_missing_file_is_invalid_input(self, server, capsys):
        assert main(
            ["/nonexistent/a.aag", "/nonexistent/b.aag",
             "--server", server.address]
        ) == 3
        assert "error:" in capsys.readouterr().err

    def test_chrome_trace_over_server(self, server, circuit_files, tmp_path):
        file_a, file_b, _ = circuit_files
        trace = tmp_path / "trace.json"
        assert main(
            [file_a, file_b, "--server", server.address, "--quiet",
             "--chrome-trace", str(trace)]
        ) == 0
        events = json.loads(trace.read_text())["traceEvents"]
        names = {event["name"] for event in events if event["ph"] == "X"}
        assert {"client/request", "service/job"} <= names
