"""Tests for the benchmark export tool."""

import os

from repro.aig import read_auto
from repro.circuits import by_name
from repro.circuits.export import export_suite, main


class TestExportSuite:
    def test_subset_roundtrip(self, tmp_path):
        pairs = [by_name("par16"), by_name("mul03")]
        records = export_suite(str(tmp_path), pairs=pairs)
        assert len(records) == 2
        for name, path_a, path_b in records:
            aig_a = read_auto(path_a)
            aig_b = read_auto(path_b)
            assert aig_a.num_inputs == aig_b.num_inputs
            original_a, _ = by_name(name).build()
            assert aig_a.num_ands == original_a.num_ands

    def test_binary_mode(self, tmp_path):
        records = export_suite(
            str(tmp_path), binary=True, pairs=[by_name("par16")]
        )
        _, path_a, _ = records[0]
        assert path_a.endswith(".aig")
        read_auto(path_a)

    def test_index_written(self, tmp_path):
        export_suite(str(tmp_path), pairs=[by_name("alu06")])
        index = (tmp_path / "INDEX.txt").read_text()
        assert "alu06" in index
        assert "ALU" in index

    def test_exported_files_check_equivalent(self, tmp_path):
        from repro import check_equivalence

        records = export_suite(str(tmp_path), pairs=[by_name("cmp10")])
        _, path_a, path_b = records[0]
        result = check_equivalence(read_auto(path_a), read_auto(path_b))
        assert result.equivalent is True


class TestCli:
    def test_main_subset(self, tmp_path, capsys):
        assert main([str(tmp_path), "--only", "par16"]) == 0
        assert "wrote 1 pairs" in capsys.readouterr().out
        assert os.path.exists(str(tmp_path / "par16_a.aag"))

    def test_main_unknown_name(self, tmp_path):
        # A usage error: exit 3, not 2 ("undecided").
        assert main([str(tmp_path), "--only", "nope"]) == 3

    def test_cli_roundtrip_through_cec(self, tmp_path, capsys):
        from repro.cli import main as cec_main

        main([str(tmp_path), "--only", "sbsh08"])
        code = cec_main(
            [
                str(tmp_path / "sbsh08_a.aag"),
                str(tmp_path / "sbsh08_b.aag"),
            ]
        )
        assert code == 0
