"""Tests for the replay-free proof linter.

The corpus tests pin the linter's soundness contract: every corruption
is flagged at error severity under a stable rule id, and the replay
checker rejects the identical store. The clean-proof tests pin the
converse direction the acceptance criteria require: engine-produced
certificates lint with zero error findings.
"""

import pytest

from proof_corpus import CORRUPTIONS, base_cnf, base_store, corrupted
from repro import check_equivalence
from repro.analyze import ERROR, INFO, WARNING, lint_proof
from repro.analyze.proof_lint import lint_drup_file, lint_tracecheck_file
from repro.baselines.monolithic import monolithic_check
from repro.circuits import kogge_stone_adder, parity_chain, parity_tree, \
    ripple_carry_adder
from repro.proof.checker import check_proof
from repro.proof.drup import write_drup
from repro.proof.store import ProofError
from repro.proof.tracecheck import write_tracecheck
from repro.proof.trim import trim


def error_rules(findings):
    return {f.rule_id for f in findings if f.severity == ERROR}


class TestCorpus:
    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_linter_flags_corruption(self, name):
        store, cnf, rule = corrupted(name)
        findings = lint_proof(store, cnf=cnf)
        assert rule in error_rules(findings), [f.render() for f in findings]

    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_checker_rejects_corruption(self, name):
        store, cnf, _ = corrupted(name)
        with pytest.raises(ProofError):
            check_proof(store, axioms=cnf.clauses, require_empty=True)

    def test_base_store_is_clean(self):
        findings = lint_proof(base_store(), cnf=base_cnf())
        assert not error_rules(findings)
        check_proof(
            base_store(), axioms=base_cnf().clauses, require_empty=True
        )

    def test_findings_carry_clause_ids(self):
        store, cnf, rule = corrupted("tautology")
        finding = next(
            f for f in lint_proof(store, cnf=cnf) if f.rule_id == rule
        )
        assert finding.clause_id == 4
        assert "clause 4" in finding.render()

    def test_finding_limit_truncates(self):
        store, cnf, _ = corrupted("out-of-range-var")
        findings = lint_proof(store, cnf=cnf, limit=1)
        assert len([f for f in findings if f.severity != INFO]) == 1
        assert any(f.rule_id == "lint.truncated" for f in findings)


class TestCleanProofs:
    @pytest.mark.parametrize("engine", ["sweep", "monolithic"])
    def test_engine_proofs_lint_clean(self, engine):
        if engine == "sweep":
            result = check_equivalence(
                ripple_carry_adder(4), kogge_stone_adder(4)
            )
        else:
            result = monolithic_check(
                ripple_carry_adder(4), kogge_stone_adder(4), proof=True
            )
        assert result.equivalent
        for proof in (result.proof, trim(result.proof)[0]):
            findings = lint_proof(proof, cnf=result.cnf)
            assert not error_rules(findings), \
                [f.render() for f in findings]

    def test_refutation_report_accounting(self):
        result = check_equivalence(parity_tree(5), parity_chain(5))
        trimmed, _ = trim(result.proof)
        findings = lint_proof(trimmed, cnf=result.cnf)
        report = next(
            f for f in findings if f.rule_id == "proof.refutation-report"
        )
        assert report.severity == INFO
        assert report.data["total_clauses"] == len(trimmed)
        assert 0 < report.data["cone_clauses"] <= len(trimmed)
        dead = [f for f in findings if f.rule_id == "proof.dead-clause"]
        expected_dead = len(trimmed) - report.data["cone_clauses"]
        if expected_dead:
            assert dead[0].data["dead_clauses"] == expected_dead
        else:
            assert not dead

    def test_missing_refutation_flagged_unless_allowed(self):
        store = base_store()
        store._clauses[5] = (2,)
        store._chains[5] = [0, (2, 2)]
        rules = error_rules(lint_proof(store))
        assert "proof.no-refutation" in rules
        rules = error_rules(lint_proof(store, require_empty=False))
        assert "proof.no-refutation" not in rules


class TestProofFiles:
    def test_tracecheck_file_clean(self, tmp_path):
        path = str(tmp_path / "proof.tc")
        write_tracecheck(base_store(), path)
        findings = lint_tracecheck_file(path, cnf=base_cnf())
        assert not error_rules(findings)

    def test_tracecheck_file_syntax_error(self, tmp_path):
        path = str(tmp_path / "broken.tc")
        with open(path, "w") as handle:
            handle.write("1 1 2 0 0\nnot a trace line\n")
        findings = lint_tracecheck_file(path)
        rules = error_rules(findings)
        assert rules, findings
        assert all(r.startswith(("trace.", "proof.")) for r in rules)

    def test_tracecheck_file_literal_past_63_bits(self, tmp_path):
        path = str(tmp_path / "wide.tc")
        with open(path, "w") as handle:
            handle.write("1 9223372036854775808 0 0\n")
        findings = lint_tracecheck_file(path)
        assert [f.rule_id for f in findings] == ["trace.syntax"]

    def test_drup_file_clean(self, tmp_path):
        result = check_equivalence(parity_tree(4), parity_chain(4))
        trimmed, _ = trim(result.proof)
        path = str(tmp_path / "proof.drup")
        write_drup(trimmed, path)
        findings = lint_drup_file(path, cnf=result.cnf)
        assert not error_rules(findings)

    def test_drup_file_defects(self, tmp_path):
        path = str(tmp_path / "bad.drup")
        with open(path, "w") as handle:
            handle.write("1 2 0\nnonsense\n3 99 0\n1 2\n")
        findings = lint_drup_file(path, cnf=base_cnf())
        rules = error_rules(findings)
        assert "drup.syntax" in rules
        assert "proof.var-bounds" in rules
        assert "proof.no-refutation" in rules

    def test_drup_tautology_warning(self, tmp_path):
        path = str(tmp_path / "taut.drup")
        with open(path, "w") as handle:
            handle.write("-1 1 0\n0\n")
        findings = lint_drup_file(path)
        assert any(
            f.rule_id == "proof.tautology" and f.severity == WARNING
            for f in findings
        )
