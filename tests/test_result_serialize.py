"""JSON round-trips of ``CecResult`` (the ``repro-cec-result/1`` schema)."""

import json

import pytest

from repro import check_equivalence
from repro.aig import lit_not, lit_sign, lit_var
from repro.aig.aig import AIG
from repro.circuits import kogge_stone_adder, ripple_carry_adder
from repro.core import (
    RESULT_SCHEMA,
    ResultFormatError,
    SweepOptions,
    certify,
    result_from_dict,
    result_to_dict,
    verdict_name,
)
from repro.instrument import Budget


def equivalent_result():
    return check_equivalence(
        ripple_carry_adder(4), kogge_stone_adder(4), SweepOptions()
    )


def inequivalent_result():
    """Rebuild the KS adder with its first output complemented."""
    bad = kogge_stone_adder(4)
    rebuilt = AIG()
    lits = {}
    for var in bad.inputs:
        lits[var] = rebuilt.add_input()

    def conv(lit):
        base = lits[lit_var(lit)]
        return lit_not(base) if lit_sign(lit) else base

    for var in bad.and_vars():
        f0, f1 = bad.fanins(var)
        lits[var] = rebuilt.add_and(conv(f0), conv(f1))
    for index, lit in enumerate(bad.outputs):
        out = conv(lit)
        rebuilt.add_output(lit_not(out) if index == 0 else out)
    return check_equivalence(
        ripple_carry_adder(4), rebuilt, SweepOptions()
    )


def undecided_result():
    budget = Budget(time_limit=0.0)
    return check_equivalence(
        ripple_carry_adder(6), kogge_stone_adder(6), SweepOptions(),
        budget=budget,
    )


class TestRoundTrip:
    def test_equivalent_with_proof(self):
        result = equivalent_result()
        assert result.equivalent is True
        assert result.proof is not None
        doc = result_to_dict(result)
        assert doc["schema"] == RESULT_SCHEMA
        back = result_from_dict(doc)
        assert back.equivalent is True
        assert back.proof is not None
        assert len(back.proof) == len(result.proof)
        assert back.empty_clause_id == result.empty_clause_id
        assert back.cnf.clauses == result.cnf.clauses

    def test_bit_identical_re_serialization(self):
        doc = result_to_dict(equivalent_result())
        again = result_to_dict(result_from_dict(doc))
        assert doc == again
        # And through actual JSON text, as the service ships it.
        assert json.loads(json.dumps(doc, sort_keys=True)) == again

    def test_round_tripped_proof_certifies(self):
        back = result_from_dict(result_to_dict(equivalent_result()))
        certify(back)  # replays the proof against the embedded CNF

    def test_counterexample_round_trip(self):
        result = inequivalent_result()
        assert result.equivalent is False
        assert result.counterexample is not None
        back = result_from_dict(result_to_dict(result))
        assert back.equivalent is False
        assert back.counterexample == result.counterexample
        certify(back)  # counterexample verdicts are checked by replay

    def test_undecided_round_trip(self):
        result = undecided_result()
        assert result.equivalent is None
        back = result_from_dict(result_to_dict(result))
        assert back.equivalent is None

    def test_verdict_names(self):
        assert verdict_name(True) == "equivalent"
        assert verdict_name(False) == "not_equivalent"
        assert verdict_name(None) == "undecided"


class TestValidation:
    def test_rejects_wrong_schema(self):
        doc = result_to_dict(equivalent_result())
        doc["schema"] = "something-else/9"
        with pytest.raises(ResultFormatError):
            result_from_dict(doc)

    def test_rejects_missing_keys(self):
        doc = result_to_dict(equivalent_result())
        del doc["miter"]
        with pytest.raises(ResultFormatError):
            result_from_dict(doc)

    def test_rejects_non_dict(self):
        with pytest.raises(ResultFormatError):
            result_from_dict([1, 2, 3])

    def test_rejects_a_tampered_proof_chain(self):
        doc = result_to_dict(equivalent_result())
        lines = doc["proof"].splitlines()
        parts = lines[-1].split()
        del parts[-2]  # the empty clause loses its last antecedent
        doc["proof"] = "\n".join(lines[:-1] + [" ".join(parts)]) + "\n"
        with pytest.raises(ResultFormatError, match="malformed proof"):
            result_from_dict(doc)

    def test_rejects_a_tautological_cnf_clause(self):
        doc = result_to_dict(equivalent_result())
        doc["cnf"]["clauses"].append([1, -1])
        with pytest.raises(ResultFormatError, match="malformed cnf"):
            result_from_dict(doc)

    def test_rejects_a_broken_miter(self):
        doc = result_to_dict(equivalent_result())
        doc["miter"] = "aag x\n"
        with pytest.raises(ResultFormatError, match="malformed miter"):
            result_from_dict(doc)
