"""JSON round-trips of ``CecResult`` (the ``repro-cec-result/2`` schema)."""

import functools
import glob
import json
import os

import pytest

from repro import check_equivalence
from repro.aig import lit_not, lit_sign, lit_var, read_aag
from repro.aig.aig import AIG
from repro.analyze.schemas import spec_for
from repro.circuits import SUITE, kogge_stone_adder, ripple_carry_adder
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

DATA = os.path.join(os.path.dirname(__file__), "..", "examples", "data")


def read_pair(path_a):
    return read_aag(path_a), read_aag(path_a.replace("_a.aag", "_b.aag"))


def equivalent_pairs():
    """One param per equivalent pair of the suite and of
    ``examples/data``: a callable returning ``(aig_a, aig_b)``."""
    pairs = [pytest.param(pair.build, id=pair.name) for pair in SUITE]
    for path_a in sorted(glob.glob(os.path.join(DATA, "*_a.aag"))):
        pairs.append(pytest.param(
            functools.partial(read_pair, path_a),
            id="data-" + os.path.basename(path_a)[:-len("_a.aag")],
        ))
    return pairs


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
        certify(back)  # replays the proof against the miter's axioms

    def test_document_has_no_cnf_block(self):
        for result in (equivalent_result(), inequivalent_result()):
            doc = result_to_dict(result)
            assert "cnf" not in doc
            assert set(doc) == spec_for(RESULT_SCHEMA).required

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

    def test_rejects_a_version_1_document(self):
        doc = result_to_dict(equivalent_result())
        doc["schema"] = "repro-cec-result/1"
        doc["cnf"] = {"num_vars": 1, "clauses": [[-1]]}
        with pytest.raises(ResultFormatError, match="schema"):
            result_from_dict(doc)

    def test_rejects_an_equivalent_verdict_without_a_miter(self):
        doc = result_to_dict(equivalent_result())
        doc["miter"] = None
        with pytest.raises(ResultFormatError, match="no miter"):
            result_from_dict(doc)

    def test_rejects_a_miter_with_two_outputs(self):
        doc = result_to_dict(equivalent_result())
        doc["miter"] = "aag 1 1 0 2 0\n2\n2\n3\n"
        with pytest.raises(ResultFormatError, match="2 outputs"):
            result_from_dict(doc)

    @pytest.mark.parametrize("verdict", ["yes", 1, [True]])
    def test_rejects_a_non_bool_verdict(self, verdict):
        doc = result_to_dict(equivalent_result())
        doc["equivalent"] = verdict
        with pytest.raises(ResultFormatError, match="bad verdict"):
            result_from_dict(doc)

    @pytest.mark.parametrize("cex", [7, ["x"], [None]])
    def test_rejects_a_malformed_counterexample(self, cex):
        doc = result_to_dict(inequivalent_result())
        doc["counterexample"] = cex
        with pytest.raises(ResultFormatError, match="counterexample"):
            result_from_dict(doc)

    def test_rejects_a_broken_miter(self):
        doc = result_to_dict(equivalent_result())
        doc["miter"] = "aag x\n"
        with pytest.raises(ResultFormatError, match="malformed miter"):
            result_from_dict(doc)


class TestAxiomSet:
    """The decoded axiom set is the engine's, clause for clause."""

    @pytest.mark.parametrize("build", equivalent_pairs())
    def test_decoded_cnf_is_the_refuted_axiom_set(self, build):
        result = check_equivalence(*build())
        assert result.equivalent is True
        back = result_from_dict(result_to_dict(result))
        assert back.cnf.num_vars == result.cnf.num_vars
        assert back.cnf.clauses == result.cnf.clauses
        certify(back)
        aig_a, aig_b = build()
        certify(back, pair=(aig_b, aig_a))  # the cache serves the swap
