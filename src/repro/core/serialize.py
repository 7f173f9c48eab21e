"""JSON round-trip for :class:`~repro.core.cec.CecResult`.

The service layer moves equivalence-check results across process and
machine boundaries (worker -> server -> cache -> client), so a result
must serialize to a single self-contained JSON document and come back
as an object :func:`~repro.core.certify.certify` accepts unchanged:

* the **verdict** (equivalent / not equivalent / undecided),
* the **counterexample** input assignment on non-equivalence,
* the **resolution proof** as embedded TraceCheck text,
* the **axiom set** the proof refutes (miter CNF + output unit), and
* the **miter netlist** as embedded ASCII AIGER (the counterexample
  certificate is checked against it),
* the run's ``repro-stats/1`` report.

What does *not* survive the trip is the live engine: a deserialized
result has ``engine=None``. Everything the certificate needs is
self-contained, which is also why a cached result can be served for
the symmetric query ``(B, A)``: the stored CNF and proof describe the
originally built miter, and replaying them needs nothing from the
current request.

The document schema is ``repro-cec-result/1``. Round-tripping is exact:
``result_to_dict(result_from_dict(d)) == d`` for any document this
module produced.
"""

import io

from ..aig.aiger import read_aag, write_aag
from ..aig.miter import Miter
from ..cnf.clause import CNF
from ..proof.store import ProofError
from ..proof.tracecheck import dumps_tracecheck, parse_tracecheck
from .cec import CecResult

from ..analyze.schemas import RESULT_SCHEMA  # noqa: E402  (registry)


class ResultFormatError(ValueError):
    """Raised when a result document is malformed."""


def result_to_dict(result):
    """Serialize *result* to a JSON-compatible ``repro-cec-result/1`` dict.

    The proof (when present) is embedded as TraceCheck text and the
    miter as ASCII AIGER text, so the document needs no side files.
    """
    proof_text = None
    if result.proof is not None:
        proof_text = dumps_tracecheck(result.proof)
    cnf_block = None
    if result.cnf is not None:
        cnf_block = {
            "num_vars": result.cnf.num_vars,
            "clauses": [list(clause) for clause in result.cnf.clauses],
        }
    miter_text = None
    if result.miter is not None:
        buffer = io.StringIO()
        write_aag(result.miter.aig, buffer)
        miter_text = buffer.getvalue()
    return {
        "schema": RESULT_SCHEMA,
        "equivalent": result.equivalent,
        "counterexample": (
            None if result.counterexample is None
            else list(result.counterexample)
        ),
        "empty_clause_id": result.empty_clause_id,
        "proof": proof_text,
        "cnf": cnf_block,
        "miter": miter_text,
        "elapsed_seconds": result.elapsed_seconds,
        "stats": result.stats,
    }


def result_from_dict(payload):
    """Rebuild a :class:`CecResult` from a ``repro-cec-result/1`` dict.

    The returned result carries ``engine=None`` (there is no live
    sweep engine on this side of the wire); everything
    :func:`~repro.core.certify.certify` touches — verdict, proof, CNF,
    miter, counterexample — is reconstructed exactly.

    Raises:
        ResultFormatError: on a missing/foreign schema tag or
            structurally broken payload, including an embedded proof,
            CNF or miter that does not decode.
    """
    if not isinstance(payload, dict):
        raise ResultFormatError("result document must be a dict")
    if payload.get("schema") != RESULT_SCHEMA:
        raise ResultFormatError(
            "bad result schema tag %r" % (payload.get("schema"),)
        )
    for key in ("equivalent", "counterexample", "empty_clause_id",
                "proof", "cnf", "miter", "elapsed_seconds", "stats"):
        if key not in payload:
            raise ResultFormatError("result document missing key %r" % key)
    proof = None
    if payload["proof"] is not None:
        try:
            proof, _ = parse_tracecheck(payload["proof"])
        except (ProofError, ValueError) as exc:
            raise ResultFormatError("malformed proof: %s" % exc) from exc
    cnf = None
    if payload["cnf"] is not None:
        block = payload["cnf"]
        try:
            cnf = CNF(num_vars=int(block["num_vars"]))
            for clause in block["clauses"]:
                cnf.add_clause(clause)
        except (KeyError, TypeError, ValueError) as exc:
            raise ResultFormatError("malformed cnf: %s" % exc) from exc
    miter = None
    if payload["miter"] is not None:
        try:
            aig = read_aag(io.StringIO(payload["miter"]))
        except ValueError as exc:
            raise ResultFormatError("malformed miter: %s" % exc) from exc
        miter = Miter(aig, map_a=None, map_b=None,
                      output_pairs=None, xor_lits=None)
    counterexample = payload["counterexample"]
    if counterexample is not None:
        counterexample = [int(bit) for bit in counterexample]
    return CecResult(
        equivalent=payload["equivalent"],
        counterexample=counterexample,
        proof=proof,
        empty_clause_id=payload["empty_clause_id"],
        miter=miter,
        cnf=cnf,
        engine=None,
        elapsed_seconds=payload["elapsed_seconds"],
        stats=payload["stats"],
    )


def verdict_name(equivalent):
    """Stable string form of a three-valued verdict."""
    return {True: "equivalent", False: "not_equivalent",
            None: "undecided"}[equivalent]
