"""JSON round-trip for :class:`~repro.core.cec.CecResult`.

The service layer moves equivalence-check results across process and
machine boundaries (worker -> server -> cache -> client), so a result
must serialize to a single self-contained JSON document and come back
as an object :func:`~repro.core.certify.certify` accepts unchanged:

* the **verdict** (equivalent / not equivalent / undecided),
* the **counterexample** input assignment on non-equivalence,
* the **resolution proof** as embedded TraceCheck text,
* the **miter netlist** as embedded ASCII AIGER, and
* the run's ``repro-stats/1`` report (``null`` in the service's
  documents: a job's report travels beside its result, not in the
  cached certificate).

The axiom set the proof refutes is not stored: it is a function of
the miter, Tseitin(miter) plus the miter-output unit
(:func:`~repro.cnf.tseitin.miter_axioms`), and decoding an equivalent
verdict rebuilds it into ``CecResult.cnf``. What does not survive the
trip is the live engine: a deserialized result has ``engine=None``.
Everything the certificate needs is in the document, which is also why
a cached result can be served for the symmetric query ``(B, A)``: the
proof refutes the originally built miter, and
:func:`~repro.core.certify.certify` given the caller's pair checks that
this miter is structurally the pair's.

The document schema is ``repro-cec-result/2`` (``/1`` also stored the
axiom set, as a ``cnf`` block). Round-tripping is exact:
``result_to_dict(result_from_dict(d)) == d`` for any document this
module produced.
"""

import io

from ..aig.aiger import read_aag, write_aag
from ..aig.miter import Miter
from ..cnf.tseitin import miter_axioms, tseitin_encode
from ..proof.store import ProofError
from ..proof.tracecheck import dumps_tracecheck, parse_tracecheck
from .cec import CecResult

from ..analyze.schemas import RESULT_SCHEMA  # noqa: E402  (registry)


class ResultFormatError(ValueError):
    """Raised when a result document is malformed."""


def result_to_dict(result):
    """Serialize *result* to a JSON-compatible ``repro-cec-result/2`` dict.

    The proof (when present) is embedded as TraceCheck text and the
    miter as ASCII AIGER text, so the document needs no side files.
    """
    proof_text = None
    if result.proof is not None:
        proof_text = dumps_tracecheck(result.proof)
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
        "miter": miter_text,
        "elapsed_seconds": result.elapsed_seconds,
        "stats": result.stats,
    }


def result_from_dict(payload):
    """Rebuild a :class:`CecResult` from a ``repro-cec-result/2`` dict.

    The returned result carries ``engine=None`` (there is no live
    sweep engine on this side of the wire); everything
    :func:`~repro.core.certify.certify` touches — verdict, proof,
    miter, counterexample — is reconstructed exactly, and an
    equivalent verdict's ``cnf`` is the axiom set of the decoded miter.

    Raises:
        ResultFormatError: on a missing/foreign schema tag or
            structurally broken payload, including an embedded proof or
            miter that does not decode, or an equivalent verdict
            without a miter.
    """
    if not isinstance(payload, dict):
        raise ResultFormatError("result document must be a dict")
    if payload.get("schema") != RESULT_SCHEMA:
        raise ResultFormatError(
            "bad result schema tag %r" % (payload.get("schema"),)
        )
    for key in ("equivalent", "counterexample", "empty_clause_id",
                "proof", "miter", "elapsed_seconds", "stats"):
        if key not in payload:
            raise ResultFormatError("result document missing key %r" % key)
    equivalent = payload["equivalent"]
    if equivalent is not None and not isinstance(equivalent, bool):
        raise ResultFormatError("bad verdict %r" % (equivalent,))
    proof = None
    if payload["proof"] is not None:
        try:
            proof, _ = parse_tracecheck(payload["proof"])
        except (ProofError, ValueError) as exc:
            raise ResultFormatError("malformed proof: %s" % exc) from exc
    miter = None
    if payload["miter"] is not None:
        try:
            aig = read_aag(io.StringIO(payload["miter"]))
        except ValueError as exc:
            raise ResultFormatError("malformed miter: %s" % exc) from exc
        if aig.num_outputs != 1:
            raise ResultFormatError(
                "miter has %d outputs, not 1" % aig.num_outputs
            )
        miter = Miter(aig, map_a=None, map_b=None,
                      output_pairs=None, xor_lits=None)
    cnf = None
    if equivalent:
        if miter is None:
            raise ResultFormatError("equivalent result carries no miter")
        cnf = miter_axioms(tseitin_encode(miter.aig), miter.output)
    counterexample = payload["counterexample"]
    if counterexample is not None:
        try:
            counterexample = [int(bit) for bit in counterexample]
        except (TypeError, ValueError) as exc:
            raise ResultFormatError(
                "malformed counterexample: %s" % exc
            ) from exc
    return CecResult(
        equivalent=equivalent,
        counterexample=counterexample,
        proof=proof,
        empty_clause_id=payload["empty_clause_id"],
        miter=miter,
        cnf=cnf,
        engine=None,
        elapsed_seconds=payload["elapsed_seconds"],
        stats=payload["stats"],
    )
