"""End-to-end certification of a CEC result.

Replays the resolution proof attached to a :class:`~repro.core.cec.CecResult`
against its axiom set, Tseitin(miter) plus the miter-output unit
(``CecResult.cnf``), with the independent checker, confirming that the
engine's equivalence verdict is witnessed by a valid refutation of exactly
the right axiom set. For non-equivalence verdicts, re-evaluates the
counterexample.

Without the caller's pair a certificate is checked only against itself.
Given the pair ``(A, B)`` the question asked, :func:`certify` also binds
the certificate to it: the result's miter must have the
:func:`~repro.aig.structhash.structural_hash` of ``build_miter(A, B)``
(so another query's valid certificate is rejected, while the symmetric
query ``(B, A)`` hashes alike and still certifies), and a counterexample
must make A and B themselves disagree.
"""

from ..aig.miter import build_miter
from ..aig.structhash import structural_hash
from ..proof.checker import check_proof


class CertificationError(Exception):
    """The result's certificate failed verification."""


def certify(result, rup=False, lint=False, pair=None):
    """Verify the certificate carried by *result*.

    Args:
        result: a :class:`~repro.core.cec.CecResult`.
        rup: additionally cross-validate with the reverse-unit-propagation
            checker.
        lint: run the replay-free structural linter
            (:func:`repro.analyze.proof_lint.lint_proof`) first and
            reject on any error-severity finding *before* paying for
            the full replay. Lint errors are sound rejections, so this
            only changes how fast a bad certificate fails — a clean
            lint still goes through the complete check.
        pair: optional ``(aig_a, aig_b)``, the query *result* claims to
            answer. When given, the result's miter must be structurally
            that of ``build_miter(aig_a, aig_b)``, and a counterexample
            is evaluated on the two circuits instead of the miter.

    Returns:
        The :class:`~repro.proof.checker.CheckResult` for equivalence
        verdicts; True for validated counterexamples.

    Raises:
        CertificationError: when the certificate is missing or invalid,
            or answers another query than *pair*.
    """
    if result.equivalent is None:
        raise CertificationError("result is undecided; nothing to certify")
    if pair is not None:
        _require_miter_of(result, pair)
    if result.equivalent is False:
        return _certify_counterexample(result, pair)
    if result.proof is None:
        raise CertificationError("equivalence verdict carries no proof")
    if lint:
        from ..analyze.proof_lint import lint_proof

        errors = [
            finding
            for finding in lint_proof(result.proof, cnf=result.cnf)
            if finding.severity == "error"
        ]
        if errors:
            raise CertificationError(
                "proof lint rejected the certificate: %s"
                % "; ".join(finding.render() for finding in errors[:3])
            )
    try:
        check = check_proof(
            result.proof, axioms=result.cnf.clauses, require_empty=True,
        )
    except Exception as exc:
        raise CertificationError("resolution check failed: %s" % exc)
    if rup:
        from ..proof.drup import check_rup_proof

        try:
            check_rup_proof(result.proof, axioms=result.cnf.clauses)
        except Exception as exc:
            raise CertificationError("RUP cross-check failed: %s" % exc)
    return check


def _require_miter_of(result, pair):
    if result.miter is None:
        raise CertificationError("result carries no miter to bind")
    try:
        expected = build_miter(*pair)
    except ValueError as exc:
        raise CertificationError("the pair has no miter: %s" % exc)
    if structural_hash(result.miter.aig) != structural_hash(expected.aig):
        raise CertificationError(
            "the certificate answers another query: its miter is not "
            "the miter of the pair"
        )


def _certify_counterexample(result, pair):
    cex = result.counterexample
    if cex is None:
        raise CertificationError("non-equivalence verdict carries no witness")
    try:
        if pair is None:
            separates = result.miter.aig.evaluate(cex)[0] == 1
        else:
            separates = pair[0].evaluate(cex) != pair[1].evaluate(cex)
    except ValueError as exc:
        raise CertificationError("counterexample %r: %s" % (cex, exc))
    if not separates:
        raise CertificationError(
            "counterexample %r does not set the miter output" % (cex,)
            if pair is None
            else "counterexample %r does not separate the pair" % (cex,)
        )
    return True
