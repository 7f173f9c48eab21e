"""End-to-end certification of a CEC result.

Replays the resolution proof attached to a :class:`~repro.core.cec.CecResult`
against the miter CNF with the independent checker, confirming that the
engine's equivalence verdict is witnessed by a valid refutation of exactly
the right axiom set. For non-equivalence verdicts, re-evaluates the
counterexample on the miter.
"""

from ..proof.checker import check_proof


class CertificationError(Exception):
    """The result's certificate failed verification."""


def certify(result, rup=False, lint=False):
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

    Returns:
        The :class:`~repro.proof.checker.CheckResult` for equivalence
        verdicts; True for validated counterexamples.

    Raises:
        CertificationError: when the certificate is missing or invalid.
    """
    if result.equivalent is None:
        raise CertificationError("result is undecided; nothing to certify")
    if result.equivalent is False:
        return _certify_counterexample(result)
    if result.proof is None:
        raise CertificationError(
            "equivalence verdict carries no proof (logging was disabled)"
        )
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


def _certify_counterexample(result):
    cex = result.counterexample
    if cex is None:
        raise CertificationError("non-equivalence verdict carries no witness")
    outputs = result.miter.aig.evaluate(cex)
    if outputs[0] != 1:
        raise CertificationError(
            "counterexample %r does not set the miter output" % (cex,)
        )
    return True
