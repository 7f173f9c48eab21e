"""Independent resolution-proof checker.

The checker trusts nothing from the engines: it replays every derivation
chain with explicit literal-level resolution, optionally verifies the
axioms against a reference CNF, and confirms the proof culminates in the
empty clause. It shares two small primitives with the producer side:
:func:`repro.proof.store.resolve_chain` replays each chain in one pass
and accepts only what folding :func:`repro.proof.store.resolve` over it
accepts with the same clause; any other chain is replayed again step by
step with ``resolve``, which raises, so every rejection reads as before.
The test suite checks ``resolve`` against a set-based implementation
and ``resolve_chain`` against ``resolve``.

Replay is sequential, in id order, so a rejection always names the
smallest failing clause. The proofs the system produces hold at most a
few thousand clauses, and a parallel replay measured slower than this
loop on every one of them (``docs/performance.md``, "One checker").
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable, Optional, Set

from .store import AXIOM, DERIVED, Chain, Clause, ProofError, ProofStore, \
    resolve, resolve_chain


class CheckResult:
    """Outcome of a successful proof check.

    Attributes:
        num_axioms: axiom clauses seen.
        num_derived: derived clauses replayed.
        num_resolutions: total resolution steps replayed.
        empty_clause_id: id of the verified empty clause (``None`` when the
            check was run without requiring refutation).
    """

    def __init__(
        self,
        num_axioms: int,
        num_derived: int,
        num_resolutions: int,
        empty_clause_id: Optional[int],
    ) -> None:
        self.num_axioms = num_axioms
        self.num_derived = num_derived
        self.num_resolutions = num_resolutions
        self.empty_clause_id = empty_clause_id

    def __repr__(self) -> str:
        return (
            "CheckResult(axioms=%d, derived=%d, resolutions=%d, empty=%r)"
            % (
                self.num_axioms,
                self.num_derived,
                self.num_resolutions,
                self.empty_clause_id,
            )
        )


def check_clause(
    clause_id: int,
    clause: Clause,
    kind: str,
    chain: Optional[Chain],
    get_clause: Callable[[int], Clause],
    allowed: Optional[Set[Clause]],
) -> int:
    """Validate one proof clause; returns the resolution steps replayed.

    Args:
        clause_id: the clause's id (for error reporting and the
            prior-reference check).
        clause: the claimed clause tuple.
        kind: ``AXIOM`` or ``DERIVED``.
        chain: the derivation chain (``None`` for axioms).
        get_clause: callable mapping a clause id to its stored tuple.
        allowed: optional frozen set of normalized axiom clauses.
    """
    if kind == AXIOM:
        if allowed is not None and clause not in allowed:
            raise ProofError(
                "axiom %d = %r is not a clause of the reference CNF"
                % (clause_id, clause),
                clause_id=clause_id,
                rule_id="proof.axiom-foreign",
            )
        return 0
    if kind == DERIVED:
        if chain is None:
            raise ProofError(
                "derived clause %d has no chain" % clause_id,
                clause_id=clause_id,
                rule_id="proof.chain-arity",
            )
        if _replays_to(clause, clause_id, chain, get_clause):
            return len(chain) - 1
        _require_prior(chain[0], clause_id, chain)
        current = get_clause(chain[0])
        steps = 0
        for pivot, antecedent_id in chain[1:]:
            _require_prior(antecedent_id, clause_id, chain)
            current = resolve(current, get_clause(antecedent_id), pivot)
            steps += 1
        if current != clause:
            raise ProofError(
                "clause %d claims %r but chain yields %r"
                % (clause_id, clause, current),
                clause_id=clause_id,
                rule_id="proof.chain-mismatch",
                chain=chain,
            )
        return steps
    raise ProofError(
        "clause %d has unknown kind %r" % (clause_id, kind),
        clause_id=clause_id,
        rule_id="proof.unknown-kind",
    )


def check_proof(
    store: ProofStore,
    axioms: Optional[Iterable[Iterable[int]]] = None,
    require_empty: bool = True,
    recorder: Optional[Any] = None,
    budget: Optional[Any] = None,
) -> CheckResult:
    """Verify every derivation in *store*.

    Args:
        store: the :class:`~repro.proof.store.ProofStore` to verify.
        axioms: optional iterable of clauses (any literal order); when
            given, every axiom in the proof must belong to this set. Pass
            the original CNF's clauses to certify the refutation is *of
            that formula*.
        require_empty: when true, fail unless some clause is empty.
        recorder: optional
            :class:`~repro.instrument.recorder.Recorder`; records the
            replay timing (``check/replay``) plus clause/resolution
            counters.
        budget: optional :class:`~repro.instrument.budget.Budget`,
            consulted every 256 clauses. A checker cannot degrade to a
            partial verdict, so exhaustion raises
            :class:`~repro.instrument.budget.BudgetExhausted` instead of
            returning.

    Returns:
        A :class:`CheckResult`.

    Raises:
        ProofError: on the first invalid derivation, foreign axiom, or
            (when *require_empty*) missing empty clause.
        BudgetExhausted: when *budget* runs out mid-replay.
    """
    instrumented = recorder is not None and recorder.enabled
    start = time.perf_counter() if instrumented else 0.0
    allowed = None if axioms is None else {
        tuple(sorted(set(clause))) for clause in axioms
    }
    num_axioms = 0
    num_derived = 0
    num_resolutions = 0
    empty_id: Optional[int] = None
    clauses, kinds, chains = store.tables()
    get_clause = clauses.__getitem__
    for clause_id in store.ids():
        if budget is not None and clause_id % 256 == 0:
            budget.check()
        clause = clauses[clause_id]
        kind = kinds[clause_id]
        if kind == AXIOM:
            num_axioms += 1
        else:
            num_derived += 1
        num_resolutions += check_clause(
            clause_id, clause, kind, chains[clause_id], get_clause, allowed,
        )
        if not clause and empty_id is None:
            empty_id = clause_id
    if require_empty and empty_id is None:
        raise ProofError(
            "proof does not derive the empty clause",
            rule_id="proof.no-refutation",
        )
    if instrumented:
        recorder.add_time("check/replay", time.perf_counter() - start)
        recorder.count("check/clauses", len(store))
        recorder.count("check/resolutions", num_resolutions)
    return CheckResult(num_axioms, num_derived, num_resolutions, empty_id)


def _replays_to(
    clause: Clause,
    clause_id: int,
    chain: Chain,
    get_clause: Callable[[int], Clause],
) -> bool:
    """True when *chain* provably replays to *clause*.

    Runs :func:`~repro.proof.store.resolve_chain`, which accepts only
    what the :func:`resolve` loop in :func:`check_clause` accepts with
    the same clause. Anything else, including a forward reference or a
    malformed step, returns false, and that loop raises the exact error.
    """
    try:
        first = chain[0]
        steps = chain[1:]
        refs = [ref for _, ref in steps]
        pivots = [pivot for pivot, _ in steps]
        if not 0 <= first < clause_id or min(refs) < 0 \
                or max(refs) >= clause_id:
            return False
        replayed = resolve_chain(
            get_clause(first), map(get_clause, refs), pivots
        )
    except (IndexError, TypeError, ValueError):
        return False
    return replayed is not None and replayed[0] == clause


def _require_prior(
    antecedent_id: int, clause_id: int, chain: Optional[Chain] = None
) -> None:
    if not 0 <= antecedent_id < clause_id:
        raise ProofError(
            "clause %d references antecedent %d that is not prior"
            % (clause_id, antecedent_id),
            clause_id=clause_id,
            rule_id="proof.forward-ref",
            chain=chain,
        )


def check_refutation_of(store: ProofStore, cnf: Any) -> CheckResult:
    """Certify that *store* refutes exactly the formula *cnf*.

    Convenience wrapper over :func:`check_proof` taking a
    :class:`~repro.cnf.clause.CNF`.
    """
    return check_proof(store, axioms=cnf.clauses, require_empty=True)
