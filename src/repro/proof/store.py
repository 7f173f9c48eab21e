"""Resolution proof store.

A proof is a DAG of clauses. Leaves are *axioms* (clauses of the original
CNF). Internal nodes are *derived* clauses, each annotated with a linear
(trivial) resolution chain: a first antecedent followed by a sequence of
``(pivot variable, antecedent)`` steps. Trivial chains are exactly what
CDCL conflict analysis produces, and chaining them composes into general
resolution, so this representation loses no generality while keeping
checking simple and linear.

The store assigns dense integer ids. Ids are stable: deleting a clause from
a SAT solver's working set never removes it from the proof (the proof may
still reference it).

Example:
    >>> store = ProofStore()
    >>> a = store.add_axiom((1, 2))
    >>> b = store.add_axiom((-1, 2))
    >>> c = store.add_derived((2,), [a, (1, b)])
    >>> store.clause(c)
    (2,)
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, \
    Sequence, Tuple

from ..cnf.clause import normalize_clause

AXIOM = "axiom"
DERIVED = "derived"

#: A clause: sorted tuple of distinct nonzero DIMACS literals.
Clause = Tuple[int, ...]

#: A derivation chain ``[first_id, (pivot, id), ...]``: one int followed
#: by ``(pivot, antecedent_id)`` pairs. Typed loosely because the two
#: element shapes differ positionally; the store validates the structure
#: at append time.
Chain = List[Any]


class ProofError(Exception):
    """Raised when a proof object or derivation is invalid.

    Attributes:
        clause_id: id of the offending clause when the failure is
            attributable to one (``None`` otherwise). The checker stops
            at the first failing clause in id order, so this is the
            smallest failing id.
        rule_id: stable machine-readable identifier of the violated
            invariant (e.g. ``"proof.forward-ref"``). The ids are shared
            with the static linter in :mod:`repro.analyze.proof_lint`, so
            a replay failure and the corresponding lint finding name the
            same rule. ``None`` for errors predating a rule assignment.
        chain: the offending derivation chain, when one is involved.
    """

    def __init__(
        self,
        message: str,
        clause_id: Optional[int] = None,
        rule_id: Optional[str] = None,
        chain: Optional[Chain] = None,
    ) -> None:
        Exception.__init__(self, message)
        self.clause_id = clause_id
        self.rule_id = rule_id
        self.chain = chain

    def render(self) -> str:
        """Uniform one-line rendering: ``[rule] message (clause N)``.

        Both CLIs print proof errors through this method so checker and
        linter failures look the same regardless of which layer caught
        the defect first.
        """
        parts = []
        if self.rule_id is not None:
            parts.append("[%s]" % self.rule_id)
        parts.append(str(self))
        if self.clause_id is not None and "clause %d" % self.clause_id not in str(self):
            parts.append("(clause %d)" % self.clause_id)
        return " ".join(parts)


def resolve(clause_a: Clause, clause_b: Clause, pivot_var: int) -> Clause:
    """Resolve two clauses on *pivot_var*.

    One clause must contain ``pivot_var`` positively and the other
    negatively; the resolvent is the union minus the pivot literals.

    Raises:
        ProofError: when the pivot does not occur with opposite phases, or
            the resolvent is tautological (a sign of a malformed chain).
    """
    if pivot_var in clause_a and -pivot_var in clause_b:
        pos, neg = clause_a, clause_b
    elif pivot_var in clause_b and -pivot_var in clause_a:
        pos, neg = clause_b, clause_a
    else:
        raise ProofError(
            "pivot %d does not occur with opposite phases in %r and %r"
            % (pivot_var, clause_a, clause_b),
            rule_id="proof.pivot-phase",
        )
    merged = set(pos)
    merged.discard(pivot_var)
    for lit in neg:
        if lit != -pivot_var:
            merged.add(lit)
    for lit in merged:
        if -lit in merged:
            raise ProofError(
                "tautological resolvent on pivot %d from %r and %r"
                % (pivot_var, clause_a, clause_b),
                rule_id="proof.tautology",
            )
    return tuple(sorted(merged))


def resolve_chain(
    first: Clause,
    antecedents: Iterable[Clause],
    pivots: Optional[Iterable[int]] = None,
) -> Optional[Tuple[Clause, List[int]]]:
    """Replay a whole trivial resolution chain in one pass.

    The fast path of folding :func:`resolve` over a chain: the running
    resolvent stays one set for the whole chain, each step reads only
    the antecedent's literals, and the result is sorted once at the end.
    Step ``i`` resolves *first*'s running resolvent against
    ``antecedents[i]`` on ``pivots[i]``; with *pivots* ``None``, each
    step's pivot is the one variable on which the two clash.

    Returns ``(resolvent, pivot variables)`` only when folding
    :func:`resolve` from *first* returns that resolvent without raising.
    On any anomaly it returns ``None`` and leaves the verdict to that
    fold: no antecedents, a repeated, tautological or zero literal in
    *first*, a missing, ambiguous or same-phase pivot, or a clash on a
    second variable (which includes a tautological antecedent).
    """
    current = set(first)
    if len(current) != len(first):
        return None
    for lit in first:
        if -lit in current:
            return None
    # ``pivot_lit`` is the antecedent's pivot literal; the running
    # resolvent holds its negation.
    used: List[int] = []
    given = iter(pivots) if pivots is not None else None
    for other in antecedents:
        if given is None:
            # A clash on a second variable surfaces below as a
            # tautology.
            for pivot_lit in other:
                if -pivot_lit in current:
                    break
            else:
                return None
        else:
            pivot = next(given)
            if -pivot in current and pivot in other:
                pivot_lit = pivot
            elif pivot in current and -pivot in other:
                pivot_lit = -pivot
            else:
                return None
        current.remove(-pivot_lit)
        for lit in other:
            if lit != pivot_lit:
                current.add(lit)
                if -lit in current:
                    return None
        used.append(pivot_lit if pivot_lit > 0 else -pivot_lit)
    if not used:
        return None
    return tuple(sorted(current)), used


class ProofStore:
    """Container for one resolution proof under construction.

    Args:
        validate: when true, every :meth:`add_derived` replays its chain
            immediately and rejects mismatches. Slower; intended for tests
            and debugging. The independent checker in
            :mod:`repro.proof.checker` performs the same replay after the
            fact regardless of this flag.
        recorder: optional :class:`~repro.instrument.recorder.Recorder`;
            the store counts every appended clause (axiom/derived split
            and resolution-step totals) into the ``proof/*`` counter
            namespace as it grows.
    """

    def __init__(self, validate: bool = False, recorder: Optional[Any] = None) -> None:
        self.validate = validate
        self.recorder = recorder
        self._clauses: List[Clause] = []
        self._kinds: List[str] = []
        self._chains: List[Optional[Chain]] = []
        self._axiom_ids: Dict[Clause, int] = {}
        # O(1) growth counters; stores reach 1e5-1e6 clauses on the
        # larger benchmarks, so nothing here may rescan the clause list.
        self._num_axioms = 0
        self._num_derived = 0
        self._num_resolutions = 0
        self._empty_id: Optional[int] = None

    def __len__(self) -> int:
        return len(self._clauses)

    @property
    def num_axioms(self) -> int:
        """Number of axiom clauses."""
        return self._num_axioms

    @property
    def num_derived(self) -> int:
        """Number of derived clauses."""
        return self._num_derived

    @property
    def num_resolutions(self) -> int:
        """Total resolution steps across all derivation chains."""
        return self._num_resolutions

    def clause(self, clause_id: int) -> Clause:
        """The clause tuple stored under *clause_id*."""
        return self._clauses[clause_id]

    def kind(self, clause_id: int) -> str:
        """``'axiom'`` or ``'derived'``."""
        return self._kinds[clause_id]

    def chain(self, clause_id: int) -> Optional[Chain]:
        """The derivation chain of a derived clause (``None`` for axioms).

        A chain is ``[first_id, (pivot1, id1), (pivot2, id2), ...]``.
        """
        return self._chains[clause_id]

    def ids(self) -> range:
        """Iterate all clause ids in insertion (derivation) order."""
        return range(len(self._clauses))

    def tables(
        self,
    ) -> Tuple[Sequence[Clause], Sequence[str], Sequence[Optional[Chain]]]:
        """Read-only ``(clauses, kinds, chains)`` column views.

        Bulk accessor for analysis passes that index every clause; the
        per-id accessors cost a method call each, which dominates tight
        loops over large proofs. Callers must not mutate the returned
        sequences.
        """
        return self._clauses, self._kinds, self._chains

    def add_axiom(self, lits: Iterable[int]) -> int:
        """Register an axiom clause and return its id.

        Re-registering an identical axiom returns the existing id, so the
        CNF-loading code can be called idempotently.
        """
        clause = normalize_clause(lits)
        existing = self._axiom_ids.get(clause)
        if existing is not None:
            return existing
        clause_id = self._append(clause, AXIOM, None)
        self._axiom_ids[clause] = clause_id
        return clause_id

    def add_derived(self, lits: Iterable[int], chain: Iterable[Any]) -> int:
        """Register a derived clause with its resolution chain.

        Args:
            lits: the clause literals.
            chain: ``[first_id, (pivot, id), ...]`` — at least one
                resolution step.

        Returns:
            The new clause id.
        """
        clause = tuple(sorted(set(lits)))
        chain = list(chain)
        if len(chain) < 2:
            raise ProofError(
                "derivation chain needs at least two antecedents",
                rule_id="proof.chain-arity",
                chain=chain,
            )
        first = chain[0]
        if not isinstance(first, int):
            raise ProofError(
                "chain must start with a clause id",
                rule_id="proof.chain-arity",
                chain=chain,
            )
        for step in chain[1:]:
            if not (isinstance(step, tuple) and len(step) == 2):
                raise ProofError(
                    "chain steps must be (pivot, id) pairs",
                    rule_id="proof.chain-arity",
                    chain=chain,
                )
        self._require_prior_refs(chain)
        if self.validate:
            replayed = self.replay_chain(chain)
            if replayed != clause:
                raise ProofError(
                    "chain replays to %r, not the claimed %r" % (replayed, clause),
                    rule_id="proof.chain-mismatch",
                    chain=chain,
                )
        return self._append(clause, DERIVED, chain)

    def replay_chain(self, chain: Chain) -> Clause:
        """Replay a chain and return the resulting clause."""
        current = self._clauses[chain[0]]
        for pivot, clause_id in chain[1:]:
            current = resolve(current, self._clauses[clause_id], pivot)
        return current

    def _append(self, clause: Clause, kind: str, chain: Optional[Chain]) -> int:
        clause_id = len(self._clauses)
        self._clauses.append(clause)
        self._kinds.append(kind)
        self._chains.append(chain)
        steps = 0 if chain is None else len(chain) - 1
        if kind == AXIOM:
            self._num_axioms += 1
        else:
            self._num_derived += 1
            self._num_resolutions += steps
        if not clause and self._empty_id is None:
            self._empty_id = clause_id
        recorder = self.recorder
        if recorder is not None and recorder.enabled:
            recorder.count("proof/clauses")
            if kind == AXIOM:
                recorder.count("proof/axioms")
            else:
                recorder.count("proof/derived")
                recorder.count("proof/resolutions", steps)
        return clause_id

    def _require_prior_refs(self, chain: Chain) -> None:
        next_id = len(self._clauses)
        for ref in self._chain_refs(chain):
            if not 0 <= ref < next_id:
                raise ProofError(
                    "chain references clause %d not yet derived" % ref,
                    rule_id="proof.forward-ref",
                    chain=chain,
                )

    @staticmethod
    def _chain_refs(chain: Chain) -> Iterator[int]:
        yield chain[0]
        for _, clause_id in chain[1:]:
            yield clause_id

    def antecedents(self, clause_id: int) -> Tuple[int, ...]:
        """Ids referenced by the derivation of *clause_id* (empty for axioms)."""
        chain = self._chains[clause_id]
        if chain is None:
            return ()
        return tuple(self._chain_refs(chain))

    def find_empty_clause(self) -> Optional[int]:
        """Id of the first empty clause, or ``None``.

        O(1): the id is cached at :meth:`_append` time rather than
        rescanning the clause list (which reaches 10^5-10^6 entries on
        the larger benchmarks) on every call.
        """
        return self._empty_id

    def derive_resolvent(self, id_a: int, id_b: int, pivot_var: int) -> int:
        """Resolve two stored clauses and record the result. Returns the id."""
        clause = resolve(self._clauses[id_a], self._clauses[id_b], pivot_var)
        chain: Chain = [id_a, (pivot_var, id_b)]
        self._require_prior_refs(chain)
        return self._append(clause, DERIVED, chain)
