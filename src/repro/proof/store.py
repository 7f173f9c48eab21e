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

Literals, pivots and clause ids are ints (``bool`` is refused); literals
fit in 64 bits with their negation, ``|lit| < 2**63``.

Two classes implement the store. :class:`ReferenceProofStore` is Python.
:class:`ProofStore` subclasses ``Store``, the C type of ``store.c``
(built on first import by :mod:`repro.native`), which holds the same
columns as the same Python objects and runs the appends and the trim's
cone walk and rebuild. A host that cannot build the module runs
``ReferenceProofStore`` as ``ProofStore`` (one warning on the
``repro.proof`` logger). Both give the same ids, columns, counters and
errors; the tests hold them to that, as they hold ``Solver`` to
``ReferenceSolver``.

Example:
    >>> store = ProofStore()
    >>> a = store.add_axiom((1, 2))
    >>> b = store.add_axiom((-1, 2))
    >>> c = store.add_derived((2,), [a, (1, b)])
    >>> store.clause(c)
    (2,)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, Iterator, List, \
    Optional, Sequence, Set, Tuple

from .. import native
from ..cnf.clause import normalize_clause
from ..instrument import get_logger

AXIOM = "axiom"
DERIVED = "derived"

#: A clause: sorted tuple of distinct nonzero DIMACS literals.
Clause = Tuple[int, ...]

#: Largest literal magnitude: a literal and its negation fit in 64 bits.
MAX_LITERAL = (1 << 63) - 1

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


def _literals(lits: Iterable[Any]) -> Tuple[int, ...]:
    """*lits* as a tuple, after checking each in order is an int literal.

    Raises:
        TypeError: on a literal that is not an ``int`` (or is a bool).
        ValueError: on a literal outside ``[-MAX_LITERAL, MAX_LITERAL]``.
    """
    lits = tuple(lits)
    for lit in lits:
        if type(lit) is not int:
            raise TypeError("literal %r is not an int" % (lit,))
        if not -MAX_LITERAL <= lit <= MAX_LITERAL:
            raise ValueError("literal %r is out of range" % (lit,))
    return lits


class _StoreReads:
    """The read API of both stores, over the columns they share."""

    __slots__ = ()

    _clauses: List[Clause]
    _kinds: List[str]
    _chains: List[Optional[Chain]]

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

    def replay_chain(self, chain: Chain) -> Clause:
        """Replay a chain and return the resulting clause."""
        current = self._clauses[chain[0]]
        for pivot, clause_id in chain[1:]:
            current = resolve(current, self._clauses[clause_id], pivot)
        return current

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


class ReferenceProofStore(_StoreReads):
    """Container for one resolution proof under construction, in Python.

    :class:`ProofStore` is the same store with its columns, appends and
    trim in C; this class is its reference and its fallback.

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

    def add_axiom(self, lits: Iterable[int]) -> int:
        """Register an axiom clause and return its id.

        Re-registering an identical axiom returns the existing id, so the
        CNF-loading code can be called idempotently.
        """
        clause = normalize_clause(_literals(lits))
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
        clause = tuple(sorted(set(_literals(lits))))
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
            if type(step[0]) is not int:
                raise TypeError("pivot %r is not an int" % (step[0],))
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
            if type(ref) is not int:
                raise TypeError("clause id %r is not an int" % (ref,))
            if not 0 <= ref < next_id:
                raise ProofError(
                    "chain references clause %d not yet derived" % ref,
                    rule_id="proof.forward-ref",
                    chain=chain,
                )

    def find_empty_clause(self) -> Optional[int]:
        """Id of the first empty clause, or ``None``.

        O(1): the id is cached at :meth:`_append` time rather than
        rescanning the clause list (which reaches 10^5-10^6 entries on
        the larger benchmarks) on every call.
        """
        return self._empty_id

    def needed_ids(self, root_id: Optional[int] = None) -> Set[int]:
        """Set of clause ids in the antecedent cone of *root_id*.

        *root_id* defaults to the store's (first) empty clause.
        :class:`ProofStore` walks the cone in C, and calls this method
        instead when the walk would read a column item of another shape
        than the appends make (the corrupt stores of the tests).
        """
        if root_id is None:
            root_id = self.find_empty_clause()
            if root_id is None:
                raise ProofError(
                    "store has no empty clause to trim towards",
                    rule_id="proof.no-refutation",
                )
        needed: Set[int] = set()
        stack = [root_id]
        while stack:
            clause_id = stack.pop()
            if clause_id in needed:
                continue
            needed.add(clause_id)
            stack.extend(self.antecedents(clause_id))
        return needed

    def rebuild(
        self, keep: Iterable[int],
    ) -> Tuple["ReferenceProofStore", Dict[int, int]]:
        """A new store of the clauses in *keep*, in id order.

        Returns:
            ``(store, id_map)`` where ``id_map`` maps the old id of each
            kept clause to its new one.

        :class:`ProofStore` rebuilds in C, and calls this method instead
        when *keep* is not a set of ids or a kept clause's column items
        are of another shape than the appends make.
        """
        rebuilt = type(self)()
        id_map: Dict[int, int] = {}
        for clause_id in sorted(keep):
            clause = self.clause(clause_id)
            chain = self.chain(clause_id)
            if self.kind(clause_id) == AXIOM or chain is None:
                id_map[clause_id] = rebuilt.add_axiom(clause)
            else:
                new_chain: Chain = [id_map[chain[0]]]
                for pivot, antecedent_id in chain[1:]:
                    new_chain.append((pivot, id_map[antecedent_id]))
                id_map[clause_id] = rebuilt.add_derived(clause, new_chain)
        return rebuilt, id_map


_NATIVE = native.load(  # None: this host cannot build store.c
    "repro.proof._store", get_logger("proof"),
    "native proof store unavailable, running the Python ReferenceProofStore",
)

if TYPE_CHECKING:
    ProofStore = ReferenceProofStore
elif _NATIVE is None:
    # The Python store serves where the C store cannot be built.
    ProofStore = ReferenceProofStore
else:
    class ProofStore(_NATIVE.Store, _StoreReads):
        """Container for one resolution proof under construction.

        The columns, appends, cone walk and rebuild of
        :class:`ReferenceProofStore` in C (``store.c``); the same ids,
        columns, counters and errors.

        Args:
            validate: when true, every :meth:`add_derived` replays its
                chain immediately and rejects mismatches.
            recorder: optional
                :class:`~repro.instrument.recorder.Recorder` counting
                every appended clause into ``proof/*``.
        """

        __slots__ = ()


def store_kernel() -> str:
    """Which store :class:`ProofStore` is: ``"native"`` (the C store of
    ``store.c``) or ``"python"`` (:class:`ReferenceProofStore`)."""
    return "python" if ProofStore is ReferenceProofStore else "native"
