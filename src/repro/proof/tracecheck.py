"""TraceCheck resolution-trace format.

TraceCheck (Biere's trace checker, the tool DAC-era proof-logging solvers
targeted) uses one line per clause::

    <id> <lit>* 0 <antecedent-id>* 0

Original (axiom) clauses have an empty antecedent list; derived clauses
list the clauses their trivial resolution chain resolves, in order. Ids
are positive and need not be consecutive.

This module writes a :class:`~repro.proof.store.ProofStore` in the
format, parses traces back into stores (re-deriving the pivot sequence
for each chain), and therefore supports full round-trip testing plus
interoperability with external trace checkers.
"""

from __future__ import annotations

import io
from typing import IO, Dict, List, Tuple, Union

from .store import Chain, Clause, ProofError, ProofStore, resolve, \
    resolve_chain


def write_tracecheck(
    store: ProofStore, path_or_file: Union[str, IO[str]]
) -> None:
    """Write *store* as a TraceCheck trace.

    Clause ids are the store's ids plus one (TraceCheck ids must be
    positive).
    """
    if hasattr(path_or_file, "write"):
        _write(store, path_or_file)
    else:
        with open(path_or_file, "w") as handle:
            _write(store, handle)


def _write(store: ProofStore, out: IO[str]) -> None:
    for clause_id in store.ids():
        clause = store.clause(clause_id)
        parts = [str(clause_id + 1)]
        parts.extend(str(lit) for lit in clause)
        parts.append("0")
        chain = store.chain(clause_id)
        if chain is not None:
            parts.append(str(chain[0] + 1))
            parts.extend(str(ante + 1) for _, ante in chain[1:])
        parts.append("0")
        out.write(" ".join(parts))
        out.write("\n")


def dumps_tracecheck(store: ProofStore) -> str:
    """Render *store* as TraceCheck text.

    The in-memory counterpart of :func:`write_tracecheck`, used by the
    service proof cache and the result serializer to embed proofs in
    JSON payloads; :func:`parse_tracecheck` reads the text back.
    """
    buffer = io.StringIO()
    _write(store, buffer)
    return buffer.getvalue()


def read_tracecheck(
    path_or_file: Union[str, IO[str]],
) -> Tuple[ProofStore, Dict[int, int]]:
    """Parse a TraceCheck trace into a :class:`ProofStore`.

    The pivot of every resolution step is re-derived (it is the unique
    variable occurring with opposite phases in the running resolvent and
    the next antecedent). Antecedents may appear in any chain order as
    long as a valid left-to-right linearization exists in file order;
    this parser requires the listed order to be the chain order, which is
    what :func:`write_tracecheck` produces and TraceCheck conventionally
    expects.

    Returns:
        ``(store, id_map)`` where ``id_map`` maps file ids to store ids.
    """
    if hasattr(path_or_file, "read"):
        text = path_or_file.read()
    else:
        with open(path_or_file) as handle:
            text = handle.read()
    return parse_tracecheck(text)


def parse_tracecheck(text: str) -> Tuple[ProofStore, Dict[int, int]]:
    """Parse TraceCheck text. See :func:`read_tracecheck`.

    Each chain is replayed once by
    :func:`~repro.proof.store.resolve_chain`, which takes every pivot to
    be the one clashing variable. A chain it declines, or one that
    yields another clause than the line claims, is replayed again step
    by step with :func:`~repro.proof.store.resolve`, and that replay
    raises. Accepted traces and errors are exactly those of the
    step-by-step replay alone.

    Raises:
        ProofError: on a syntax error, a duplicate or forward id, an
            axiom line the store refuses (a literal of 64 bits or more,
            a tautology), a step without a unique pivot, or a chain that
            yields another clause than the line claims.
    """
    store = ProofStore()
    id_map: Dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        try:
            numbers = list(map(int, line.split()))
        except ValueError:
            raise ProofError(
                "trace line %d is not numeric: %r" % (lineno, raw),
                rule_id="trace.syntax",
            )
        if len(numbers) < 3:
            raise ProofError(
                "trace line %d too short: %r" % (lineno, raw),
                rule_id="trace.syntax",
            )
        file_id = numbers[0]
        if file_id <= 0:
            raise ProofError(
                "trace line %d: non-positive id" % lineno,
                rule_id="trace.syntax",
            )
        try:
            zero_one = numbers.index(0, 1)
        except ValueError:
            raise ProofError(
                "trace line %d: missing literal terminator" % lineno,
                rule_id="trace.syntax",
            )
        literals = numbers[1:zero_one]
        rest = numbers[zero_one + 1:]
        if not rest or rest[-1] != 0:
            raise ProofError(
                "trace line %d: missing antecedent terminator" % lineno,
                rule_id="trace.syntax",
            )
        antecedents = rest[:-1]
        if 0 in antecedents:
            raise ProofError(
                "trace line %d: zero antecedent id" % lineno,
                rule_id="trace.syntax",
            )
        if file_id in id_map:
            raise ProofError(
                "trace line %d: duplicate id %d" % (lineno, file_id),
                rule_id="trace.duplicate-id",
            )
        if not antecedents:
            try:
                id_map[file_id] = store.add_axiom(literals)
            except ValueError as exc:
                raise ProofError(
                    "trace line %d: %s" % (lineno, exc),
                    rule_id="trace.syntax",
                ) from exc
            continue
        if len(antecedents) < 2:
            raise ProofError(
                "trace line %d: derived clause needs >= 2 antecedents" % lineno,
                rule_id="proof.chain-arity",
            )
        chain_ids: List[int] = []
        for ante in antecedents:
            if ante not in id_map:
                raise ProofError(
                    "trace line %d: antecedent %d not yet defined"
                    % (lineno, ante),
                    rule_id="proof.forward-ref",
                )
            chain_ids.append(id_map[ante])
        chain = _relinearize(store, chain_ids, literals, lineno)
        id_map[file_id] = store.add_derived(literals, chain)
    return store, id_map


def _relinearize(
    store: ProofStore, chain_ids: List[int], claimed: List[int], lineno: int
) -> Chain:
    """Rebuild the pivot-annotated chain from an antecedent id list."""
    clauses = store.tables()[0]
    fast = resolve_chain(
        clauses[chain_ids[0]], [clauses[ante] for ante in chain_ids[1:]]
    )
    if fast is not None and fast[0] == tuple(sorted(set(claimed))):
        return [chain_ids[0], *zip(fast[1], chain_ids[1:])]
    current: Clause = store.clause(chain_ids[0])
    chain: Chain = [chain_ids[0]]
    for ante in chain_ids[1:]:
        other = store.clause(ante)
        current_set = set(current)
        pivots = {abs(lit) for lit in other if -lit in current_set}
        if len(pivots) != 1:
            raise ProofError(
                "trace line %d: no unique pivot between %r and %r"
                % (lineno, current, other),
                rule_id="proof.pivot-phase",
                chain=chain,
            )
        pivot = pivots.pop()
        current = resolve(current, other, pivot)
        chain.append((pivot, ante))
    if current != tuple(sorted(set(claimed))):
        raise ProofError(
            "trace line %d: chain yields %r, claimed %r"
            % (lineno, current, tuple(claimed)),
            rule_id="proof.chain-mismatch",
            chain=chain,
        )
    return chain
