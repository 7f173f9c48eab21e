"""Backward proof trimming.

A CDCL run logs every learned clause, but only the ones in the transitive
antecedent cone of the final empty clause matter. Trimming computes that
cone and can rebuild a compact store containing only the needed clauses,
renumbered in a valid derivation order.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Set, Tuple

from .store import AXIOM, Chain, ProofError, ProofStore


def needed_ids(store: ProofStore, root_id: Optional[int] = None) -> Set[int]:
    """Set of clause ids in the antecedent cone of *root_id*.

    *root_id* defaults to the store's (first) empty clause.
    """
    if root_id is None:
        root_id = store.find_empty_clause()
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
        stack.extend(store.antecedents(clause_id))
    return needed


def trim(
    store: ProofStore,
    root_id: Optional[int] = None,
    recorder: Optional[Any] = None,
) -> Tuple[ProofStore, Dict[int, int]]:
    """Rebuild a store containing only the cone of *root_id*.

    Args:
        recorder: optional
            :class:`~repro.instrument.recorder.Recorder`; records the
            cone-walk and rebuild timings (``trim/cone``,
            ``trim/rebuild``) and the cone/total clause counts.

    Returns:
        ``(trimmed_store, id_map)`` where ``id_map`` maps old ids of kept
        clauses to their new ids.
    """
    instrumented = recorder is not None and recorder.enabled
    start = time.perf_counter() if instrumented else 0.0
    keep = needed_ids(store, root_id)
    if instrumented:
        now = time.perf_counter()
        recorder.add_time("trim/cone", now - start)
        recorder.gauge("trim/total_clauses", len(store))
        recorder.gauge("trim/cone_clauses", len(keep))
        start = now
    trimmed = ProofStore()
    id_map: Dict[int, int] = {}
    for clause_id in sorted(keep):
        clause = store.clause(clause_id)
        chain = store.chain(clause_id)
        if store.kind(clause_id) == AXIOM or chain is None:
            id_map[clause_id] = trimmed.add_axiom(clause)
        else:
            new_chain: Chain = [id_map[chain[0]]]
            for pivot, antecedent_id in chain[1:]:
                new_chain.append((pivot, id_map[antecedent_id]))
            id_map[clause_id] = trimmed.add_derived(clause, new_chain)
    if instrumented:
        recorder.add_time("trim/rebuild", time.perf_counter() - start)
    return trimmed, id_map


def trim_ratio(store: ProofStore, root_id: Optional[int] = None) -> float:
    """Fraction of clauses surviving the trim, ``len(kept) / len(store)``."""
    if not len(store):
        return 1.0
    return len(needed_ids(store, root_id)) / float(len(store))
