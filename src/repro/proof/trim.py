"""Backward proof trimming.

A CDCL run logs every learned clause, but only the ones in the transitive
antecedent cone of the final empty clause matter. Trimming computes that
cone and can rebuild a compact store containing only the needed clauses,
renumbered in a valid derivation order.

The cone walk and the rebuild are the store's own
(:meth:`~repro.proof.store.ReferenceProofStore.needed_ids` and
:meth:`~repro.proof.store.ReferenceProofStore.rebuild`), so they run in
C on the C store.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Set, Tuple

from .store import ProofStore


def needed_ids(store: ProofStore, root_id: Optional[int] = None) -> Set[int]:
    """Set of clause ids in the antecedent cone of *root_id*.

    *root_id* defaults to the store's (first) empty clause.
    """
    return store.needed_ids(root_id)


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
    keep = store.needed_ids(root_id)
    if instrumented:
        now = time.perf_counter()
        recorder.add_time("trim/cone", now - start)
        recorder.gauge("trim/total_clauses", len(store))
        recorder.gauge("trim/cone_clauses", len(keep))
        start = now
    trimmed, id_map = store.rebuild(keep)
    if instrumented:
        recorder.add_time("trim/rebuild", time.perf_counter() - start)
    return trimmed, id_map


def trim_ratio(store: ProofStore, root_id: Optional[int] = None) -> float:
    """Fraction of clauses surviving the trim, ``len(kept) / len(store)``."""
    if not len(store):
        return 1.0
    return len(store.needed_ids(root_id)) / float(len(store))
