"""Declarative registry of every versioned wire/document schema.

One module owns every ``repro-*/N`` schema tag, the service verb
vocabulary, and the key sets of each versioned JSON document the tools
emit or accept. Producers and consumers import their constants from
here (``repro-lint schema`` enforces that no tag is spelled inline
anywhere else), and :mod:`repro.analyze.schema_drift` diffs the source
tree against this registry: keys written but never declared, keys
declared but never read, version strings that do not match.

This module is a *leaf*: it imports nothing from ``repro`` (only the
stdlib ``typing``), so any module — including the lowest layers of
:mod:`repro.instrument` — can import it without creating a cycle
through :mod:`repro.analyze`.

The registry describes shape, not semantics. Each runtime validator
(:func:`repro.instrument.recorder.validate_report`, ...) remains the
authority on value types and invariants; this registry is what static
analysis and the validators share: the tag and the top-level key
vocabulary.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

# ---------------------------------------------------------------------------
# Schema version tags. These are the only places the literal strings
# may appear in ``src/repro`` (docstrings aside).
# ---------------------------------------------------------------------------

#: Wire protocol of the CEC service (requests and responses).
SERVICE_SCHEMA = "repro-service/1"
#: Recorder output: phases, counters, gauges, budget, meta.
STATS_SCHEMA = "repro-stats/1"
#: Stitched span traces (client + server + worker).
TRACE_SCHEMA = "repro-trace/1"
#: Histogram metrics registry dumps.
METRICS_SCHEMA = "repro-metrics/1"
#: Static-analysis reports (this package's own output).
LINT_SCHEMA = "repro-lint/1"
#: Self-contained equivalence-check certificates. ``/2`` dropped the
#: stored ``cnf`` block: the axiom set is rebuilt from the miter.
RESULT_SCHEMA = "repro-cec-result/2"
#: Proof-cache entry metadata blocks.
CACHE_META_SCHEMA = "repro-cec-cache/1"
#: Fleet tier: the cross-shard proof-cache protocol spoken between the
#: ``repro-router`` and its backend shards (and by ``repro-client
#: cache``). Rides the same line-JSON transport as ``repro-service/1``;
#: responses to fleet verbs carry this envelope tag.
FLEET_SCHEMA = "repro-fleet/1"
#: Live progress heartbeats emitted by the solver/sweep hot path and
#: forwarded through ``repro-serve`` on the ``progress`` verb.
PROGRESS_SCHEMA = "repro-progress/1"

#: The service verb vocabulary, in documentation order.
SERVICE_VERBS: Tuple[str, ...] = (
    "ping", "submit", "status", "result", "cancel", "progress", "stats",
    "metrics", "shutdown",
)

#: The fleet (cross-shard cache protocol) verb vocabulary: ``cache`` is
#: the stats/probe verb, ``cache-get``/``cache-put`` move one
#: content-addressed result document between shards.
FLEET_VERBS: Tuple[str, ...] = ("cache", "cache-get", "cache-put")


class SchemaSpec:
    """Shape of one versioned JSON document family.

    Attributes:
        tag: the ``repro-*/N`` version string.
        required: top-level keys every instance must carry.
        optional: top-level keys an instance may carry.
        verbs: verb vocabulary (service schema only; empty elsewhere).
        description: one-line human summary.
    """

    __slots__ = ("tag", "required", "optional", "verbs", "description")

    def __init__(
        self,
        tag: str,
        required: Tuple[str, ...],
        optional: Tuple[str, ...] = (),
        verbs: Tuple[str, ...] = (),
        description: str = "",
    ) -> None:
        self.tag = tag
        self.required: FrozenSet[str] = frozenset(required)
        self.optional: FrozenSet[str] = frozenset(optional)
        self.verbs: FrozenSet[str] = frozenset(verbs)
        self.description = description

    @property
    def keys(self) -> FrozenSet[str]:
        """All declared top-level keys (required plus optional)."""
        return self.required | self.optional

    def __repr__(self) -> str:
        return "SchemaSpec(%r)" % (self.tag,)


#: Request fields of ``repro-service/1``, by verb usage. Requests never
#: carry the ``schema`` key (the envelope does); they are identified by
#: their ``verb`` key, which is why the spec records them separately.
SERVICE_REQUEST_KEYS: FrozenSet[str] = frozenset({
    "verb",
    # submit
    "aag_a", "aag_b", "options", "time_limit", "conflict_limit",
    "certify", "lint", "trace",
    # submit, set by the router only: answer a cache hit, admit no job
    "cache_only",
    # status / result / cancel / progress
    "job", "wait", "timeout",
})

#: Request fields of the ``repro-fleet/1`` cache-protocol verbs. A
#: fleet request is identified by its ``verb`` key exactly like a
#: service request (same transport, same dispatcher).
FLEET_REQUEST_KEYS: FrozenSet[str] = frozenset({
    "verb",
    # cache (probe) / cache-get / cache-put
    "key", "result", "meta",
})

SCHEMAS: Dict[str, SchemaSpec] = {
    spec.tag: spec
    for spec in (
        SchemaSpec(
            SERVICE_SCHEMA,
            # The response envelope (ok_response/error_response).
            required=("schema", "ok", "verb", "final"),
            optional=(
                "error",
                # ping
                "version", "protocol",
                # submit / status / result / cancel snapshots
                "job", "state", "cached", "verdict", "queue_depth",
                "queue_limit", "elapsed_seconds", "cancelled",
                # cache_only submit miss: the shard's free workers
                "idle_workers",
                # result payloads
                "result", "worker_stats", "job_stats", "trace",
                # progress (latest heartbeat)
                "progress",
                # stats / metrics
                "stats", "metrics", "prometheus",
            ),
            verbs=SERVICE_VERBS,
            description="line-delimited JSON wire protocol of repro-serve",
        ),
        SchemaSpec(
            STATS_SCHEMA,
            required=("schema", "elapsed_seconds", "phases", "counters",
                      "gauges", "budget", "meta"),
            description="Recorder phase/counter/gauge report",
        ),
        SchemaSpec(
            TRACE_SCHEMA,
            required=("schema", "trace_id", "spans"),
            description="stitched span trace of one run or job",
        ),
        SchemaSpec(
            METRICS_SCHEMA,
            required=("schema", "histograms"),
            description="histogram metrics registry dump",
        ),
        SchemaSpec(
            LINT_SCHEMA,
            required=("schema", "elapsed_seconds", "passes", "findings",
                      "summary", "meta"),
            description="static-analysis findings report",
        ),
        SchemaSpec(
            RESULT_SCHEMA,
            required=("schema", "equivalent", "counterexample",
                      "empty_clause_id", "proof", "miter",
                      "elapsed_seconds", "stats"),
            description="self-contained equivalence-check certificate",
        ),
        SchemaSpec(
            CACHE_META_SCHEMA,
            required=("schema", "key", "verdict"),
            optional=("job",),
            description="proof-cache entry metadata block",
        ),
        SchemaSpec(
            PROGRESS_SCHEMA,
            required=("schema", "seq", "elapsed_seconds", "phase",
                      "counters"),
            optional=("deltas", "rates", "sweep", "budget_fraction",
                      "eta_seconds", "job", "meta"),
            description="live solver/sweep progress heartbeat",
        ),
        SchemaSpec(
            FLEET_SCHEMA,
            # Same envelope shape as the service responses; fleet verbs
            # answer under this tag (fleet_response/fleet_error).
            required=("schema", "ok", "verb", "final"),
            optional=(
                "error",
                # cache probe / cache-get / cache-put
                "key", "found", "stored", "result", "meta",
                # keyed cache probe: the shard's free workers
                "idle_workers",
                # keyless cache (stats) answers
                "entries", "hits", "misses", "stores",
            ),
            verbs=FLEET_VERBS,
            description="cross-shard proof-cache protocol of the fleet "
            "tier",
        ),
    )
}

#: Constant names under which the tags travel, for static resolution of
#: ``{"schema": STATS_SCHEMA, ...}`` document literals. ``PROTOCOL_SCHEMA``
#: is :mod:`repro.service.protocol`'s historical alias for the service tag.
SCHEMA_CONSTANTS: Dict[str, str] = {
    "SERVICE_SCHEMA": SERVICE_SCHEMA,
    "PROTOCOL_SCHEMA": SERVICE_SCHEMA,
    "STATS_SCHEMA": STATS_SCHEMA,
    "TRACE_SCHEMA": TRACE_SCHEMA,
    "METRICS_SCHEMA": METRICS_SCHEMA,
    "LINT_SCHEMA": LINT_SCHEMA,
    "RESULT_SCHEMA": RESULT_SCHEMA,
    "CACHE_META_SCHEMA": CACHE_META_SCHEMA,
    "FLEET_SCHEMA": FLEET_SCHEMA,
    "PROGRESS_SCHEMA": PROGRESS_SCHEMA,
}


def spec_for(tag: str) -> Optional[SchemaSpec]:
    """The :class:`SchemaSpec` registered under *tag*, or ``None``."""
    return SCHEMAS.get(tag)


def constant_tag(name: str) -> Optional[str]:
    """The tag a schema-constant *name* denotes, or ``None``."""
    return SCHEMA_CONSTANTS.get(name)
