"""The service's unit of work: one equivalence check in a worker process.

:func:`execute_job` is the only function the server submits to its
pool. It is deliberately self-contained and picklable-friendly: the
request and the response are plain dicts (AIGER text in, a
``repro-cec-result/2`` document out), so the same function runs
identically under a :class:`~concurrent.futures.ProcessPoolExecutor`,
an in-process thread (``--workers 0``), or a bare call in tests.

Per-job resource limits become a :class:`~repro.instrument.Budget`
inside the worker; exhaustion surfaces as an *undecided* verdict in a
successful response — a budget never crashes a worker. Input defects
(unparseable AIGER, incompatible interfaces, unknown options) come
back as structured ``bad-input`` errors.
"""

import io
import time

from ..aig.aiger import AigerError, read_aag
from ..core.cec import check_equivalence, verdict_name
from ..core.certify import CertificationError, certify
from ..core.fraig import SweepOptions
from ..core.serialize import result_to_dict
from ..instrument import Budget, Recorder, TraceContext
from ..instrument.budget import check_limit
from ..instrument.progress import (
    DEFAULT_INTERVAL,
    ProgressTracker,
    snapshot_sink,
)
from ..proof.trim import trim
from .cache import OPTION_FIELDS
from .protocol import ERR_BAD_INPUT, ERR_CERTIFY_FAILED


def build_options(options_dict):
    """Construct :class:`SweepOptions` from a request's options mapping.

    Raises:
        ValueError: on unknown option names (callers map this to a
            ``bad-input`` response).
    """
    options_dict = dict(options_dict or {})
    unknown = sorted(set(options_dict) - set(OPTION_FIELDS))
    if unknown:
        raise ValueError("unknown engine options: %s" % ", ".join(unknown))
    return SweepOptions(**options_dict)


def check_budget(request):
    """Check a submit's ``time_limit`` (null or a non-negative number)
    and ``conflict_limit`` (null or a non-negative int) by the rule
    :class:`Budget` applies.

    Raises:
        ValueError: on any other value, a bool or a NaN included
            (callers map this to a ``bad-input`` response).
    """
    check_limit("time_limit", request.get("time_limit"))
    check_limit("conflict_limit", request.get("conflict_limit"), int)


def execute_job(request):
    """Run one equivalence check described by *request*.

    Request fields: ``aag_a``/``aag_b`` (ASCII AIGER text), ``options``
    (mapping of :class:`SweepOptions` fields), ``time_limit`` /
    ``conflict_limit`` (per-job budget), ``certify`` (replay the proof
    in the worker before answering), ``lint`` (with certify: lint
    fast-reject first). An equivalent verdict always ships its trimmed
    proof.

    An optional ``trace`` field (a :class:`TraceContext` wire mapping)
    threads the submitting client's trace through the worker: every
    phase the check runs — ``service/check`` down to the solver and
    sweep phases — is recorded as a span of that trace, parented under
    the server's job span. A missing or malformed mapping degrades to a
    fresh trace; it never fails the job.

    Returns one of::

        {"ok": True, "verdict": ..., "result": <repro-cec-result/2>,
         "stats": <repro-stats/1>, "trace": <repro-trace/1>,
         "started_at": <epoch seconds>}
        {"ok": False, "error": {"code": ..., "message": ...}}

    The job's report travels once, as ``stats``: the result document,
    which the server caches and serves on every hit, carries
    ``"stats": null``. ``started_at`` is the worker's own start stamp:
    the server measures the job's queue wait up to it.
    """
    started_at = time.time()
    recorder = Recorder()
    recorder.meta["tool"] = "repro-serve-worker"
    context, _ = TraceContext.from_wire(request.get("trace"))
    recorder.start_trace(context)
    try:
        aig_a = read_aag(io.StringIO(request["aag_a"]))
        aig_b = read_aag(io.StringIO(request["aag_b"]))
        options = build_options(request.get("options"))
    except (AigerError, ValueError, KeyError) as exc:
        return _error(ERR_BAD_INPUT, str(exc))
    budget = None
    time_limit = request.get("time_limit")
    conflict_limit = request.get("conflict_limit")
    if time_limit is not None or conflict_limit is not None:
        budget = Budget(time_limit=time_limit, conflict_limit=conflict_limit)
    # Live progress: the server hands each job a private spool path;
    # the tracker replaces it with each repro-progress/1 heartbeat and
    # the server's `progress` verb reads it. Strictly observational —
    # the solver trajectory is identical with or without it.
    progress_path = request.get("progress_path")
    if progress_path:
        interval = request.get("progress_interval") or DEFAULT_INTERVAL
        recorder.progress = ProgressTracker(
            snapshot_sink(progress_path),
            interval_seconds=float(interval),
            budget=budget,
            meta={"tool": "repro-serve-worker"},
        )
    try:
        with recorder.phase("service/check"):
            result = check_equivalence(
                aig_a, aig_b, options, recorder=recorder, budget=budget
            )
    except ValueError as exc:
        # Interface mismatches and kin: the query, not the server.
        return _error(ERR_BAD_INPUT, str(exc))
    if result.proof is not None:
        with recorder.phase("service/trim"):
            trimmed, _ = trim(result.proof, recorder=recorder)
        result.proof = trimmed
        result.empty_clause_id = trimmed.find_empty_clause()
    if request.get("certify") and result.equivalent is not None:
        try:
            with recorder.phase("service/certify"):
                certify(result, lint=bool(request.get("lint")))
        except CertificationError as exc:
            return _error(ERR_CERTIFY_FAILED, str(exc))
    stats = recorder.report(budget=budget)
    result.stats = None  # sent once, as "stats", never cached
    return {
        "ok": True,
        "verdict": verdict_name(result.equivalent),
        "result": result_to_dict(result),
        "stats": stats,
        "trace": recorder.trace_report(),
        "started_at": started_at,
    }


def _error(code, message):
    return {"ok": False, "error": {"code": code, "message": message}}
