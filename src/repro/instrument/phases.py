"""Registry of instrumentation phase names.

Every literal phase name passed to
:meth:`~repro.instrument.recorder.Recorder.phase` or
:meth:`~repro.instrument.recorder.Recorder.add_time` anywhere in
``src/repro`` must be registered here. The custom AST lint rule
``code.phase-registry`` (see :mod:`repro.analyze.ast_rules`) enforces
this, which keeps the ``repro-stats/1`` phase namespace a closed,
documented set: dashboards and the benchmark harness can rely on phase
names without grepping the codebase.

Registering a name is a one-line addition below; the lint failure
message points here.
"""

from __future__ import annotations

from typing import FrozenSet

#: Closed set of phase-timer names appearing in ``repro-stats/1``
#: reports. Grouped by producing subsystem.
PHASE_REGISTRY: FrozenSet[str] = frozenset({
    # sat/solver.py
    "solver/solve",
    "solver/propagate",
    "solver/analyze",
    "solver/restart",
    # baselines/monolithic.py
    "monolithic/encode",
    "monolithic/load",
    "monolithic/solve",
    # proof/checker.py + check_cli.py
    "check/read",
    "check/replay",
    # proof/trim.py
    "trim/cone",
    "trim/rebuild",
    # core/cec.py
    "cec/miter",
    "cec/sweep",
    "cec/conclude",
    # core/fraig.py
    "sweep/encode",
    "sweep/load",
    "sweep/sim",
    "sweep/strash",
    "sweep/sat",
    "sweep/total",
    "sweep/refine-batch",
    # analyze/* (static lint passes)
    "lint/read",
    "lint/proof",
    "lint/aig",
    "lint/cnf",
    "lint/code",
    # service/* (persistent CEC server, worker pool, proof cache)
    "service/job",
    "service/check",
    "service/certify",
    "service/trim",
    "service/queue-wait",
    "cache/lookup",
    "cache/store",
    # service client (one span/timer around a submitted request)
    "client/request",
    # fleet/router.py (front-door hop and cross-shard cache transfer)
    "fleet/route",
    "fleet/cache-transfer",
})
