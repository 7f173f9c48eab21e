"""Ablation D — certificate formats and checking costs.

For each suite pair, the engine's (trimmed) proof is measured in three
forms: in-memory resolution checking, reverse-unit-propagation (RUP)
checking, and on-disk size in DRUP vs. TraceCheck encodings. The shape:
resolution replay is the fastest check (pivots are explicit), RUP pays
for unit propagation but needs no antecedent bookkeeping in the file;
TraceCheck files are larger than DRUP (they store antecedents) and buy
back exactly that checking speed.
"""

import io
import time

import pytest

from repro.circuits import SUITE
from repro.proof.checker import check_proof
from repro.proof.drup import check_rup_proof, write_drup
from repro.proof.stats import proof_stats
from repro.proof.tracecheck import write_tracecheck
from repro.proof.trim import trim

from conftest import report_table, run_sweep

_ROWS = {}


@pytest.mark.parametrize("pair", SUITE, ids=lambda p: p.name)
def test_certificate_costs(benchmark, pair, engine_cache):
    result = benchmark.pedantic(
        lambda: run_sweep(engine_cache, pair), rounds=1, iterations=1
    )
    assert result.equivalent is True
    trimmed, _ = trim(result.proof)
    start = time.perf_counter()
    check_proof(trimmed, axioms=result.cnf.clauses)
    resolution_seconds = time.perf_counter() - start
    start = time.perf_counter()
    check_rup_proof(trimmed, axioms=result.cnf.clauses)
    rup_seconds = time.perf_counter() - start
    drup_buffer = io.StringIO()
    write_drup(trimmed, drup_buffer)
    trace_buffer = io.StringIO()
    write_tracecheck(trimmed, trace_buffer)
    _ROWS[pair.name] = [
        pair.name,
        len(trimmed),
        proof_stats(trimmed).num_resolutions,
        "%.4f" % resolution_seconds,
        "%.4f" % rup_seconds,
        len(drup_buffer.getvalue()),
        len(trace_buffer.getvalue()),
    ]
    report_table(
        "Ablation D: certificate costs (trimmed proofs)",
        ["pair", "clauses", "res", "res check(s)",
         "rup check(s)", "drup bytes", "tracecheck bytes"],
        [_ROWS[name] for name in sorted(_ROWS)],
        notes=[
            "DRUP omits antecedents (smaller file, checker re-propagates)",
            "TraceCheck stores antecedents (bigger file, cheaper check)",
        ],
    )
