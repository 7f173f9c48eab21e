"""Resolution proofs: store, checkers, trimming, statistics, DRUP."""

from .checker import CheckResult, check_clause, check_proof, \
    check_refutation_of
from .drup import check_rup_proof, write_drup
from .interpolant import Interpolant, InterpolationError, interpolate, \
    partition_vars
from .stats import ProofStats, proof_stats
from .store import AXIOM, DERIVED, ProofError, ProofStore, resolve
from .tracecheck import dumps_tracecheck, parse_tracecheck, \
    read_tracecheck, write_tracecheck
from .trim import needed_ids, trim, trim_ratio

__all__ = [
    "AXIOM",
    "CheckResult",
    "DERIVED",
    "Interpolant",
    "InterpolationError",
    "ProofError",
    "ProofStats",
    "ProofStore",
    "check_clause",
    "check_proof",
    "check_refutation_of",
    "check_rup_proof",
    "dumps_tracecheck",
    "interpolate",
    "needed_ids",
    "parse_tracecheck",
    "partition_vars",
    "proof_stats",
    "read_tracecheck",
    "resolve",
    "trim",
    "trim_ratio",
    "write_drup",
    "write_tracecheck",
]
