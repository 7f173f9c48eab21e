"""Core: the proof-producing combinational equivalence checking engine."""

from .cec import CecResult, check_equivalence, verdict_name
from .certify import CertificationError, certify
from .fraig import SweepEngine, SweepOptions, SweepStats
from .outputs import OutputVerdict, OutputsReport, check_outputs
from .serialize import RESULT_SCHEMA, ResultFormatError, result_from_dict, \
    result_to_dict
from .stitch import EquivLemma, StitchError, StructuralStitcher, derive_subset

__all__ = [
    "CecResult",
    "CertificationError",
    "EquivLemma",
    "StitchError",
    "StructuralStitcher",
    "SweepEngine",
    "SweepOptions",
    "SweepStats",
    "OutputVerdict",
    "OutputsReport",
    "RESULT_SCHEMA",
    "ResultFormatError",
    "check_outputs",
    "certify",
    "check_equivalence",
    "derive_subset",
    "result_from_dict",
    "result_to_dict",
    "verdict_name",
]
