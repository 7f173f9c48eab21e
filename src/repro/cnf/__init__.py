"""CNF layer: clause containers, Tseitin encoding, DIMACS I/O."""

from .clause import CNF, is_tautology, normalize_clause
from .dimacs import DimacsError, parse_dimacs, read_dimacs, write_dimacs
from .tseitin import TseitinResult, miter_axioms, tseitin_encode

__all__ = [
    "CNF",
    "DimacsError",
    "TseitinResult",
    "is_tautology",
    "miter_axioms",
    "normalize_clause",
    "parse_dimacs",
    "read_dimacs",
    "tseitin_encode",
    "write_dimacs",
]
