"""Function-preserving AIG transforms used to manufacture benchmark pairs."""

from .balance import balance
from .restructure import detect_mux, detect_xor, restructure
from .rewrite import rewrite, synthesize_table

__all__ = [
    "balance",
    "detect_mux",
    "detect_xor",
    "restructure",
    "rewrite",
    "synthesize_table",
]
