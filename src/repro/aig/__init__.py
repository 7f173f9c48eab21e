"""And-Inverter Graph package: data structure, I/O, miters, simulation."""

from .aig import AIG
from .cuts import Cut, cut_function, enumerate_cuts
from .aiger import (
    AigerError,
    read_aag,
    read_aig,
    read_auto,
    write_aag,
    write_aig,
)
from .literal import (
    FALSE,
    TRUE,
    is_const,
    lit_not,
    lit_not_cond,
    lit_regular,
    lit_sign,
    lit_to_str,
    lit_var,
    make_lit,
)
from .miter import Miter, build_miter, match_interfaces_by_name
from .simulate import Simulator, random_equivalence_test
from .structhash import node_digests, pair_key, structural_hash

__all__ = [
    "AIG",
    "AigerError",
    "Cut",
    "cut_function",
    "enumerate_cuts",
    "FALSE",
    "TRUE",
    "Miter",
    "Simulator",
    "build_miter",
    "match_interfaces_by_name",
    "is_const",
    "lit_not",
    "lit_not_cond",
    "lit_regular",
    "lit_sign",
    "lit_to_str",
    "lit_var",
    "make_lit",
    "node_digests",
    "pair_key",
    "random_equivalence_test",
    "read_aag",
    "read_aig",
    "read_auto",
    "structural_hash",
    "write_aag",
    "write_aig",
]
