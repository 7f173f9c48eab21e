"""Workload inputs: the named suite and seeded, oracle-labelled mutants.

The program under test only ever sees these circuits. The answer each
one must get comes from construction (suite pairs are equivalent) or from
the BDD baseline (mutants), never from the engine being measured.
"""

import collections
import io
import multiprocessing
import random
from concurrent.futures import ProcessPoolExecutor

from repro.aig.aiger import write_aag
from repro.baselines.bdd_cec import bdd_check
from repro.circuits.benchmarks import SUITE
from repro.circuits.faults import FAULT_KINDS, Fault, inject

#: BDD node budget for the oracle; a mutant it cannot decide is redrawn.
ORACLE_MAX_NODES = 200_000
MAX_DRAWS = 50
#: Fault kinds drawn per suite pair. ``refute`` takes two of every kind,
#: enough mutants that the seed's draw moves its totals little. The
#: fleet takes output flips only: such a mutant costs about as much to
#: sweep as its pair, so the fleet's load does not swing with the fault
#: a seed draws.
REFUTE_KINDS = FAULT_KINDS * 2
FLEET_KINDS = ("output_flip",)


class Item:
    """One query: circuits *a* and *b* and the verdict they must get."""

    __slots__ = ("name", "a", "b", "expected", "_texts")

    def __init__(self, name, a, b, expected):
        self.name = name
        self.a = a
        self.b = b
        self.expected = expected
        self._texts = None

    def texts(self):
        """ASCII AIGER texts of ``(a, b)`` (built once)."""
        if self._texts is None:
            self._texts = (aag_text(self.a), aag_text(self.b))
        return self._texts


def aag_text(aig):
    buffer = io.StringIO()
    write_aag(aig, buffer)
    return buffer.getvalue()


def suite_items(limit=None):
    """The named equivalent pairs of ``repro.circuits.benchmarks``."""
    return [
        Item(pair.name, *pair.build(), expected=True)
        for pair in SUITE[:limit]
    ]


def oracle_faults(limit, seed, kinds):
    """:func:`choose_faults` over the suite, run in a fresh process.

    BDD construction can grow the heap well past anything the engine
    needs; the child process takes that memory with it, so the peak RSS
    of the benchmark process reflects the program under test.
    """
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        return pool.submit(_suite_faults, limit, seed, kinds).result()


def _suite_faults(limit, seed, kinds):
    return choose_faults(suite_items(limit), seed, kinds)


def choose_faults(pairs, seed, kinds):
    """Seeded faults whose mutants the BDD oracle proves non-equivalent.

    Every pair gets one fault per entry of *kinds*; the seed only
    picks the target nodes, which keeps the amount of work steady from
    seed to seed. A functionally redundant fault, or one the oracle
    cannot decide within its node budget, is redrawn.

    Returns ``[(pair_index, Fault)]``.
    """
    rng = random.Random("perfbench-mutants-%d" % seed)
    chosen = []
    for index, pair in enumerate(pairs):
        drawn = collections.Counter()
        for position, kind in enumerate(kinds):
            # Fault j of n targets the j-th of n slices of the AND nodes
            # in topological order (output flips: the outputs, sliced per
            # flip): how deep a fault sits sets much of its cost, so
            # stratifying by depth keeps the seed's draw from moving the
            # workload's figures.
            if kind == "output_flip":
                targets = list(range(pair.b.num_outputs))
                part, parts = drawn[kind], kinds.count(kind)
            else:
                targets = list(pair.b.and_vars())
                part, parts = position, len(kinds)
            drawn[kind] += 1
            targets = targets[part * len(targets) // parts:
                              (part + 1) * len(targets) // parts] or targets
            for _ in range(MAX_DRAWS):
                fault = Fault(kind, rng.choice(targets))
                try:
                    mutant = inject(pair.b, fault)
                except ValueError:
                    continue
                oracle = bdd_check(pair.a, mutant,
                                   max_nodes=ORACLE_MAX_NODES)
                if oracle.equivalent is False:
                    chosen.append((index, fault))
                    break
            else:
                raise RuntimeError(
                    "no detectable %s fault found for %s"
                    % (kind, pair.name)
                )
    return chosen


def mutant_items(pairs, faults):
    """Mutants ``inject(B, fault)`` of the chosen faults, checked against
    their pair's A; each must be found non-equivalent."""
    return [
        Item(
            "%s~%s@%d" % (pairs[index].name, fault.kind, fault.node),
            pairs[index].a, inject(pairs[index].b, fault), expected=False,
        )
        for index, fault in faults
    ]
