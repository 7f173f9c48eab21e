"""The C proof store against ``ReferenceProofStore``.

``ProofStore`` subclasses ``Store``, the C type of
``src/repro/proof/store.c``, where the host can build it; where it cannot,
``ProofStore`` is ``ReferenceProofStore``. These tests check that:

* every suite sweep and add24's monolithic proof leave both stores with
  the same columns, counters, empty-clause id and ``proof/*`` recorder
  counts, trim to the same store and id map, and write the same
  TraceCheck bytes;
* drawn append sequences, malformed inputs included, give both stores
  the same id or the same exception type, message, ``rule_id`` and
  chain, with and without the ``validate`` replay;
* ``needed_ids`` and ``trim`` on every ``proof_corpus`` corruption and on
  drawn stores with corrupted chains, under several roots, give the same
  result or the same exception;
* a store of the appends' shape is trimmed in C, and a corrupt one by
  the reference's own methods;
* malformed columns and arguments make the C store raise, never crash
  (in a child process, so a crash fails the test instead of pytest).

The literal, pivot and id type rules hold on both stores.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import proof_corpus
import repro
from repro.aig.aiger import read_aag
from repro.baselines import monolithic
from repro.circuits.benchmarks import SUITE
from repro.core import fraig
from repro.core.cec import check_equivalence
from repro.instrument import Recorder
from repro.proof.store import ProofError, ProofStore, \
    ReferenceProofStore, store_kernel
from repro.proof.tracecheck import dumps_tracecheck, parse_tracecheck
from repro.proof.trim import needed_ids, trim

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "examples" / "data"
SRC = Path(repro.__file__).resolve().parent.parent

needs_store = pytest.mark.skipif(
    store_kernel() != "native",
    reason="ProofStore is ReferenceProofStore without the C store",
)

STORES = [ProofStore, ReferenceProofStore]
STORE_IDS = ["ProofStore", "ReferenceProofStore"]


def outcome(call):
    """``("ok", value)`` or the raised exception's observable parts."""
    try:
        return ("ok", call())
    except Exception as exc:  # compared whole, so any type is fine
        return ("raised", type(exc), str(exc),
                getattr(exc, "rule_id", None), getattr(exc, "chain", None),
                getattr(exc, "clause_id", None))


def snapshot(store):
    """Everything a reader of *store* can observe."""
    return {
        "tables": store.tables(),
        "len": len(store),
        "counts": (store.num_axioms, store.num_derived,
                   store.num_resolutions),
        "empty": store.find_empty_clause(),
        "axiom_ids": dict(store._axiom_ids),
    }


def trim_outcome(store, root):
    def run():
        trimmed, id_map = trim(store, root)
        return snapshot(trimmed), id_map, dumps_tracecheck(trimmed)
    return outcome(run)


def cone_outcome(store, root):
    return outcome(lambda: needed_ids(store, root))


# ---------------------------------------------------------------------------
# Whole proofs
# ---------------------------------------------------------------------------

def sweep_with(cls, pair, monkeypatch):
    recorder = Recorder()
    with monkeypatch.context() as patch:
        patch.setattr(fraig, "ProofStore", cls)
        result = check_equivalence(*pair.build(), recorder=recorder)
    counts = {name: value
              for name, value in recorder.report()["counters"].items()
              if name.startswith("proof/")}
    return result, counts


@needs_store
class TestWholeProofs:
    @pytest.mark.parametrize("name", [pair.name for pair in SUITE])
    def test_suite_sweep(self, name, monkeypatch):
        pair = next(pair for pair in SUITE if pair.name == name)
        native, native_counts = sweep_with(ProofStore, pair, monkeypatch)
        ref, ref_counts = sweep_with(ReferenceProofStore, pair,
                                     monkeypatch)
        assert type(native.proof) is ProofStore
        assert type(ref.proof) is ReferenceProofStore
        assert snapshot(native.proof) == snapshot(ref.proof)
        assert native_counts == ref_counts and native_counts
        assert native.empty_clause_id == ref.empty_clause_id
        assert trim_outcome(native.proof, None) \
            == trim_outcome(ref.proof, None)
        assert needed_ids(native.proof) == needed_ids(ref.proof)

    def test_add24_monolithic(self, monkeypatch):
        aigs = [read_aag(str(DATA / ("add24_%s.aag" % side)))
                for side in "ab"]
        results = []
        for cls in STORES:
            with monkeypatch.context() as patch:
                patch.setattr(monolithic, "ProofStore", cls)
                results.append(monolithic.monolithic_check(*aigs))
        native, ref = (result.proof for result in results)
        assert type(native) is ProofStore
        assert snapshot(native) == snapshot(ref)
        assert trim_outcome(native, None) == trim_outcome(ref, None)

    def test_parsed_trace(self):
        text = (DATA / "add24_miter.tc").read_text()
        stores = []
        for cls in STORES:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr("repro.proof.tracecheck.ProofStore", cls)
                stores.append(parse_tracecheck(text))
        (native, native_map), (ref, ref_map) = stores
        assert type(native) is ProofStore
        assert snapshot(native) == snapshot(ref)
        assert native_map == ref_map
        assert dumps_tracecheck(native) == text


# ---------------------------------------------------------------------------
# Drawn append sequences
# ---------------------------------------------------------------------------

class Weird:
    """Neither an int nor an index: fails every type rule."""

    def __repr__(self):
        return "Weird()"


SMALL = st.integers(-4, 4)
ODD_VALUES = st.sampled_from([
    True, False, 1.0, 2.5, "1", None, Weird(), 1 << 63, -(1 << 63),
    (1 << 63) - 1, -((1 << 63) - 1), 1 << 70,
])
LITERAL = st.one_of(*[SMALL] * 8, ODD_VALUES)


def container(elements, min_size=0, max_size=5):
    """A list, a tuple or an iterator of *elements*; rarely not a
    collection at all."""
    items = st.lists(elements, min_size=min_size, max_size=max_size)
    return st.one_of(
        items, items.map(tuple), items.map(iter),
        st.sampled_from([5, None, Weird()]),
    )


def chains(size):
    """Chains over ids near ``0 .. size``: well-formed, or not."""
    ids = st.one_of(*[st.integers(-2, size + 2)] * 3, ODD_VALUES)
    pivots = st.one_of(*[st.integers(-3, 3)] * 3, ODD_VALUES)
    steps = st.one_of(
        st.tuples(pivots, ids), st.tuples(pivots, ids),
        st.tuples(pivots, ids).map(list), st.tuples(pivots, ids, ids),
        st.tuples(ids), ids,
    )
    well_formed = st.tuples(
        st.integers(0, max(size - 1, 0)),
        st.lists(st.tuples(st.integers(1, 3),
                           st.integers(0, max(size - 1, 0))),
                 min_size=1, max_size=3),
    ).map(lambda parts: [parts[0], *parts[1]])
    near = st.tuples(
        st.integers(0, max(size - 1, 0)),
        st.lists(st.tuples(pivots, ids), min_size=1, max_size=3),
    ).map(lambda parts: [parts[0], *parts[1]])
    odd = st.tuples(ids, st.lists(steps, max_size=3)).map(
        lambda parts: [parts[0], *parts[1]])
    return st.one_of(well_formed, well_formed, near, near, odd,
                     container(steps, max_size=3))


@st.composite
def operations(draw):
    ops = []
    for _ in range(draw(st.integers(1, 12))):
        size = len(ops)
        lits = st.one_of(st.lists(SMALL, max_size=4), container(LITERAL))
        if draw(st.booleans()):
            ops.append(("add_axiom", draw(lits)))
        else:
            ops.append(("add_derived", draw(lits), draw(chains(size))))
    return ops


def replay(cls, ops, validate):
    """Apply *ops* to a fresh *cls*; the outcome of each and the store."""
    store = cls(validate=validate, recorder=Recorder())
    results = [outcome(lambda: getattr(store, op[0])(*op[1:]))
               for op in ops]
    return results, store


def materialize(ops):
    """Give each store its own pass over every drawn iterator."""
    fixed = []
    for op in ops:
        fixed.append((op[0],) + tuple(
            IterOnce(arg) if hasattr(arg, "__next__") else arg
            for arg in op[1:]))
    return fixed


class IterOnce:
    """An iterable handing each store a fresh iterator over the same
    items."""

    def __init__(self, iterator):
        self.items = list(iterator)

    def __iter__(self):
        return iter(self.items)


@needs_store
@settings(max_examples=300, deadline=None)
@given(ops=operations(), validate=st.booleans())
def test_append_sequences_agree(ops, validate):
    ops = materialize(ops)
    native_results, native = replay(ProofStore, ops, validate)
    ref_results, ref = replay(ReferenceProofStore, ops, validate)
    assert native_results == ref_results
    assert snapshot(native) == snapshot(ref)
    assert native.recorder.report()["counters"] \
        == ref.recorder.report()["counters"]


@needs_store
@pytest.mark.parametrize("seed", range(6))
def test_validated_solver_proofs_agree(seed):
    # Valid chains from real conflict analysis, replayed at every append.
    import random

    from repro.sat.solver import Solver

    rng = random.Random(seed)
    clauses = [[rng.choice((-1, 1)) * rng.randint(1, 20) for _ in range(3)]
               for _ in range(120)]
    stores = []
    for cls in STORES:
        store = cls(validate=True)
        solver = Solver(proof=store)
        for clause in clauses:
            if not solver.add_clause(clause):
                break
        else:
            solver.solve()
        stores.append(store)
    assert snapshot(stores[0]) == snapshot(stores[1])
    assert stores[0].num_derived > 0


def axioms_and(column_edit, lits, chain):
    def run(cls):
        store = cls(validate=True)
        for clause in ([1, 2], [-1, 2], [-1, -2], [2, 3], [-3]):
            store.add_axiom(clause)
        if column_edit is not None:
            store._clauses[column_edit[0]] = column_edit[1]
        return outcome(lambda: store.add_derived(lits, chain)), \
            snapshot(store)
    return run


VALIDATE_CASES = {
    "replays": axioms_and(None, [2], [0, (1, 1)]),
    "two_steps": axioms_and(None, [-2], [2, (1, 0), (2, 1)]),
    "mismatch": axioms_and(None, [2, 3], [0, (1, 1)]),
    "pivot_phase": axioms_and(None, [2], [0, (3, 1)]),
    "pivot_zero": axioms_and(None, [2], [0, (0, 1)]),
    "pivot_negative": axioms_and(None, [2], [0, (-1, 1)]),
    "pivot_huge": axioms_and(None, [2], [0, (1 << 80, 1)]),
    "tautology": axioms_and(None, [], [0, (1, 2)]),
    "second_step_fails": axioms_and(None, [3], [0, (1, 1), (2, 4)]),
    "derived_zero_literal": axioms_and((1, (-1, 0, 2)), [0, 2],
                                       [0, (1, 1)]),
    "zero_meets_zero": axioms_and((0, (0, 1)), [], [0, (0, 1)]),
    "clause_not_sorted": axioms_and((1, (2, -1)), [2], [0, (1, 1)]),
    "clause_of_floats": axioms_and((1, (-1.0, 2)), [2], [0, (1, 1)]),
    "clause_a_list": axioms_and((0, [1, 2]), [2], [0, (1, 1)]),
    "clause_a_str": axioms_and((1, "ab"), [2], [0, (1, 1)]),
}


@needs_store
@pytest.mark.parametrize("case", sorted(VALIDATE_CASES))
def test_validate_replay_agrees(case):
    run = VALIDATE_CASES[case]
    assert run(ProofStore) == run(ReferenceProofStore)


# ---------------------------------------------------------------------------
# The type rules, on both stores
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cls", STORES, ids=STORE_IDS)
class TestIntRules:
    @pytest.mark.parametrize("lits", [
        [1.5, 2], [True, 2], [1, "2"], [None], [1, 1.0],
    ])
    def test_non_int_literal_is_a_type_error(self, cls, lits):
        store = cls()
        with pytest.raises(TypeError, match="is not an int"):
            store.add_axiom(lits)
        with pytest.raises(TypeError, match="is not an int"):
            store.add_derived(lits, [0, (1, 0)])
        assert len(store) == 0

    @pytest.mark.parametrize("lit", [1 << 63, -(1 << 63), 1 << 70])
    def test_literal_past_63_bits_is_refused(self, cls, lit):
        with pytest.raises(ValueError, match="out of range"):
            cls().add_axiom([lit])

    def test_largest_literal_is_accepted(self, cls):
        top = (1 << 63) - 1
        store = cls()
        assert store.clause(store.add_axiom([1, -top, top - 1])) \
            == (-top, 1, top - 1)

    @pytest.mark.parametrize("step", [(2.0, 0), (True, 0), ("1", 0)])
    def test_non_int_pivot_is_a_type_error(self, cls, step):
        store = cls()
        store.add_axiom([1])
        with pytest.raises(TypeError, match="pivot .* is not an int"):
            store.add_derived([], [0, step])

    @pytest.mark.parametrize("chain", [[0, (1, 0.0)], [0, (1, True)],
                                       [True, (1, 0)]])
    def test_non_int_clause_id_is_a_type_error(self, cls, chain):
        store = cls()
        store.add_axiom([1])
        with pytest.raises(TypeError, match="clause id .* is not an int"):
            store.add_derived([], chain)

    def test_non_int_first_id_keeps_its_proof_error(self, cls):
        store = cls()
        store.add_axiom([1])
        with pytest.raises(ProofError, match="start with a clause id"):
            store.add_derived([], [0.0, (1, 0)])

    def test_float_proof_cannot_be_written(self, cls):
        # A float literal or id once reached the TraceCheck writer, which
        # wrote lines its own parser rejects.
        store = cls()
        a = store.add_axiom([1])
        with pytest.raises(TypeError):
            store.add_axiom([1.5, 2])
        with pytest.raises(TypeError):
            store.add_derived([], [a, (1, 2.0)])
        assert dumps_tracecheck(store) == "1 1 0 0\n"


# ---------------------------------------------------------------------------
# Trimming corrupt stores
# ---------------------------------------------------------------------------

def corrupt_pair(name, monkeypatch):
    pair = []
    for cls in STORES:
        with monkeypatch.context() as patch:
            patch.setattr(proof_corpus, "ProofStore", cls)
            pair.append(proof_corpus.corrupted(name)[0])
    return pair


ROOTS = [None, 0, 3, 4, 5, 6, 99, -1, -6, -7, True, 2.0, 4.0, "x", [1],
         1 << 70]


@needs_store
@pytest.mark.parametrize("name", sorted(proof_corpus.CORRUPTIONS))
def test_corpus_trims_agree(name, monkeypatch):
    native, ref = corrupt_pair(name, monkeypatch)
    assert type(native) is ProofStore
    for root in ROOTS:
        assert cone_outcome(native, root) == cone_outcome(ref, root), root
        assert trim_outcome(native, root) == trim_outcome(ref, root), root


CHAIN_CORRUPTIONS = st.one_of(
    st.none(), st.just([]), st.just(()), st.just("ab"), st.just(7),
    st.lists(st.one_of(
        st.integers(-3, 8), st.tuples(st.integers(1, 3), st.integers(-3, 8)),
        st.tuples(st.integers(1, 3), st.integers(0, 5)).map(list),
        st.tuples(st.integers(1, 3)), st.just(2.0), st.just(True),
        st.tuples(st.integers(1, 3), st.integers(0, 5), st.integers(0, 5)),
        st.tuples(st.integers(1, 3), st.sampled_from([1.0, "x", None])),
    ), max_size=4),
    st.lists(st.integers(0, 5), min_size=1, max_size=3).map(tuple),
)
KIND_CORRUPTIONS = st.sampled_from(["axiom", "derived", "mystery", None])
CLAUSE_CORRUPTIONS = st.one_of(
    st.lists(st.integers(-4, 4), max_size=4).map(tuple),
    st.lists(st.integers(-4, 4), max_size=4),
    st.just((1.5,)),
)


@st.composite
def corrupt_stores(draw):
    """A random refutation-shaped store description and corruptions."""
    axioms = draw(st.lists(st.lists(st.integers(-5, 5).filter(bool),
                                    min_size=1, max_size=3),
                           min_size=1, max_size=6))
    derived = draw(st.lists(st.tuples(
        st.lists(st.integers(-5, 5), max_size=3),
        st.lists(st.tuples(st.integers(1, 5), st.integers(0, 40)),
                 min_size=1, max_size=3),
        st.integers(0, 40)), max_size=6))
    edits = draw(st.lists(st.tuples(
        st.sampled_from(["chain", "kind", "clause"]), st.integers(-12, 12),
        st.data()), max_size=3))
    roots = draw(st.lists(st.one_of(st.none(), st.integers(-14, 14),
                                    st.sampled_from([True, 1.0, "x"])),
                          min_size=1, max_size=3))
    corruptions = []
    for column, index, data in edits:
        value = data.draw({"chain": CHAIN_CORRUPTIONS,
                           "kind": KIND_CORRUPTIONS,
                           "clause": CLAUSE_CORRUPTIONS}[column])
        corruptions.append((column, index, value))
    return axioms, derived, corruptions, roots


def build(cls, axioms, derived, corruptions):
    store = cls()
    for clause in axioms:
        try:
            store.add_axiom(clause)
        except ValueError:
            pass
    for lits, steps, first in derived:
        size = len(store)
        if not size:
            break
        chain = [first % size] + [(pivot, ref % size)
                                  for pivot, ref in steps]
        store.add_derived(lits, chain)
    columns = {"chain": store._chains, "kind": store._kinds,
               "clause": store._clauses}
    for column, index, value in corruptions:
        if -len(store) <= index < len(store):
            columns[column][index] = value
    return store


@needs_store
@settings(max_examples=300, deadline=None)
@given(case=corrupt_stores())
def test_drawn_trims_agree(case):
    axioms, derived, corruptions, roots = case
    native = build(ProofStore, axioms, derived, corruptions)
    ref = build(ReferenceProofStore, axioms, derived, corruptions)
    assert snapshot(native) == snapshot(ref)
    for root in roots:
        assert cone_outcome(native, root) == cone_outcome(ref, root)
        assert trim_outcome(native, root) == trim_outcome(ref, root)
    keep = list(range(len(ref)))[::2] + [0]
    assert outcome(lambda: snapshot(native.rebuild(keep)[0])) \
        == outcome(lambda: snapshot(ref.rebuild(keep)[0]))


# ---------------------------------------------------------------------------
# Which code trims
# ---------------------------------------------------------------------------

def reference_calls(monkeypatch):
    """The names of the ReferenceProofStore trim methods called from now."""
    calls = []
    for name in ("needed_ids", "rebuild"):
        def spy(self, arg, _method=getattr(ReferenceProofStore, name),
                _name=name):
            calls.append(_name)
            return _method(self, arg)
        monkeypatch.setattr(ReferenceProofStore, name, spy)
    return calls


@needs_store
def test_an_appended_store_trims_in_c(monkeypatch):
    proof = check_equivalence(*SUITE[0].build()).proof
    calls = reference_calls(monkeypatch)
    trim(proof)
    assert calls == []


@needs_store
@pytest.mark.parametrize("corrupt, calls", [
    (lambda store: store._chains.__setitem__(5, [0, (1, -1), (2, 4)]),
     ["needed_ids", "rebuild"]),
    (lambda store: store._chains.__setitem__(4, [2, [1, 3]]),
     ["needed_ids", "rebuild"]),
    (lambda store: store._kinds.__setitem__(4, "mystery"), ["rebuild"]),
    (lambda store: store._clauses.__setitem__(0, [1, 2]), ["rebuild"]),
])
def test_a_corrupt_store_trims_as_the_reference(corrupt, calls,
                                                monkeypatch):
    native = proof_corpus.base_store()
    with monkeypatch.context() as patch:
        patch.setattr(proof_corpus, "ProofStore", ReferenceProofStore)
        ref = proof_corpus.base_store()
    assert type(native) is ProofStore
    corrupt(native)
    corrupt(ref)
    expected = trim_outcome(ref, None)
    made = reference_calls(monkeypatch)
    assert trim_outcome(native, None) == expected
    assert made == calls


@needs_store
@pytest.mark.parametrize("reshape", [
    lambda store: store._chains.__setitem__(5, "ab"),
    lambda store: store._kinds.__setitem__(4, "mystery"),
    lambda store: store._clauses.__delitem__(slice(None)),
])
def test_columns_reshaped_mid_rebuild_raise(reshape):
    # The rebuild checks every kept item before it starts; Python code it
    # runs after that (here a subclass's __init__, for the new store)
    # cannot make it read an item unchecked.
    class Reshaping(ProofStore):
        victim = None

        def __init__(self):
            super().__init__()
            if Reshaping.victim is not None:
                reshape(Reshaping.victim)

    store = Reshaping()
    for clause in proof_corpus.base_cnf().clauses:
        store.add_axiom(clause)
    store.add_derived((-2,), [2, (1, 3)])
    store.add_derived((), [0, (1, 1), (2, 4)])
    keep = store.needed_ids()
    Reshaping.victim = store
    with pytest.raises(RuntimeError, match="changed during its rebuild"):
        store.rebuild(keep)


# ---------------------------------------------------------------------------
# Malformed columns and arguments, in a child process
# ---------------------------------------------------------------------------

CORRUPT_CASES = textwrap.dedent("""
    import json

    from repro.proof.store import ProofStore
    from repro.proof.trim import trim


    def base():
        store = ProofStore(validate=True)
        for clause in ([1, 2], [-1, 2], [1, -2], [-1, -2]):
            store.add_axiom(clause)
        store.add_derived([-2], [2, (1, 3)])
        store.add_derived([], [0, (1, 1), (2, 4)])
        return store


    class Raises:
        def __eq__(self, other):
            raise RuntimeError("eq")

        def __bool__(self):
            raise RuntimeError("truth")

        def __index__(self):
            raise RuntimeError("index")

        def __hash__(self):
            return 1

        enabled = property(lambda self: 1 / 0)


    class Counting:
        enabled = True

        def count(self, name, amount=1):
            raise KeyError(name)


    class Mutates:
        # An index whose __index__ empties the columns mid-walk.
        def __init__(self, store):
            self.store = store

        def __hash__(self):
            return 5

        def __index__(self):
            del self.store._chains[:]
            del self.store._clauses[:]
            return 5


    def column(name, index, value):
        def case():
            store = base()
            getattr(store, name)[index] = value
            trim(store)
        return case


    def call(method, *args, **kwargs):
        def case():
            getattr(base(), method)(*args, **kwargs)
        return case


    def mutating_root():
        store = base()
        store.needed_ids(Mutates(store))


    def mutating_keep():
        store = base()
        store.rebuild([Mutates(store)])


    def replay_against(value):
        def case():
            store = base()
            store._clauses[1] = value
            store.add_derived([2], [0, (1, 1)])
        return case


    def assign(name, value):
        def case():
            setattr(base(), name, value)
        return case


    class Shrinks:
        # A validate flag whose truth test empties the clause column
        # between the reference check and the replay.
        def __init__(self, store):
            self.store = store

        def __bool__(self):
            del self.store._clauses[:]
            return True


    def shrunk_clauses():
        store = base()
        store.validate = Shrinks(store)
        store.add_derived([2], [0, (1, 1)])


    def validate_raises():
        store = base()
        store.validate = Raises()
        store.add_derived([2], [0, (1, 1)])


    def recorder_raises():
        store = base()
        store.recorder = Raises()
        store.add_axiom([3])


    def count_raises():
        store = base()
        store.recorder = Counting()
        store.add_derived([2], [0, (1, 1)])


    def generator_raises():
        def lits():
            yield 1
            raise OSError("gone")
        base().add_axiom(lits())


    CASES = {
        "chain_is_a_str": column("_chains", 4, "ab"),
        "chain_is_an_int": column("_chains", 5, 7),
        "chain_is_empty": column("_chains", 5, []),
        "chain_step_unhashable": column("_chains", 5, [0, (1, [1])]),
        "chain_step_too_long": column("_chains", 5, [0, (1, 1, 2)]),
        "chain_step_not_iterable": column("_chains", 5, [0, 3]),
        "chain_id_huge": column("_chains", 5, [0, (1, 1 << 80)]),
        "chain_id_index_raises": column("_chains", 5, [0, (1, Raises())]),
        "chain_id_past_end": column("_chains", 5, [0, (1, 60)]),
        "clause_not_a_tuple": column("_clauses", 0, 17),
        "clause_of_floats": column("_clauses", 4, (1.5,)),
        "kind_compare_raises": column("_kinds", 4, Raises()),
        "root_unhashable": call("needed_ids", [1]),
        "root_float": call("needed_ids", 2.5),
        "root_past_end": call("needed_ids", 10 ** 30),
        "root_mutates_the_store": mutating_root,
        "keep_unsortable": call("rebuild", [0, "a"]),
        "keep_not_iterable": call("rebuild", 3),
        "keep_mutates_the_store": mutating_keep,
        "replay_against_a_str": replay_against("ab"),
        "replay_against_floats": replay_against((1.5, 2.5)),
        "replay_past_a_shrunk_column": shrunk_clauses,
        "column_set_to_a_tuple": assign("_clauses", ()),
        "column_set_to_none": assign("_chains", None),
        "axiom_ids_set": assign("_axiom_ids", {}),
        "validate_truth_raises": validate_raises,
        "recorder_enabled_raises": recorder_raises,
        "recorder_count_raises": count_raises,
        "lits_generator_raises": generator_raises,
        "lits_not_iterable": call("add_axiom", 5),
        "derived_too_many_arguments": call("add_derived", [], [0], [1]),
        "derived_bad_keyword": call("add_derived", [], chain=[0], x=1),
        "needed_ids_bad_keyword": call("needed_ids", root=0),
    }

    outcome = {}
    for name, case in CASES.items():
        try:
            case()
        except Exception as exc:
            outcome[name] = type(exc).__name__
        else:
            outcome[name] = None
    print(json.dumps(outcome))
""")


@needs_store
def test_malformed_columns_and_arguments_raise_instead_of_crashing():
    done = subprocess.run(
        [sys.executable, "-c", CORRUPT_CASES], capture_output=True,
        text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert done.returncode == 0, done.stderr
    raised = json.loads(done.stdout)
    assert len(raised) == 33
    assert [name for name, kind in raised.items() if kind is None] == []
