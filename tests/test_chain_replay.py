"""The one-pass chain-replay kernel against the ``resolve`` loop.

:func:`repro.proof.store.resolve_chain` is a fast path. Every caller
falls back to folding :func:`repro.proof.store.resolve` when it returns
``None``, so the kernel may decline a chain the fold accepts, but it
must never accept a chain the fold rejects or yield a different clause.
On normalized clauses (sorted, distinct, non-tautological), which is
all a parsed trace or a solver proof contains, it must decide exactly
like the fold.

The second half runs the public entry points twice, once as shipped and
once with the fast path switched off, which is the plain ``resolve``
loop. Both runs must end alike: the same store, or the same exception
with the same message, rule id, clause id and chain.
"""

import contextlib
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.proof.checker as checker_module
import repro.proof.tracecheck as tracecheck_module
from proof_corpus import CORRUPTIONS, corrupted
from repro.cnf import read_dimacs
from repro.proof import (
    DERIVED,
    ProofError,
    check_clause,
    check_proof,
    dumps_tracecheck,
    parse_tracecheck,
    resolve,
)
from repro.proof.store import resolve_chain

DATA = Path(__file__).resolve().parent.parent / "examples" / "data"

RELAXED = settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: The inputs of ``test_tracecheck.TestParserErrors`` plus traces that
#: reach the chain replay: no pivot, two clashing variables, a
#: tautological axiom, and a chain that yields the wrong clause.
PARSER_CASES = [
    "1 x 0 0\n",
    "1 5 7\n",
    "1 5 0 3\n",
    "1 5 0 0\n1 6 0 0\n",
    "1 5 0 2 3 0\n",
    "1 5 0 0\n2 5 0 1 0\n",
    "1 1 2 0 0\n2 -1 2 0 0\n3 1 0 1 2 0\n",
    "c a comment\n\n1 1 0 0\n",
    "0 1 0 0\n",
    "1 1 2 0 0\n2 3 4 0 0\n3 1 2 3 4 0 1 2 0\n",
    "1 1 2 0 0\n2 -1 -2 0 0\n3 0 1 2 0\n",
    "1 1 -1 0 0\n2 1 0 0\n3 0 1 2 0\n",
    "1 1 2 0 0\n2 -1 3 0 0\n3 -3 0 0\n4 2 0 1 2 3 0\n",
    "1 1 2 0 0\n2 -1 3 0 0\n3 -3 0 0\n4 0 1 2 3 0\n",
]


@contextlib.contextmanager
def reference_loop():
    """Switch the fast path off: every chain goes through ``resolve``."""
    with mock.patch.object(
        checker_module, "_replays_to", lambda *args: False
    ), mock.patch.object(
        tracecheck_module, "resolve_chain", lambda *args: None
    ):
        yield


def outcome(call, *args, **kwargs):
    """``("ok", value)`` or the exception's comparable fields."""
    try:
        return "ok", call(*args, **kwargs)
    except ProofError as exc:
        return ("ProofError", str(exc), exc.rule_id, exc.clause_id,
                exc.chain)
    except Exception as exc:  # the reference's own non-proof errors
        return type(exc).__name__, str(exc)


def both_ways(call, *args, **kwargs):
    """Outcome with the fast path, then through the ``resolve`` loop."""
    fast = outcome(call, *args, **kwargs)
    with reference_loop():
        slow = outcome(call, *args, **kwargs)
    return fast, slow


def fold(first, antecedents, pivots):
    current = first
    for other, pivot in zip(antecedents, pivots):
        current = resolve(current, other, pivot)
    return current, [abs(pivot) for pivot in pivots]


def fold_deriving_pivots(first, antecedents):
    """The ``_relinearize`` loop: each pivot is the one clashing var."""
    current = first
    pivots = []
    for other in antecedents:
        clashing = {abs(lit) for lit in other if -lit in set(current)}
        if len(clashing) != 1:
            raise ProofError("no unique pivot")
        pivot = clashing.pop()
        current = resolve(current, other, pivot)
        pivots.append(pivot)
    return current, pivots


# ----------------------------------------------------------------------
# Strategies: tiny variable ranges so clashes, merges and tautologies
# are common.
# ----------------------------------------------------------------------

VARS = 4

raw_lits = st.integers(-VARS, VARS)
raw_clauses = st.lists(raw_lits, max_size=5).map(tuple)


def normalized(lits):
    return tuple(sorted(set(lits)))


normal_clauses = st.lists(
    st.integers(1, VARS), unique=True, max_size=4,
).flatmap(
    lambda variables: st.tuples(
        *[st.sampled_from([var, -var]) for var in variables]
    )
).map(normalized)


def chains(clauses, pivots):
    return st.tuples(
        clauses,
        st.lists(st.tuples(pivots, clauses), min_size=1, max_size=5),
    )


class TestKernelAgainstFold:
    @RELAXED
    @given(chains(raw_clauses, st.integers(-VARS - 1, VARS + 1)))
    def test_given_pivots_never_accepts_what_the_fold_rejects(self, case):
        first, steps = case
        pivots = [pivot for pivot, _ in steps]
        antecedents = [other for _, other in steps]
        fast = resolve_chain(first, antecedents, pivots)
        if fast is not None:
            assert fold(first, antecedents, pivots) == fast

    @RELAXED
    @given(chains(raw_clauses, st.just(0)))
    def test_derived_pivots_never_accept_what_the_fold_rejects(self, case):
        first, steps = case
        antecedents = [other for _, other in steps]
        fast = resolve_chain(first, antecedents)
        if fast is not None:
            assert fold_deriving_pivots(first, antecedents) == fast

    @RELAXED
    @given(chains(normal_clauses, st.integers(1, VARS)))
    def test_given_pivots_decide_normal_chains_exactly(self, case):
        first, steps = case
        pivots = [pivot for pivot, _ in steps]
        antecedents = [other for _, other in steps]
        reference = outcome(fold, first, antecedents, pivots)
        fast = resolve_chain(first, antecedents, pivots)
        assert (fast is not None) == (reference[0] == "ok")
        if fast is not None:
            assert fast == reference[1]

    @RELAXED
    @given(chains(normal_clauses, st.just(0)))
    def test_derived_pivots_decide_normal_chains_exactly(self, case):
        first, steps = case
        antecedents = [other for _, other in steps]
        reference = outcome(fold_deriving_pivots, first, antecedents)
        fast = resolve_chain(first, antecedents)
        assert (fast is not None) == (reference[0] == "ok")
        if fast is not None:
            assert fast == reference[1]

    def test_declines_what_only_the_fold_can_judge(self):
        # No steps, a repeated, tautological or zero first literal, a
        # zero antecedent literal, an antecedent clashing twice, and a
        # same-phase pivot.
        assert resolve_chain((1, 2), []) is None
        assert resolve_chain((1, 1, 2), [(-1,)], [1]) is None
        assert resolve_chain((1, -1, 2), [(-1,)], [1]) is None
        assert resolve_chain((0, 1), [(-1,)], [1]) is None
        assert resolve_chain((1,), [(-1, 0)], [1]) is None
        assert resolve_chain((1, 2), [(-1, -2)]) is None
        assert resolve_chain((1, 2), [(-1, 3)], [2]) is None

    def test_sorts_once_and_reports_pivot_variables(self):
        assert resolve_chain((3, 1), [(-1, 2), (-3, -4)]) == ((-4, 2), [1, 3])
        assert resolve_chain((3, 1), [(-1, 2), (-3, -4)], [-1, 3]) == (
            (-4, 2), [1, 3],
        )


class TestCheckClauseAgainstReference:
    @RELAXED
    @given(
        chains(raw_clauses, st.integers(-VARS - 1, VARS + 1)),
        st.one_of(st.none(), raw_clauses),
        st.integers(1, 6),
    )
    def test_same_outcome(self, case, claimed, cut):
        # Clause ``k`` of the chain sits at id ``k``; checking it as
        # clause ``cut`` turns every later reference into a forward one
        # that would still resolve.
        first, steps = case
        clauses = [first] + [other for _, other in steps]
        chain = [0] + [(pivot, k + 1) for k, (pivot, _) in enumerate(steps)]
        clause_id = min(cut, len(clauses))
        if claimed is None:
            replayed = outcome(fold, first, clauses[1:],
                               [pivot for pivot, _ in steps])
            claimed = replayed[1][0] if replayed[0] == "ok" else ()
        fast, slow = both_ways(
            check_clause, clause_id, claimed, DERIVED, chain,
            clauses.__getitem__, None,
        )
        assert fast == slow

    def test_forward_reference_that_would_replay(self):
        clauses = [(1, 2), (2,), (-1, 2)]
        fast, slow = both_ways(
            check_clause, 1, (2,), DERIVED, [0, (1, 2)],
            clauses.__getitem__, None,
        )
        assert fast == slow
        assert fast[2] == "proof.forward-ref"

    @pytest.mark.parametrize("chain", [
        [], [0], [0, (1,)], [0, (1, 1, 1)], [0, (1, 1), "step"],
        [0, (1, None)], [None, (1, 1)], [0, (1.0, 1)], [0, (1, 1.0)],
    ])
    def test_malformed_chains_fail_like_the_reference(self, chain):
        clauses = [(1, 2), (-1, 2), (2,)]
        fast, slow = both_ways(
            check_clause, 3, (2,), DERIVED, chain, clauses.__getitem__, None,
        )
        assert fast == slow


def store_outcome(call, *args, **kwargs):
    result = outcome(call, *args, **kwargs)
    if result[0] == "ok":
        store, id_map = result[1]
        return "ok", dumps_tracecheck(store), id_map
    return result


class TestEntryPointsAgainstReference:
    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_corpus_check_proof(self, name):
        store, cnf, _ = corrupted(name)
        fast, slow = both_ways(check_proof, store, axioms=cnf)
        assert fast[0] == "ProofError"
        assert fast == slow

    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_corpus_through_tracecheck(self, name):
        # The parser re-derives every pivot, so most mutations surface
        # as parse errors once the corrupted store is written out.
        store, _, _ = corrupted(name)
        text = dumps_tracecheck(store)
        fast, slow = both_ways(store_outcome, parse_tracecheck, text)
        assert fast == slow

    @pytest.mark.parametrize("text", PARSER_CASES)
    def test_parser_cases(self, text):
        fast, slow = both_ways(store_outcome, parse_tracecheck, text)
        assert fast == slow

    @RELAXED
    @given(st.lists(
        st.tuples(raw_clauses, st.lists(st.integers(1, 8), max_size=4)),
        min_size=1, max_size=8,
    ))
    def test_random_traces(self, lines):
        text = "".join(
            "%d %s0 %s0\n" % (
                number,
                "".join("%d " % lit for lit in lits if lit),
                "".join("%d " % ante for ante in antes),
            )
            for number, (lits, antes) in enumerate(lines, start=1)
        )
        fast, slow = both_ways(store_outcome, parse_tracecheck, text)
        assert fast == slow


class TestCommittedAdd24Proof:
    """The decoder pinned on a committed artifact."""

    @pytest.fixture(scope="class")
    def text(self):
        return (DATA / "add24_miter.tc").read_text()

    def test_round_trips_byte_for_byte(self, text):
        store, _ = parse_tracecheck(text)
        assert dumps_tracecheck(store) == text

    def test_pivots_match_the_reference_loop(self, text):
        store, id_map = parse_tracecheck(text)
        with reference_loop():
            reference, reference_map = parse_tracecheck(text)
        assert id_map == reference_map
        assert store.tables() == reference.tables()

    def test_checks_against_its_cnf(self, text):
        store, _ = parse_tracecheck(text)
        cnf = read_dimacs(str(DATA / "add24_miter.cnf"))
        result = check_proof(store, axioms=cnf.clauses)
        assert result.empty_clause_id is not None
        assert result.num_resolutions == store.num_resolutions

