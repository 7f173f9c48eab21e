"""Extended property-based tests: cuts, rewriting, proofs round-trips."""

import io
import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.aig import AIG, cut_function, enumerate_cuts
from repro.proof import (
    ProofStore,
    check_proof,
    parse_tracecheck,
    write_tracecheck,
)
from repro.sat import UNSAT, Solver
from repro.transforms import rewrite

RELAXED = settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def random_aigs(draw, max_inputs=5, max_nodes=20):
    num_inputs = draw(st.integers(2, max_inputs))
    aig = AIG()
    lits = list(aig.add_inputs(num_inputs))
    for _ in range(draw(st.integers(1, max_nodes))):
        a = lits[draw(st.integers(0, len(lits) - 1))]
        b = lits[draw(st.integers(0, len(lits) - 1))]
        lit = aig.add_and(
            a ^ int(draw(st.booleans())), b ^ int(draw(st.booleans()))
        )
        if lit > 1:
            lits.append(lit)
    aig.add_output(lits[-1] ^ int(draw(st.booleans())))
    return aig


@st.composite
def unsat_formulas(draw, max_vars=6):
    """Random UNSAT CNF via hypothesis (filtered by brute force)."""
    num_vars = draw(st.integers(2, max_vars))
    clauses = []
    for _ in range(draw(st.integers(6, 24))):
        width = draw(st.integers(1, min(3, num_vars)))
        variables = draw(
            st.lists(
                st.integers(1, num_vars),
                min_size=width,
                max_size=width,
                unique=True,
            )
        )
        clauses.append(
            [v if draw(st.booleans()) else -v for v in variables]
        )
    for bits in itertools.product([False, True], repeat=num_vars):
        if all(
            any(bits[abs(l) - 1] == (l > 0) for l in clause)
            for clause in clauses
        ):
            # SAT: force UNSAT by clamping a variable both ways.
            clauses.append([1])
            clauses.append([-1])
            break
    return clauses


class TestCutProperties:
    @RELAXED
    @given(random_aigs())
    def test_every_cut_table_matches_brute_force(self, aig):
        cuts = enumerate_cuts(aig, k=4, max_cuts=4)
        for var in aig.and_vars():
            for cut in cuts[var]:
                assert cut.table == cut_function(
                    aig, 2 * var, list(cut.leaves)
                )

    @RELAXED
    @given(random_aigs())
    def test_trivial_cut_always_present(self, aig):
        cuts = enumerate_cuts(aig, k=3)
        for var in aig.and_vars():
            assert any(cut.leaves == (var,) for cut in cuts[var])


class TestRewriteProperties:
    @RELAXED
    @given(random_aigs(max_inputs=4, max_nodes=14), st.integers(0, 999))
    def test_rewrite_preserves_function(self, aig, seed):
        variant = rewrite(aig, k=4, selection=0.7, seed=seed)
        for bits in itertools.product([0, 1], repeat=aig.num_inputs):
            assert aig.evaluate(list(bits)) == variant.evaluate(list(bits))


class TestProofRoundTrips:
    @RELAXED
    @given(unsat_formulas())
    def test_tracecheck_roundtrip_preserves_validity(self, clauses):
        store = ProofStore()
        solver = Solver(proof=store)
        alive = all(solver.add_clause(c) for c in clauses)
        if alive:
            assert solver.solve().status is UNSAT
        buffer = io.StringIO()
        write_tracecheck(store, buffer)
        back, _ = parse_tracecheck(buffer.getvalue())
        result = check_proof(back, axioms=clauses)
        assert result.empty_clause_id is not None
