"""Differential tests: flat-arena ``Solver`` vs. ``ReferenceSolver``.

The arena solver, whose search runs in C (``propagate.c``), must be
*trajectory-identical* to the Python ``ReferenceSolver``: same
decisions, same propagation order, same learned clauses, and therefore
byte-identical trimmed resolution proofs. These tests drive both solvers
over a deterministic corpus — adder/comparator miters, non-equivalent
mutants, the proof corpus's base formula, assumption solves, a
long-clause watch-migration cascade, the committed add24 miter (also at
fast variable and clause decays that rescale activities mid-search), and
whole sweeps, whose many assumption calls share one incremental instance
— and assert verdict, model, every statistics field, and proof equality,
plus ``check_proof`` replay of every refutation and a check of every
model against its clauses. The add24 solve is also pinned to its
committed statistics fingerprint and to the committed trimmed proof
``examples/data/add24_miter.tc``, byte for byte; each sweep is compared
at every solve call and pinned to its trimmed proof's digest, and
afterwards its branching heap must hold exactly one current entry per
live variable and at most three entries per variable in all.

Every test runs on both searches: the classes as written test
``Solver`` (the C search wherever it builds), and their ``...Python``
subclasses at the end of the module test ``ReferenceSolver``, which is
``Solver`` on a host that cannot build the C search, against the same
pinned fingerprints, proofs and models.
"""

import hashlib
import math
import sys
from collections import Counter
from pathlib import Path

import pytest

from proof_corpus import base_cnf
from repro.aig import lit_not
from repro.aig.miter import build_miter
from repro.circuits import kogge_stone_adder, ripple_carry_adder
from repro.circuits.benchmarks import by_name
from repro.cnf.dimacs import read_dimacs
from repro.cnf.tseitin import tseitin_encode
from repro.core import fraig
from repro.core.cec import check_equivalence
from repro.proof import ProofStore, check_proof
from repro.proof.tracecheck import dumps_tracecheck
from repro.proof.trim import trim
from repro.sat.reference import ReferenceSolver
from repro.sat.solver import SAT, UNKNOWN, UNSAT, Solver

DATA = Path(__file__).resolve().parent.parent / "examples" / "data"
ADD24_CNF = DATA / "add24_miter.cnf"
ADD24_TC = DATA / "add24_miter.tc"

# Trajectory fingerprint of the add24 solve, with or without proof
# logging; a change to any search heuristic shows up here first.
ADD24_STATS = {
    "decisions": 3889,
    "propagations": 130770,
    "conflicts": 1581,
    "restarts": 9,
    "learned": 1580,
    "deleted": 783,
    "minimized_literals": 2070,
}


def miter_clauses(aig_a, aig_b):
    """CNF clause list asserting the miter output (SAT = not equivalent)."""
    miter = build_miter(aig_a, aig_b)
    enc = tseitin_encode(miter.aig)
    clauses = list(enc.cnf.clauses)
    clauses.append([enc.lit_to_cnf(miter.output)])
    return clauses


def mutant(width):
    """A ripple-carry adder with its top output negated."""
    aig = ripple_carry_adder(width).copy()
    aig.set_output(0, lit_not(aig.outputs[0]))
    return aig


def run_solver(cls, clauses, assumptions=(), proof=False, **solver_kwargs):
    store = ProofStore() if proof else None
    solver = cls(proof=store, **solver_kwargs)
    alive = True
    for clause in clauses:
        if not solver.add_clause(clause):
            alive = False
            break
    outcome = {
        "alive": alive,
        "stats": None,
        "status": None,
        "model": None,
        "final": None,
        "store": store,
        "unsat_proof_id": None,
    }
    if alive:
        result = solver.solve(assumptions=list(assumptions))
        outcome["status"] = result.status
        outcome["final"] = result.final_clause
        if result.status is SAT:
            outcome["model"] = tuple(
                result.model_value(var)
                for var in range(1, solver.num_vars + 1)
            )
        if result.status is UNSAT and store is not None:
            outcome["unsat_proof_id"] = result.proof_id
    else:
        # Level-0 refutation during loading (same convention as the
        # monolithic baseline): the formula is UNSAT.
        outcome["status"] = UNSAT
    outcome["stats"] = solver.stats
    outcome["solver"] = solver
    return outcome


def assert_satisfies(model, clauses):
    """Every clause has a literal the model (a 0/1 tuple) makes true."""
    for clause in clauses:
        assert any(model[abs(lit) - 1] == (lit > 0) for lit in clause), \
            "model falsifies %r" % (clause,)


def assert_identical(clauses, assumptions=(), proof=False, axioms=None,
                     **solver_kwargs):
    """Run ``Solver`` (the search under test) and ``ReferenceSolver``;
    when they are one class, the single run is checked on its own."""
    new = run_solver(Solver, clauses, assumptions, proof, **solver_kwargs)
    ref = new if Solver is ReferenceSolver else run_solver(
        ReferenceSolver, clauses, assumptions, proof, **solver_kwargs)
    if Solver is not ReferenceSolver and new["alive"]:
        assert_invariants(new["solver"])
    assert new["alive"] == ref["alive"]
    assert new["status"] == ref["status"]
    assert new["model"] == ref["model"]
    assert new["final"] == ref["final"]
    assert vars(new["stats"]) == vars(ref["stats"]), \
        "trajectory diverged: %s vs %s" % (vars(new["stats"]),
                                           vars(ref["stats"]))
    if new["status"] is SAT and not assumptions:
        assert_satisfies(new["model"], clauses)
    if proof and new["status"] is UNSAT and not assumptions:
        new_trim, _ = trim(new["store"])
        ref_trim, _ = trim(ref["store"])
        new["tracecheck"] = dumps_tracecheck(new_trim)
        assert new["tracecheck"] == dumps_tracecheck(ref_trim), \
            "trimmed proofs are not byte-identical"
        replay_axioms = axioms if axioms is not None else clauses
        check_proof(new_trim, axioms=replay_axioms)
        check_proof(ref_trim, axioms=replay_axioms)
    return new, ref


def rescales(solver, decay, inc, scale):
    """How often a run scaled the increment *inc* (grown by ``1/decay``
    per analysed conflict, one per learnt clause) by *scale*."""
    grown = solver.stats.learned * math.log10(1 / decay)
    count = (grown - math.log10(getattr(solver, inc))) / -math.log10(scale)
    assert abs(count - round(count)) < 1e-6, count
    return round(count)


class TestEquivalentMiters:
    @pytest.mark.parametrize("width", [2, 4, 8])
    def test_adder_miters_unsat(self, width):
        clauses = miter_clauses(
            ripple_carry_adder(width), kogge_stone_adder(width)
        )
        new, _ = assert_identical(clauses, proof=True)
        assert new["status"] is UNSAT

    def test_committed_add24_miter(self):
        cnf = read_dimacs(str(ADD24_CNF))
        new, _ = assert_identical(list(cnf.clauses), proof=True)
        assert new["status"] is UNSAT
        stats = new["stats"]
        assert {name: getattr(stats, name) for name in ADD24_STATS} \
            == ADD24_STATS
        assert new["tracecheck"] == ADD24_TC.read_text()

    def test_add24_with_activity_rescales(self):
        # Decay 0.5 doubles the bump increment per conflict, so the 1e100
        # activity limit is crossed twice within the 965 conflicts.
        cnf = read_dimacs(str(ADD24_CNF))
        new, _ = assert_identical(list(cnf.clauses), proof=True,
                                  var_decay=0.5)
        assert new["status"] is UNSAT
        assert new["stats"].conflicts == 965
        solver = new["solver"]
        assert rescales(solver, 0.5, "_var_inc", 1e-100) == 2
        assert rescales(solver, 0.999, "_cla_inc", 1e-20) == 0

    def test_add24_with_clause_activity_rescales(self):
        # Clause decay 0.5 crosses the 1e20 clause-activity limit 21
        # times within the 1457 conflicts.
        cnf = read_dimacs(str(ADD24_CNF))
        new, _ = assert_identical(list(cnf.clauses), proof=True,
                                  clause_decay=0.5)
        assert new["status"] is UNSAT
        assert new["stats"].conflicts == 1457
        solver = new["solver"]
        assert rescales(solver, 0.5, "_cla_inc", 1e-20) == 21
        assert rescales(solver, 0.95, "_var_inc", 1e-100) == 0


class TestNonEquivalentMutants:
    @pytest.mark.parametrize("width", [2, 4, 6])
    def test_mutant_miters_sat_same_model(self, width):
        clauses = miter_clauses(ripple_carry_adder(width), mutant(width))
        new, ref = assert_identical(clauses, proof=True)
        assert new["status"] is SAT
        assert new["model"] is not None
        assert new["model"] == ref["model"]

    def test_cross_width_structures(self):
        # rca vs. ks with one ks output negated: SAT with a proof store
        # attached (proof logging must not perturb the trajectory).
        aig_b = kogge_stone_adder(4).copy()
        aig_b.set_output(2, lit_not(aig_b.outputs[2]))
        clauses = miter_clauses(ripple_carry_adder(4), aig_b)
        new, _ = assert_identical(clauses, proof=True)
        assert new["status"] is SAT


class TestProofCorpusInputs:
    def test_base_cnf_refutation(self):
        clauses = [list(c) for c in base_cnf().clauses]
        new, _ = assert_identical(clauses, proof=True)
        assert new["status"] is UNSAT

    def test_base_cnf_under_assumptions(self):
        clauses = [list(c) for c in base_cnf().clauses[:2]]  # (1 2), (-1 2)
        new, _ = assert_identical(clauses, assumptions=[-2], proof=True)
        assert new["status"] is UNSAT
        assert new["final"] is not None

    def test_empty_clause_via_units(self):
        new, _ = assert_identical([[1], [-1]], proof=True)
        assert new["alive"] is False


def scan_migration_clauses(n, window):
    """A long-clause watch-migration cascade.

    Assuming ``-1`` falsifies every chain variable through the binary
    implications ``(i, -(i+1))``, so each clause over an overlapping
    window of them moves its watches along its falsified body to the
    two fresh literals at its end.
    """
    clauses = [[i, -(i + 1)] for i in range(1, n)]
    extra = n + 1
    for j in range(1, n - window):
        clauses.append(list(range(j, j + window)) + [extra, extra + 1])
        extra += 2
    return clauses


class TestAssumptionSolves:
    def test_scan_migration_cascade(self):
        new, _ = assert_identical(
            scan_migration_clauses(2400, 60), assumptions=[-1],
        )
        assert new["status"] is SAT
        assert (new["stats"].decisions, new["stats"].propagations) \
            == (2340, 7078)

    def test_sat_under_assumptions(self):
        clauses = miter_clauses(ripple_carry_adder(3), kogge_stone_adder(3))
        # Assuming the first CNF variable true/false must not change the
        # UNSAT verdict and must agree on the final conflict clause.
        for assumption in ([1], [-1], [1, 2]):
            new, ref = assert_identical(clauses, assumptions=assumption)
            assert new["status"] is ref["status"] is UNSAT

    def test_conflict_budget_agreement(self):
        clauses = miter_clauses(ripple_carry_adder(8), kogge_stone_adder(8))

        def run(cls):
            solver = cls()
            for clause in clauses:
                solver.add_clause(clause)
            result = solver.solve(max_conflicts=20)
            return result.status, vars(solver.stats)

        status, stats = run(Solver)
        assert (status, stats) == run(ReferenceSolver)
        assert status is UNKNOWN
        assert stats["conflicts"] == 20


def assert_heap_bounded(solver):
    """One current heap entry per live variable, at most 3 per variable."""
    activity = solver._activity
    current = Counter(
        var for neg_act, var in solver._heap if -neg_act == activity[var]
    )
    live = [
        var for var in range(1, solver.num_vars + 1)
        if solver._heap_live[var]
    ]
    assert current == Counter(live)
    assert len(solver._heap) <= 3 * solver.num_vars


#: Per sweep: SAT calls and the sha256 prefix of the trimmed proof.
SWEEPS = {
    "sadd12": (243, "edaf74fd6ce5c20c"),
    "add24": (219, "50e3a870cbc7180d"),
    "rpop12": (148, "dc3d76f749e4bffc"),
    "mul04": (28, "9d8cf7ffecbbd543"),
}


def assert_invariants(solver):
    """The C-backed state between solve calls."""
    arena = solver._arena
    expected = Counter()
    for ref in solver._clauses + solver._learnts:
        size = arena[ref] >> 1
        for lit in arena[ref + 1:ref + 1 + min(size, 2)]:
            expected[lit, ref] += 1
    watched = Counter()
    for lit, ws in enumerate(solver._watches):
        for i in range(0, len(ws), 2):
            watched[lit, ws[i]] += 1
    assert watched == expected, "a live clause lost a watch"
    assert_heap_bounded(solver)
    assert not any(solver._seen)


def recording(cls, log, solvers):
    """*cls* that logs what each solve call leaves observable, and
    checks the invariants of the C-backed state after it."""

    class Recording(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            solvers.append(self)

        def solve(self, *args, **kwargs):
            result = super().solve(*args, **kwargs)
            model = None
            if result.status is SAT:
                model = tuple(result.model_value(var)
                              for var in range(1, self.num_vars + 1))
            log.append({
                "status": result.status,
                "model": model,
                "final": result.final_clause,
                "stats": dict(vars(self.stats)),
                "proof_length": len(self.proof),
            })
            if cls is not ReferenceSolver:
                assert_invariants(self)
            return result

    return Recording


def drive(cls, clauses, calls):
    """Load *clauses* into a proof-logging *cls* and solve under each
    assumption list of *calls*; returns the call log and the solver."""
    log, solvers = [], []
    solver = recording(cls, log, solvers)(proof=ProofStore())
    if all(solver.add_clause(clause) for clause in clauses):
        for assumptions in calls:
            solver.solve(assumptions=assumptions)
    return log, solver


def sweep(cls, name, monkeypatch):
    """Check the suite pair *name* with *cls* as the sweep's solver;
    returns the call log, the solver and the check's result."""
    log, solvers = [], []
    with monkeypatch.context() as patch:
        patch.setattr(fraig, "Solver", recording(cls, log, solvers))
        result = check_equivalence(*by_name(name).build())
    assert result.equivalent is True
    assert solvers == [result.engine.solver]
    return log, result.engine.solver, result


def assert_same_search(run):
    """``run(cls)``, which returns the call log and the solver first,
    leaves the same state at every solve-call boundary with ``Solver``
    and with ReferenceSolver; returns the ``Solver`` run's result.

    The proof store only grows, so equal lengths at each boundary and
    equal contents at the end make every boundary's store equal.
    """
    c_side, py_side = run(Solver), run(ReferenceSolver)
    (c_log, c_solver), (py_log, py_solver) = c_side[:2], py_side[:2]
    assert len(c_log) == len(py_log)
    for call, (got, want) in enumerate(zip(c_log, py_log)):
        assert got == want, "solve call %d diverged" % call
    assert c_solver.proof.tables() == py_solver.proof.tables()
    assert vars(c_solver.stats) == vars(py_solver.stats)
    return c_side


class TestSweepSolves:
    """A whole sweep: many assumption calls on one incremental instance,
    with lemma clauses added between them, so heap state carries over."""

    @pytest.mark.parametrize("name", sorted(SWEEPS))
    def test_sweep_matches_reference(self, name, monkeypatch):
        def run(cls):
            return sweep(cls, name, monkeypatch)

        if Solver is ReferenceSolver:
            log, solver, result = run(Solver)
        else:  # compared call by call, heap bounded after each
            log, solver, result = assert_same_search(run)
        assert vars(solver.stats) == log[-1]["stats"]
        sat_calls, digest = SWEEPS[name]
        assert result.engine.stats.sat_calls == len(log) == sat_calls
        text = dumps_tracecheck(trim(result.proof)[0])
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


class PythonSearch:
    """Mixin: run the inherited tests with ``Solver`` as a host without
    the C search has it, the Python ``ReferenceSolver``."""

    @pytest.fixture(autouse=True)
    def python_search(self, monkeypatch):
        monkeypatch.setattr(sys.modules[__name__], "Solver",
                            ReferenceSolver)


class TestEquivalentMitersPython(PythonSearch, TestEquivalentMiters):
    pass


class TestNonEquivalentMutantsPython(PythonSearch,
                                     TestNonEquivalentMutants):
    pass


class TestProofCorpusInputsPython(PythonSearch, TestProofCorpusInputs):
    pass


class TestAssumptionSolvesPython(PythonSearch, TestAssumptionSolves):
    pass


class TestSweepSolvesPython(PythonSearch, TestSweepSolves):
    pass
