"""The C search against ReferenceSolver, and the build of its module.

``Solver``'s propagation, conflict analysis, backtracking and branching
are functions of ``src/repro/sat/propagate.c`` where the host can build
it; where it cannot, ``Solver`` is ``ReferenceSolver``. These tests check
that:

* the C search and ``ReferenceSolver`` agree at every solve-call
  boundary: status, model, final clause, every ``SolverStats`` field and
  the proof store's clauses and chains in order, which pins every learnt
  clause and its 1UIP chain. The corpora are the add24 CNF, the sadd12
  sweep, the watch-migration cascade and twelve random 3-CNF formulas
  (``test_solver_differential.py`` runs the other sweeps the same way);
* after every solve call the C-backed state holds its invariants: every
  live clause is watched by its first two literals, the branching heap
  is bounded, and no variable is left marked seen;
* a corrupt state makes each entry point raise ``IndexError``,
  ``TypeError``, ``ValueError`` or ``KeyError`` (run in a child process,
  so a crash fails the test instead of killing pytest);
* a build that fails (no compiler, an unwritable or group-writable
  ``__pycache__``, a corrupt cached module) still imports the solver,
  runs ``ReferenceSolver``, logs exactly one warning on ``repro.sat`` and
  produces the same add08 proof; and two processes building from an
  empty cache at once both load a working module.
"""

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import textwrap
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.aig.aiger import read_aag
from repro.cnf.dimacs import read_dimacs
from repro.core.cec import check_equivalence
from repro.proof.tracecheck import dumps_tracecheck
from repro.proof.trim import trim
from repro.sat import native
from repro.sat.reference import ReferenceSolver
from repro.sat.solver import SAT, Solver, propagate_kernel
from test_solver_differential import (
    ADD24_CNF,
    assert_same_search,
    drive,
    scan_migration_clauses,
    sweep,
)

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "examples" / "data"

needs_kernel = pytest.mark.skipif(
    propagate_kernel() != "native",
    reason="the C search did not build on this host",
)


def random_3cnf(rng, num_vars, num_clauses):
    return [
        [v if rng.random() < 0.5 else -v
         for v in rng.sample(range(1, num_vars + 1), 3)]
        for _ in range(num_clauses)
    ]


@needs_kernel
class TestSameStateChanges:
    def test_add24_cnf(self):
        clauses = [list(c) for c in read_dimacs(str(ADD24_CNF)).clauses]
        log = assert_same_search(lambda cls: drive(cls, clauses, [[]]))[0]
        assert log[0]["stats"]["minimized_literals"] == 2070

    def test_sadd12_sweep(self, monkeypatch):
        log = assert_same_search(
            lambda cls: sweep(cls, "sadd12", monkeypatch))[0]
        assert len(log) > 50

    def test_watch_migration_cascade(self):
        # Assuming -1 migrates every window clause along its falsified
        # body; the later calls backtrack over those watches.
        clauses = scan_migration_clauses(2400, 60)
        log = assert_same_search(
            lambda cls: drive(cls, clauses, [[-1], [2], []]))[0]
        assert [entry["status"] for entry in log] == [SAT, SAT, SAT]

    def test_random_3cnf(self):
        rng = random.Random(2007)
        statuses = Counter()
        for _ in range(12):
            clauses = random_3cnf(rng, 40, 170)
            calls = [[]] + [
                [v if rng.random() < 0.5 else -v
                 for v in rng.sample(range(1, 41), size)]
                for size in (2, 3, 5)
            ]
            log = assert_same_search(
                lambda cls: drive(cls, clauses, calls))[0]
            statuses.update(entry["status"] for entry in log)
        # Both verdicts occur, so both return paths are compared.
        assert statuses[True] > 0 and statuses[False] > 0

    def test_conflict_mid_list_keeps_unvisited_watches(self):
        # Deciding -1 relocates (1 2 3)'s watch to 3, then the binary
        # (1 4) propagates 4, and (1 -4) conflicts while (1 5) waits
        # unvisited behind it: the conflict return must slide it down.
        clauses = ([1, 2, 3], [1, 4], [1, -4], [1, 5])
        solver, reference = Solver(), ReferenceSolver()
        for side in (solver, reference):
            for clause in clauses:
                side.add_clause(clause)
            side._new_decision_level()
            side._enqueue(-1, None)
        conflict = solver._propagate()
        assert sorted(solver.clause_lits(conflict)) \
            == sorted(reference._propagate().lits) == [-4, 1]
        for lit in (1, 2, 3, 4, -4, 5):
            ws = solver._watches[Solver._widx(lit)]
            assert [sorted(solver.clause_lits(ref)) for ref in ws[0::2]] \
                == [sorted(record.lits)
                    for record in reference._watches[Solver._widx(lit)]]
        assert solver._watches[Solver._widx(1)][0::2] \
            == solver.clause_refs()[1:]


CORRUPT_CASES = textwrap.dedent("""
    import json
    from repro.proof import ProofStore
    from repro.sat.solver import Solver

    def decided():
        # A state whose next propagation visits watch list W.
        solver = Solver()
        for clause in ([1, 2, 3], [1, 4], [2, 5], [1, -4, 6]):
            solver.add_clause(clause)
        solver._new_decision_level()
        solver._enqueue(-1, None)
        return solver

    def conflicted():
        # A proof-logging state at the conflict (-2 1): deciding -1
        # propagates 2 through (1 2).
        solver = Solver(proof=ProofStore())
        for clause in ([1, 2], [1, -2], [3, 4]):
            solver.add_clause(clause)
        solver._new_decision_level()
        solver._enqueue(-1, None)
        conflict = solver._propagate()
        assert conflict is not None
        return solver, conflict

    W = Solver._widx(1)

    def propagate(corrupt):
        def case():
            solver = decided()
            corrupt(solver)
            Solver._propagate(solver)
        return case

    def analyze(corrupt):
        def case():
            solver, conflict = conflicted()
            corrupt(solver, conflict)
            Solver._analyze(solver, conflict)
        return case

    def cancel(corrupt):
        def case():
            solver = decided()
            Solver._propagate(solver)
            corrupt(solver)
            Solver.cancel_until(solver, 0)
        return case

    def pick(corrupt):
        def case():
            solver = decided()
            corrupt(solver)
            Solver._pick_branch_var(solver)
        return case

    def bump(corrupt):
        def case():
            solver = decided()
            corrupt(solver)
            Solver._bump_clause(solver, solver.clause_refs()[0])
        return case

    def truncate(s):
        del s._arena[len(s._arena) // 2:]
    def replace(name, index, value):
        def corrupt(s, *conflict):
            getattr(s, name)[index] = value
        return corrupt
    def setattr_(name, value):
        def corrupt(s, *conflict):
            setattr(s, name, value)
        return corrupt

    def trail_literal_past_watches(s):
        s._trail[-1] = 2 * len(s._watches) + 2
    def non_list_watch_entry(s):
        s._watches[W] = tuple(s._watches[W])
    def odd_length_watch_list(s):
        s._watches[W].append(0)
    def missing_proof_id(s, conflict):
        del s._proof_ids[conflict]
    def reason_ref_outside_arena(s, conflict):
        # With a proof id, so that the arena read is what fails.
        s._reason[2] = len(s._arena) + 5
        s._proof_ids[s._reason[2]] = 0
    def trail_lim_past_trail(s):
        s._trail_lim[0] = len(s._trail) + 3
    def dead_entry_with_int_activity(s):
        s._heap_live[1] = False
        s._activity[1] = 1
    def learnt_missing_from_cla_act(s):
        s._learnts.append(s.clause_refs()[1])
        s._cla_inc = 1e21

    CASES = {
        # Solver._propagate
        "truncated_arena": propagate(truncate),
        "literal_past_lit_val": propagate(
            lambda s: s._watches[W].__setitem__(1, len(s._lit_val) + 7)),
        "trail_literal_past_watches": propagate(trail_literal_past_watches),
        "non_list_watch_entry": propagate(non_list_watch_entry),
        "odd_length_watch_list": propagate(odd_length_watch_list),
        "non_int_qhead": propagate(setattr_("_qhead", "0")),
        "tuple_arena": propagate(lambda s: setattr(
            s, "_arena", tuple(s._arena))),
        "non_int_level_slot": propagate(replace("_level", 4, None)),
        "negative_ref": propagate(
            lambda s: s._watches[W].__setitem__(0, -3)),
        "huge_int": propagate(
            lambda s: s._watches[W].__setitem__(0, 1 << 80)),
        "float_blocker": propagate(
            lambda s: s._watches[W].__setitem__(1, 1.0)),
        "non_int_ref": propagate(
            lambda s: s._watches[W].__setitem__(0, "0")),
        # Solver._analyze
        "missing_proof_id": analyze(missing_proof_id),
        "reason_ref_outside_arena": analyze(reason_ref_outside_arena),
        "analyze_non_float_activity": analyze(replace("_activity", 2, 1)),
        "analyze_non_bool_seen": analyze(replace("_seen", 2, 0)),
        "analyze_non_tuple_heap_entry": analyze(
            replace("_heap", 0, [0.0, 1])),
        "analyze_non_float_var_inc": analyze(setattr_("_var_inc", 1)),
        # Solver.cancel_until
        "trail_lim_past_trail": cancel(trail_lim_past_trail),
        "cancel_non_float_activity": cancel(dead_entry_with_int_activity),
        "cancel_non_list_heap": cancel(setattr_("_heap", ())),
        # Solver._pick_branch_var
        "pick_non_tuple_heap_entry": pick(replace("_heap", 0, [0.0, 1])),
        "pick_entry_var_past_activity": pick(
            replace("_heap", 0, (0.0, 10 ** 6))),
        # Solver._bump_clause
        "learnt_missing_from_cla_act": bump(learnt_missing_from_cla_act),
        "non_float_cla_act": bump(lambda s: s._cla_act.__setitem__(
            s.clause_refs()[0], "0.0")),
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

#: The exception each case of CORRUPT_CASES beyond propagation's raises.
EXPECTED_RAISES = {
    "missing_proof_id": "KeyError",
    "reason_ref_outside_arena": "IndexError",
    "analyze_non_float_activity": "TypeError",
    "analyze_non_bool_seen": "TypeError",
    "analyze_non_tuple_heap_entry": "TypeError",
    "analyze_non_float_var_inc": "TypeError",
    "trail_lim_past_trail": "IndexError",
    "cancel_non_float_activity": "TypeError",
    "cancel_non_list_heap": "TypeError",
    "pick_non_tuple_heap_entry": "TypeError",
    "pick_entry_var_past_activity": "IndexError",
    "learnt_missing_from_cla_act": "KeyError",
    "non_float_cla_act": "TypeError",
}


@needs_kernel
def test_corrupt_state_raises_instead_of_crashing():
    done = subprocess.run(
        [sys.executable, "-c", CORRUPT_CASES], capture_output=True,
        text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(
            ROOT / "src") + os.pathsep + str(ROOT / "tests")),
    )
    assert done.returncode == 0, done.stderr
    outcome = json.loads(done.stdout)
    assert len(outcome) == 12 + len(EXPECTED_RAISES)
    for case, raised in outcome.items():
        if case in EXPECTED_RAISES:
            assert raised == EXPECTED_RAISES[case], (case, raised)
        else:
            assert raised in ("IndexError", "TypeError", "ValueError"), \
                (case, raised)


def add08_proof_digest():
    result = check_equivalence(read_aag(str(DATA / "add08_a.aag")),
                               read_aag(str(DATA / "add08_b.aag")))
    text = dumps_tracecheck(trim(result.proof)[0])
    return hashlib.sha256(text.encode()).hexdigest()


#: Imports the solver from the package copy on PYTHONPATH, optionally
#: after breaking the compiler, and reports what it ran.
CHILD = textwrap.dedent("""
    import hashlib, json, logging, os, sys, sysconfig, time

    if "no-compiler" in sys.argv:
        sysconfig.get_config_vars()["CC"] = "/nonexistent/bin/cc"
    while not os.path.exists(sys.argv[1]):  # start signal
        time.sleep(0.005)
    messages = []

    class Collect(logging.Handler):
        def emit(self, record):
            if record.levelno >= logging.WARNING:
                messages.append(record.getMessage())

    logging.getLogger("repro.sat").addHandler(Collect())
    import repro.sat.solver as solver_module
    from repro.aig.aiger import read_aag
    from repro.core.cec import check_equivalence
    from repro.proof.tracecheck import dumps_tracecheck
    from repro.proof.trim import trim
    from repro.sat.reference import ReferenceSolver

    data = sys.argv[2]
    result = check_equivalence(read_aag(data + "/add08_a.aag"),
                               read_aag(data + "/add08_b.aag"))
    text = dumps_tracecheck(trim(result.proof)[0])
    print(json.dumps({
        "kernel": solver_module.propagate_kernel(),
        "reference": solver_module.Solver is ReferenceSolver,
        "gauge": result.stats["gauges"]["solver/kernel"],
        "warnings": messages,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
    }))
""")


class PackageCopy:
    """A fresh copy of ``src/repro`` (no ``__pycache__``) to import from."""

    def __init__(self, tmp_path):
        self.root = tmp_path
        self.src = tmp_path / "src"
        shutil.copytree(ROOT / "src" / "repro", self.src / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        self.cache = self.src / "repro" / "sat" / "__pycache__"
        self.go = tmp_path / "go"

    def start(self, *flags):
        return subprocess.Popen(
            [sys.executable, "-c", CHILD, str(self.go), str(DATA)]
            + list(flags),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=str(self.root), env=dict(os.environ, PYTHONPATH=str(
                self.src)),
        )

    def kernel_files(self):
        """Names in the cache the kernel build made (not bytecode)."""
        return sorted(path.name for path in self.cache.iterdir()
                      if "propagate" in path.name)

    def run(self, *flags):
        self.go.touch()
        return self.finish(self.start(*flags))

    @staticmethod
    def finish(child):
        out, err = child.communicate(timeout=300)
        assert child.returncode == 0, err
        return json.loads(out)


class TestBuildFallback:
    @pytest.fixture(scope="class")
    def reference_digest(self):
        return add08_proof_digest()

    def assert_python_fallback(self, report, reference_digest, reason):
        assert report["kernel"] == "python"
        assert report["reference"] is True
        assert report["gauge"] == "python"
        assert len(report["warnings"]) == 1, report["warnings"]
        assert reason in report["warnings"][0]
        assert "ReferenceSolver" in report["warnings"][0]
        assert report["digest"] == reference_digest

    def test_no_compiler(self, tmp_path, reference_digest):
        package = PackageCopy(tmp_path)
        report = package.run("no-compiler")
        self.assert_python_fallback(report, reference_digest,
                                    "/nonexistent/bin/cc")

    def test_pycache_is_not_a_directory(self, tmp_path, reference_digest):
        package = PackageCopy(tmp_path)
        package.cache.write_text("not a directory\n")
        report = package.run()
        self.assert_python_fallback(report, reference_digest,
                                    "__pycache__")

    @pytest.mark.skipif(os.geteuid() == 0,
                        reason="root writes through a read-only mode")
    def test_read_only_pycache(self, tmp_path, reference_digest):
        package = PackageCopy(tmp_path)
        package.cache.mkdir(mode=0o555)
        try:
            report = package.run()
        finally:
            package.cache.chmod(0o755)
        self.assert_python_fallback(report, reference_digest,
                                    "Permission denied")

    def test_group_writable_pycache_is_refused(self, tmp_path,
                                               reference_digest):
        package = PackageCopy(tmp_path)
        package.cache.mkdir()
        package.cache.chmod(0o777)
        report = package.run()
        self.assert_python_fallback(report, reference_digest,
                                    "writable by group or others")
        assert package.kernel_files() == []

    def test_corrupt_cached_module(self, tmp_path, reference_digest):
        package = PackageCopy(tmp_path)
        package.cache.mkdir(mode=0o755)
        cached = package.cache / native.module_file()
        cached.write_bytes(b"\x7fELF but not really a shared object\n")
        cached.chmod(0o755)
        report = package.run()
        self.assert_python_fallback(report, reference_digest,
                                    cached.name)


@needs_kernel
def test_concurrent_first_imports_both_load_the_kernel(tmp_path):
    package = PackageCopy(tmp_path)
    children = [package.start(), package.start()]
    time.sleep(0.5)  # both interpreters up and waiting on the signal
    package.go.touch()
    reports = [package.finish(child) for child in children]
    digest = add08_proof_digest()
    for report in reports:
        assert report["kernel"] == "native"
        assert report["reference"] is False
        assert report["gauge"] == "native"
        assert report["warnings"] == []
        assert report["digest"] == digest
    # One module in place, no build directory left behind.
    assert package.kernel_files() == [native.module_file()]
