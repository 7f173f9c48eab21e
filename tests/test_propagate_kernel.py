"""The native propagation kernel against its Python twin.

``Solver._propagate`` is the C function built from
``src/repro/sat/propagate.c`` when the host can build it, and
``Solver._propagate_python`` otherwise. These tests check that:

* from solver states captured mid-search (the add24 CNF, a sweep of
  sadd12, the watch-migration cascade and random 3-CNF formulas), the
  kernel and the Python method leave identical lists behind and return
  the same value, call after call;
* a corrupt state makes the kernel raise ``IndexError``, ``TypeError``
  or ``ValueError`` (run in a child process, so a crash fails the test
  instead of killing pytest);
* a build that fails (no compiler, an unwritable or group-writable
  ``__pycache__``, a corrupt cached module) still imports the solver,
  runs the Python method, logs exactly one warning on ``repro.sat`` and
  produces the same add08 proof; and two processes building from an
  empty cache at once both load a working module.

The whole differential suite (``test_solver_differential.py``) also runs
on both paths.
"""

import copy
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.aig.aiger import read_aag
from repro.circuits.benchmarks import by_name
from repro.cnf.dimacs import read_dimacs
from repro.core.cec import check_equivalence
from repro.proof.tracecheck import dumps_tracecheck
from repro.proof.trim import trim
from repro.sat import native
from repro.sat.solver import Solver, propagate_kernel
from test_solver_differential import ADD24_CNF, scan_migration_clauses

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "examples" / "data"

needs_kernel = pytest.mark.skipif(
    propagate_kernel() != "native",
    reason="the native propagation kernel did not build on this host",
)

#: Every list the kernel reads or writes.
LISTS = ("_arena", "_watches", "_trail", "_lit_val", "_level", "_reason")


def snapshot(solver):
    """A deep copy of the state ``_propagate`` reads and writes.

    Every list holds ints (``_watches`` lists of them), so copying the
    lists is a deep copy, and much faster than ``copy.deepcopy``.
    """
    shell = object.__new__(Solver)
    for name in LISTS + ("_trail_lim",):
        setattr(shell, name, list(getattr(solver, name)))
    shell._watches = [list(ws) for ws in solver._watches]
    shell._qhead = solver._qhead
    shell.stats = copy.copy(solver.stats)
    return shell


def capture_states(monkeypatch, run, stride=1):
    """Snapshots before the first ten propagation calls of *run* and
    every *stride*-th one after.

    The run itself propagates with the Python method, so the captured
    states follow the reference trajectory.
    """
    states = []
    calls = [0]

    def capturing(solver):
        if calls[0] < 10 or calls[0] % stride == 0:
            states.append(snapshot(solver))
        calls[0] += 1
        return Solver._propagate_python(solver)

    with monkeypatch.context() as patch:
        patch.setattr(Solver, "_propagate", capturing)
        run()
    assert states
    return states


def assert_same_step(state):
    """Kernel and Python method, from one state, end in one state."""
    native_side = snapshot(state)
    python_side = snapshot(state)
    got = Solver._propagate(native_side)
    want = Solver._propagate_python(python_side)
    assert got == want
    assert native_side._qhead == python_side._qhead
    assert native_side.stats.propagations == python_side.stats.propagations
    for name in LISTS:
        assert getattr(native_side, name) == getattr(python_side, name), name


def solve_clauses(clauses, assumptions=()):
    solver = Solver()
    for clause in clauses:
        if not solver.add_clause(clause):
            return
    solver.solve(assumptions=list(assumptions))


def random_3cnf(rng, num_vars, num_clauses):
    return [
        [v if rng.random() < 0.5 else -v
         for v in rng.sample(range(1, num_vars + 1), 3)]
        for _ in range(num_clauses)
    ]


@needs_kernel
class TestSameStateChanges:
    def test_add24_cnf(self, monkeypatch):
        clauses = [list(c) for c in read_dimacs(str(ADD24_CNF)).clauses]
        states = capture_states(
            monkeypatch, lambda: solve_clauses(clauses), stride=7)
        assert len(states) > 200
        assert any(state._trail_lim for state in states)
        for state in states:
            assert_same_step(state)

    def test_sadd12_sweep(self, monkeypatch):
        pair = by_name("sadd12").build()
        states = capture_states(
            monkeypatch, lambda: check_equivalence(*pair), stride=2)
        assert len(states) > 200
        for state in states:
            assert_same_step(state)

    def test_watch_migration_cascade(self, monkeypatch):
        clauses = scan_migration_clauses(2400, 60)
        states = capture_states(
            monkeypatch, lambda: solve_clauses(clauses, [-1]), stride=80)
        # The second call, after assuming -1, migrates every window
        # clause along its falsified body.
        assert len(states) > 30
        for state in states:
            assert_same_step(state)

    def test_random_3cnf(self, monkeypatch):
        rng = random.Random(2007)
        states = []
        for _ in range(12):
            clauses = random_3cnf(rng, 40, 170)
            states += capture_states(
                monkeypatch, lambda: solve_clauses(clauses))
        assert len(states) > 500
        for state in states:
            assert_same_step(state)

    def test_conflict_mid_list_keeps_unvisited_watches(self):
        # Deciding -1 relocates (1 2 3)'s watch to 3, then the binary
        # (1 4) propagates 4, and (1 -4) conflicts while (1 5) waits
        # unvisited behind it: the conflict return must slide it down.
        solver = Solver()
        for clause in ([1, 2, 3], [1, 4], [1, -4], [1, 5]):
            solver.add_clause(clause)
        solver._new_decision_level()
        solver._enqueue(-1, None)
        state = snapshot(solver)
        assert_same_step(state)
        assert Solver._propagate(snapshot(state)) is not None


CORRUPT_CASES = textwrap.dedent("""
    import json
    from repro.sat.solver import Solver

    def decided():
        # A state whose next propagation visits watch list W.
        solver = Solver()
        for clause in ([1, 2, 3], [1, 4], [2, 5], [1, -4, 6]):
            solver.add_clause(clause)
        solver._new_decision_level()
        solver._enqueue(-1, None)
        return solver

    W = Solver._widx(1)

    def truncated_arena(s):
        del s._arena[len(s._arena) // 2:]
    def literal_past_lit_val(s):
        s._watches[W][1] = len(s._lit_val) + 7
    def trail_literal_past_watches(s):
        s._trail[-1] = 2 * len(s._watches) + 2
    def non_list_watch_entry(s):
        s._watches[W] = tuple(s._watches[W])
    def odd_length_watch_list(s):
        s._watches[W].append(0)
    def non_int_ref(s):
        s._watches[W][0] = "0"
    def float_blocker(s):
        s._watches[W][1] = 1.0
    def negative_ref(s):
        s._watches[W][0] = -3
    def huge_int(s):
        s._watches[W][0] = 1 << 80
    def tuple_arena(s):
        s._arena = tuple(s._arena)
    def non_int_qhead(s):
        s._qhead = "0"
    def non_int_level_slot(s):
        s._level[4] = None

    outcome = {}
    for case in (truncated_arena, literal_past_lit_val,
                 trail_literal_past_watches, non_list_watch_entry,
                 odd_length_watch_list, non_int_ref, float_blocker,
                 negative_ref, huge_int, tuple_arena, non_int_qhead,
                 non_int_level_slot):
        state = decided()
        case(state)
        try:
            Solver._propagate(state)
        except Exception as exc:
            outcome[case.__name__] = type(exc).__name__
        else:
            outcome[case.__name__] = None
    print(json.dumps(outcome))
""")


@needs_kernel
def test_corrupt_state_raises_instead_of_crashing():
    done = subprocess.run(
        [sys.executable, "-c", CORRUPT_CASES], capture_output=True,
        text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(
            ROOT / "src") + os.pathsep + str(ROOT / "tests")),
    )
    assert done.returncode == 0, done.stderr
    outcome = json.loads(done.stdout)
    assert len(outcome) == 12
    for case, raised in outcome.items():
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

    data = sys.argv[2]
    result = check_equivalence(read_aag(data + "/add08_a.aag"),
                               read_aag(data + "/add08_b.aag"))
    text = dumps_tracecheck(trim(result.proof)[0])
    Solver = solver_module.Solver
    print(json.dumps({
        "kernel": solver_module.propagate_kernel(),
        "python_method": Solver._propagate is Solver._propagate_python,
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
        assert report["python_method"] is True
        assert report["gauge"] == "python"
        assert len(report["warnings"]) == 1, report["warnings"]
        assert reason in report["warnings"][0]
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
        assert report["gauge"] == "native"
        assert report["warnings"] == []
        assert report["digest"] == digest
    # One module in place, no build directory left behind.
    assert package.kernel_files() == [native.module_file()]
