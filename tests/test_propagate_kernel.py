"""The C search against ReferenceSolver, and the build of its module.

``Solver``'s state and search live in ``Core``, a type of
``src/repro/sat/propagate.c``, where the host can build it; where it
cannot, ``Solver`` is ``ReferenceSolver``. These tests check that:

* the C search and ``ReferenceSolver`` agree at every solve-call
  boundary: status, model, final clause, every ``SolverStats`` field and
  the proof store's clauses and chains in order, which pins every learnt
  clause and its 1UIP chain. The corpora are the add24 CNF, the sadd12
  sweep, the watch-migration cascade and twelve random 3-CNF formulas
  (``test_solver_differential.py`` runs the other sweeps the same way);
* after every solve call the C-backed state, read through its read-only
  snapshots, holds its invariants: every live clause of two or more
  literals is watched by its first two, the branching heap is bounded,
  and no variable is left marked seen;
* malformed input at every method Python can reach (a float literal,
  literal 0, a literal past the variable range, a bad level, a ref
  outside the arena, duplicate or contradictory assumptions) raises
  ``TypeError``, ``ValueError`` or ``IndexError`` and leaves the solver
  usable, and a callback that changes the solver mid-search raises
  ``RuntimeError`` (run in a child process, so a crash fails the test
  instead of killing pytest);
* a build that fails (no compiler, an unwritable or group-writable
  ``__pycache__``, a corrupt cached module) still imports the solver,
  runs ``ReferenceSolver``, logs exactly one warning on ``repro.sat`` and
  produces the same add08 proof; and two processes building from an
  empty cache at once both load a working module. The proof store's
  module (``src/repro/proof/store.c``) builds through the same loader:
  without a compiler, or with its own ``__pycache__`` unusable, the
  store is ``ReferenceProofStore`` (one warning on ``repro.proof``) and
  the add08 proof is the same.
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

import repro
from repro.aig.aiger import read_aag
from repro.cnf.dimacs import read_dimacs
from repro.core.cec import check_equivalence
from repro.proof.tracecheck import dumps_tracecheck
from repro.proof.trim import trim
from repro import native
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
#: The ``src`` directory this process imports repro from (a sanitized
#: copy in CI), for child processes and package copies that must run
#: the same build.
SRC = Path(repro.__file__).resolve().parent.parent

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
    from repro.sat.solver import SAT, Solver

    def loaded():
        solver = Solver(proof=ProofStore())
        for clause in ([1, 2, 3], [1, 4], [2, 5], [1, -4, 6]):
            solver.add_clause(clause)
        return solver

    def call(method, *args, **kwargs):
        # The malformed call, then a solve of the same solver, which
        # must still answer.
        def case():
            solver = loaded()
            try:
                getattr(solver, method)(*args, **kwargs)
            finally:
                assert solver.solve().status is SAT
        return case

    def assigned_literal():
        solver = loaded()
        solver._new_decision_level()
        solver._enqueue(-1, None)
        solver._enqueue(1, None)

    def reentrant_callback():
        # A budget whose callback changes the solver mid-search.
        solver = Solver()
        for clause in ([1, 2], [1, -2], [-1, 2], [-1, -2]):
            solver.add_clause(clause)

        class Meddling:
            def on_conflict(self):
                solver.add_clause([3])

            def exhausted_reason(self):
                return None

        solver.solve(budget=Meddling())

    CASES = {
        "add_clause_float_literal": call("add_clause", [1, 2.0]),
        "add_clause_literal_0": call("add_clause", [0, 7]),
        "add_clause_literal_past_range": call("add_clause", [1 << 31]),
        "add_clause_huge_literal": call("add_clause", [-(1 << 80)]),
        "add_clause_not_iterable": call("add_clause", 7),
        "add_clause_str_proof_id": call(
            "add_clause", [7], axiom=False, proof_id="3"),
        "add_clause_negative_proof_id": call(
            "add_clause", [7], axiom=False, proof_id=-1),
        "value_float_literal": call("value", 1.0),
        "value_literal_0": call("value", 0),
        "value_literal_past_range": call("value", 7),
        "value_huge_literal": call("value", -(1 << 80)),
        "enqueue_literal_past_range": call("_enqueue", 7, None),
        "enqueue_with_reason": call("_enqueue", 1, 0),
        "enqueue_assigned_literal": assigned_literal,
        "ensure_vars_float": call("ensure_vars", 2.5),
        "ensure_vars_past_range": call("ensure_vars", 1 << 40),
        "cancel_negative_level": call("cancel_until", -1),
        "cancel_float_level": call("cancel_until", 0.0),
        "cancel_str_level": call("cancel_until", "0"),
        "cancel_huge_level": call("cancel_until", 1 << 80),
        "clause_size_negative_ref": call("clause_size", -1),
        "clause_lits_ref_past_arena": call("clause_lits", 10 ** 6),
        "clause_is_learnt_huge_ref": call("clause_is_learnt", 1 << 80),
        "clause_proof_id_float_ref": call("clause_proof_id", 4.0),
        "clause_activity_ref_past_arena": call("clause_activity", 1 << 31),
        "reason_ref_var_past_range": call("reason_ref", 7),
        "reason_ref_negative_var": call("reason_ref", -1),
        "solve_duplicate_assumptions": call("solve", [1, 1]),
        "solve_contradictory_assumptions": call("solve", [2, -2]),
        "solve_assumption_0": call("solve", [0]),
        "solve_float_assumption": call("solve", [1.5]),
        "solve_assumption_past_range": call("solve", [1 << 40]),
        "search_assumption_past_range": call(
            "_search", [7], None, None, None, None, []),
        "search_duplicate_assumptions": call(
            "_search", [3, -3], None, None, None, None, []),
        "search_float_max_conflicts": call(
            "_search", [], 1.5, None, None, None, []),
        "reentrant_callback": reentrant_callback,
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

#: The exception each case of CORRUPT_CASES must raise.
EXPECTED_RAISES = {
    "add_clause_float_literal": "TypeError",
    "add_clause_literal_0": "ValueError",
    "add_clause_literal_past_range": "ValueError",
    "add_clause_huge_literal": "ValueError",
    "add_clause_not_iterable": "TypeError",
    "add_clause_str_proof_id": "TypeError",
    "add_clause_negative_proof_id": "ValueError",
    "value_float_literal": "TypeError",
    "value_literal_0": "ValueError",
    "value_literal_past_range": "IndexError",
    "value_huge_literal": "IndexError",
    "enqueue_literal_past_range": "IndexError",
    "enqueue_with_reason": "ValueError",
    "enqueue_assigned_literal": "ValueError",
    "ensure_vars_float": "TypeError",
    "ensure_vars_past_range": "ValueError",
    "cancel_negative_level": "ValueError",
    "cancel_float_level": "TypeError",
    "cancel_str_level": "TypeError",
    "cancel_huge_level": "ValueError",
    "clause_size_negative_ref": "IndexError",
    "clause_lits_ref_past_arena": "IndexError",
    "clause_is_learnt_huge_ref": "IndexError",
    "clause_proof_id_float_ref": "TypeError",
    "clause_activity_ref_past_arena": "IndexError",
    "reason_ref_var_past_range": "IndexError",
    "reason_ref_negative_var": "IndexError",
    "solve_duplicate_assumptions": "ValueError",
    "solve_contradictory_assumptions": "ValueError",
    "solve_assumption_0": "ValueError",
    "solve_float_assumption": "TypeError",
    "solve_assumption_past_range": "ValueError",
    "search_assumption_past_range": "IndexError",
    "search_duplicate_assumptions": "ValueError",
    "search_float_max_conflicts": "TypeError",
    # Not malformed input: a callback may not change the solver.
    "reentrant_callback": "RuntimeError",
}


@needs_kernel
def test_corrupt_state_raises_instead_of_crashing():
    # Every value Python can pass the core is checked at the method that
    # receives it; a child process, so a crash fails the test instead of
    # killing pytest.
    done = subprocess.run(
        [sys.executable, "-c", CORRUPT_CASES], capture_output=True,
        text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(
            SRC) + os.pathsep + str(ROOT / "tests")),
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == EXPECTED_RAISES


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

    store_messages = []

    class CollectStore(logging.Handler):
        def emit(self, record):
            if record.levelno >= logging.WARNING:
                store_messages.append(record.getMessage())

    logging.getLogger("repro.sat").addHandler(Collect())
    logging.getLogger("repro.proof").addHandler(CollectStore())
    import repro.sat.solver as solver_module
    from repro.proof.store import store_kernel
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
        "store": store_kernel(),
        "store_warnings": store_messages,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
    }))
""")


class PackageCopy:
    """A fresh copy of the imported ``repro`` package (no
    ``__pycache__``) to import from."""

    def __init__(self, tmp_path):
        self.root = tmp_path
        self.src = tmp_path / "src"
        shutil.copytree(SRC / "repro", self.src / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        self.cache = self.src / "repro" / "sat" / "__pycache__"
        self.store_cache = self.src / "repro" / "proof" / "__pycache__"
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
        assert report["store"] == "python"
        assert len(report["store_warnings"]) == 1
        assert "/nonexistent/bin/cc" in report["store_warnings"][0]
        assert "ReferenceProofStore" in report["store_warnings"][0]

    def test_store_pycache_is_not_a_directory(self, tmp_path,
                                              reference_digest):
        package = PackageCopy(tmp_path)
        package.store_cache.write_text("not a directory\n")
        report = package.run()
        assert report["store"] == "python"
        assert len(report["store_warnings"]) == 1
        assert "__pycache__" in report["store_warnings"][0]
        assert report["digest"] == reference_digest
        if propagate_kernel() == "native":
            assert report["kernel"] == "native"
            assert report["warnings"] == []

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
        cached = package.cache / native.module_file("repro.sat._propagate")
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
        assert report["store"] == "native"
        assert report["store_warnings"] == []
        assert report["digest"] == digest
    # One module in place, no build directory left behind.
    assert package.kernel_files() == [native.module_file("repro.sat._propagate")]


def test_package_data_ships_every_c_source():
    # An installed package has only the files package-data lists; a
    # missing source would make every such install run the Python class.
    text = (ROOT / "pyproject.toml").read_text()
    line = next(line for line in text.splitlines()
                if line.startswith("repro = ["))
    for source in native.SOURCES.values():
        relative = Path(source).relative_to(native.PACKAGE).as_posix()
        assert '"%s"' % relative in line, relative
