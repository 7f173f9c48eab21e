"""Command-line interface: ``repro-sat``.

A standalone DIMACS front end for the proof-logging CDCL solver::

    repro-sat formula.cnf                      # SAT/UNSAT + model
    repro-sat formula.cnf --proof out.drup     # trimmed DRUP refutation
    repro-sat formula.cnf --trace out.tc       # TraceCheck trace
    repro-sat formula.cnf --assume 3 -7        # solve under assumptions

Exit codes follow the SAT-competition convention: 10 = SAT, 20 = UNSAT,
0 = unknown/limit; 3 = invalid input (unreadable or malformed DIMACS, a
bad ``--assume`` list, or a negative or NaN limit).
"""

import sys

from . import __version__
from .cnf.dimacs import DimacsError, read_dimacs
from .exit_codes import EXIT_INVALID_INPUT, EXIT_SAT, EXIT_SAT_UNKNOWN, \
    EXIT_UNSAT, CliParser
from .instrument import Budget, Recorder, maybe_profile
from .instrument.budget import check_limit
from .proof.checker import check_proof
from .proof.drup import write_drup
from .proof.stats import proof_stats
from .proof.store import ProofStore
from .proof.tracecheck import write_tracecheck
from .proof.trim import trim
from .sat.solver import SAT, UNSAT, Solver, propagate_kernel


def build_parser():
    """Construct the argument parser (exposed for testing)."""
    parser = CliParser(
        prog="repro-sat",
        description="CDCL SAT solving with resolution-proof logging",
    )
    parser.add_argument(
        "--version", action="version", version="%(prog)s " + __version__,
    )
    parser.add_argument("cnf", help="DIMACS CNF file")
    parser.add_argument(
        "--proof", metavar="FILE", help="write a DRUP refutation on UNSAT"
    )
    parser.add_argument(
        "--trace", metavar="FILE",
        help="write a TraceCheck resolution trace on UNSAT",
    )
    parser.add_argument(
        "--no-trim", action="store_true", help="emit untrimmed proofs"
    )
    parser.add_argument(
        "--check", action="store_true",
        help="self-check the refutation before reporting UNSAT",
    )
    parser.add_argument(
        "--assume", type=int, nargs="+", default=[], metavar="LIT",
        help="solve under the given assumption literals",
    )
    parser.add_argument(
        "--max-conflicts", type=int, default=None,
        help="conflict budget (exit 0 when exhausted)",
    )
    parser.add_argument(
        "--conflict-limit", type=int, default=None, metavar="N",
        help="alias of --max-conflicts (uniform budget flag across the "
        "repro CLIs); the smaller of the two wins",
    )
    parser.add_argument(
        "--time-limit", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget (exit 0 / s UNKNOWN when exhausted)",
    )
    parser.add_argument(
        "--stats-json", metavar="PATH",
        help="write the run's repro-stats/1 JSON report to PATH",
    )
    parser.add_argument(
        "--profile", metavar="PATH",
        help="profile the run with cProfile and dump pstats data to PATH",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the model/statistics"
    )
    return parser


def main(argv=None):
    """Entry point: 10 SAT, 20 UNSAT, 0 unknown, 3 invalid input."""
    args = build_parser().parse_args(argv)
    try:
        cnf = read_dimacs(args.cnf)
    except (OSError, UnicodeDecodeError, DimacsError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID_INPUT
    try:
        check_limit("max_conflicts", args.max_conflicts, int)
        check_limit("conflict_limit", args.conflict_limit, int)
        budget = None
        if args.time_limit is not None:
            budget = Budget(time_limit=args.time_limit)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID_INPUT
    recorder = Recorder()
    recorder.meta.update({"tool": "repro-sat", "cnf": args.cnf})
    recorder.gauge("solver/kernel", propagate_kernel())
    max_conflicts = args.max_conflicts
    if args.conflict_limit is not None:
        max_conflicts = (
            args.conflict_limit if max_conflicts is None
            else min(max_conflicts, args.conflict_limit)
        )
    try:
        with maybe_profile(args.profile):
            code = _run(cnf, args, recorder, budget, max_conflicts)
        recorder.meta["exit_code"] = code
    finally:
        if args.stats_json:
            recorder.write_json(args.stats_json, budget=budget)
    return code


def _run(cnf, args, recorder, budget, max_conflicts):
    """Solve and report; returns the exit code."""
    wants_proof = bool(args.proof or args.trace or args.check)
    store = ProofStore(recorder=recorder) if wants_proof else None
    solver = Solver(proof=store, recorder=recorder, budget=budget)
    solver.ensure_vars(cnf.num_vars)
    for clause in cnf.clauses:
        if not solver.add_clause(clause):
            break
    try:
        result = solver.solve(
            assumptions=args.assume, max_conflicts=max_conflicts
        )
    except ValueError as exc:
        # A bad --assume list (literal 0, a repeated or complementary
        # variable) is bad usage, checked even when loading refuted.
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID_INPUT
    status = result.status
    if status is SAT:
        print("s SATISFIABLE")
        if not args.quiet:
            lits = [
                var if result.model_value(var) else -var
                for var in range(1, cnf.num_vars + 1)
            ]
            print("v %s 0" % " ".join(str(lit) for lit in lits))
        return EXIT_SAT
    if status is UNSAT:
        print("s UNSATISFIABLE")
        if args.assume and result.final_clause:
            print("c final clause: %s 0" % " ".join(
                str(lit) for lit in result.final_clause))
        if store is not None and not args.assume:
            to_write = store
            if not args.no_trim:
                to_write, _ = trim(store, recorder=recorder)
            if args.check:
                check_proof(to_write, axioms=cnf.clauses, recorder=recorder)
                print("c proof checked: OK")
            if args.proof:
                write_drup(to_write, args.proof)
            if args.trace:
                write_tracecheck(to_write, args.trace)
            if not args.quiet:
                stats = proof_stats(to_write)
                print(
                    "c proof: %d derived clauses, %d resolutions"
                    % (stats.num_derived, stats.num_resolutions)
                )
        return EXIT_UNSAT
    print("s UNKNOWN")
    return EXIT_SAT_UNKNOWN


if __name__ == "__main__":
    sys.exit(main())
