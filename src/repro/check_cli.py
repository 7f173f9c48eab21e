"""Command-line interface: ``repro-checkproof``.

A standalone proof checker in the spirit of TraceCheck: validates a
resolution trace, optionally against the DIMACS formula it claims to
refute::

    repro-checkproof trace.tc
    repro-checkproof trace.tc --cnf formula.cnf
    repro-checkproof trace.tc --cnf formula.cnf --rup

Exit codes: 0 = proof valid, 1 = invalid, 2 = undecided (check
abandoned under ``--time-limit``), 3 = invalid input (I/O or parse
error, or a negative or NaN ``--time-limit``).
"""

import sys
import time

from . import __version__
from .cnf.dimacs import DimacsError, read_dimacs
from .exit_codes import (
    EXIT_INVALID_INPUT,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_UNDECIDED,
    CliParser,
)
from .instrument import Budget, BudgetExhausted, Recorder
from .proof.checker import check_proof
from .proof.drup import check_rup_proof
from .proof.store import ProofError
from .proof.tracecheck import read_tracecheck


def build_parser():
    """Construct the argument parser (exposed for testing)."""
    parser = CliParser(
        prog="repro-checkproof",
        description="Independent resolution-trace checker (TraceCheck format)",
    )
    parser.add_argument(
        "--version", action="version", version="%(prog)s " + __version__,
    )
    parser.add_argument("trace", help="TraceCheck resolution trace")
    parser.add_argument(
        "--cnf",
        metavar="FILE",
        help="DIMACS formula the trace must refute (axioms are checked "
        "for membership)",
    )
    parser.add_argument(
        "--rup",
        action="store_true",
        help="additionally validate by reverse unit propagation",
    )
    parser.add_argument(
        "--lint",
        action="store_true",
        help="run the replay-free structural linter first and reject "
        "on error-severity findings before replaying (see repro-lint)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="no statistics output"
    )
    parser.add_argument(
        "--stats-json", metavar="PATH",
        help="write the run's repro-stats/1 JSON report to PATH",
    )
    parser.add_argument(
        "--time-limit", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget; an unfinished check reports UNDECIDED "
        "and exits 2 (invalid input exits 3)",
    )
    return parser


def main(argv=None):
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        budget = Budget(time_limit=args.time_limit) \
            if args.time_limit is not None else None
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID_INPUT
    recorder = Recorder()
    recorder.meta.update({"tool": "repro-checkproof", "trace": args.trace})
    try:
        code = _run(args, recorder, budget)
        recorder.meta["exit_code"] = code
    finally:
        if args.stats_json:
            recorder.write_json(args.stats_json, budget=budget)
    return code


def _run(args, recorder, budget):
    """Check the trace and report; returns the exit code."""
    with recorder.phase("check/read"):
        try:
            store, _ = read_tracecheck(args.trace)
        except (OSError, UnicodeDecodeError, ProofError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return EXIT_INVALID_INPUT
    axioms = None
    formula = None
    if args.cnf:
        try:
            formula = read_dimacs(args.cnf)
        except (OSError, UnicodeDecodeError, DimacsError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return EXIT_INVALID_INPUT
        axioms = formula.clauses
    if args.lint:
        from .analyze.proof_lint import lint_proof

        with recorder.phase("lint/proof"):
            findings = lint_proof(store, cnf=formula, require_empty=True)
        errors = [f for f in findings if f.severity == "error"]
        if errors:
            for finding in errors:
                print("INVALID (lint): %s" % finding.render())
            return EXIT_NEGATIVE
        if not args.quiet:
            print(
                "c lint clean: %d findings, none error-severity"
                % len(findings)
            )
    start = time.perf_counter()
    try:
        result = check_proof(
            store, axioms=axioms, require_empty=True, recorder=recorder,
            budget=budget,
        )
    except BudgetExhausted as exc:
        print("UNDECIDED: %s" % exc)
        return EXIT_UNDECIDED
    except ProofError as exc:
        print("INVALID: %s" % exc.render())
        return EXIT_NEGATIVE
    elapsed = time.perf_counter() - start
    if args.rup:
        try:
            check_rup_proof(store, axioms=axioms)
        except ProofError as exc:
            print("INVALID (RUP): %s" % exc.render())
            return EXIT_NEGATIVE
    print("VALID")
    if not args.quiet:
        print(
            "c %d axioms, %d derived clauses, %d resolutions, "
            "checked in %.3fs"
            % (
                result.num_axioms,
                result.num_derived,
                result.num_resolutions,
                elapsed,
            )
        )
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
