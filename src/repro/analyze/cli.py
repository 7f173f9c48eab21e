"""Command-line interface: ``repro-lint``.

Run the static analysis passes over proofs, netlists, or the codebase::

    repro-lint proof trace.tc --cnf formula.cnf
    repro-lint proof refutation.drup --format drup
    repro-lint aig a.aag b.aag
    repro-lint miter a.aag b.aag
    repro-lint code
    repro-lint concurrency src/repro
    repro-lint schema src/repro

Every run prints its findings (one line each, ``[rule] severity:
message``), a summary, and optionally writes the full ``repro-lint/1``
JSON report with ``--json``. ``code`` runs every codebase pass (AST
rules, concurrency hazards, schema drift); ``concurrency`` and
``schema`` run one pass alone.

Exit codes follow :mod:`repro.exit_codes`: 0 = no error-severity
findings, 1 = error findings, 3 = invalid input (I/O or usage error,
including unparseable command lines).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from .. import __version__
from ..cnf.clause import CNF
from ..cnf.dimacs import DimacsError, read_dimacs
from ..exit_codes import EXIT_INVALID_INPUT, EXIT_NEGATIVE, EXIT_OK, CliParser
from ..cnf.tseitin import tseitin_encode
from .aig_lint import lint_aig, lint_encoding, lint_miter
from .ast_rules import lint_package
from .findings import Finding, LintReport
from .proof_lint import (
    DEFAULT_FINDING_LIMIT,
    lint_drup_file,
    lint_tracecheck_file,
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", metavar="PATH",
        help="write the repro-lint/1 JSON report to PATH",
    )
    common.add_argument(
        "--quiet", action="store_true",
        help="print only error-severity findings",
    )
    common.add_argument(
        "--max-findings", type=int, default=DEFAULT_FINDING_LIMIT,
        metavar="N",
        help="cap error/warning findings per pass (default %d)"
        % DEFAULT_FINDING_LIMIT,
    )
    parser = CliParser(
        prog="repro-lint",
        description="Static proof, netlist, and codebase linting",
    )
    parser.add_argument(
        "--version", action="version", version="%(prog)s " + __version__,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    proof = sub.add_parser(
        "proof", parents=[common],
        help="lint a resolution proof without replaying it",
    )
    proof.add_argument("trace", help="proof file (TraceCheck or DRUP)")
    proof.add_argument(
        "--cnf", metavar="FILE",
        help="DIMACS formula the proof claims to refute (enables axiom "
        "membership and variable-bound checks)",
    )
    proof.add_argument(
        "--format", choices=("tracecheck", "drup"), default="tracecheck",
        help="proof file format (default: tracecheck)",
    )
    proof.add_argument(
        "--allow-no-refutation", action="store_true",
        help="do not require the proof to derive the empty clause",
    )
    aig = sub.add_parser(
        "aig", parents=[common], help="lint AIGER netlists",
    )
    aig.add_argument("files", nargs="+", help="AIGER files (.aag/.aig)")
    miter = sub.add_parser(
        "miter", parents=[common],
        help="build the miter of two circuits and lint it plus its "
        "Tseitin encoding",
    )
    miter.add_argument("file_a", help="first circuit (AIGER)")
    miter.add_argument("file_b", help="second circuit (AIGER)")
    miter.add_argument(
        "--match-names", action="store_true",
        help="match interfaces by port names instead of position",
    )
    code = sub.add_parser(
        "code", parents=[common],
        help="run every codebase pass (AST rules, concurrency hazards, "
        "schema drift) over Python sources",
    )
    code.add_argument(
        "path", nargs="?", default=None,
        help="package directory (default: the installed repro package)",
    )
    concurrency = sub.add_parser(
        "concurrency", parents=[common],
        help="run the concurrency-hazard rules over Python sources",
    )
    concurrency.add_argument(
        "path", nargs="?", default=None,
        help="package directory (default: the installed repro package)",
    )
    schema = sub.add_parser(
        "schema", parents=[common],
        help="run the schema-drift rules against the declarative "
        "registry (repro.analyze.schemas)",
    )
    schema.add_argument(
        "path", nargs="?", default=None,
        help="package directory (default: the installed repro package)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point. Returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # CliParser exits 3 on usage errors and 0 on --help/--version;
        # return the code rather than raise it.
        return EXIT_OK if not exc.code else EXIT_INVALID_INPUT
    report = LintReport()
    report.meta["tool"] = "repro-lint"
    report.meta["command"] = args.command
    try:
        if args.command == "proof":
            _run_proof(args, report)
        elif args.command == "aig":
            _run_aig(args, report)
        elif args.command == "miter":
            _run_miter(args, report)
        elif args.command == "concurrency":
            _run_concurrency(args, report)
        elif args.command == "schema":
            _run_schema(args, report)
        else:
            _run_code(args, report)
    except (OSError, DimacsError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID_INPUT
    for finding in report.findings:
        if args.quiet and finding.severity != "error":
            continue
        print(finding.render())
    summary = report.summary()
    print(
        "repro-lint: %d errors, %d warnings, %d info"
        % (summary["error"], summary["warning"], summary["info"])
    )
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.report(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    return EXIT_OK if report.ok() else EXIT_NEGATIVE


def _run_proof(args: argparse.Namespace, report: LintReport) -> None:
    cnf: Optional[CNF] = None
    start = time.perf_counter()
    if args.cnf:
        cnf = read_dimacs(args.cnf)
        report.meta["cnf"] = args.cnf
    report.meta["proof"] = args.trace
    report.meta["format"] = args.format
    if args.format == "drup":
        findings = lint_drup_file(
            args.trace, cnf=cnf, limit=args.max_findings,
        )
    else:
        findings = lint_tracecheck_file(
            args.trace, cnf=cnf,
            require_empty=not args.allow_no_refutation,
            limit=args.max_findings,
        )
    report.extend("proof", findings, time.perf_counter() - start)


def _run_aig(args: argparse.Namespace, report: LintReport) -> None:
    from ..aig.aiger import read_auto

    report.meta["files"] = list(args.files)
    start = time.perf_counter()
    findings: List[Finding] = []
    for path in args.files:
        findings.extend(lint_aig(read_auto(path), name=path))
    report.extend("aig", findings, time.perf_counter() - start)


def _run_miter(args: argparse.Namespace, report: LintReport) -> None:
    from ..aig.aiger import read_auto
    from ..aig.miter import build_miter

    report.meta["files"] = [args.file_a, args.file_b]
    start = time.perf_counter()
    miter = build_miter(
        read_auto(args.file_a), read_auto(args.file_b),
        match_names=args.match_names,
    )
    report.extend("aig", lint_miter(miter), time.perf_counter() - start)
    start = time.perf_counter()
    encoding = tseitin_encode(miter.aig)
    report.extend(
        "cnf", lint_encoding(miter.aig, encoding),
        time.perf_counter() - start,
    )


def _run_code(args: argparse.Namespace, report: LintReport) -> None:
    start = time.perf_counter()
    report.meta["path"] = args.path or "repro"
    report.extend(
        "code", lint_package(args.path), time.perf_counter() - start,
    )
    _run_concurrency(args, report)
    _run_schema(args, report)


def _run_concurrency(args: argparse.Namespace, report: LintReport) -> None:
    from .concurrency import lint_package as lint_concurrency

    start = time.perf_counter()
    report.meta["path"] = args.path or "repro"
    report.extend(
        "concurrency", lint_concurrency(args.path),
        time.perf_counter() - start,
    )


def _run_schema(args: argparse.Namespace, report: LintReport) -> None:
    from .schema_drift import lint_package as lint_schema

    start = time.perf_counter()
    report.meta["path"] = args.path or "repro"
    report.extend(
        "schema", lint_schema(args.path), time.perf_counter() - start,
    )


if __name__ == "__main__":
    sys.exit(main())
