"""Command-line interface: ``repro-cec``.

Check two AIGER files for combinational equivalence and optionally emit
the resolution proof::

    repro-cec a.aag b.aag --proof out.drup --engine sweep
    repro-cec a.aag b.aag --engine monolithic
    repro-cec a.aag b.aag --engine bdd
"""

import sys

from . import __version__
from .aig.aiger import read_auto
from .aig.miter import check_interface, match_interfaces_by_name
from .baselines.bdd_cec import bdd_check
from .baselines.monolithic import monolithic_check
from .core.cec import check_equivalence
from .core.certify import CertificationError, certify
from .core.fraig import SweepOptions
from .exit_codes import (
    EXIT_INVALID_INPUT,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_UNDECIDED,
    CliParser,
)
from .instrument import Budget, Recorder, maybe_profile
from .proof.drup import write_drup
from .proof.stats import proof_stats
from .proof.trim import trim


def build_parser():
    """Construct the argument parser (exposed for testing)."""
    parser = CliParser(
        prog="repro-cec",
        description="Combinational equivalence checking with resolution proofs",
    )
    parser.add_argument(
        "--version", action="version", version="%(prog)s " + __version__,
    )
    parser.add_argument("file_a", help="first circuit (AIGER .aag/.aig)")
    parser.add_argument("file_b", help="second circuit (AIGER .aag/.aig)")
    parser.add_argument(
        "--server",
        metavar="ADDR",
        help="route the check through a running repro-serve instance "
        "(host:port or Unix socket path) instead of checking locally; "
        "the returned certificate still honours --proof and --certify",
    )
    parser.add_argument(
        "--engine",
        choices=("sweep", "monolithic", "bdd", "bddsweep"),
        default="sweep",
        help="checking engine (default: proof-producing SAT sweeping)",
    )
    parser.add_argument(
        "--proof",
        metavar="FILE",
        help="write the (trimmed) resolution proof in DRUP format",
    )
    parser.add_argument(
        "--no-trim",
        action="store_true",
        help="emit the untrimmed proof",
    )
    parser.add_argument(
        "--certify",
        action="store_true",
        help="replay the proof with the independent checker before exiting",
    )
    parser.add_argument(
        "--lint",
        action="store_true",
        help="pre-flight the input netlists with the static linter "
        "(exit 3 on error findings) and, with --certify, lint the "
        "proof before replaying it (see repro-lint)",
    )
    parser.add_argument(
        "--sim-words",
        type=int,
        default=4,
        help="initial simulation words of 64 patterns (sweep engine)",
    )
    parser.add_argument(
        "--seed", type=int, default=2007, help="simulation seed"
    )
    parser.add_argument(
        "--per-output",
        action="store_true",
        help="report a verdict for every output pair individually",
    )
    parser.add_argument(
        "--match-names",
        action="store_true",
        help="match the circuits' interfaces by port names instead of "
        "position (sweep engine only; requires fully named ports)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress statistics output"
    )
    parser.add_argument(
        "--stats-json",
        metavar="PATH",
        help="write the run's repro-stats/1 JSON report (phase timings, "
        "counters, proof sizes, budget status) to PATH",
    )
    parser.add_argument(
        "--chrome-trace",
        metavar="PATH",
        help="record every phase as a span and write Chrome "
        "trace-event JSON to PATH (loadable in Perfetto / "
        "chrome://tracing); with --server, the stitched client/"
        "server/worker trace",
    )
    parser.add_argument(
        "--profile",
        metavar="PATH",
        help="profile the local run with cProfile and dump pstats data "
        "to PATH (see docs/instrumentation.md)",
    )
    parser.add_argument(
        "--time-limit",
        type=float,
        metavar="SECONDS",
        help="wall-clock budget; an undecided check exits 2 instead of "
        "running on (sweep/monolithic engines)",
    )
    parser.add_argument(
        "--conflict-limit",
        type=int,
        metavar="N",
        help="total SAT-conflict budget across the whole run "
        "(sweep/monolithic engines)",
    )
    return parser


def main(argv=None):
    """CLI entry point. Returns the process exit code.

    Exit codes: 0 = equivalent, 1 = not equivalent, 2 = undecided
    (budget exhausted or engine gave up), 3 = invalid input (missing or
    malformed files, lint-rejected netlists, bad flag values or
    combinations).
    """
    args = build_parser().parse_args(argv)
    if args.server:
        return _run_remote(args)
    try:
        aig_a = read_auto(args.file_a)
        aig_b = read_auto(args.file_b)
        check_interface(aig_a, aig_b)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID_INPUT
    # Bad flag values are invalid input whichever engine runs.
    try:
        options = SweepOptions(sim_words=args.sim_words, seed=args.seed)
        budget = None
        if args.time_limit is not None or args.conflict_limit is not None:
            budget = Budget(
                time_limit=args.time_limit, conflict_limit=args.conflict_limit
            )
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID_INPUT
    recorder = Recorder()
    recorder.meta.update({
        "tool": "repro-cec",
        "engine": args.engine,
        "file_a": args.file_a,
        "file_b": args.file_b,
    })
    if args.chrome_trace:
        recorder.start_trace()
    try:
        with maybe_profile(args.profile):
            code = _dispatch(aig_a, aig_b, args, options, recorder, budget)
        recorder.meta["exit_code"] = code
    finally:
        if args.stats_json:
            recorder.write_json(args.stats_json, budget=budget)
        if args.chrome_trace:
            _write_chrome_trace(args.chrome_trace, recorder.trace_report())
    return code


def _write_chrome_trace(path, trace_document):
    """Export *trace_document* (repro-trace/1) as Chrome trace JSON."""
    import json

    from .instrument import to_chrome_trace

    if trace_document is None:
        return
    with open(path, "w") as handle:
        json.dump(to_chrome_trace(trace_document), handle, sort_keys=True)
        handle.write("\n")


def _to_aag_text(aig):
    """Serialize *aig* as ASCII AIGER text for the service wire."""
    import io

    from .aig.aiger import write_aag

    buffer = io.StringIO()
    write_aag(aig, buffer)
    return buffer.getvalue()


def _run_remote(args):
    """Route the check through a running repro-serve (``--server``)."""
    from .core.serialize import ResultFormatError
    from .service.client import ServiceClient, ServiceError
    from .service.protocol import ProtocolError

    unsupported = []
    if args.engine != "sweep":
        unsupported.append("--engine %s" % args.engine)
    if args.per_output:
        unsupported.append("--per-output")
    if args.match_names:
        unsupported.append("--match-names")
    if unsupported:
        print(
            "error: %s not supported with --server"
            % ", ".join(unsupported),
            file=sys.stderr,
        )
        return EXIT_INVALID_INPUT
    # Parse locally via read_auto (which handles binary .aig too) and
    # re-emit canonical ASCII AIGER for the wire, so --server accepts
    # exactly the same inputs as a local run.
    try:
        aig_a = read_auto(args.file_a)
        aig_b = read_auto(args.file_b)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID_INPUT
    try:
        client = ServiceClient(args.server)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID_INPUT
    trace_recorder = Recorder() if args.chrome_trace else None
    try:
        with client:
            result, response = client.check(
                _to_aag_text(aig_a), _to_aag_text(aig_b),
                recorder=trace_recorder,
                options={"sim_words": args.sim_words, "seed": args.seed},
                time_limit=args.time_limit,
                conflict_limit=args.conflict_limit,
                lint=args.lint,
            )
    except ServiceError as exc:
        print("error: server: %s" % exc, file=sys.stderr)
        return (EXIT_INVALID_INPUT if exc.code == "bad-input"
                else EXIT_UNDECIDED)
    except ResultFormatError as exc:
        print("certificate INVALID: %s" % exc, file=sys.stderr)
        return EXIT_INVALID_INPUT
    except OSError as exc:
        print(
            "error: cannot reach server %s: %s" % (args.server, exc),
            file=sys.stderr,
        )
        return EXIT_INVALID_INPUT
    except ProtocolError as exc:
        print(
            "error: %s is not a CEC server: %s" % (args.server, exc),
            file=sys.stderr,
        )
        return EXIT_INVALID_INPUT
    if args.chrome_trace:
        _write_chrome_trace(args.chrome_trace, response.get("trace"))
    if not args.quiet and response.get("cached"):
        print("c served from proof cache (job %s)" % response.get("job"))
    if args.certify and result.equivalent is not None:
        # The served certificate must answer this pair: a cache hit
        # can hand back any document.
        code = _certify(result, (aig_a, aig_b), args)
        if code is not None:
            return code
    if args.stats_json:
        import json

        stats = response.get("worker_stats") or response.get("job_stats")
        with open(args.stats_json, "w") as handle:
            json.dump(stats, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return _report(
        result.equivalent, result.counterexample, result.proof,
        result.cnf, args,
    )


def _dispatch(aig_a, aig_b, args, options, recorder, budget):
    """Run the selected engine and report; returns the exit code."""
    if args.lint:
        code = _preflight_lint(aig_a, aig_b, args, recorder)
        if code is not None:
            return code
    if args.engine == "bdd":
        return _run_bdd(aig_a, aig_b, args)
    if args.engine == "bddsweep":
        return _run_bdd_sweep(aig_a, aig_b, args)
    if args.engine == "monolithic":
        result = monolithic_check(
            aig_a, aig_b, proof=True, recorder=recorder, budget=budget
        )
    else:
        if args.match_names:
            try:
                aig_b = match_interfaces_by_name(aig_a, aig_b)
            except ValueError as exc:
                print("error: %s" % exc, file=sys.stderr)
                return EXIT_INVALID_INPUT
        if args.per_output:
            return _run_per_output(aig_a, aig_b, options, recorder, budget)
        result = check_equivalence(
            aig_a, aig_b, options, recorder=recorder, budget=budget
        )
    if args.certify and result.equivalent is not None:
        code = _certify(result, (aig_a, aig_b), args)
        if code is not None:
            return code
    return _report(
        result.equivalent, result.counterexample, result.proof,
        result.cnf, args, recorder=recorder, budget=budget,
    )


def _certify(result, pair, args):
    """``--certify``: check *result*'s certificate against *pair*;
    returns the exit code when it is rejected, else None."""
    try:
        certify(result, lint=args.lint, pair=pair)
    except CertificationError as exc:
        print("certificate INVALID: %s" % exc, file=sys.stderr)
        return EXIT_INVALID_INPUT
    if not args.quiet:
        print("certified: %s" % (
            "proof replayed successfully" if result.equivalent
            else "counterexample separates the circuits"
        ))
    return None


def _preflight_lint(aig_a, aig_b, args, recorder):
    """Lint both netlists; exit 3 (invalid input) on errors, else None."""
    from .analyze.aig_lint import lint_aig

    with recorder.phase("lint/aig"):
        findings = lint_aig(aig_a, name=args.file_a) \
            + lint_aig(aig_b, name=args.file_b)
    errors = [f for f in findings if f.severity == "error"]
    for finding in errors:
        print("lint: %s" % finding.render(), file=sys.stderr)
    if errors:
        print(
            "error: input netlists failed lint (%d errors)" % len(errors),
            file=sys.stderr,
        )
        return EXIT_INVALID_INPUT
    if not args.quiet:
        print("c lint clean: both netlists well-formed")
    return None


def _run_bdd_sweep(aig_a, aig_b, args):
    from .baselines.bdd_sweep import bdd_sweep_check

    result = bdd_sweep_check(aig_a, aig_b)
    if result.equivalent is None:
        print("UNDECIDED (BDD node budget exceeded)")
        return EXIT_UNDECIDED
    if result.equivalent:
        if not args.quiet:
            print(
                "c %d merged nodes, %d BDD nodes"
                % (result.merged_nodes, result.bdd_nodes)
            )
        print("EQUIVALENT (no proof artifact from the BDD-sweep engine)")
        return EXIT_OK
    print("NOT EQUIVALENT")
    print(
        "counterexample: %s" % "".join(str(b) for b in result.counterexample)
    )
    return EXIT_NEGATIVE


def _run_per_output(aig_a, aig_b, options, recorder=None, budget=None):
    from .core.outputs import check_outputs

    report = check_outputs(
        aig_a, aig_b, options, recorder=recorder, budget=budget
    )
    for verdict in report.verdicts:
        label = verdict.name or ("output %d" % verdict.index)
        if verdict.equivalent is True:
            print("  %-16s EQUIVALENT" % label)
        elif verdict.equivalent is False:
            print(
                "  %-16s DIFFERS (cex %s)"
                % (
                    label,
                    "".join(str(b) for b in verdict.counterexample),
                )
            )
        else:
            print("  %-16s UNDECIDED" % label)
    if report.equivalent:
        print("EQUIVALENT")
        return EXIT_OK
    failing = report.failing()
    if not failing:
        print("UNDECIDED (some outputs unresolved under the budget)")
        return EXIT_UNDECIDED
    print("NOT EQUIVALENT (%d outputs differ)" % len(failing))
    return EXIT_NEGATIVE


def _run_bdd(aig_a, aig_b, args):
    result = bdd_check(aig_a, aig_b)
    if result.equivalent is None:
        print("UNDECIDED (BDD node budget exceeded)")
        return EXIT_UNDECIDED
    if result.equivalent:
        print("EQUIVALENT (no proof artifact from the BDD engine)")
        return EXIT_OK
    print("NOT EQUIVALENT")
    print("counterexample: %s" % "".join(str(b) for b in result.counterexample))
    return EXIT_NEGATIVE


def _report(equivalent, counterexample, proof, cnf, args, recorder=None,
            budget=None):
    if equivalent is None:
        reason = budget.exhausted_reason() if budget is not None else None
        if reason is not None:
            print("UNDECIDED (budget exhausted: %s)" % reason)
        else:
            print("UNDECIDED")
        return EXIT_UNDECIDED
    if not equivalent:
        print("NOT EQUIVALENT")
        print(
            "counterexample: %s" % "".join(str(b) for b in counterexample)
        )
        return EXIT_NEGATIVE
    print("EQUIVALENT")
    if proof is not None and not args.quiet:
        stats = proof_stats(proof)
        print(
            "proof: %d clauses (%d axioms, %d derived), %d resolutions"
            % (
                stats.num_clauses,
                stats.num_axioms,
                stats.num_derived,
                stats.num_resolutions,
            )
        )
    if args.proof and proof is not None:
        to_write = proof
        if not args.no_trim:
            to_write, _ = trim(proof, recorder=recorder)
        write_drup(to_write, args.proof)
        if not args.quiet:
            print("proof written to %s" % args.proof)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
