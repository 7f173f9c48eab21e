"""``repro-serve``: run the persistent CEC service.

Examples::

    repro-serve --listen 127.0.0.1:7711 --workers 4 --cache .cec-cache
    repro-serve --listen /tmp/cec.sock --time-limit 60 \\
        --stats-json server-stats.json

The server runs until SIGINT/SIGTERM or a client ``shutdown`` verb;
on exit it writes its ``repro-stats/1`` report (jobs, hit rate,
throughput) to ``--stats-json`` when given.

``--self-lint`` runs the ``repro.analyze`` concurrency-hazard and
schema-drift passes over the installed package before binding the
socket and refuses to start on any unwaived finding — a cheap guard
against deploying a build whose multi-process invariants have drifted.
"""

import signal
import sys
import threading

from .. import __version__
from ..exit_codes import EXIT_INVALID_INPUT, EXIT_NEGATIVE, EXIT_OK, CliParser
from ..instrument import Recorder, configure_logging, get_logger
from .server import CecServer

log = get_logger("service.serve")


def _self_lint():
    """Pre-flight: run the concurrency and schema-drift analyzers.

    Lints the installed ``repro`` package (the code that is about to
    serve requests, not the working tree) and returns ``EXIT_OK`` only
    when both passes are clean of unwaived findings.
    """
    from ..analyze.concurrency import lint_package as lint_concurrency
    from ..analyze.schema_drift import lint_package as lint_schema

    findings = list(lint_concurrency()) + list(lint_schema())
    for finding in findings:
        log.warning("self-lint: %s", finding.render())
    if findings:
        print(
            "repro-serve: self-lint found %d unwaived finding(s); "
            "refusing to start" % len(findings),
            file=sys.stderr,
        )
        return EXIT_NEGATIVE
    log.info("self-lint: concurrency and schema passes clean")
    return EXIT_OK


def build_parser():
    parser = CliParser(
        prog="repro-serve",
        description="Persistent combinational-equivalence-checking "
        "service with a job queue, worker pool, and structural-hash "
        "proof cache.",
    )
    parser.add_argument(
        "--version", action="version", version="%(prog)s " + __version__,
    )
    parser.add_argument(
        "--listen", default="127.0.0.1:7711", metavar="ADDR",
        help="host:port or Unix socket path (default %(default)s)",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes; 0 = in-process single worker "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=32, metavar="N",
        help="maximum queued+running jobs (default %(default)s)",
    )
    parser.add_argument(
        "--cache", metavar="DIR", default=None,
        help="proof-cache directory (omit to disable caching)",
    )
    parser.add_argument(
        "--retain-jobs", type=int, default=None, metavar="N",
        help="finished jobs kept in memory for late status/result "
        "queries before eviction (default 256)",
    )
    parser.add_argument(
        "--time-limit", type=float, default=None, metavar="SECONDS",
        help="default per-job wall-clock budget",
    )
    parser.add_argument(
        "--conflict-limit", type=int, default=None, metavar="N",
        help="default per-job solver conflict budget",
    )
    parser.add_argument(
        "--stats-json", metavar="PATH", default=None,
        help="write the server's repro-stats/1 report here on exit",
    )
    parser.add_argument(
        "--progress-interval", type=float, default=None, metavar="SECONDS",
        help="cadence of live repro-progress/1 heartbeats written by "
        "workers and served on the 'progress' verb (0 disables; "
        "default 0.25)",
    )
    parser.add_argument(
        "--metrics", metavar="ADDR", default=None,
        help="serve a Prometheus /metrics endpoint on this host:port "
        "(port 0 picks a free one; omit to disable)",
    )
    parser.add_argument(
        "--self-lint", action="store_true",
        help="run the concurrency-hazard and schema-drift analyzers "
        "over the installed repro package before serving; refuse to "
        "start on any unwaived finding",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit structured JSON log lines instead of plain text",
    )
    parser.add_argument(
        "--log-level", default="info", metavar="LEVEL",
        choices=("debug", "info", "warning", "error"),
        help="log verbosity (default %(default)s)",
    )
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    configure_logging(json_logs=args.log_json, level=args.log_level)
    for flag, value, floor in (
        ("--workers", args.workers, 0),
        ("--queue-limit", args.queue_limit, 1),
        ("--retain-jobs", args.retain_jobs, 0),
        ("--time-limit", args.time_limit, 0),
        ("--conflict-limit", args.conflict_limit, 0),
        ("--progress-interval", args.progress_interval, 0),
    ):
        if value is not None and not value >= floor:
            print("repro-serve: %s must be >= %d" % (flag, floor),
                  file=sys.stderr)
            return EXIT_INVALID_INPUT
    if args.self_lint:
        code = _self_lint()
        if code != EXIT_OK:
            return code
    recorder = Recorder()
    try:
        server = CecServer(
            args.listen,
            workers=args.workers,
            queue_limit=args.queue_limit,
            cache_dir=args.cache,
            default_time_limit=args.time_limit,
            default_conflict_limit=args.conflict_limit,
            recorder=recorder,
            retain_jobs=args.retain_jobs,
            metrics_address=args.metrics,
            progress_interval=args.progress_interval,
        )
    except (ValueError, OSError) as exc:
        print("repro-serve: %s" % exc, file=sys.stderr)
        return EXIT_INVALID_INPUT

    def _stop(signum, frame):
        # The handler runs on the main thread, which is inside
        # serve_forever(); BaseServer.shutdown() blocks until
        # serve_forever returns, so calling it here would deadlock.
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGINT, _stop)
    signal.signal(signal.SIGTERM, _stop)
    log.info(
        "repro-serve %s listening on %s (workers=%d, cache=%s)",
        __version__, server.address, args.workers, args.cache or "off",
    )
    if server.metrics_address is not None:
        log.info("metrics endpoint on http://%s/metrics",
                 server.metrics_address)
    try:
        server.serve_forever()
    finally:
        server.close()
        if args.stats_json:
            server.stats_report()
            recorder.write_json(args.stats_json)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
