"""``repro-client``: command-line client for a running ``repro-serve``.

Verbs mirror the wire protocol::

    repro-client --server 127.0.0.1:7711 ping
    repro-client --server ADDR submit a.aag b.aag --wait --certify
    repro-client --server ADDR status j000001
    repro-client --server ADDR result j000001 --wait --stats-json job.json
    repro-client --server ADDR cancel j000001
    repro-client --server ADDR stats
    repro-client --server ADDR shutdown

``submit --wait`` prints the verdict like ``repro-cec`` and exits with
the same codes: 0 equivalent, 1 not equivalent, 2 undecided,
3 invalid input. ``--certify-local`` replays the returned certificate
on the client, against the submitted pair, before trusting the verdict.
"""

import io
import json
import sys
import time

from .. import __version__
from ..aig.aiger import read_aag
from ..core.certify import CertificationError, certify
from ..core.serialize import ResultFormatError, result_from_dict
from ..exit_codes import (
    EXIT_INVALID_INPUT,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_UNDECIDED,
    CliParser,
)
from ..instrument import Recorder, to_chrome_trace
from ..instrument.progress import format_heartbeat
from .client import ServiceClient, ServiceError
from .jobs import TERMINAL_STATES
from .protocol import ProtocolError


def build_parser():
    parser = CliParser(
        prog="repro-client",
        description="Client for the repro-serve equivalence-checking "
        "service.",
    )
    parser.add_argument(
        "--version", action="version", version="%(prog)s " + __version__,
    )
    parser.add_argument(
        "--server", required=True, metavar="ADDR",
        help="host:port or Unix socket path of a running repro-serve",
    )
    parser.add_argument(
        "--timeout", type=float, default=60.0, metavar="SECONDS",
        help="socket read timeout (default %(default)s)",
    )
    parser.add_argument(
        "--retries", type=int, default=3, metavar="N",
        help="connection retries with backoff (default %(default)s)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("ping", help="check liveness and server version")

    submit = sub.add_parser("submit", help="submit an equivalence check")
    submit.add_argument("aag_a", help="first circuit (.aag)")
    submit.add_argument("aag_b", help="second circuit (.aag)")
    submit.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes and print the verdict",
    )
    submit.add_argument(
        "--certify", action="store_true",
        help="ask the server to replay the proof before answering",
    )
    submit.add_argument(
        "--certify-local", action="store_true",
        help="with --wait: replay the returned certificate client-side",
    )
    submit.add_argument(
        "--time-limit", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock budget",
    )
    submit.add_argument(
        "--conflict-limit", type=int, default=None, metavar="N",
        help="per-job solver conflict budget",
    )
    submit.add_argument(
        "--option", action="append", default=[], metavar="NAME=VALUE",
        help="engine option (SweepOptions field), repeatable",
    )
    submit.add_argument(
        "--stats-json", metavar="PATH", default=None,
        help="with --wait: write the job's stats blocks here",
    )
    submit.add_argument(
        "--trace-json", metavar="PATH", default=None,
        help="with --wait: write the job's stitched repro-trace/1 "
        "document here",
    )
    submit.add_argument(
        "--trace-chrome", metavar="PATH", default=None,
        help="with --wait: write the trace as Chrome trace-event JSON "
        "(loadable in Perfetto / chrome://tracing)",
    )

    status = sub.add_parser("status", help="query a job's state")
    status.add_argument("job", help="job id from submit")
    status.add_argument(
        "--follow", action="store_true",
        help="stream live repro-progress/1 heartbeats until the job "
        "is terminal (needs a server started with progress enabled)",
    )
    status.add_argument(
        "--interval", type=float, default=0.5, metavar="SECONDS",
        help="with --follow: poll cadence (default %(default)s)",
    )

    result = sub.add_parser("result", help="fetch a job's result")
    result.add_argument("job", help="job id from submit")
    result.add_argument(
        "--wait", action="store_true", help="block until terminal",
    )
    result.add_argument(
        "--wait-timeout", type=float, default=None, metavar="SECONDS",
        help="give up waiting after this long (job keeps running)",
    )
    result.add_argument(
        "--stats-json", metavar="PATH", default=None,
        help="write the job's stats blocks here",
    )
    result.add_argument(
        "--trace-json", metavar="PATH", default=None,
        help="write the job's repro-trace/1 document here",
    )
    result.add_argument(
        "--trace-chrome", metavar="PATH", default=None,
        help="write the trace as Chrome trace-event JSON",
    )

    cancel = sub.add_parser("cancel", help="cancel a queued job")
    cancel.add_argument("job", help="job id from submit")

    cache = sub.add_parser(
        "cache",
        help="proof-cache statistics, or a direct key probe/fetch",
    )
    cache.add_argument(
        "key", nargs="?", default=None,
        help="cache key (pair_key hex) to probe; omit for statistics",
    )
    cache.add_argument(
        "--get", metavar="PATH", default=None,
        help="with KEY: fetch the stored result document to PATH",
    )
    cache.add_argument(
        "--json", action="store_true", dest="cache_json",
        help="print the raw response as JSON",
    )

    sub.add_parser("stats", help="print the server's stats report")
    metrics = sub.add_parser(
        "metrics", help="print the server's metrics (Prometheus text)",
    )
    metrics.add_argument(
        "--json", action="store_true", dest="metrics_json",
        help="print the repro-metrics/1 document instead",
    )
    sub.add_parser("shutdown", help="stop the server")
    return parser


def _parse_options(pairs):
    options = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep:
            raise ValueError("--option needs NAME=VALUE, got %r" % pair)
        options[name] = json.loads(value)
    return options


def _print_heartbeat(update):
    progress = update.get("progress")
    if isinstance(progress, dict):
        print("... %s" % format_heartbeat(progress), file=sys.stderr)
        return
    print("... job %s %s (%.1fs)" % (
        update.get("job"), update.get("state"),
        update.get("elapsed_seconds", 0.0),
    ), file=sys.stderr)


def _follow_status(client, job_id, interval):
    """``status --follow``: stream each new heartbeat until terminal.

    Deduplicates on the heartbeat sequence number so a poll cadence
    faster than the server's progress interval never repeats lines.
    """
    last_seq = None
    while True:
        response = client.progress(job_id)
        progress = response.get("progress")
        if isinstance(progress, dict) and progress.get("seq") != last_seq:
            last_seq = progress.get("seq")
            print(format_heartbeat(progress), file=sys.stderr)
        if response.get("state") in TERMINAL_STATES:
            print(json.dumps(
                {key: response.get(key) for key in (
                    "job", "state", "cached", "verdict", "error",
                    "elapsed_seconds",
                )},
                indent=2, sort_keys=True,
            ))
            return EXIT_OK
        time.sleep(interval)


def _write_stats(path, response):
    with open(path, "w") as handle:
        json.dump(
            {
                "job": response.get("job"),
                "cached": response.get("cached"),
                "job_stats": response.get("job_stats"),
                "worker_stats": response.get("worker_stats"),
            },
            handle, indent=2, sort_keys=True,
        )
        handle.write("\n")


def _write_trace_outputs(trace_json, trace_chrome, response):
    trace = response.get("trace")
    if trace is None:
        if trace_json or trace_chrome:
            print("repro-client: no trace on this result",
                  file=sys.stderr)
        return
    if trace_json:
        with open(trace_json, "w") as handle:
            json.dump(trace, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if trace_chrome:
        with open(trace_chrome, "w") as handle:
            json.dump(to_chrome_trace(trace), handle, sort_keys=True)
            handle.write("\n")


def _finish(response, stats_json, pair=None):
    """Common tail of submit --wait / result: print verdict, exit code.

    With *pair*, the submitted ``(aig_a, aig_b)``, the returned
    certificate is checked locally against it first (--certify-local).
    """
    if stats_json:
        _write_stats(stats_json, response)
    verdict = response.get("verdict")
    cached = " (cached)" if response.get("cached") else ""
    if pair is not None:
        try:
            result = result_from_dict(response["result"])
        except ResultFormatError as exc:
            print("certificate INVALID: %s" % exc, file=sys.stderr)
            return EXIT_INVALID_INPUT
        if result.equivalent is not None:
            try:
                certify(result, pair=pair)
            except CertificationError as exc:
                print("certificate INVALID: %s" % exc, file=sys.stderr)
                return EXIT_INVALID_INPUT
            print("certificate OK%s" % cached)
    if verdict == "equivalent":
        print("EQUIVALENT%s" % cached)
        return EXIT_OK
    if verdict == "not_equivalent":
        result_doc = response.get("result") or {}
        cex = result_doc.get("counterexample")
        print("NOT EQUIVALENT%s" % cached)
        if cex is not None:
            print("counterexample: %s" % "".join(str(b) for b in cex))
        return EXIT_NEGATIVE
    print("UNDECIDED%s" % cached)
    return EXIT_UNDECIDED


def _run_cache(client, args):
    """The ``cache`` subcommand: stats, key probe, or document fetch.

    Speaks the same ``repro-fleet/1`` verbs the router's cross-shard
    fetch uses, so what an operator sees here is exactly what a peer
    shard would be served.
    """
    if args.key is None:
        response = client.cache_stats()
        if args.cache_json:
            print(json.dumps(response, indent=2, sort_keys=True))
        else:
            print("entries=%d hits=%d misses=%d stores=%d" % (
                response.get("entries", 0), response.get("hits", 0),
                response.get("misses", 0), response.get("stores", 0),
            ))
        return EXIT_OK
    if args.get:
        result, meta = client.cache_get(args.key)
        if result is None:
            print("cache miss: %s" % args.key, file=sys.stderr)
            return EXIT_NEGATIVE
        with open(args.get, "w") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("cache hit: %s (verdict %s) written to %s" % (
            args.key, (meta or {}).get("verdict"), args.get,
        ))
        return EXIT_OK
    found, meta = client.cache_probe(args.key)
    if args.cache_json:
        print(json.dumps(
            {"key": args.key, "found": found, "meta": meta},
            indent=2, sort_keys=True,
        ))
    elif found:
        print("cache hit: %s (verdict %s)" % (
            args.key, (meta or {}).get("verdict"),
        ))
    else:
        print("cache miss: %s" % args.key)
    return EXIT_OK if found else EXIT_NEGATIVE


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "status" and args.follow and not args.interval > 0:
        print("repro-client: --interval must be > 0", file=sys.stderr)
        return EXIT_INVALID_INPUT
    try:
        client = ServiceClient(
            args.server, timeout=args.timeout, retries=args.retries,
        )
    except ValueError as exc:
        print("repro-client: %s" % exc, file=sys.stderr)
        return EXIT_INVALID_INPUT
    try:
        with client:
            return _run(client, args)
    except ServiceError as exc:
        print("repro-client: server error: %s" % exc, file=sys.stderr)
        if exc.code == "bad-input":
            return EXIT_INVALID_INPUT
        return EXIT_INVALID_INPUT if exc.code in (
            "invalid-request", "unknown-job",
        ) else EXIT_UNDECIDED
    except OSError as exc:
        print("repro-client: cannot reach %s: %s"
              % (args.server, exc), file=sys.stderr)
        return EXIT_INVALID_INPUT
    except ProtocolError as exc:
        print("repro-client: error: %s is not a CEC server: %s"
              % (args.server, exc), file=sys.stderr)
        return EXIT_INVALID_INPUT


def _run(client, args):
    if args.command == "ping":
        started = time.perf_counter()
        response = client.ping()
        rtt_ms = (time.perf_counter() - started) * 1000.0
        print("repro-serve %s (%s) rtt=%.2fms" % (
            response.get("version"), response.get("protocol"), rtt_ms,
        ))
        return EXIT_OK
    if args.command == "submit":
        try:
            with open(args.aag_a) as handle:
                aag_a = handle.read()
            with open(args.aag_b) as handle:
                aag_b = handle.read()
            options = _parse_options(args.option)
            pair = (
                (read_aag(io.StringIO(aag_a)), read_aag(io.StringIO(aag_b)))
                if args.certify_local else None
            )
        except (OSError, ValueError) as exc:
            print("repro-client: %s" % exc, file=sys.stderr)
            return EXIT_INVALID_INPUT
        traced = bool(args.trace_json or args.trace_chrome)
        if traced and not args.wait:
            print("repro-client: --trace-json/--trace-chrome require "
                  "--wait", file=sys.stderr)
            return EXIT_INVALID_INPUT
        if traced:
            # check() opens a client-side trace, threads it through the
            # server, and merges the stitched trace into the response.
            _, response = client.check(
                aag_a, aag_b, on_update=_print_heartbeat,
                recorder=Recorder(), options=options,
                time_limit=args.time_limit,
                conflict_limit=args.conflict_limit,
                certify=args.certify,
            )
            _write_trace_outputs(
                args.trace_json, args.trace_chrome, response
            )
            return _finish(response, args.stats_json, pair)
        submitted = client.submit(
            aag_a, aag_b, options=options,
            time_limit=args.time_limit,
            conflict_limit=args.conflict_limit,
            certify=args.certify,
        )
        if not args.wait:
            print(submitted["job"])
            return EXIT_OK
        response = client.result(
            submitted["job"], wait=True, on_update=_print_heartbeat,
        )
        return _finish(response, args.stats_json, pair)
    if args.command == "status":
        if args.follow:
            return _follow_status(client, args.job, args.interval)
        response = client.status(args.job)
        print(json.dumps(
            {key: response.get(key) for key in (
                "job", "state", "cached", "verdict", "error",
                "elapsed_seconds",
            )},
            indent=2, sort_keys=True,
        ))
        return EXIT_OK
    if args.command == "result":
        response = client.result(
            args.job, wait=args.wait, timeout=args.wait_timeout,
            on_update=_print_heartbeat,
        )
        _write_trace_outputs(
            args.trace_json, args.trace_chrome, response
        )
        if response.get("state") not in ("done",):
            print(json.dumps(
                {key: response.get(key) for key in (
                    "job", "state", "verdict", "error",
                )},
                indent=2, sort_keys=True,
            ))
            return EXIT_UNDECIDED
        return _finish(response, args.stats_json)
    if args.command == "cancel":
        response = client.cancel(args.job)
        print("cancelled" if response.get("cancelled")
              else "not cancelled (state: %s)" % response.get("state"))
        return EXIT_OK if response.get("cancelled") else EXIT_NEGATIVE
    if args.command == "cache":
        return _run_cache(client, args)
    if args.command == "stats":
        print(json.dumps(client.stats(), indent=2, sort_keys=True))
        return EXIT_OK
    if args.command == "metrics":
        document, prometheus = client.metrics()
        if args.metrics_json:
            print(json.dumps(document, indent=2, sort_keys=True))
        else:
            sys.stdout.write(prometheus)
        return EXIT_OK
    # shutdown
    client.shutdown()
    print("server shutting down")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
