"""``repro-router``: run the fleet front door over repro-serve shards.

Examples::

    repro-router --listen 127.0.0.1:7700 \\
        --shard 127.0.0.1:7711 --shard 127.0.0.1:7712 \\
        --metrics 127.0.0.1:9200

    repro-router --listen /tmp/cec-router.sock \\
        --shard /tmp/cec-a.sock --shard /tmp/cec-b.sock

Clients talk to the router exactly as they would to one
``repro-serve`` (``repro-client --connect 127.0.0.1:7700 ...``); the
router consistent-hashes each submit onto its shards, brokers
cross-shard proof-cache transfers, and keeps the hash ring aligned
with shard health. The process runs until SIGINT/SIGTERM or a client
``shutdown`` verb and then writes its ``repro-stats/1`` report to
``--stats-json`` when given.
"""

import asyncio
import signal
import sys

from .. import __version__
from ..exit_codes import EXIT_INVALID_INPUT, EXIT_OK, CliParser
from ..instrument import Recorder, configure_logging, get_logger
from .ring import DEFAULT_REPLICAS
from .router import (
    DEFAULT_DOWN_AFTER,
    DEFAULT_HEALTH_INTERVAL,
    DEFAULT_SHARD_TIMEOUT,
    FleetRouter,
)

log = get_logger("fleet.serve")


def build_parser():
    parser = CliParser(
        prog="repro-router",
        description="Consistent-hash router fronting a fleet of "
        "repro-serve shards, with cross-shard proof-cache transfers "
        "and health-based ring rebalancing.",
    )
    parser.add_argument(
        "--listen", required=True, metavar="ADDR",
        help="address to serve clients on (host:port or socket path)",
    )
    parser.add_argument(
        "--shard", action="append", required=True, metavar="ADDR",
        dest="shards",
        help="backend repro-serve address (repeat once per shard)",
    )
    parser.add_argument(
        "--replicas", type=int, default=DEFAULT_REPLICAS, metavar="N",
        help="ring points per shard (default %(default)s; every router "
        "of a fleet must agree)",
    )
    parser.add_argument(
        "--health-interval", type=float,
        default=DEFAULT_HEALTH_INTERVAL, metavar="SECONDS",
        help="seconds between background shard pings "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--down-after", type=int, default=DEFAULT_DOWN_AFTER,
        metavar="N",
        help="consecutive failures before a shard leaves the ring "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--timeout", type=float, default=DEFAULT_SHARD_TIMEOUT,
        metavar="SECONDS",
        help="per-line timeout talking to a shard (default %(default)s)",
    )
    parser.add_argument(
        "--metrics", metavar="HOST:PORT",
        help="serve Prometheus /metrics on this address",
    )
    parser.add_argument(
        "--stats-json", metavar="PATH",
        help="write the router's repro-stats/1 report here on exit",
    )
    parser.add_argument(
        "--log-level", default="info",
        choices=("debug", "info", "warning", "error"),
        help="log verbosity (default %(default)s)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit structured JSON log lines",
    )
    parser.add_argument(
        "--version", action="version",
        version="%(prog)s " + __version__,
    )
    return parser


async def _run_router(router):
    loop = asyncio.get_event_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, router.request_stop)
        except (NotImplementedError, RuntimeError):
            # Platforms without loop signal support fall back to the
            # default KeyboardInterrupt path.
            break
    await router.serve_forever()


def main(argv=None):
    args = build_parser().parse_args(argv)
    configure_logging(json_logs=args.log_json, level=args.log_level)
    recorder = Recorder()
    try:
        router = FleetRouter(
            args.listen,
            args.shards,
            replicas=args.replicas,
            health_interval=args.health_interval,
            down_after=args.down_after,
            shard_timeout=args.timeout,
            recorder=recorder,
            metrics_address=args.metrics,
        )
    except ValueError as exc:
        print("repro-router: %s" % exc, file=sys.stderr)
        return EXIT_INVALID_INPUT
    try:
        asyncio.run(_run_router(router))
    except KeyboardInterrupt:
        pass
    except OSError as exc:
        print("repro-router: %s" % exc, file=sys.stderr)
        return EXIT_INVALID_INPUT
    if args.stats_json:
        recorder.write_json(args.stats_json)
        log.info("stats written to %s", args.stats_json)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
