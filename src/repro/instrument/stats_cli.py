"""``repro-stats``: inspect, diff, aggregate, and render telemetry files.

One tool for every versioned telemetry artifact the package emits:

* ``repro-stats show FILE`` — pretty-print a ``repro-stats/1`` report
  (phases sorted by time, counters, gauges, latency quantiles).
* ``repro-stats diff A B`` — compare two reports phase by phase and
  counter by counter; the tool for "what did this change cost?".
* ``repro-stats aggregate FILES... [-o OUT]`` — fold many reports into
  one (summing phases and counters), e.g. per-job stats into a run
  total.
* ``repro-stats flamegraph FILE [-o OUT]`` — collapsed-stack lines
  (``a;b;c <microseconds>``) from either a ``repro-trace/1`` document
  (exact per-span self time) or a ``repro-stats/1`` report (phase
  ``self_seconds``); feed to ``flamegraph.pl`` or speedscope.
* ``repro-stats chrome TRACE [-o OUT]`` — Chrome ``trace_event`` JSON
  from a ``repro-trace/1`` document (Perfetto / ``chrome://tracing``).

Every subcommand validates its input against the schema validators in
:mod:`repro.analyze` semantics (the same checks CI runs) and fails with
a clear message — exit code 3 — on a malformed file.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, TextIO

from .. import __version__
from ..exit_codes import EXIT_INVALID_INPUT, EXIT_OK, CliParser
from .metrics import METRICS_SCHEMA, validate_metrics_report
from .recorder import STATS_SCHEMA, Recorder, validate_report
from .tracing import (
    TRACE_SCHEMA,
    to_chrome_trace,
    to_collapsed_stacks,
    validate_trace_report,
)


def build_parser() -> argparse.ArgumentParser:
    parser = CliParser(
        prog="repro-stats",
        description="Inspect, diff, aggregate, and render repro-stats/1 "
        "and repro-trace/1 telemetry files.",
    )
    parser.add_argument(
        "--version", action="version", version="%(prog)s " + __version__,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    show = sub.add_parser("show", help="pretty-print a stats report")
    show.add_argument("file", help="repro-stats/1 JSON file")
    show.add_argument(
        "--top", type=int, default=0, metavar="N",
        help="show only the N most expensive phases (0 = all)",
    )

    diff = sub.add_parser("diff", help="compare two stats reports")
    diff.add_argument("old", help="baseline repro-stats/1 JSON file")
    diff.add_argument("new", help="candidate repro-stats/1 JSON file")
    diff.add_argument(
        "--threshold", type=float, default=0.0, metavar="SECONDS",
        help="hide phases whose absolute delta is below this",
    )

    aggregate = sub.add_parser(
        "aggregate", help="fold several stats reports into one",
    )
    aggregate.add_argument(
        "files", nargs="+", help="repro-stats/1 JSON files",
    )
    aggregate.add_argument(
        "-o", "--output", metavar="PATH", default=None,
        help="write the merged report here (default: stdout)",
    )

    flame = sub.add_parser(
        "flamegraph",
        help="collapsed flamegraph stacks from a trace or stats file",
    )
    flame.add_argument(
        "file", help="repro-trace/1 or repro-stats/1 JSON file",
    )
    flame.add_argument(
        "-o", "--output", metavar="PATH", default=None,
        help="write the collapsed stacks here (default: stdout)",
    )

    chrome = sub.add_parser(
        "chrome", help="Chrome trace-event JSON from a trace file",
    )
    chrome.add_argument("file", help="repro-trace/1 JSON file")
    chrome.add_argument(
        "-o", "--output", metavar="PATH", default=None,
        help="write the Chrome trace here (default: stdout)",
    )
    return parser


# ----------------------------------------------------------------------
# Loading and validation
# ----------------------------------------------------------------------


class StatsCliError(Exception):
    """A user-facing input problem (bad file, bad schema)."""


def _load(path: str) -> Any:
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise StatsCliError(str(exc))
    except ValueError as exc:
        raise StatsCliError("%s: not valid JSON: %s" % (path, exc))


def _load_stats(path: str) -> Dict[str, Any]:
    document = _load(path)
    try:
        return validate_report(document)
    except ValueError as exc:
        raise StatsCliError("%s: not a valid %s report: %s"
                            % (path, STATS_SCHEMA, exc))


def _load_trace(path: str) -> Dict[str, Any]:
    document = _load(path)
    try:
        return validate_trace_report(document)
    except ValueError as exc:
        raise StatsCliError("%s: not a valid %s document: %s"
                            % (path, TRACE_SCHEMA, exc))


def _load_any(path: str) -> Dict[str, Any]:
    """Load a telemetry file, dispatching on its schema tag."""
    document = _load(path)
    schema = document.get("schema") if isinstance(document, dict) else None
    try:
        if schema == TRACE_SCHEMA:
            return validate_trace_report(document)
        if schema == STATS_SCHEMA:
            return validate_report(document)
        if schema == METRICS_SCHEMA:
            return validate_metrics_report(document)
    except ValueError as exc:
        raise StatsCliError("%s: invalid %s file: %s"
                            % (path, schema, exc))
    raise StatsCliError(
        "%s: unrecognized schema tag %r (expected %s, %s, or %s)"
        % (path, schema, STATS_SCHEMA, TRACE_SCHEMA, METRICS_SCHEMA)
    )


def _emit(text: str, output: Optional[str], stream: TextIO) -> None:
    if output is None:
        stream.write(text)
    else:
        with open(output, "w") as handle:
            handle.write(text)


# ----------------------------------------------------------------------
# show
# ----------------------------------------------------------------------


def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return "%.3fs" % value
    return "%.3fms" % (value * 1e3)


def _cmd_show(args: argparse.Namespace, out: TextIO) -> int:
    report = _load_stats(args.file)
    phases: Dict[str, Dict[str, Any]] = report["phases"]
    meta: Dict[str, Any] = report.get("meta", {})
    tool = meta.get("tool")
    out.write("%s  (%s, %.3fs elapsed)\n" % (
        args.file, tool or "no tool tag", report["elapsed_seconds"],
    ))
    ordered = sorted(
        phases.items(), key=lambda item: -float(item[1]["seconds"])
    )
    if args.top > 0:
        ordered = ordered[:args.top]
    if ordered:
        width = max(len(name) for name, _ in ordered)
        out.write("\nphases (by inclusive time):\n")
        for name, cell in ordered:
            out.write("  %-*s  %10s  self %10s  x%d\n" % (
                width, name,
                _fmt_seconds(float(cell["seconds"])),
                _fmt_seconds(float(cell.get(
                    "self_seconds", cell["seconds"]
                ))),
                int(cell["count"]),
            ))
    counters: Dict[str, int] = report["counters"]
    if counters:
        out.write("\ncounters:\n")
        for name, value in sorted(counters.items()):
            out.write("  %s = %d\n" % (name, value))
    gauges: Dict[str, Any] = report["gauges"]
    if gauges:
        out.write("\ngauges:\n")
        for name, gauge_value in sorted(gauges.items()):
            out.write("  %s = %s\n" % (name, gauge_value))
    return EXIT_OK


# ----------------------------------------------------------------------
# diff
# ----------------------------------------------------------------------


def _cmd_diff(args: argparse.Namespace, out: TextIO) -> int:
    old = _load_stats(args.old)
    new = _load_stats(args.new)
    out.write("diff %s -> %s\n" % (args.old, args.new))
    old_phases: Dict[str, Dict[str, Any]] = old["phases"]
    new_phases: Dict[str, Dict[str, Any]] = new["phases"]
    names = sorted(set(old_phases) | set(new_phases))
    rows: List[str] = []
    for name in names:
        before = float(old_phases.get(name, {}).get("seconds", 0.0))
        after = float(new_phases.get(name, {}).get("seconds", 0.0))
        delta = after - before
        if abs(delta) < args.threshold:
            continue
        if before > 0:
            pct = " (%+.1f%%)" % (100.0 * delta / before)
        else:
            pct = " (new)" if after > 0 else ""
        rows.append("  %-40s  %10s -> %10s  %+10s%s\n" % (
            name, _fmt_seconds(before), _fmt_seconds(after),
            _fmt_seconds(abs(delta)) if delta >= 0
            else "-" + _fmt_seconds(-delta),
            pct,
        ))
    if rows:
        out.write("\nphases:\n")
        for row in rows:
            out.write(row)
    old_counters: Dict[str, int] = old["counters"]
    new_counters: Dict[str, int] = new["counters"]
    counter_rows: List[str] = []
    for name in sorted(set(old_counters) | set(new_counters)):
        before_n = old_counters.get(name, 0)
        after_n = new_counters.get(name, 0)
        if before_n == after_n:
            continue
        counter_rows.append("  %-40s  %d -> %d  (%+d)\n" % (
            name, before_n, after_n, after_n - before_n,
        ))
    if counter_rows:
        out.write("\ncounters:\n")
        for row in counter_rows:
            out.write(row)
    if not rows and not counter_rows:
        out.write("  no differences above the threshold\n")
    return EXIT_OK


# ----------------------------------------------------------------------
# aggregate
# ----------------------------------------------------------------------


def _cmd_aggregate(args: argparse.Namespace, out: TextIO) -> int:
    merged = Recorder()
    elapsed = 0.0
    for path in args.files:
        report = _load_stats(path)
        merged.merge_report(report)
        elapsed = max(elapsed, float(report["elapsed_seconds"]))
    merged.meta["aggregated_from"] = list(args.files)
    document = merged.report()
    # The merged elapsed time is the max of the inputs (reports from
    # parallel workers overlap in time), not this process's uptime.
    document["elapsed_seconds"] = elapsed
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    _emit(text, args.output, out)
    return EXIT_OK


# ----------------------------------------------------------------------
# flamegraph / chrome
# ----------------------------------------------------------------------


def stats_collapsed_stacks(report: Dict[str, Any]) -> List[str]:
    """Collapsed stacks from a stats report's phase table.

    Phase names are already hierarchical (``a/b/c``), so each phase is
    one stack, weighted by its ``self_seconds`` in integer microseconds
    — summing a subtree therefore never double-counts.
    """
    lines: List[str] = []
    phases: Dict[str, Dict[str, Any]] = report["phases"]
    for name, cell in sorted(phases.items()):
        self_seconds = float(cell.get("self_seconds", cell["seconds"]))
        micros = int(round(self_seconds * 1e6))
        if micros <= 0:
            continue
        lines.append("%s %d" % (name.replace("/", ";"), micros))
    return lines


def _cmd_flamegraph(args: argparse.Namespace, out: TextIO) -> int:
    document = _load_any(args.file)
    if document.get("schema") == TRACE_SCHEMA:
        lines = to_collapsed_stacks(document)
    elif document.get("schema") == STATS_SCHEMA:
        lines = stats_collapsed_stacks(document)
    else:
        raise StatsCliError(
            "%s: flamegraph needs a %s or %s file"
            % (args.file, TRACE_SCHEMA, STATS_SCHEMA)
        )
    _emit("".join(line + "\n" for line in lines), args.output, out)
    return EXIT_OK


def _cmd_chrome(args: argparse.Namespace, out: TextIO) -> int:
    document = _load_trace(args.file)
    chrome = to_chrome_trace(document)
    _emit(json.dumps(chrome, sort_keys=True) + "\n", args.output, out)
    return EXIT_OK


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    commands = {
        "show": _cmd_show,
        "diff": _cmd_diff,
        "aggregate": _cmd_aggregate,
        "flamegraph": _cmd_flamegraph,
        "chrome": _cmd_chrome,
    }
    try:
        return commands[args.command](args, sys.stdout)
    except StatsCliError as exc:
        print("repro-stats: %s" % exc, file=sys.stderr)
        return EXIT_INVALID_INPUT
    except BrokenPipeError:
        # Output piped into a pager/head that exited early.
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
