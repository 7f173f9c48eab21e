"""Export the benchmark suite as AIGER files.

For interoperability with external tools (ABC, aigtoaig, other checkers),
``repro-bench-export DIR`` writes every suite pair as ``<name>_a.aag`` /
``<name>_b.aag`` plus an index file. Usable as a module
(``python -m repro.circuits.export``) or via the console script.
"""

import os
import sys

from .. import __version__
from ..aig.aiger import write_aag, write_aig
from ..exit_codes import EXIT_INVALID_INPUT, CliParser
from .benchmarks import SUITE


def export_suite(directory, binary=False, pairs=None):
    """Write suite pairs under *directory*.

    Args:
        directory: output directory (created when missing).
        binary: write binary ``.aig`` instead of ASCII ``.aag``.
        pairs: optional iterable of :class:`BenchmarkPair` (defaults to
            the full suite).

    Returns:
        List of ``(pair name, path_a, path_b)`` records.
    """
    os.makedirs(directory, exist_ok=True)
    extension = "aig" if binary else "aag"
    writer = write_aig if binary else write_aag
    records = []
    for pair in pairs if pairs is not None else SUITE:
        aig_a, aig_b = pair.build()
        path_a = os.path.join(
            directory, "%s_a.%s" % (pair.name, extension)
        )
        path_b = os.path.join(
            directory, "%s_b.%s" % (pair.name, extension)
        )
        writer(aig_a, path_a)
        writer(aig_b, path_b)
        records.append((pair.name, path_a, path_b))
    index_path = os.path.join(directory, "INDEX.txt")
    with open(index_path, "w") as handle:
        for name, path_a, path_b in records:
            pair = next(p for p in SUITE if p.name == name)
            handle.write(
                "%s\t%s\t%s\t%s\n"
                % (
                    name,
                    os.path.basename(path_a),
                    os.path.basename(path_b),
                    pair.description,
                )
            )
    return records


def build_parser():
    """Construct the argument parser (exposed for testing)."""
    parser = CliParser(
        prog="repro-bench-export",
        description="Export the benchmark suite as AIGER files",
    )
    parser.add_argument(
        "--version", action="version", version="%(prog)s " + __version__,
    )
    parser.add_argument("directory", help="output directory")
    parser.add_argument(
        "--binary", action="store_true", help="write binary .aig files"
    )
    parser.add_argument(
        "--only", nargs="+", metavar="NAME", help="subset of pair names"
    )
    return parser


def main(argv=None):
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    pairs = None
    if args.only:
        from .benchmarks import by_name

        try:
            pairs = [by_name(name) for name in args.only]
        except KeyError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return EXIT_INVALID_INPUT
    records = export_suite(args.directory, binary=args.binary, pairs=pairs)
    print("wrote %d pairs to %s" % (len(records), args.directory))
    return 0


if __name__ == "__main__":
    sys.exit(main())
