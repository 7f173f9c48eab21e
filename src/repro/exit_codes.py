"""Shared process exit codes for the repro CLIs.

Every command-line tool in the package reports its outcome through one
documented convention, so scripts and CI jobs can distinguish *what the
tool decided* from *whether it could run at all*:

=====  ==============================================================
code   meaning
=====  ==============================================================
0      definite positive result — circuits equivalent, proof valid,
       lint clean (``repro-sat`` uses the SAT-competition codes 10/20
       for its SAT/UNSAT verdicts instead).
1      definite negative result — circuits differ, proof invalid,
       error-severity lint findings.
2      **undecided** — the run ended without a verdict because a
       resource budget (``--time-limit`` / ``--conflict-limit``) was
       exhausted or the engine cannot decide the instance.
3      **invalid input** — unreadable files, malformed AIGER / DIMACS /
       trace data, incompatible interfaces, or bad usage (an unknown
       flag, a missing argument). The tool never started deciding
       anything.
=====  ==============================================================

Undecided (2) and invalid-input (3) are deliberately distinct: a
retry-with-a-larger-budget policy is correct for 2 and pointless for 3.
argparse exits 2 on a usage error, so every CLI builds its parser from
:class:`CliParser`, which exits 3 instead.

``repro-sat`` keeps the SAT-competition convention for its verdicts
(10 = SAT, 20 = UNSAT, 0 = unknown/limit-exhausted) but uses
:data:`EXIT_INVALID_INPUT` for unreadable or malformed formulas, which
previously collided with the "unknown" code 0.
"""

from __future__ import annotations

import argparse
import sys
from typing import NoReturn

#: Definite positive verdict (equivalent / valid / clean).
EXIT_OK = 0

#: Definite negative verdict (not equivalent / invalid proof / lint errors).
EXIT_NEGATIVE = 1

#: No verdict: resource budget exhausted or instance undecidable here.
EXIT_UNDECIDED = 2

#: The inputs could not be read or parsed; nothing was decided.
EXIT_INVALID_INPUT = 3

#: SAT-competition verdict codes used by ``repro-sat``.
EXIT_SAT = 10
EXIT_UNSAT = 20
#: ``repro-sat``'s unknown/limit code (SAT-competition convention).
EXIT_SAT_UNKNOWN = 0


class CliParser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose usage errors exit 3, not 2; its
    subparsers inherit the class."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(
            EXIT_INVALID_INPUT, "%s: error: %s\n" % (self.prog, message),
        )
