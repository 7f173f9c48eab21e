"""Every console script in ``pyproject.toml``: it imports, answers
``--version``, and exits 3 (invalid input) on an unknown flag, never
argparse's 2, which the exit-code convention reserves for undecided.
The local checking tools also exit 3 on a limit the service would
answer ``bad-input``, never a verdict."""

import importlib
import os

import pytest

from repro import __version__
from repro.exit_codes import EXIT_INVALID_INPUT

PYPROJECT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "pyproject.toml"
)
DATA = os.path.join(os.path.dirname(PYPROJECT), "examples", "data")


def console_scripts():
    """``[project.scripts]`` as ``(name, "module:function")`` pairs.

    A line scan rather than ``tomllib``, which Python 3.9 lacks.
    """
    scripts, inside = [], False
    with open(PYPROJECT) as handle:
        for line in handle:
            line = line.strip()
            if line.startswith("["):
                inside = line == "[project.scripts]"
            elif inside and "=" in line:
                name, _, target = line.partition("=")
                scripts.append((name.strip(), target.strip().strip('"')))
    return scripts


SCRIPTS = console_scripts()


def run(target, argv):
    """Exit code of *target*'s entry point on *argv*, returned or raised."""
    module_name, _, function = target.partition(":")
    main = getattr(importlib.import_module(module_name), function)
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_scripts_table_is_found():
    assert ("repro-cec", "repro.cli:main") in SCRIPTS


@pytest.mark.parametrize("name,target", SCRIPTS,
                         ids=[name for name, _ in SCRIPTS])
def test_version_names_the_script(name, target, capsys):
    assert run(target, ["--version"]) == 0
    assert capsys.readouterr().out.strip() == "%s %s" % (name, __version__)


@pytest.mark.parametrize("name,target", SCRIPTS,
                         ids=[name for name, _ in SCRIPTS])
def test_unknown_flag_is_invalid_input(name, target, capsys):
    assert run(target, ["--no-such-flag"]) == EXIT_INVALID_INPUT
    assert "error:" in capsys.readouterr().err


def _data(*names):
    return [os.path.join(DATA, name) for name in names]


# tests/test_service.py's bad submit budgets, as each tool's flags:
# (script, input arguments, flags).
BAD_TIME = [["--time-limit", "-1"], ["--time-limit", "nan"]]
BAD_LIMITS = [
    ("repro-cec", _data("add08_a.aag", "add08_b.aag"), mode + flag)
    for mode in ([], ["--engine", "monolithic"], ["--engine", "bdd"],
                 ["--per-output"])
    for flag in BAD_TIME + [["--conflict-limit", "-3"], ["--sim-words", "-1"]]
] + [
    ("repro-sat", _data("add24_miter.cnf"), flag)
    for flag in BAD_TIME + [["--max-conflicts", "-5"],
                            ["--conflict-limit", "-5"]]
] + [
    ("repro-checkproof",
     _data("add24_miter.tc") + ["--cnf"] + _data("add24_miter.cnf"), flag)
    for flag in BAD_TIME
]


@pytest.mark.parametrize("name,inputs,flags", BAD_LIMITS, ids=[
    " ".join([name] + flags) for name, _, flags in BAD_LIMITS
])
def test_bad_limit_is_invalid_input(name, inputs, flags, capsys):
    assert run(dict(SCRIPTS)[name], inputs + flags) == EXIT_INVALID_INPUT
    assert "error:" in capsys.readouterr().err
