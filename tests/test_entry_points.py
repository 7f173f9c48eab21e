"""Every console script in ``pyproject.toml``: it imports, answers
``--version``, and exits 3 (invalid input) on an unknown flag, never
argparse's 2, which the exit-code convention reserves for undecided."""

import importlib
import os

import pytest

from repro import __version__
from repro.exit_codes import EXIT_INVALID_INPUT

PYPROJECT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "pyproject.toml"
)


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
