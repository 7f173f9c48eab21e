"""Build and load the solver core (``propagate.c``).

``propagate.c`` defines ``Core``, the C type that
:class:`repro.sat.solver.Solver` subclasses: it owns the solver state as
C arrays and runs clause loading and whole solve calls.  :func:`load`
compiles it into a CPython extension the first time any process imports
:mod:`repro.sat.solver` from a checkout, and loads it from then on:

* The compiler is the interpreter's own (``sysconfig``'s ``CC``,
  ``CCSHARED``, ``LDSHARED`` and include directory) and runs in a child
  process.  :data:`CFLAGS` keeps floating-point contraction off, so no
  host fuses a multiply and an add that Python rounds twice.
* The module lives in this package's ``__pycache__``, named by a hash of
  the source and build flags and by the interpreter's ABI tag
  (``EXT_SUFFIX``), so an edited source or another Python builds its
  own file. It is compiled under a unique temporary name and moved into
  place with :func:`os.replace`, so processes importing at the same
  time each load a complete module.
* It is loaded only from a directory, and as a file, owned by this user
  (or root) that neither group nor others can write: a shared location
  would let another user inject code. There is no fallback location.

When the module cannot be built or loaded, :func:`load` logs one warning
on the ``repro.sat`` logger and returns None; ``repro.sat.solver.Solver``
is then :class:`~repro.sat.reference.ReferenceSolver`, the one Python
search, which makes the same moves more slowly.
"""

import hashlib
import importlib.machinery
import importlib.util
import os
import shlex
import shutil
import stat
import subprocess
import sysconfig
import tempfile

from ..instrument import get_logger

log = get_logger("sat")

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "propagate.c")
CACHE_DIR = os.path.join(os.path.dirname(SOURCE), "__pycache__")
MODULE_NAME = "repro.sat._propagate"  # PyInit__propagate in the source
CFLAGS = ("-O2", "-ffp-contract=off")
COMPILE_TIMEOUT_S = 300


def load():
    """The compiled core module, built first if need be, else None.

    Never raises: the solver must import whatever goes wrong here, so
    any failure is one warning on the ``repro.sat`` logger and a None
    result.
    """
    try:
        return _load()
    except Exception as exc:
        log.warning("native search kernel unavailable, running the "
                    "Python ReferenceSolver: %s: %s",
                    type(exc).__name__, exc)
        return None


def module_file():
    """File name of the module for this source, build flags and ABI."""
    with open(SOURCE, "rb") as handle:
        source = handle.read()
    digest = hashlib.sha256(source + repr(CFLAGS).encode()).hexdigest()
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    if not suffix:
        raise ImportError("this interpreter reports no EXT_SUFFIX")
    return "_propagate-%s%s" % (digest[:16], suffix)


def _load():
    path = os.path.join(CACHE_DIR, module_file())
    os.makedirs(CACHE_DIR, mode=0o755, exist_ok=True)
    _check_private(CACHE_DIR)
    if not os.path.exists(path):
        _build(path)
    _check_private(path)
    loader = importlib.machinery.ExtensionFileLoader(MODULE_NAME, path)
    spec = importlib.util.spec_from_loader(MODULE_NAME, loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


def _check_private(path):
    """Refuse *path* unless only its owner, this user or root, can write it."""
    info = os.stat(path)
    geteuid = getattr(os, "geteuid", None)
    if geteuid is None:
        raise ImportError("file ownership cannot be checked on this platform")
    if info.st_uid not in (geteuid(), 0):
        raise ImportError("%s is owned by uid %d" % (path, info.st_uid))
    if info.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        raise ImportError("%s is writable by group or others (mode %o); "
                          "refusing to load code from it"
                          % (path, stat.S_IMODE(info.st_mode)))


def _build(path):
    """Compile the source to *path* through a private temporary directory."""
    config = sysconfig.get_config_vars()
    if not config.get("CC") or not config.get("LDSHARED"):
        raise ImportError("this interpreter names no C compiler")
    include = sysconfig.get_paths()["include"]
    work = tempfile.mkdtemp(prefix="propagate-build-", dir=CACHE_DIR)
    try:
        obj = os.path.join(work, "propagate.o")
        out = os.path.join(work, "propagate.so")
        _run(shlex.split(config["CC"])
             + shlex.split(config.get("CCSHARED") or "")
             + list(CFLAGS) + ["-I", include, "-c", SOURCE, "-o", obj])
        _run(shlex.split(config["LDSHARED"]) + [obj, "-o", out])
        os.chmod(out, 0o755)
        os.replace(out, path)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(command):
    try:
        done = subprocess.run(
            command, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, timeout=COMPILE_TIMEOUT_S,
        )
    except (OSError, subprocess.SubprocessError) as exc:
        raise ImportError("%s: %s" % (command[0], exc)) from exc
    if done.returncode != 0:
        output = done.stdout.decode(errors="replace").strip()
        raise ImportError("%s exited %d: %s" % (
            command[0], done.returncode, output[-2000:]))
