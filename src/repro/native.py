"""Build and load the package's C extension modules.

Two modules, each the C half of one Python class:

* ``repro/sat/propagate.c`` defines ``Core``, which
  :class:`repro.sat.solver.Solver` subclasses: it owns the solver state
  as C arrays and runs clause loading and whole solve calls;
* ``repro/proof/store.c`` defines ``Store``, which
  :class:`repro.proof.store.ProofStore` subclasses: it owns the proof
  columns and runs the appends and the trim's cone walk and rebuild.

:func:`load` compiles a module the first time any process imports its
class from a checkout, and loads it from then on:

* The compiler is the interpreter's own (``sysconfig``'s ``CC``,
  ``CCSHARED``, ``LDSHARED`` and include directory) and runs in a child
  process.  :data:`CFLAGS` keeps floating-point contraction off, so no
  host fuses a multiply and an add that Python rounds twice.
* The module lives in the ``__pycache__`` next to its source, named by a
  hash of the source and build flags and by the interpreter's ABI tag
  (``EXT_SUFFIX``), so an edited source or another Python builds its
  own file. It is compiled under a unique temporary name and moved into
  place with :func:`os.replace`, so processes importing at the same
  time each load a complete module.
* It is loaded only from a directory, and as a file, owned by this user
  (or root) that neither group nor others can write: a shared location
  would let another user inject code. There is no fallback location.

When a module cannot be built or loaded, :func:`load` logs one warning
on its caller's logger and returns None; the caller then runs its Python
class (:class:`~repro.sat.reference.ReferenceSolver`,
:class:`~repro.proof.store.ReferenceProofStore`), which gives the same
results more slowly.
"""

import hashlib
import importlib.machinery
import importlib.util
import logging
import os
import shlex
import shutil
import stat
import subprocess
import sysconfig
import tempfile
from types import ModuleType
from typing import List, Optional

PACKAGE = os.path.dirname(os.path.abspath(__file__))
#: Module name -> its C source. The source defines PyInit_<last part>.
#: pyproject.toml's package-data ships these files; it must list each.
SOURCES = {
    "repro.sat._propagate": os.path.join(PACKAGE, "sat", "propagate.c"),
    "repro.proof._store": os.path.join(PACKAGE, "proof", "store.c"),
}
CFLAGS = ("-O2", "-ffp-contract=off")
COMPILE_TIMEOUT_S = 300


def load(name: str, log: logging.Logger,
         fallback: str) -> Optional[ModuleType]:
    """The compiled module *name*, built first if need be, else None.

    Never raises: its caller must import whatever goes wrong here, so
    any failure is one warning on *log*, *fallback* followed by the
    exception's type and message, and a None result.
    """
    try:
        return _load(name)
    except Exception as exc:
        log.warning("%s: %s: %s", fallback, type(exc).__name__, exc)
        return None


def module_file(name: str) -> str:
    """File name of module *name* for its source, build flags and ABI."""
    with open(SOURCES[name], "rb") as handle:
        source = handle.read()
    digest = hashlib.sha256(source + repr(CFLAGS).encode()).hexdigest()
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    if not suffix:
        raise ImportError("this interpreter reports no EXT_SUFFIX")
    return "%s-%s%s" % (name.rsplit(".", 1)[1], digest[:16], suffix)


def cache_dir(name: str) -> str:
    """The ``__pycache__`` that holds module *name*."""
    return os.path.join(os.path.dirname(SOURCES[name]), "__pycache__")


def _load(name: str) -> ModuleType:
    cache = cache_dir(name)
    path = os.path.join(cache, module_file(name))
    os.makedirs(cache, mode=0o755, exist_ok=True)
    _check_private(cache)
    if not os.path.exists(path):
        _build(SOURCES[name], cache, path)
    _check_private(path)
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    spec = importlib.util.spec_from_loader(name, loader)
    if spec is None:
        raise ImportError("no module spec for %s" % path)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


def _check_private(path: str) -> None:
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


def _build(source: str, cache: str, path: str) -> None:
    """Compile *source* to *path* through a private temporary directory."""
    config = sysconfig.get_config_vars()
    if not config.get("CC") or not config.get("LDSHARED"):
        raise ImportError("this interpreter names no C compiler")
    include = sysconfig.get_paths()["include"]
    stem = os.path.splitext(os.path.basename(source))[0]
    work = tempfile.mkdtemp(prefix=stem + "-build-", dir=cache)
    try:
        obj = os.path.join(work, stem + ".o")
        out = os.path.join(work, stem + ".so")
        _run(shlex.split(config["CC"])
             + shlex.split(config.get("CCSHARED") or "")
             + list(CFLAGS) + ["-I", include, "-c", source, "-o", obj])
        _run(shlex.split(config["LDSHARED"]) + [obj, "-o", out])
        os.chmod(out, 0o755)
        os.replace(out, path)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(command: List[str]) -> None:
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
