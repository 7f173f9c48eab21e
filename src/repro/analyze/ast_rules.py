"""Project-specific AST lint rules for the ``repro`` codebase.

Pure-stdlib (``ast``) so the gate runs in minimal environments where
third-party linters are unavailable; CI additionally runs ruff and
strict mypy, which subsume the generic parts of these checks but not
the project-specific ones:

* ``code.store-internals`` — :class:`~repro.proof.store.ProofStore`'s
  private fields (``_clauses``, ``_chains``, ...) may only be touched
  through ``self`` inside ``proof/store.py``. Everything else must go
  through the public API; direct mutation silently desynchronizes the
  store's O(1) growth counters and the cached empty-clause id.
* ``code.phase-registry`` — string literals passed to
  ``Recorder.phase`` / ``Recorder.add_time`` must belong to
  :data:`repro.instrument.phases.PHASE_REGISTRY`, keeping the
  ``repro-stats/1`` phase namespace closed and greppable.
* ``code.bare-except`` — ``except:`` swallows ``KeyboardInterrupt`` and
  masks real defects; name the exception type.
* ``code.unused-import`` — an imported name never referenced in the
  module (``__init__.py`` re-export modules are exempt).
"""

from __future__ import annotations

import ast
import os
import re
from typing import List, Optional, Set

from ..instrument.phases import PHASE_REGISTRY
from .findings import ERROR, Finding
from .pragmas import apply_waivers

#: ProofStore attributes that only ``proof/store.py`` itself may touch.
STORE_INTERNAL_ATTRS = frozenset({
    "_clauses", "_kinds", "_chains", "_axiom_ids", "_num_axioms",
    "_num_derived", "_num_resolutions", "_empty_id", "_append",
    "_chain_refs", "_require_prior_refs",
})

#: Recorder methods whose first argument is a phase name.
PHASE_METHODS = frozenset({"phase", "add_time"})

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Path suffixes exempt from ``code.store-internals`` (the owning module)
#: — other classes may name their own fields identically (e.g. the DRUP
#: propagator's ``_clauses``), which is why the rule only fires on
#: non-``self`` receivers.
_STORE_MODULE_SUFFIX = os.path.join("proof", "store.py")


def lint_source(source: str, filename: str) -> List[Finding]:
    """Lint one module's source text; *filename* labels the findings."""
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        return [Finding(
            "code.syntax", ERROR, "cannot parse: %s" % exc,
            file=filename, line=exc.lineno or 0,
        )]
    findings: List[Finding] = []
    in_store_module = filename.endswith(_STORE_MODULE_SUFFIX)
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            findings.append(Finding(
                "code.bare-except", ERROR,
                "bare 'except:' — name the exception type",
                file=filename, line=node.lineno,
            ))
        elif isinstance(node, ast.Attribute):
            if (not in_store_module
                    and node.attr in STORE_INTERNAL_ATTRS
                    and not _is_self_access(node)):
                findings.append(Finding(
                    "code.store-internals", ERROR,
                    "access to ProofStore internal %r outside proof/store.py"
                    % node.attr,
                    file=filename, line=node.lineno,
                ))
        elif isinstance(node, ast.Call):
            phase_name = _literal_phase_arg(node)
            if phase_name is not None and phase_name not in PHASE_REGISTRY:
                findings.append(Finding(
                    "code.phase-registry", ERROR,
                    "phase name %r is not in PHASE_REGISTRY"
                    " (repro.instrument.phases)" % phase_name,
                    file=filename, line=node.lineno,
                ))
    if not filename.endswith("__init__.py"):
        findings.extend(_unused_imports(tree, filename))
    findings.sort(key=lambda finding: finding.line or 0)
    kept, _ = apply_waivers(findings, source)
    return kept


def _is_self_access(node: ast.Attribute) -> bool:
    value = node.value
    return isinstance(value, ast.Name) and value.id in ("self", "cls")


def _literal_phase_arg(node: ast.Call) -> Optional[str]:
    """The literal first argument of a phase-naming call, if any."""
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr in PHASE_METHODS):
        return None
    if not node.args:
        return None
    first = node.args[0]
    if isinstance(first, ast.Constant) and isinstance(first.value, str):
        return first.value
    return None


def _unused_imports(tree: ast.Module, filename: str) -> List[Finding]:
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.setdefault(bound, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                imported.setdefault(bound, node.lineno)
    if not imported:
        return []
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # Identifiers inside string literals count as uses, covering
            # quoted annotations ('List[int]') and __all__ entries.
            used.update(_IDENTIFIER.findall(node.value))
    return [
        Finding(
            "code.unused-import", ERROR,
            "imported name %r is never used" % name,
            file=filename, line=line,
        )
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in used
    ]


def lint_file(path: str, label: Optional[str] = None) -> List[Finding]:
    """Lint one Python file; *label* overrides the reported filename."""
    with open(path) as handle:
        source = handle.read()
    return lint_source(source, label or path)


def lint_package(root: Optional[str] = None) -> List[Finding]:
    """Lint every ``.py`` file under *root* (default: the installed
    ``repro`` package directory), reporting package-relative paths."""
    if root is None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    findings: List[Finding] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            label = os.path.relpath(path, os.path.dirname(root))
            findings.extend(lint_file(path, label=label))
    return findings
