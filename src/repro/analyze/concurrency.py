"""AST concurrency-hazard rules for the multi-process stack.

The service's concurrent substrate — handler threads over a locked
:class:`~repro.service.jobs.JobTable` and the process pool that runs
its workers — is exactly where the paper's soundness story ("every
verdict backed by a checkable proof") can break without any bad
resolution step: a racy mutation, a leaked shared-memory segment, a
pool that outlives its owner. These rules are the replay-free gate for
that surface, pure ``ast`` like :mod:`repro.analyze.ast_rules`:

* ``concurrency.unguarded-mutation`` — in a class that creates a
  ``threading.Lock``/``RLock``, rebinding a private ``self._*``
  attribute outside ``with self.<lock>`` (constructors exempt; a
  ``*_locked`` method-name suffix documents caller-held locking).
* ``concurrency.arena-lifecycle`` — a bound ``SharedMemory`` attach or
  create with no ``close()`` on a ``finally``/handler path and no
  ownership transfer (returned, stored, or passed on).
* ``concurrency.pool-shutdown`` — a pool/executor created without any
  reachable shutdown path (``with`` block, ``shutdown``/``close``/
  ``terminate`` call on the binding, or ``atexit`` registration).
* ``concurrency.fork-after-thread`` — a fork-start process pool
  (``ProcessPoolExecutor`` without ``mp_context``, or an explicit
  fork-context ``Pool``) in a module that also starts threads; forking
  a multithreaded process clones locked locks into the child.
* ``concurrency.blocking-under-lock`` — an unbounded blocking call
  (``accept()``, zero-arg ``get()``/``wait()``/``join()``/
  ``result()``, ``sleep``) made lexically inside a ``with <lock>``
  block.

All rules honor ``# repro-lint: ignore[rule-id]`` pragmas
(:mod:`repro.analyze.pragmas`). Known false-negative limits are
catalogued in ``docs/static-analysis.md``: the analysis is lexical and
intra-procedural — it cannot see ``acquire()``/``release()`` pairs,
locks held across call boundaries, or container mutation
(``self._jobs[k] = v``) as opposed to attribute rebinding.
"""

from __future__ import annotations

import ast
import os
from typing import List, Optional, Sequence, Set, Union

from .findings import ERROR, Finding
from .pragmas import apply_waivers

#: Callables whose result is a mutual-exclusion lock.
_LOCK_FACTORIES = frozenset({"Lock", "RLock"})

#: Callables whose result is a pool of workers needing shutdown.
_POOL_FACTORIES = frozenset({
    "ProcessPoolExecutor", "ThreadPoolExecutor", "Pool",
})

#: Methods that shut a pool down.
_POOL_SHUTDOWN_METHODS = frozenset({
    "shutdown", "close", "terminate", "join",
})

#: Zero-argument method calls that block without bound when the
#: receiver is a queue/event/thread/future/socket.
_BLOCKING_ZERO_ARG = frozenset({"accept", "get", "wait", "join", "result"})

#: Constructor methods where unguarded writes are inherently safe (no
#: other thread holds a reference yet).
_CONSTRUCTORS = frozenset({"__init__", "__new__"})

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _tail_name(node: ast.expr) -> Optional[str]:
    """Rightmost identifier of a Name/Attribute/Call chain."""
    if isinstance(node, ast.Call):
        return _tail_name(node.func)
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_self_attr(node: ast.expr) -> bool:
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self")


def _names_in(node: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def lint_source(source: str, filename: str) -> List[Finding]:
    """Run every concurrency rule over one module's source text.

    Findings waived by inline pragmas are dropped; *filename* labels
    the rest.
    """
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        return [Finding(
            "code.syntax", ERROR, "cannot parse: %s" % exc,
            file=filename, line=exc.lineno or 0,
        )]
    findings: List[Finding] = []
    findings.extend(_check_guarded_classes(tree, filename))
    findings.extend(_check_blocking_under_lock(tree, filename))
    findings.extend(_check_fork_after_thread(tree, filename))
    for func in _functions(tree):
        findings.extend(_check_arena_lifecycle(func, filename))
    findings.extend(_check_pool_shutdown(tree, filename))
    findings.sort(key=lambda finding: finding.line or 0)
    kept, _ = apply_waivers(findings, source)
    return kept


def _functions(tree: ast.AST) -> List[_FunctionNode]:
    return [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


# ---------------------------------------------------------------------------
# concurrency.unguarded-mutation
# ---------------------------------------------------------------------------


def _lock_attrs_of(cls: ast.ClassDef) -> Set[str]:
    """Names of ``self.<attr>`` fields bound to Lock()/RLock() calls."""
    locks: Set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if not (isinstance(value, ast.Call)
                and _tail_name(value.func) in _LOCK_FACTORIES):
            continue
        for target in node.targets:
            if _is_self_attr(target):
                assert isinstance(target, ast.Attribute)
                locks.add(target.attr)
    return locks


def _check_guarded_classes(
    tree: ast.Module, filename: str,
) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        lock_attrs = _lock_attrs_of(node)
        if not lock_attrs:
            continue
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name in _CONSTRUCTORS:
                continue
            if item.name.endswith("_locked"):
                # Documented convention: the caller holds the lock.
                continue
            _scan_mutations(
                item.body, lock_attrs, False, findings, filename, item.name,
            )
    return findings


def _with_holds_lock(
    stmt: Union[ast.With, ast.AsyncWith], lock_attrs: Set[str],
) -> bool:
    for item in stmt.items:
        expr = item.context_expr
        if (_is_self_attr(expr)
                and isinstance(expr, ast.Attribute)
                and expr.attr in lock_attrs):
            return True
    return False


def _mutated_private_attrs(stmt: ast.stmt) -> List[ast.Attribute]:
    """``self._x`` attributes rebound (or deleted) by one statement."""
    targets: List[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, ast.AugAssign):
        targets = [stmt.target]
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    elif isinstance(stmt, ast.Delete):
        targets = list(stmt.targets)
    hits: List[ast.Attribute] = []
    queue = list(targets)
    while queue:
        target = queue.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            queue.extend(target.elts)
        elif isinstance(target, ast.Starred):
            queue.append(target.value)
        elif (_is_self_attr(target)
              and isinstance(target, ast.Attribute)
              and target.attr.startswith("_")):
            hits.append(target)
    return hits


def _scan_mutations(
    body: Sequence[ast.stmt],
    lock_attrs: Set[str],
    locked: bool,
    findings: List[Finding],
    filename: str,
    method: str,
) -> None:
    for stmt in body:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            holds = locked or _with_holds_lock(stmt, lock_attrs)
            _scan_mutations(
                stmt.body, lock_attrs, holds, findings, filename, method,
            )
            continue
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested def runs later, outside this lock scope.
            _scan_mutations(
                stmt.body, lock_attrs, False, findings, filename, method,
            )
            continue
        if not locked:
            for attr in _mutated_private_attrs(stmt):
                findings.append(Finding(
                    "concurrency.unguarded-mutation", ERROR,
                    "self.%s is rebound in %s() without holding %s"
                    % (attr.attr, method,
                       " / ".join("self.%s" % n for n in sorted(lock_attrs))),
                    file=filename, line=stmt.lineno,
                    data={"attribute": attr.attr, "method": method},
                ))
        for child_body in _stmt_bodies(stmt):
            _scan_mutations(
                child_body, lock_attrs, locked, findings, filename, method,
            )


def _stmt_bodies(stmt: ast.stmt) -> List[List[ast.stmt]]:
    bodies: List[List[ast.stmt]] = []
    for field in ("body", "orelse", "finalbody"):
        block = getattr(stmt, field, None)
        if isinstance(block, list) and block \
                and isinstance(block[0], ast.stmt):
            bodies.append(block)
    for handler in getattr(stmt, "handlers", []) or []:
        bodies.append(handler.body)
    return bodies


# ---------------------------------------------------------------------------
# concurrency.blocking-under-lock
# ---------------------------------------------------------------------------


def _is_lock_expr(expr: ast.expr) -> bool:
    name = _tail_name(expr)
    return name is not None and "lock" in name.lower()


def _is_blocking_call(call: ast.Call) -> Optional[str]:
    func = call.func
    name = _tail_name(func)
    if name == "sleep":
        return "sleep()"
    if (isinstance(func, ast.Attribute)
            and func.attr in _BLOCKING_ZERO_ARG
            and not call.args and not call.keywords):
        return "%s() without a timeout" % func.attr
    return None


def _check_blocking_under_lock(
    tree: ast.Module, filename: str,
) -> List[Finding]:
    findings: List[Finding] = []

    def check_exprs(node: ast.AST) -> None:
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            reason = _is_blocking_call(call)
            if reason is not None:
                findings.append(Finding(
                    "concurrency.blocking-under-lock", ERROR,
                    "blocking %s while a lock is held" % reason,
                    file=filename, line=call.lineno,
                ))

    def scan(body: Sequence[ast.stmt], locked: bool) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                holds = locked or any(
                    _is_lock_expr(item.context_expr) for item in stmt.items
                )
                if locked:
                    for item in stmt.items:
                        check_exprs(item.context_expr)
                scan(stmt.body, holds)
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                scan(stmt.body, False)
                continue
            child_bodies = _stmt_bodies(stmt)
            if child_bodies:
                # Compound statement: check only its own expressions
                # (test / iter / ...) here, then recurse per block so
                # nested defs and with-blocks keep their own context.
                if locked:
                    for _, value in ast.iter_fields(stmt):
                        if isinstance(value, ast.expr):
                            check_exprs(value)
                for child_body in child_bodies:
                    scan(child_body, locked)
            elif locked:
                check_exprs(stmt)

    scan(tree.body, False)
    return findings


# ---------------------------------------------------------------------------
# concurrency.arena-lifecycle
# ---------------------------------------------------------------------------


def _is_shm_factory(call: ast.Call) -> bool:
    name = _tail_name(call.func)
    return name == "SharedMemory" or (
        name is not None and "attach_shm" in name
    )


def _check_arena_lifecycle(
    func: _FunctionNode, filename: str,
) -> List[Finding]:
    findings: List[Finding] = []
    bindings: List[ast.Assign] = [
        stmt for stmt in ast.walk(func)
        if isinstance(stmt, ast.Assign)
        and isinstance(stmt.value, ast.Call)
        and _is_shm_factory(stmt.value)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
    ]
    for stmt in bindings:
        target = stmt.targets[0]
        assert isinstance(target, ast.Name)
        name = target.id
        if _escapes(func, name, stmt) or _closed_on_exit(func, name):
            continue
        findings.append(Finding(
            "concurrency.arena-lifecycle", ERROR,
            "shared-memory handle %r has no close() on a finally/except "
            "path and never transfers ownership" % name,
            file=filename, line=stmt.lineno,
            data={"name": name},
        ))
    return findings


def _escapes(func: _FunctionNode, name: str, binding: ast.Assign) -> bool:
    """True when *name* leaves the function's ownership: returned,
    yielded, passed to a call, stored on an object, or used in ``with``
    (the context manager then owns the close)."""
    for node in ast.walk(func):
        if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            value = getattr(node, "value", None)
            if value is not None and name in _names_in(value):
                return True
        elif isinstance(node, ast.Call):
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if name in _names_in(arg):
                    return True
        elif isinstance(node, ast.Assign) and node is not binding:
            for target in node.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    if name in _names_in(node.value):
                        return True
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if name in _names_in(item.context_expr):
                    return True
    return False


def _closed_on_exit(func: _FunctionNode, name: str) -> bool:
    """True when ``<name>.close()`` runs on a finally or handler path."""
    for node in ast.walk(func):
        if not isinstance(node, ast.Try):
            continue
        cleanup_blocks: List[List[ast.stmt]] = [node.finalbody]
        cleanup_blocks.extend(h.body for h in node.handlers)
        for block in cleanup_blocks:
            for stmt in block:
                for call in ast.walk(stmt):
                    if (isinstance(call, ast.Call)
                            and isinstance(call.func, ast.Attribute)
                            and call.func.attr in ("close", "unlink")
                            and isinstance(call.func.value, ast.Name)
                            and call.func.value.id == name):
                        return True
    return False


# ---------------------------------------------------------------------------
# concurrency.pool-shutdown
# ---------------------------------------------------------------------------


def _pool_calls(tree: ast.Module) -> List[ast.Call]:
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and _tail_name(node.func) in _POOL_FACTORIES
    ]


def _check_pool_shutdown(tree: ast.Module, filename: str) -> List[Finding]:
    findings: List[Finding] = []
    module_has_atexit = any(
        isinstance(node, ast.Call)
        and _tail_name(node.func) == "register"
        and isinstance(node.func, ast.Attribute)
        and _tail_name(node.func.value) == "atexit"
        for node in ast.walk(tree)
    )
    for call in _pool_calls(tree):
        context = _pool_binding_context(tree, call)
        if context == "with" or context == "escape":
            continue
        if context == "self" and _class_shuts_down(tree, call):
            continue
        if context == "local" and _local_shuts_down(tree, call):
            continue
        if module_has_atexit and context in ("self", "local", "module"):
            # An interpreter-exit hook reaps whatever is still alive;
            # the registered closer is this module's shutdown path.
            continue
        findings.append(Finding(
            "concurrency.pool-shutdown", ERROR,
            "%s(...) has no shutdown path (with block, shutdown/close/"
            "terminate call, or atexit hook)"
            % (_tail_name(call.func) or "pool"),
            file=filename, line=call.lineno,
        ))
    return findings


def _pool_binding_context(tree: ast.Module, call: ast.Call) -> str:
    """How a pool-factory call's result is held: ``with`` / ``self`` /
    ``local`` / ``module`` / ``escape`` (returned or passed on) /
    ``none``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.context_expr is call:
                    return "with"
        elif isinstance(node, ast.Assign) and node.value is call:
            target = node.targets[0]
            if _is_self_attr(target):
                return "self"
            if isinstance(target, ast.Name):
                enclosing = _enclosing_function(tree, node)
                return "local" if enclosing is not None else "module"
        elif isinstance(node, ast.Return) and node.value is call:
            return "escape"
        elif isinstance(node, ast.Call) and node is not call:
            if call in node.args or any(
                kw.value is call for kw in node.keywords
            ):
                return "escape"
    return "none"


def _enclosing_function(
    tree: ast.Module, stmt: ast.AST,
) -> Optional[_FunctionNode]:
    for func in _functions(tree):
        for node in ast.walk(func):
            if node is stmt:
                return func
    return None


def _pool_attr_of(tree: ast.Module, call: ast.Call) -> Optional[str]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and node.value is call:
            target = node.targets[0]
            if _is_self_attr(target):
                assert isinstance(target, ast.Attribute)
                return target.attr
    return None


def _class_shuts_down(tree: ast.Module, call: ast.Call) -> bool:
    """True when the class binding ``self.<attr> = Pool(...)`` calls a
    shutdown method on that attribute somewhere."""
    attr = _pool_attr_of(tree, call)
    if attr is None:
        return False
    owner: Optional[ast.ClassDef] = None
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for inner in ast.walk(node):
                if inner is call:
                    owner = node
                    break
    scope: ast.AST = owner if owner is not None else tree
    for node in ast.walk(scope):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _POOL_SHUTDOWN_METHODS
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == attr
                and _is_self_attr(node.func.value)):
            return True
    return False


def _local_shuts_down(tree: ast.Module, call: ast.Call) -> bool:
    func = _enclosing_function(tree, call)
    if func is None:
        return False
    name: Optional[str] = None
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and node.value is call:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                name = target.id
    if name is None:
        return False
    for node in ast.walk(func):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _POOL_SHUTDOWN_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == name):
            return True
        if isinstance(node, ast.Return) and node.value is not None \
                and name in _names_in(node.value):
            return True  # factory function: the caller owns shutdown
    return False


# ---------------------------------------------------------------------------
# concurrency.fork-after-thread
# ---------------------------------------------------------------------------


def _module_starts_threads(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _tail_name(node.func) == "Thread":
            return True
        if isinstance(node, ast.ClassDef):
            for base in node.bases:
                if _tail_name(base) == "ThreadingMixIn":
                    return True
    return False


def _fork_pool_sites(tree: ast.Module) -> List[ast.Call]:
    """Pool creations that fork the current process (on POSIX)."""
    explicit_fork = any(
        isinstance(node, ast.Call)
        and _tail_name(node.func) == "get_context"
        and any(
            isinstance(arg, ast.Constant) and arg.value == "fork"
            for arg in node.args
        )
        for node in ast.walk(tree)
    )
    sites: List[ast.Call] = []
    for call in _pool_calls(tree):
        name = _tail_name(call.func)
        if name == "ProcessPoolExecutor":
            if not any(kw.arg == "mp_context" for kw in call.keywords):
                sites.append(call)  # platform default is fork on POSIX
        elif name == "Pool" and explicit_fork:
            sites.append(call)
    return sites


def _check_fork_after_thread(
    tree: ast.Module, filename: str,
) -> List[Finding]:
    if not _module_starts_threads(tree):
        return []
    return [
        Finding(
            "concurrency.fork-after-thread", ERROR,
            "fork-start process pool in a module that also starts "
            "threads: forking a multithreaded process clones held locks "
            "into the child",
            file=filename, line=call.lineno,
        )
        for call in _fork_pool_sites(tree)
    ]


# ---------------------------------------------------------------------------
# Package walkers (mirroring repro.analyze.ast_rules)
# ---------------------------------------------------------------------------


def lint_file(path: str, label: Optional[str] = None) -> List[Finding]:
    """Lint one Python file; *label* overrides the reported filename."""
    with open(path) as handle:
        source = handle.read()
    return lint_source(source, label or path)


def lint_package(root: Optional[str] = None) -> List[Finding]:
    """Run the concurrency rules over every ``.py`` file under *root*
    (default: the installed ``repro`` package), with package-relative
    labels."""
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
