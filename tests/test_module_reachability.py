"""No module of ``src/repro`` is called only by tests.

Each module must be a console script's module or be imported by
something other than tests: a ``src/`` module that is not a package
``__init__``, or a file under ``perfbench/``, ``benchmarks/`` or
``examples/``. Imports are read with ``ast`` (function-level ones
too), and a name imported from a package is followed through the
package's re-exports, eager or ``_LAZY``, to the submodule that
defines it.
"""

import ast
import functools
import glob
import os

from test_entry_points import console_scripts

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src")


def _modules():
    """Dotted name -> (path, is_package) for every module of repro."""
    modules = {}
    for path in glob.glob(os.path.join(SRC, "repro", "**", "*.py"),
                          recursive=True):
        parts = os.path.relpath(path, SRC)[:-3].split(os.sep)
        package = parts[-1] == "__init__"
        modules[".".join(parts[:-1] if package else parts)] = (path, package)
    return modules


MODULES = _modules()


def _absolute(name, level, module):
    """The absolute module *name* names, relative to *module*."""
    if not level:
        return name
    base = module.split(".")
    if not MODULES[module][1]:
        base = base[:-1]
    base = base[:len(base) - level + 1]
    return ".".join(base + ([name] if name else []))


def _tree(path):
    with open(path) as handle:
        return ast.parse(handle.read(), path)


@functools.lru_cache(maxsize=None)
def _bindings(package):
    """Names *package*'s ``__init__`` re-exports: name -> (module, attr)."""
    bound = {}
    for node in ast.walk(_tree(MODULES[package][0])):
        if isinstance(node, ast.ImportFrom):
            source = _absolute(node.module, node.level, package)
            for alias in node.names:
                bound[alias.asname or alias.name] = (source, alias.name)
        elif (isinstance(node, ast.Assign)
              and getattr(node.targets[0], "id", None) == "_LAZY"):
            for key, value in zip(node.value.keys, node.value.values):
                target, attr = ast.literal_eval(value)
                dots = len(target) - len(target.lstrip("."))
                bound[key.value] = (
                    _absolute(target.lstrip("."), dots, package), attr)
    return bound


def _defining(module, name):
    """The repro module that defines *name* imported from *module*."""
    if module + "." + name in MODULES:
        return module + "." + name
    if MODULES.get(module, (None, False))[1]:
        source = _bindings(module).get(name)
        if source is not None and source[0] in MODULES:
            return _defining(*source)
    return module


def _imports(path, module=None):
    """The repro modules the file at *path* imports (as *module*)."""
    found = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            source = _absolute(node.module, node.level, module)
            found.update(_defining(source, alias.name)
                         for alias in node.names)
    return {name for name in found if name in MODULES}


def test_no_module_is_called_only_by_tests():
    reached = {target.partition(":")[0] for _, target in console_scripts()}
    for module, (path, package) in MODULES.items():
        if not package:
            reached |= _imports(path, module) - {module}
    for folder in ("perfbench", "benchmarks", "examples"):
        for path in glob.glob(os.path.join(ROOT, folder, "*.py")):
            reached |= _imports(path)
    packages = {module for module, (_, package) in MODULES.items()
                if package}
    orphans = sorted(set(MODULES) - packages - reached)
    assert not orphans, "only tests call: %s" % ", ".join(orphans)
