"""Every module imports only from the layers below it, and no more of the
standard library than its commands run.

The package is a stack: errors < partitions < lr < characters < reductions
< kronecker < verify < cli, with __init__ and __main__ on top.  An import
from a higher layer, even one deferred into a function body, ties a lower
layer to code it should not know about, so every relative import counts.

A cold `kronkit coeff` pays for every module `import kronkit.cli` loads.
The records are tuples, so nothing imports dataclasses, and only a verify
run with a process pool loads concurrent.futures and multiprocessing.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kronkit"
SRC = sorted(PACKAGE.glob("*.py"))

# The packages only a pool needs: an import of one may sit in a function body only.
POOL = ("concurrent", "multiprocessing")
UNLOADED = ("concurrent.futures", "dataclasses", "multiprocessing")

LAYERS = (
    "errors",
    "partitions",
    "lr",
    "characters",
    "reductions",
    "kronecker",
    "verify",
    "cli",
    "__main__",
    "__init__",
)


def relative_imports(tree):
    """(line, module) for each relative import, wherever it appears.

    `from .x import y` names x; `from . import x, y` names x and y.
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.append((node.lineno, node.module.split(".")[0]))
            else:
                found.extend((node.lineno, alias.name) for alias in node.names)
    return found


def upward_imports(name, tree):
    """(line, module) of each relative import that is not below layer name."""
    rank = LAYERS.index(name)
    return [
        (line, module)
        for line, module in relative_imports(tree)
        if module not in LAYERS or LAYERS.index(module) >= rank
    ]


def test_every_module_has_a_layer():
    assert sorted(path.stem for path in SRC) == sorted(LAYERS)


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_imports_point_down(path):
    assert upward_imports(path.stem, ast.parse(path.read_text(), str(path))) == []


def test_catches_upward_imports():
    source = '''
from .errors import ShapeError
from . import cli, partitions
from .kronecker.sub import thing

def late():
    from .kronecker import kron_coeff_direct
    return kron_coeff_direct
'''
    found = upward_imports("reductions", ast.parse(source))
    assert found == [(3, "cli"), (4, "kronecker"), (7, "kronecker")]


def absolute_imports(tree):
    """(line, top-level package, inside a function) for each absolute import."""
    deferred = {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found.extend((node.lineno, name.split(".")[0], id(node) in deferred) for name in names)
    return found


def costly_imports(tree):
    """(line, package) of each import of dataclasses, and of each import of a
    POOL package outside a function body."""
    return [
        (line, package)
        for line, package, deferred in absolute_imports(tree)
        if package == "dataclasses" or (package in POOL and not deferred)
    ]


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_no_costly_imports(path):
    assert costly_imports(ast.parse(path.read_text(), str(path))) == []


def test_catches_costly_imports():
    source = '''
import os, multiprocessing.pool
from concurrent.futures import ProcessPoolExecutor

def pool():
    from concurrent.futures import ProcessPoolExecutor
    import dataclasses
    return ProcessPoolExecutor

if os.name:
    from dataclasses import dataclass
'''
    found = sorted(costly_imports(ast.parse(source)))
    assert found == [(2, "multiprocessing"), (3, "concurrent"), (7, "dataclasses"), (11, "dataclasses")]


@pytest.mark.parametrize("module", ["kronkit", "kronkit.cli"])
def test_import_loads_no_pool_and_no_dataclasses(module):
    script = f"import sys, {module}; print(*[m for m in {UNLOADED!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
