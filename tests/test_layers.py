"""Every module imports only from the layers below it.

The package is a stack: errors < partitions < lr < characters < reductions
< kronecker < verify < cli, with __init__ and __main__ on top.  An import
from a higher layer, even one deferred into a function body, ties a lower
layer to code it should not know about, so every relative import counts.
"""

import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parents[1] / "src" / "kronkit").glob("*.py"))

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
