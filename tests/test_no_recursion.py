"""No function in the package calls itself.

Python's recursion limit turns a recursion into a size cap, so the counters
and enumerators loop instead.  The one engine that still recurses, the
Murnaghan-Nakayama memo _chi/_mn, reaches itself only through _mn, and
mn_value turns its RecursionError into a ShapeError.
"""

import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parents[1] / "src" / "kronkit").glob("*.py"))


def self_references(tree):
    """(line, name) of each def whose body names the def itself.

    A plain function or nested generator calls itself by its bare name; a
    method can only do so through self or cls, since a bare name in its
    body refers to something else.
    """
    methods = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if id(fn) in methods:
                hit = (
                    isinstance(node, ast.Attribute)
                    and node.attr == fn.name
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("self", "cls")
                )
            else:
                hit = isinstance(node, ast.Name) and node.id == fn.name
            if hit:
                found.append((fn.lineno, fn.name))
                break
    return found


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_no_def_refers_to_itself(path):
    assert self_references(ast.parse(path.read_text(), str(path))) == []


def test_catches_recursion():
    source = '''
def fact(n):
    return 1 if n < 2 else n * fact(n - 1)

def outer(m):
    def rec(k):
        yield from rec(k - 1)
    return rec(m)

class Shape:
    def grow(self):
        return self.grow()

    def conjugate(self):
        return conjugate(self)
'''
    assert self_references(ast.parse(source)) == [(2, "fact"), (6, "rec"), (11, "grow")]
