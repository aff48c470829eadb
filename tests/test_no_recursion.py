"""No function in the package calls itself.

Python's recursion limit turns a recursion into a size cap, so the counters,
enumerators and character engines loop instead.  A def that reaches itself
through a module-level memo alias (name = lru_cache(...)(f), with f calling
name) recurses just as much, so that counts too.
"""

import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parents[1] / "src" / "kronkit").glob("*.py"))


def memo_aliases(tree):
    """{def name: names bound to a wrapper of it} for module-level lines
    such as name = lru_cache(maxsize=None)(f)."""
    aliases = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            names = {t.id for t in node.targets if isinstance(t, ast.Name)}
            for arg in node.value.args:
                if isinstance(arg, ast.Name):
                    aliases.setdefault(arg.id, set()).update(names)
    return aliases


def self_references(tree):
    """(line, name) of each def whose body names the def itself.

    A plain function or nested generator calls itself by its bare name or
    by a module-level memo alias of it; a method can only do so through
    self or cls, since a bare name in its body refers to something else.
    """
    aliases = memo_aliases(tree)
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
                hit = isinstance(node, ast.Name) and (
                    node.id == fn.name or node.id in aliases.get(fn.name, ())
                )
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


def test_catches_recursion_through_a_memo():
    # The shape of the old Murnaghan-Nakayama engine: _chi reached itself
    # only through its memo _mn.
    source = '''
from functools import lru_cache

def _chi(mask, rho):
    if not rho:
        return 1
    return _mn(mask >> 1, rho >> 1)

_mn = lru_cache(maxsize=None)(_chi)

def _leaf(n):
    return n

_leaves = lru_cache(maxsize=None)(_leaf)
'''
    assert self_references(ast.parse(source)) == [(4, "_chi")]
