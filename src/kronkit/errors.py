"""Exception types shared across the package, and the recursion-depth guard."""

import functools
import sys


class KronkitError(Exception):
    """Base class for every error raised by kronkit."""


class PartitionError(KronkitError, ValueError):
    """Invalid partition or composition data, or unparseable partition text."""


class SizeMismatchError(KronkitError, ValueError):
    """Operands are partitions of different integers."""


class ShapeError(KronkitError, ValueError):
    """A shape or length precondition fails, so the operation does not apply."""


class ExactnessError(KronkitError, ArithmeticError):
    """An exact integer division left a remainder.

    Inner products and coefficient sums here are always exact when the inputs
    are genuine characters, so this signals an internal bug, not bad input.
    """


def _depth_guard(describe):
    """Decorator: a RecursionError in the call becomes a ShapeError naming the limit.

    The recursive counters nest once or twice per cell, part or cycle, so an
    input deep enough for the interpreter's recursion limit is a shape the
    operation cannot take.  describe(*args) names what nests too deep, such
    as "3000 cycles"; it runs only on failure.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def guarded(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except RecursionError:
                limit = f"the recursion limit ({sys.getrecursionlimit()})"
                raise ShapeError(f"{describe(*args, **kwargs)} nest deeper than {limit}") from None

        return guarded

    return decorate
