"""Exception types shared across the package; this module holds nothing else."""

__all__ = ["KronkitError", "PartitionError", "SizeMismatchError", "ShapeError", "ExactnessError"]


class KronkitError(Exception):
    """Base class for every error raised by kronkit."""


class PartitionError(KronkitError, ValueError):
    """Invalid partition, composition or size data, bad partition text, or an unknown suite."""


class SizeMismatchError(KronkitError, ValueError):
    """Operands are partitions of different integers."""


class ShapeError(KronkitError, ValueError):
    """A shape or length precondition fails, so the operation does not apply."""


class ExactnessError(KronkitError, ArithmeticError):
    """An exact integer division left a remainder.

    Class sums here are always exact when the inputs are genuine
    characters, so this signals an internal bug, not bad input.
    """

