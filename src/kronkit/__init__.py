"""kronkit: exact Kronecker coefficients for symmetric group characters.

The package layers a fast reduction pipeline (rectangle stability,
vanishing tests, closed two-row formulas) over a brute-force exact oracle
(border-strip character values and tableau enumeration), and ships
exhaustive sweeps that check the former against the latter.
"""

from .errors import (
    ExactnessError,
    KronkitError,
    PartitionError,
    ShapeError,
    SizeMismatchError,
)
from .partitions import (
    Composition,
    Partition,
    Rectangle,
    SkewShape,
    add_rectangle,
    coerce_same_size,
    conjugate,
    format_partition,
    intersect,
    parse_partition,
    partitions_of,
    subtract_rectangle,
)
from .lr import (
    kostka,
    lr_coeff,
    lr_pair_count,
    perm_character_decomp,
)
from .characters import (
    character_row,
    class_weights,
    cycle_sign,
    cycle_types,
    dimension,
    mn_value,
    skew_character,
)
from .reductions import (
    RectangleFrame,
    ReductionTrace,
    TraceStep,
    ceil_half,
    four_two_two_formula,
    rectangle_reduce,
    stability_inflate,
    two_row_formula,
)
from .kronecker import (
    KroneckerExpansion,
    canonical_triple,
    dvir_reduce,
    kron_coeff,
    kron_coeff_direct,
    kron_expand,
)

from . import characters, errors, kronecker, lr, partitions, reductions

# The public surface: the __all__ of each layer, and nothing else.
__all__ = [
    name
    for layer in (errors, partitions, lr, characters, reductions, kronecker)
    for name in layer.__all__
]

__version__ = "0.1.0"
