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
    conjugate,
    format_partition,
    intersect,
    parse_partition,
    partitions_of,
    skew,
    subtract_rectangle,
)
from .lr import (
    kostka,
    lr_coeff,
    lr_pair_count,
    multitableau_count,
    perm_character_decomp,
)
from .characters import (
    CharacterVector,
    CycleType,
    character_row,
    character_table,
    class_size,
    class_weights,
    cycle_sign,
    cycle_types,
    dimension,
    inner_product,
    irreducible_character,
    mn_value,
    permutation_character,
    skew_character,
)
from .reductions import (
    RectangleFrame,
    Reduced,
    ReductionTrace,
    TraceStep,
    Zero,
    ceil_half,
    dvir_reduce,
    four_two_two_formula,
    rectangle_reduce,
    stability_inflate,
    two_row_formula,
)
from .kronecker import (
    KroneckerExpansion,
    canonical_triple,
    kron_coeff,
    kron_coeff_direct,
    kron_expand,
)

__version__ = "0.1.0"
