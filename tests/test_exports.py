import types

import pytest

import kronkit
from kronkit import characters, errors, kronecker, lr, partitions, reductions

# The whole public surface, sorted.  A name added to or removed from the
# package shows up here as a deliberate diff.
SURFACE = [
    "Composition",
    "ExactnessError",
    "KroneckerExpansion",
    "KronkitError",
    "Partition",
    "PartitionError",
    "RectangleFrame",
    "ReductionTrace",
    "ShapeError",
    "SizeMismatchError",
    "SkewShape",
    "TraceStep",
    "canonical_triple",
    "ceil_half",
    "character_row",
    "class_weights",
    "coerce_same_size",
    "conjugate",
    "cycle_sign",
    "cycle_types",
    "dimension",
    "dvir_reduce",
    "format_partition",
    "four_two_two_formula",
    "intersect",
    "kostka",
    "kron_coeff",
    "kron_coeff_direct",
    "kron_expand",
    "lr_coeff",
    "lr_pair_count",
    "mn_value",
    "parse_partition",
    "partitions_of",
    "perm_character_decomp",
    "rectangle_reduce",
    "skew_character",
    "stability_inflate",
    "two_row_formula",
]

LAYERS = [errors, partitions, lr, characters, reductions, kronecker]


@pytest.mark.parametrize("module", [partitions, lr, characters, reductions, kronecker])
def test_package_exports_every_public_name(module):
    for name in module.__all__:
        assert getattr(kronkit, name, None) is getattr(module, name), name


def test_every_public_name_comes_from_a_layer():
    public = {
        name
        for name, value in vars(kronkit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    declared = {name for layer in LAYERS for name in layer.__all__}
    assert public == declared == set(kronkit.__all__)
    assert len(kronkit.__all__) == len(declared)  # no name in two layers


def test_surface_is_pinned():
    assert sorted(kronkit.__all__) == SURFACE

