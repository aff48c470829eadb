import types

import pytest

import kronkit
from kronkit import KronkitError, RectangleFrame, SkewShape
from kronkit import characters, errors, kronecker, lr, partitions, reductions

# The whole public surface, sorted.  A name added to or removed from the
# package shows up here as a deliberate diff.
SURFACE = [
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


# Bad values by the kind of argument they stand in for: a bool part, a float
# part, a negative part, a str and a non-iterable, or what each means for a
# size, for partition text, and for a record argument.
PART = {"bool": (2, True), "float": (2, 1.0), "negative": (2, -1), "str": "21", "scalar": 3}
SIZE = {"bool": True, "float": 2.0, "negative": -1, "str": "3", "scalar": None}
TEXT = {"bool": "2,True", "float": "2,1.0", "negative": "2,-1", "str": "two", "scalar": 3}
RECORD = {"bool": True, "float": 2.0, "negative": -1, "str": "21", "scalar": (2, 1)}
# ceil_half takes any int, negative ones included.
INT = {k: v for k, v in SIZE.items() if k != "negative"}

B = object()  # the slot of a call that takes the bad value
P = (2, 1)
FRAME = RectangleFrame(4, 2, 2, 1)


def _triple(name, *rest):
    """Rows for a function of a triple, one per slot, with rest after it."""
    return [(name, PART, tuple(B if i == slot else P for i in range(3)) + rest) for slot in range(3)]


# (public name, bad values, arguments with B in one slot).  Every function in
# kronkit.__all__ has a row: records and error classes are exempt.
BAD_INPUT = [
    ("Partition", PART, (B,)),
    ("SkewShape", PART, (B, ())),
    ("SkewShape", PART, (P, B)),
    ("RectangleFrame", SIZE, (B, 1, 1, 1)),
    ("conjugate", PART, (B,)),
    ("intersect", PART, (B, P)),
    ("intersect", PART, (P, B)),
    ("partitions_of", SIZE, (B,)),
    ("parse_partition", TEXT, (B,)),
    ("format_partition", PART, (B,)),
    ("coerce_same_size", PART, (B, P)),
    ("coerce_same_size", PART, (P, B)),
    ("lr_coeff", RECORD, (B, P)),
    ("lr_coeff", PART, (SkewShape(P, ()), B)),
    *_triple("lr_pair_count"),
    ("kostka", PART, (B, P)),
    ("kostka", PART, (P, B)),
    ("perm_character_decomp", PART, (B,)),
    ("cycle_types", SIZE, (B,)),
    ("class_weights", SIZE, (B,)),
    ("mn_value", PART, (B, P)),
    ("mn_value", PART, (P, B)),
    ("character_row", PART, (B,)),
    ("dimension", PART, (B,)),
    ("cycle_sign", PART, (B,)),
    ("skew_character", RECORD, (B,)),
    ("ceil_half", INT, (B,)),
    *_triple("stability_inflate", FRAME),
    ("stability_inflate", RECORD, (P, P, P, B)),
    *_triple("rectangle_reduce"),
    *_triple("two_row_formula"),
    *_triple("four_two_two_formula"),
    *_triple("kron_coeff_direct"),
    ("kron_expand", PART, (B, P)),
    ("kron_expand", PART, (P, B)),
    ("expansion[nu]", PART, (B,)),
    *_triple("kron_coeff"),
    *_triple("canonical_triple"),
    *_triple("dvir_reduce"),
]


def _call(name, args):
    if name == "expansion[nu]":
        return kronkit.kron_expand(P, P)[args[0]]
    result = getattr(kronkit, name)(*args)
    # partitions_of is a generator, which checks its input once it starts.
    return list(result) if isinstance(result, types.GeneratorType) else result


@pytest.mark.parametrize(
    "name, args, value",
    [
        pytest.param(name, args, value, id=f"{name}-{args.index(B)}-{kind}")
        for name, bad, args in BAD_INPUT
        for kind, value in bad.items()
    ],
)
def test_bad_input_raises_a_kronkit_error(name, args, value):
    args = tuple(value if a is B else a for a in args)
    # Anything but a KronkitError, a raw TypeError say, escapes and fails the test.
    with pytest.raises(KronkitError):
        _call(name, args)


def test_every_function_has_a_bad_input_row():
    functions = {n for n in kronkit.__all__ if not isinstance(getattr(kronkit, n), type)}
    assert functions - {name for name, _, _ in BAD_INPUT} == set()
