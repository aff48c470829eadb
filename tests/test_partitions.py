from hypothesis import given, strategies as st
import pytest

from kronkit import (
    Composition,
    Partition,
    PartitionError,
    Rectangle,
    ShapeError,
    add_rectangle,
    conjugate,
    format_partition,
    intersect,
    kron_coeff,
    parse_partition,
    partitions_of,
    skew,
    subtract_rectangle,
)
from oracles import pentagonal_counts


@st.composite
def partitions_st(draw, max_part=9, max_rows=6):
    parts = draw(st.lists(st.integers(1, max_part), max_size=max_rows))
    return Partition(sorted(parts, reverse=True))


def all_partitions_up_to(limit):
    for m in range(limit + 1):
        yield from partitions_of(m)


class TestPartitionType:
    def test_trailing_zeros_equal(self):
        assert Partition((3, 2, 1, 0, 0)) == Partition((3, 2, 1))
        assert Partition((0, 0)) == Partition(())

    def test_rejects_increasing(self):
        with pytest.raises(PartitionError):
            Partition((1, 3))

    def test_rejects_negative(self):
        with pytest.raises(PartitionError):
            Partition((2, -1))

    def test_rejects_non_integer(self):
        with pytest.raises(PartitionError):
            Partition((2.0, 1.0))

    def test_rejects_bool(self):
        with pytest.raises(PartitionError):
            Partition((True,))
        with pytest.raises(PartitionError):
            Partition((2, False))
        with pytest.raises(PartitionError):
            kron_coeff((True,), (1,), (1,))

    def test_partition_input_returned_as_is(self):
        lam = Partition((3, 2, 1))
        assert Partition(lam) is lam
        for raw in ((3, 2, 1, 0), [3, 2, 1]):
            got = Partition(raw)
            assert type(got) is Partition and got == lam and got is not raw
        with pytest.raises(PartitionError):
            Partition([1, 3])

    def test_size_length_part(self):
        lam = Partition((4, 2, 1))
        assert lam.size == 7
        assert lam.length == 3
        assert lam.part(0) == 4
        assert lam.part(5) == 0
        assert lam.pad(5) == (4, 2, 1, 0, 0)

    def test_pad_too_short(self):
        with pytest.raises(ShapeError):
            Partition((3, 2, 1)).pad(2)

    def test_contains(self):
        assert Partition((3, 2)).contains((2, 2))
        assert not Partition((3, 2)).contains((1, 1, 1))


class TestConjugate:
    def test_examples(self):
        assert conjugate((3, 1)) == Partition((2, 1, 1))
        assert conjugate(()) == Partition(())
        assert conjugate((2, 2)) == Partition((2, 2))

    def test_involution_exhaustive(self):
        for lam in all_partitions_up_to(12):
            assert conjugate(conjugate(lam)) == lam

    @given(partitions_st())
    def test_involution_property(self, lam):
        assert conjugate(conjugate(lam)) == lam


class TestIntersect:
    def test_examples(self):
        assert intersect((3, 1), (2, 2)) == Partition((2, 1))
        lam = Partition((4, 2, 1))
        assert intersect(lam, lam) == lam

    def test_rectangle_with_conjugate(self):
        # used in the stability proof: a rectangle meets its conjugate in itself
        box = Partition((2, 2))
        got = intersect(box, conjugate(box))
        rowwise = Partition(min(a, b) for a, b in zip(box.pad(4), conjugate(box).pad(4)))
        assert got == rowwise == box

    @given(partitions_st(), partitions_st())
    def test_commutative_and_contained(self, lam, mu):
        got = intersect(lam, mu)
        assert got == intersect(mu, lam)
        assert lam.contains(got) and mu.contains(got)

    @given(partitions_st())
    def test_idempotent(self, lam):
        assert intersect(lam, lam) == lam


class TestRectangles:
    def test_add_examples(self):
        assert add_rectangle((2, 1), Rectangle(1, 4)) == Partition((3, 2, 1, 1))
        assert add_rectangle((), Rectangle(2, 2)) == Partition((2, 2))
        assert add_rectangle((1, 1), Rectangle(3, 2)) == Partition((4, 4))

    def test_add_rejects_long(self):
        with pytest.raises(ShapeError):
            add_rectangle((1, 1, 1), Rectangle(1, 2))

    def test_subtract_examples(self):
        assert subtract_rectangle((3, 2, 1, 1), Rectangle(1, 4)) == Partition((2, 1))
        assert subtract_rectangle((2, 2), Rectangle(2, 2)) == Partition(())
        assert subtract_rectangle((4, 3), Rectangle(2, 2)) == Partition((2, 1))

    def test_subtract_rejects(self):
        with pytest.raises(ShapeError):
            subtract_rectangle((3, 1), Rectangle(2, 2))
        with pytest.raises(ShapeError):
            subtract_rectangle((2, 2, 1), Rectangle(1, 2))

    def test_rectangle_validation(self):
        with pytest.raises(ShapeError):
            Rectangle(0, 3)
        with pytest.raises(ShapeError):
            Rectangle(2, 0)

    @given(partitions_st(max_rows=4), st.integers(1, 5), st.integers(0, 3))
    def test_subtract_inverts_add(self, lam, width, extra):
        rect = Rectangle(width, lam.length + extra if lam.length + extra else 1)
        inflated = add_rectangle(lam, rect)
        assert subtract_rectangle(inflated, rect) == lam


class TestSkew:
    def test_single_box(self):
        shape = skew((3, 1), (2, 1))
        assert shape.size == 1
        assert list(shape.cells()) == [(0, 2)]

    def test_empty(self):
        lam = Partition((3, 2))
        assert skew(lam, lam).size == 0

    def test_corner_box(self):
        assert list(skew((2, 2), (2, 1)).cells()) == [(1, 1)]

    def test_rejects_non_contained(self):
        with pytest.raises(ShapeError):
            skew((2, 2), (3,))

    @given(partitions_st(), partitions_st())
    def test_cardinality(self, lam, mu):
        inner = intersect(lam, mu)
        shape = skew(lam, inner)
        assert shape.size == lam.size - inner.size
        assert len(list(shape.cells())) == shape.size


class TestPartitionsOf:
    def test_small_counts(self):
        assert len(list(partitions_of(4))) == 5
        assert list(partitions_of(0)) == [Partition(())]

    def test_reverse_lex_order(self):
        assert list(partitions_of(5, max_length=2)) == [
            Partition((5,)),
            Partition((4, 1)),
            Partition((3, 2)),
        ]

    def test_counts_against_recurrence(self):
        expected = pentagonal_counts(20)
        for m in range(21):
            assert sum(1 for _ in partitions_of(m)) == expected[m]

    def test_max_part_bound(self):
        got = list(partitions_of(4, max_part=2))
        assert got == [Partition((2, 2)), Partition((2, 1, 1)), Partition((1, 1, 1, 1))]

    def test_each_exactly_once(self):
        for m in range(9):
            seen = list(partitions_of(m))
            assert len(seen) == len(set(seen))
            assert all(p.size == m for p in seen)


class TestTextFormat:
    def test_parse_examples(self):
        assert parse_partition("4,2,1") == Partition((4, 2, 1))
        assert parse_partition("3,2,1,0,0") == Partition((3, 2, 1))
        with pytest.raises(PartitionError):
            parse_partition("1,3")

    def test_brackets_accepted(self):
        assert parse_partition("[3,2]") == Partition((3, 2))
        assert parse_partition("(3,2)") == Partition((3, 2))
        with pytest.raises(PartitionError):
            parse_partition("[3,2")

    def test_empty_forms(self):
        assert parse_partition("") == Partition(())
        assert parse_partition("[]") == Partition(())
        assert format_partition(()) == ""

    def test_garbage_rejected(self):
        with pytest.raises(PartitionError):
            parse_partition("3,a,1")

    def test_format_canonical(self):
        assert format_partition((3, 2, 1, 0)) == "3,2,1"

    @given(partitions_st())
    def test_round_trip(self, lam):
        assert parse_partition(format_partition(lam)) == lam


class TestComposition:
    def test_valid(self):
        pi = Composition((2, 1, 2))
        assert pi.size == 5

    def test_rejects_zero_part(self):
        with pytest.raises(PartitionError):
            Composition((2, 0, 1))

    def test_rejects_bool(self):
        with pytest.raises(PartitionError):
            Composition((2, True))
