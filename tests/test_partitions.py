import pickle
import re

from hypothesis import given, strategies as st
import pytest

from kronkit import (
    Partition,
    PartitionError,
    RectangleFrame,
    ShapeError,
    SizeMismatchError,
    SkewShape,
    conjugate,
    cycle_types,
    format_partition,
    intersect,
    kostka,
    kron_coeff,
    lr_pair_count,
    parse_partition,
    partitions_of,
    perm_character_decomp,
    rectangle_reduce,
    stability_inflate,
)
from kronkit.characters import _counts
from kronkit.lr import _composition, _hstrips
from kronkit.partitions import _cells, _partitions_between
from kronkit.reductions import _narrow, _widen
from oracles import (
    all_partitions,
    brute_hstrip_shapes,
    brute_partitions,
    brute_subshapes,
    pentagonal_counts,
)


@st.composite
def partitions_st(draw, max_part=9, max_rows=6):
    parts = draw(st.lists(st.integers(1, max_part), max_size=max_rows))
    return Partition(sorted(parts, reverse=True))


def P(*parts):
    return Partition(parts)


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

    # Each rejected input with the message the checks give it, the first
    # failing part deciding.  Partition.__new__ runs its type, sign and
    # order checks in that order on each part, so these messages are fixed.
    @pytest.mark.parametrize(
        "raw, message",
        [
            ((True,), "partition parts must be integers, got True"),
            ((2, False), "partition parts must be integers, got False"),
            ((1, 1, True), "partition parts must be integers, got True"),
            ((2.0, 1.0), "partition parts must be integers, got 2.0"),
            ((3, 1.5), "partition parts must be integers, got 1.5"),
            (("3",), "partition parts must be integers, got '3'"),
            ((3, "2"), "partition parts must be integers, got '2'"),
            ((None,), "partition parts must be integers, got None"),
            ((2, -1), "negative part -1 in (2, -1)"),
            ((-1,), "negative part -1 in (-1,)"),
            ((0, -1), "negative part -1 in (0, -1)"),
            ((1, 3), "parts not weakly decreasing: (1, 3)"),
            ((3, 1, 2), "parts not weakly decreasing: (3, 1, 2)"),
            ((3, 0, 1), "parts not weakly decreasing: (3, 0, 1)"),
            ((0, 1), "parts not weakly decreasing: (0, 1)"),
            ((2, 0, 0, 1), "parts not weakly decreasing: (2, 0, 0, 1)"),
            (3, "a partition is an iterable of ints, got 3"),
            (None, "a partition is an iterable of ints, got None"),
        ],
    )
    def test_rejection_messages(self, raw, message):
        with pytest.raises(PartitionError) as exc:
            Partition(raw)
        assert str(exc.value) == message

    def test_int_subclass_parts_accepted(self):
        class Part(int):
            pass

        got = Partition((Part(3), Part(1), Part(1), Part(0)))
        assert got == Partition((3, 1, 1)) and len(got) == 3
        with pytest.raises(PartitionError, match="not weakly decreasing"):
            Partition((Part(1), 2))

    @given(st.lists(st.integers(-2, 4), max_size=6))
    def test_accepts_exactly_the_partitions(self, raw):
        valid = all(a >= 0 for a in raw) and all(a >= b for a, b in zip(raw, raw[1:]))
        if valid:
            while raw and raw[-1] == 0:
                raw.pop()
            assert tuple(Partition(raw)) == tuple(raw)
        else:
            with pytest.raises(PartitionError):
                Partition(raw)

    def test_size_length_part(self):
        lam = Partition((4, 2, 1))
        assert lam.size == 7
        assert lam.length == 3
        assert lam.part(0) == 4
        assert lam.part(5) == 0

    def test_pickles_as_a_partition(self):
        for lam in [Partition((3, 1, 1)), Partition()]:
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                back = pickle.loads(pickle.dumps(lam, protocol))
                assert type(back) is Partition and back == lam

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
        padded = tuple(box) + (0,) * 2, tuple(conjugate(box)) + (0,) * 2
        rowwise = Partition(min(a, b) for a, b in zip(*padded))
        assert got == rowwise == box

    @given(partitions_st(), partitions_st())
    def test_commutative_and_contained(self, lam, mu):
        got = intersect(lam, mu)
        assert got == intersect(mu, lam)
        assert lam.contains(got) and mu.contains(got)

    @given(partitions_st())
    def test_idempotent(self, lam):
        assert intersect(lam, lam) == lam

    def test_cell_mask_rows(self):
        # |(2, 1)| = 3, so row i starts at bit 4i.
        assert _cells(P(2, 1)) == 0b1_0011
        assert _cells(P(3)) == 0b111
        assert _cells(P()) == 0

    def test_cell_mask_popcount_is_the_intersection_size(self):
        # The Dvir bounds count |a ∩ b| and |a ∩ b'| this way; dvir_reduce
        # takes a' ∩ b as the conjugate of a ∩ b'.
        for m in range(11):
            parts = list(partitions_of(m))
            for a in parts:
                for b in parts:
                    assert (_cells(a) & _cells(b)).bit_count() == intersect(a, b).size
                    cross = (_cells(a) & _cells(conjugate(b))).bit_count()
                    assert cross == intersect(a, conjugate(b)).size, (a, b)
                    got = conjugate(intersect(a, conjugate(b)))
                    assert got == intersect(conjugate(a), b), (a, b)


class TestRectangles:
    """A frame's rectangles, one partition at a time: the pair _widen/_narrow
    behind stability_inflate and rectangle_reduce, and the checks in front."""

    def test_add_examples(self):
        assert _widen(P(2, 1), 1, 4) == Partition((3, 2, 1, 1))
        assert _widen(P(), 2, 2) == Partition((2, 2))
        assert _widen(P(1, 1), 3, 2) == Partition((4, 4))

    def test_add_rejects_long(self):
        # Each of the three partitions must fit its frame's row count.
        frame = RectangleFrame(2, 1, 2, 1)
        for triple, lengths in [
            (((1, 1, 1), (3,), (3,)), (3, 1, 1)),
            (((3,), (2, 1), (3,)), (1, 2, 1)),
            (((3,), (3,), (1, 1, 1)), (1, 1, 3)),
        ]:
            with pytest.raises(ShapeError, match=re.escape(f"lengths {lengths} exceed frame")):
                stability_inflate(*triple, frame)

    def test_subtract_examples(self):
        assert _narrow(P(3, 2, 1, 1), 1) == Partition((2, 1))
        assert _narrow(P(2, 2), 2) == Partition(())
        assert _narrow(P(4, 3), 2) == Partition((2, 1))

    def test_subtract_rejects(self):
        # A part below its rectangle's width proves the triple zero and is not
        # peeled; lengths with no p = q*r admit no frame at all.
        step = rectangle_reduce((1, 1, 1, 1), (3, 1), (2, 2))
        assert (step.theorem, step.value) == ("vanishing", 0)
        assert step.after == step.before
        assert rectangle_reduce((2, 2, 1), (3, 2), (4, 1)) is None

    def test_rectangle_validation(self):
        for i in range(4):
            for bad in (0, -1):
                entries = [1, 1, 1, 1]
                entries[i] = bad
                with pytest.raises(ShapeError, match="frame entries must be positive ints"):
                    RectangleFrame(*entries)

    @given(partitions_st(max_rows=4), st.integers(1, 5), st.integers(0, 3))
    def test_subtract_inverts_add(self, lam, width, extra):
        height = max(1, lam.length + extra)
        assert _narrow(_widen(lam, width, height), width) == lam


def assert_checked(x):
    """x is a Partition, and Partition() would have built the same one."""
    assert type(x) is Partition
    assert x == Partition(tuple(x))
    assert 0 not in x and all(type(a) is int for a in x)


@st.composite
def inflated_triples(draw):
    """A triple of partitions of one m <= 6, and a frame with p <= 6 it fits."""
    m = draw(st.integers(0, 6))
    q, r = draw(st.sampled_from([(q, r) for q in range(1, 7) for r in range(1, 7) if q * r <= 6]))
    frame = RectangleFrame(q * r, q, r, draw(st.integers(1, 3)))
    triple = tuple(draw(st.sampled_from(list(partitions_of(m, rows)))) for rows in frame[:3])
    return triple, frame


def peeled(step):
    """step.before minus its frame's rectangles, row by row, sorted: each
    partition loses the width that goes with its length."""
    p, q, r, t = step.frame
    width = {p: t, q: r * t, r: q * t}  # lengths that coincide share a width
    return sorted(Partition(a - width[len(lam)] for a in lam) for lam in step.before)


class TestDerivedPartitions:
    """The shapes built from checked ones skip the checks, so they must be
    weakly decreasing positive ints with no trailing zeros by construction."""

    @given(partitions_st(), partitions_st())
    def test_conjugate_and_intersect(self, lam, mu):
        assert_checked(conjugate(lam))
        assert_checked(intersect(lam, mu))
        assert intersect(lam, mu) == Partition(min(a, b) for a, b in zip(lam, mu))

    @given(inflated_triples())
    def test_add_and_subtract(self, case):
        triple, frame = case
        p, q, r, t = frame
        big = stability_inflate(*triple, frame)
        for lam, rows, width, x in zip(triple, (p, q, r), (t, r * t, q * t), big):
            assert_checked(x)
            assert x == Partition(lam.part(i) + width for i in range(rows))
        # A base shorter than its rows leaves zeros in the peel before they
        # are stripped.
        step = rectangle_reduce(*big)
        for x in step.after:
            assert_checked(x)
        if step.theorem == "rectangle-reduce":
            assert sorted(step.after) == peeled(step)

    def test_subtract_any_rectangle_it_covers(self):
        # Every peel of every triple of m <= 6, not only of inflated ones.
        peels = 0
        for m in range(7):
            parts = list(partitions_of(m))
            for triple in ((a, b, c) for a in parts for b in parts for c in parts):
                step = rectangle_reduce(*triple)
                if step is None or step.theorem != "rectangle-reduce":
                    continue
                peels += 1
                for x in step.after:
                    assert_checked(x)
                assert sorted(step.after) == peeled(step)
                assert sorted(stability_inflate(*step.after, step.frame)) == sorted(triple)
        assert peels

    def test_subtract_strips_zeros(self):
        step = rectangle_reduce((2, 1), (3,), (2, 1))
        assert step.frame == RectangleFrame(2, 1, 2, 1)
        assert step.after == (P(1), P(1), P(1))
        for x in step.after:
            assert_checked(x)
        step = rectangle_reduce((1, 1, 1, 1), (2, 2), (2, 2))
        assert step.after == ((), (), ())
        assert all(type(x) is Partition for x in step.after)

    def test_rectangles_not_of_ints_are_checked(self):
        # RectangleFrame takes plain positive ints only, in every position,
        # and stability_inflate takes nothing else, so no raw TypeError escapes.
        for i in range(4):
            for bad in (1.0, True, "1"):
                entries = [1, 1, 1, 1]
                entries[i] = bad
                with pytest.raises(ShapeError, match="frame entries must be positive ints"):
                    RectangleFrame(*entries)
                with pytest.raises(ShapeError, match="frame must be a RectangleFrame"):
                    stability_inflate((1,), (1,), (1,), tuple(entries))

    def test_bad_input_keeps_its_error(self):
        with pytest.raises(PartitionError, match="must be integers, got True"):
            rectangle_reduce((2, True), (3,), (2, 1))
        with pytest.raises(PartitionError, match="not weakly decreasing"):
            rectangle_reduce((1, 2), (3,), (2, 1))
        with pytest.raises(SizeMismatchError, match=r"sizes differ: \[3, 3, 4\]"):
            rectangle_reduce((2, 1), (3,), (2, 2))


class TestSkew:
    def test_single_box(self):
        shape = SkewShape((3, 1), (2, 1))
        assert shape.size == 1
        assert (shape.outer, shape.inner) == (Partition((3, 1)), Partition((2, 1)))

    def test_empty(self):
        lam = Partition((3, 2))
        assert SkewShape(lam, lam).size == 0

    def test_corner_box(self):
        assert SkewShape((2, 2), (2, 1)).size == 1

    def test_rejects_non_contained(self):
        with pytest.raises(ShapeError):
            SkewShape((2, 2), (3,))

    @given(partitions_st(), partitions_st())
    def test_cardinality(self, lam, mu):
        # size is the cells row by row: outer[i] - inner[i] >= 0 on every row
        inner = intersect(lam, mu)
        shape = SkewShape(lam, inner)
        widths = [a - inner.part(i) for i, a in enumerate(lam)]
        assert min(widths, default=0) >= 0
        assert shape.size == sum(widths) == lam.size - inner.size


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

    def test_bounds_against_filter(self):
        bounds = (None, 0, 1, 2, 5)
        for m in range(21):
            for max_length in bounds:
                for max_part in bounds:
                    want = brute_partitions(m, max_length, max_part)
                    assert list(partitions_of(m, max_length, max_part)) == want

    def test_longer_than_the_recursion_limit(self):
        assert next(partitions_of(3000, max_part=1)) == (1,) * 3000

    def test_yields_checked_partitions(self):
        # partitions_of skips Partition's checks; what it yields must pass them.
        for m in range(16):
            for max_length in (None, 0, 3):
                for p in partitions_of(m, max_length, max_part=None if m % 2 else m // 2):
                    assert type(p) is Partition
                    assert Partition(tuple(p) + (0,)) == p
        with pytest.raises(PartitionError):
            list(partitions_of(-1))

    @pytest.mark.parametrize(
        "args",
        [(True,), (2.5,), (2.0,), ("3",), (None,), (3, 2.0), (3, None, True), (3, True, 1)],
    )
    def test_refuses_arguments_not_plain_ints(self, args):
        with pytest.raises(PartitionError, match="need an int m and int or None bounds"):
            list(partitions_of(*args))
        if len(args) == 1:
            # The entries cached for 2 and 1 do not answer for 2.0 or True.
            cycle_types(2)
            cycle_types(1)
            with pytest.raises(PartitionError, match="need an int m and int or None bounds"):
                cycle_types(*args)

    @pytest.mark.parametrize("args", [(0, -1), (0, None, -2), (3, -1)])
    def test_refuses_negative_bounds(self, args):
        # No partition has a negative length or part, the empty one included.
        with pytest.raises(PartitionError, match="bounds must be >= 0 or None"):
            list(partitions_of(*args))


class TestCycleTypes:
    """ZS1, the generator behind cycle_types and the unbounded partitions_of,
    against the bounded enumerator with bounds that bind nothing."""

    def test_matches_the_bounded_enumerator(self):
        for n in range(41):
            got = cycle_types(n)
            assert list(got) == list(_partitions_between(n, (0,) * n, (n,) * n))
            assert len(got) == _counts(n)[n][n]
            assert all(type(p) is Partition for p in got)

    def test_empty_and_negative(self):
        assert cycle_types(0) == ((),)
        with pytest.raises(PartitionError) as want:
            list(partitions_of(-1))
        with pytest.raises(PartitionError) as got:
            cycle_types(-1)
        assert str(got.value) == str(want.value)

    def test_unbounded_partitions_of(self):
        for m in range(26):
            assert tuple(partitions_of(m)) == cycle_types(m)
        # lazily: the first of p(3000) partitions comes without the rest
        assert next(partitions_of(3000)) == (3000,)


class TestPartitionsBetween:
    """The enumerator behind the bounded partitions_of and the tableau
    counters, against filters over every partition of the size, order
    included."""

    def test_sub_shapes(self):
        for m in range(13):
            for lam in all_partitions(m):
                for size in range(m + 1):
                    got = list(_partitions_between(size, (0,) * len(lam), lam))
                    assert got == brute_subshapes(lam, size)

    def test_horizontal_strips(self):
        for m in range(13):
            for lam in all_partitions(m):
                # the last bound lets each row, and one new row, grow by one cell
                for k in range(4):
                    n = m + k
                    want = brute_hstrip_shapes(lam, n)
                    assert list(_hstrips(lam, k, (n,) * n)) == want
                    bound = tuple(a + 1 for a in lam) + (1,)
                    inside = [nu for nu in want if nu in brute_subshapes(bound, n)]
                    assert list(_hstrips(lam, k, bound)) == inside

    def test_horizontal_strips_below_fixed_rows(self):
        # A bound that meets the first r rows of lam leaves them no room to
        # grow, so only the rows below them are enumerated.
        for m in range(11):
            for lam in all_partitions(m):
                for k in range(4):
                    n = m + k
                    want = brute_hstrip_shapes(lam, n)
                    for r in range(len(lam) + 1):
                        bound = tuple(lam[:r]) + (n,) * (n - r)
                        inside = [nu for nu in want if nu in brute_subshapes(bound, n)]
                        assert list(_hstrips(lam, k, bound)) == inside


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
    """A composition pi is checked where it enters lr, by the same check in
    each of lr_pair_count, kostka and perm_character_decomp."""

    ENTRY_POINTS = [
        lambda pi: lr_pair_count((3, 2), (3, 2), pi),
        lambda pi: kostka((3, 2), pi),
        perm_character_decomp,
    ]

    def test_valid(self):
        pi = (2, 1, 2)
        assert lr_pair_count((3, 2), (3, 2), pi) == lr_pair_count((3, 2), (3, 2), (2, 2, 1))
        assert kostka((3, 2), pi) == kostka((3, 2), (2, 2, 1)) == 2
        assert {sum(nu) for nu in perm_character_decomp(pi)} == {5}

    def test_rejects_zero_part(self):
        for call in self.ENTRY_POINTS:
            with pytest.raises(PartitionError):
                call((2, 0, 1))

    def test_rejects_bool(self):
        for call in self.ENTRY_POINTS:
            with pytest.raises(PartitionError):
                call((2, True))

    def test_from_a_partition(self):
        for pi in [Partition((3, 1, 1)), Partition()]:
            assert _composition(pi) is pi
        for call in self.ENTRY_POINTS[1:]:
            assert call(Partition((3, 1, 1))) == call((3, 1, 1))

    def test_other_input_is_checked(self):
        # Only a Partition skips the checks; a tuple of the same parts does not.
        for call in self.ENTRY_POINTS:
            with pytest.raises(PartitionError, match="must be positive"):
                call((3, 0, 1))
            with pytest.raises(PartitionError, match="must be integers, got 1.0"):
                call([3, 1.0])
