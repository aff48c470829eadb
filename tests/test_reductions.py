import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kronkit import (
    Partition,
    PartitionError,
    RectangleFrame,
    ShapeError,
    SizeMismatchError,
    SkewShape,
    TraceStep,
    ceil_half,
    dvir_reduce,
    four_two_two_formula,
    kron_coeff_direct,
    lr_pair_count,
    rectangle_reduce,
    stability_inflate,
    two_row_formula,
)
from kronkit.partitions import partitions_of


def P(*parts):
    return Partition(parts)


class TestCeilHalf:
    def test_negative_numerators(self):
        # (value, ceil(value/2)) pairs, the negative side being the trap
        table = [(-7, -3), (-6, -3), (-5, -2), (-4, -2), (-3, -1), (-2, -1), (-1, 0)]
        for a, want in table:
            assert ceil_half(a) == want

    def test_nonnegative(self):
        for a, want in [(0, 0), (1, 1), (2, 1), (3, 2), (4, 2), (5, 3)]:
            assert ceil_half(a) == want


class TestRectangleFrame:
    def test_validates(self):
        with pytest.raises(ShapeError):
            RectangleFrame(4, 2, 3, 1)
        with pytest.raises(ShapeError):
            RectangleFrame(4, 2, 2, 0)


@pytest.mark.parametrize(
    "record, text, bad",
    [
        (RectangleFrame(4, 2, 2, 1), "RectangleFrame(p=4, q=2, r=2, t=1)", {"t": 0}),
        # A changed frame is checked for p = q*r too, not only for positive entries.
        (RectangleFrame(1, 1, 1, 5), "RectangleFrame(p=1, q=1, r=1, t=5)", {"p": 2}),
        # The repr shows that both fields became Partitions, trailing zero dropped.
        (
            SkewShape([3, 1, 0], (2,)),
            "SkewShape(outer=Partition((3, 1)), inner=Partition((2,)))",
            {"inner": (4,)},
        ),
    ],
)
def test_records(record, text, bad):
    assert repr(record) == text
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1
    # A changed copy is checked like a new record.
    with pytest.raises(ShapeError):
        record._replace(**bad)


class TestStabilityInflate:
    def test_empty_base(self):
        got = stability_inflate((), (), (), RectangleFrame(4, 2, 2, 1))
        assert got == (P(1, 1, 1, 1), P(2, 2), P(2, 2))

    def test_componentwise(self):
        got = stability_inflate((2, 1), (2, 1), (2, 1), RectangleFrame(4, 2, 2, 1))
        assert got == (P(3, 2, 1, 1), P(4, 3), P(4, 3))

    def test_single_row_frame(self):
        got = stability_inflate((1,), (1,), (1,), RectangleFrame(1, 1, 1, 5))
        assert got == (P(6), P(6), P(6))

    def test_rejects_bad_lengths(self):
        with pytest.raises(ShapeError):
            stability_inflate((1, 1, 1), (3,), (3,), RectangleFrame(2, 2, 1, 1))

    def test_coefficient_preserved_small(self):
        frames = [
            RectangleFrame(q * r, q, r, t)
            for q in range(1, 5)
            for r in range(1, 5)
            if q * r <= 4
            for t in (1,)
        ]
        for m in range(4):
            parts = list(partitions_of(m))
            for lam in parts:
                for mu in parts:
                    for nu in parts:
                        base = kron_coeff_direct(lam, mu, nu)
                        for frame in frames:
                            if (
                                lam.length > frame.p
                                or mu.length > frame.q
                                or nu.length > frame.r
                            ):
                                continue
                            big = stability_inflate(lam, mu, nu, frame)
                            assert kron_coeff_direct(*big) == base


@st.composite
def framed_triples(draw):
    """A triple of partitions of one m <= 6 and a frame with p <= 6 it fits."""
    m = draw(st.integers(0, 6))
    parts = st.sampled_from(list(partitions_of(m)))
    triple = draw(parts), draw(parts), draw(parts)
    q, r = draw(st.sampled_from([(q, r) for q in range(1, 7) for r in range(1, 7) if q * r <= 6]))
    frame = RectangleFrame(q * r, q, r, draw(st.integers(1, 3)))
    assume(all(len(lam) <= rows for lam, rows in zip(triple, frame[:3])))
    return triple, frame


class TestStabilityInflateChecks:
    @given(framed_triples())
    def test_results_are_checked_partitions(self, case):
        triple, frame = case
        p, q, r, t = frame
        got = stability_inflate(*triple, frame)
        for lam, rows, width, x in zip(triple, (p, q, r), (t, r * t, q * t), got):
            assert type(x) is Partition
            assert x == Partition(tuple(x)) and 0 not in x
            assert x == Partition(lam.part(i) + width for i in range(rows))

    def test_bad_input_keeps_its_error(self):
        frame = RectangleFrame(4, 2, 2, 1)
        with pytest.raises(PartitionError, match="must be integers, got True"):
            stability_inflate((1, True), (2,), (2,), frame)
        with pytest.raises(SizeMismatchError, match=r"sizes differ: \[2, 3, 2\]"):
            stability_inflate((1, 1), (3,), (2,), frame)
        with pytest.raises(ShapeError, match=r"lengths \(1, 3, 1\) exceed frame"):
            stability_inflate((3,), (1, 1, 1), (3,), frame)

    def test_frames_not_of_ints_are_checked(self):
        # RectangleFrame takes plain positive ints only, so a bad entry stops
        # at construction and no raw TypeError escapes stability_inflate.
        for entries in [(2.0, 1, 2, 1), (1, 1, 1, 1.5), (1, 1, 1, True)]:
            with pytest.raises(ShapeError, match="frame entries must be positive ints"):
                RectangleFrame(*entries)
            with pytest.raises(ShapeError):
                stability_inflate((1,), (1,), (1,), RectangleFrame(*entries))

    # A plain tuple is refused even when it equals a valid RectangleFrame:
    # unchecked, a fraction, a negative width or p != q*r would slip through.
    @pytest.mark.parametrize(
        "frame",
        [(1, 1, 1, 0.5), (1, 1, 1, -3), (2, 1, 1, 1), (1, 1, 1, 1), [1, 1, 1, 1]],
        ids=["fractional-t", "negative-t", "p-not-qr", "valid-entries", "list"],
    )
    def test_frame_must_be_a_rectangle_frame(self, frame):
        with pytest.raises(ShapeError, match="frame must be a RectangleFrame, got"):
            stability_inflate((1,), (1,), (1,), frame)


# Every frame p = q*r <= 16, beyond the verify sweeps' p <= 6 and t <= 2.
WIDE_FRAMES = [(q * r, q, r) for q in range(1, 17) for r in range(1, 17) if q * r <= 16]


@st.composite
def wide_framed_triples(draw):
    """A frame with p <= 16 and t <= 4, and a triple of partitions of one
    m <= 6 that fits it."""
    p, q, r = draw(st.sampled_from(WIDE_FRAMES))
    frame = RectangleFrame(p, q, r, draw(st.integers(1, 4)))
    m = draw(st.integers(0, 6))
    triple = tuple(draw(st.sampled_from(list(partitions_of(m, rows)))) for rows in (p, q, r))
    return triple, frame


class TestWideFrames:
    @settings(max_examples=150, deadline=None)
    @given(wide_framed_triples())
    @example(((P(2, 1), P(2, 1), P(3)), RectangleFrame(8, 2, 4, 1)))
    @example(((P(3, 2, 1), P(2, 2, 2), P(4, 1, 1)), RectangleFrame(9, 3, 3, 1)))
    @example(((P(2, 1), P(1, 1, 1), P(3)), RectangleFrame(9, 3, 3, 4)))
    def test_reduce_undoes_inflate(self, case):
        triple, frame = case
        big = stability_inflate(*triple, frame)
        step = rectangle_reduce(*big)
        # The inflated lengths are exactly (p, q, r); t may grow by the base's last row.
        assert step.frame.p == frame.p
        assert {step.frame.q, step.frame.r} == {frame.q, frame.r}
        if step.theorem == "rectangle-reduce":
            assert sorted(stability_inflate(*step.after, step.frame)) == sorted(big)
        if big[0].size <= 16:
            want = 0 if step.value == 0 else kron_coeff_direct(*step.after)
            assert kron_coeff_direct(*big) == kron_coeff_direct(*triple) == want


class TestRectangleReduce:
    def test_zero_branch(self):
        step = rectangle_reduce((2, 2, 2, 2), (4, 4), (5, 3))
        assert (step.theorem, step.value) == ("vanishing", 0)
        assert step.after == step.before == (P(2, 2, 2, 2), P(4, 4), P(5, 3))
        assert step.frame == RectangleFrame(4, 2, 2, 2)

    def test_full_cancellation(self):
        # a bare frame has coefficient 1, so the peel that empties the triple states it
        step = rectangle_reduce((2, 2, 2, 2), (4, 4), (4, 4))
        assert (step.theorem, step.value) == ("rectangle-reduce", 1)
        assert step.after == (P(), P(), P())
        assert step.frame == RectangleFrame(4, 2, 2, 2)

    def test_degenerate_frame_found(self):
        # a frame with q = 1 exists here (p = 3 = 1 * 3) and it is sound
        step = rectangle_reduce((3, 2, 1), (3, 2, 1), (6,))
        assert (step.theorem, step.value) == ("rectangle-reduce", None)
        assert step.frame == RectangleFrame(3, 1, 3, 1)
        assert step.after == (P(2, 1), P(3), P(2, 1))
        assert kron_coeff_direct((3, 2, 1), (3, 2, 1), (6,)) == kron_coeff_direct(*step.after)

    def test_not_applicable(self):
        assert rectangle_reduce((2, 1), (2, 1), (2, 1)) is None
        assert rectangle_reduce((), (), ()) is None

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            rectangle_reduce((2, 1), (2, 1), (2, 2))


class TestVanishingLr:
    """A vanishing step of rectangle_reduce also makes the pair count lr vanish."""

    def test_true_case(self):
        assert rectangle_reduce((2, 2, 2, 2), (5, 3), (4, 4)).theorem == "vanishing"

    def test_false_case(self):
        assert rectangle_reduce((1, 1, 1, 1), (2, 2), (2, 2)).theorem == "rectangle-reduce"

    def test_soundness(self):
        # lengths p = q*r in argument order; where a frame vanishes, lr(lam, mu; nu) = 0
        for m in range(9):
            parts = list(partitions_of(m))
            for lam in parts:
                p = lam.length
                if p == 0:
                    continue
                for mu in parts:
                    q = mu.length
                    if q == 0 or p % q:
                        continue
                    for nu in parts:
                        if nu.length * q != p:
                            continue
                        step = rectangle_reduce(lam, mu, nu)
                        if step is not None and step.theorem == "vanishing":
                            assert lr_pair_count(lam, mu, nu) == 0


class TestDvirReduce:
    def test_rectangle_case(self):
        triple = (P(2, 2), P(2, 2), P(1, 1, 1, 1))
        assert dvir_reduce(*triple) == TraceStep("dvir", triple, triple, value=1)

    def test_single_box_skews(self):
        assert dvir_reduce((3, 1), (2, 2), (2, 1, 1)).value == 1

    def test_not_applicable(self):
        assert dvir_reduce((3, 1), (2, 2), (2, 2)) is None

    def test_matches_direct_small(self):
        from kronkit import conjugate, intersect

        for m in range(6):
            parts = list(partitions_of(m))
            for lam in parts:
                for mu in parts:
                    rows = intersect(lam, conjugate(mu)).size
                    for nu in parts:
                        if nu.length != rows:
                            continue
                        assert dvir_reduce(lam, mu, nu).value == kron_coeff_direct(lam, mu, nu)


class TestTwoRowFormula:
    def test_trivial_component(self):
        step = two_row_formula((3, 3), (3, 3), (6,))
        assert step.theorem == "formula-2row"
        assert step.before == (P(3, 3), P(3, 3), P(6))
        assert (step.value, step.intermediates) == (1, {"x": 0, "y": 1})

    def test_cube_four_two(self):
        step = two_row_formula((4, 2), (4, 2), (4, 2))
        assert (step.value, step.intermediates) == (2, {"x": 0, "y": 2})

    def test_cube_five_one(self):
        step = two_row_formula((5, 1), (5, 1), (5, 1))
        assert (step.value, step.intermediates) == (1, {"x": 0, "y": 1})

    def test_records_permutation(self):
        step = two_row_formula((6,), (3, 3), (4, 2))
        lam, mu, nu = step.after
        assert lam.part(1) >= mu.part(1) >= nu.part(1)
        assert sorted(step.after) == sorted(step.before)

    def test_rejects_long_partition(self):
        with pytest.raises(ShapeError):
            two_row_formula((2, 2, 2), (3, 3), (3, 3))


class TestFourTwoTwoFormula:
    def test_example_seven(self):
        step = four_two_two_formula((3, 2, 1, 1), (4, 3), (4, 3))
        assert step.theorem == "formula-422"
        assert step.value == 1
        assert step.intermediates == {"x": 0, "y": 1, "z": 1, "case": 1}

    def test_example_eight(self):
        step = four_two_two_formula((2, 2, 2, 2), (4, 4), (4, 4))
        info = step.intermediates
        assert (step.value, info["x"], info["y"], info["case"]) == (1, 0, 1, 1)

    def test_example_eight_uneven(self):
        step = four_two_two_formula((4, 2, 1, 1), (5, 3), (5, 3))
        info = step.intermediates
        assert (step.value, info["x"], info["y"]) == (1, 0, 1)

    def test_case_two(self):
        # lam2 + lam3 > mu2 exercises the z branch
        lam, mu, nu = (3, 3, 1, 1), (5, 3), (5, 3)
        step = four_two_two_formula(lam, mu, nu)
        info = step.intermediates
        assert (step.value, info["case"], info["z"]) == (1, 2, 1)
        assert step.value == kron_coeff_direct(lam, mu, nu)

    def test_rejects_unequal_bottom_rows(self):
        with pytest.raises(ShapeError):
            four_two_two_formula((3, 2, 2, 1), (4, 4), (4, 4))

    def test_rejects_hypothesis_violation(self):
        with pytest.raises(ShapeError):
            four_two_two_formula((3, 3, 2, 2), (9, 1), (8, 2))


class TestFourTwoTwoReduce:
    """rectangle_reduce on triples of exact lengths (4, 2, 2): the frame (4, 2, 2, lam4)."""

    def test_reduces_to_smaller_triple(self):
        step = rectangle_reduce((3, 2, 1, 1), (4, 3), (4, 3))
        assert (step.theorem, step.value) == ("rectangle-reduce", None)
        assert step.after == (P(2, 1), P(2, 1), P(2, 1))
        assert step.frame == RectangleFrame(4, 2, 2, 1)

    def test_zero_branch(self):
        triple = (P(2, 1, 1, 1), P(4, 1), P(4, 1))
        step = rectangle_reduce(*triple)
        assert step == TraceStep("vanishing", triple, triple, RectangleFrame(4, 2, 2, 1), value=0)
        assert kron_coeff_direct((2, 1, 1, 1), (4, 1), (4, 1)) == 0

    def test_full_cancellation(self):
        step = rectangle_reduce((1, 1, 1, 1), (2, 2), (2, 2))
        assert (step.theorem, step.value) == ("rectangle-reduce", 1)
        assert step.after == (P(), P(), P())

    def test_consistency_with_formula(self):
        # the closed formula and reduce-then-two-row agree where both apply
        for m in range(4, 11):
            tall = [p for p in partitions_of(m, max_length=4) if p.length == 4 and p[2] == p[3]]
            short = [p for p in partitions_of(m, max_length=2) if p.length == 2]
            for lam in tall:
                for mu in short:
                    for nu in short:
                        if 2 * lam[2] > min(mu[1], nu[1]):
                            continue
                        value = four_two_two_formula(lam, mu, nu).value
                        step = rectangle_reduce(lam, mu, nu)
                        if step.theorem == "vanishing":
                            assert value == 0
                        else:
                            assert two_row_formula(*step.after).value == value
