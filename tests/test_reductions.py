import pytest

from kronkit import (
    Partition,
    RectangleFrame,
    Reduced,
    ShapeError,
    SizeMismatchError,
    Zero,
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


class TestRectangleReduce:
    def test_zero_branch(self):
        decision = rectangle_reduce((2, 2, 2, 2), (4, 4), (5, 3))
        assert isinstance(decision, Zero)
        assert decision.frame == RectangleFrame(4, 2, 2, 2)

    def test_full_cancellation(self):
        decision = rectangle_reduce((2, 2, 2, 2), (4, 4), (4, 4))
        assert isinstance(decision, Reduced)
        assert decision.triple == (P(), P(), P())
        assert decision.frame == RectangleFrame(4, 2, 2, 2)

    def test_degenerate_frame_found(self):
        # a frame with q = 1 exists here (p = 3 = 1 * 3) and it is sound
        decision = rectangle_reduce((3, 2, 1), (3, 2, 1), (6,))
        assert isinstance(decision, Reduced)
        assert decision.frame == RectangleFrame(3, 1, 3, 1)
        assert decision.triple == (P(2, 1), P(3), P(2, 1))
        assert kron_coeff_direct((3, 2, 1), (3, 2, 1), (6,)) == kron_coeff_direct(
            *decision.triple
        )

    def test_not_applicable(self):
        assert rectangle_reduce((2, 1), (2, 1), (2, 1)) is None
        assert rectangle_reduce((), (), ()) is None

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            rectangle_reduce((2, 1), (2, 1), (2, 2))


class TestVanishingLr:
    """A Zero verdict of rectangle_reduce also makes the pair count lr vanish."""

    def test_true_case(self):
        assert isinstance(rectangle_reduce((2, 2, 2, 2), (5, 3), (4, 4)), Zero)

    def test_false_case(self):
        assert isinstance(rectangle_reduce((1, 1, 1, 1), (2, 2), (2, 2)), Reduced)

    def test_soundness(self):
        # lengths p = q*r in argument order; where Zero fires, lr(lam, mu; nu) = 0
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
                        if isinstance(rectangle_reduce(lam, mu, nu), Zero):
                            assert lr_pair_count(lam, mu, nu) == 0


class TestDvirReduce:
    def test_rectangle_case(self):
        assert dvir_reduce((2, 2), (2, 2), (1, 1, 1, 1)) == 1

    def test_single_box_skews(self):
        assert dvir_reduce((3, 1), (2, 2), (2, 1, 1)) == 1

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
                        assert dvir_reduce(lam, mu, nu) == kron_coeff_direct(lam, mu, nu)


class TestTwoRowFormula:
    def test_trivial_component(self):
        value, info = two_row_formula((3, 3), (3, 3), (6,))
        assert (value, info["x"], info["y"]) == (1, 0, 1)

    def test_cube_four_two(self):
        value, info = two_row_formula((4, 2), (4, 2), (4, 2))
        assert (value, info["x"], info["y"]) == (2, 0, 2)

    def test_cube_five_one(self):
        value, info = two_row_formula((5, 1), (5, 1), (5, 1))
        assert (value, info["x"], info["y"]) == (1, 0, 1)

    def test_records_permutation(self):
        _, info = two_row_formula((6,), (3, 3), (4, 2))
        lam, mu, nu = info["ordered"]
        assert lam.part(1) >= mu.part(1) >= nu.part(1)

    def test_rejects_long_partition(self):
        with pytest.raises(ShapeError):
            two_row_formula((2, 2, 2), (3, 3), (3, 3))


class TestFourTwoTwoFormula:
    def test_example_seven(self):
        value, info = four_two_two_formula((3, 2, 1, 1), (4, 3), (4, 3))
        assert (value, info["x"], info["y"], info["case"]) == (1, 0, 1, 1)

    def test_example_eight(self):
        value, info = four_two_two_formula((2, 2, 2, 2), (4, 4), (4, 4))
        assert (value, info["x"], info["y"], info["case"]) == (1, 0, 1, 1)

    def test_example_eight_uneven(self):
        value, info = four_two_two_formula((4, 2, 1, 1), (5, 3), (5, 3))
        assert (value, info["x"], info["y"]) == (1, 0, 1)

    def test_case_two(self):
        # lam2 + lam3 > mu2 exercises the z branch
        lam, mu, nu = (3, 3, 1, 1), (5, 3), (5, 3)
        value, info = four_two_two_formula(lam, mu, nu)
        assert (value, info["case"], info["z"]) == (1, 2, 1)
        assert value == kron_coeff_direct(lam, mu, nu)

    def test_rejects_unequal_bottom_rows(self):
        with pytest.raises(ShapeError):
            four_two_two_formula((3, 2, 2, 1), (4, 4), (4, 4))

    def test_rejects_hypothesis_violation(self):
        with pytest.raises(ShapeError):
            four_two_two_formula((3, 3, 2, 2), (9, 1), (8, 2))


class TestFourTwoTwoReduce:
    """rectangle_reduce on triples of exact lengths (4, 2, 2): the frame (4, 2, 2, lam4)."""

    def test_reduces_to_smaller_triple(self):
        decision = rectangle_reduce((3, 2, 1, 1), (4, 3), (4, 3))
        assert isinstance(decision, Reduced)
        assert decision.triple == (P(2, 1), P(2, 1), P(2, 1))
        assert decision.frame == RectangleFrame(4, 2, 2, 1)

    def test_zero_branch(self):
        decision = rectangle_reduce((2, 1, 1, 1), (4, 1), (4, 1))
        assert decision == Zero(RectangleFrame(4, 2, 2, 1))
        assert kron_coeff_direct((2, 1, 1, 1), (4, 1), (4, 1)) == 0

    def test_full_cancellation(self):
        decision = rectangle_reduce((1, 1, 1, 1), (2, 2), (2, 2))
        assert isinstance(decision, Reduced)
        assert decision.triple == (P(), P(), P())

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
                        value, _ = four_two_two_formula(lam, mu, nu)
                        decision = rectangle_reduce(lam, mu, nu)
                        if isinstance(decision, Zero):
                            assert value == 0
                        else:
                            other, _ = two_row_formula(*decision.triple)
                            assert other == value
