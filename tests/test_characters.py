import math

import pytest

from kronkit import (
    CharacterVector,
    ExactnessError,
    Partition,
    SizeMismatchError,
    character_row,
    character_table,
    class_size,
    class_weights,
    conjugate,
    cycle_sign,
    cycle_types,
    dimension,
    inner_product,
    irreducible_character,
    mn_value,
    permutation_character,
    skew,
    skew_character,
)
from kronkit.partitions import partitions_of
from oracles import brute_lr_count


def identity_class(n):
    return Partition((1,) * n)


class TestClassSizes:
    def test_s3(self):
        assert class_size((1, 1, 1)) == 1
        assert class_size((3,)) == 2
        assert class_size((2, 1)) == 3

    def test_sum_is_group_order(self):
        for n in range(13):
            assert sum(class_weights(n)) == math.factorial(n)


class TestMnValue:
    def test_examples(self):
        assert mn_value((2, 1), (1, 1, 1)) == 2
        assert mn_value((2, 1), (3,)) == -1

    def test_trivial_character(self):
        for n in range(1, 7):
            for rho in cycle_types(n):
                assert mn_value((n,), rho) == 1

    def test_matches_hook_dimension(self):
        for n in range(11):
            for lam in partitions_of(n):
                assert mn_value(lam, identity_class(n)) == dimension(lam)

    def test_column_orthogonality_s3(self):
        # sum over irreducibles of chi(rho)^2 equals the centralizer order
        for rho in cycle_types(3):
            total = sum(mn_value(lam, rho) ** 2 for lam in partitions_of(3))
            assert total == math.factorial(3) // class_size(rho)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            mn_value((2, 1), (2, 2))


class TestDimension:
    def test_examples(self):
        assert dimension((5,)) == 1
        assert dimension((2, 1)) == 2
        assert dimension((2, 2)) == 2


class TestCharacterTable:
    def test_n0(self):
        table = character_table(0)
        empty = Partition(())
        assert table[empty].values == {empty: 1}

    def test_n2(self):
        table = character_table(2)
        triv, sign = Partition((2,)), Partition((1, 1))
        assert table[triv].values == {Partition((2,)): 1, Partition((1, 1)): 1}
        assert table[sign].values == {Partition((2,)): -1, Partition((1, 1)): 1}

    def test_n3_standard_row(self):
        row = irreducible_character((2, 1))
        assert row((1, 1, 1)) == 2
        assert row((2, 1)) == 0
        assert row((3,)) == -1

    def test_row_orthogonality(self):
        for n in range(7):
            rows = {lam: character_row(lam) for lam in partitions_of(n)}
            weights = class_weights(n)
            for lam, a in rows.items():
                for mu, b in rows.items():
                    total = sum(w * x * y for w, x, y in zip(weights, a, b))
                    assert total == (math.factorial(n) if lam == mu else 0)

    def test_conjugation_twist(self):
        for n in range(9):
            for lam in partitions_of(n):
                twisted = character_row(conjugate(lam))
                straight = character_row(lam)
                for rho, a, b in zip(cycle_types(n), straight, twisted):
                    assert b == cycle_sign(rho) * a


class TestInnerProduct:
    def test_norm_one(self):
        chi = irreducible_character((3, 1))
        assert inner_product(chi, chi) == 1

    def test_orthogonal(self):
        assert inner_product(irreducible_character((2, 1)), irreducible_character((3,))) == 0

    def test_tensor_square_multiplicity(self):
        chi = irreducible_character((2, 1))
        assert inner_product(chi.tensor(chi), chi) == 1

    def test_degree_mismatch(self):
        with pytest.raises(SizeMismatchError):
            inner_product(irreducible_character((2,)), irreducible_character((2, 1)))

    def test_non_exact_division_raises(self):
        fake = CharacterVector(2, {Partition((2,)): 1, Partition((1, 1)): 0})
        triv = irreducible_character((2,))
        with pytest.raises(ExactnessError):
            inner_product(fake, triv)


class TestPermutationCharacter:
    def test_value_at_identity_is_multinomial(self):
        for pi in [(3,), (2, 1), (1, 1, 1), (2, 2)]:
            m = sum(pi)
            phi = permutation_character(pi)
            multinomial = math.factorial(m)
            for part in pi:
                multinomial //= math.factorial(part)
            assert phi(identity_class(m)) == multinomial


class TestSkewCharacter:
    def test_single_box(self):
        assert skew_character(skew((3, 1), (2, 1))) == {Partition((1,)): 1}

    def test_empty_shape_is_unit(self):
        lam = Partition((3, 2))
        assert skew_character(skew(lam, lam)) == {Partition(()): 1}

    def test_corner_box_shape(self):
        assert skew_character(skew((2, 2), (1,))) == {Partition((2, 1)): 1}

    def test_against_brute_force(self):
        cases = [((2, 2), (1,)), ((3, 1), (1,)), ((3, 2), (2,)), ((2, 2, 1), (1, 1))]
        for outer, inner in cases:
            got = skew_character(skew(outer, inner))
            size = sum(outer) - sum(inner)
            for tau in partitions_of(size):
                assert got.get(tau, 0) == brute_lr_count(outer, inner, tuple(tau))
