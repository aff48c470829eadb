import hashlib
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kronkit import (
    CharacterVector,
    ExactnessError,
    Partition,
    ShapeError,
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
from kronkit.characters import _beta_set, _counts, _dim
from kronkit.partitions import partitions_of
from oracles import (
    border_strip_value,
    brute_lr_count,
    brute_partitions,
    brute_ssyt_count,
    cycle_assignment_count,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def identity_class(n):
    return Partition((1,) * n)


def pairs_st(min_n, max_n):
    """(lam, rho), two partitions of one n, each uniform among the partitions of n."""
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.tuples(st.sampled_from(cycle_types(n)), st.sampled_from(cycle_types(n)))
    )


class TestClassSizes:
    def test_s3(self):
        assert class_size((1, 1, 1)) == 1
        assert class_size((3,)) == 2
        assert class_size((2, 1)) == 3

    def test_sum_is_group_order(self):
        for n in range(21):
            assert sum(class_weights(n)) == math.factorial(n)

    def test_runs_match_multiplicities(self):
        # z_rho = prod part**mult * mult!, here from a Counter of the parts
        for n in range(21):
            want = []
            for rho in cycle_types(n):
                z = 1
                for part, mult in Counter(rho).items():
                    z *= part**mult * math.factorial(mult)
                assert class_size(rho) == math.factorial(n) // z
                want.append(math.factorial(n) // z)
            assert class_weights(n) == tuple(want)


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

    def test_rows_match_reference(self):
        for n in range(13):
            for lam in partitions_of(n):
                want = tuple(border_strip_value(lam, rho) for rho in cycle_types(n))
                assert character_row(lam) == want

    @settings(max_examples=300, deadline=None)
    @given(pairs_st(13, 30))
    def test_matches_reference_beyond_rows(self, pair):
        lam, rho = pair
        assert mn_value(lam, rho) == border_strip_value(lam, rho)

    def test_long_cycle_type_has_its_value(self):
        # Six times as many parts as the old recursive engine could take.
        assert mn_value((2999, 1), (1,) * 3000) == dimension((2999, 1)) == 2999


class TestCharacterRow:
    # sha256 of one repr(character_row(lam)) line per lam of n <= 20, in
    # partitions_of order, each line ending in a newline.
    ROWS_TO_20 = "6d8c5f42d94eadb685bf82edf226bb533e0564b9693e75a95eeb2ab0c753c103"

    def test_rows_to_20_are_pinned(self):
        text = "".join(f"{character_row(lam)!r}\n" for n in range(21) for lam in partitions_of(n))
        assert hashlib.sha256(text.encode()).hexdigest() == self.ROWS_TO_20

    def test_fill_order_does_not_matter(self):
        # The memo keeps rows cut down to the classes a larger shape asked
        # for; what is filled first must not change any later row.
        script = (
            "import sys\n"
            "from kronkit import character_row\n"
            "from kronkit.partitions import partitions_of\n"
            "sizes = range(15) if sys.argv[1] == 'up' else range(14, -1, -1)\n"
            "rows = {tuple(lam): character_row(lam) for n in sizes for lam in partitions_of(n)}\n"
            "for lam in sorted(rows):\n"
            "    print(lam, rows[lam])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        outs = []
        for order in ("up", "down"):
            proc = subprocess.run(
                [sys.executable, "-c", script, order],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert len(outs[0].splitlines()) == sum(len(cycle_types(n)) for n in range(15))

    def test_no_row_is_filled_for_its_identity_value_alone(self):
        # The identity entry comes from hook lengths, so a cold row queues
        # only the shapes that its k-strips for k >= 2 reach, and no length-1
        # entry but those of the shapes of size 0 and 1.
        script = (
            "from kronkit import character_row\n"
            "from kronkit.characters import _rows\n"
            "character_row((6, 5, 4, 3, 2, 2, 1, 1))\n"
            "print(len(_rows), sum(len(row) == 1 for row in _rows.values()))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["258", "2"]

    def test_bounded_partition_counts(self):
        counts = _counts(30)
        for j in range(31):
            for k in range(31):
                assert counts[j][min(j, k)] == len(brute_partitions(j, max_part=k))


class TestDimension:
    def test_examples(self):
        assert dimension((5,)) == 1
        assert dimension((2, 1)) == 2
        assert dimension((2, 2)) == 2

    def test_hooks_of_the_mask_count_standard_tableaux(self):
        for n in range(9):
            for lam in partitions_of(n):
                assert _dim(_beta_set(lam)) == brute_ssyt_count(lam, (1,) * n)

    def test_hooks_of_the_mask_examples(self):
        assert _dim(_beta_set((15, 15))) == 9_694_845  # Catalan(15)
        assert _dim(_beta_set((2999, 1))) == 2999
        assert _dim(0) == 1


class TestCharacterTable:
    def test_n0(self):
        table = character_table(0)
        empty = Partition(())
        assert table[empty].row == (1,)

    def test_n2(self):
        table = character_table(2)
        triv, sign = Partition((2,)), Partition((1, 1))
        assert cycle_types(2) == (Partition((2,)), Partition((1, 1)))
        assert table[triv].row == (1, 1)
        assert table[sign].row == (-1, 1)

    def test_class_lookup_is_the_rank_in_cycle_types(self):
        for n in range(26):
            classes = cycle_types(n)
            positions = CharacterVector(n, range(len(classes)))
            for i, rho in enumerate(classes):
                assert positions(rho) == i
            assert len(set(classes)) == len(classes)  # so i is classes.index(rho)

    def test_class_outside_the_degree(self):
        with pytest.raises(SizeMismatchError):
            irreducible_character((2, 1))((2,))

    def test_row_is_a_tuple_of_one_value_per_class(self):
        assert CharacterVector(2, [1, 0]).row == (1, 0)
        with pytest.raises(ShapeError):
            CharacterVector(2, (1,))

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
        for n in range(13):
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

    def test_tensor_degree_mismatch(self):
        with pytest.raises(SizeMismatchError):
            irreducible_character((2,)).tensor(irreducible_character((2, 1)))

    def test_non_exact_division_raises(self):
        fake = CharacterVector(2, (1, 0))
        triv = irreducible_character((2,))
        with pytest.raises(ExactnessError, match=re.escape(f"inner product of {fake!r}")):
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

    def test_every_class_matches_cycle_assignments(self):
        pis = [tuple(pi) for n in range(8) for pi in partitions_of(n)]
        for pi in pis + [(1, 3), (2, 1, 2), (1, 2, 3, 1), (3, 4)]:
            phi = permutation_character(pi)
            for rho in cycle_types(sum(pi)):
                assert phi(rho) == cycle_assignment_count(pi, tuple(rho))


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
