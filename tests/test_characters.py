import hashlib
import math
import os
import subprocess
import sys
import threading
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kronkit import (
    Partition,
    ShapeError,
    SizeMismatchError,
    SkewShape,
    character_row,
    class_weights,
    conjugate,
    cycle_sign,
    cycle_types,
    dimension,
    mn_value,
    perm_character_decomp,
    skew_character,
)
import kronkit.characters as characters_mod
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
        # cycle_types(3) is (3,), (2, 1), (1, 1, 1)
        assert class_weights(3) == (2, 3, 1)

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
        for rho, w in zip(cycle_types(3), class_weights(3)):
            total = sum(mn_value(lam, rho) ** 2 for lam in partitions_of(3))
            assert total == math.factorial(3) // w

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

    def test_threads_fill_the_rows_a_single_thread_does(self, monkeypatch):
        # Four threads fill every row of S_16 into empty memos, each in its
        # own order, switching as often as the interpreter lets them, so
        # their fills of the shared smaller shapes interleave.
        parts = list(partitions_of(16))
        serial = {lam: character_row(lam) for lam in parts}
        monkeypatch.setattr(characters_mod, "_rows", {0: (1,)})
        monkeypatch.setattr(
            characters_mod, "_row", lru_cache(maxsize=1024)(characters_mod._row.__wrapped__)
        )
        start, got = threading.Barrier(4), [None] * 4

        def fill(i):
            k = i * len(parts) // 4
            order = parts[k:] + parts[:k]
            start.wait(timeout=10)
            got[i] = {lam: character_row(lam) for lam in (order[::-1] if i % 2 else order)}

        threads = [threading.Thread(target=fill, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [serial] * 4
        assert all(characters_mod._rows[_beta_set(lam)] == serial[lam] for lam in parts)

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
        assert character_row(()) == (1,)

    def test_n2(self):
        assert cycle_types(2) == (Partition((2,)), Partition((1, 1)))
        assert character_row((2,)) == (1, 1)
        assert character_row((1, 1)) == (-1, 1)

    def test_class_lookup_is_the_rank_in_cycle_types(self):
        for n in range(26):
            classes = cycle_types(n)
            assert len(set(classes)) == len(classes)  # so a class's rank is classes.index(rho)

    def test_class_outside_the_degree(self):
        with pytest.raises(SizeMismatchError):
            mn_value((2, 1), (2,))

    def test_row_is_a_tuple_of_one_value_per_class(self):
        for n in range(9):
            for lam in partitions_of(n):
                row = character_row(lam)
                assert type(row) is tuple and len(row) == len(cycle_types(n))

    def test_n3_standard_row(self):
        row = character_row((2, 1))
        place = cycle_types(3).index
        assert row[place((1, 1, 1))] == 2
        assert row[place((2, 1))] == 0
        assert row[place((3,))] == -1

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
    # <phi, psi> = sum_rho w_rho phi(rho) psi(rho) / n!, on plain rows.
    def test_norm_one(self):
        chi = character_row((3, 1))
        assert sum(w * x * x for w, x in zip(class_weights(4), chi)) == math.factorial(4)

    def test_orthogonal(self):
        a, b = character_row((2, 1)), character_row((3,))
        assert sum(w * x * y for w, x, y in zip(class_weights(3), a, b)) == 0

    def test_tensor_square_multiplicity(self):
        chi = character_row((2, 1))
        assert sum(w * x**3 for w, x in zip(class_weights(3), chi)) == math.factorial(3)


class TestPermutationCharacter:
    # phi^pi = sum_nu K_{nu,pi} chi^nu (Young's rule), summed on plain rows.
    def test_value_at_identity_is_multinomial(self):
        for pi in [(3,), (2, 1), (1, 1, 1), (2, 2)]:
            m = sum(pi)
            decomp = perm_character_decomp(pi)
            terms = [[k * x for x in character_row(nu)] for nu, k in decomp.items()]
            phi = [sum(column) for column in zip(*terms)]
            multinomial = math.factorial(m)
            for part in pi:
                multinomial //= math.factorial(part)
            assert phi[cycle_types(m).index(identity_class(m))] == multinomial

    def test_every_class_matches_cycle_assignments(self):
        pis = [tuple(pi) for n in range(8) for pi in partitions_of(n)]
        for pi in pis + [(1, 3), (2, 1, 2), (1, 2, 3, 1), (3, 4)]:
            decomp = perm_character_decomp(pi)
            terms = [[k * x for x in character_row(nu)] for nu, k in decomp.items()]
            phi = [sum(column) for column in zip(*terms)]
            for rho, value in zip(cycle_types(sum(pi)), phi):
                assert value == cycle_assignment_count(pi, tuple(rho))


class TestSkewCharacter:
    def test_single_box(self):
        assert skew_character(SkewShape((3, 1), (2, 1))) == {Partition((1,)): 1}

    def test_empty_shape_is_unit(self):
        lam = Partition((3, 2))
        assert skew_character(SkewShape(lam, lam)) == {Partition(()): 1}

    def test_corner_box_shape(self):
        assert skew_character(SkewShape((2, 2), (1,))) == {Partition((2, 1)): 1}

    def test_shape_must_be_a_skew_shape(self):
        # The empty pair too: its size would be read before any lr_coeff call.
        for shape in [((2, 2), (1,)), ((), ()), None]:
            with pytest.raises(ShapeError, match="shape must be a SkewShape, got"):
                skew_character(shape)

    def test_against_brute_force(self):
        cases = [((2, 2), (1,)), ((3, 1), (1,)), ((3, 2), (2,)), ((2, 2, 1), (1, 1))]
        for outer, inner in cases:
            got = skew_character(SkewShape(outer, inner))
            size = sum(outer) - sum(inner)
            for tau in partitions_of(size):
                assert got.get(tau, 0) == brute_lr_count(outer, inner, tuple(tau))
