import hashlib
import json
import math
import os
import subprocess
import sys
from functools import lru_cache
from itertools import permutations, product
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
    dimension,
    kostka,
    lr_coeff,
    lr_pair_count,
    perm_character_decomp,
    skew_character,
)
from kronkit.lr import _chains
from kronkit.partitions import partitions_of
from oracles import all_partitions, brute_lr_count, brute_ssyt_count, brute_subshapes

SRC = Path(__file__).resolve().parents[1] / "src"


class TestLrCoeff:
    def test_straight_shape_examples(self):
        assert lr_coeff(SkewShape((2, 1), ()), (2, 1)) == 1
        assert lr_coeff(SkewShape((2, 1), ()), (1, 1, 1)) == 0

    def test_skew_example(self):
        assert lr_coeff(SkewShape((2, 2), (1,)), (2, 1)) == 1

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            lr_coeff(SkewShape((2, 2), (1,)), (2, 2))

    def test_shape_must_be_a_skew_shape(self):
        # A plain pair is refused, not read: its containment was never checked.
        for shape in [((2, 2), (1,)), ((1,), (2,)), "2,2/1", None]:
            with pytest.raises(ShapeError, match="shape must be a SkewShape, got"):
                lr_coeff(shape, (2, 1))

    def test_straight_shape_rule(self):
        # on a straight shape the count is 1 when content equals the shape, else 0
        for m in range(7):
            for lam in partitions_of(m):
                shape = SkewShape(lam, ())
                for rho in partitions_of(m):
                    assert lr_coeff(shape, rho) == (1 if rho == lam else 0)

    def test_against_brute_force(self):
        for outer_size in range(1, 6):
            for outer in partitions_of(outer_size):
                for inner_size in range(outer_size + 1):
                    for inner in partitions_of(inner_size):
                        if not outer.contains(inner):
                            continue
                        shape = SkewShape(outer, inner)
                        for content in partitions_of(shape.size):
                            assert lr_coeff(shape, content) == brute_lr_count(
                                tuple(outer), tuple(inner), tuple(content)
                            )


@lru_cache(maxsize=None)
def standard_fillings(outer, inner):
    """Standard fillings of outer/inner, inner padded to outer's length, as
    saturated chains from inner up to outer: one corner cell at a time."""
    if outer == inner:
        return 1
    return sum(
        standard_fillings(outer[:i] + (a - 1,) + outer[i + 1 :], inner)
        for i, a in enumerate(outer)
        if a > inner[i] and (i + 1 == len(outer) or outer[i + 1] < a)
    )


def degree(table):
    """sum c * f^tau over a {tau: c} table."""
    return sum(c * standard_fillings(tau, (0,) * len(tau)) for tau, c in table.items())


class TestSkewCharacter:
    def test_every_table_has_the_degree_of_its_shape(self):
        # The skew character's degree is the number of standard fillings of
        # the shape, so each whole table must satisfy sum c * f^tau = f^(lam/mu).
        # Its keys are partitions of |lam/mu|, and lr_coeff reads the same
        # table, one content at a time.
        for n in range(11):
            for outer in all_partitions(n):
                for k in range(n + 1):
                    for inner in brute_subshapes(outer, k):
                        shape = SkewShape(outer, inner)
                        table = skew_character(shape)
                        padded = inner + (0,) * (len(outer) - len(inner))
                        assert degree(table) == standard_fillings(outer, padded), shape
                        assert set(table) <= set(all_partitions(n - k)), shape
                        for tau in all_partitions(n - k):
                            assert lr_coeff(shape, tau) == table.get(tau, 0), (shape, tau)

    def test_staircase_table(self):
        outer, inner = (8, 7, 6, 5, 4, 3, 2, 1), (4, 3, 2, 1, 0, 0, 0, 0)
        table = skew_character(SkewShape(outer, inner))
        assert (len(table), sum(table.values()), max(table.values())) == (338, 9133, 120)
        assert list(table) == sorted(table, reverse=True)
        assert degree(table) == standard_fillings(outer, inner)


def _multi(lam, contents):
    """LR multitableaux of shape lam with these contents, read from lam's
    chain table; the contents come in decreasing order of size."""
    return _chains(lam, tuple(map(sum, contents))).get(contents, 0)


class TestMultitableau:
    # The chain tables take lam and the contents as tuples of ints.
    def test_single_boxes_count_standard_tableaux(self):
        assert _multi((2, 1), ((1,), (1,), (1,))) == 2
        for m in range(1, 6):
            ones = ((1,),) * m
            for lam in partitions_of(m):
                assert _multi(tuple(lam), ones) == dimension(lam)

    def test_whole_partition_content(self):
        for lam in [(3,), (2, 2), (3, 2, 1)]:
            assert _multi(lam, (lam,)) == 1

    def test_two_layer_example(self):
        assert _multi((2, 2), ((2,), (2,))) == 1

    def test_single_layer_reduces_to_lr(self):
        for m in range(6):
            for lam in partitions_of(m):
                for rho in partitions_of(m):
                    assert _multi(tuple(lam), (tuple(rho),)) == lr_coeff(SkewShape(lam, ()), rho)


class TestLrPairCount:
    def test_examples(self):
        assert lr_pair_count((2, 1), (2, 1), (1, 1, 1)) == 4
        assert lr_pair_count((4,), (4,), (4,)) == 1
        assert lr_pair_count((2, 1), (2, 1), (3,)) == 1

    def test_symmetric_in_lam_mu(self):
        for m in range(1, 6):
            parts = list(partitions_of(m))
            for lam in parts:
                for mu in parts:
                    for pi in parts:
                        assert lr_pair_count(lam, mu, pi) == lr_pair_count(mu, lam, pi)

    def test_every_value_to_m9_is_pinned(self):
        # sha256 of json.dumps of the list of the 42,859 values over every
        # ordered (lam, mu, pi) of one m <= 9, in partitions_of order.
        values = [
            lr_pair_count(lam, mu, pi)
            for m in range(10)
            for lam, mu, pi in product(partitions_of(m), repeat=3)
        ]
        digest = hashlib.sha256(json.dumps(values).encode()).hexdigest()
        assert digest == "edc3c3c0f7fbcea19b129eb5c2a4d70138386120cd00662e1ac824d0295a7b8d"

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            lr_pair_count((2, 1), (2, 1), (2,))

    def test_composition_order_irrelevant(self):
        assert lr_pair_count((3, 1), (2, 2), (1, 3)) == lr_pair_count((3, 1), (2, 2), (3, 1))

    def test_matches_character_inner_product(self):
        # Pair counts with shared content realize <chi^lam chi^mu, phi^pi>, the
        # class sum of w * chi^lam * chi^mu * phi^pi over m!, where phi^pi is the
        # permutation character sum_nu K_{nu,pi} chi^nu (Young's rule).
        for m in range(1, 5):
            parts = list(partitions_of(m))
            for pi in parts:
                decomp = perm_character_decomp(pi)
                terms = [[k * x for x in character_row(nu)] for nu, k in decomp.items()]
                phi = [sum(column) for column in zip(*terms)]
                for lam in parts:
                    for mu in parts:
                        rows = zip(class_weights(m), character_row(lam), character_row(mu), phi)
                        total = sum(w * x * y * z for w, x, y, z in rows)
                        assert total % math.factorial(m) == 0
                        assert lr_pair_count(lam, mu, pi) == total // math.factorial(m)


def reference_multi(lam, contents):
    """LR multitableaux of shape lam with these contents, one chain walk per
    contents tuple: {shape: weighted chains from lam down to it}, peeled one
    content at a time from the last, with brute-force sub-shapes."""
    layer = {tuple(lam): 1}
    for content in reversed(contents):
        k = sum(content)
        below = {}
        for shape, count in layer.items():
            for prev in brute_subshapes(shape, sum(shape) - k) if sum(shape) >= k else ():
                c = lr_coeff(SkewShape(shape, prev), content)
                if c:
                    below[prev] = below.get(prev, 0) + count * c
        layer = below
    return layer.get((), 0)


def reference_pair_count(lam, mu, pi):
    """lr_pair_count as a sum over every contents tuple of the product of the
    two shapes' multitableau counts."""
    pools = [list(partitions_of(k)) for k in sorted(pi, reverse=True)]
    total = 0
    for contents in product(*pools):
        a = reference_multi(lam, contents)
        if a:
            total += a * reference_multi(mu, contents)
    return total


@st.composite
def lr_triples(draw):
    """(lam, mu, pi), all partitions of one m with 9 <= m <= 11."""
    m = draw(st.integers(9, 11))
    parts = st.sampled_from(list(partitions_of(m)))
    return draw(parts), draw(parts), draw(parts)


class TestLrPairCountBeyondPin:
    @settings(max_examples=50, deadline=None)
    @given(lr_triples())
    def test_matches_product_over_contents(self, triple):
        assert lr_pair_count(*triple) == reference_pair_count(*triple)


class TestKostka:
    def test_examples(self):
        assert kostka((2, 1), (2, 1)) == 1
        assert kostka((2, 1), (1, 1, 1)) == 2
        assert kostka((1, 1), (2,)) == 0

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            kostka((2, 1), (2,))

    def test_diagonal_is_one(self):
        for m in range(7):
            for nu in partitions_of(m):
                assert kostka(nu, tuple(nu)) == 1

    def test_against_brute_force(self):
        for m in range(1, 6):
            for nu in partitions_of(m):
                for pi in partitions_of(m):
                    assert kostka(nu, tuple(pi)) == brute_ssyt_count(tuple(nu), tuple(pi))

    def test_invariant_under_permuting_content(self):
        for m in range(1, 7):
            for nu in partitions_of(m):
                for pi in partitions_of(m):
                    base = kostka(nu, tuple(pi))
                    for perm in set(permutations(tuple(pi))):
                        assert kostka(nu, perm) == base


class TestPermCharacterDecomp:
    def test_trivial(self):
        assert perm_character_decomp((5,)) == {Partition((5,)): 1}

    def test_regular_character(self):
        assert perm_character_decomp((1, 1, 1)) == {
            Partition((3,)): 1,
            Partition((2, 1)): 2,
            Partition((1, 1, 1)): 1,
        }

    def test_two_one(self):
        assert perm_character_decomp((2, 1)) == {Partition((3,)): 1, Partition((2, 1)): 1}

    def test_against_brute_force(self):
        pis = [tuple(pi) for n in range(9) for pi in partitions_of(n)] + [(1, 3), (2, 1, 2)]
        for pi in pis:
            n = sum(pi)
            want = {}
            for nu in partitions_of(n):
                k = brute_ssyt_count(tuple(nu), pi)
                if k:
                    want[nu] = k
            # want is in reverse lex order, and so must the keys be
            assert list(perm_character_decomp(pi).items()) == list(want.items())


class TestRecursionLimit:
    """The counters loop rather than recurse, so no input is too deep for them.

    The sizes are three times those at which the recursive counters gave up
    at the default recursion limit: 994 cells for lr_coeff, 497 parts for
    the others.
    """

    def test_lr_coeff(self):
        assert lr_coeff(SkewShape((3000,), ()), (3000,)) == 1

    def test_lr_coeff_column(self):
        # The values placed in a column are 1..1500, so none above the next
        # one is tried at a cell.
        assert lr_coeff(SkewShape((1,) * 1500, ()), (1,) * 1500) == 1

    def test_kostka(self):
        assert kostka((1500,), (1,) * 1500) == 1
        assert kostka((1,) * 1500, (1,) * 1500) == 1

    def test_multitableau_count(self):
        assert _multi((1500,), ((1,),) * 1500) == 1

    def test_lr_pair_count(self):
        assert lr_pair_count((1500,), (1500,), (1,) * 1500) == 1

    def test_no_earlier_call(self):
        # A memo filled by an earlier call once decided whether a call got
        # past the stack limit, so these run in a fresh interpreter.
        script = (
            "from kronkit import kostka\n"
            "from kronkit.lr import _chains\n"
            "print(kostka((1500,), (1,) * 1500), _chains((1500,), (1,) * 1500)[((1,),) * 1500])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1", "1"]
