import json
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from kronkit import (
    Partition,
    SizeMismatchError,
    canonical_triple,
    conjugate,
    dimension,
    intersect,
    kron_coeff,
    kron_coeff_direct,
    kron_expand,
)
from kronkit.partitions import partitions_of


@st.composite
def triples_st(draw, min_m=9, max_m=13):
    """Three partitions of one m, beyond the exhaustive sweeps' m <= 8.

    Half the draws come from partitions of at most 4 rows, where the
    rectangle frames and the two-row formula apply.
    """
    m = draw(st.integers(min_m, max_m))
    parts = st.sampled_from(list(partitions_of(m, max_length=4))) | st.sampled_from(
        list(partitions_of(m))
    )
    return (draw(parts), draw(parts), draw(parts))


class TestDirect:
    def test_all_trivial(self):
        for m in range(7):
            lam = Partition((m,)) if m else Partition(())
            assert kron_coeff_direct(lam, lam, lam) == 1

    def test_trivial_third_argument_is_pairing(self):
        for m in range(1, 6):
            parts = list(partitions_of(m))
            for lam in parts:
                for mu in parts:
                    want = 1 if lam == mu else 0
                    assert kron_coeff_direct(lam, mu, (m,)) == want

    def test_standard_cube(self):
        assert kron_coeff_direct((2, 1), (2, 1), (2, 1)) == 1

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            kron_coeff_direct((2, 1), (2, 1), (2, 2))

    def test_full_symmetry(self):
        for m in range(1, 7):
            parts = list(partitions_of(m))
            for i, lam in enumerate(parts):
                for mu in parts[i:]:
                    for nu in parts:
                        base = kron_coeff_direct(lam, mu, nu)
                        for a, b, c in permutations((lam, mu, nu)):
                            assert kron_coeff_direct(a, b, c) == base

    def test_conjugation_invariance(self):
        for m in range(1, 7):
            parts = list(partitions_of(m))
            for lam in parts:
                for mu in parts:
                    for nu in parts:
                        assert kron_coeff_direct(lam, mu, nu) == kron_coeff_direct(
                            conjugate(lam), conjugate(mu), nu
                        )


class TestExpand:
    def test_two_two_square(self):
        expansion = kron_expand((2, 2), (2, 2))
        assert dict(expansion.items()) == {
            Partition((4,)): 1,
            Partition((2, 2)): 1,
            Partition((1, 1, 1, 1)): 1,
        }

    def test_tensor_with_trivial(self):
        for mu in partitions_of(4):
            assert dict(kron_expand((4,), mu).items()) == {mu: 1}

    def test_component_length_bound(self):
        mu = nu = Partition((3, 3))
        bound = intersect(mu, conjugate(nu)).size
        assert bound == 4
        for comp in kron_expand(mu, nu).items():
            assert comp[0].length <= bound

    def test_dimension_identity(self):
        for m in range(9):
            parts = list(partitions_of(m))
            for i, lam in enumerate(parts):
                for mu in parts[i:]:
                    expansion = kron_expand(lam, mu)
                    total = sum(k * dimension(nu) for nu, k in expansion.items())
                    assert total == dimension(lam) * dimension(mu)

    def test_zero_entries_omitted(self):
        expansion = kron_expand((2, 2), (2, 2))
        assert all(k > 0 for _, k in expansion.items())
        assert expansion[(3, 1)] == 0  # absent key reads as zero


class TestCanonicalTriple:
    def test_sorts_longest_first(self):
        got = canonical_triple((5, 3), (2, 2, 2, 2), (4, 4))
        assert got == (Partition((2, 2, 2, 2)), Partition((4, 4)), Partition((5, 3)))


class TestDispatcher:
    def test_vanishing_example(self):
        value, trace = kron_coeff((2, 2, 2, 2), (5, 3), (4, 4))
        assert value == 0
        assert trace.method == "vanishing"
        assert trace.steps[-1].frame is not None

    def test_full_reduction_example(self):
        value, trace = kron_coeff((2, 2, 2, 2), (4, 4), (4, 4))
        assert value == 1
        assert trace.method == "reduced"
        last = trace.steps[-1]
        assert last.frame.t == 2
        assert all(p == Partition(()) for p in last.after)

    def test_reduce_then_formula_example(self):
        value, trace = kron_coeff((3, 2, 1, 1), (4, 3), (4, 3))
        assert value == 1
        assert trace.method == "formula-2row"
        reduce_steps = [s for s in trace.steps if s.theorem == "rectangle-reduce"]
        assert reduce_steps and reduce_steps[0].after == (
            Partition((2, 1)),
            Partition((2, 1)),
            Partition((2, 1)),
        )

    def test_empty_triple(self):
        value, trace = kron_coeff((), (), ())
        assert value == 1

    def test_trace_links_and_value(self):
        for triple in [
            ((2, 1), (2, 1), (3,)),
            ((3, 1), (2, 2), (2, 1, 1)),
            ((2, 2, 2), (3, 3), (6,)),
        ]:
            value, trace = kron_coeff(*triple)
            assert trace.steps, "trace must not be empty"
            for prev, nxt in zip(trace.steps, trace.steps[1:]):
                assert prev.after == nxt.before
            assert trace.steps[-1].value == value

    def test_trace_json_round_trip(self):
        _, trace = kron_coeff((3, 2, 1, 1), (4, 3), (4, 3))
        text = trace.to_json()
        obj = json.loads(text)
        assert json.dumps(obj) == json.dumps(json.loads(json.dumps(obj)))
        for step in obj:
            assert set(step) <= {"theorem", "before", "after", "frame", "intermediates", "value"}

    def test_agrees_with_direct(self):
        for m in range(7):
            parts = list(partitions_of(m))
            for lam in parts:
                for mu in parts:
                    for nu in parts:
                        fast, _ = kron_coeff(lam, mu, nu)
                        assert fast == kron_coeff_direct(lam, mu, nu)

    @settings(max_examples=300, deadline=None)
    @given(triples_st())
    def test_agrees_with_direct_beyond_sweeps(self, triple):
        want = kron_coeff_direct(*triple)
        assert kron_coeff(*triple)[0] == want
        for perm in permutations(triple):
            assert kron_coeff(*perm)[0] == want
