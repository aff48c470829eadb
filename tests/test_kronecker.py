import json
import math
import operator
import random
import re
from collections import Counter
from functools import lru_cache
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import given, settings, strategies as st

import kronkit.kronecker as kronecker
from kronkit import (
    ExactnessError,
    Partition,
    PartitionError,
    SizeMismatchError,
    canonical_triple,
    character_row,
    class_weights,
    conjugate,
    cycle_types,
    dimension,
    intersect,
    kron_coeff,
    kron_coeff_direct,
    kron_expand,
    stability_inflate,
)
from kronkit.kronecker import _in_role_order, _pack, _role_key, _row, _weighted
from kronkit.partitions import _conjugate, partitions_of
from kronkit.reductions import RectangleFrame, _widen


@st.composite
def triples_st(draw, min_m=9, max_m=16):
    """Three partitions of one m, beyond the exhaustive sweeps' m <= 8.

    Half the draws come from partitions of at most 4 rows, where the
    rectangle frames and the two-row formula apply.
    """
    m = draw(st.integers(min_m, max_m))
    parts = st.sampled_from(list(partitions_of(m, max_length=4))) | st.sampled_from(
        list(partitions_of(m))
    )
    return (draw(parts), draw(parts), draw(parts))


@st.composite
def pairs_st(draw, min_m=10, max_m=16):
    """Two partitions of one m, beyond the exhaustive expansion test's m <= 9."""
    parts = st.sampled_from(list(partitions_of(draw(st.integers(min_m, max_m)))))
    return (draw(parts), draw(parts))


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
        # Every multiset with m <= 6, in all six orders.  verify's memo keys
        # the oracle on the sorted triple and relies on this.
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


def _four_way(lam, mu, nu):
    """The class sum as the plain loop over w * x * y * z, divided by m!."""
    m = sum(lam)
    rows = character_row(lam), character_row(mu), character_row(nu)
    total = 0
    for w, x, y, z in zip(class_weights(m), *rows):
        total += w * x * y * z
    value, rem = divmod(total, math.factorial(m))
    assert not rem and value >= 0
    return value


class TestKernel:
    # kron_coeff_direct reads its rows through two capped memos, _row and
    # _weighted; cold or past their caps, it must give the plain class sum.
    @settings(max_examples=40, deadline=None)
    @given(triples_st(min_m=1, max_m=14))
    def test_cold_memos_give_the_plain_class_sum(self, triple):
        _row.cache_clear()
        _weighted.cache_clear()
        assert kron_coeff_direct(*triple) == _four_way(*triple)

    @settings(max_examples=40, deadline=None)
    @given(triples_st(min_m=1, max_m=14))
    def test_full_memos_give_the_plain_class_sum(self, triple):
        if _row.cache_info().currsize < _row.cache_info().maxsize:
            # More partitions than either cap holds, each the first slot once.
            parts = [lam for m in range(18) for lam in partitions_of(m)]
            assert len(parts) > max(_row.cache_info().maxsize, _weighted.cache_info().maxsize)
            for lam in parts:
                kron_coeff_direct(lam, lam, (sum(lam),))
        assert kron_coeff_direct(*triple) == _four_way(*triple)

    @pytest.mark.parametrize(
        "bad, good",
        [(((3, 2.0), (4, 1), (5,)), (3, 2)), (((3, True, 1), (4, 1), (5,)), (3, 1, 1))],
    )
    def test_raw_tuples_are_checked_before_any_memo(self, bad, good):
        # (3, 2.0) and (3, True, 1) hash and compare equal to the memo keys
        # (3, 2) and (3, 1, 1), so only a check before the memos refuses them.
        kron_coeff_direct(good, good, (5,))
        kron_coeff(good, good, (5,))
        character_row(good)
        conjugate(good)
        for memo in (_weighted, _row, _conjugate):
            hits = memo.cache_info().hits
            memo(Partition(good))
            assert memo.cache_info().hits == hits + 1
        for entry in (kron_coeff_direct, kron_coeff):
            with pytest.raises(PartitionError):
                entry(*bad)
        for entry in (character_row, conjugate):
            with pytest.raises(PartitionError):
                entry(bad[0])
        # stability_inflate's memo of inflated shapes, lam + (1)^4 here.
        frame = RectangleFrame(4, 2, 2, 1)
        stability_inflate(good, (4, 1), (5,), frame)
        info = _widen.cache_info()
        with pytest.raises(PartitionError):
            stability_inflate(*bad, frame)
        assert _widen.cache_info() == info
        _widen(Partition(good), 1, 4)
        assert _widen.cache_info().hits == info.hits + 1


def _fresh_memos(monkeypatch):
    """Empty copies of the memos that hold rows, so a patched _row reaches
    both class sums."""
    for memo in (_pack, _weighted):
        fresh = lru_cache(maxsize=None)(memo.__wrapped__)
        monkeypatch.setattr(f"kronkit.kronecker.{memo.__name__}", fresh)


class TestExactnessGuard:
    # Rows no genuine characters have, patched in where the oracle reads them.
    # Over S_2 a row (1, 0) leaves the class sum 1/2!, and (-2, 0) gives -8/2!.
    @pytest.mark.parametrize("row", [(1, 0), (-2, 0)])
    def test_bad_class_sums_raise(self, monkeypatch, row):
        monkeypatch.setattr("kronkit.kronecker._row", lambda lam: row)
        # kron_expand must pack the patched rows, not an S_2 table packed
        # earlier, and the class sum must read them, not rows memoised earlier.
        _fresh_memos(monkeypatch)
        triple = (Partition((2,)), Partition((1, 1)), Partition((2,)))
        message = re.escape(f"class sum for {triple!r} gave")
        with pytest.raises(ExactnessError, match=message):
            kron_coeff_direct(*triple)
        with pytest.raises(ExactnessError, match=message):
            kron_expand(*triple[:2])


    # Over S_3 (classes (3), (2, 1), (1, 1, 1) of sizes 2, 3, 1), every row
    # patched to r gives the class sum 2 r0^3 + 3 r1^3 + r2^3 at nu = (3).
    # Offset by their largest |entry|, these rows need more than 8 bytes, so
    # no struct code packs them: _pack(3) is None, and kron_expand takes
    # every nu from the oracle, whose guard must see this exact total.
    @pytest.mark.parametrize(
        "row", [(2**200, 0, 0), (5**90, -(5**90), 7), (-(3**150), 1, 3**150 + 1)]
    )
    def test_huge_rows_raise_on_their_own_total(self, monkeypatch, row):
        monkeypatch.setattr("kronkit.kronecker._row", lambda lam: row)
        _fresh_memos(monkeypatch)
        total = 2 * row[0] ** 3 + 3 * row[1] ** 3 + row[2] ** 3
        assert total % 6 or total < 0
        triple = (Partition((2, 1)), Partition((1, 1, 1)), Partition((3,)))
        message = re.escape(f"class sum for {triple!r} gave {total}/3!")
        with pytest.raises(ExactnessError, match=message):
            kron_coeff_direct(*triple)
        assert kronecker._pack(3) is None
        with pytest.raises(ExactnessError, match=message):
            kron_expand(*triple[:2])


class TestPackedDivision:
    # kron_expand divides each packed sum by 3! once.  Over S_3 (classes (3),
    # (2, 1), (1, 1, 1) of sizes 2, 3, 1) with lam = mu = (1, 1, 1), the
    # tensor is (2, 3, 1), so a row r of a nu with a field gives the total
    # 2 r0 + 3 r1 + r2.  Rows of f = 1 keep the fields 1 byte wide, and as
    # 256 = 4 (mod 6), A + B = t(3) + 256 t(2,1) can divide by 3! while a
    # total does not.  One row patched for every nu makes the two totals
    # equal, so it cannot do that: 5 t = 0 (mod 6) only when 6 divides t.
    @pytest.mark.parametrize(
        "rows, nu",
        [
            # t(3) = 6, t(2,1) = 3: A + B = 6 * 129, whose lowest field is -127.
            ({(3,): (1, 1, 1), (2, 1): (0, 1, 0)}, (2, 1)),
            # t(3) = 2, t(2,1) = 1: A + B = 6 * 43, a field 3! times past 127.
            ({(3,): (1, 0, 0), (2, 1): (0, 0, 1)}, (3,)),
        ],
    )
    def test_exact_division_of_the_sum_still_names_the_bad_total(self, monkeypatch, rows, nu):
        totals = {key: sum(map(operator.mul, (2, 3, 1), row)) for key, row in rows.items()}
        assert (totals[(3,)] + 256 * totals[(2, 1)]) % 6 == 0
        assert totals[nu] % 6
        rows = {**rows, (1, 1, 1): (1, -1, 1)}
        monkeypatch.setattr("kronkit.kronecker._row", lambda lam: rows[lam])
        _fresh_memos(monkeypatch)
        assert kronecker._pack(3).width == 1
        pair = (Partition((1, 1, 1)), Partition((1, 1, 1)))
        message = f"class sum for {(*pair, Partition(nu))!r} gave {totals[nu]}/3!"
        with pytest.raises(ExactnessError, match=re.escape(message)):
            kron_expand(*pair)


    def test_remainder_names_the_bad_total(self, monkeypatch):
        # t(3) = 7 and t(2,1) = 6; with the signs, t(1,1,1) = 1 and 6.  Each
        # packed sum leaves a remainder, though its floor quotient, fields
        # (1, 1) and (0, 1), would pass every other test.
        rows = {(3,): (2, 1, 0), (2, 1): (3, 0, 0), (1, 1, 1): (1, -1, 1)}
        monkeypatch.setattr("kronkit.kronecker._row", lambda lam: rows[lam])
        _fresh_memos(monkeypatch)
        pair = (Partition((1, 1, 1)), Partition((1, 1, 1)))
        message = f"class sum for {(*pair, Partition((3,)))!r} gave 7/3!"
        with pytest.raises(ExactnessError, match=re.escape(message)):
            kron_expand(*pair)

    def test_multiplicity_too_wide_for_the_struct_read(self, monkeypatch):
        # Over S_2 (classes (2), (1, 1) of size 1), every row patched to r
        # gives the packed total r0**3 + r1**3 at nu = (2), 2! times a value
        # of 2**64 or more, with bits in the ninth byte of a 9-byte field.  So
        # the 8-byte read of A + B is refused, and every nu is taken from the
        # oracle, which reads the patched row of (1, 1) itself rather than
        # the sign-twisted row of (2) the packed A - B would use.
        row = (2**21, 2**22)
        monkeypatch.setattr("kronkit.kronecker._row", lambda lam: row)
        _fresh_memos(monkeypatch)
        assert kronecker._pack(2).width == 9
        expansion = kron_expand((2,), (2,))
        for nu in partitions_of(2):
            assert expansion[nu] == kron_coeff_direct((2,), (2,), nu) == (2**66 + 2**63) // 2


def test_refused_reads_fall_back_to_the_oracle(monkeypatch):
    # A refused packed read sends kron_expand to the oracle for every nu.  A
    # genuine table never has one (see kron_expand), so every read is refused
    # here.
    monkeypatch.setattr("kronkit.kronecker._quotient_fields", lambda *args: None)
    for m in range(7):
        parts = list(partitions_of(m))
        for lam in parts:
            for mu in parts:
                expansion = kron_expand(lam, mu)
                for nu in parts:
                    assert expansion[nu] == kron_coeff_direct(lam, mu, nu)


def test_genuine_tables_never_reach_the_oracle(monkeypatch):
    # Every packed read of a genuine table passes (see kron_expand), so an
    # expansion that calls _direct has refused a read.  Its values would
    # still be right, at p(m) class sums a pair, and no sweep would notice.
    def refuse(*triple):
        raise AssertionError(f"kron_expand fell back to the oracle at {triple!r}")

    monkeypatch.setattr("kronkit.kronecker._direct", refuse)
    for m in range(9):
        parts = list(partitions_of(m))
        for lam in parts:
            for mu in parts:
                kron_expand(lam, mu)
    # A few pairs at m = 18, each checked by the degrees: sum_nu g * f^nu
    # equals f^lam * f^mu.
    parts = list(partitions_of(18))
    rng = random.Random(18)
    for _ in range(4):
        lam, mu = rng.choice(parts), rng.choice(parts)
        total = sum(k * dimension(nu) for nu, k in kron_expand(lam, mu).items())
        assert total == dimension(lam) * dimension(mu)


def test_packed_columns_equal_shift_and_add():
    # Field k of column rho is chi^nu(rho) for the k-th nu with a field.  The
    # entries up to m = 14 need each of the 1, 2 and 4 byte struct codes.
    sizes = set()
    for m in range(15):
        packed = _pack(m)
        types = cycle_types(m)
        rows = [_row(types[i]) for i, _ in packed.pairs]
        f = max(abs(x) for row in rows for x in row)
        sizes.add(next(s for s in (1, 2, 4, 8) if 2 * f < 1 << 8 * s))
        columns = [
            sum(row[c] << 8 * packed.width * k for k, row in enumerate(rows))
            for c in range(len(types))
        ]
        evens = [col for col, even in zip(columns, packed.even) if even]
        odds = [col for col, even in zip(columns, packed.even) if not even]
        assert packed.even_columns == tuple(evens)
        assert packed.odd_columns == tuple(odds)
    assert sizes == {1, 2, 4}


def test_result_reprs():
    # Neither result record is a named tuple; each repr names its fields.
    assert repr(kron_expand((2,), (1, 1))) == (
        "KroneckerExpansion(degree=2, values={Partition((1, 1)): 1})"
    )
    assert repr(kron_coeff((1,), (1,), (1,))[1]) == (
        "ReductionTrace(steps=[TraceStep(theorem='rectangle-reduce', "
        "before=(Partition((1,)), Partition((1,)), Partition((1,))), "
        "after=(Partition(()), Partition(()), Partition(())), "
        "frame=RectangleFrame(p=1, q=1, r=1, t=1), intermediates=None, value=1)])"
    )


class TestExpand:
    def test_every_entry_to_m9_is_the_oracle(self):
        for m in range(10):
            parts = list(partitions_of(m))
            for lam in parts:
                for mu in parts:
                    expansion = kron_expand(lam, mu)
                    for nu in parts:
                        assert expansion[nu] == kron_coeff_direct(lam, mu, nu)

    @settings(max_examples=60, deadline=None)
    @given(pairs_st())
    def test_matches_the_oracle_beyond_sweeps(self, pair):
        # The oracle reads every row directly, so this also checks the
        # totals kron_expand takes for nu' from the field of nu.
        want = {}
        for nu in partitions_of(sum(pair[0])):
            k = kron_coeff_direct(*pair, nu)
            if k:
                want[nu] = k
        assert dict(kron_expand(*pair).items()) == want

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

    def test_entry_of_another_size_is_refused(self):
        expansion = kron_expand((2, 2), (2, 2))
        for nu in [(5,), (), (1, 1, 1)]:
            with pytest.raises(SizeMismatchError, match=re.escape("sizes differ: [4, ")):
                expansion[nu]


class TestCanonicalTriple:
    def test_sorts_longest_first(self):
        got = canonical_triple((5, 3), (2, 2, 2, 2), (4, 4))
        assert got == (Partition((2, 2, 2, 2)), Partition((4, 4)), Partition((5, 3)))

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            canonical_triple((1,), (2,), (3,))

    def test_in_role_order_agrees_with_the_sort(self):
        # kron_coeff sorts a triple only when this check says it is out of order.
        for m in range(7):
            parts = list(partitions_of(m))
            for t in ((a, b, c) for a in parts for b in parts for c in parts):
                assert _in_role_order(t) == (tuple(sorted(t, key=_role_key)) == t), t


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
        text = json.dumps(trace.to_obj())
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

    def test_every_step_is_sound(self):
        # Each step of a trace holds on its own, not only the final value.
        seen = set()
        for m in range(9):
            for triple in combinations_with_replacement(partitions_of(m), 3):
                for step in kron_coeff(*triple)[1].steps:
                    seen.add(step.theorem)
                    if step.value is not None:
                        assert step.value == kron_coeff_direct(*step.before), step
                    if step.theorem == "rectangle-reduce":
                        assert kron_coeff_direct(*step.before) == kron_coeff_direct(*step.after)
                        # The frame's rectangles are exactly what was peeled.
                        inflated = stability_inflate(*step.after, step.frame)
                        assert sorted(inflated) == sorted(step.before), step
                    elif step.theorem == "canonical-sort":
                        assert sorted(step.after) == sorted(step.before), step
        assert seen == {"canonical-sort", "rectangle-reduce", "vanishing", "formula-2row", "direct"}

    @settings(max_examples=300, deadline=None)
    @given(triples_st())
    def test_agrees_with_direct_beyond_sweeps(self, triple):
        want = kron_coeff_direct(*triple)
        assert kron_coeff(*triple)[0] == want
        for perm in permutations(triple):
            assert kron_coeff(*perm)[0] == want
        lam, mu, nu = triple
        # chi^{lam'} = sgn chi^lam, and sgn^2 = 1 (Macdonald, I.7).
        assert kron_coeff(conjugate(lam), conjugate(mu), nu)[0] == want


@lru_cache(maxsize=None)
def final_steps(m):
    """(triple, the method that names it, the step that gave its value) for
    each canonical triple of m, with a vanishing step's method split by its
    cause: "frame", or the Dvir bound that fired."""
    out = []
    for triple in combinations_with_replacement(partitions_of(m), 3):
        trace = kron_coeff(*triple)[1]
        step = trace.steps[-1]
        method = trace.method
        if method == "vanishing":
            method = "frame" if step.frame is not None else step.intermediates["bound"]
        out.append((triple, method, step))
    return out


def dvir_fires(m):
    """(triple, step) for each canonical triple of m that a Dvir bound ends."""
    return [(t, step) for t, method, step in final_steps(m) if method.startswith("dvir-")]


class TestDvirBounds:
    # How each canonical triple of m ends, in the columns of METHODS.  A fast
    # path that stops firing sends its triples to "direct", where every value
    # stays right; only these counts change.
    METHODS = ("direct", "formula-2row", "reduced", "frame", "dvir-length", "dvir-width")
    FIRES = {
        0: (0, 1, 0, 0, 0, 0),
        1: (0, 0, 1, 0, 0, 0),
        2: (0, 2, 2, 0, 0, 0),
        3: (1, 2, 3, 0, 4, 0),
        4: (7, 6, 6, 3, 13, 0),
        5: (28, 7, 8, 3, 37, 1),
        6: (115, 18, 15, 19, 111, 8),
        7: (325, 20, 19, 27, 267, 22),
        8: (1037, 45, 33, 97, 717, 95),
        9: (2788, 49, 43, 177, 1640, 263),
    }

    @pytest.mark.parametrize("m", sorted(FIRES))
    def test_a_fired_bound_means_zero(self, m):
        for triple, step in dvir_fires(m):
            assert kron_coeff_direct(*triple) == 0, triple
            assert step.theorem == "vanishing" and step.value == 0
            assert step.frame is None and step.before == step.after
            assert step.intermediates["size"] > step.intermediates["limit"]

    @pytest.mark.parametrize("m", sorted(FIRES))
    def test_fire_counts_are_pinned(self, m):
        counts = Counter(method for _, method, _ in final_steps(m))
        assert tuple(counts[method] for method in self.METHODS) == self.FIRES[m]
        assert set(counts) <= set(self.METHODS)

    def test_length_form_before_width_form(self):
        # Both forms hold on ((1, 1, 1), (3), (3)): l = 3 > |(3) ∩ (3)'| = 1
        # and 3 > |(1, 1, 1) ∩ (3)| = 1.  The length form, tried first, names
        # the step.
        _, trace = kron_coeff((3,), (3,), (1, 1, 1))
        assert trace.method == "vanishing"
        assert trace.steps[-1].intermediates == {"bound": "dvir-length", "size": 3, "limit": 1}
