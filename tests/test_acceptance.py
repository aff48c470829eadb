"""Acceptance gate: one test per criterion, exact integer equalities only.

Each test prints a PASS/FAIL line so the suite output doubles as the
acceptance report.  Bounds match the stated criteria; nothing is sampled,
every sweep is exhaustive over its triple space.
"""

import math

from kronkit import (
    Partition,
    character_row,
    class_weights,
    conjugate,
    dimension,
    intersect,
    kron_expand,
    mn_value,
)
from kronkit.partitions import partitions_of
from kronkit.verify import run_suite


def report(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def by_name(results):
    return {r.name: r for r in results}


def test_criterion_01_oracle_self_consistency():
    checked = 0
    for n in range(9):
        rows = [character_row(lam) for lam in partitions_of(n)]
        weights = class_weights(n)
        fact = math.factorial(n)
        for i, a in enumerate(rows):
            for j, b in enumerate(rows):
                total = sum(w * x * y for w, x, y in zip(weights, a, b))
                assert total == (fact if i == j else 0)
                checked += 1
    for n in range(11):
        identity = Partition((1,) * n)
        for lam in partitions_of(n):
            assert mn_value(lam, identity) == dimension(lam)
            checked += 1
    report(1, True, f"orthogonality n<=8 and hook dimensions n<=10, {checked} checks")


def test_criterion_02_stability_sweep():
    results = by_name(run_suite("stability", 5))
    res = results["stability"]
    report(2, res.ok, f"{res.checked} inflated instances; {res.failures or 'no counterexamples'}")


def test_criterion_03_rectangle_reduction_sweep():
    results = by_name(run_suite("reduction", 10))
    zero, pres = results["reduction-zero"], results["reduction-preserve"]
    ok = zero.ok and pres.ok
    report(
        3,
        ok,
        f"zero branch {zero.checked}, reduced branch {pres.checked}; "
        f"{(zero.failures + pres.failures) or 'no counterexamples'}",
    )


def test_criterion_04_lr_pair_identity():
    res = by_name(run_suite("lr", 6))["lr-pair-identity"]
    report(4, res.ok, f"{res.checked} (lam,mu,pi) identities; {res.failures or 'exact'}")


def test_criterion_05_lr_dominates_kron():
    res = by_name(run_suite("lr", 6))["lr-dominates-kron"]
    report(5, res.ok, f"{res.checked} inequalities; {res.failures or 'exact'}")


def test_criterion_06_dvir_sweep():
    res = by_name(run_suite("dvir", 7))["dvir"]
    report(6, res.ok, f"{res.checked} applicable triples; {res.failures or 'exact'}")


def test_criterion_07_two_row_formula_sweep():
    res = by_name(run_suite("formulas", 12))["formula-2row"]
    report(7, res.ok, f"{res.checked} triples m<=12; {res.failures or 'exact'}")


def test_criterion_08_four_two_two_formula_sweep():
    results = by_name(run_suite("formulas", 12))
    formula, consistency = results["formula-422"], results["formula-consistency"]
    ok = formula.ok and consistency.ok
    report(
        8,
        ok,
        f"formula {formula.checked}, reduce-then-2row consistency {consistency.checked}; "
        f"{(formula.failures + consistency.failures) or 'exact'}",
    )


def test_criterion_09_component_length_bound():
    checked = 0
    for m in range(2, 11):
        short = [p for p in partitions_of(m, max_length=2) if p.length == 2]
        for mu in short:
            for nu in short:
                bound = intersect(mu, conjugate(nu)).size
                assert bound <= 4
                for comp, k in kron_expand(mu, nu).items():
                    assert k > 0
                    assert comp.length <= bound
                    checked += 1
    report(9, True, f"{checked} components within |mu ∩ nu'| <= 4")


def test_criterion_10_dispatcher_equivalence():
    res = by_name(run_suite("dispatch", 8))["dispatch"]
    report(10, res.ok, f"{res.checked} ordered triples m<=8; {res.failures or 'exact'}")
