"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines
as they are produced.  Every criterion prints its line before asserting,
so the verdict is visible even when the assertion fires.
"""

import itertools
import math
import time
from fractions import Fraction

import pytest

from chowstab import (Ambient, DiagonalOnePS, MonomialBasis, ProjectivePoint,
                      Subspace, TestConfigSpec, central_fibre_cycle,
                      classify, df_invariant, exhaustive_ops_search,
                      expansion_comparison, fat_point_length, FatPointSpec,
                      h0_with_vanishing, normalize_cycle,
                      predicted_central_coeffs)
from chowstab.balance import BalanceCycle, balance_flow
from fibre_reference import checked_fibre

P1 = Ambient.projective(1)
P2 = Ambient.projective(2)
W112 = DiagonalOnePS((1, 1, -2))
W211 = DiagonalOnePS((2, -1, -1))

COLLINEAR = normalize_cycle(P2, [([1, 0, 0], 1), ([0, 1, 0], 1),
                                 ([1, 1, 0], 1)])
COLLIDING = normalize_cycle(P2, [([1, 0, 0], 1), ([1, 1, 0], 1),
                                 ([1, 0, 1], 1)])

SEVEN_POINTS = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1],
                [1, 1, 0], [1, 2, 3], [1, -1, 2]]


def _report(num, name, ok):
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


@pytest.fixture(scope="module")
def bounded_search_sweep():
    """classify + exhaustive search over every corpus configuration."""
    t0 = time.perf_counter()
    out = []
    for k in range(1, 5):
        for idx in itertools.combinations(range(7), k):
            for mults in itertools.product((1, 2), repeat=k):
                cyc = normalize_cycle(
                    P2, [(SEVEN_POINTS[i], m) for i, m in zip(idx, mults)])
                out.append((cyc, classify(cyc),
                            exhaustive_ops_search(cyc, 3)))
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def collinear_sweep():
    return expansion_comparison(COLLINEAR, W112, range(4, 9))


def test_criterion_01_classifier_agrees_with_search(bounded_search_sweep):
    sweep, elapsed = bounded_search_sweep
    mismatches = [(cyc, v.status, s.weight) for cyc, v, s in sweep
                  if v.is_unstable != (s.weight > 0)]
    ok = not mismatches and len(sweep) == 938 and elapsed < 300.0
    _report(1, "classifier equals bounded 1-PS search "
               f"({len(sweep)} configs, {elapsed:.1f}s)", ok)
    assert len(sweep) == 938
    assert not mismatches, mismatches[:3]
    assert elapsed < 300.0


def test_criterion_02_destabilizer_identity(bounded_search_sweep):
    sweep, _ = bounded_search_sweep
    checked = 0
    ok = True
    for cyc, verdict, _ in sweep:
        if not verdict.is_unstable:
            continue
        cert = verdict.certificate
        k = cert.subspace.dim
        closed = 3 * cert.mass_on_v - cert.total_mass * (k + 1)
        if cert.destabilizer.chow_weight != closed:
            ok = False
            break
        checked += 1
    ok = ok and checked > 0
    _report(2, f"destabilizer weight identity on {checked} certificates", ok)
    assert ok


# corpus for the aligned-mass rule; the first two entries of each point
# list span the distinguished line
ALIGNED_OVER = [
    [([1, 0, 0], 1), ([0, 1, 0], 1), ([1, 1, 0], 1)],
    [([1, 0, 0], 2), ([0, 1, 0], 1), ([1, 1, 0], 1)],
    [([1, 0, 0], 1), ([0, 1, 0], 1), ([1, 1, 0], 1), ([0, 0, 1], 1)],
    [([1, 0, 0], 1), ([0, 1, 0], 1), ([1, 1, 0], 1), ([1, 2, 0], 1),
     ([0, 0, 1], 1)],
    [([1, 0, 0], 2), ([0, 1, 0], 2), ([1, 1, 0], 2), ([0, 0, 1], 1),
     ([1, 1, 1], 1)],
    [([1, 0, 0], 2), ([0, 1, 0], 2), ([1, 1, 0], 1), ([0, 0, 1], 1),
     ([1, 1, 1], 1)],
    [([1, 0, 0], 2), ([0, 1, 0], 2), ([0, 0, 1], 1)],
    [([1, 0, 0], 1), ([0, 1, 0], 1), ([1, 1, 0], 1), ([1, 2, 0], 1),
     ([1, 3, 0], 1), ([0, 0, 1], 1), ([1, 1, 1], 1)],
    [([1, 0, 1], 1), ([0, 1, 1], 1), ([1, 1, 2], 1), ([1, 0, 0], 1)],
    [([1, 0, 0], 2), ([0, 1, 0], 2), ([1, 1, 0], 2), ([0, 0, 1], 1)],
    [([1, 0, 0], 2), ([0, 1, 0], 1), ([1, 1, 0], 1), ([1, 2, 0], 1),
     ([0, 0, 1], 1), ([1, 1, 1], 1)],
    [([1, 0, 0], 1), ([0, 1, 0], 1), ([1, -1, 0], 1), ([0, 0, 1], 1)],
]
ALIGNED_UNDER = [
    [([1, 0, 0], 1), ([0, 1, 0], 1), ([0, 0, 1], 1), ([1, 1, 1], 1)],
    [([1, 0, 0], 1), ([1, 1, 0], 1), ([0, 0, 1], 1), ([1, 2, 3], 1)],
    [([1, 0, 0], 1), ([0, 1, 0], 1), ([1, 1, 0], 1), ([0, 0, 1], 1),
     ([1, 1, 1], 1)],
    [([1, 0, 0], 1), ([0, 1, 0], 1), ([1, 2, 0], 1), ([0, 0, 1], 1),
     ([1, 2, 3], 1)],
    [([1, 0, 0], 1), ([0, 1, 0], 1), ([1, 1, 0], 1), ([0, 0, 1], 1),
     ([1, 1, 1], 1), ([1, 2, 3], 1)],
    [([1, 0, 0], 2), ([0, 1, 0], 1), ([0, 0, 1], 2), ([1, 1, 1], 1)],
    [([1, 0, 0], 1), ([0, 1, 0], 1), ([0, 0, 1], 2), ([1, 1, 1], 2)],
    [([1, 0, 1], 1), ([0, 1, 1], 1), ([1, 1, 2], 1), ([1, 0, 0], 1),
     ([0, 1, 0], 1)],
]


def _line_data(points):
    cyc = normalize_cycle(P2, points)
    line = Subspace([ProjectivePoint(points[0][0]),
                     ProjectivePoint(points[1][0])])
    mass_on = sum(m for p, m in cyc.points if line.contains(p))
    total = cyc.total_mass()
    return cyc, line, Fraction(mass_on, total), Fraction(mass_on, 2), \
        Fraction(total, 3)


def test_criterion_03_aligned_mass_rule():
    ok = True
    for points in ALIGNED_OVER:
        cyc, _, frac, _, _ = _line_data(points)
        if not (frac > Fraction(2, 3) and classify(cyc).is_unstable):
            ok = False
    for points in ALIGNED_UNDER:
        cyc, _, frac, ratio, threshold = _line_data(points)
        if not (frac < Fraction(2, 3) and ratio <= threshold
                and not classify(cyc).is_unstable):
            ok = False
    total = len(ALIGNED_OVER) + len(ALIGNED_UNDER)
    _report(3, f"aligned mass 2/3 rule on {total} corpus cases", ok)
    assert total == 20
    assert ok


def test_criterion_04_section_count_oracle():
    counts_ok = True
    for m in range(1, 7):
        cyc = normalize_cycle(P2, [([1, 0, 0], m)])
        for d in range(m - 1, 16):
            expect = math.comb(d + 2, 2) - math.comb(m + 1, 2)
            if h0_with_vanishing(FatPointSpec(cyc, d)) != expect:
                counts_ok = False
    triangle = normalize_cycle(P2, [([1, 0, 0], 1), ([0, 1, 0], 1),
                                    ([0, 0, 1], 1)])
    alpha = DiagonalOnePS((1, 0, -1))
    fits_ok = True
    for g in (4, 5, 6):
        res = df_invariant(TestConfigSpec(triangle, alpha, g))
        pred = predicted_central_coeffs(triangle, alpha, g)
        if (res.central.fitted.c0 != pred.c0
                or res.central.fitted.c1 != pred.c1):
            fits_ok = False
    ok = counts_ok and fits_ok
    _report(4, "section counts and fitted leading coefficients", ok)
    assert counts_ok
    assert fits_ok


def test_criterion_05_flat_limit_of_colliding_triple():
    alpha = DiagonalOnePS((0, 1, 1))
    fibre = checked_fibre(COLLIDING, alpha, 2)
    basis = MonomialBasis(2, 2)

    def unit(mono):
        row = [Fraction(0)] * len(basis)
        row[basis.index(mono)] = Fraction(1)
        return tuple(row)

    span_ok = fibre.basis == (unit((0, 2, 0)), unit((0, 1, 1)),
                              unit((0, 0, 2)))
    (rep,) = central_fibre_cycle(COLLIDING, alpha, [2])
    q = ProjectivePoint([1, 0, 0])
    neighborhood_ok = (rep.dim == len(basis) - fat_point_length(2, 2)
                       and rep.vanishing_orders == {q: 2})
    ok = span_ok and neighborhood_ok
    _report(5, "flat limit is the doubled collision point", ok)
    assert span_ok
    assert neighborhood_ok


def test_criterion_06_invariance_under_lifting_shift():
    cases = [
        (COLLINEAR, (1, 1, -2), 3),
        (normalize_cycle(P2, [([1, 0, 0], 1)]), (2, -1, -1), 3),
        (normalize_cycle(P2, [([1, 0, 0], 1), ([0, 1, 0], 1),
                              ([0, 0, 1], 1), ([1, 1, 1], 1)]),
         (2, -1, -1), 3),
        (normalize_cycle(P2, [([1, 0, 0], 1), ([0, 1, 0], 1),
                              ([0, 0, 1], 1)]), (1, 0, -1), 3),
        (normalize_cycle(P2, [([1, 0, 0], 2), ([0, 1, 1], 1)]),
         (1, 1, -2), 3),
    ]
    ok = True
    for cycle, weights, gamma in cases:
        values = set()
        for c in range(-2, 3):
            shifted = DiagonalOnePS(tuple(w + c for w in weights))
            values.add(df_invariant(
                TestConfigSpec(cycle, shifted, gamma)).f_exact)
        if len(values) != 1:
            ok = False
    _report(6, "invariant unchanged under constant weight shifts", ok)
    assert ok


def test_criterion_07_empty_cycle_gives_zero():
    empty = normalize_cycle(P2, [])
    v1 = df_invariant(TestConfigSpec(empty, W112, 3)).f_exact
    v2 = df_invariant(TestConfigSpec(empty, W211, 3)).f_exact
    ok = v1 == 0 and v2 == 0
    _report(7, "empty cycle invariant is exactly zero", ok)
    assert ok


def test_criterion_08_collinear_window_fit(collinear_sweep):
    # F = F(X) gamma^n - Ch gamma / (2 (n-2)!) + O(1): on P^2 the gamma^2
    # term is the base Futaki invariant (0) and the -3/2 rate sits in gamma
    rep = collinear_sweep
    assert rep.predicted_gamma_power_coeff == 0
    assert rep.predicted_gamma_coeff == Fraction(-3, 2)
    negative_ok = all(f < 0 for f in rep.f_values)
    # the fit's gamma^2 term may move the slope at the window centre by at
    # most 15% of the predicted rate
    mid = Fraction(sum(rep.gammas), len(rep.gammas))
    bound = Fraction(15, 100) * abs(rep.predicted_gamma_coeff) / (2 * mid)
    quad_ok = abs(rep.leading_coeff - rep.predicted_gamma_power_coeff) <= bound
    ok = negative_ok and quad_ok
    _report(8, "negative window, fit gamma^2 term matches the gamma^n "
               "prediction (rate in the gamma term)", ok)
    assert negative_ok
    assert quad_ok, (
        f"degree-2 fit gamma^2 coefficient is {float(rep.leading_coeff):.6f},"
        f" not within {float(bound):.6f} of the gamma^n prediction"
        f" {float(rep.predicted_gamma_power_coeff)} (15% of the predicted"
        f" rate {float(rep.predicted_gamma_coeff)} over 2 x window mean"
        f" {float(mid)})")


def test_criterion_08_companion_centered_slope(collinear_sweep):
    # the linear rate of the same fit does land on the predicted -3/2
    rep = collinear_sweep
    target = rep.predicted_gamma_coeff
    rel = abs(float(rep.centered_slope - target) / float(target))
    ok = rel <= 0.15
    _report(8, f"companion diagnostic: centered slope within 15% "
               f"(actual {rel:.1%})", ok)
    assert target == Fraction(-3, 2)
    assert ok


def test_criterion_09_b0_deviation_bounded(collinear_sweep):
    rep = collinear_sweep
    devs = {row.gamma: abs(row.b0_dev) for row in rep.rows}
    bound = 2 * devs[4]
    ok = devs[4] > 0 and all(d <= bound for d in devs.values())
    _report(9, "b0 deviation stays within twice its first value", ok)
    assert ok


BALANCE_CORPUS = [
    (P1, [([1, 0], 1), ([0, 1], 1), ([1, 1], 1)]),
    (P1, [([1, 0], 1), ([0, 1], 1), ([1, 1], 1), ([2, 1], 1)]),
    (P2, [([1, 0, 0], 1), ([0, 1, 0], 1), ([0, 0, 1], 1), ([1, 1, 1], 1)]),
    (P2, [([1, 0, 0], 1), ([0, 1, 0], 1), ([0, 0, 1], 1), ([1, 1, 1], 1),
          ([1, 2, 3], 1)]),
    (P2, [([1, 0, 0], 1), ([0, 1, 0], 1), ([0, 0, 1], 1), ([1, 1, 1], 1),
          ([1, 2, 3], 1), ([1, -1, 2], 1)]),
    (P2, [([1, 0, 0], 2), ([0, 1, 0], 2), ([0, 0, 1], 2), ([1, 1, 1], 2)]),
    (P2, [([1, 0, 0], 1), ([0, 1, 0], 1), ([1, 1, 0], 1)]),
    (P2, [([1, 0, 0], 2), ([0, 1, 0], 1), ([0, 0, 1], 1)]),
    (P2, [([1, 0, 0], 1)]),
    (P2, [([1, 0, 0], 2), ([0, 1, 0], 2), ([1, 1, 0], 2), ([0, 0, 1], 1)]),
    (P2, [([1, 0, 0], 2), ([0, 1, 0], 1)]),
    (P1, [([1, 0], 1)]),
]


def test_criterion_10_balance_and_length_counting():
    flow_ok = True
    seen = {"stable": 0, "unstable": 0}
    for amb, points in BALANCE_CORPUS:
        cyc = normalize_cycle(amb, points)
        status = classify(cyc).status
        seen[status] = seen.get(status, 0) + 1
        flow = balance_flow(BalanceCycle.from_weighted(cyc))
        if status == "stable":
            if flow.status != "converged" or flow.residual_norm >= 1e-8:
                flow_ok = False
        elif status == "unstable":
            if flow.status != "diverged":
                flow_ok = False

    def brute_length(n, a):
        if a == 0:
            return 0
        count = 0
        for e in itertools.product(range(a), repeat=n):
            if sum(e) <= a - 1:
                count += 1
        return count

    lengths_ok = all(fat_point_length(n, a) == brute_length(n, a)
                     for n in range(1, 5) for a in range(0, 6))
    corpus_ok = (len(BALANCE_CORPUS) == 12
                 and seen["stable"] == 6 and seen["unstable"] == 6)
    ok = flow_ok and lengths_ok and corpus_ok
    _report(10, "balance flow matches verdicts; fat point lengths exact", ok)
    assert corpus_ok
    assert flow_ok
    assert lengths_ok
