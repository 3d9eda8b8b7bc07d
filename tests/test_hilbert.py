"""Tests for section spaces, traces, and expansion coefficient tools.

The independent oracles here are deliberately low-tech: monomials are
enumerated with itertools, jets are taken with sympy.diff on actual
polynomial expressions, and ranks come from sympy matrices.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from sympy import Matrix, Rational, diff, interpolate, symbols

from chowstab import (Ambient, CentralPrediction, DiagonalOnePS,
                      ExpansionCoeffs, FatPointSpec, MonomialBasis,
                      ProjectivePoint, ZeroLeadingCoefficient, base_coeffs,
                      fat_point_length, futaki_from_coeffs, h0_with_vanishing,
                      level_weight, lifting_shift, line_weight,
                      mumford_weight, normalize_cycle,
                      predicted_central_coeffs, section_trace)
from chowstab.hilbert import jet_vanishing_matrix

P1 = Ambient.projective(1)
P2 = Ambient.projective(2)

COLLINEAR = normalize_cycle(P2, [([1, 0, 0], 1), ([0, 1, 0], 1),
                                 ([1, 1, 0], 1)])


def _monomials(nvars, total):
    """All exponent tuples of the given total degree, any order."""
    out = []
    for bars in itertools.combinations(range(total + nvars - 1), nvars - 1):
        prev = -1
        e = []
        for b in bars + (total + nvars - 1,):
            e.append(b - prev - 1)
            prev = b
        out.append(tuple(e))
    return out


def _sympy_jet_rows(cycle, degree, r=1):
    """Jet matrix oracle: jets via sympy.diff on the dehomogenized monomials.

    Rows run over points, then orders, then descending-lex betas; columns
    over descending-lex monomials.  Each point's rows are scaled by den**d,
    den the common denominator of its affine coordinates.
    """
    n = cycle.ambient.n
    xs = symbols(f"x0:{n + 1}")
    monos = sorted(_monomials(n + 1, degree), reverse=True)
    rows = []
    for p, a in cycle.points:
        piv = p.pivot_index
        subs_pivot = {xs[piv]: 1}
        free = [xs[j] for j in range(n + 1) if j != piv]
        affine = [p.coords[j] / p.coords[piv] for j in range(n + 1)]
        at_point = {xs[j]: Rational(affine[j].numerator,
                                    affine[j].denominator)
                    for j in range(n + 1) if j != piv}
        scale = math.lcm(*(u.denominator for u in affine)) ** degree
        exprs = []
        for e in monos:
            expr = 1
            for xj, ej in zip(xs, e):
                expr *= xj ** ej
            exprs.append(expr.subs(subs_pivot))
        for order in range(r * a):
            for beta in sorted(_monomials(n, order), reverse=True):
                row = []
                for expr in exprs:
                    d = expr
                    for xj, bj in zip(free, beta):
                        if bj:
                            d = diff(d, xj, bj)
                    row.append(d.subs(at_point) * scale)
                rows.append(row)
    return rows


class TestMonomialBasis:
    def test_size_and_extremes(self):
        b = MonomialBasis(2, 3)
        assert len(b) == math.comb(5, 2) == 10
        assert b.exponents[0] == (3, 0, 0)
        assert b.exponents[-1] == (0, 0, 3)
        assert all(sum(e) == 3 for e in b.exponents)

    def test_index_roundtrip(self):
        b = MonomialBasis(3, 2)
        for i, e in enumerate(b.exponents):
            assert b.index(e) == i

    def test_weights(self):
        b = MonomialBasis(1, 2)
        assert b.exponents == ((2, 0), (1, 1), (0, 2))
        assert b.weights(DiagonalOnePS((1, -1))) == [2, 0, -2]

    def test_evaluate(self):
        b = MonomialBasis(1, 2)
        assert b.evaluate([Fraction(2), Fraction(3)]) == [4, 6, 9]

    def test_validation(self):
        with pytest.raises(ValueError):
            MonomialBasis(0, 2)
        with pytest.raises(ValueError):
            MonomialBasis(2, -1)
        with pytest.raises(ValueError):
            MonomialBasis(2, 2).weights(DiagonalOnePS((1, -1)))
        with pytest.raises(ValueError):
            MonomialBasis(2, 2).evaluate([Fraction(1), Fraction(0)])


class TestFatPointLength:
    def test_counts_low_order_jets(self):
        # length = number of derivative conditions = monomials of degree < a
        for n in range(1, 5):
            for a in range(0, 6):
                conds = sum(len(_monomials(n, o)) for o in range(a))
                assert fat_point_length(n, a) == conds

    def test_validation(self):
        with pytest.raises(ValueError):
            fat_point_length(0, 2)
        with pytest.raises(ValueError):
            fat_point_length(2, -1)


class TestH0WithVanishing:
    def test_single_fat_point_formula(self):
        # conditions at one point are independent once degree >= order - 1
        cyc = normalize_cycle(P2, [([1, 0, 0], 3)])
        assert h0_with_vanishing(FatPointSpec(cyc, 2)) == 0
        assert h0_with_vanishing(FatPointSpec(cyc, 3)) == 4
        for d in range(2, 8):
            expect = math.comb(d + 2, 2) - fat_point_length(2, 3)
            assert h0_with_vanishing(FatPointSpec(cyc, d)) == expect

    def test_two_points_on_line(self):
        cyc = normalize_cycle(P1, [([1, 2], 2), ([1, 0], 1)])
        # cubics divisible by (x1 - 2 x0)^2 * x1, one dimension
        assert h0_with_vanishing(FatPointSpec(cyc, 3)) == 1

    def test_collinear_triple_conics(self):
        assert h0_with_vanishing(FatPointSpec(COLLINEAR, 2)) == 3

    def test_empty_cycle_gives_full_space(self):
        cyc = normalize_cycle(P2, [])
        assert h0_with_vanishing(FatPointSpec(cyc, 3)) == 10

    def test_matches_sympy_jets(self):
        # every entry, not only the rank; the draw must reach P^3, zero
        # coordinates, denominators and orders above d+1 (all-zero rows)
        rng = random.Random(2401)
        seen = set()
        for _ in range(16):
            n = rng.randint(1, 3)
            pts = []
            for _ in range(rng.randint(1, 2)):
                while True:
                    c = [Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                         for _ in range(n + 1)]
                    if any(c):
                        break
                pts.append((c, rng.randint(1, 3)))
            cyc = normalize_cycle(Ambient.projective(n), pts)
            d = rng.randint(0, 5 - n)
            r = rng.randint(1, 2)
            spec = FatPointSpec(cyc, d, r=r)
            rows = _sympy_jet_rows(cyc, d, r=r)
            assert jet_vanishing_matrix(spec) == rows
            rank = Matrix(rows).rank() if rows else 0
            assert h0_with_vanishing(spec) == math.comb(n + d, n) - rank
            seen.add(n)
            for p, a in cyc.points:
                if 0 in p.coords:
                    seen.add("zero")
                if any(c.denominator > 1 for c in p.coords):
                    seen.add("den")
                if r * a > d + 1:
                    seen.add("high")
        assert seen == {1, 2, 3, "zero", "den", "high"}

    def test_r_scales_orders(self):
        cyc = normalize_cycle(P2, [([1, 0, 0], 1)])
        doubled = normalize_cycle(P2, [([1, 0, 0], 2)])
        for d in range(1, 6):
            assert (h0_with_vanishing(FatPointSpec(cyc, d, r=2))
                    == h0_with_vanishing(FatPointSpec(doubled, d, r=1)))

    def test_validation(self):
        with pytest.raises(ValueError):
            FatPointSpec(COLLINEAR, -1)
        with pytest.raises(ValueError):
            FatPointSpec(COLLINEAR, 2, r=0)
        prod = normalize_cycle(Ambient.product(1, 1), [([1, 0, 1, 0], 1)])
        with pytest.raises(ValueError):
            FatPointSpec(prod, 2)


class TestJetVanishingMatrix:
    def test_known_sections_are_annihilated(self):
        spec = FatPointSpec(COLLINEAR, 2)
        m = jet_vanishing_matrix(spec)
        assert len(m) == spec.expected_rows == 3
        basis = MonomialBasis(2, 2)
        # every conic divisible by x2 vanishes on the three support points
        for mono in [(0, 0, 2), (1, 0, 1), (0, 1, 1)]:
            j = basis.index(mono)
            assert all(row[j] == 0 for row in m)

    def test_row_count_for_fat_points(self):
        cyc = normalize_cycle(P2, [([1, 0, 0], 2), ([0, 1, 0], 1)])
        spec = FatPointSpec(cyc, 4, r=2)
        assert spec.expected_rows == (fat_point_length(2, 4)
                                      + fat_point_length(2, 2))
        assert len(jet_vanishing_matrix(spec)) == spec.expected_rows


class TestSectionTrace:
    def test_full_space_matches_enumeration(self):
        rng = random.Random(2402)
        for _ in range(12):
            n = rng.randint(1, 3)
            d = rng.randint(0, 4)
            w = [rng.randint(-3, 3) for _ in range(n + 1)]
            expect = -sum(sum(wi * ei for wi, ei in zip(w, e))
                          for e in _monomials(n + 1, d))
            assert section_trace(DiagonalOnePS(w), n, d) == expect

    def test_full_space_closed_form(self):
        # sum of <w, e> over degree d equals S d C(d+n, n)/(n+1)
        w = DiagonalOnePS((1, 2, 3))
        assert section_trace(w, 2, 3) == Fraction(-6 * 3 * 10, 3) == -60


class TestBaseCoeffs:
    def test_matches_interpolated_expansions(self):
        k = symbols("k")
        for n, w in [(2, (1, 1, -2)), (2, (3, 0, 1)), (3, (1, 0, 0, 1))]:
            alpha = DiagonalOnePS(w)
            base = base_coeffs(n, alpha)
            dims = [(kk, math.comb(kk + n, n)) for kk in range(1, n + 3)]
            dim_poly = interpolate(dims, k).as_poly(k)
            assert Rational(base.c0) == dim_poly.nth(n)
            assert Rational(base.c1) == dim_poly.nth(n - 1)
            traces = [(kk, Rational(section_trace(alpha, n, kk)))
                      for kk in range(1, n + 4)]
            tr_poly = interpolate(traces, k).as_poly(k)
            assert Rational(base.b0) == tr_poly.nth(n + 1)
            assert Rational(base.b1) == tr_poly.nth(n)

    def test_traceless_weights_kill_b_terms(self):
        base = base_coeffs(2, DiagonalOnePS((1, 1, -2)))
        assert base == ExpansionCoeffs(Fraction(1, 2), Fraction(3, 2), 0, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            base_coeffs(2, DiagonalOnePS((1, -1)))


class TestFutakiAndLifting:
    def test_hand_value(self):
        assert futaki_from_coeffs(ExpansionCoeffs(1, 2, 3, 4)) == 2

    def test_zero_leading_coefficient(self):
        with pytest.raises(ZeroLeadingCoefficient):
            futaki_from_coeffs(ExpansionCoeffs(0, 2, 3, 4))

    def test_shift_formula(self):
        e = ExpansionCoeffs(Fraction(1, 2), Fraction(3, 2), 1, 2)
        s = lifting_shift(e, Fraction(4))
        assert s == ExpansionCoeffs(Fraction(1, 2), Fraction(3, 2), 3, 8)

    def test_invariance_under_lifting(self):
        rng = random.Random(2403)
        for _ in range(25):
            e = ExpansionCoeffs(
                Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            lam = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            assert futaki_from_coeffs(lifting_shift(e, lam)) \
                == futaki_from_coeffs(e)


class TestLineWeight:
    def test_hand_values(self):
        assert line_weight(ProjectivePoint([0, 0, 1]),
                           DiagonalOnePS((0, 1, 1))) == -1
        assert line_weight(ProjectivePoint([1, 0, 0]),
                           DiagonalOnePS((0, 1, 1))) == 0
        assert line_weight(ProjectivePoint([1, 1, 0]),
                           DiagonalOnePS((2, -1, -1))) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            line_weight(ProjectivePoint([1, 0]), DiagonalOnePS((1, 0, -1)))


class TestPredictedCentralCoeffs:
    def test_collinear_triple(self):
        pred = predicted_central_coeffs(COLLINEAR, DiagonalOnePS((1, 1, -2)),
                                        4)
        assert isinstance(pred, CentralPrediction)
        # three separate clusters of one unit point, each with lam = -1
        assert pred.coeffs == ExpansionCoeffs(
            Fraction(13, 2), Fraction(9, 2), 6, 6)
        assert pred.b0_slack_O1 and pred.b1_slack_O1

    def test_single_point(self):
        cyc = normalize_cycle(P2, [([1, 0, 0], 1)])
        pred = predicted_central_coeffs(cyc, DiagonalOnePS((2, -1, -1)), 3)
        assert pred.coeffs == ExpansionCoeffs(4, 4, 3, 3)

    def test_gamma_polynomial_shape(self):
        # c0' and c1' are exact polynomials in gamma with known coefficients
        alpha = DiagonalOnePS((1, 1, -2))
        for g in range(2, 7):
            c = predicted_central_coeffs(COLLINEAR, alpha, g).coeffs
            assert c.c0 == Fraction(g * g, 2) - Fraction(3, 2)
            assert c.c1 == Fraction(3 * g, 2) - Fraction(3, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            predicted_central_coeffs(
                normalize_cycle(P1, [([1, 0], 1)]), DiagonalOnePS((1, -1)), 3)
        with pytest.raises(ValueError):
            predicted_central_coeffs(COLLINEAR, DiagonalOnePS((1, 1, -2)), 0)


class TestLevelWeight:
    def test_scaling_law(self):
        rng = random.Random(2404)
        for _ in range(20):
            n = rng.randint(1, 2)
            while True:
                c = [rng.randint(-2, 2) for _ in range(n + 1)]
                if any(c):
                    break
            p = ProjectivePoint(c)
            w = DiagonalOnePS([rng.randint(-3, 3) for _ in range(n + 1)])
            g = rng.randint(1, 4)
            assert level_weight(p, w, g) == g * mumford_weight(p, w)
