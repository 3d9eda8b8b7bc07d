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
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix, Rational, diff, interpolate, symbols

from chowstab import (Ambient, DiagonalOnePS, ExpansionCoeffs, FatPointSpec,
                      MonomialBasis, ProjectivePoint, ZeroLeadingCoefficient,
                      base_coeffs,
                      fat_point_length, futaki_from_coeffs, h0_with_vanishing,
                      level_weight, lifting_shift, line_weight,
                      mumford_weight, normalize_cycle,
                      predicted_central_coeffs, section_trace)
from chowstab.hilbert import _exponents, _int_jet_rows, jet_vanishing_matrix
from jet_reference import exponents as reference_exponents
from jet_reference import reference_jet_matrix, reference_jet_rows

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
        assert b.exponents.shape == (10, 3)
        assert b.exponents[0].tolist() == [3, 0, 0]
        assert b.exponents[-1].tolist() == [0, 0, 3]
        assert (b.exponents.sum(axis=1) == 3).all()

    def test_exponents_are_read_only(self):
        with pytest.raises(ValueError):
            MonomialBasis(2, 3).exponents[0, 0] = 1

    def test_index_roundtrip(self):
        b = MonomialBasis(3, 2)
        for i, e in enumerate(b.exponents.tolist()):
            assert b.index(tuple(e)) == i
        with pytest.raises(KeyError):
            b.index((1, 1, 1, 0))

    def test_weights(self):
        b = MonomialBasis(1, 2)
        assert b.exponents.tolist() == [[2, 0], [1, 1], [0, 2]]
        assert b.weights(DiagonalOnePS((1, -1))) == [2, 0, -2]

    @pytest.mark.parametrize("w", [
        (1, -1, 2),
        # max|w| * d = 2^62 - 4, the largest in int64, then past 2^62
        ((1 << 62) // 5, -3, 7),
        ((1 << 62) // 5 + 1, -3, 7),
        (-((1 << 62) // 5) - 1, 1 << 40, 0),
        (10 ** 30, -10 ** 30, 1),
        (-10 ** 30, 3, 10 ** 30 + 1),
    ])
    def test_weights_are_exact_across_the_int64_switch(self, w):
        b = MonomialBasis(2, 5)
        got = b.weights(DiagonalOnePS(w))
        want = [sum(wi * ei for wi, ei in zip(w, e))
                for e in reference_exponents(3, 5)]
        assert got == want
        assert all(type(x) is int for x in got)

    def test_weights_at_degree_zero_with_large_weights(self):
        assert MonomialBasis(1, 0).weights(DiagonalOnePS((10 ** 30, 1))) == [0]

    def test_evaluate(self):
        b = MonomialBasis(1, 2)
        assert b.evaluate([Fraction(2), Fraction(3)]) == [4, 6, 9]

    def test_evaluate_is_exact_past_int64(self):
        got = MonomialBasis(1, 3).evaluate([2 ** 40, 1])
        assert got == [2 ** 120, 2 ** 80, 2 ** 40, 1]
        assert all(type(v) is Fraction for v in got)

    def test_float_sizes_are_refused(self):
        with pytest.raises(TypeError):
            MonomialBasis(2, 2.0)
        with pytest.raises(TypeError):
            MonomialBasis(2.0, 2)

    def test_exponents_match_the_recursive_definition(self):
        for nvars in range(1, 6):
            for total in range(9):
                got = _exponents(nvars, total)
                assert got.shape == (math.comb(total + nvars - 1, nvars - 1),
                                     nvars)
                assert [tuple(e) for e in got.tolist()] == \
                    reference_exponents(nvars, total)

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
            assert jet_vanishing_matrix(spec).tolist() == rows
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


# the per-cell reference visits every cell in Python: keep each block small
_CELL_BUDGET = 40_000


def _max_order(n, d):
    """The largest order up to d+2 whose jet block fits the cell budget."""
    ncols = math.comb(n + d, n)
    return max(o for o in range(1, d + 3)
               if ncols * math.comb(n + o - 1, n) <= _CELL_BUDGET)


def _coordinates(n):
    """Zeros, small integers, and numerators up to 2^40 over denominators."""
    entry = st.one_of(
        st.just(0), st.integers(-3, 3),
        st.builds(Fraction, st.integers(-2 ** 40, 2 ** 40),
                  st.integers(1, 2 ** 20)))
    return st.lists(entry, min_size=n + 1, max_size=n + 1).filter(any)


def _assert_exact_block(m, ref, ncols):
    assert m.dtype == object and m.shape == (len(ref), ncols)
    assert m.tolist() == ref
    assert all(type(x) is int for x in m.flat)


class TestJetArray:
    """The broadcast jet builder against the per-cell reference, past the
    degrees that the sympy oracle reaches and past int64 entries."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.data())
    def test_block_matches_cell_reference(self, data):
        n = data.draw(st.integers(1, 3))
        d = data.draw(st.integers(0, 16))
        order = data.draw(st.integers(1, _max_order(n, d)))
        p = ProjectivePoint(data.draw(_coordinates(n)))
        basis = MonomialBasis(n, d)
        ref = reference_jet_rows(p, order, basis)
        _assert_exact_block(_int_jet_rows(p, order, basis), ref, len(basis))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_matrix_matches_cell_reference(self, data):
        n = data.draw(st.integers(1, 3))
        d = data.draw(st.integers(0, 16))
        r = data.draw(st.integers(1, 2))
        top = max(1, _max_order(n, d) // r)
        points = data.draw(st.lists(
            st.tuples(_coordinates(n), st.integers(1, top)), max_size=3))
        spec = FatPointSpec(normalize_cycle(Ambient.projective(n), points),
                            d, r=r)
        _assert_exact_block(jet_vanishing_matrix(spec),
                            reference_jet_matrix(spec),
                            math.comb(n + d, n))

    def test_entries_past_int64(self):
        # large numerators over a denominator, at high degree and order
        p = ProjectivePoint([3, 2 ** 40 + 1, -(2 ** 39) - 5])
        basis = MonomialBasis(2, 16)
        m = _int_jet_rows(p, 4, basis)
        assert max(abs(x) for x in m.flat) >= 2 ** 62
        _assert_exact_block(m, reference_jet_rows(p, 4, basis), len(basis))

    def test_empty_cycle_shape(self):
        for n, d in [(1, 0), (2, 3), (3, 5)]:
            m = jet_vanishing_matrix(
                FatPointSpec(normalize_cycle(Ambient.projective(n), []), d))
            assert m.dtype == object
            assert m.shape == (0, math.comb(n + d, n))


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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, 8),
        st.lists(st.integers(-10 ** 30, 10 ** 30), min_size=n + 1,
                 max_size=n + 1))))
    def test_closed_form_matches_monomial_sum(self, case):
        n, d, w = case
        expect = -sum(sum(wi * ei for wi, ei in zip(w, e))
                      for e in _monomials(n + 1, d))
        got = section_trace(DiagonalOnePS(w), n, d)
        assert isinstance(got, Fraction) and got == expect

    def test_validation(self):
        with pytest.raises(ValueError, match="length"):
            section_trace(DiagonalOnePS((1, 2, 3)), 3, 2)
        with pytest.raises(ValueError, match="n >= 1"):
            section_trace(DiagonalOnePS((1,)), 0, 2)
        with pytest.raises(ValueError, match="degree >= 0"):
            section_trace(DiagonalOnePS((1, 2, 3)), 2, -1)


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
        # three separate clusters of one unit point, each with lam = -1
        assert pred == ExpansionCoeffs(Fraction(13, 2), Fraction(9, 2), 6, 6)

    def test_single_point(self):
        cyc = normalize_cycle(P2, [([1, 0, 0], 1)])
        pred = predicted_central_coeffs(cyc, DiagonalOnePS((2, -1, -1)), 3)
        assert pred == ExpansionCoeffs(4, 4, 3, 3)

    def test_gamma_polynomial_shape(self):
        # c0' and c1' are exact polynomials in gamma with known coefficients
        alpha = DiagonalOnePS((1, 1, -2))
        for g in range(2, 7):
            c = predicted_central_coeffs(COLLINEAR, alpha, g)
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
