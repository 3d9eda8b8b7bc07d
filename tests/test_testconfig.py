"""Tests for moving section families, flat limits, and the DF pipeline.

The worked examples here are small enough to solve by hand: conics through
three points colliding along a one-parameter subgroup, and a single moving
point.  The golden values for the invariant itself were frozen from closed
forms checked against the implementation on disjoint gamma windows.
"""

import json
from collections import Counter
from fractions import Fraction
from math import comb, isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chowstab import (Ambient, ChowstabError, DiagonalOnePS, ExpansionCoeffs,
                      MonomialBasis, PolynomialityFailed, ProjectivePoint,
                      TestConfigSpec, ZeroLeadingCoefficient,
                      central_fibre_cycle, central_fibre_sections,
                      collision_clusters, df_invariant, expansion_comparison,
                      lifting_shift, normalize_cycle, section_trace)
from chowstab import exactcore, testconfig
from chowstab.errors import VerificationFailed
from chowstab.exactcore import PolyT, graded_limit, limit_subspace
from chowstab.hilbert import (FatPointSpec, fat_point_length,
                              jet_vanishing_matrix)
from chowstab.testconfig import (_central_summary, _split_summary,
                                 moving_section_family)
from df_reference import eager_df_invariant
from fibre_reference import (checked_fibre, reference_vanishing_orders,
                             span_equal)
from jet_reference import fat_point_weights

P1 = Ambient.projective(1)
P2 = Ambient.projective(2)
P3 = Ambient.projective(3)

COLLINEAR = normalize_cycle(P2, [([1, 0, 0], 1), ([0, 1, 0], 1),
                                 ([1, 1, 0], 1)])
COLLIDING = normalize_cycle(P2, [([1, 0, 0], 1), ([1, 1, 0], 1),
                                 ([1, 0, 1], 1)])
CALIBRATION = normalize_cycle(P2, [([1, 0, 0], 1)])
W112 = DiagonalOnePS((1, 1, -2))
W011 = DiagonalOnePS((0, 1, 1))
W211 = DiagonalOnePS((2, -1, -1))


def collinear_f(g):
    """Closed form of the collinear invariant, valid for gamma >= 2."""
    return Fraction(-3 * (g ** 3 - 3 * g * g + 3 * g - 3), 2 * (g * g - 3))


def _unit_row(basis, mono):
    v = [Fraction(0)] * len(basis)
    v[basis.index(mono)] = Fraction(1)
    return v


@pytest.fixture(scope="module")
def collinear_sweep():
    return expansion_comparison(COLLINEAR, W112, range(4, 9))


class TestMovingSectionFamily:
    def test_colliding_triple_basis_shape(self):
        # conics through three points that collide along t: the family is
        # x1^2 - t x0 x1,  x1 x2,  x2^2 - t x0 x2
        fam = moving_section_family(COLLIDING, W011, 2, 1)
        assert fam.dim == 3 and fam.degree == 2 and fam.r == 1
        basis = MonomialBasis(2, 2)
        z = PolyT()
        expect = (
            tuple([z, PolyT.t_power(1, -1), z, PolyT.const(1), z, z]),
            tuple([z, z, z, z, PolyT.const(1), z]),
            tuple([z, z, PolyT.t_power(1, -1), z, z, PolyT.const(1)]),
        )
        assert basis.exponents.tolist() == [[2, 0, 0], [1, 1, 0], [1, 0, 1],
                                            [0, 2, 0], [0, 1, 1], [0, 0, 2]]
        assert fam.basis == expect

    def test_vectors_vanish_on_moved_points(self):
        # independent check at an explicit parameter value
        fam = moving_section_family(COLLIDING, W011, 2, 1)
        basis = MonomialBasis(2, 2)
        t0 = Fraction(1, 3)
        moved = [(1, 0, 0), (1, t0, 0), (1, 0, t0)]
        for v in fam.basis:
            coeffs = [p(t0) for p in v]
            for pt in moved:
                val = sum(c * pt[0] ** e[0] * pt[1] ** e[1] * pt[2] ** e[2]
                          for c, e in zip(coeffs, basis.exponents.tolist()))
                assert val == 0

    def test_single_moving_point(self):
        # lines through one moving point degenerate onto its limit position
        point = normalize_cycle(P2, [([1, 1, 1], 1)])
        assert moving_section_family(point, W211, 1, 1).dim == 2
        fib = checked_fibre(point, W211, 1)
        # limit point of [1:1:1] under (2,-1,-1) is [0:1:1]
        assert span_equal(fib.basis, [(1, 0, 0), (0, 1, -1)])
        assert fib.trace == -1

    def test_trivial_weights_give_constant_family(self):
        trivial = DiagonalOnePS((0, 0, 0))
        fam = moving_section_family(COLLINEAR, trivial, 2, 1)
        assert all(p.degree <= 0 for v in fam.basis for p in v)
        fib = checked_fibre(COLLINEAR, trivial, 2)
        basis = MonomialBasis(2, 2)
        assert span_equal(fib.basis, [_unit_row(basis, m) for m in
                                      [(1, 0, 1), (0, 1, 1), (0, 0, 2)]])
        assert fib.trace == 0 and fib.graded_dims == {0: 3}

    def test_validation(self):
        with pytest.raises(ValueError):
            moving_section_family(COLLINEAR, W112, 0, 1)
        with pytest.raises(ValueError):
            moving_section_family(COLLINEAR, W112, 2, 0)
        with pytest.raises(ValueError):
            moving_section_family(COLLINEAR, DiagonalOnePS((1, -1)), 2, 1)


class TestCentralFibre:
    def test_colliding_triple_limit_is_monomial(self):
        fib = checked_fibre(COLLIDING, W011, 2)
        basis = MonomialBasis(2, 2)
        expect = [_unit_row(basis, m) for m in
                  [(0, 2, 0), (0, 1, 1), (0, 0, 2)]]
        assert [list(v) for v in fib.basis] == expect
        assert fib.graded_dims == {2: 3}
        assert fib.trace == -6

    def test_invariant_cycle_keeps_its_sections(self):
        # the collinear triple is fixed by (1,1,-2); the limit is the
        # honest section space x2 * (linear forms)
        fib = checked_fibre(COLLINEAR, W112, 2)
        basis = MonomialBasis(2, 2)
        assert span_equal(fib.basis, [_unit_row(basis, m) for m in
                                      [(1, 0, 1), (0, 1, 1), (0, 0, 2)]])
        assert fib.graded_dims == {-1: 2, -4: 1}
        assert fib.trace == 6

    def test_matrix_route_matches_kernel_route(self):
        # both forms of graded_limit must agree with the PolyT flat limit
        # (graded dims, trace, span) on every cell of a small grid
        cases = [(COLLIDING, W011, (1, 2, 3), (1, 2)),
                 (COLLINEAR, W112, (1, 2, 3), (1, 2)),
                 (CALIBRATION, W211, (1, 2, 3), (1, 2)),
                 (normalize_cycle(P2, [([1, 1, 1], 2), ([1, 0, 0], 1)]),
                  DiagonalOnePS((1, 0, -1)), (1, 2, 3), (1, 2)),
                 (normalize_cycle(P3, [([1, 0, 0, 0], 1), ([1, 1, 0, 0], 1),
                                       ([1, 2, 3, 4], 2)]),
                  DiagonalOnePS((1, 1, -1, -1)), (1, 2), (1,))]
        for cycle, alpha, gammas, rs in cases:
            for gamma in gammas:
                for r in rs:
                    fib = checked_fibre(cycle, alpha, gamma, r)
                    dim, tr, graded, _ = _central_summary(
                        cycle, alpha, gamma * r, r)
                    assert dim == fib.dim
                    assert tr == fib.trace
                    assert graded == fib.graded_dims


_COORD = st.integers(-2, 3)


@st.composite
def _small_cases(draw):
    n = draw(st.sampled_from((2, 3)))
    coords = st.lists(_COORD, min_size=n + 1, max_size=n + 1).filter(any)
    points = draw(st.lists(st.tuples(coords, st.integers(1, 2)),
                           min_size=1, max_size=3))
    weights = draw(st.lists(st.integers(-2, 2), min_size=n + 1,
                            max_size=n + 1))
    gamma, r = draw(st.sampled_from(((1, 1), (2, 1), (3, 1), (1, 2),
                                     (1, 3))))
    return (normalize_cycle(Ambient.projective(n), points),
            DiagonalOnePS(tuple(weights)), gamma, r)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_small_cases())
def test_graded_basis_spans_the_polyt_limit(case):
    cycle, alpha, gamma, r = case
    fib = central_fibre_sections(cycle, alpha, gamma * r, r)
    fam = moving_section_family(cycle, alpha, gamma, r)
    assert span_equal(fib.basis, limit_subspace(fam.basis))


@st.composite
def _p2_df_cases(draw):
    """A P^2 cycle of one to three points, weights, a coordinate
    permutation and the smallest gamma with gamma^2 > sum a^2."""
    coords = st.lists(st.integers(-2, 2), min_size=3, max_size=3).filter(any)
    points = draw(st.lists(coords, min_size=1, max_size=3))
    cycle = normalize_cycle(P2, [(p, 1) for p in points])
    weights = draw(st.lists(st.integers(-2, 2), min_size=3, max_size=3))
    perm = draw(st.permutations(range(3)))
    gamma = isqrt(sum(a * a for _, a in cycle.points)) + 1
    return cycle, weights, perm, gamma


def _df_outcome(cycle, weights, gamma):
    try:
        return df_invariant(TestConfigSpec(cycle, DiagonalOnePS(weights),
                                           gamma)).f_exact
    except ChowstabError as exc:
        return type(exc).__name__


@settings(max_examples=20, deadline=None, derandomize=True)
@given(_p2_df_cases())
def test_df_under_joint_permutation_of_coordinates_and_weights(case):
    cycle, weights, perm, gamma = case
    moved = normalize_cycle(P2, [([p.coords[j] for j in perm], a)
                                 for p, a in cycle.points])
    assert _df_outcome(moved, tuple(weights[j] for j in perm), gamma) == \
        _df_outcome(cycle, tuple(weights), gamma)


def _global_summary(cycle, alpha, degree, r):
    """_central_summary by the global route: graded_limit of the full jet
    matrix."""
    spec = FatPointSpec(cycle, degree, r)
    weights = MonomialBasis(cycle.ambient.n, degree).weights(alpha)
    rank, graded, _ = graded_limit(jet_vanishing_matrix(spec), weights)
    return (len(weights) - rank, -sum(c * k for c, k in graded.items()),
            graded, rank == spec.expected_rows)


@st.composite
def _split_cases(draw):
    """A P^2 or P^3 cycle built around one to four limit points, r and a
    gamma up to M + 1.

    A limit point q has its coordinates in one weight space of alpha, of
    weight mu; each support point that reaches it is q plus coordinates of
    weight above mu.  So the cycles have clusters, coordinate and other
    limit points, and masses 1-2.
    """
    n = draw(st.sampled_from((2, 3)))
    weights = draw(st.lists(st.integers(-2, 2), min_size=n + 1,
                            max_size=n + 1))
    points = []
    for _ in range(draw(st.integers(1, 4)) if draw(st.booleans()) else 4):
        mu = draw(st.sampled_from(sorted(set(weights))))
        low = [j for j, w in enumerate(weights) if w == mu]
        high = [j for j, w in enumerate(weights) if w > mu]
        q = draw(st.lists(_COORD, min_size=len(low),
                          max_size=len(low)).filter(any))
        for _ in range(draw(st.integers(1, 2 if high else 1))):
            coords = [0] * (n + 1)
            for j, c in zip(low, q):
                coords[j] = c
            for j in high:
                coords[j] = draw(_COORD)
            points.append((coords, draw(st.integers(1, 2))))
    cycle = normalize_cycle(Ambient.projective(n), points)
    gamma = draw(st.sampled_from(range(1, cycle.total_mass() + 2)))
    r = draw(st.integers(1, 2))
    return cycle, DiagonalOnePS(tuple(weights)), gamma * r, r


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_split_cases())
def test_split_route_matches_graded_limit(case):
    cycle, alpha, degree, r = case
    split = _split_summary(cycle, alpha, degree, r)
    if split is not None:
        assert split == _global_summary(cycle, alpha, degree, r)


# (cycle, weights, gamma, r): each is certified below the bound r M - 1
SPLIT_BELOW_BOUND = {
    # a cluster of mass 3 at e2 and two coordinate points, gamma 3 < M = 5
    "cluster": (normalize_cycle(P2, [([1, 0, 0], 1), ([0, 1, 0], 1),
                                     ([0, 0, 1], 1), ([1, 1, 1], 1),
                                     ([1, 2, 3], 1)]), (1, 0, -1), 3, 1),
    # four coordinate points: the monomial check alone
    "coordinate": (normalize_cycle(P3, [([1, 0, 0, 0], 1), ([0, 1, 0, 0], 1),
                                        ([0, 0, 1, 0], 1), ([0, 0, 0, 1], 1)]),
                   (1, 1, -1, -1), 2, 3),
    # limit points off the coordinate axes: the rank check mod p
    "heavy": (normalize_cycle(P3, [([1, 1, 0, 0], 3), ([1, 0, 1, 0], 1),
                                   ([0, 1, 1, 1], 1)]), (1, 1, -1, -1), 4, 3),
}


@pytest.mark.parametrize("name", sorted(SPLIT_BELOW_BOUND))
def test_split_route_certifies_below_the_bound(name):
    cycle, weights, gamma, r = SPLIT_BELOW_BOUND[name]
    alpha = DiagonalOnePS(weights)
    assert gamma * r < r * cycle.total_mass() - 1
    split = _split_summary(cycle, alpha, gamma * r, r)
    assert split is not None
    assert split == _global_summary(cycle, alpha, gamma * r, r)


def test_line_count_sends_heavy_lines_to_the_global_route():
    # three limit points of mass r on one line of P^3 at gamma 2 carry
    # 3r > 2r + 1 for r >= 2: the split is wrong there, and not taken
    cycle = normalize_cycle(P3, [([1, 0, 0, 0], 1), ([0, 1, 0, 0], 1),
                                 ([1, 1, 0, 0], 1), ([1, 2, 3, 4], 1)])
    alpha = DiagonalOnePS((1, 1, -1, -1))
    assert _split_summary(cycle, alpha, 2, 1) is not None
    for r in (2, 3):
        assert _split_summary(cycle, alpha, 2 * r, r) is None


def test_rank_check_sends_special_fat_points_to_the_global_route():
    # five double points whose limits lie on a conic of the plane x3 = 0:
    # no line carries more than d + 1 = 5, but the squared conic is a
    # quartic the limit fat points miss, so only the rank check refuses
    cycle = normalize_cycle(P3, [([1, 0, 0, 1], 2), ([1, 1, 1, 2], 2),
                                 ([4, 2, 1, 3], 2), ([9, 3, 1, 5], 2),
                                 ([1, -1, 1, 7], 2)])
    alpha = DiagonalOnePS((-1, -1, -1, 3))
    assert _split_summary(cycle, alpha, 4, 1) is None
    assert (_central_summary(cycle, alpha, 4, 1)
            == _global_summary(cycle, alpha, 4, 1))


def test_split_self_check_raises(monkeypatch):
    # fat-point lengths one too long no longer match the limit weights
    real = testconfig.fat_point_length
    monkeypatch.setattr(testconfig, "fat_point_length",
                        lambda n, a: real(n, a) + 1)
    with pytest.raises(VerificationFailed):
        _split_summary(COLLINEAR, W112, 8, 2)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_single_point_limit_matches_the_fat_point_weights(data):
    # one point of mass m <= d + 1 moving to q: the split route removes the
    # S_d weights of the monomials with e_i > d - m, which must be the
    # weights of the fat point m q, shifted by mu d
    n = data.draw(st.integers(1, 4))
    degree = data.draw(st.integers(0, 6))
    m = data.draw(st.integers(1, degree + 1))
    alpha = DiagonalOnePS(tuple(data.draw(
        st.lists(st.integers(-5, 5), min_size=n + 1, max_size=n + 1))))
    coords = data.draw(st.lists(_COORD, min_size=n + 1,
                                max_size=n + 1).filter(any))
    cycle = normalize_cycle(Ambient.projective(n), [(coords, m)])
    (q,) = collision_clusters(cycle, alpha)
    mu = alpha.weights[q.pivot_index]
    want = Counter(MonomialBasis(n, degree).weights(alpha))
    want.subtract({mu * degree + c: k
                   for c, k in fat_point_weights(q, m, alpha).items()})
    _, _, graded, _ = _split_summary(cycle, alpha, degree, 1)
    assert graded == {c: k for c, k in want.items() if k}


class TestCentralFibreCycle:
    def test_colliding_triple_reports(self):
        reports = central_fibre_cycle(COLLIDING, W011, [1, 2, 3])
        by_deg = {rep.degree: rep for rep in reports}
        q = ProjectivePoint([1, 0, 0])
        # three general points kill all lines
        assert by_deg[1].dim == 0 and by_deg[1].vanishing_orders == {}
        # conics degenerate to the double point at the collision
        assert by_deg[2].dim == 3
        assert by_deg[2].vanishing_orders == {q: 2}
        assert by_deg[3].dim == 7
        assert by_deg[3].vanishing_orders == {q: 2}

    def test_fixed_points_keep_simple_vanishing(self):
        reports = central_fibre_cycle(COLLINEAR, W112, [2])
        rep = reports[0]
        assert rep.dim == 3
        assert rep.vanishing_orders == {p: 1 for p, _ in COLLINEAR.points}

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def test_orders_match_the_fraction_probe(self, data):
        n = data.draw(st.sampled_from((2, 3)))
        coords = st.lists(_COORD, min_size=n + 1, max_size=n + 1).filter(any)
        points = data.draw(st.lists(st.tuples(coords, st.integers(1, 2)),
                                    min_size=1, max_size=4))
        weights = data.draw(st.lists(st.integers(-2, 2), min_size=n + 1,
                                     max_size=n + 1))
        degrees = data.draw(st.lists(st.integers(1, 3), min_size=1,
                                     max_size=3, unique=True))
        cycle = normalize_cycle(Ambient.projective(n), points)
        alpha = DiagonalOnePS(tuple(weights))
        for rep in central_fibre_cycle(cycle, alpha, degrees):
            assert (rep.dim, rep.vanishing_orders) == \
                reference_vanishing_orders(cycle, alpha, rep.degree)


class TestDFInvariant:
    def test_single_point_golden(self):
        for g in (2, 3, 4):
            res = df_invariant(TestConfigSpec(CALIBRATION, W211, g))
            assert res.f_exact == Fraction(-(g - 1) ** 2, g + 1)
            assert res.ch_weight == 2
            assert res.f_predicted_leading == -g

    def test_collinear_golden(self):
        for g in (4, 5, 6):
            res = df_invariant(TestConfigSpec(COLLINEAR, W112, g))
            assert res.f_exact == collinear_f(g)
            assert res.ch_weight == 3
            assert res.f_predicted_leading == Fraction(-3 * g, 2)
        res4 = df_invariant(TestConfigSpec(COLLINEAR, W112, 4))
        assert res4.central.fitted == ExpansionCoeffs(
            Fraction(13, 2), Fraction(9, 2), Fraction(9, 2), 6)

    def test_empty_cycle_vanishes(self):
        empty = normalize_cycle(P2, [])
        for w in (W112, W211):
            assert df_invariant(TestConfigSpec(empty, w, 3)).f_exact == 0

    def test_trivial_weights_vanish(self):
        res = df_invariant(TestConfigSpec(COLLINEAR, DiagonalOnePS((0, 0, 0)),
                                          3))
        assert res.f_exact == 0

    def test_invariant_under_constant_weight_shift(self):
        base = df_invariant(TestConfigSpec(COLLINEAR, W112, 3)).f_exact
        for c in (-2, 1, 3):
            shifted = DiagonalOnePS(tuple(w + c for w in W112.weights))
            res = df_invariant(TestConfigSpec(COLLINEAR, shifted, 3))
            assert res.f_exact == base

    def test_lifting_normalization(self):
        alpha = DiagonalOnePS((3, 0, 0))
        res = df_invariant(TestConfigSpec(CALIBRATION, alpha, 3))
        c = res.central
        assert c.lam_gamma == 1
        # sum(w)/(n+1) is minus the mean weight of the level-gamma sections
        assert c.lam_gamma == -section_trace(alpha, 2, 3) / (3 * comb(5, 2))
        assert c.normalized == lifting_shift(c.fitted, 3 * c.lam_gamma)
        assert c.fitted == ExpansionCoeffs(4, 4, -10, -9)
        assert c.normalized == ExpansionCoeffs(4, 4, 2, 3)
        # the shift changed the coefficients but not the invariant
        assert res.f_exact == -1

    def test_jets_separate_on_distinct_points(self):
        res = df_invariant(TestConfigSpec(COLLINEAR, W112, 4))
        assert res.central.jet_separation
        assert all(res.central.jet_separation.values())

    def test_non_polynomial_data_is_refused(self, monkeypatch):
        def fake(cycle, alpha, degree, r):
            return 2 ** r, Fraction(0), {}, True

        monkeypatch.setattr("chowstab.testconfig._central_summary", fake)
        with pytest.raises(PolynomialityFailed):
            df_invariant(TestConfigSpec(COLLINEAR, W112, 4))

    def test_degenerate_leading_coefficient(self):
        # at level 1 the collinear system is a single section for every r,
        # so the dimension polynomial has no top term
        with pytest.raises(ZeroLeadingCoefficient):
            df_invariant(TestConfigSpec(COLLINEAR, W112, 1))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TestConfigSpec(COLLINEAR, W112, 0)
        with pytest.raises(ValueError):
            TestConfigSpec(COLLINEAR, DiagonalOnePS((1, -1)), 2)
        with pytest.raises(ValueError):
            TestConfigSpec(COLLINEAR, W112, 2, (3, 2, 4, 5, 6, 7))
        with pytest.raises(ValueError):
            TestConfigSpec(COLLINEAR, W112, 2, (2, 3, 4, 5, 6))

    def test_default_r_samples(self):
        spec = TestConfigSpec(COLLINEAR, W112, 4)
        assert spec.r_samples == (2, 3, 4, 5, 6, 7)

    def test_spec_gamma_and_r_samples_must_be_integers(self):
        with pytest.raises(TypeError):
            TestConfigSpec(COLLINEAR, W112, 4.0)
        with pytest.raises(TypeError):
            TestConfigSpec(COLLINEAR, W112, 4, (2, 3, 4.0, 5, 6, 7))
        spec = TestConfigSpec(COLLINEAR, W112, np.int64(4),
                              tuple(np.arange(2, 8)))
        assert spec == TestConfigSpec(COLLINEAR, W112, 4)
        assert type(spec.gamma) is int
        assert all(type(r) is int for r in spec.r_samples)


def _counted(monkeypatch, summary=None):
    """Record the r of every _central_summary call; `summary`, when given,
    stands in for the real one."""
    calls = []
    inner = summary or testconfig._central_summary

    def counted(cycle, alpha, degree, r):
        calls.append(r)
        return inner(cycle, alpha, degree, r)

    monkeypatch.setattr(testconfig, "_central_summary", counted)
    return calls


def _fake_summary(dim_miss=None, trace_miss=None, error_at=None):
    """Dimension r^2 and trace r^3, one more at the given miss."""
    def summary(cycle, alpha, degree, r):
        if r == error_at:
            raise VerificationFailed("the sample's own check failed")
        return (r * r + (r == dim_miss), Fraction(r ** 3 + (r == trace_miss)),
                {}, True)
    return summary


EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected"
P3_ROADMAP = normalize_cycle(P3, [([1, 0, 0, 0], 1), ([0, 1, 0, 0], 1),
                                 ([1, 1, 0, 0], 1), ([1, 2, 3, 4], 1)])


class TestSampleOrder:
    """df_invariant computes its samples in increasing r, checks each
    held-out dimension as it arrives and the traces after the last one.
    The collinear spec at gamma 4 samples r = 2..7 on P^2: dimensions fit
    on r = 2, 3, 4 and traces on r = 2..5."""

    SPEC = TestConfigSpec(COLLINEAR, W112, 4)

    def test_first_held_out_miss_stops_after_n_plus_two(self, monkeypatch):
        calls = _counted(monkeypatch, _fake_summary(dim_miss=5))
        with pytest.raises(PolynomialityFailed,
                           match="interpolant gives 25 at 5, sample says 26$"):
            df_invariant(self.SPEC)
        assert calls == [2, 3, 4, 5]

    def test_last_held_out_miss_computes_every_sample(self, monkeypatch):
        calls = _counted(monkeypatch, _fake_summary(dim_miss=7))
        with pytest.raises(PolynomialityFailed,
                           match="interpolant gives 49 at 7, sample says 50$"):
            df_invariant(self.SPEC)
        assert calls == [2, 3, 4, 5, 6, 7]

    def test_trace_miss_comes_after_every_sample(self, monkeypatch):
        calls = _counted(monkeypatch, _fake_summary(trace_miss=6))
        with pytest.raises(PolynomialityFailed,
                           match="interpolant gives 216 at 6, "
                                 "sample says 217$"):
            df_invariant(self.SPEC)
        assert calls == [2, 3, 4, 5, 6, 7]

    def test_dimension_miss_is_reported_before_a_trace_miss(self,
                                                            monkeypatch):
        calls = _counted(monkeypatch, _fake_summary(dim_miss=7, trace_miss=6))
        with pytest.raises(PolynomialityFailed, match="gives 49 at 7"):
            df_invariant(self.SPEC)
        assert calls == [2, 3, 4, 5, 6, 7]

    def test_a_sample_error_is_not_a_polynomiality_failure(self,
                                                           monkeypatch):
        # a held-out sample that fails its own identity raises that error,
        # as the eager route did, not a miss of the interpolant
        calls = _counted(monkeypatch, _fake_summary(error_at=6))
        for route in (df_invariant, eager_df_invariant):
            calls.clear()
            with pytest.raises(VerificationFailed) as info:
                route(self.SPEC)
            assert type(info.value) is VerificationFailed
            assert str(info.value) == "the sample's own check failed"
            assert calls == [2, 3, 4, 5, 6]

    @pytest.mark.parametrize("workload, kind, cycle, weights, r_samples, "
                             "calls", [
        ("df-p2", "df-collinear-g2", COLLINEAR, (1, 1, -2), (),
         [2, 3, 4, 5]),
        ("df-p3", "df-p3-roadmap", P3_ROADMAP, (1, 1, -1, -1), range(1, 8),
         [1, 2, 3, 4, 5]),
    ])
    def test_stored_refusals_stop_at_the_first_miss(
            self, monkeypatch, workload, kind, cycle, weights, r_samples,
            calls):
        with open(EXPECTED / f"{workload}.json", encoding="utf-8") as fh:
            stored = json.load(fh)["answers"][kind]["stderr"]
        got = _counted(monkeypatch)
        with pytest.raises(PolynomialityFailed) as info:
            df_invariant(TestConfigSpec(cycle, DiagonalOnePS(weights), 2,
                                        tuple(r_samples)))
        assert got == calls
        assert f"error: verification failure: {info.value}\n" == stored


def _outcome(route, spec):
    try:
        return route(spec)
    except ChowstabError as exc:
        return type(exc), str(exc)


@st.composite
def _df_sweep_cases(draw):
    """A P^2 or P^3 cycle of distinct points, in half the cases with three
    unit points on one line planted (refused at low gamma), a 1-PS, the
    smallest gamma with gamma^n > sum a^n and r = 1..n+4.  A planted line
    has one other point at most, and P^3 cycles have unit points with 0/1
    coordinates, so each case stays cheap."""
    n = draw(st.sampled_from((2, 3)))
    coords = st.lists(st.integers(-2 if n == 2 else 0, 2 if n == 2 else 1),
                      min_size=n + 1, max_size=n + 1).filter(any)
    planted = draw(st.booleans())
    points = draw(st.lists(st.tuples(coords, st.integers(1, 4 - n)),
                           min_size=0 if planted else 1,
                           max_size=1 if planted else 2))
    if planted:
        u, v = draw(coords), draw(coords)
        w = [a + draw(st.sampled_from((-1, 1, 2))) * b for a, b in zip(u, v)]
        # u and v must span a line, so the three points are distinct
        assume(any(u[i] * v[j] != u[j] * v[i]
                   for i in range(n + 1) for j in range(i)))
        points += [(u, 1), (v, 1), (w, 1)]
    cycle = normalize_cycle(Ambient.projective(n), points)
    assume(len(cycle) == len(points))
    weights = draw(st.lists(st.integers(-2, 2), min_size=n + 1,
                            max_size=n + 1))
    gamma = 1
    while gamma ** n <= sum(a ** n for _, a in cycle.points):
        gamma += 1
    return TestConfigSpec(cycle, DiagonalOnePS(tuple(weights)), gamma,
                          tuple(range(1, n + 5)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_df_sweep_cases())
@example(TestConfigSpec(COLLINEAR, W112, 2))
@example(TestConfigSpec(P3_ROADMAP, DiagonalOnePS((1, 1, -1, -1)), 2,
                        tuple(range(1, 8))))
def test_lazy_df_matches_the_eager_reference(spec):
    assert _outcome(df_invariant, spec) == _outcome(eager_df_invariant, spec)


class TestUnitRowsLeaveTheElimination:
    """At a coordinate point every jet row is a unit row, so its rows and
    columns leave the certified rank profile before any residue matrix is
    eliminated."""

    W1111 = DiagonalOnePS((1, 1, -1, -1))
    E = ([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1])

    def _eliminated_rows(self, monkeypatch, points):
        seen = []

        def spy(m, p):
            seen.append(m.shape[0])
            return rref_mod(m, p)

        rref_mod = exactcore._rref_mod
        monkeypatch.setattr(exactcore, "_rref_mod", spy)
        cycle = normalize_cycle(P3, [(p, 1) for p in points])
        df_invariant(TestConfigSpec(cycle, self.W1111, 2, range(1, 8)))
        return seen

    def test_coordinate_points_eliminate_nothing(self, monkeypatch):
        assert self._eliminated_rows(monkeypatch, self.E) == []

    def test_only_the_other_point_is_eliminated(self, monkeypatch):
        seen = self._eliminated_rows(monkeypatch,
                                     self.E[:3] + ([1, 1, 1, 1],))
        # one point of mass 1 has fat_point_length(3, r) jet rows at r
        want = [fat_point_length(3, r) for r in range(1, 8)]
        assert sorted(set(seen)) == want


class TestExpansionComparison:
    def test_exact_coefficient_deviations(self, collinear_sweep):
        for row in collinear_sweep.rows:
            assert row.c0_dev == 0
            assert row.c1_dev == 0
            assert row.b0_dev == Fraction(-3, 2)
            assert row.b1_dev == 0

    def test_f_values_match_closed_form(self, collinear_sweep):
        assert collinear_sweep.gammas == (4, 5, 6, 7, 8)
        for g, f in zip(collinear_sweep.gammas, collinear_sweep.f_values):
            assert f == collinear_f(g)

    def test_least_squares_is_exact(self, collinear_sweep):
        rep = collinear_sweep
        # normal equations leave residuals orthogonal to 1, g, g^2
        for k in range(3):
            assert sum(r * g ** k
                       for r, g in zip(rep.residuals, rep.gammas)) == 0

    def test_frozen_fit_values(self, collinear_sweep):
        rep = collinear_sweep
        assert rep.leading_coeff == Fraction(-15285, 1404403)
        assert rep.gamma_coeff == Fraction(-1747950, 1404403)
        assert rep.centered_slope == Fraction(-275910, 200629)
        assert rep.ch_weight == 3
        assert rep.predicted_gamma_coeff == Fraction(-3, 2)
        assert rep.predicted_gamma_power_coeff == 0

    def test_centered_slope_tracks_prediction(self, collinear_sweep):
        rep = collinear_sweep
        rel = abs(float(rep.centered_slope - rep.predicted_gamma_coeff)
                  / float(rep.predicted_gamma_coeff))
        assert rel < 0.09

    def test_validation(self):
        with pytest.raises(ValueError):
            expansion_comparison(COLLINEAR, W112, [4, 5, 6])
        line = normalize_cycle(P1, [([1, 0], 1)])
        with pytest.raises(ValueError):
            expansion_comparison(line, DiagonalOnePS((1, -1)), [4, 5, 6, 7])

    def test_gammas_must_be_integers(self):
        # 4.7 is refused at the call, not run as gamma 4
        for gamma in (4.7, 4.0, Fraction(9, 2)):
            with pytest.raises(TypeError):
                expansion_comparison(COLLINEAR, W112, [gamma, 5, 6, 7, 8])
