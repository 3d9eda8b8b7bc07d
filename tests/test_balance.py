"""Tests for the numerical balancing flow and its exact side conditions."""

import dataclasses
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix, Rational

from chowstab import Ambient, ZeroPoint, normalize_cycle
from chowstab.balance import (DIVERGENCE_NORM, SPAN_THRESHOLD, BalanceCycle,
                              balance_flow, balance_residual,
                              check_no_common_zero, check_spanning,
                              moment_map, total_moment)
from balance_reference import reference_flow
from test_bench_answers import _workloads

P1 = Ambient.projective(1)
P2 = Ambient.projective(2)

# (name, coords, masses, expected flow status); statuses frozen after
# checking each case against the ratio criterion by hand
CORPUS = [
    ("p1_coordinate_pair", [[1, 0], [0, 1]], [1, 1], "converged"),
    ("p1_three_points", [[1, 0], [0, 1], [1, 1]], [1, 1, 1], "converged"),
    ("p1_four_with_complex", [[1, 0], [0, 1], [1, 1], [1, [0, 1]]],
     [1, 1, 1, 1], "converged"),
    ("p2_triangle_plus_unit", [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
     [1, 1, 1, 1], "converged"),
    ("p2_triangle", [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 1, 1],
     "converged"),
    ("p2_five_mixed", [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1],
                       [1, -1, [0, 1]]], [1, 1, 1, 1, 1], "converged"),
    ("p1_mass_two_one", [[1, 0], [0, 1]], [2, 1], "diverged"),
    ("p1_heavy_triple", [[1, 0], [0, 1], [1, 1]], [3, 1, 1], "diverged"),
    ("p2_collinear", [[1, 0, 0], [0, 1, 0], [1, 1, 0]], [1, 1, 1],
     "diverged"),
    ("p2_heavy_vertex", [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [2, 1, 1],
     "diverged"),
    ("p2_single_point", [[1, 0, 0]], [1], "diverged"),
    ("p1_skew_masses", [[1, 1], [1, -1]], [1, 2], "diverged"),
]


SPAN_CASES = [c[1] for c in CORPUS] + [
    [[1, 0], [0, 1], [1, 1], [1, [0, 1]]], [[1, 0]], [[1, 0], [0, 1]],
    [[1, 1], [2, 2]]]


def _spanning_reference(cyc):
    """check_spanning rebuilt from one moment_map per point."""
    dim = cyc.n + 1
    rows = []
    for p in cyc.points:
        h = moment_map(p)
        row = [h[i, i].real for i in range(dim)]
        for i, j in itertools.combinations(range(dim), 2):
            row += [h[i, j].real, h[i, j].imag]
        rows.append(row)
    sv = np.linalg.svd(np.array(rows), compute_uv=False)
    return bool(sv[0] > 0
                and np.sum(sv > SPAN_THRESHOLD * sv[0]) == dim * dim - 1)


def _complex_coords(n):
    """A nonzero complex point of P^n as [re, im] pairs of small integers."""
    entry = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(list)
    return st.lists(entry, min_size=n + 1, max_size=n + 1).filter(
        lambda c: any(re or im for re, im in c))


def _random_unit_vector(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


class TestMomentMap:
    def test_hand_values(self):
        np.testing.assert_allclose(moment_map([1, 0]),
                                   [[0.5, 0], [0, -0.5]], atol=1e-15)
        np.testing.assert_allclose(moment_map([1, 1]),
                                   [[0, 0.5], [0.5, 0]], atol=1e-15)
        np.testing.assert_allclose(moment_map([1, [0, 1]]),
                                   [[0, -0.5j], [0.5j, 0]], atol=1e-15)

    def test_hermitian_traceless(self):
        rng = np.random.default_rng(555)
        for _ in range(10):
            h = moment_map(_random_unit_vector(rng, rng.integers(2, 5)))
            np.testing.assert_allclose(h, h.conj().T, atol=1e-14)
            assert abs(np.trace(h)) < 1e-14

    def test_unitary_equivariance(self):
        rng = np.random.default_rng(556)
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            p = _random_unit_vector(rng, dim)
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                                + 1j * rng.standard_normal((dim, dim)))
            np.testing.assert_allclose(moment_map(q @ p),
                                       q @ moment_map(p) @ q.conj().T,
                                       atol=1e-10)

    def test_scale_invariance(self):
        np.testing.assert_allclose(moment_map([2, 0]), moment_map([1, 0]),
                                   atol=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroPoint):
            moment_map([0, 0, 0])


class TestResidual:
    def test_coordinate_pair_is_exactly_balanced(self):
        cyc = BalanceCycle.from_raw([[1, 0], [0, 1]], [1, 1])
        assert balance_residual(cyc) == 0.0

    def test_triangle_is_balanced(self):
        cyc = BalanceCycle.from_raw([[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                    [1, 1, 1])
        assert balance_residual(cyc) < 1e-14

    def test_single_heavy_point(self):
        cyc = BalanceCycle.from_raw([[1, 0]], [2])
        assert balance_residual(cyc) == pytest.approx(math.sqrt(2))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_total_moment_is_the_weighted_sum_and_equivariant(self, data):
        n = data.draw(st.integers(1, 4))
        coords = data.draw(st.lists(_complex_coords(n), min_size=1,
                                    max_size=2 * n + 4))
        masses = data.draw(st.lists(st.floats(0.1, 5.0), min_size=len(coords),
                                    max_size=len(coords)))
        cyc = BalanceCycle.from_raw(coords, masses)
        m = total_moment(cyc)
        weighted = sum(a * moment_map(p) for p, a in zip(cyc.points, masses))
        np.testing.assert_allclose(m, weighted, rtol=0, atol=1e-12)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        q, _ = np.linalg.qr(rng.standard_normal((n + 1, n + 1))
                            + 1j * rng.standard_normal((n + 1, n + 1)))
        moved = [[[z.real, z.imag] for z in q @ p] for p in cyc.points]
        np.testing.assert_allclose(
            total_moment(BalanceCycle.from_raw(moved, masses)),
            q @ m @ q.conj().T, rtol=0, atol=1e-12)


class TestBalanceCycle:
    def test_complex_entries(self):
        cyc = BalanceCycle.from_raw([[1, [2, 3]]], [1])
        assert cyc.points[0][1] == 2 + 3j
        assert cyc.n == 1

    def test_chow_masses_from_weighted_cycle(self):
        amb = Ambient.projective(3)
        cyc = normalize_cycle(amb, [([1, 0, 0, 0], 3), ([0, 1, 0, 0], 2)])
        bal = BalanceCycle.from_weighted(cyc)
        assert sorted(bal.masses) == [4.0, 9.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            BalanceCycle.from_raw([[1, 0]], [1, 2])
        with pytest.raises(ValueError):
            BalanceCycle.from_raw([], [])
        with pytest.raises(ValueError):
            BalanceCycle.from_raw([[1, 0], [1, 0, 0]], [1, 1])
        with pytest.raises(ValueError):
            BalanceCycle.from_raw([[1, 0]], [0])
        with pytest.raises(ZeroPoint):
            BalanceCycle.from_raw([[0, 0]], [1])
        with pytest.raises(ValueError):
            BalanceCycle.from_raw([[[1, 2, 3], 0]], [1])

    def test_non_finite_masses_refused(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="mass"):
                BalanceCycle.from_raw([[1, 0], [0, 1], [1, 1]], [bad, 1, 1])

    def test_non_finite_coordinates_refused(self):
        for bad in (math.nan, math.inf, -math.inf):
            for coords in ([bad, 1], [[1, bad], 1]):
                with pytest.raises(ValueError, match="not finite"):
                    BalanceCycle.from_raw([[1, 0], coords], [1, 1])

    def test_values_out_of_float_range_refused(self):
        with pytest.raises(ValueError, match="out of double range"):
            BalanceCycle.from_raw([[10 ** 400, 1]], [1])
        with pytest.raises(ValueError, match="out of double range"):
            BalanceCycle.from_raw([[1, 0]], [10 ** 400])

    def test_weighted_cycle_out_of_float_range_refused(self):
        cyc = normalize_cycle(P1, [([1, Fraction(10 ** 400, 3)], 1),
                                   ([0, 1], 1)])
        with pytest.raises(ValueError, match="out of double range"):
            BalanceCycle.from_weighted(cyc)

    def test_points_are_one_read_only_array(self):
        cyc = BalanceCycle.from_raw([[1, 0], [0, 1], [1, [0, 1]]], [1, 1, 1])
        assert cyc.points.shape == (3, 2) and cyc.points.dtype == complex
        with pytest.raises(ValueError):
            cyc.points[0, 0] = 2
        rep = balance_flow(cyc)
        assert rep.points.shape == (3, 2) and not rep.points.flags.writeable


class TestBalanceFlow:
    @pytest.mark.parametrize("name,coords,masses,expect",
                             CORPUS, ids=[c[0] for c in CORPUS])
    def test_corpus_statuses(self, name, coords, masses, expect):
        rep = balance_flow(BalanceCycle.from_raw(coords, masses))
        assert rep.status == expect
        if expect == "converged":
            assert rep.residual_norm < 1e-9
        else:
            assert rep.group_element_norm > DIVERGENCE_NORM
        assert not rep.stalled

    def test_balanced_input_returns_immediately(self):
        rep = balance_flow(BalanceCycle.from_raw([[1, 0], [0, 1]], [1, 1]))
        assert rep.status == "converged" and rep.iterations == 0

    def test_residual_is_monotone_in_iterations(self):
        cyc = BalanceCycle.from_raw([[1, 0], [0, 1], [1, 1], [1, [0, 1]]],
                                    [1, 1, 1, 1])
        prev = None
        for cap in (1, 3, 8, 20, 50):
            rep = balance_flow(cyc, max_iter=cap)
            if prev is not None:
                assert rep.residual_norm <= prev + 1e-15
            prev = rep.residual_norm

    def test_flow_is_deterministic(self):
        cyc = BalanceCycle.from_raw([[1, 0, 0], [0, 1, 0], [0, 0, 1],
                                     [1, 1, 1]], [1, 1, 1, 1])
        a = balance_flow(cyc)
        b = balance_flow(cyc)
        assert a.status == b.status and a.iterations == b.iterations
        assert a.residual_norm == b.residual_norm
        assert np.array_equal(a.group_element, b.group_element)

    def test_group_element_moves_points(self):
        cyc = BalanceCycle.from_raw([[1, 0], [0, 1], [1, 1]], [1, 1, 1])
        rep = balance_flow(cyc)
        for p, q in zip(cyc.points, rep.points):
            moved = rep.group_element @ (p / np.linalg.norm(p))
            np.testing.assert_allclose(moved / np.linalg.norm(moved), q,
                                       atol=1e-12)

    def test_pinned_run_with_a_step_halving(self):
        # values recorded from an earlier build of the flow; a change in
        # the descent direction or the order of its arithmetic moves them
        cyc = BalanceCycle.from_raw([[1, 0], [0, 1], [1, 1]], [3, 1, 1])
        rep = balance_flow(cyc)
        assert (rep.status, rep.iterations, rep.final_step) == (
            "diverged", 53, 0.25)

    def test_tolerance_validation(self):
        # the flow stops only on residual < tol, so these would never stop
        cyc = BalanceCycle.from_raw([[1, 0], [0, 1], [1, 1]], [1, 1, 1])
        for tol in (0.0, -1e-9, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol"):
                balance_flow(cyc, tol=tol)
        # and a negative iteration cap would silently report no work
        with pytest.raises(ValueError, match="max_iter"):
            balance_flow(cyc, max_iter=-5)


def _assert_same_report(got, want):
    """Every field equal, arrays bit for bit."""
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), field.name
        else:
            assert type(a) is type(b) and a == b, field.name


class TestFlowMatchesReference:
    """balance_flow gives the reference loop's FlowReport bit for bit."""

    @pytest.mark.parametrize("name,coords,masses,expect",
                             CORPUS, ids=[c[0] for c in CORPUS])
    def test_corpus(self, name, coords, masses, expect):
        cyc = BalanceCycle.from_raw(coords, masses)
        for cap in (0, 3, 100000):
            _assert_same_report(balance_flow(cyc, max_iter=cap),
                                reference_flow(cyc, max_iter=cap))

    def test_complex_coordinates(self):
        cyc = BalanceCycle.from_raw(
            [[[1, 2], [0, -1], 3], [[0.5, 0], 2, [-1, 1]],
             [1, [0, 1], [2, -3]], [[0, 1], 1, 0], [2, [1, 1], [0, 2]]],
            [1, 2, 1, 3, 1])
        for tol in (1e-9, 1e-13):
            _assert_same_report(balance_flow(cyc, tol=tol),
                                reference_flow(cyc, tol=tol))

    def test_stall(self):
        # unstable P^1 cycles with coordinates 1e-8 to 1e4: the residual
        # flattens out near 1/sqrt(2), and once rounding makes every step
        # raise it, the step halves down to _MIN_STEP.  Where a stall
        # falls depends on rounding, so three cases share the check
        cases = [([[1e-8, 0], [-1, 1e4], [[0, 1], 0]], [5, 5, 1]),
                 ([[0, 1], [1e-8, 3], [3, 1e-8]], [3, 3, 5]),
                 ([[1e4, [1, 1]], [1e-8, 2], [2, 1e-8], [1, 1e-8]],
                  [1, 5, 1, 2])]
        stalled = []
        for coords, masses in cases:
            cyc = BalanceCycle.from_raw(coords, masses)
            rep = balance_flow(cyc)
            _assert_same_report(rep, reference_flow(cyc))
            stalled.append(rep.stalled and rep.status == "max_iter")
        assert any(stalled)

    @pytest.mark.parametrize("mass, final_step", [
        (1e6, 0.00048828125), (1e9, 4.76837158203125e-07),
    ])
    def test_large_masses_raise_no_warning(self, mass, final_step):
        # the first steps overflow exp(-step * mu); the reference loop
        # warns and refuses the NaN residual, balance_flow refuses the
        # candidate's row norms, and both halve the step
        cyc = BalanceCycle.from_raw([[1, 0], [0, 1]], [mass, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = balance_flow(cyc)
        with np.errstate(all="ignore"):
            _assert_same_report(rep, reference_flow(cyc))
        assert rep.status == "diverged" and rep.iterations == 1
        assert rep.final_step == final_step

    def test_rows_whose_norms_overflow_are_refused(self):
        # at step 1/8 every candidate entry is finite (up to 6e162) but
        # every row norm overflows, so dividing by it zeroes every row.
        # The reference loop accepts that all-zero candidate, whose
        # residual sum(m)/sqrt(3) is below the starting one
        cyc = BalanceCycle.from_raw([[1, 0, 0], [0, 1, 0], [1, 1, 1]],
                                    [9000, 3, 3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = balance_flow(cyc)
        assert rep.status == "diverged" and rep.iterations == 5
        assert rep.final_step == 0.00048828125
        assert np.allclose(np.linalg.norm(rep.points, axis=1), 1)
        with np.errstate(all="ignore"):
            ref = reference_flow(cyc)
        assert ref.final_step == 0.125 and not ref.points.any()

    def test_classify_wide_cycles(self, monkeypatch):
        wl = _workloads(monkeypatch)
        cycles = []
        for rnd in range(3):
            for kind, n, count, planted in wl.WIDE_KINDS:
                pts, _ = wl.wide_points(1, rnd, kind, n, count, planted)
                cycles.append(BalanceCycle.from_weighted(
                    normalize_cycle(Ambient.projective(n), pts)))
        for cyc in cycles[:20]:
            _assert_same_report(
                balance_flow(cyc, max_iter=wl.FLOW_MAX_ITER),
                reference_flow(cyc, max_iter=wl.FLOW_MAX_ITER))


class TestCheckSpanning:
    def test_four_points_span(self):
        cyc = BalanceCycle.from_raw([[1, 0], [0, 1], [1, 1], [1, [0, 1]]],
                                    [1, 1, 1, 1])
        assert check_spanning(cyc)

    def test_small_configurations_do_not_span(self):
        assert not check_spanning(BalanceCycle.from_raw([[1, 0]], [1]))
        assert not check_spanning(
            BalanceCycle.from_raw([[1, 0], [0, 1]], [1, 1]))
        assert not check_spanning(
            BalanceCycle.from_raw([[1, 1], [2, 2]], [1, 1]))

    @pytest.mark.parametrize("coords", SPAN_CASES)
    def test_matches_moment_map_rows_on_fixed_cases(self, coords):
        cyc = BalanceCycle.from_raw(coords, [1] * len(coords))
        assert check_spanning(cyc) == _spanning_reference(cyc)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_moment_map_rows_on_random_cases(self, data):
        # unless k = n + 1, every point lies in the span of k generators,
        # a projective subspace, so the images cannot span
        n = data.draw(st.integers(1, 3))
        k = data.draw(st.integers(1, n + 1))
        gens = data.draw(st.lists(_complex_coords(n), min_size=k, max_size=k))
        combos = st.lists(st.integers(-3, 3), min_size=k, max_size=k)
        coords = []
        for c in data.draw(st.lists(combos, min_size=1,
                                    max_size=(n + 1) ** 2 + 2)):
            pt = [[sum(a * g[j][t] for a, g in zip(c, gens)) for t in (0, 1)]
                  for j in range(n + 1)]
            if any(re or im for re, im in pt):
                coords.append(pt)
        if not coords:
            return
        cyc = BalanceCycle.from_raw(coords, [1] * len(coords))
        assert check_spanning(cyc) == _spanning_reference(cyc)


class TestCheckNoCommonZero:
    def test_examples(self):
        tri = normalize_cycle(P2, [([1, 0, 0], 1), ([0, 1, 0], 1),
                                   ([0, 0, 1], 1)])
        assert not check_no_common_zero(tri)  # diagonal matrices fix it
        four = normalize_cycle(P2, [([1, 0, 0], 1), ([0, 1, 0], 1),
                                    ([0, 0, 1], 1), ([1, 1, 1], 1)])
        assert check_no_common_zero(four)
        assert not check_no_common_zero(normalize_cycle(P1, [([1, 0], 1)]))
        assert not check_no_common_zero(normalize_cycle(P2, []))
        three = normalize_cycle(P1, [([1, 0], 1), ([0, 1], 1), ([1, 1], 1)])
        assert check_no_common_zero(three)

    def test_rational_coordinates(self):
        from fractions import Fraction
        cyc = normalize_cycle(P1, [([Fraction(1, 2), Fraction(1, 3)], 1),
                                   ([1, 0], 1), ([0, 1], 1)])
        assert check_no_common_zero(cyc)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_sympy_stabilizer_rank(self, data):
        # independent form of the same test: A fixes [p] exactly when
        # (A p)_j p_l = (A p)_l p_j for all j < l, and the solutions A must
        # be the multiples of the identity alone
        n = data.draw(st.integers(1, 3))
        entry = st.one_of(st.just(0), st.fractions(-3, 3, max_denominator=5))
        coords = st.lists(entry, min_size=n + 1, max_size=n + 1).filter(any)
        points = data.draw(st.lists(coords, max_size=n + 3))
        cycle = normalize_cycle(Ambient.projective(n),
                                [(c, 1) for c in points])
        dim = n + 1
        rows = []
        for p, _ in cycle.points:
            x = [Rational(c.numerator, c.denominator) for c in p.coords]
            for j, l in itertools.combinations(range(dim), 2):
                row = [0] * (dim * dim)
                for k in range(dim):
                    row[j * dim + k] += x[k] * x[l]
                    row[l * dim + k] -= x[k] * x[j]
                rows.append(row)
        rank = Matrix(rows).rank() if rows else 0
        assert check_no_common_zero(cycle) == (dim * dim - rank == 1)
