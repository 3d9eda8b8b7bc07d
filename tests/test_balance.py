"""Tests for numerical balancing and its exact side conditions."""

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
from chowstab.geometry import chow_multiplicities
from chowstab.stability import classify
from chowstab.balance import (DIVERGENCE_NORM, SPAN_THRESHOLD, BalanceCycle,
                              balance_flow, balance_residual,
                              check_no_common_zero, check_spanning,
                              moment_map, total_moment)
from balance_reference import _moment_sum as _ref_moment_sum
from balance_reference import _unit_rows as _ref_unit_rows
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

    def test_objective_is_non_increasing_in_max_iter(self):
        # every step lowers f, except a full step whose predicted
        # decrease is below f's rounding, which f cannot tell apart
        cyc = BalanceCycle.from_raw([[1, 0], [0, 1], [1, 1], [1, [0, 1]]],
                                    [1, 1, 1, 1])
        prev = None
        for cap in (0, 1, 2, 3, 5, 8):
            rep = balance_flow(cyc, max_iter=cap)
            if prev is not None:
                rounding = 64 * np.finfo(float).eps * max(abs(prev), 1)
                assert rep.objective <= prev + rounding
            prev = rep.objective

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
        # values recorded from the fixed-step flow, which reference_flow
        # keeps; a change in its descent direction or the order of its
        # arithmetic moves them
        cyc = BalanceCycle.from_raw([[1, 0], [0, 1], [1, 1]], [3, 1, 1])
        ref = reference_flow(cyc)
        assert (ref.status, ref.iterations, ref.final_step) == (
            "diverged", 53, 0.25)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = balance_flow(cyc)
        assert rep.status == "diverged" and not rep.stalled

    def test_tolerance_validation(self):
        # the run stops converged only on residual < tol, so these would
        # never stop that way
        cyc = BalanceCycle.from_raw([[1, 0], [0, 1], [1, 1]], [1, 1, 1])
        for tol in (0.0, -1e-9, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol"):
                balance_flow(cyc, tol=tol)
        # and a negative iteration cap would silently report no work
        with pytest.raises(ValueError, match="max_iter"):
            balance_flow(cyc, max_iter=-5)


def _rebuilt_residual(cyc, rep):
    """The residual of the rows g v_i / |g v_i|, rebuilt from the report's
    group element and the input with the reference's own helpers."""
    rows = _ref_unit_rows(cyc.points) @ rep.group_element.T
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    return float(np.linalg.norm(_ref_moment_sum(rows,
                                                np.asarray(cyc.masses))))


def _assert_agrees(cyc, tol=1e-9, max_iter=100000):
    """balance_flow's status is reference_flow's wherever the reference
    decides, and a converged report's rebuilt residual is below tol."""
    rep = balance_flow(cyc, tol=tol, max_iter=max_iter)
    with np.errstate(all="ignore"):
        ref = reference_flow(cyc, tol=tol, max_iter=max_iter)
    if ref.status != "max_iter":
        assert rep.status == ref.status
    if rep.status == "converged":
        assert _rebuilt_residual(cyc, rep) < tol
    return rep, ref


def _wide_cycles(wl, seed):
    """The weighted cycles of every classify-wide op of a seed."""
    cycles = []
    for rnd in range(wl.ROUNDS):
        for kind, n, count, planted in wl.WIDE_KINDS:
            pts, _ = wl.wide_points(seed, rnd, kind, n, count, planted)
            cycles.append(normalize_cycle(Ambient.projective(n), pts))
    return cycles


class TestFlowMatchesReference:
    """balance_flow decides as the fixed-step flow does where it decides."""

    @pytest.mark.parametrize("name,coords,masses,expect",
                             CORPUS, ids=[c[0] for c in CORPUS])
    def test_corpus(self, name, coords, masses, expect):
        cyc = BalanceCycle.from_raw(coords, masses)
        for cap in (0, 3, 100000):
            _assert_agrees(cyc, max_iter=cap)

    def test_complex_coordinates(self):
        # the point of mass 3 carries more than T/3: the reference stalls
        # short of its divergence test, balance_flow reaches it
        cyc = BalanceCycle.from_raw(
            [[[1, 2], [0, -1], 3], [[0.5, 0], 2, [-1, 1]],
             [1, [0, 1], [2, -3]], [[0, 1], 1, 0], [2, [1, 1], [0, 2]]],
            [1, 2, 1, 3, 1])
        for tol in (1e-9, 1e-13):
            rep, ref = _assert_agrees(cyc, tol=tol)
            assert ref.stalled
            assert rep.status == "diverged" and not rep.stalled

    def test_stall(self):
        # P^1 cycles with coordinates 1e-8 to 1e4.  The reference's
        # residual flattens near 1/sqrt(2) and its step halves down to
        # _MIN_STEP; balance_flow decides every one.  The first and last
        # are unstable; in the second the two points of mass 3 are 3e-9
        # apart, so its balancing group element lies far beyond
        # DIVERGENCE_NORM
        cases = [([[1e-8, 0], [-1, 1e4], [[0, 1], 0]], [5, 5, 1]),
                 ([[0, 1], [1e-8, 3], [3, 1e-8]], [3, 3, 5]),
                 ([[1e4, [1, 1]], [1e-8, 2], [2, 1e-8], [1, 1e-8]],
                  [1, 5, 1, 2])]
        stalled = []
        for coords, masses in cases:
            rep, ref = _assert_agrees(BalanceCycle.from_raw(coords, masses))
            stalled.append(ref.stalled and ref.status == "max_iter")
            assert rep.status == "diverged" and not rep.stalled
        assert any(stalled)

    @pytest.mark.parametrize("mass, final_step", [
        (1e6, 0.00048828125), (1e9, 4.76837158203125e-07),
    ])
    def test_large_masses_raise_no_warning(self, mass, final_step):
        # the reference's first steps overflow exp(-step * mu): it warns,
        # refuses the NaN residual and halves its step.  balance_flow
        # runs with warnings as errors
        cyc = BalanceCycle.from_raw([[1, 0], [0, 1]], [mass, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = balance_flow(cyc)
        with np.errstate(all="ignore"):
            ref = reference_flow(cyc)
        assert (ref.status, ref.iterations, ref.final_step) == (
            "diverged", 1, final_step)
        assert rep.status == "diverged" and not rep.stalled

    def test_rows_whose_norms_overflow_are_refused(self):
        # at step 1/8 every reference candidate entry is finite (up to
        # 6e162) but every row norm overflows, so dividing by it zeroes
        # every row, and the reference accepts that all-zero candidate,
        # whose residual sum(m)/sqrt(3) is below the starting one.
        # balance_flow never forms such a row
        cyc = BalanceCycle.from_raw([[1, 0, 0], [0, 1, 0], [1, 1, 1]],
                                    [9000, 3, 3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = balance_flow(cyc)
        assert rep.status == "diverged" and not rep.stalled
        assert np.allclose(np.linalg.norm(rep.points, axis=1), 1)
        with np.errstate(all="ignore"):
            ref = reference_flow(cyc)
        assert (ref.status, ref.iterations, ref.final_step) == (
            "diverged", 1, 0.125)
        assert not ref.points.any()

    def test_classify_wide_cycles(self, monkeypatch):
        wl = _workloads(monkeypatch)
        for cyc in _wide_cycles(wl, 1)[:20]:
            _assert_agrees(BalanceCycle.from_weighted(cyc),
                           max_iter=wl.FLOW_MAX_ITER)


# strictly semistable P^2 cycles: a polystable frame, whose balanced
# representative exists, and two that are not polystable, where f is
# bounded below but its minimum is not attained
POLYSTABLE_FRAME = ([[1, 2, 3], [0, 1, 0], [0, 1, 5]], [2, 2, 2])
NOT_POLYSTABLE = [
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 1]], [2, 1, 1, 2]),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, -1, 2]],
     [1, 2, 1, 1, 1]),
]


class TestNewtonDecides:
    """Statuses that the fixed-step flow could not reach."""

    def test_classify_wide_cycles_match_exact_verdicts(self, monkeypatch):
        # the fixed-step flow leaves 12 of the 40 stable seed-1 cycles
        # at the workload's cap of 100 steps
        wl = _workloads(monkeypatch)
        for seed in (1, 2, 3):
            for cyc in _wide_cycles(wl, seed):
                verdict = classify(chow_multiplicities(cyc)).status
                rep = balance_flow(BalanceCycle.from_weighted(cyc),
                                   max_iter=wl.FLOW_MAX_ITER)
                assert rep.status == {"stable": "converged",
                                      "unstable": "diverged"}[verdict]

    def test_polystable_frame_converges(self):
        rep = balance_flow(BalanceCycle.from_raw(*POLYSTABLE_FRAME))
        assert rep.status == "converged"

    @pytest.mark.parametrize("coords, masses", NOT_POLYSTABLE)
    def test_not_polystable_ends_quickly_without_converging(self, coords,
                                                            masses):
        # the fixed-step flow runs all 100000 steps on each
        rep = balance_flow(BalanceCycle.from_raw(coords, masses))
        assert rep.status != "converged" and rep.iterations < 50
        assert math.isfinite(rep.objective)

    @pytest.mark.parametrize("name,coords,masses", [
        (c[0], c[1], c[2]) for c in CORPUS] + [
        ("frame", *POLYSTABLE_FRAME), ("semistable_a", *NOT_POLYSTABLE[0]),
        ("semistable_b", *NOT_POLYSTABLE[1])])
    def test_scaling_the_masses_leaves_every_step(self, name, coords,
                                                  masses):
        # c = (n+1) m / T is the same, so every iterate is the same bit
        # for bit and only the residual scales.  The status and the
        # iteration count stay, except that a run whose last residual is
        # within a factor k of tol takes one more step to converge
        base = balance_flow(BalanceCycle.from_raw(coords, masses))
        for k in (2, 3, 4, 5):
            cyc = BalanceCycle.from_raw(coords, [k * m for m in masses])
            rep = balance_flow(cyc)
            assert rep.status == base.status
            late = (base.status == "converged"
                    and k * base.residual_norm >= 1e-9)
            assert rep.iterations == base.iterations + late
            same = balance_flow(cyc, max_iter=base.iterations)
            assert same.objective == base.objective
            assert np.array_equal(same.group_element, base.group_element)
            # the moment sum rounds to about eps k T
            assert same.residual_norm == pytest.approx(
                k * base.residual_norm,
                abs=64 * np.finfo(float).eps * k * sum(masses))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_converged_rows_rebuild_below_tol(self, data):
        # random complex changes of basis of small integer points, with
        # real masses: a converged report's group element balances the
        # input to tol when applied afresh
        n = data.draw(st.integers(1, 3))
        coords = data.draw(st.lists(_complex_coords(n), min_size=1,
                                    max_size=3 * n + 4))
        masses = data.draw(st.lists(st.floats(0.5, 5.0), min_size=len(coords),
                                    max_size=len(coords)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        basis = (rng.standard_normal((n + 1, n + 1))
                 + 1j * rng.standard_normal((n + 1, n + 1)))
        pts = [[complex(*z) for z in c] for c in coords]
        moved = [[[z.real, z.imag] for z in basis @ p] for p in pts]
        cyc = BalanceCycle.from_raw(moved, masses)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = balance_flow(cyc)
        if rep.status == "converged":
            assert _rebuilt_residual(cyc, rep) < 1e-9


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
