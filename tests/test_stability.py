"""Tests for the stability classifier, certificates, and the search oracle.

Independent recomputations use sympy so that the exact linear algebra in
the package is never trusted to check itself.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix, Rational

from chowstab import exactcore, stability
from chowstab import (Ambient, DiagonalOnePS, ProjectivePoint, Subspace,
                      SubspaceNotSpannedBySupport, chow_weight, classify,
                      destabilizer_from_subspace, exhaustive_ops_search,
                      mumford_weight, normalize_cycle)
from classify_reference import _fraction_span, reference_classify
from exact_reference import fraction_rref
from optimized import run_optimized
from search_reference import (_adapted_frame, _int_frame, reference_search,
                              reference_subsets)

P1 = Ambient.projective(1)
P2 = Ambient.projective(2)

COLLINEAR = normalize_cycle(P2, [([1, 0, 0], 1), ([0, 1, 0], 1),
                                 ([1, 1, 0], 1)])
HEAVY = normalize_cycle(P2, [([1, 0, 0], 2), ([0, 1, 0], 1), ([0, 0, 1], 1)])
FOUR_GENERAL = normalize_cycle(P2, [([1, 0, 0], 1), ([0, 1, 0], 1),
                                    ([0, 0, 1], 1), ([1, 1, 1], 1)])
TRIANGLE = normalize_cycle(P2, [([1, 0, 0], 1), ([0, 1, 0], 1),
                                ([0, 0, 1], 1)])


def _random_cycle(rng, n, max_points, coord_bound=2):
    pts = []
    for _ in range(rng.randint(1, max_points)):
        while True:
            c = [rng.randint(-coord_bound, coord_bound) for _ in range(n + 1)]
            if any(c):
                break
        pts.append((c, rng.randint(1, 3)))
    return normalize_cycle(Ambient.projective(n), pts)


class TestMumfordWeight:
    def test_traceless_hand_values(self):
        w = DiagonalOnePS((1, 1, -2))
        assert mumford_weight(ProjectivePoint([1, 0, 0]), w) == 1
        assert mumford_weight(ProjectivePoint([1, 1, 0]), w) == 1
        assert mumford_weight(ProjectivePoint([0, 0, 1]), w) == -2
        assert mumford_weight(ProjectivePoint([1, 0, 1]), w) == -2

    def test_normalizes_before_taking_min(self):
        w = DiagonalOnePS((3, 0, 0))  # traceless form (2, -1, -1)
        assert mumford_weight(ProjectivePoint([1, 0, 0]), w) == 2
        assert mumford_weight(ProjectivePoint([0, 1, 1]), w) == -1
        assert mumford_weight(ProjectivePoint([1, 1, 1]), w) == -1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mumford_weight(ProjectivePoint([1, 0]), DiagonalOnePS((1, 0, -1)))

    def test_invariant_under_constant_shift(self):
        rng = random.Random(1301)
        for _ in range(30):
            n = rng.randint(1, 3)
            coords = [rng.randint(-3, 3) for _ in range(n + 1)]
            if not any(coords):
                coords[0] = 1
            p = ProjectivePoint(coords)
            w = [rng.randint(-4, 4) for _ in range(n + 1)]
            c = rng.randint(-5, 5)
            assert mumford_weight(p, DiagonalOnePS(w)) == mumford_weight(
                p, DiagonalOnePS(tuple(wi + c for wi in w)))

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_min_of_traceless_weights(self, data):
        n = data.draw(st.integers(1, 4))
        weights = data.draw(st.one_of(
            st.lists(st.integers(-5, 5), min_size=n + 1, max_size=n + 1),
            st.integers(-5, 5).map(lambda c: [c] * (n + 1))))
        coords = data.draw(st.lists(
            st.sampled_from([0, 0, 1, -1, 2, Fraction(-2, 3)]),
            min_size=n + 1, max_size=n + 1).filter(any))
        p, alpha = ProjectivePoint(coords), DiagonalOnePS(tuple(weights))
        got = mumford_weight(p, alpha)
        assert got == min(alpha.normalized()[i] for i in p.support())
        assert type(got) is Fraction


class TestChowWeight:
    def test_collinear_hand_value(self):
        assert chow_weight(COLLINEAR, DiagonalOnePS((1, 1, -2))) == 3

    def test_heavy_point_hand_value(self):
        # 2*2 + 1*(-1) + 1*(-1) with traceless weights (2, -1, -1)
        assert chow_weight(HEAVY, DiagonalOnePS((2, -1, -1))) == 2

    def test_invariant_under_constant_shift(self):
        rng = random.Random(1302)
        for _ in range(20):
            cyc = _random_cycle(rng, rng.randint(1, 2), 4)
            n = cyc.ambient.n
            w = [rng.randint(-3, 3) for _ in range(n + 1)]
            c = rng.randint(-4, 4)
            assert chow_weight(cyc, DiagonalOnePS(w)) == chow_weight(
                cyc, DiagonalOnePS(tuple(wi + c for wi in w)))


class TestSubspace:
    def test_dim_and_containment(self):
        line = Subspace([ProjectivePoint([1, 0, 0]),
                         ProjectivePoint([0, 1, 0])])
        assert line.dim == 1 and line.ambient_dim == 2
        assert line.contains(ProjectivePoint([3, -2, 0]))
        assert not line.contains(ProjectivePoint([0, 0, 1]))

    def test_canonical_across_spanning_sets(self):
        a = Subspace([ProjectivePoint([1, 0, 0]), ProjectivePoint([0, 1, 0])])
        b = Subspace([ProjectivePoint([1, 1, 0]), ProjectivePoint([1, -1, 0])])
        assert a == b and hash(a) == hash(b)

    def test_dependent_spanning_points_collapse(self):
        s = Subspace([ProjectivePoint([1, 2, 0]), ProjectivePoint([2, 4, 0])])
        assert s.dim == 0

    def test_needs_a_point(self):
        with pytest.raises(ValueError):
            Subspace([])

    def test_point_of_a_larger_ambient_refused(self):
        line = Subspace([ProjectivePoint([1, 0, 0]),
                         ProjectivePoint([0, 1, 0])])
        with pytest.raises(ValueError, match="do not form a 3 x 3 matrix"):
            line.contains(ProjectivePoint([1, 1, 0, 5]))

    def test_point_of_a_smaller_ambient_refused(self):
        line = Subspace([ProjectivePoint([1, 0, 0]),
                         ProjectivePoint([0, 1, 0])])
        with pytest.raises(ValueError, match="do not form a 3 x 3 matrix"):
            line.contains(ProjectivePoint([1, 1]))

    def test_spanning_points_of_different_ambients_refused(self):
        with pytest.raises(ValueError, match="do not form a 2 x 3 matrix"):
            Subspace([ProjectivePoint([1, 0, 0]),
                      ProjectivePoint([0, 1, 0, 0])])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_fraction_rref_and_rank_probe(self, data):
        n = data.draw(st.integers(1, 4))
        entry = st.one_of(st.just(0), st.builds(Fraction, st.integers(-3, 3),
                                                st.integers(1, 3)))
        coords = st.lists(entry, min_size=n + 1, max_size=n + 1).filter(any)
        rows = data.draw(st.lists(coords, min_size=1, max_size=n + 1))
        pair = st.tuples(st.integers(0, len(rows) - 1),
                         st.integers(0, len(rows) - 1), entry, entry)

        def in_span():
            """Nonzero combinations of two of the drawn points."""
            combos = [[a * x + b * y for x, y in zip(rows[i], rows[j])]
                      for i, j, a, b in data.draw(st.lists(pair, max_size=3))]
            return [c for c in combos if any(c)]

        points = [ProjectivePoint(r) for r in rows + in_span()]
        v = Subspace(points)
        fraction_rows = [list(p.coords) for p in points]
        rank, _ = fraction_rref(fraction_rows)
        assert v.rref == tuple(map(tuple, fraction_rows[:rank]))
        probes = data.draw(st.lists(coords, max_size=3)) + in_span()
        for q in map(ProjectivePoint, probes):
            probe = [list(p.coords) for p in points] + [list(q.coords)]
            assert v.contains(q) == (fraction_rref(probe)[0] == rank)


class TestClassify:
    def test_single_point_is_unstable(self):
        cyc = normalize_cycle(P2, [([1, 0, 0], 1)])
        assert classify(cyc).status == "unstable"

    def test_four_general_points_are_stable(self):
        verdict = classify(FOUR_GENERAL)
        assert verdict.status == "stable"
        assert verdict.certificate is None
        assert verdict.witness_ratios == ()

    def test_coordinate_triangle_is_strictly_semistable(self):
        verdict = classify(TRIANGLE)
        assert verdict.status == "strictly_semistable"
        assert verdict.certificate is None
        # all three vertices and all three edges sit on the boundary ratio,
        # in scan order: by dimension, then by spanning support indices
        assert all(r.is_boundary for r in verdict.witness_ratios)
        assert [r.subspace.dim for r in verdict.witness_ratios] == [
            0, 0, 0, 1, 1, 1]
        s = TRIANGLE.support()
        assert [r.subspace.spanning_points
                for r in verdict.witness_ratios] == [
            (s[0],), (s[1],), (s[2],), (s[0], s[1]), (s[0], s[2]),
            (s[1], s[2])]

    def test_two_unit_points_on_line_are_strictly_semistable(self):
        cyc = normalize_cycle(P1, [([1, 0], 1), ([0, 1], 1)])
        assert classify(cyc).status == "strictly_semistable"

    def test_unstable_certificate_content(self):
        verdict = classify(HEAVY)
        assert verdict.is_unstable
        cert = verdict.certificate
        assert cert.subspace.dim == 0
        assert cert.subspace.contains(ProjectivePoint([1, 0, 0]))
        assert cert.mass_on_v == 2 and cert.total_mass == 4
        assert cert.ratio == 2 and cert.threshold == Fraction(4, 3)
        assert cert.destabilizer.ops.weights == (2, -1, -1)
        assert cert.destabilizer.chow_weight == 2

    def test_collinear_destabilizer_is_line_weighting(self):
        cert = classify(COLLINEAR).certificate
        assert cert.subspace.dim == 1
        assert cert.destabilizer.ops.weights == (1, 1, -2)
        assert cert.destabilizer.chow_weight == 3

    def test_tied_ratio_prefers_the_point_over_the_line(self):
        # [1:0:0] (mass 2) and the line z = 0 (mass 4) both have ratio 2
        cyc = normalize_cycle(P2, [([1, 0, 0], 2), ([0, 1, 0], 1),
                                   ([1, 1, 0], 1), ([0, 0, 1], 1)])
        cert = classify(cyc).certificate
        assert cert.ratio == 2
        assert cert.subspace.spanning_points == (ProjectivePoint([1, 0, 0]),)

    def test_tied_points_prefer_the_earliest_support_index(self):
        # [0:1:0] and [1:0:0] (mass 2 each) and the line through them tie at
        # ratio 2; [0:1:0] comes first in the sorted support
        cyc = normalize_cycle(P2, [([1, 0, 0], 2), ([0, 1, 0], 2),
                                   ([0, 0, 1], 1)])
        assert cyc.support().index(ProjectivePoint([0, 1, 0])) == 1
        cert = classify(cyc).certificate
        assert cert.ratio == 2
        assert cert.subspace.spanning_points == (ProjectivePoint([0, 1, 0]),)

    def test_frame_disagreeing_with_scan_raises_under_optimize(self):
        # flipping one mask bit moves a point of V off it; the destabilizer's
        # own closed form still holds, so only the scan's mass catches it
        script = """
            from chowstab import stability
            from chowstab.errors import VerificationFailed
            from chowstab.geometry import Ambient, normalize_cycle
            heavy = normalize_cycle(Ambient.projective(2), [
                ([1, 0, 0], 2), ([0, 1, 0], 1), ([0, 0, 1], 1)])
            real = stability._pivot
            def flipped(frame, j):
                J, cols = real(frame, j)
                cols[cols.index([1, 0, 0])][2] = 1  # the heavy point, in V
                return J, cols
            stability._pivot = flipped
            try:
                stability.classify(heavy)
            except VerificationFailed:
                print("raised")
            """
        assert run_optimized(script) == "raised"

    def test_subspace_disagreeing_with_wedge_raises_under_optimize(self):
        # an elimination that loses a pivot gives the certified point a
        # Subspace of rank 0; the scan's wedge says rank 1
        script = """
            from chowstab import stability
            from chowstab.errors import VerificationFailed
            from chowstab.geometry import Ambient, normalize_cycle
            heavy = normalize_cycle(Ambient.projective(2), [
                ([1, 0, 0], 2), ([0, 1, 0], 1), ([0, 0, 1], 1)])
            real = stability._rref
            def lossy(rows):
                rank, pivots = real(rows)
                return rank - 1, pivots[:-1]
            stability._rref = lossy
            try:
                stability.classify(heavy)
            except VerificationFailed as exc:
                print("wedge rank" in str(exc))
            """
        assert run_optimized(script) == "True"

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_reference_loop(self, data):
        cycle = data.draw(_classify_cycles())
        got, want = classify(cycle), reference_classify(cycle)
        assert got == want
        assert _verdict_facts(got) == _verdict_facts(want)


def _record_facts(rec):
    v = rec.subspace
    return (v.rref, v.spanning_points, rec.mass_on_v, rec.total_mass,
            rec.ratio, rec.threshold)


def _verdict_facts(verdict):
    """Everything a verdict reports, with the spanning points that
    `Subspace` equality leaves out; witnesses in order."""
    cert = verdict.certificate
    return (verdict.status,
            None if cert is None else (_record_facts(cert),
                                       cert.destabilizer),
            [_record_facts(r) for r in verdict.witness_ratios])


@st.composite
def _classify_cycles(draw):
    """P^n cycles, n in 1..4, with rational coordinates: zeros, denominators
    up to 3, masses up to 3, and some points repeating an earlier direction
    at another scale (they merge, adding their masses)."""
    n = draw(st.integers(1, 4))
    entry = st.one_of(st.just(0), st.builds(Fraction, st.integers(-3, 3),
                                            st.integers(1, 3)))
    coords = st.lists(entry, min_size=n + 1, max_size=n + 1).filter(any)
    points = draw(st.lists(st.tuples(coords, st.integers(1, 3)),
                           max_size=n + 4))
    if points:
        scale = st.sampled_from([Fraction(-2), Fraction(1, 3), Fraction(3, 2)])
        for i, s, m in draw(st.lists(st.tuples(
                st.integers(0, len(points) - 1), scale, st.integers(1, 3)),
                max_size=2)):
            points.append(([c * s for c in points[i][0]], m))
    return normalize_cycle(Ambient.projective(n), points)


def _independent_destabilizer_weight(cycle, dest):
    """Recompute the adapted chow weight with sympy linear solves."""
    basis = Matrix([[Rational(x) for x in row] for row in dest.adapted_basis])
    w = dest.ops.normalized()
    total = Fraction(0)
    for p, m in cycle.points:
        coords = basis.T.LUsolve(Matrix([Rational(c) for c in p.coords]))
        mins = min(w[i] for i in range(len(w)) if coords[i] != 0)
        total += m * mins
    return total


class TestDestabilizer:
    def test_weight_vector_shape(self):
        cert = classify(COLLINEAR).certificate
        n, k = 2, cert.subspace.dim
        ws = cert.destabilizer.ops.weights
        assert ws == tuple([n - k] * (k + 1) + [-(k + 1)] * (n - k))
        assert sum(ws) == 0

    def test_matches_independent_recompute(self):
        rng = random.Random(1303)
        checked = 0
        for _ in range(40):
            cyc = _random_cycle(rng, rng.randint(1, 2), 4, coord_bound=1)
            verdict = classify(cyc)
            if not verdict.is_unstable:
                continue
            dest = verdict.certificate.destabilizer
            assert dest.chow_weight == _independent_destabilizer_weight(
                cyc, dest)
            checked += 1
        assert checked >= 10

    def test_positive_weight_iff_ratio_violated(self):
        rng = random.Random(1304)
        for _ in range(25):
            cyc = _random_cycle(rng, 2, 4, coord_bound=1)
            support = cyc.support()
            n = cyc.ambient.n
            size = rng.randint(1, min(len(support), n))
            pts = rng.sample(list(support), size)
            v = Subspace(pts)
            if v.dim > n - 1:
                continue
            dest = destabilizer_from_subspace(cyc, v)
            mass = sum(m for p, m in cyc.points if v.contains(p))
            violating = Fraction(mass, v.dim + 1) > Fraction(
                cyc.total_mass(), n + 1)
            assert (dest.chow_weight > 0) == violating

    def test_requires_support_spanning_points(self):
        v = Subspace([ProjectivePoint([5, 7, 1])])
        with pytest.raises(SubspaceNotSpannedBySupport):
            destabilizer_from_subspace(COLLINEAR, v)

    def test_rejects_full_ambient_span(self):
        v = Subspace([ProjectivePoint([1, 0, 0]), ProjectivePoint([0, 1, 0]),
                      ProjectivePoint([0, 0, 1])])
        with pytest.raises(ValueError):
            destabilizer_from_subspace(TRIANGLE, v)

    def test_broken_identity_raises_under_optimize(self):
        # python -O strips assert statements; the adapted weight identity
        # must still raise when the per-point weight is broken
        script = """
            from chowstab import stability
            from chowstab.errors import VerificationFailed
            from chowstab.geometry import Ambient, normalize_cycle
            heavy = normalize_cycle(Ambient.projective(2), [
                ([1, 0, 0], 2), ([0, 1, 0], 1), ([0, 0, 1], 1)])
            sub = stability.Subspace([heavy.support()[0]])
            stability._scaled_weight = lambda weights, support: 0
            try:
                stability.destabilizer_from_subspace(heavy, sub)
            except VerificationFailed:
                print("raised")
            """
        assert run_optimized(script) == "raised"


# few distinct entries, many of them zero: support masks repeat across
# points and frames, and scores tie often
_SEARCH_COORD = st.sampled_from(
    [0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
# masses from 2^62 on overflow int64 scores, so the exact path runs
_HEAVY_MASS = st.one_of(st.integers(1, 3), st.integers(2 ** 62, 2 ** 66))


@st.composite
def _search_cycles(draw, low=1, high=4):
    """P^n cycles, n in low..high, with rational coordinates; up to n+2
    points on P^1 and P^2, and up to n+1 on P^3 and P^4 to bound the loop's
    time.  About half of them may carry masses of 2^62 and more."""
    n = draw(st.integers(low, high))
    coords = st.lists(_SEARCH_COORD, min_size=n + 1,
                      max_size=n + 1).filter(any)
    mass = _HEAVY_MASS if draw(st.booleans()) else st.integers(1, 3)
    points = draw(st.lists(st.tuples(coords, mass), min_size=1,
                           max_size=n + 2 if n < 3 else n + 1))
    return normalize_cycle(Ambient.projective(n), points)


class TestSearchOracle:
    def test_semistable_and_stable_peak_at_zero(self):
        assert exhaustive_ops_search(TRIANGLE, 2).weight == 0
        assert exhaustive_ops_search(FOUR_GENERAL, 2).weight == 0

    def test_unstable_peak_is_positive(self):
        res = exhaustive_ops_search(HEAVY, 2)
        assert res.weight > 0

    def test_agrees_with_classify_on_line(self):
        rng = random.Random(1305)
        for _ in range(12):
            cyc = _random_cycle(rng, 1, 4)
            unstable = classify(cyc).is_unstable
            assert (exhaustive_ops_search(cyc, 3).weight > 0) == unstable

    def test_agrees_with_classify_on_plane(self):
        rng = random.Random(1306)
        for _ in range(6):
            cyc = _random_cycle(rng, 2, 4, coord_bound=1)
            unstable = classify(cyc).is_unstable
            assert (exhaustive_ops_search(cyc, 2).weight > 0) == unstable

    def test_input_validation(self):
        with pytest.raises(ValueError):
            exhaustive_ops_search(HEAVY, -1)

    def test_bound_must_be_an_integer(self):
        # refused at the call, never searched with a non-integer B
        for bound in (Fraction(5, 2), 2.0, "2"):
            with pytest.raises(TypeError):
                exhaustive_ops_search(COLLINEAR, bound)
        res = exhaustive_ops_search(COLLINEAR, np.int64(2))
        assert res == exhaustive_ops_search(COLLINEAR, 2)
        assert all(type(w) is int for w in res.weights)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_reference_loop(self, data):
        cycle = data.draw(_search_cycles())
        n = cycle.ambient.n
        bound = data.draw(st.integers(0, 2 if n == 4 else 3))
        res = exhaustive_ops_search(cycle, bound)
        assert res == reference_search(cycle, bound)
        assert all(type(w) is int for w in res.weights)

    def test_empty_cycle_matches_reference_loop(self):
        # no points means no support masks: every frame scores 0
        for n in range(1, 5):
            empty = normalize_cycle(Ambient.projective(n), [])
            for bound in range(3):
                res = exhaustive_ops_search(empty, bound)
                assert res == reference_search(empty, bound)
                assert res.weight == 0 and res.weights == (-bound,) * (n + 1)
                assert res.basis_points == ()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_reference_loop_up_to_bound_6(self, data):
        cycle = data.draw(_search_cycles(1, 2))
        bound = data.draw(st.integers(0, 6))
        assert exhaustive_ops_search(cycle, bound) == reference_search(
            cycle, bound)

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_reference_loop_on_p3_up_to_bound_6(self, data):
        # the reference scans 13^4 weight vectors per frame at B = 6
        cycle = data.draw(_search_cycles(3, 3))
        bound = data.draw(st.integers(4, 6))
        assert exhaustive_ops_search(cycle, bound) == reference_search(
            cycle, bound)

    def test_matches_reference_loop_on_fixed_cycles(self):
        rng = random.Random(1307)
        cycles = [COLLINEAR, HEAVY, TRIANGLE, FOUR_GENERAL] + [
            _random_cycle(rng, n, n + 2) for n in (1, 2, 3) for _ in range(3)]
        for cycle in cycles:
            assert exhaustive_ops_search(cycle, 2) == reference_search(cycle, 2)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_result_scales_with_the_bound(self, data):
        # the maximizer is B times a sign vector, found in the same frame
        cycle = data.draw(_search_cycles())
        unit = exhaustive_ops_search(cycle, 1)
        for bound in (*range(1, 7), 10 ** 30):
            res = exhaustive_ops_search(cycle, bound)
            assert res.weight == bound * unit.weight
            assert res.weights == tuple(bound * w for w in unit.weights)
            assert (res.basis, res.basis_points) == (unit.basis,
                                                     unit.basis_points)


class TestAdaptedFrame:
    @pytest.fixture
    def eliminations(self, monkeypatch):
        """Count every RREF the stability layer runs, by the number of rows
        eliminated; exactcore's integer RREF is its only one."""
        assert stability._rref is exactcore._rref
        calls = []

        def counting(rows, real=stability._rref):
            calls.append(len(rows))
            return real(rows)

        monkeypatch.setattr(stability, "_rref", counting)
        return calls

    @pytest.fixture
    def pivots(self, monkeypatch):
        """Count every pivot step that grows a frame, by its point."""
        calls = []

        def counting(frame, j, real=stability._pivot):
            calls.append(j)
            return real(frame, j)

        monkeypatch.setattr(stability, "_pivot", counting)
        return calls

    @staticmethod
    def _candidates(cycle, max_size):
        """Candidate subsets of the scan: every independent subset of fewer
        than max_size points, the empty one too, grown by each later point.
        The independent subsets come from the reference enumeration."""
        support = cycle.support()
        parents = [()] + [idx for idx, _ in reference_subsets(
            support, max_size - 1, _fraction_span)]
        return sum(len(support) - (idx[-1] + 1 if idx else 0)
                   for idx in parents)

    def test_destabilizer_pivots_once_per_spanning_point(self, eliminations,
                                                         pivots):
        # the frame is one pivot step per spanning point, no elimination
        for cycle in (HEAVY, COLLINEAR):
            sub = classify(cycle).certificate.subspace
            eliminations.clear()
            pivots.clear()
            destabilizer_from_subspace(cycle, sub)
            assert eliminations == []
            assert pivots == [cycle.support().index(p)
                              for p in sub.spanning_points]

    def test_search_pivots_once_per_candidate(self, eliminations, pivots):
        # collinear support: no subset spans the plane, so every frame needs
        # standard vectors to complete it; each candidate subset is its
        # parent's frame grown by one pivot step, and nothing is eliminated
        for cycle in (COLLINEAR, HEAVY):
            n = cycle.ambient.n
            candidates = self._candidates(cycle, n + 1)
            exhaustive_ops_search(cycle, 1)
            assert eliminations == []
            assert len(pivots) == candidates
            pivots.clear()

    def test_classify_scan_eliminates_over_the_integers(self, eliminations):
        # the wedge scan eliminates no candidate subset: one elimination for
        # the support's span, one per boundary flat's Subspace and, for an
        # unstable cycle, one for the certified Subspace; its destabilizer's
        # frame is pivot steps
        for cycle in (FOUR_GENERAL, TRIANGLE, COLLINEAR, HEAVY):
            verdict = classify(cycle)
            records = len(verdict.witness_ratios)
            assert eliminations[0] == len(cycle.support())
            assert len(eliminations) == 1 + (
                records + 1 if verdict.is_unstable else records)
            eliminations.clear()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_greedy_oracle(self, data):
        n = data.draw(st.integers(1, 4))
        entry = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))
        vec = st.lists(entry, min_size=n + 1, max_size=n + 1)
        vectors = data.draw(st.lists(vec, max_size=n + 2))
        points = [ProjectivePoint(c) for c in
                  data.draw(st.lists(vec.filter(any), max_size=4))]
        independent, basis, coords = _adapted_frame(vectors, points, n)
        # the integer frames take any nonzero multiple of each column
        scaled = [[int(x * 6) for x in v] for v in vectors]
        ints = [stability._primitive(p.coords) for p in points]
        chosen_idx, J, masks = _folded_frame(scaled, ints, n)
        assert (len(chosen_idx), J, masks) == _reference_frame(scaled, ints, n)
        # greedy oracle: keep each candidate that raises the rank
        chosen = []

        def greedy(candidates):
            for v in candidates:
                if Matrix(chosen + [v]).rank() == len(chosen) + 1:
                    chosen.append(v)

        greedy(vectors)
        assert independent == len(chosen_idx) == len(chosen)
        greedy([[Fraction(int(i == j)) for j in range(n + 1)]
                for i in range(n + 1)])
        assert [list(b) for b in basis] == chosen
        assert [list(b) for b in stability._frame_basis(
            [vectors[i] for i in chosen_idx], J, n)] == chosen
        assert len(coords) == len(masks) == len(points)
        oracle = Matrix([[Rational(x) for x in b] for b in chosen]).T
        for p, c, mask in zip(points, coords, masks):
            assert [sum(ci * b[j] for ci, b in zip(c, basis))
                    for j in range(n + 1)] == list(p.coords)
            solved = oracle.LUsolve(Matrix([Rational(x) for x in p.coords]))
            assert mask == sum(1 << i for i, x in enumerate(solved) if x != 0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_pivot_matches_integer_elimination_on_wide_entries(self, data):
        # entries far past 2^62, repeated and dependent vectors, and maybe
        # no point at all: the fold keeps the reference's frame exactly
        n = data.draw(st.integers(1, 4))
        entry = st.one_of(
            st.sampled_from([0, 0, 1, -1, 2, 3]),
            st.integers(-10 ** 30, 10 ** 30),
            st.sampled_from([2 ** 62 - 1, 2 ** 62 + 1, -(2 ** 62) - 1]))
        vec = st.lists(entry, min_size=n + 1, max_size=n + 1)
        vectors = data.draw(st.lists(vec, min_size=1, max_size=n + 1))
        for _ in range(data.draw(st.integers(0, 3))):
            picks = data.draw(st.lists(st.integers(0, len(vectors) - 1),
                                       min_size=1, max_size=2))
            factors = data.draw(st.lists(entry, min_size=len(picks),
                                         max_size=len(picks)))
            at = data.draw(st.integers(0, len(vectors)))
            vectors.insert(at, [sum(f * vectors[i][j]
                                    for f, i in zip(factors, picks))
                                for j in range(n + 1)])
        points = data.draw(st.lists(vec.filter(any), max_size=4))
        # points on small combinations of the vectors have zero coordinates
        # in the frame, which one wrongly scaled column shifts
        small = st.sampled_from([-1, 1, 2])
        for _ in range(data.draw(st.integers(0, 3))):
            picks = data.draw(st.lists(st.integers(0, len(vectors) - 1),
                                       min_size=1, max_size=3, unique=True))
            factors = [data.draw(small) for _ in picks]
            planted = [sum(f * vectors[i][j] for f, i in zip(factors, picks))
                       for j in range(n + 1)]
            if any(planted):
                points.append(planted)
        chosen_idx, J, masks = _folded_frame(vectors, points, n)
        assert (len(chosen_idx), J, masks) == _reference_frame(
            vectors, points, n)
        # a step returns None exactly on a vector in the span so far
        for j, v in enumerate(vectors):
            before = [vectors[i] for i in chosen_idx if i < j]
            rank, _ = fraction_rref([[Fraction(x) for x in w]
                                     for w in before + [v]])
            assert (j in chosen_idx) == (rank > len(before))


def _folded_frame(vectors, points, n):
    """(chosen vector indices, J, point masks) of the frame `_pivot` grows
    by each of `vectors` in turn, over the columns vectors + points."""
    frame = (tuple(range(n + 1)), [list(v) for v in vectors + points])
    chosen = []
    for j in range(len(vectors)):
        grown = stability._pivot(frame, j)
        if grown is not None:
            frame = grown
            chosen.append(j)
    J, cols = frame
    masks = [sum(1 << i for i, x in enumerate(col) if x)
             for col in cols[len(vectors):]]
    return chosen, J, masks


def _reference_frame(vectors, points, n):
    """(independent count, J, point masks) of the one-elimination frame."""
    independent, pivots, masks = _int_frame(vectors, points, n)
    m = len(vectors)
    return independent, tuple(c - m for c in pivots if c >= m), masks


@st.composite
def _planted_supports(draw):
    """(n, up to 9 coordinate lists on P^n), n in 1..5.

    Coordinates come from a small set of rationals and +-10^30, which
    takes the scan's wedges past int64.  After the first points, some are
    planted on the line through two earlier points or on the plane
    through three, and some repeat a direction, so that many subsets
    share a flat or are dependent.
    """
    n = draw(st.integers(1, 5))
    entry = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1),
                             Fraction(2), Fraction(1, 2), Fraction(-3, 2),
                             Fraction(10 ** 30), Fraction(-10 ** 30)])
    coords = st.lists(entry, min_size=n + 1, max_size=n + 1).filter(any)
    points = draw(st.lists(coords, min_size=1, max_size=6))
    scale = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2),
                             Fraction(1, 3)])
    for _ in range(draw(st.integers(0, 9 - len(points)))):
        picks = draw(st.lists(st.integers(0, len(points) - 1),
                              min_size=1, max_size=3))
        factors = draw(st.lists(scale, min_size=len(picks),
                                max_size=len(picks)))
        planted = [sum(f * points[i][j] for f, i in zip(factors, picks))
                   for j in range(n + 1)]
        if any(planted):
            points.append(planted)
    return n, points


class TestWedgeScan:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_planted_supports(), st.data())
    def test_matches_fraction_rref_scan(self, support, data):
        # classify's scan (subsets of at most n points) and one size more
        n, points = support
        max_size = data.draw(st.sampled_from([n, n + 1]))
        got = list(stability._flat_keys(
            [stability._primitive(c) for c in points], max_size))
        want = list(reference_subsets([ProjectivePoint(c) for c in points],
                                      max_size, _fraction_span))
        assert [(idx, k) for idx, (k, _) in got] == \
            [(idx, rank) for idx, (rank, _) in want]
        # two yields share a wedge key exactly when they share a Fraction
        # RREF key: the pairing of the keys is a bijection
        wedges = [key for _, key in got]
        rrefs = [rows for _, (_, rows) in want]
        assert len(set(wedges)) == len(set(zip(wedges, rrefs))) == \
            len(set(rrefs))


_SMALL_COORD = st.integers(-2, 2)


@st.composite
def _small_cycles(draw, dims=(1, 2)):
    """P^n cycles, n in dims, with n+1 to four points."""
    n = draw(st.sampled_from(dims))
    coords = st.lists(_SMALL_COORD, min_size=n + 1, max_size=n + 1).filter(any)
    points = draw(st.lists(st.tuples(coords, st.integers(1, 2)),
                           min_size=n + 1, max_size=4))
    return normalize_cycle(Ambient.projective(n), points)


def _invariants(cycle):
    """Status, largest violating ratio and number of boundary subspaces."""
    verdict = classify(cycle)
    ratio = verdict.certificate.ratio if verdict.is_unstable else None
    return verdict.status, ratio, len(verdict.witness_ratios)


def _moved(cycle, matrix):
    return normalize_cycle(cycle.ambient, [
        ([sum(a * c for a, c in zip(row, p.coords)) for row in matrix], m)
        for p, m in cycle.points])


def _probed_mass(cycle, subspace):
    return sum(m for p, m in cycle.points if subspace.contains(p))


def _probed_status(cycle):
    """Verdict from probing every support point against every proper flat
    spanned by support points."""
    n = cycle.ambient.n
    threshold = Fraction(cycle.total_mass(), n + 1)
    ratios = set()
    for size in range(1, n + 1):
        for pts in itertools.combinations(cycle.support(), size):
            v = Subspace(pts)
            ratios.add(Fraction(_probed_mass(cycle, v), v.dim + 1))
    if max(ratios) > threshold:
        return "unstable"
    return "strictly_semistable" if threshold in ratios else "stable"


@st.composite
def _crowded_flat_cycles(draw):
    """P^n cycles, n in 1..4, from n+1 or n+2 points of mass 1.

    Small coordinates make collinear and coplanar support points common,
    and with so few points the decisive flat often holds more support
    points than a minimal spanning set.
    """
    n = draw(st.integers(1, 4))
    coords = st.lists(_SMALL_COORD, min_size=n + 1, max_size=n + 1).filter(any)
    points = draw(st.lists(st.tuples(coords, st.just(1)),
                           min_size=n + 1, max_size=n + 2))
    return normalize_cycle(Ambient.projective(n), points)


class TestFlatMasses:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_crowded_flat_cycles())
    def test_masses_match_membership_probe(self, cycle):
        verdict = classify(cycle)
        records = verdict.witness_ratios
        if verdict.is_unstable:
            records += (verdict.certificate,)
        for rec in records:
            assert rec.mass_on_v == _probed_mass(cycle, rec.subspace)
        assert verdict.status == _probed_status(cycle)


class TestInvariance:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_small_cycles())
    def test_classify_agrees_with_search(self, cycle):
        res = exhaustive_ops_search(cycle, 2)
        assert res.weight >= 0
        assert (res.weight > 0) == classify(cycle).is_unstable

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_small_cycles(), st.data())
    def test_verdict_under_integer_change_of_coordinates(self, cycle, data):
        n1 = cycle.ambient.n + 1
        row = st.lists(_SMALL_COORD, min_size=n1, max_size=n1)
        g = data.draw(st.lists(row, min_size=n1, max_size=n1).filter(
            lambda m: Matrix(m).det() != 0))
        assert _invariants(_moved(cycle, g)) == _invariants(cycle)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_small_cycles(), st.data())
    def test_verdict_under_coordinate_permutation(self, cycle, data):
        n1 = cycle.ambient.n + 1
        perm = data.draw(st.permutations(range(n1)))
        g = [[1 if j == perm[i] else 0 for j in range(n1)] for i in range(n1)]
        assert _invariants(_moved(cycle, g)) == _invariants(cycle)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_small_cycles(dims=(1, 2, 3)), st.data())
    def test_chow_weight_under_constant_shift_of_alpha(self, cycle, data):
        n1 = cycle.ambient.n + 1
        weights = data.draw(st.lists(st.integers(-3, 3), min_size=n1,
                                     max_size=n1))
        c = data.draw(st.integers(-5, 5))
        shifted = DiagonalOnePS(tuple(w + c for w in weights))
        assert chow_weight(cycle, shifted) == \
            chow_weight(cycle, DiagonalOnePS(tuple(weights)))
