"""Points, cycles, diagonal 1-PS data and limit bookkeeping."""

import random
from decimal import Decimal
from fractions import Fraction as F

import numpy as np
import pytest

from chowstab.errors import ZeroPoint
from chowstab.geometry import (Ambient, DiagonalOnePS, ProjectivePoint,
                               WeightedCycle, chow_multiplicities,
                               collision_clusters, limit_point,
                               normalize_cycle)

P2 = Ambient.projective(2)


class TestAmbient:
    def test_one_dimension(self):
        assert Ambient.projective(2) == Ambient(2)
        assert Ambient.projective(2).n == 2
        # a numpy integer is read as the Python int it holds
        n = Ambient.projective(np.int64(3)).n
        assert n == 3 and type(n) is int

    def test_validation(self):
        for n in (0, -1):
            with pytest.raises(ValueError):
                Ambient(n)

    def test_non_integer_dimension_refused(self):
        # refused when the ambient is built, not deep inside a later scan
        for n in (2.0, np.float64(2), F(2), "2", None):
            with pytest.raises(TypeError):
                Ambient.projective(n)


class TestProjectivePoint:
    def test_canonicalization_divides_by_first_nonzero(self):
        p = ProjectivePoint([0, F(2), F(4)])
        assert p.coords == (0, 1, 2)
        assert p.pivot_index == 1
        assert p.support() == (1, 2)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroPoint):
            ProjectivePoint([0, 0, 0])

    def test_equality_is_projective(self):
        assert ProjectivePoint([2, 4]) == ProjectivePoint([1, 2])
        assert ProjectivePoint([F(1, 3), 1]) == ProjectivePoint([1, 3])
        assert hash(ProjectivePoint([2, 4])) == hash(ProjectivePoint([1, 2]))

    def test_repr(self):
        assert repr(ProjectivePoint([2, 0, 4])) == "[1:0:2]"

    def test_coordinates_must_be_exact(self):
        # a float's binary value is not the decimal it was written as
        for c in (0.1, 2.0, np.float64(2), Decimal("0.1"), None):
            with pytest.raises(TypeError):
                ProjectivePoint([c, 1])
        with pytest.raises(TypeError):
            normalize_cycle(Ambient.projective(1),
                            [([0.1, 1], 1), (["1/10", 1], 1)])
        p = ProjectivePoint([np.int64(1), "1/10", F(1, 10), True])
        assert p == ProjectivePoint([10, 1, 1, 10])
        assert all(type(c.numerator) is int for c in p.coords)


class TestNormalizeCycle:
    def test_merges_scalar_multiples_and_sorts(self):
        cyc = normalize_cycle(P2, [([2, 2, 0], 1), ([1, 1, 0], 2),
                                   ([0, 1, 0], 1)])
        assert len(cyc) == 2
        assert cyc.points[0][0] == ProjectivePoint([0, 1, 0])
        assert cyc.points[1] == (ProjectivePoint([1, 1, 0]), 3)
        assert cyc.total_mass() == 4

    def test_rejects_nonpositive_multiplicity(self):
        with pytest.raises(ValueError):
            normalize_cycle(P2, [([1, 0, 0], 0)])

    def test_multiplicities_must_be_integers(self):
        # a float or a string is refused, never truncated or parsed
        for mult in (1.5, 2.0, "2", F(2)):
            with pytest.raises(TypeError):
                normalize_cycle(P2, [([1, 0, 0], mult)])
        cyc = normalize_cycle(P2, [([1, 0, 0], np.int64(2))])
        assert cyc.points[0][1] == 2 and type(cyc.points[0][1]) is int

    def test_empty_cycle(self):
        cyc = normalize_cycle(P2, [])
        assert cyc.is_empty and cyc.total_mass() == 0 and len(cyc) == 0

    def test_normalization_is_idempotent(self):
        rng = random.Random(3111)
        for _ in range(15):
            raw = [([rng.randint(-3, 3) for _ in range(3)], rng.randint(1, 3))
                   for _ in range(rng.randint(1, 5))]
            raw = [(c, m) for c, m in raw if any(c)]
            if not raw:
                continue
            c1 = normalize_cycle(P2, raw)
            c2 = normalize_cycle(P2, [(list(p.coords), m)
                                      for p, m in c1.points])
            assert c1 == c2


class TestDiagonalOnePS:
    def test_traceless_normalization(self):
        a = DiagonalOnePS((1, 1, -2))
        assert a.normalized() == (1, 1, -2)
        b = DiagonalOnePS((2, -1, -1))
        assert b.normalized() == (2, -1, -1)
        c = DiagonalOnePS((3, 0, 0))
        assert c.normalized() == (2, -1, -1)

    def test_shift_changes_weights_not_normalization(self):
        a = DiagonalOnePS((1, 0, -1))
        assert a.shifted(5).weights == (6, 5, 4)
        assert a.shifted(5).normalized() == a.normalized()

    def test_weights_must_be_integers(self):
        # a float or a string is refused, never truncated or parsed
        for ws in [(1.7, 0, -1), (1.0, 0, -1), ("1", 0, -1), (F(1), 0, -1)]:
            with pytest.raises(TypeError):
                DiagonalOnePS(ws)
        a = DiagonalOnePS(tuple(np.array([1, 0, -1])))
        assert a.weights == (1, 0, -1)
        assert all(type(w) is int for w in a.weights)

    def test_trivial(self):
        t = DiagonalOnePS.trivial(3)
        assert t.is_trivial and t.weights == (0, 0, 0)
        # constant weights act by scalars, hence trivially on the space
        assert DiagonalOnePS((1, 1, 1)).is_trivial
        assert not DiagonalOnePS((1, 0, 0)).is_trivial


class TestChowMultiplicities:
    def test_exponent_is_ambient_dim_minus_one(self):
        # n = 2: exponent 1, masses equal the multiplicities
        cyc = normalize_cycle(P2, [([1, 0, 0], 3), ([0, 1, 0], 2)])
        masses = {p: m for p, m in chow_multiplicities(cyc).points}
        assert masses[ProjectivePoint([1, 0, 0])] == 3
        assert masses[ProjectivePoint([0, 1, 0])] == 2
        # n = 3: exponent 2, masses are squared
        amb3 = Ambient.projective(3)
        cyc3 = normalize_cycle(amb3, [([1, 0, 0, 0], 3), ([0, 1, 0, 0], 2)])
        masses3 = {p: m for p, m in chow_multiplicities(cyc3).points}
        assert masses3[ProjectivePoint([1, 0, 0, 0])] == 9
        assert masses3[ProjectivePoint([0, 1, 0, 0])] == 4

    def test_p1_masses_collapse_to_one(self):
        amb = Ambient.projective(1)
        cyc = normalize_cycle(amb, [([1, 0], 5)])
        assert chow_multiplicities(cyc).points[0][1] == 1


class TestLimits:
    def test_limit_point_keeps_min_weight_stratum(self):
        a = DiagonalOnePS((0, 1, 1))
        assert limit_point(ProjectivePoint([1, 1, 0]), a) == \
            ProjectivePoint([1, 0, 0])
        assert limit_point(ProjectivePoint([0, 1, 2]), a) == \
            ProjectivePoint([0, 1, 2])

    def test_limit_point_idempotent(self):
        rng = random.Random(90125)
        for _ in range(30):
            coords = [rng.randint(-3, 3) for _ in range(3)]
            if not any(coords):
                continue
            a = DiagonalOnePS(tuple(rng.randint(-2, 2) for _ in range(3)))
            q = limit_point(ProjectivePoint(coords), a)
            assert limit_point(q, a) == q

    def test_collision_clusters(self):
        a = DiagonalOnePS((0, 1, 1))
        cyc = normalize_cycle(P2, [([1, 0, 0], 1), ([1, 1, 0], 2),
                                   ([0, 1, 2], 1)])
        clusters = collision_clusters(cyc, a)
        key1 = ProjectivePoint([1, 0, 0])
        key2 = ProjectivePoint([0, 1, 2])
        assert set(clusters) == {key1, key2}
        assert set(clusters[key1]) == {ProjectivePoint([1, 0, 0]),
                                       ProjectivePoint([1, 1, 0])}
        assert clusters[key2] == (key2,)

    def test_cluster_mass_is_preserved(self):
        rng = random.Random(5)
        for _ in range(20):
            raw = [([rng.randint(-2, 2) for _ in range(3)], rng.randint(1, 3))
                   for _ in range(rng.randint(1, 6))]
            raw = [(c, m) for c, m in raw if any(c)]
            if not raw:
                continue
            cyc = normalize_cycle(P2, raw)
            a = DiagonalOnePS(tuple(rng.randint(-2, 2) for _ in range(3)))
            clusters = collision_clusters(cyc, a)
            mult = dict(cyc.points)
            assert sum(mult[p] for ps in clusters.values() for p in ps) == \
                cyc.total_mass()
