"""Exact linear algebra, t-polynomials, flat limits, interpolation."""

import random
from fractions import Fraction as F

import pytest
import sympy

from chowstab.errors import DependentFamily, VerificationFailed
from chowstab.exactcore import (PolyT, graded_limit, int_rank_profile,
                                interpolate_poly, limit_subspace, poly_eval,
                                rank_kernel)


def _rand_fraction(rng, lo=-9, hi=9, den=6):
    return F(rng.randint(lo, hi), rng.randint(1, den))


def _sympy_matrix(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in row] for row in rows])


class TestPolyT:
    def test_trailing_zeros_stripped(self):
        assert PolyT((1, 2, 0, 0)).coeffs == (1, 2)
        assert PolyT((0, 0)).is_zero
        assert PolyT().degree == -1

    def test_constructors(self):
        assert PolyT.const(F(3, 2)).coeffs == (F(3, 2),)
        assert PolyT.t_power(2, 5).coeffs == (0, 0, 5)
        with pytest.raises(ValueError):
            PolyT.t_power(-1)

    def test_arithmetic(self):
        p = PolyT((1, 2))       # 1 + 2t
        q = PolyT((0, 1, 1))    # t + t^2
        assert (p + q).coeffs == (1, 3, 1)
        assert (p - p).is_zero
        assert (p * q).coeffs == (0, 1, 3, 2)
        assert (3 * p).coeffs == (3, 6)
        assert (p ** 2).coeffs == (1, 4, 4)
        assert p(F(1, 2)) == 2

    def test_valuation_and_exact_division(self):
        p = PolyT((0, 0, 3, 1))
        assert p.valuation() == 2
        assert p.div_t_power(2).coeffs == (3, 1)
        assert PolyT().valuation() is None
        with pytest.raises(ValueError):
            PolyT((1, 1)).div_t_power(1)


class TestRankKernel:
    def test_hand_case(self):
        m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
        rank, kernel = rank_kernel(m, 3)
        assert rank == 2
        assert len(kernel) == 1
        v = kernel[0]
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) == 0

    def test_zero_and_full_rank(self):
        rank, kernel = rank_kernel([[0, 0], [0, 0]], 2)
        assert rank == 0 and len(kernel) == 2
        rank, kernel = rank_kernel([[1, 0], [0, 1]], 2)
        assert rank == 2 and kernel == []

    def test_matches_independent_oracle_on_random_matrices(self):
        rng = random.Random(20250811)
        for _ in range(40):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[_rand_fraction(rng) for _ in range(nc)]
                    for _ in range(nr)]
            rank, kernel = rank_kernel(rows, nc)
            sm = _sympy_matrix(rows)
            assert rank == sm.rank()
            assert len(kernel) == nc - rank
            for v in kernel:
                for row in rows:
                    assert sum(a * b for a, b in zip(row, v)) == 0
            if kernel:
                krank, _ = rank_kernel(kernel, nc)
                assert krank == len(kernel)

    def test_kernel_is_canonical(self):
        rows = [[1, 1, 0], [0, 0, 1]]
        _, k1 = rank_kernel(rows, 3)
        _, k2 = rank_kernel(rows, 3)
        assert k1 == k2 == [(F(-1), F(1), F(0))]


class TestIntRankProfile:
    def test_pivots_match_oracle(self):
        rng = random.Random(777101)
        for _ in range(40):
            nr, nc = rng.randint(1, 6), rng.randint(1, 7)
            rows = [[rng.randint(-9, 9) for _ in range(nc)]
                    for _ in range(nr)]
            sm = _sympy_matrix([[F(x) for x in row] for row in rows])
            _, spivots = sm.rref()
            rank, pivots = int_rank_profile([row[:] for row in rows], nc)
            assert rank == sm.rank()
            assert tuple(pivots) == tuple(spivots)

    def test_rank_invariant_under_row_permutation(self):
        rng = random.Random(424242)
        for _ in range(20):
            nr, nc = rng.randint(2, 6), rng.randint(2, 6)
            rows = [[rng.randint(-5, 5) for _ in range(nc)]
                    for _ in range(nr)]
            rank, _ = int_rank_profile([r[:] for r in rows], nc)
            shuffled = rows[:]
            rng.shuffle(shuffled)
            rank2, _ = int_rank_profile([r[:] for r in shuffled], nc)
            assert rank == rank2

    def test_empty(self):
        assert int_rank_profile([], 5) == (0, [])


class TestGradedLimit:
    def test_hand_case(self):
        # kernel of x0 - x1 + x2 under weights (0, 1, 1): the limit keeps
        # the weight-1 parts (1, 1, 0) -> (0, 1, 0) and (-1, 0, 1) ->
        # (0, 0, 1), so the whole weight-1 block
        rows = [[1, -1, 1]]
        rank, graded, basis = graded_limit(rows, [0, 1, 1], want_basis=True)
        assert rows == [[1, -1, 1]]
        assert rank == 1 and graded == {1: 2}
        assert basis == [(F(0), F(1), F(0)), (F(0), F(0), F(1))]
        assert graded_limit(rows, [0, 1, 1]) == (1, {1: 2}, None)
        assert rows == [[1, -1, 1]]

    def test_rank_profile_form_matches_basis_form(self):
        rng = random.Random(31337)
        for _ in range(30):
            nr, nc = rng.randint(0, 5), rng.randint(1, 7)
            rows = [[rng.randint(-3, 3) for _ in range(nc)]
                    for _ in range(nr)]
            weights = [rng.randint(-2, 2) for _ in range(nc)]
            rank, graded, basis = graded_limit(rows, weights, True)
            assert graded_limit(rows, weights) == (rank, graded, None)
            assert len(basis) == nc - rank == sum(graded.values())
            for v in basis:
                assert len({weights[j] for j, x in enumerate(v) if x}) == 1
            if basis:
                assert rank_kernel(basis, nc)[0] == len(basis)


class TestLimitSubspace:
    def test_constant_family_is_its_own_limit(self):
        fam = [(PolyT.const(1), PolyT.const(2)),
               (PolyT.const(0), PolyT.const(1))]
        lim = limit_subspace(fam)
        assert lim == [(F(1), F(2)), (F(0), F(1))]

    def test_single_vector_keeps_low_order_part(self):
        lim = limit_subspace([(PolyT.const(1), PolyT.t_power(1))])
        assert lim == [(F(1), F(0))]

    def test_reduction_extracts_second_direction(self):
        # span{(1, t), (1, 2t)} at t=0: naive evaluations collapse to one
        # line, the exact limit is the whole plane
        fam = [(PolyT.const(1), PolyT.t_power(1)),
               (PolyT.const(1), PolyT.t_power(1, 2))]
        lim = limit_subspace(fam)
        rank, _ = rank_kernel(lim, 2)
        assert len(lim) == 2 and rank == 2

    def test_dependent_input_raises(self):
        v = (PolyT.const(1), PolyT.t_power(1))
        with pytest.raises(DependentFamily):
            limit_subspace([v, v])
        with pytest.raises(DependentFamily):
            limit_subspace([v, (2 * PolyT.const(1), PolyT.t_power(1, 2))])

    def test_dimension_preserved_on_random_unimodular_families(self):
        rng = random.Random(99020)
        for _ in range(25):
            m = rng.randint(2, 5)
            d = rng.randint(1, m)
            # start from random independent constant rows
            while True:
                rows = [[_rand_fraction(rng, -4, 4, 3) for _ in range(m)]
                        for _ in range(d)]
                rank, _ = rank_kernel(rows, m)
                if rank == d:
                    break
            fam = [[PolyT.const(x) for x in row] for row in rows]
            # mix in t-multiples of other family members: invertible over Q(t)
            for _ in range(rng.randint(1, 4)):
                i, j = rng.randrange(d), rng.randrange(d)
                if i == j:
                    continue
                k = rng.randint(1, 3)
                fam[i] = [a + PolyT.t_power(k) * b
                          for a, b in zip(fam[i], fam[j])]
            lim = limit_subspace(fam)
            rank, _ = rank_kernel(lim, m)
            assert len(lim) == d and rank == d

    def test_limit_span_invariant_under_constant_mixing(self):
        fam = [(PolyT.const(1), PolyT.t_power(1), PolyT.const(0)),
               (PolyT.const(1), PolyT.t_power(1, 2), PolyT.t_power(2))]
        mixed = [tuple(a + b for a, b in zip(*fam)),
                 tuple(3 * b for b in fam[1])]

        def span_rref(vectors):
            from chowstab.exactcore import _rref
            rows = [list(v) for v in vectors]
            rank, _ = _rref(rows)
            return tuple(tuple(r) for r in rows[:rank])

        assert span_rref(limit_subspace(fam)) == \
            span_rref(limit_subspace(mixed))


class TestInterpolatePoly:
    def test_roundtrip_random_polynomials(self):
        rng = random.Random(5150)
        for _ in range(25):
            deg = rng.randint(0, 4)
            coeffs = [_rand_fraction(rng, -6, 6, 4) for _ in range(deg + 1)]
            xs = rng.sample(range(-8, 9), deg + 3)
            pts = [(F(x), poly_eval(coeffs, x)) for x in xs]
            got = interpolate_poly(pts[:deg + 1], deg, pts[deg + 1:])
            assert got == coeffs

    def test_corrupted_holdout_raises(self):
        coeffs = [F(1), F(2)]
        pts = [(F(x), poly_eval(coeffs, x)) for x in (0, 1, 2)]
        bad = [(pts[2][0], pts[2][1] + 1)]
        with pytest.raises(VerificationFailed):
            interpolate_poly(pts[:2], 1, bad)

    def test_input_validation(self):
        pts = [(F(0), F(0)), (F(1), F(1)), (F(2), F(2))]
        with pytest.raises(ValueError):
            interpolate_poly(pts, 1, [(F(3), F(3))])     # too many samples
        with pytest.raises(ValueError):
            interpolate_poly(pts[:2], 1, [])             # no verification
        dup = [(F(1), F(1)), (F(1), F(1))]
        with pytest.raises(ValueError):
            interpolate_poly(dup, 1, [(F(2), F(2))])
