"""Exact linear algebra, t-polynomials, flat limits, interpolation."""

import random
from fractions import Fraction as F
from math import gcd

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from chowstab import exactcore
from chowstab.errors import DependentFamily, VerificationFailed
from chowstab.exactcore import (PRIMES, PolyT, _int_array, _residues, _rref,
                                _rref_mod, _solve, graded_limit,
                                int_rank_profile, interpolate_poly,
                                limit_subspace, poly_eval, rank_kernel)
from chowstab.geometry import Ambient, DiagonalOnePS, normalize_cycle
from chowstab.hilbert import FatPointSpec, MonomialBasis, jet_vanishing_matrix
from exact_reference import (bareiss_rank_profile, fraction_rank_kernel,
                             fraction_rref, fraction_solve)
from optimized import run_optimized


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

    def test_rows_longer_than_ncols_refused(self):
        with pytest.raises(ValueError, match="do not form a 1 x 2 matrix"):
            rank_kernel([[1, 2, 3]], 2)

    def test_ragged_rows_refused(self):
        with pytest.raises(ValueError, match="do not form a 2 x 2 matrix"):
            rank_kernel([[1, 2], [3]], 2)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_fraction_reference(self, data):
        nr, nc = data.draw(st.integers(0, 5)), data.draw(st.integers(1, 7))
        rows = data.draw(_rational_matrices(nr, nc))
        rank, kernel = rank_kernel(rows, nc)
        assert (rank, kernel) == fraction_rank_kernel(rows, nc)
        assert all(type(x) is F for v in kernel for x in v)


class TestIntRref:
    def test_hand_case(self):
        rows = [[0, 2, 4, 6], [0, -3, 0, 3], [0, 1, 2, 3]]
        assert _rref(rows) == (2, [1, 2])
        assert rows == [[0, 1, 0, -1], [0, 0, 1, 2], [0, 0, 0, 0]]
        assert _rref([]) == (0, [])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_positive_primitive_multiple_of_fraction_rref(self, data):
        nr, nc = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 12))
        k = data.draw(st.integers(0, 5))
        entry = data.draw(st.sampled_from((st.integers(-4, 4),
                                           st.integers(-2 ** 70, 2 ** 70))))
        left = data.draw(_matrices(nr, k, entry))
        right = data.draw(_matrices(k, nc, entry))
        zero_rows = data.draw(st.sets(st.integers(0, nr - 1)))
        zero_cols = data.draw(st.sets(st.integers(0, nc - 1)))
        rows = [[0 if i in zero_rows or j in zero_cols else
                 sum(left[i][t] * right[t][j] for t in range(k))
                 for j in range(nc)] for i in range(nr)]
        fractions = [[F(x) for x in row] for row in rows]
        rank, pivots = _rref(rows)
        assert (rank, pivots) == fraction_rref(fractions)
        for row in rows[rank:]:
            assert not any(row)
        for row, ref, col in zip(rows, fractions, pivots):
            assert gcd(*row) == 1 and row[col] > 0
            # the Fraction row has a unit pivot, so the multiple is row[col]
            assert row == [row[col] * x for x in ref]

class TestIntRankProfile:
    def test_pivots_match_oracle(self):
        rng = random.Random(777101)
        for _ in range(40):
            nr, nc = rng.randint(1, 6), rng.randint(1, 7)
            rows = [[rng.randint(-9, 9) for _ in range(nc)]
                    for _ in range(nr)]
            sm = _sympy_matrix([[F(x) for x in row] for row in rows])
            _, spivots = sm.rref()
            rank, pivots = int_rank_profile(rows, nc)
            assert rank == sm.rank()
            assert tuple(pivots) == tuple(spivots)

    def test_rank_invariant_under_row_permutation(self):
        rng = random.Random(424242)
        for _ in range(20):
            nr, nc = rng.randint(2, 6), rng.randint(2, 6)
            rows = [[rng.randint(-5, 5) for _ in range(nc)]
                    for _ in range(nr)]
            rank, _ = int_rank_profile(rows, nc)
            shuffled = rows[:]
            rng.shuffle(shuffled)
            rank2, _ = int_rank_profile(shuffled, nc)
            assert rank == rank2

    def test_empty(self):
        assert int_rank_profile([], 5) == (0, [])

    def test_rows_left_unchanged(self):
        rows = [[2, 4, 1], [1, 2, 0], [3, 6, 1]]
        assert int_rank_profile(rows, 3) == (2, [0, 2])
        assert rows == [[2, 4, 1], [1, 2, 0], [3, 6, 1]]

    def test_entry_equal_to_the_first_prime(self):
        # zero mod PRIMES[0], so that prime sees rank 0
        assert int_rank_profile([[PRIMES[0]]], 1) == (1, [0])

    def test_both_first_primes_unlucky(self, monkeypatch):
        # determinant PRIMES[0] * PRIMES[1]: rank 1 mod either prime, and
        # the kernel vector (-1, 1) of both is zero mod both
        rows = [[1, 1], [1, 1 + PRIMES[0] * PRIMES[1]]]
        for p in PRIMES[:2]:
            a = np.array(rows, dtype=object)
            assert _rref_mod(_residues(a, p), p) == [0]
        calls = []
        monkeypatch.setattr(exactcore, "_rref",
                            lambda *args: calls.append(args))
        assert int_rank_profile(rows, 2) == (2, [0, 1])
        assert calls == []

    def test_entries_beyond_int64(self):
        big = 2 ** 62
        cases = [
            [[big - 1, 1], [1 - big, -1]],                   # int64 path
            [[big, 1, 3], [2 * big, 2, 6], [1, 0, big]],      # object path
            [[-big, 5], [3, 2 ** 120 + 7]],
            [[2 ** 90, 2 ** 91, 1], [2 ** 89, 2 ** 90, 0]],
        ]
        def dtype(rows):
            return _int_array(np.array(rows, dtype=object))[0].dtype

        assert dtype(cases[0]) == np.int64
        for rows in cases[1:]:
            assert dtype(rows) == object
        for rows in cases:
            nc = len(rows[0])
            sm = sympy.Matrix(rows)
            want = (sm.rank(), list(sm.rref()[1]))
            assert int_rank_profile(rows, nc) == want
            assert bareiss_rank_profile(rows, nc) == want

    def test_falls_back_when_the_primes_run_out(self, monkeypatch):
        rows = [[1, 1], [1, 1 + PRIMES[0] * PRIMES[1]]]
        calls = []

        def spy(work):
            calls.append([row[:] for row in work])
            return _rref(work)

        monkeypatch.setattr(exactcore, "PRIMES", (PRIMES[0],))
        monkeypatch.setattr(exactcore, "_rref", spy)
        assert int_rank_profile(rows, 2) == (2, [0, 1])
        # the fallback eliminates a copy: the caller's rows stay as they were
        assert calls == [[[1, 1], [1, 1 + PRIMES[0] * PRIMES[1]]]]
        assert rows == [[1, 1], [1, 1 + PRIMES[0] * PRIMES[1]]]

    def test_unlucky_primes_under_optimize(self):
        # no step of the certificate may be an assert statement
        script = """
            from chowstab.exactcore import PRIMES, int_rank_profile
            print(int_rank_profile([[1, 1], [1, 1 + PRIMES[0] * PRIMES[1]]],
                                   2))
            """
        assert run_optimized(script) == "(2, [0, 1])"

    def test_pivot_rows_are_zero_before_their_pivots(self):
        # the kernel blocks of int_rank_profile read RREF entries at the
        # earlier pivots only because every later pivot row is zero there
        rng = np.random.default_rng(2024)
        for p in (PRIMES[0], 7):
            for _ in range(40):
                nr, nc = rng.integers(1, 9, size=2)
                m = rng.integers(0, p, size=(nr, nc), dtype=np.int64)
                m[rng.random((nr, nc)) < 0.5] = 0
                pivots = _rref_mod(m, p)
                for i, c in enumerate(pivots):
                    assert not m[i, :c].any() and m[i, c] == 1

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            int_rank_profile([[1, 2], [3]], 2)
        with pytest.raises(ValueError):
            int_rank_profile([[1, 2]], 3)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_bareiss_on_low_rank_products(self, data):
        nr, nc = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 9))
        k = data.draw(st.integers(0, 4))
        entry = data.draw(st.sampled_from((st.integers(-4, 4),
                                           st.integers(-2 ** 70, 2 ** 70))))
        left = data.draw(_matrices(nr, k, entry))
        right = data.draw(_matrices(k, nc, entry))
        rows = [[sum(left[i][t] * right[t][j] for t in range(k))
                 for j in range(nc)] for i in range(nr)]
        _assert_profile_and_fallback(rows, nc)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_bareiss_on_sorted_jet_matrices(self, data):
        n = data.draw(st.sampled_from((2, 3)))
        coords = st.lists(st.integers(-3, 3), min_size=n + 1,
                          max_size=n + 1).filter(any)
        points = data.draw(st.lists(st.tuples(coords, st.integers(1, 2)),
                                    min_size=1, max_size=4))
        weights = data.draw(st.lists(st.integers(-2, 2), min_size=n + 1,
                                     max_size=n + 1))
        degree, r = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 2))
        cycle = normalize_cycle(Ambient.projective(n), points)
        w = MonomialBasis(n, degree).weights(DiagonalOnePS(tuple(weights)))
        order = sorted(range(len(w)), key=lambda j: (w[j], j))
        jets = jet_vanishing_matrix(FatPointSpec(cycle, degree, r))
        rows = [[row[j] for j in order] for row in jets]
        _assert_profile_and_fallback(rows, len(w))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_bareiss_with_planted_unit_rows(self, data):
        # unit rows leave before the elimination: plant them at random
        # columns, twice at one column, at columns the other rows use,
        # among zero rows, as the whole matrix, and with wide entries
        nc = data.draw(st.integers(1, 8))
        nr = data.draw(st.integers(0, 6))
        wide = st.builds(lambda x, s: s * x, st.integers(2 ** 62, 2 ** 70),
                         st.sampled_from((1, -1)))
        entry = data.draw(st.sampled_from((st.integers(-4, 4),
                                           st.one_of(st.integers(-4, 4),
                                                     wide))))
        nonzero = entry.filter(bool)
        rows = data.draw(_matrices(nr, nc, entry))
        units = data.draw(st.lists(st.tuples(st.integers(0, nc - 1),
                                             nonzero),
                                   min_size=1, max_size=nc + 2))
        if data.draw(st.booleans()):
            units.append((units[0][0], data.draw(nonzero)))
        if data.draw(st.booleans()):
            for row in rows:
                row[units[0][0]] = data.draw(nonzero)
        for c, x in units:
            rows.append([x if j == c else 0 for j in range(nc)])
        rows += [[0] * nc] * data.draw(st.integers(0, 2))
        rows = [row[:] for row in data.draw(st.permutations(rows))]
        _assert_profile_and_fallback(rows, nc)
        assert {c for c, _ in units} <= set(int_rank_profile(rows, nc)[1])

    def test_one_certificate_call_per_prime(self, monkeypatch):
        # a rank-3 product with about 300 free columns to certify, first
        # with a lucky first prime, then with PRIMES[0] making it unlucky
        rng = random.Random(20261019)
        left = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(6)]
        right = [[rng.randint(1, 5) for _ in range(300)] for _ in range(3)]
        rows = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)]
                for row in left]
        unlucky = [row[:] for row in rows]
        unlucky[5][0] += PRIMES[0]
        rounds, calls = [], []

        def rref_mod(m, p):
            rounds.append(p)
            return _rref_mod(m, p)

        def certify(a, top, pivots, pending, primes, blocks):
            calls.append(pending.size)
            return certify_all(a, top, pivots, pending, primes, blocks)

        certify_all = exactcore._certify
        monkeypatch.setattr(exactcore, "_rref_mod", rref_mod)
        monkeypatch.setattr(exactcore, "_certify", certify)
        for matrix, nprimes in ((rows, 1), (unlucky, 2)):
            rounds.clear()
            calls.clear()
            assert (int_rank_profile(matrix, 300)
                    == bareiss_rank_profile(matrix, 300))
            assert len(rounds) == len(calls) == nprimes
            assert min(calls) > 128

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_bareiss_on_wide_products_past_128_columns(self, data):
        # every entry is at least 2^62 in absolute value, so the certificate
        # runs on an object array, with more than 128 free columns pending
        nr, nc = data.draw(st.integers(2, 6)), data.draw(st.integers(130, 160))
        k = data.draw(st.integers(1, nr - 1))
        left = data.draw(_matrices(nr, k, st.integers(1, 3)))
        right = data.draw(_matrices(k, nc, st.integers(2 ** 62, 2 ** 70)))
        signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=nc,
                                   max_size=nc))
        rows = [[s * sum(x * y for x, y in zip(row, col))
                 for s, col in zip(signs, zip(*right))] for row in left]
        _assert_profile_and_fallback(rows, nc)

    def test_wide_unit_rows_leave_before_the_narrowing(self, monkeypatch):
        # the only entries beyond int64 sit in unit rows, so A' is int64
        rng = random.Random(7)
        left = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(5)]
        right = [[rng.randint(-4, 4) for _ in range(140)] for _ in range(2)]
        rows = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)]
                for row in left]
        for c, x in ((0, 2 ** 70), (7, -2 ** 63), (139, 2 ** 90 + 1)):
            rows.append([x if j == c else 0 for j in range(140)])
        seen = []

        def spy(a, top):
            seen.append((a.dtype, top))
            return certified_pivots(a, top)

        certified_pivots = exactcore._certified_pivots
        monkeypatch.setattr(exactcore, "_certified_pivots", spy)
        _assert_profile_and_fallback(rows, 140)
        assert {0, 7, 139} <= set(int_rank_profile(rows, 140)[1])
        assert seen and all(dtype == np.int64 and top < 2 ** 62
                            for dtype, top in seen)


def _assert_profile_and_fallback(rows, ncols):
    """The certified profile and its `_rref` fallback both give the
    Bareiss profile, and neither changes the rows."""
    want = bareiss_rank_profile(rows, ncols)
    copy = [row[:] for row in rows]
    assert int_rank_profile(rows, ncols) == want
    # with no primes the certified profile goes straight to the fallback
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactcore, "PRIMES", ())
        assert int_rank_profile(rows, ncols) == want
    assert rows == copy


def _matrices(nr, nc, entry):
    return st.lists(st.lists(entry, min_size=nc, max_size=nc),
                    min_size=nr, max_size=nr)


@st.composite
def _rational_matrices(draw, nr, nc):
    """Ints and Fractions with denominators up to 5 and small or 70-bit
    numerators, either drawn entry by entry or as a low-rank product, with
    some rows and columns zeroed."""
    num = draw(st.sampled_from((st.integers(-4, 4),
                                st.integers(-2 ** 70, 2 ** 70))))
    entry = st.builds(lambda a, b: a if b == 1 else F(a, b), num,
                      st.integers(1, 5))
    if draw(st.booleans()):
        rows = draw(_matrices(nr, nc, entry))
    else:
        k = draw(st.integers(0, 3))
        left = draw(_matrices(nr, k, entry))
        right = draw(_matrices(k, nc, entry))
        rows = [[sum((left[i][t] * right[t][j] for t in range(k)), F(0))
                 for j in range(nc)] for i in range(nr)]
    kind = draw(st.sampled_from(("dense", "zero row", "zero column")))
    if kind == "zero row" and nr:
        rows[draw(st.integers(0, nr - 1))] = [0] * nc
    if kind == "zero column":
        j = draw(st.integers(0, nc - 1))
        for row in rows:
            row[j] = 0
    return rows


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
            rows = [list(v) for v in vectors]
            rank, _ = fraction_rref(rows)
            return tuple(tuple(r) for r in rows[:rank])

        assert span_rref(limit_subspace(fam)) == \
            span_rref(limit_subspace(mixed))


class TestSolve:
    def test_matches_sympy(self):
        rng = random.Random(5140)
        for n in range(1, 6):
            while True:
                a = [[_rand_fraction(rng, -4, 4, 3) for _ in range(n)]
                     for _ in range(n)]
                if _sympy_matrix(a).det() != 0:
                    break
            for _ in range(4):
                b = [_rand_fraction(rng, -4, 4, 3) for _ in range(n)]
                x = _solve(a, b)
                assert (_sympy_matrix([[v] for v in x])
                        == _sympy_matrix(a).LUsolve(
                            _sympy_matrix([[v] for v in b])))

    def test_singular_matrix_raises(self):
        a = [[F(1), F(2)], [F(2), F(4)]]
        for b in ([F(1), F(2)], [F(1), F(0)]):
            with pytest.raises(ValueError):
                _solve(a, b)

    def test_non_square_matrix_raises(self):
        with pytest.raises(ValueError, match="coefficient rows"):
            _solve([[F(1), F(2)]], [F(1)])

    def test_short_right_hand_side_raises(self):
        with pytest.raises(ValueError, match="right-hand side"):
            _solve([[F(1), F(0)], [F(0), F(1)]], [F(1)])

    def test_long_right_hand_side_raises(self):
        with pytest.raises(ValueError, match="right-hand side"):
            _solve([[F(1), F(0)], [F(0), F(1)]], [F(1), F(2), F(3)])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_fraction_reference(self, data):
        n = data.draw(st.integers(1, 5))
        a = data.draw(_rational_matrices(n, n))
        b = data.draw(_rational_matrices(1, n))[0]
        try:
            want = fraction_solve(a, b)
        except ValueError:
            # singular systems raise on both sides
            with pytest.raises(ValueError, match="singular system"):
                _solve(a, b)
            return
        got = _solve(a, b)
        assert got == want
        assert all(type(x) is F for x in got)


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
