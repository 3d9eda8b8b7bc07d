"""Exact dense linear algebra over Q and over the polynomial ring Q[t].

One exact row reduction serves the package: `_rref`, a fraction-free
Gauss-Jordan elimination over Z.  Rational rows enter it as primitive
integer vectors (`_primitive`), and `rank_kernel`, `_solve`, the stability
layer and the fallback of the certified rank profile all run on it.

`graded_limit` computes every weight-graded flat limit the package needs.
The Q[t] part (PolyT and limit_subspace) computes the same limits by
another route and is kept only as the reference the tests compare against.
Everything here is done with exact integers and `fractions.Fraction`, with
one exception: the certified rank profile (`int_rank_profile`) multiplies
residue matrices mod a prime in `_mulmod` through float64 matrix products.
There every entry is split into 16-bit pieces, so every value the float
products hold is an integer below 2^53, which float64 represents exactly;
the results are converted back to int64 residues.  Matrices are dense,
which is all the rest of the package needs (a few thousand columns at
most).

Before that elimination, `int_rank_profile` pins unit rows, rows with one
nonzero entry, together with their columns, so every jet row at a
coordinate point leaves.  Only what is left, A', is bounded, narrowed to
int64, eliminated mod p and certified; the check reads A' once per check
prime for each prime, _ROWS rows at a time, which bounds its memory.
`_full_row_rank` pins unit rows the same way and eliminates the rest mod
one prime: full rank there is full rank over Q, which is all the split
route of the central fibre (testconfig) needs to certify a sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DependentFamily, VerificationFailed

__all__ = [
    "PolyT",
    "rank_kernel",
    "graded_limit",
    "limit_subspace",
    "interpolate_poly",
    "poly_eval",
    "int_rank_profile",
]


def _rat(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


# ---------------------------------------------------------------------------
# polynomials in the degeneration parameter t


@dataclass(frozen=True)
class PolyT:
    """A polynomial in t with rational coefficients, lowest power first.

    The coefficient tuple never has trailing zeros, so equality of values
    coincides with structural equality.
    """

    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self):
        c = tuple(_rat(x) for x in self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def const(cls, value) -> "PolyT":
        return cls((_rat(value),))

    @classmethod
    def t_power(cls, k: int, scale=1) -> "PolyT":
        """scale * t**k"""
        if k < 0:
            raise ValueError("negative power of t")
        return cls((Fraction(0),) * k + (_rat(scale),))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree in t; the zero polynomial gets -1."""
        return len(self.coeffs) - 1

    def valuation(self) -> Optional[int]:
        """Largest k with t**k dividing self, None for the zero polynomial."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return None

    def div_t_power(self, k: int) -> "PolyT":
        """Exact division by t**k."""
        if k == 0:
            return self
        if self.is_zero:
            return self
        if any(c != 0 for c in self.coeffs[:k]):
            raise ValueError("division by t**%d is not exact" % k)
        return PolyT(self.coeffs[k:])

    def __call__(self, t) -> Fraction:
        return poly_eval(self.coeffs, t)

    def __add__(self, other: "PolyT") -> "PolyT":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return PolyT(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def __neg__(self) -> "PolyT":
        return PolyT(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "PolyT") -> "PolyT":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, PolyT):
            s = _rat(other)
            return PolyT(tuple(c * s for c in self.coeffs))
        if self.is_zero or other.is_zero:
            return PolyT()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b != 0:
                    out[i + j] += a * b
        return PolyT(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "PolyT":
        if k < 0:
            raise ValueError("negative power")
        out = PolyT.const(1)
        for _ in range(k):
            out = out * self
        return out

    def __repr__(self):
        if self.is_zero:
            return "PolyT(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{i}")
        return "PolyT(" + " + ".join(parts) + ")"


# ---------------------------------------------------------------------------
# rational matrices


def _primitive(row: Sequence) -> list[int]:
    """A row of ints or Fractions as a primitive integer vector.

    Clearing denominators and dividing by the content multiply the row by
    a positive rational, so its span, its zero pattern and the ratios of
    its entries are unchanged.  A zero row stays zero.
    """
    den = lcm(*(x.denominator for x in row))
    v = [x.numerator * (den // x.denominator) for x in row]
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _check_shape(rows: Sequence[Sequence], ncols: int, what: str) -> None:
    if any(len(row) != ncols for row in rows):
        raise ValueError(f"{what} do not form a {len(rows)} x {ncols} matrix")


def _rref(rows: list[list[int]]) -> tuple[int, list[int]]:
    """In-place fraction-free reduced row echelon form over Z.

    Gauss-Jordan elimination without division: a row is reduced by
    pivot * row - entry * pivot_row, then divided by the gcd of its
    entries.  Every nonzero row ends primitive with a positive pivot, so
    it is the unique positive multiple with content 1 of the reduced row
    echelon form over Q: the rank, the pivots and the zero pattern of
    every column are the same, each rational RREF entry is an entry over
    its row's pivot, and the rows are canonical for the row space.
    Returns (rank, pivot columns).
    """
    if not rows:
        return 0, []
    ncols = len(rows[0])
    rank = 0
    pivots = []
    for col in range(ncols):
        pr = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pr = r
                break
        if pr is None:
            continue
        prow = rows[pr]
        g = gcd(*prow)
        if prow[col] < 0:
            g = -g
        if g != 1:
            prow = [x // g for x in prow]
        rows[pr] = rows[rank]
        rows[rank] = prow
        p = prow[col]
        for r in range(len(rows)):
            f = rows[r][col]
            if r != rank and f != 0:
                # p > 0 keeps the sign of every earlier pivot in row r
                row = [p * a - f * b for a, b in zip(rows[r], prow)]
                g = gcd(*row)
                rows[r] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rank, pivots


def rank_kernel(rows: Sequence[Sequence], ncols: int
                ) -> tuple[int, list[tuple[Fraction, ...]]]:
    """Rank and a deterministic kernel basis of a rational matrix.

    Entries may be ints or Fractions.  Each kernel vector has entry 1 at
    one free column of the reduced row echelon form and is zero after it,
    so the output is canonical for a given input.
    """
    _check_shape(rows, ncols, "rows")
    work = [_primitive(row) for row in rows]
    rank, pivots = _rref(work)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(work, pivots):
            v[p] = Fraction(-row[f], row[p])
        basis.append(tuple(v))
    return rank, basis


def _solve(a_rows: Sequence[Sequence[Fraction]],
           b: Sequence[Fraction]) -> list[Fraction]:
    """Solve the square system A x = b.

    ValueError when A is not square or singular, or b has the wrong length.
    """
    n = len(a_rows)
    _check_shape(a_rows, n, "coefficient rows")
    _check_shape([b], n, "right-hand side entries")
    aug = [_primitive(list(row) + [_rat(b[i])])
           for i, row in enumerate(a_rows)]
    rank, pivots = _rref(aug)
    if rank < n or any(p >= n for p in pivots):
        raise ValueError("singular system")
    return [Fraction(row[n], row[i]) for i, row in enumerate(aug)]


# The 32 largest primes below 2^31.  Residues stay below 2^31, so the
# product of two of them fits in int64.
PRIMES = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549,
    2147483543, 2147483497, 2147483489, 2147483477, 2147483423, 2147483399,
    2147483353, 2147483323, 2147483269, 2147483249, 2147483237, 2147483179,
    2147483171, 2147483137, 2147483123, 2147483077, 2147483069, 2147483059,
    2147483053, 2147483033, 2147483029, 2147482951, 2147482949, 2147482943,
    2147482937, 2147482921)

_WIDE = 1 << 62     # entries at or above this stay Python ints
_PIECE = 1 << 16    # _mulmod splits residues into pieces below this
_ROWS = 64          # rows of the matrix checked together


def int_rank_profile(rows: Sequence[Sequence[int]], ncols: int
                     ) -> tuple[int, list[int]]:
    """Rank and pivot columns of an integer matrix, certified exact.

    The pivot columns are the lexicographically first independent ones,
    the same as in the reduced row echelon form over Q.  `rows` holds
    Python ints, as lists or as an object array, and is left unchanged.

    Unit rows leave first.  A row with exactly one nonzero entry, at column
    c, makes c a pivot in every column order: no other column is nonzero
    in that row, so c is not in the span of the others.  The same row
    forces the coefficient of c to 0 in every column relation, so the
    relations of A are those of A', the matrix without the unit rows and
    without the pinned columns C.  Hence rank(A) = |C| + rank(A'), and
    the pivots of A are C together with the pivots of A' at their own
    columns.  Duplicate unit rows at one column pin it once; zero rows are
    not unit rows.  The pinning reads only the zero pattern; only A' is
    bounded, narrowed (`_int_array`), eliminated and certified.

    Each prime p of PRIMES gives a profile by Gauss-Jordan elimination mod
    p.  A pivot minor that is nonzero mod p is nonzero over Z, so every
    prefix rank mod p is a lower bound for the prefix rank over Q.  The
    profile is certified when every nonzero free column f, up to the
    column where the prefix rank reaches the number of rows, carries an
    integer kernel vector w with w_f != 0 and every other nonzero entry at
    an earlier pivot, and A' w = 0 is checked exactly (`_certify`, once per
    prime, on every free column still pending): then column f is in the
    span of the earlier pivot columns, so no prefix rank over Q exceeds
    the one mod p.  A reconstruction or check that fails adds the next
    prime; a prime whose profile some prefix rank shows to be smaller is
    unlucky and dropped.  When PRIMES runs out, `_rref` over Z decides, on
    a copy of A'.
    """
    if not len(rows) or not ncols:
        return 0, []
    a = np.asarray(rows, dtype=object)
    if a.shape != (len(rows), ncols):
        raise ValueError(f"rows do not form a {len(rows)} x {ncols} matrix")
    nz, unit, pinned = _unit_rows(a)
    # zero columns are free and need no certificate
    live = np.flatnonzero(nz[~unit].any(axis=0) & ~pinned)
    del nz
    a, top = _int_array(a[np.ix_(~unit, live)])
    piv = _certified_pivots(a, top) if a.size else []
    if piv is None:
        piv = _rref(a.tolist())[1]
    pivots = sorted(np.flatnonzero(pinned).tolist() + live[piv].tolist())
    return len(pivots), pivots


def _unit_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The zero pattern of a matrix, its unit rows (one nonzero entry each)
    and the columns those rows pin."""
    nz = a != 0
    unit = np.count_nonzero(nz, axis=1) == 1
    return nz, unit, nz[unit].any(axis=0)


def _full_row_rank(rows: np.ndarray) -> bool:
    """Whether an integer matrix has full row rank, decided mod one prime.

    `rows` is an object array of Python ints.  Unit rows are pinned as in
    `int_rank_profile`: the matrix has full row rank exactly when no two
    unit rows share their column and A', the rest of the rows without the
    pinned columns, has full row rank.  A' is eliminated mod PRIMES[0].
    Full rank mod p means a maximal minor that is nonzero mod p, hence
    nonzero over Z, so True is exact; False may come from an unlucky
    prime, and callers read it as "not shown".
    """
    _, unit, pinned = _unit_rows(rows)
    if np.count_nonzero(pinned) < np.count_nonzero(unit):
        return False
    rest = rows[np.ix_(~unit, ~pinned)]
    p = PRIMES[0]
    return len(_rref_mod(_residues(rest, p), p)) == rest.shape[0]


def _certified_pivots(a: np.ndarray, top: int) -> Optional[list[int]]:
    """The certified pivot columns of a matrix with no zero column and
    largest absolute entry top, or None when PRIMES runs out."""
    nrows, ncols = a.shape
    pivots = None
    for p in PRIMES:
        ech = _residues(a, p)
        piv = _rref_mod(ech, p)
        if piv != pivots:
            if pivots is not None and not _dominates(piv, pivots):
                continue
            pivots, primes, blocks = piv, [], []
            end = piv[-1] if len(piv) == nrows else ncols
            free = np.ones(ncols, dtype=bool)
            free[piv] = False
            pending = np.flatnonzero(free[:end])
        if pending.size:
            # the kernel vector of free column f: unit at f, minus the RREF
            # entries of column f at the earlier pivots
            blocks.append(ech[:len(pivots), pending].astype(np.int32))
            del ech
            primes.append(p)
            ok = _certify(a, top, pivots, pending, primes, blocks)
            pending = pending[~ok]
            blocks = [b[:, ~ok] for b in blocks]
        if not pending.size:
            return pivots
    return None


def _int_array(a: np.ndarray) -> tuple[np.ndarray, int]:
    """An object array of Python ints, narrowed to int64 when every entry
    is below 2^62 in absolute value; and the largest absolute entry."""
    top = max(a.max(), -a.min()) if a.size else 0
    return (a.astype(np.int64) if top < _WIDE else a), top


def _residues(a: np.ndarray, p: int) -> np.ndarray:
    """Entries of an int64 or object array mod p, as int64 in [0, p)."""
    return (a % p).astype(np.int64, copy=False)


def _rref_mod(m: np.ndarray, p: int) -> list[int]:
    """In-place Gauss-Jordan elimination of a residue matrix mod p.

    Returns the pivot columns; the first len(pivots) rows of m become the
    nonzero rows of the reduced row echelon form mod p.
    """
    nrows, ncols = m.shape
    pivots: list[int] = []
    col = 0
    while len(pivots) < nrows and col < ncols:
        rank = len(pivots)
        nz = np.flatnonzero(m[rank:, col])
        if not nz.size:
            live = np.flatnonzero(m[rank:, col:].any(axis=0))
            if not live.size:
                break
            col += int(live[0])
            nz = np.flatnonzero(m[rank:, col])
        pr = rank + int(nz[0])
        if pr != rank:
            m[[rank, pr]] = m[[pr, rank]]
        m[rank, col:] = m[rank, col:] * pow(int(m[rank, col]), -1, p) % p
        f = m[:, col].copy()
        f[rank] = 0
        hit = np.flatnonzero(f)
        if hit.size:
            m[hit, col:] = (m[hit, col:] - f[hit, None] * m[rank, col:]) % p
        pivots.append(col)
        col += 1
    return pivots


def _dominates(new: list[int], old: list[int]) -> bool:
    """Every prefix rank of the profile `new` is at least that of `old`."""
    return len(new) >= len(old) and all(x <= y for x, y in zip(new, old))


def _certify(a: np.ndarray, top: int, pivots: list[int],
             pending: np.ndarray, primes: list[int], blocks: list[np.ndarray]
             ) -> np.ndarray:
    """Which pending free columns have a verified integer kernel vector.

    blocks[k] holds mod primes[k] the RREF entries x of the pending columns
    at the earlier pivots.  For column f with denominator d the candidate
    is w = d e_f - sum_i y_i e_pivots[i], y = d x lifted from the residues
    (`_reconstruct`).  Every entry of A w is an integer of absolute value at
    most top * |w|_1, so A w = 0 as soon as it vanishes mod primes whose
    product exceeds twice that bound.  One call checks every pending column,
    reading A once per check prime in blocks of _ROWS rows, which bound its
    temporaries.
    """
    nonzero = np.logical_or.reduce([x != 0 for x in blocks])
    col, row = np.nonzero(nonzero.T)
    vals, m = _crt([x[row, col] for x in blocks], primes)
    d, y = _reconstruct(vals, col, pending.size, m)
    ok = d != 0
    if not ok.any():
        return ok
    norm = d.copy()
    if col.size:
        starts = np.flatnonzero(np.r_[True, col[1:] != col[:-1]])
        norm[col[starts]] += np.add.reduceat(np.abs(y), starts)
    bound = 2 * top * int(norm[ok].max())
    checks, prod = [], 1
    for q in PRIMES:
        if prod > bound:
            break
        checks.append(q)
        prod *= q
    if prod <= bound:
        return np.zeros_like(ok)
    for q in checks:
        dq = _residues(d, q)
        # the candidates' residues as the float64 pieces of `_pieces`
        yq = np.zeros((2, len(pivots), pending.size))
        yq[:, row, col] = np.divmod(_residues(-y, q), _PIECE)
        for s in range(0, a.shape[0], _ROWS):
            aw = _residues(a[s:s + _ROWS, pending], q) * dq % q
            aw += _mulmod(_pieces(_residues(a[s:s + _ROWS, pivots], q)), yq, q)
            ok &= ~(aw % q).any(axis=0)
    return ok


def _crt(residues: list[np.ndarray], primes: list[int]
         ) -> tuple[np.ndarray, int]:
    """Values mod the product of distinct primes from their residues; int64
    for one prime, Python ints for more."""
    v, m = residues[0].astype(np.int64), primes[0]
    if len(primes) > 1:
        v = v.astype(object)
    for r, p in zip(residues[1:], primes[1:]):
        t = (r - _residues(v, p)) * pow(m, -1, p) % p
        v, m = v + m * t.astype(object), m * p
    return v, m


def _reconstruct(vals: np.ndarray, col: np.ndarray, ncol: int, m: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Common denominators of the columns of a sparse matrix mod m.

    vals[k] is the entry mod m in column col[k], col ascending.  Returns d
    and y: for each column c either d[c] = 0 (nothing found at this m), or
    0 < d[c] <= b, b = isqrt(m // 2), and every y[k] with col[k] = c is
    d[c] * vals[k] mod m in the symmetric range with |y[k]| <= b.  Each
    round takes one entry that is still too large per column and
    multiplies d[c] by the denominator of its rational reconstruction.
    vals is int64 when m is a single prime: then every product stays below
    2^31 * b < 2^47.
    """
    half = m // 2
    bound = isqrt(half)
    d = np.ones(ncol, dtype=vals.dtype)
    y = np.where(vals > half, vals - m, vals)
    idx = np.arange(vals.size)
    while idx.size:
        big = idx[np.abs(y[idx]) > bound]
        if not big.size:
            break
        # col is ascending: the first large entry of each column
        first = big[np.r_[True, col[big[1:]] != col[big[:-1]]]]
        for c, k in zip(col[first].tolist(), first.tolist()):
            b = _denominator(int(y[k]) % m, m, bound)
            d[c] = 0 if b is None or d[c] * b > bound else d[c] * b
        redo = np.zeros(ncol, dtype=bool)
        redo[col[first]] = True
        idx = np.flatnonzero(redo[col])
        yi = vals[idx] * d[col[idx]] % m
        y[idx] = np.where(yi > half, yi - m, yi)
    return d, y


def _denominator(u: int, m: int, bound: int) -> Optional[int]:
    """The denominator b <= bound of a fraction a/b = u mod m with |a| <=
    bound, by the extended Euclidean algorithm; None if there is none."""
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return abs(t1) if abs(t1) <= bound else None


def _pieces(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A residue matrix as float64 pieces hi, lo with x = hi * 2^16 + lo."""
    hi, lo = np.divmod(x, _PIECE)
    return hi.astype(np.float64), lo.astype(np.float64)


def _mulmod(a: tuple[np.ndarray, np.ndarray],
            b: tuple[np.ndarray, np.ndarray], p: int) -> np.ndarray:
    """a @ b mod p for residue matrices given as `_pieces`.

    Residues are below 2^31, so every piece product is below 2^32 and,
    with an inner dimension below 2^21, every inner product is an integer
    below 2^53, which float64 represents and sums exactly.
    """
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    if a_hi.shape[1] >= 1 << 21:
        raise ValueError("inner dimension too large for exact float64 sums")
    hh = (a_hi @ b_hi).astype(np.int64) % p
    mid = (a_hi @ b_lo + a_lo @ b_hi).astype(np.int64)
    lo = (a_lo @ b_lo).astype(np.int64)
    return ((hh * _PIECE + mid) % p * _PIECE + lo) % p


# ---------------------------------------------------------------------------
# the weight-graded flat limit of a kernel


def graded_limit(rows: Sequence[Sequence[int]], weights: Sequence[int],
                 want_basis: bool = False
                 ) -> tuple[int, dict[int, int],
                            Optional[list[tuple[Fraction, ...]]]]:
    """Flat limit at t=0 of the kernel of an integer matrix graded by weight.

    Column j carries weight weights[j], and a kernel vector v moves to the
    family whose j-th coefficient is t**(top(v) - weights[j]) v_j, so the
    limit keeps the top-weight part of every kernel vector.  With columns
    sorted by ascending (weight, index), the kernel vector of a free column
    f has its unit entry at f and every other nonzero entry at an earlier
    pivot, of weight at most w(f).  Its top-weight part is its entries of
    weight w(f).  These parts are independent, since each is the only one
    that is nonzero at its own free column, so they span the limit, whose
    dimension in weight c is the number of free columns of weight c.

    Returns (rank, {weight: dim}, basis).  With want_basis the basis of
    top-weight parts is returned in the original column order, from the
    exact kernel of `rank_kernel`; otherwise only the certified rank
    profile (`int_rank_profile`) is taken and the basis is None.  `rows`
    is left unchanged.
    """
    ncols = len(weights)
    order = sorted(range(ncols), key=lambda j: (weights[j], j))
    sorted_w = [weights[j] for j in order]
    a = np.asarray(rows, dtype=object).reshape(len(rows), ncols)
    sorted_rows = a[:, order]
    if want_basis:
        rank, kernel = rank_kernel(sorted_rows, ncols)
        free = [max(j for j, x in enumerate(v) if x) for v in kernel]
    else:
        rank, pivots = int_rank_profile(sorted_rows, ncols)
        pivot_set = set(pivots)
        free = [j for j in range(ncols) if j not in pivot_set]
    graded: dict[int, int] = {}
    for f in free:
        graded[sorted_w[f]] = graded.get(sorted_w[f], 0) + 1
    if not want_basis:
        return rank, graded, None
    basis = []
    for f, v in zip(free, kernel):
        top = [Fraction(0)] * ncols
        for j, x in enumerate(v):
            if x and sorted_w[j] == sorted_w[f]:
                top[order[j]] = x
        basis.append(tuple(top))
    return rank, graded, basis


# ---------------------------------------------------------------------------
# flat limits of t-families of subspaces
#
# limit_subspace and PolyT are the independent reference that the tests
# compare graded_limit against; no production path calls them.


def _vector_order(v: Sequence[PolyT]) -> int:
    return max((p.degree for p in v), default=-1)


def limit_subspace(basis: Sequence[Sequence[PolyT]]
                   ) -> list[tuple[Fraction, ...]]:
    """Flat limit at t=0 of the span of polynomial vectors over Q(t).

    Repeatedly evaluates the working basis at t=0; while the evaluations are
    dependent, a dependency relation c is formed, the combination
    sum(c_i v_i(t)) is divided by the largest exact power of t, and the
    result replaces the participating vector of highest t-degree (ties go to
    the lowest index).  The number of passes is bounded by
    D * (max t-degree) * M; exceeding the bound means the input vectors were
    dependent for generic t.
    """
    work = [list(v) for v in basis]
    d = len(work)
    if d == 0:
        return []
    m = len(work[0])
    if any(len(v) != m for v in work):
        raise ValueError("vectors of unequal length")
    if d > m:
        raise DependentFamily("more vectors than ambient dimension")
    max_deg = max((_vector_order(v) for v in work), default=0)
    bound = d * max(max_deg, 1) * m + d + 1
    for _ in range(bound):
        evals = [[p(0) for p in v] for v in work]
        rank, relations = rank_kernel(list(zip(*evals)), d)
        if rank == d:
            return [tuple(row) for row in evals]
        c = relations[0]
        comb = [PolyT()] * m
        for i, ci in enumerate(c):
            if ci != 0:
                comb = [acc + ci * p for acc, p in zip(comb, work[i])]
        vals = [p.valuation() for p in comb if not p.is_zero]
        if not vals:
            raise DependentFamily("relation holds identically in t")
        nu = min(vals)
        if nu < 1:
            raise VerificationFailed("dependency relation does not vanish "
                                     "at t=0")
        reduced = [p.div_t_power(nu) for p in comb]
        participants = [i for i, ci in enumerate(c) if ci != 0]
        j = max(participants, key=lambda i: (_vector_order(work[i]), -i))
        work[j] = reduced
    raise DependentFamily("no flat limit: input dependent for generic t")


# ---------------------------------------------------------------------------
# exact interpolation with held-out verification


def poly_eval(coeffs: Sequence[Fraction], x) -> Fraction:
    """Evaluate a coefficient list (lowest power first) at a rational x."""
    x = _rat(x)
    acc = Fraction(0)
    for c in reversed(list(coeffs)):
        acc = acc * x + _rat(c)
    return acc

def interpolate_poly(samples: Sequence[tuple], degree: int,
                     verify: Iterable[tuple]) -> list[Fraction]:
    """Exact polynomial interpolation plus mandatory held-out checks.

    `samples` must hold exactly degree+1 pairs (x, value) with distinct x.
    `verify` is read once, in order, and each pair is checked exactly
    against the interpolant as it arrives, so a lazy iterable computes no
    pair after the first mismatch.  A mismatch raises VerificationFailed,
    which downstream code reads as "the data is not yet polynomial on this
    range"; a `verify` that yields nothing raises ValueError.
    """
    if len(samples) != degree + 1:
        raise ValueError("need exactly degree+1 samples")
    xs = [_rat(x) for x, _ in samples]
    if len(set(xs)) != len(xs):
        raise ValueError("sample points must be distinct")
    rows = [[x ** k for k in range(degree + 1)] for x in xs]
    coeffs = _solve(rows, [v for _, v in samples])
    checked = 0
    for x, v in verify:
        got = poly_eval(coeffs, x)
        if got != _rat(v):
            raise VerificationFailed(
                f"interpolant gives {got} at {x}, sample says {v}")
        checked += 1
    if not checked:
        raise ValueError("at least one verification sample is required")
    return coeffs
