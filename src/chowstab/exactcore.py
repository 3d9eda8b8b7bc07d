"""Exact dense linear algebra over Q and over the polynomial ring Q[t].

`graded_limit` computes every weight-graded flat limit the package needs.
The Q[t] part (PolyT and limit_subspace) computes the same limits by
another route and is kept only as the reference the tests compare against.
Everything here is done with exact integers and `fractions.Fraction`; no
floating point enters any computation in this module.  Matrices are dense,
which is all the rest of the package needs (a few thousand columns at
most).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DependentFamily, VerificationFailed

QQ = Fraction

__all__ = [
    "QQ",
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
        t = _rat(t)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

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


def _rref(rows: list[list[Fraction]]) -> tuple[int, list[int]]:
    """In-place reduced row echelon form; returns (rank, pivot columns)."""
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
        rows[rank], rows[pr] = rows[pr], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rank, pivots


def _kernel_from_rref(rows: list[list[Fraction]], pivots: list[int],
                      ncols: int) -> list[tuple[Fraction, ...]]:
    """Kernel basis with a unit entry at each free column."""
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        basis.append(tuple(v))
    return basis


def rank_kernel(rows: Sequence[Sequence], ncols: int
                ) -> tuple[int, list[tuple[Fraction, ...]]]:
    """Rank and a deterministic kernel basis of a rational matrix.

    Entries may be ints or Fractions; they are converted to Fraction.  Each
    kernel vector has entry 1 at one free column of the reduced row echelon
    form and is zero after it, so the output is canonical for a given input.
    """
    work = [[_rat(x) for x in row] for row in rows]
    rank, pivots = _rref(work)
    return rank, _kernel_from_rref(work, pivots, ncols)


def _solve(a_rows: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
           ) -> list[Fraction]:
    """Solve the square system A x = b; raises on a singular matrix."""
    n = len(a_rows)
    aug = [list(row) + [_rat(b[i])] for i, row in enumerate(a_rows)]
    rank, pivots = _rref(aug)
    if rank < n or n in pivots:
        raise ValueError("singular or inconsistent system")
    x = [Fraction(0)] * n
    for r, p in enumerate(pivots):
        x[p] = aug[r][n]
    return x


def int_rank_profile(rows: list[list[int]], ncols: int
                     ) -> tuple[int, list[int]]:
    """Rank and pivot columns of an integer matrix, fraction-free.

    Bareiss one-step elimination: every intermediate entry is a minor of the
    input, and the division by the previous pivot is exact.  `rows` is
    consumed.  Columns are scanned left to right, so the pivot columns are
    the lexicographically first independent ones.
    """
    rank = 0
    prev = 1
    pivots = []
    nrows = len(rows)
    for col in range(ncols):
        pr = None
        for r in range(rank, nrows):
            if rows[r][col]:
                pr = r
                break
        if pr is None:
            continue
        if pr != rank:
            rows[rank], rows[pr] = rows[pr], rows[rank]
        piv_row = rows[rank]
        piv = piv_row[col]
        for r in range(rank + 1, nrows):
            row = rows[r]
            a = row[col]
            if a:
                for j in range(col + 1, ncols):
                    row[j] = (piv * row[j] - a * piv_row[j]) // prev
            elif prev != piv:
                for j in range(col + 1, ncols):
                    if row[j]:
                        row[j] = (piv * row[j]) // prev
            row[col] = 0
        prev = piv
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return rank, pivots


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
    top-weight parts is returned in the original column order, from a
    Fraction kernel; otherwise only the fraction-free rank profile is
    taken and the basis is None.  `rows` is left unchanged.
    """
    ncols = len(weights)
    order = sorted(range(ncols), key=lambda j: (weights[j], j))
    sorted_w = [weights[j] for j in order]
    sorted_rows = [[row[j] for j in order] for row in rows]
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
                     verify: Sequence[tuple]) -> list[Fraction]:
    """Exact polynomial interpolation plus mandatory held-out checks.

    `samples` must hold exactly degree+1 pairs (x, value) with distinct x;
    `verify` must be non-empty and is checked exactly against the
    interpolant.  A mismatch raises VerificationFailed, which downstream
    code reads as "the data is not yet polynomial on this range".
    """
    if len(samples) != degree + 1:
        raise ValueError("need exactly degree+1 samples")
    xs = [_rat(x) for x, _ in samples]
    if len(set(xs)) != len(xs):
        raise ValueError("sample points must be distinct")
    if not verify:
        raise ValueError("at least one verification sample is required")
    rows = [[x ** k for k in range(degree + 1)] for x in xs]
    coeffs = _solve(rows, [_rat(v) for _, v in samples])
    for x, v in verify:
        got = poly_eval(coeffs, x)
        if got != _rat(v):
            raise VerificationFailed(
                f"interpolant gives {got} at {x}, sample says {v}")
    return coeffs
