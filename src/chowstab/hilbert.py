"""Monomial bases, fat point jets, section traces and expansion data.

Conventions used throughout the package are fixed here.  The 1-PS acts on
homogeneous point coordinates by x_i -> t**w_i x_i, hence on coordinate
functions with the opposite weight; the induced weight of a degree-d
monomial section x^e is -<w, e>.  All jet conditions are taken in the
affine chart where the first nonzero coordinate of the point equals 1.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ZeroLeadingCoefficient
from .exactcore import _primitive, int_rank_profile
from .geometry import (DiagonalOnePS, ProjectivePoint, WeightedCycle,
                       collision_clusters)

__all__ = [
    "MonomialBasis",
    "FatPointSpec",
    "ExpansionCoeffs",
    "fat_point_length",
    "jet_vanishing_matrix",
    "h0_with_vanishing",
    "section_trace",
    "futaki_from_coeffs",
    "lifting_shift",
    "base_coeffs",
    "predicted_central_coeffs",
    "line_weight",
    "level_weight",
]


def _exponents(nvars: int, total: int) -> np.ndarray:
    """Exponent vectors of the degree-`total` monomials in `nvars`
    variables, graded lex, descending: a read-only (N, nvars) int array.

    Stars and bars, one variable at a time: a row's last entry is the
    degree left to place, and the row is repeated once for each way to
    split it as (rest - k, k), k = 0, ..., rest.
    """
    out = np.array([[total]], dtype=np.int64)
    for _ in range(nvars - 1):
        rest = out[:, -1]
        parent = np.repeat(np.arange(len(out)), rest + 1)
        left = np.arange(len(parent)) - np.searchsorted(parent, parent)
        out = np.column_stack([out[parent, :-1], rest[parent] - left, left])
    out.flags.writeable = False
    return out


class MonomialBasis:
    """Degree-d monomials in n+1 variables, graded lex, descending."""

    __slots__ = ("n", "degree", "exponents")

    def __init__(self, n: int, degree: int):
        self.n, self.degree = operator.index(n), operator.index(degree)
        if self.n < 1 or self.degree < 0:
            raise ValueError("need n >= 1 and degree >= 0")
        self.exponents = _exponents(self.n + 1, self.degree)

    def __len__(self):
        return len(self.exponents)

    def index(self, e: Sequence[int]) -> int:
        """Position of x^e in the basis; KeyError if it is not there."""
        hit = np.flatnonzero((self.exponents == np.asarray(e)).all(axis=1))
        if not hit.size:
            raise KeyError(tuple(e))
        return int(hit[0])

    def weights(self, alpha: DiagonalOnePS) -> list[int]:
        """<w, e> for each monomial, in basis order, as Python ints."""
        w = alpha.weights
        if len(w) != self.n + 1:
            raise ValueError("weight vector length mismatch")
        # in int64 when every partial sum is at most max|w| d < 2^62
        if max(map(abs, w)) * max(self.degree, 1) < 1 << 62:
            return (self.exponents @ np.array(w, dtype=np.int64)).tolist()
        return (self.exponents.astype(object)
                @ np.array(w, dtype=object)).tolist()

    def evaluate(self, coords: Sequence[Fraction]) -> list[Fraction]:
        """Value of every monomial at the given coordinates."""
        if len(coords) != self.n + 1:
            raise ValueError("coordinate length mismatch")
        coords = [Fraction(c) for c in coords]
        return [math.prod(map(pow, coords, e), start=Fraction(1))
                for e in self.exponents.tolist()]


def fat_point_length(n: int, a: int) -> int:
    """Length of the order-a fat point in n-space: C(n+a-1, n)."""
    if n < 1 or a < 0:
        raise ValueError("need n >= 1 and a >= 0")
    return math.comb(n + a - 1, n)


@dataclass(frozen=True)
class FatPointSpec:
    """Degree-d forms constrained to vanish to order r*a_i at each point."""

    cycle: WeightedCycle
    degree: int
    r: int = 1

    def __post_init__(self):
        if self.degree < 0 or self.r < 1:
            raise ValueError("need degree >= 0 and r >= 1")

    @property
    def expected_rows(self) -> int:
        n = self.cycle.ambient.n
        return sum(fat_point_length(n, self.r * a)
                   for _, a in self.cycle.points)


def _int_jet_rows(p: ProjectivePoint, order: int,
                  basis: MonomialBasis) -> np.ndarray:
    """Jet rows at p, scaled by den**degree so every entry is an integer.

    Row for the functional d^beta/du^beta (|beta| < order), evaluated on
    the dehomogenization of each monomial in the chart where the pivot
    coordinate of p is set to 1.  With u_j = num_j / den, the entry for
    x^e is den**(e_piv + |beta|) * prod_j T_j[e_j][beta_j], where
    T_j[e][b] = e (e-1) ... (e-b+1) * num_j**(e-b), and 0 for b > e.
    The block is that product taken over all (beta, e) at once: an object
    array of Python ints, one row per beta in graded order.
    """
    # the pivot coordinate is 1, so the primitive vector has content 1: it
    # holds den at the pivot and the numerators num_j elsewhere
    piv = p.pivot_index
    nums = _primitive(p.coords)
    den = nums.pop(piv)
    d = basis.degree
    exps = basis.exponents
    betas = np.concatenate([_exponents(basis.n, o) for o in range(order)])
    den_pow = np.array([den ** k for k in range(d + order)], dtype=object)
    rows = den_pow[exps[:, piv] + betas.sum(axis=1)[:, None]]
    for v, e, b in zip(nums, np.delete(exps, piv, axis=1).T, betas.T):
        # T[k][0] = v**k and T[k][b] = k * T[k-1][b-1]
        t = [[1] + [0] * (order - 1)]
        for k in range(1, d + 1):
            t.append([t[-1][0] * v] + [k * x for x in t[-1][:-1]])
        rows *= np.array(t, dtype=object)[e, b[:, None]]
    return rows


def jet_vanishing_matrix(spec: FatPointSpec) -> np.ndarray:
    """The jet condition matrix, in integers; its kernel is the section space.

    An object array of Python ints.  Rows run over support points in cycle
    order and derivative functionals in graded order; columns over the
    degree-d monomial basis.  The rows of a point with affine denominator
    den are scaled by den**d.
    """
    basis = MonomialBasis(spec.cycle.ambient.n, spec.degree)
    return np.concatenate(
        [np.zeros((0, len(basis)), dtype=object)]
        + [_int_jet_rows(p, spec.r * a, basis) for p, a in spec.cycle.points])


def h0_with_vanishing(spec: FatPointSpec) -> int:
    """dim of degree-d forms vanishing to order r*a_i at every point."""
    basis = MonomialBasis(spec.cycle.ambient.n, spec.degree)
    rank, _ = int_rank_profile(jet_vanishing_matrix(spec), len(basis))
    return len(basis) - rank


# ---------------------------------------------------------------------------
# traces of the induced action on section spaces


def section_trace(alpha: DiagonalOnePS, n: int, d: int) -> Fraction:
    """Trace of the induced generator on the space of degree-d sections.

    Monomial x^e contributes -<w, e>: the action on coordinate functions
    is inverse to the action on points.  Each variable has total exponent
    C(d+n, n+1) over the degree-d monomials, so the trace is
    -sum(w) C(d+n, n+1).
    """
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and degree >= 0")
    if len(alpha.weights) != n + 1:
        raise ValueError("weight vector length mismatch")
    return Fraction(-sum(alpha.weights) * math.comb(d + n, n + 1))


@dataclass(frozen=True)
class ExpansionCoeffs:
    """Leading coefficients of dim and trace expansions.

    h0(k) = c0 k^n + c1 k^(n-1) + O(k^(n-2)) and
    tr(k) = b0 k^(n+1) + b1 k^n + O(k^(n-1)).
    """

    c0: Fraction
    c1: Fraction
    b0: Fraction
    b1: Fraction

    def __post_init__(self):
        for f in ("c0", "c1", "b0", "b1"):
            object.__setattr__(self, f, Fraction(getattr(self, f)))


def futaki_from_coeffs(e: ExpansionCoeffs) -> Fraction:
    """Donaldson-Futaki invariant c1 b0 / c0 - b1."""
    if e.c0 == 0:
        raise ZeroLeadingCoefficient("c0 vanishes")
    return e.c1 * e.b0 / e.c0 - e.b1

def lifting_shift(e: ExpansionCoeffs, lam: Fraction) -> ExpansionCoeffs:
    """Change of linearization A_k -> A_k + k lam Id.

    Shifts b0 by lam c0 and b1 by lam c1, and therefore leaves
    futaki_from_coeffs unchanged; that identity is what makes the final
    invariant independent of the chosen lifting.
    """
    lam = Fraction(lam)
    return ExpansionCoeffs(e.c0, e.c1, e.b0 + lam * e.c0, e.b1 + lam * e.c1)


def base_coeffs(n: int, alpha: DiagonalOnePS) -> ExpansionCoeffs:
    """Expansion data of the full space of degree-k forms on P^n.

    h0(k) = C(k+n, n) gives c0 = 1/n! and c1 = (n+1)/(2 (n-1)!).  The sum
    of <w, e> over degree-k monomials is S k C(k+n, n)/(n+1) with
    S = sum(w), and the section weights are the negatives, so
    b0 = -S/((n+1) n!) and b1 = -S/(2 (n-1)!).
    """
    if len(alpha.weights) != n + 1:
        raise ValueError("weight vector length mismatch")
    s = sum(alpha.weights)
    return ExpansionCoeffs(
        Fraction(1, math.factorial(n)),
        Fraction(n + 1, 2 * math.factorial(n - 1)),
        Fraction(-s, (n + 1) * math.factorial(n)),
        Fraction(-s, 2 * math.factorial(n - 1)),
    )


def line_weight(q: ProjectivePoint, alpha: DiagonalOnePS) -> int:
    """Weight of the induced action on the degree-1 line over a limit point.

    The tautological line of q scales by the minimal weight on the support
    of q; the dual (section side) weight is its negative.
    """
    if len(alpha.weights) != len(q.coords):
        raise ValueError("weight vector length mismatch")
    return -min(alpha.weights[i] for i in q.support())


def predicted_central_coeffs(cycle: WeightedCycle, alpha: DiagonalOnePS,
                             gamma: int) -> ExpansionCoeffs:
    """Predicted primed coefficients for the blowup test configuration.

    c0' = c0 g^n - sum a^n / n!
    c1' = c1 g^(n-1) - sum a^(n-1) / (2 (n-2)!)
    b0' = b0 g^(n+1) - sum_q lam(q) (sum_{A_q} a^n) g / n!       + O(1)
    b1' = b1 g^n     - sum_q lam(q) (sum_{A_q} a^(n-1)) g / (2 (n-2)!) + O(1)

    where q runs over limit points, A_q is the cluster of support points
    colliding into q, and lam(q) is line_weight(q, alpha).
    """
    n = cycle.ambient.n
    if n < 2:
        raise ValueError("prediction needs ambient dimension at least 2")
    if gamma < 1:
        raise ValueError("gamma must be positive")
    base = base_coeffs(n, alpha)
    mult = dict(cycle.points)
    nf = math.factorial(n)
    half_n2 = 2 * math.factorial(n - 2)
    sum_an = sum(a ** n for _, a in cycle.points)
    sum_an1 = sum(a ** (n - 1) for _, a in cycle.points)
    c0p = base.c0 * gamma ** n - Fraction(sum_an, nf)
    c1p = base.c1 * gamma ** (n - 1) - Fraction(sum_an1, half_n2)
    b0p = base.b0 * gamma ** (n + 1)
    b1p = base.b1 * gamma ** n
    for q, members in collision_clusters(cycle, alpha).items():
        lam = line_weight(q, alpha)
        cl_an = sum(mult[p] ** n for p in members)
        cl_an1 = sum(mult[p] ** (n - 1) for p in members)
        b0p -= Fraction(lam * cl_an * gamma, nf)
        b1p -= Fraction(lam * cl_an1 * gamma, half_n2)
    return ExpansionCoeffs(c0p, c1p, b0p, b1p)


def level_weight(p: ProjectivePoint, alpha: DiagonalOnePS,
                 gamma: int) -> Fraction:
    """Mumford weight of p at polarisation level gamma, computed honestly.

    Evaluates every degree-gamma monomial at p and minimizes <w, e> over
    the nonvanishing ones, then subtracts the level-gamma average weight.
    Used as an independent cross-check of the scaling law
    level_weight = gamma * mumford_weight for traceless alpha.
    """
    n = len(p.coords) - 1
    basis = MonomialBasis(n, gamma)
    vals = basis.evaluate(p.coords)
    ws = basis.weights(alpha)
    lo = min(w for w, v in zip(ws, vals) if v != 0)
    mean = Fraction(gamma * sum(alpha.weights), n + 1)
    return Fraction(lo) - mean
