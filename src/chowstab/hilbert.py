"""Monomial bases, fat point jets, section traces and expansion data.

Conventions used throughout the package are fixed here.  The 1-PS acts on
homogeneous point coordinates by x_i -> t**w_i x_i, hence on coordinate
functions with the opposite weight; the induced weight of a degree-d
monomial section x^e is -<w, e>.  All jet conditions are taken in the
affine chart where the first nonzero coordinate of the point equals 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import ZeroLeadingCoefficient
from .exactcore import int_rank_profile
from .geometry import (DiagonalOnePS, ProjectivePoint, WeightedCycle,
                       collision_clusters)

__all__ = [
    "MonomialBasis",
    "FatPointSpec",
    "ExpansionCoeffs",
    "CentralPrediction",
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


@lru_cache(maxsize=None)
def _exponents(nvars: int, total: int) -> tuple[tuple[int, ...], ...]:
    if nvars == 1:
        return ((total,),)
    out = []
    for e in range(total, -1, -1):
        for rest in _exponents(nvars - 1, total - e):
            out.append((e,) + rest)
    return tuple(out)


class MonomialBasis:
    """Degree-d monomials in n+1 variables, graded lex, descending."""

    __slots__ = ("n", "degree", "exponents", "_index")

    def __init__(self, n: int, degree: int):
        if n < 1 or degree < 0:
            raise ValueError("need n >= 1 and degree >= 0")
        self.n = n
        self.degree = degree
        self.exponents = _exponents(n + 1, degree)
        self._index = {e: i for i, e in enumerate(self.exponents)}

    def __len__(self):
        return len(self.exponents)

    def index(self, e: tuple[int, ...]) -> int:
        return self._index[e]

    def weights(self, alpha: DiagonalOnePS) -> list[int]:
        """<w, e> for each monomial, in basis order."""
        w = alpha.weights
        if len(w) != self.n + 1:
            raise ValueError("weight vector length mismatch")
        return [sum(wi * ei for wi, ei in zip(w, e)) for e in self.exponents]

    def evaluate(self, coords: Sequence[Fraction]) -> list[Fraction]:
        """Value of every monomial at the given coordinates."""
        if len(coords) != self.n + 1:
            raise ValueError("coordinate length mismatch")
        vals = []
        for e in self.exponents:
            v = Fraction(1)
            for c, k in zip(coords, e):
                if k:
                    v *= Fraction(c) ** k
            vals.append(v)
        return vals


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
        if not self.cycle.ambient.is_projective:
            raise ValueError("fat point conditions need a projective ambient")
        if self.degree < 0 or self.r < 1:
            raise ValueError("need degree >= 0 and r >= 1")

    @property
    def expected_rows(self) -> int:
        n = self.cycle.ambient.n
        return sum(fat_point_length(n, self.r * a)
                   for _, a in self.cycle.points)


def _point_int_data(p: ProjectivePoint) -> tuple[int, list[int], int]:
    """Pivot index, integer numerators of affine coords, common denominator."""
    piv = p.pivot_index
    affine = [p.coords[j] for j in range(len(p.coords)) if j != piv]
    den = math.lcm(*(u.denominator for u in affine))
    nums = [int(u * den) for u in affine]
    return piv, nums, den


def _int_jet_rows(p: ProjectivePoint, order: int,
                  basis: MonomialBasis) -> list[list[int]]:
    """Jet rows at p, scaled by den**degree so every entry is an integer.

    Row for the functional d^beta/du^beta (|beta| < order), evaluated on
    the dehomogenization of each monomial in the chart where the pivot
    coordinate of p is set to 1.  With u_j = num_j / den, the entry for
    x^e is den**(e_piv + |beta|) * prod_j T_j[e_j][beta_j], where
    T_j[e][b] = e (e-1) ... (e-b+1) * num_j**(e-b), and 0 for b > e.
    """
    piv, nums, den = _point_int_data(p)
    d = basis.degree
    tables = []
    for v in nums:
        # T[e][0] = v**e and T[e][b] = e * T[e-1][b-1]
        t = [[1] + [0] * (order - 1)]
        for e in range(1, d + 1):
            t.append([t[-1][0] * v] + [e * x for x in t[-1][:-1]])
        tables.append(t)
    den_pow = [den ** k for k in range(d + 1)]
    cols = [(e[piv], [t[ej] for t, ej in zip(tables, e[:piv] + e[piv + 1:])])
            for e in basis.exponents]
    rows = []
    for o in range(order):
        for beta in _exponents(basis.n, o):
            row = []
            for e_piv, factors in cols:
                c = 1
                for f, b in zip(factors, beta):
                    c *= f[b]
                    if not c:
                        break
                row.append(c * den_pow[e_piv + o] if c else 0)
            rows.append(row)
    return rows


def jet_vanishing_matrix(spec: FatPointSpec) -> list[list[int]]:
    """The jet condition matrix, in integers; its kernel is the section space.

    Rows run over support points in cycle order and derivative functionals
    in graded order; columns over the degree-d monomial basis.  The rows of
    a point with affine denominator den are scaled by den**d.
    """
    basis = MonomialBasis(spec.cycle.ambient.n, spec.degree)
    rows: list[list[int]] = []
    for p, a in spec.cycle.points:
        rows.extend(_int_jet_rows(p, spec.r * a, basis))
    return rows


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
    is inverse to the action on points.
    """
    return Fraction(-sum(MonomialBasis(n, d).weights(alpha)))


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


@dataclass(frozen=True)
class CentralPrediction:
    """Explicit expansion terms for the blowup central fibre.

    The c coefficients are exact; the b coefficients omit a remainder
    bounded in gamma, which the flags record.
    """

    coeffs: ExpansionCoeffs
    b0_slack_O1: bool = True
    b1_slack_O1: bool = True


def predicted_central_coeffs(cycle: WeightedCycle, alpha: DiagonalOnePS,
                             gamma: int) -> CentralPrediction:
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
    return CentralPrediction(ExpansionCoeffs(c0p, c1p, b0p, b1p))


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
