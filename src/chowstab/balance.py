"""Numerical Kempf-Ness balancing of weighted point configurations.

A configuration with Chow masses m_i is balanced when the mass-weighted
Fubini-Study moment map sums to zero.  This module checks the three
finite-dimensional conditions (moment sum zero, moment images spanning,
no common zero of the symmetry algebra) and runs a deterministic
gradient flow toward a balanced representative.

Everything here is double precision except check_no_common_zero, which
is an exact rational computation and therefore requires rational input
coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ZeroPoint
from .exactcore import _primitive, int_rank_profile
from .geometry import WeightedCycle, chow_multiplicities

__all__ = [
    "BalanceCycle",
    "FlowReport",
    "moment_map",
    "total_moment",
    "balance_residual",
    "balance_flow",
    "check_spanning",
    "check_no_common_zero",
]

DIVERGENCE_NORM = 1e3
SPAN_THRESHOLD = 1e-8
FIRST_STEP = 0.5
_MIN_STEP = 1e-15


def _finite(x, what: str) -> float:
    """x as a float, refusing a value outside double range or not finite."""
    try:
        f = float(x)
    except OverflowError:
        raise ValueError(f"{what} {x!r} is out of double range") from None
    if not math.isfinite(f):
        raise ValueError(f"{what} {x!r} is not finite")
    return f


def _entry(c) -> complex:
    """One coordinate, a number (int, float, Fraction) or an [re, im] pair."""
    if not isinstance(c, (list, tuple)):
        return complex(_finite(c, "coordinate"))
    if len(c) != 2:
        raise ValueError(f"complex entry {c!r} is not a [re, im] pair")
    return complex(_finite(c[0], "coordinate"), _finite(c[1], "coordinate"))


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """The rows of v scaled to unit length.

    Each row is first multiplied by the power of two that brings its
    largest real or imaginary part into [1, 2), or as close as a float
    factor allows.  That scaling is exact, so each unit row has the bits
    it would have without it, while no squared norm can overflow or
    underflow.
    """
    top = np.maximum(abs(v.real), abs(v.imag)).max(axis=1)
    if not top.all():
        raise ZeroPoint("zero vector is not a projective point")
    v = v * np.ldexp(1.0, np.minimum(1 - np.frexp(top)[1], 1023))[:, None]
    return v / _row_norms(v)[:, None]


# The two norms are the expressions np.linalg.norm evaluates for a complex
# array, so they give its bits, without its argument handling on each call.

def _row_norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm(v, axis=1)."""
    return np.sqrt(np.add.reduce((v.conj() * v).real, axis=1))


def _norm(a: np.ndarray) -> np.float64:
    """np.linalg.norm(a): the Frobenius norm of a matrix."""
    x = a.ravel(order="K")
    return np.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def _scalar_part(m, dim: int) -> np.ndarray:
    """sum(m) I/dim, the part of a moment sum that the points leave fixed."""
    return np.sum(m) / dim * np.eye(dim)


def _moment_sum(u: np.ndarray, m, scalar: np.ndarray) -> np.ndarray:
    """Sum of m_i (u_i u_i* - I/dim) over the unit rows u_i, given
    `scalar`, the `_scalar_part` of m."""
    return (u.T * m) @ u.conj() - scalar


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class BalanceCycle:
    """Complex points, one (N, n+1) read-only array, with their Chow masses.

    Build it with from_raw or from_weighted, which check the input.
    """

    points: np.ndarray
    masses: tuple[float, ...]

    @property
    def n(self) -> int:
        return self.points.shape[1] - 1

    @classmethod
    def from_raw(cls, coords_list: Sequence[Sequence],
                 masses: Sequence[float]) -> "BalanceCycle":
        """Rows of numbers or [re, im] pairs, with finite positive masses."""
        rows = [[_entry(c) for c in coords] for coords in coords_list]
        if len(rows) != len(masses):
            raise ValueError("points and masses differ in length")
        if not rows:
            raise ValueError("empty configuration")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("points of unequal dimension")
        weights = tuple(_finite(m, "mass") for m in masses)
        if any(m <= 0 for m in weights):
            raise ValueError("masses must be positive")
        points = np.array(rows, dtype=complex)
        if not points.any(axis=1).all():
            raise ZeroPoint("zero vector is not a projective point")
        return cls(_read_only(points), weights)

    @classmethod
    def from_weighted(cls, cycle: WeightedCycle) -> "BalanceCycle":
        """Chow masses a_i^(n-1) attached to the support of a cycle."""
        chow = chow_multiplicities(cycle)
        return cls.from_raw([p.coords for p, _ in chow.points],
                            [a for _, a in chow.points])


def moment_map(p) -> np.ndarray:
    """Fubini-Study moment map p p*/|p|^2 - I/(n+1), Hermitian traceless."""
    row = p if isinstance(p, np.ndarray) else [_entry(c) for c in p]
    u = _unit_rows(np.asarray(row, dtype=complex)[None])
    return _moment_sum(u, 1.0, _scalar_part(1.0, u.shape[1]))


def total_moment(cycle: BalanceCycle) -> np.ndarray:
    """Mass-weighted moment sum of the cycle's points."""
    return _moment_sum(_unit_rows(cycle.points), cycle.masses,
                       _scalar_part(cycle.masses, cycle.n + 1))


def _residual(moment: np.ndarray) -> float:
    return float(_norm(moment))


def balance_residual(cycle: BalanceCycle) -> float:
    """Frobenius norm of the mass-weighted moment sum; zero iff balanced."""
    return _residual(total_moment(cycle))


def _expm_hermitian(h: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(vals)) @ vecs.conj().T


@dataclass(frozen=True, eq=False)
class FlowReport:
    """Outcome of one balancing run; a plain value object."""

    status: str                     # converged | diverged | max_iter
    residual_norm: float
    group_element_norm: float
    iterations: int
    group_element: np.ndarray
    points: np.ndarray              # (N, n+1) unit rows, read-only
    final_step: float
    stalled: bool = False


def balance_flow(cycle: BalanceCycle, tol: float = 1e-9,
                 max_iter: int = 100000) -> FlowReport:
    """Deterministic moment descent g <- exp(-step * mu) g.

    The step starts at FIRST_STEP and is halved whenever the candidate
    update would increase the residual beyond rounding noise, so the
    accepted residual sequence is non-increasing (the baseline is updated
    with min).  Plateau steps are accepted: near an unattained infimum the
    residual flatlines in double precision while the group element still
    drifts, and accepting the drift lets the divergence test fire instead
    of stalling just under it.  The run stops when the residual drops below
    tol (converged), when the group element norm exceeds DIVERGENCE_NORM
    (diverged, the Kempf-Ness infimum is not attained), or at max_iter.  A
    stall (step underflow with no progress) is reported as max_iter with
    the stalled flag set.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if max_iter < 0:
        raise ValueError(f"max_iter must not be negative, got {max_iter!r}")
    mass = np.asarray(cycle.masses)
    step = FIRST_STEP
    base = cur = _read_only(_unit_rows(cycle.points))
    g = np.eye(cycle.n + 1, dtype=complex)
    scalar = _scalar_part(mass, cycle.n + 1)
    m = _moment_sum(cur, mass, scalar)
    residual = _residual(m)
    if residual < tol:
        return FlowReport("converged", residual, float(_norm(g)), 0, g, cur,
                          step)
    slack = 8.0 * np.finfo(float).eps
    status = "max_iter"
    stalled = False
    iterations = 0
    # a step too long for the masses overflows exp(-step * mu) or the
    # candidate's row norms.  A norm of 0 or NaN makes r NaN or infinite,
    # which fails the residual test; an infinite norm, which zeroes its
    # row, fails the norm test.  Either way the step halves
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for it in range(1, max_iter + 1):
            improved = False
            while step > _MIN_STEP:
                cand_g = _expm_hermitian(-step * m) @ g
                cand = base @ cand_g.T
                norms = _row_norms(cand)
                cand /= norms[:, None]
                cand_m = _moment_sum(cand, mass, scalar)
                r = _residual(cand_m)
                if (r <= residual + slack * max(residual, 1.0)
                        and norms.max() < math.inf):
                    improved = True
                    break
                step *= 0.5
            if not improved:
                stalled = True
                iterations = it
                break
            g, cur, m, residual = cand_g, cand, cand_m, min(residual, r)
            iterations = it
            if residual < tol:
                status = "converged"
                break
            if _norm(g) > DIVERGENCE_NORM:
                status = "diverged"
                break
    return FlowReport(status, residual, float(_norm(g)), iterations, g,
                      _read_only(cur), step, stalled)


def check_spanning(cycle: BalanceCycle) -> bool:
    """Do the moment images span the traceless Hermitian space?

    Each point's moment map enters as one real row: its diagonal, then the
    (re, im) pairs above the diagonal in row-major order.  Numerical rank
    via singular values with a relative threshold; the target dimension is
    (n+1)^2 - 1.  N points give N rows, so the check is false whenever
    N < (n+1)^2 - 1, whatever the configuration: it is not a stability
    test, and says nothing about a cycle with fewer points.
    """
    u = _unit_rows(cycle.points)
    dim = cycle.n + 1
    i, j = np.triu_indices(dim, 1)
    off = u[:, i] * u[:, j].conj()
    pairs = np.stack([off.real, off.imag], axis=2).reshape(len(u), -1)
    rows = np.hstack([(u * u.conj()).real - 1 / dim, pairs])
    sv = np.linalg.svd(rows, compute_uv=False)
    if sv[0] == 0.0:
        return False
    rank = int(np.sum(sv > SPAN_THRESHOLD * sv[0]))
    return rank == dim * dim - 1


def check_no_common_zero(cycle: WeightedCycle) -> bool:
    """No nonzero traceless matrix fixes every support point (exact test).

    Solves the homogeneous rational system A p_i = c_i p_i in the entries
    of A and the scalars c_i.  The identity (A = I, all c_i = 1) always
    solves it; any further kernel direction yields, after removing the
    trace, a nonzero traceless solution, so the check fails exactly when
    the kernel has dimension greater than one.
    """
    if cycle.is_empty:
        return False
    dim = cycle.ambient.n + 1
    nvars = dim * dim + len(cycle.points)
    rows: list[list[int]] = []
    for i, (p, _) in enumerate(cycle.points):
        # each p_i may be rescaled: the equations are homogeneous in it
        coords = _primitive(p.coords)
        for j in range(dim):
            row = [0] * nvars
            row[j * dim:(j + 1) * dim] = coords
            row[dim * dim + i] = -coords[j]
            rows.append(row)
    rank, _ = int_rank_profile(rows, nvars)
    return nvars - rank == 1
