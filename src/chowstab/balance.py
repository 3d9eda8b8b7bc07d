"""Numerical Kempf-Ness balancing of weighted point configurations.

A configuration with Chow masses m_i is balanced when the mass-weighted
Fubini-Study moment map sums to zero.  This module checks the three
finite-dimensional conditions (moment sum zero, moment images spanning,
no common zero of the symmetry algebra) and looks for a balanced
representative by damped Newton on Barthe's convex dual.

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
MAX_MOVE = 16.0      # cap on a step's move in any t_i; 2 MAX_MOVE < log(1/eps)
ARMIJO = 1e-4        # share of the predicted decrease a step must reach


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
    stalled: bool
    objective: float


class _Point:
    """One iterate t, held as f(t), the group element g and the rows u.

    The rows of u are e^(t_i/2) B v_i for a B with B M(t) B* = I, so
    that sum_i u_i u_i* = I and w, their squared norms, is the gradient
    of f plus c; g is B scaled to |det| 1.  t itself is never needed:
    each step moves from u, and f is invariant under t -> t + s, which
    leaves u and g as they are.  `rounding` bounds the rounding of f.
    """

    __slots__ = ("f", "g", "u", "w", "rounding")

    def __init__(self, f, g, u):
        self.f, self.g, self.u = f, g, u
        self.w = (u.conj() * u).real.sum(axis=1)
        self.rounding = 64 * np.finfo(float).eps * max(abs(f), 1.0)


def _null(vals: np.ndarray) -> np.ndarray:
    """Which of a Hermitian matrix's ascending eigenvalues are zero to
    working precision."""
    return vals <= len(vals) * np.finfo(float).eps * vals[-1]


def _moved(cur: _Point, delta: np.ndarray, c: np.ndarray):
    """The _Point at t + delta; None if M is singular there.

    K = sum_i e^(delta_i) u_i u_i* is M(t + delta) in cur's frame, so
    K^(-1/2) B is the next B and det M grows by det K.  K's eigenvalues
    lie between e^(min delta) and e^(max delta): however far the run
    has gone, each step inverts only a matrix that the cap on delta
    keeps well conditioned.
    """
    vals, vecs = np.linalg.eigh((cur.u.T * np.exp(delta)) @ cur.u.conj())
    if _null(vals).any():
        return None
    logdet = np.log(vals).sum()
    r = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return _Point(cur.f + logdet - c @ delta,
                  (r @ cur.g) * np.exp(logdet / (2 * len(vals))),
                  (cur.u @ r.T) * np.exp(delta / 2)[:, None])


def _direction(cur: _Point, c: np.ndarray) -> np.ndarray:
    """The step along which _step searches.

    A least-squares Newton step, capped at MAX_MOVE, on the
    eigendirections of the Hessian diag(w) - |G|^2 whose curvature
    exceeds sqrt(rounding), the point halfway in digits between f's
    rounding and 1.  At the minimum of a polystable cycle f's curvature
    is bounded away from zero; the iterates of one whose minimum is not
    attained escape along a direction whose curvature falls with the
    gradient.  Where the gradient along the flatter directions still
    exceeds sqrt(rounding), f keeps falling there (an unstable cycle) and
    Newton's step is unbounded, so the step is the gradient on them, out
    to the cap, if that promises the larger decrease.  Where it does
    not, f levels off (a semistable cycle that is not polystable): the
    step leaves those directions out, and the run stalls.
    """
    grad = cur.w - c
    vals, vecs = np.linalg.eigh(np.diag(cur.w)
                                - abs(cur.u.conj() @ cur.u.T) ** 2)
    coef = grad @ vecs
    floor = math.sqrt(cur.rounding)
    curved = vals > floor
    p = -vecs[:, curved] @ (coef[curved] / vals[curved])
    p *= min(1.0, MAX_MOVE / abs(p).max(initial=MAX_MOVE))
    steep = ~curved & (abs(coef) > floor)
    if steep.any():
        flat = -vecs[:, steep] @ coef[steep]
        flat *= MAX_MOVE / abs(flat).max()
        if grad @ flat < grad @ p:
            p = flat
    return p


def _step(cur: _Point, p: np.ndarray, c: np.ndarray):
    """(next _Point, step length) along p, or None for a stall.

    The length halves from 1 until f meets the Armijo test, and the run
    stalls once the decrease it would predict is below f's rounding.
    When the full step predicts no more than that, it is taken only if
    it brings w closer to c by more than the rounding.
    """
    slope = (cur.w - c) @ p
    if -slope <= cur.rounding:
        nxt = _moved(cur, p, c)
        if (nxt is not None
                and _norm(nxt.w - c) < _norm(cur.w - c) - cur.rounding):
            return nxt, 1.0
        return None
    step = 1.0
    while -step * slope > cur.rounding:
        nxt = _moved(cur, step * p, c)
        if nxt is not None and nxt.f <= cur.f + ARMIJO * step * slope:
            return nxt, step
        step *= 0.5
    return None


def _unspanned(v: np.ndarray, mass, scalar: np.ndarray) -> FlowReport:
    """The report for rows that do not span C^(n+1), where f is -inf.

    Its group element is the det-1 element of the one-parameter subgroup
    that scales the complement of the rows' span against the span, at a
    power where its norm exceeds DIVERGENCE_NORM.  It moves no point.
    """
    vals, vecs = np.linalg.eigh(v.T @ v.conj())
    null = _null(vals)
    out = null.sum()
    scale = 2 * DIVERGENCE_NORM
    g = (vecs * np.where(null, scale, scale ** (-out / (len(vals) - out)))
         ) @ vecs.conj().T
    return FlowReport("diverged", _residual(_moment_sum(v, mass, scalar)),
                      float(_norm(g)), 0, g, _read_only(v), 1.0, False,
                      -math.inf)


def balance_flow(cycle: BalanceCycle, tol: float = 1e-9,
                 max_iter: int = 100000) -> FlowReport:
    """Balance the cycle by damped Newton on Barthe's convex dual.

    With the unit rows v_i, c_i = (n+1) m_i / T and
    M(t) = sum_i e^(t_i) v_i v_i*, the function
    f(t) = log det M(t) - sum_i c_i t_i is convex on R^N, with gradient
    w - c, w_i = e^(t_i) v_i* M^(-1) v_i.  At a critical point
    M^(-1/2) balances the cycle, and f attains its minimum exactly when
    the cycle is polystable (Barthe, Invent. Math. 134, 1998; Kempf and
    Ness, LNM 732, 1979).  Each step follows _direction, and _step sets
    its length; f's rounding is 64 eps max(|f|, 1).

    After each step the report's group element g is Q M^(-1/2), Q
    unitary, scaled to |det| 1, and its points are the unit rows of
    g v_i.  The run stops converged when their moment sum has Frobenius
    norm below tol, diverged when the norm of g exceeds DIVERGENCE_NORM
    (f's minimum is not attained), and otherwise after max_iter steps.
    A stall, where no step can be told from rounding, stops as max_iter
    with the stalled flag set.  Rows that do not span C^(n+1) leave M
    singular for every t, and stop diverged at once.  The report's
    objective is the final f, bounded below on polystable input.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if max_iter < 0:
        raise ValueError(f"max_iter must not be negative, got {max_iter!r}")
    mass = np.asarray(cycle.masses)
    dim = cycle.n + 1
    v = _unit_rows(cycle.points)
    scalar = _scalar_part(mass, dim)
    c = mass / mass.sum() * dim
    # t = 0 is the move by 0 from the frame of the rows v themselves
    cur = _moved(_Point(0.0, np.eye(dim), v), np.zeros(len(v)), c)
    if cur is None:
        return _unspanned(v, mass, scalar)
    status, stalled, step, iterations = "max_iter", False, 1.0, 0
    while True:
        points = v @ cur.g.T
        points /= _row_norms(points)[:, None]
        residual = _residual(_moment_sum(points, mass, scalar))
        if residual < tol:
            status = "converged"
            break
        if _norm(cur.g) > DIVERGENCE_NORM:
            status = "diverged"
            break
        if iterations == max_iter:
            break
        found = _step(cur, _direction(cur, c), c)
        if found is None:
            stalled = True
            break
        cur, step = found
        iterations += 1
    return FlowReport(status, residual, float(_norm(cur.g)), iterations,
                      cur.g, _read_only(points), step, stalled, cur.f)


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
