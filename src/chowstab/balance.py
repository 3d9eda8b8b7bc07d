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

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

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
_MIN_STEP = 1e-15


def _as_complex_point(coords: Sequence) -> np.ndarray:
    """A homogeneous coordinate list as a complex vector.

    Entries may be numbers (int, float, Fraction) or [re, im] pairs.
    """
    out = []
    for c in coords:
        if isinstance(c, (list, tuple)):
            if len(c) != 2:
                raise ValueError(f"complex entry {c!r} is not a [re, im] pair")
            out.append(complex(float(c[0]), float(c[1])))
        else:
            out.append(complex(float(c), 0.0))
    v = np.asarray(out, dtype=complex)
    if v.ndim != 1 or not np.any(v != 0):
        raise ZeroPoint("zero vector is not a projective point")
    return v


@dataclass(frozen=True, eq=False)
class BalanceCycle:
    """Complex points with their Chow masses, ready for the flow."""

    points: tuple[np.ndarray, ...]
    masses: tuple[float, ...]

    def __post_init__(self):
        if len(self.points) != len(self.masses):
            raise ValueError("points and masses differ in length")
        if not self.points:
            raise ValueError("empty configuration")
        dim = len(self.points[0])
        if any(len(p) != dim for p in self.points):
            raise ValueError("points of unequal dimension")
        if any(m <= 0 for m in self.masses):
            raise ValueError("masses must be positive")

    @property
    def n(self) -> int:
        return len(self.points[0]) - 1

    @classmethod
    def from_raw(cls, coords_list: Sequence[Sequence],
                 masses: Sequence[float]) -> "BalanceCycle":
        pts = tuple(_as_complex_point(c) for c in coords_list)
        return cls(pts, tuple(float(m) for m in masses))

    @classmethod
    def from_weighted(cls, cycle: WeightedCycle) -> "BalanceCycle":
        """Chow masses a_i^(n-1) attached to the support of a cycle."""
        chow = chow_multiplicities(cycle)
        pts = tuple(np.asarray([complex(c) for c in p.coords])
                    for p, _ in chow.points)
        masses = tuple(float(a) for _, a in chow.points)
        return cls(pts, masses)


def _scaled(v: np.ndarray) -> np.ndarray:
    """v times the power of two that brings its largest real or imaginary
    part into [1, 2), or as close as a float factor allows.

    The scaling is exact, so v/|v| and v v*/|v|^2 keep their bits, while
    |v|^2 can no longer overflow or underflow.
    """
    top = max(abs(x) for z in v.tolist() for x in (z.real, z.imag))
    return v * math.ldexp(1.0, min(1 - math.frexp(top)[1], 1023))


@functools.cache
def _scalar_part(dim: int) -> np.ndarray:
    """I/dim, built once per dimension and shared read-only."""
    part = np.eye(dim) / dim
    part.setflags(write=False)
    return part


def _moment(v: np.ndarray) -> np.ndarray:
    norm2 = float(np.vdot(v, v).real)
    if norm2 == 0.0:
        raise ZeroPoint("zero vector is not a projective point")
    return np.outer(v, v.conj()) / norm2 - _scalar_part(len(v))


def moment_map(p) -> np.ndarray:
    """Fubini-Study moment map p p*/|p|^2 - I/(n+1), Hermitian traceless."""
    return _moment(_scaled(p if isinstance(p, np.ndarray)
                           else _as_complex_point(p)))


def total_moment(cycle: BalanceCycle,
                 points: Optional[Sequence[np.ndarray]] = None) -> np.ndarray:
    """Mass-weighted moment sum, optionally at substituted point positions.

    The cycle's own points are scaled as in moment_map; substituted points
    (the flow's unit vectors) are taken as given, to save the flow time.
    """
    pts = map(_scaled, cycle.points) if points is None else points
    dim = cycle.n + 1
    acc = np.zeros((dim, dim), dtype=complex)
    for p, m in zip(pts, cycle.masses):
        acc += m * _moment(p)
    return acc


def _residual(moment: np.ndarray) -> float:
    return float(np.linalg.norm(moment, "fro"))


def balance_residual(cycle: BalanceCycle,
                     points: Optional[Sequence[np.ndarray]] = None) -> float:
    """Frobenius norm of the mass-weighted moment sum; zero iff balanced."""
    return _residual(total_moment(cycle, points))


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
    points: tuple[np.ndarray, ...]
    final_step: float
    stalled: bool = False


def balance_flow(cycle: BalanceCycle, step: float = 0.5,
                 tol: float = 1e-9, max_iter: int = 100000) -> FlowReport:
    """Deterministic moment descent g <- exp(-step * mu) g.

    The step is halved whenever the candidate update would increase the
    residual beyond rounding noise, so the accepted residual sequence is
    non-increasing (the baseline is updated with min).  Plateau steps are
    accepted: near an unattained infimum the residual flatlines in double
    precision while the group element still drifts, and accepting the
    drift lets the divergence test fire instead of stalling just under
    it.  The run stops when the residual drops below tol (converged),
    when the group element norm exceeds DIVERGENCE_NORM (diverged, the
    Kempf-Ness infimum is not attained), or at max_iter.  A stall (step
    underflow with no progress) is reported as max_iter with the stalled
    flag set.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    base = tuple(v / np.linalg.norm(v) for v in map(_scaled, cycle.points))
    dim = len(base[0])
    g = np.eye(dim, dtype=complex)
    cur = base
    m = total_moment(cycle, cur)
    residual = _residual(m)
    if residual < tol:
        return FlowReport("converged", residual, float(np.linalg.norm(g)),
                          0, g, cur, step)
    slack = 8.0 * np.finfo(float).eps
    status = "max_iter"
    stalled = False
    iterations = 0
    for it in range(1, max_iter + 1):
        improved = False
        while step > _MIN_STEP:
            cand_g = _expm_hermitian(-step * m) @ g
            cand = tuple(v / np.linalg.norm(v)
                         for v in (cand_g @ p for p in base))
            cand_m = total_moment(cycle, cand)
            r = _residual(cand_m)
            if r <= residual + slack * max(residual, 1.0):
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
        if np.linalg.norm(g) > DIVERGENCE_NORM:
            status = "diverged"
            break
    return FlowReport(status, residual, float(np.linalg.norm(g)),
                      iterations, g, cur, step, stalled)


def _hermitian_to_real(h: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian matrix (diagonal, then off-diagonal)."""
    dim = h.shape[0]
    parts = [h.diagonal().real]
    for i in range(dim):
        for j in range(i + 1, dim):
            parts.append([h[i, j].real, h[i, j].imag])
    return np.concatenate([np.atleast_1d(np.asarray(p)) for p in parts])


def check_spanning(cycle: BalanceCycle) -> bool:
    """Do the moment images span the traceless Hermitian space?

    Numerical rank via singular values with a relative threshold; the
    target dimension is (n+1)^2 - 1.
    """
    rows = np.stack([_hermitian_to_real(moment_map(p))
                     for p in cycle.points])
    sv = np.linalg.svd(rows, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return False
    rank = int(np.sum(sv > SPAN_THRESHOLD * sv[0]))
    dim = cycle.n + 1
    return rank == dim * dim - 1


def check_no_common_zero(cycle: WeightedCycle) -> bool:
    """No nonzero traceless matrix fixes every support point (exact test).

    Solves the homogeneous rational system A p_i = c_i p_i in the entries
    of A and the scalars c_i.  The identity (A = I, all c_i = 1) always
    solves it; any further kernel direction yields, after removing the
    trace, a nonzero traceless solution, so the check fails exactly when
    the kernel has dimension greater than one.
    """
    if not cycle.ambient.is_projective:
        raise ValueError("common-zero check needs a projective ambient")
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
