"""The fixed-step moment flow that balance_flow replaced, kept as a reference.

reference_flow descends on SL(n+1) by g <- exp(-step mu) g, where mu is
the moment sum of the current rows.  The step starts at FIRST_STEP and
halves whenever the candidate would raise the residual beyond rounding
noise; the run stops converged when the residual drops below tol,
diverged when the norm of g exceeds DIVERGENCE_NORM, and otherwise at
max_iter, or stalled once the step falls to _MIN_STEP.  Every norm is
np.linalg.norm.  It minimises no convex function, so its reports carry
objective NaN.  The tests compare balance_flow's statuses with it where
it decides.
"""

import math

import numpy as np

from chowstab.balance import DIVERGENCE_NORM, FlowReport
from chowstab.errors import ZeroPoint

FIRST_STEP = 0.5
_MIN_STEP = 1e-15


def _unit_rows(v):
    top = np.maximum(abs(v.real), abs(v.imag)).max(axis=1)
    if not top.all():
        raise ZeroPoint("zero vector is not a projective point")
    v = v * np.ldexp(1.0, np.minimum(1 - np.frexp(top)[1], 1023))[:, None]
    return v / np.linalg.norm(v, axis=1)[:, None]


def _moment_sum(u, m):
    dim = u.shape[1]
    return (u.T * m) @ u.conj() - np.sum(m) / dim * np.eye(dim)


def _residual(moment):
    return float(np.linalg.norm(moment, "fro"))


def _expm_hermitian(h):
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(vals)) @ vecs.conj().T


def _read_only(a):
    a.setflags(write=False)
    return a


def reference_flow(cycle, tol=1e-9, max_iter=100000):
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if max_iter < 0:
        raise ValueError(f"max_iter must not be negative, got {max_iter!r}")
    mass = np.asarray(cycle.masses)
    step = FIRST_STEP
    base = cur = _read_only(_unit_rows(cycle.points))
    g = np.eye(cycle.n + 1, dtype=complex)
    m = _moment_sum(cur, mass)
    residual = _residual(m)
    if residual < tol:
        return FlowReport("converged", residual, float(np.linalg.norm(g)),
                          0, g, cur, step, False, math.nan)
    slack = 8.0 * np.finfo(float).eps
    status = "max_iter"
    stalled = False
    iterations = 0
    for it in range(1, max_iter + 1):
        improved = False
        while step > _MIN_STEP:
            cand_g = _expm_hermitian(-step * m) @ g
            cand = base @ cand_g.T
            cand /= np.linalg.norm(cand, axis=1)[:, None]
            cand_m = _moment_sum(cand, mass)
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
                      iterations, g, _read_only(cur), step, stalled, math.nan)
