"""The eager Donaldson-Futaki route, the reference for `df_invariant`.

It computes every r sample first and only then fits and checks the
dimensions and the traces, which is how `testconfig.df_invariant` read its
samples before it checked each held-out dimension as the sample arrived.
Both must give the same DFResult, or the same exception with the same
message, on every input: the lazy route only stops computing once the
outcome is decided.
"""

import math
from fractions import Fraction

from chowstab import testconfig
from chowstab.errors import PolynomialityFailed, VerificationFailed
from chowstab.exactcore import interpolate_poly
from chowstab.geometry import chow_multiplicities
from chowstab.hilbert import (ExpansionCoeffs, base_coeffs,
                              futaki_from_coeffs, lifting_shift)
from chowstab.stability import chow_weight
from chowstab.testconfig import CentralFibreData, DFResult


def eager_df_invariant(spec):
    """df_invariant with every sample computed before any check."""
    n = spec.cycle.ambient.n
    gamma = spec.gamma
    dims, traces, separation = {}, {}, {}
    for r in spec.r_samples:
        dim, tr, _, full = testconfig._central_summary(
            spec.cycle, spec.alpha, gamma * r, r)
        dims[r] = dim
        traces[r] = tr
        separation[r] = full
    try:
        dim_fit = interpolate_poly(
            [(r, Fraction(dims[r])) for r in spec.r_samples[:n + 1]],
            n,
            [(r, Fraction(dims[r])) for r in spec.r_samples[n + 1:]])
        trace_fit = interpolate_poly(
            [(r, traces[r]) for r in spec.r_samples[:n + 2]],
            n + 1,
            [(r, traces[r]) for r in spec.r_samples[n + 2:]])
    except VerificationFailed as exc:
        raise PolynomialityFailed(
            f"r samples {spec.r_samples} start below the polynomial range: "
            f"{exc}") from exc
    fitted = ExpansionCoeffs(dim_fit[n], dim_fit[n - 1] if n >= 1 else 0,
                             trace_fit[n + 1], trace_fit[n])
    lam_gamma = Fraction(sum(spec.alpha.weights), n + 1)
    normalized = lifting_shift(fitted, gamma * lam_gamma)
    f = futaki_from_coeffs(fitted)
    if f != futaki_from_coeffs(normalized):
        raise VerificationFailed("lifting shift moved F")
    ch = chow_weight(chow_multiplicities(spec.cycle), spec.alpha)
    predicted = None
    if n >= 2:
        f_base = futaki_from_coeffs(base_coeffs(n, spec.alpha))
        predicted = (f_base * gamma ** n
                     - ch * gamma / (2 * math.factorial(n - 2)))
    central = CentralFibreData(dims, traces, fitted, normalized, lam_gamma,
                               separation)
    return DFResult(gamma, f, predicted, ch, central)
