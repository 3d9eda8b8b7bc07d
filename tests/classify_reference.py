"""The Fraction flat loop, the reference for classify.

reference_classify keys every flat of the support by its `Subspace`
(a Fraction RREF), keeps each flat's first spanning subset, and scans the
flats in that order with Fraction ratios: the first maximal violating
ratio is certified, and the flats on the boundary ratio are the witnesses.
"""

from fractions import Fraction

from chowstab.stability import (STABLE, STRICTLY_SEMISTABLE, UNSTABLE,
                                InstabilityCertificate, RatioRecord,
                                StabilityVerdict, _independent_subsets,
                                destabilizer_from_subspace)


def reference_classify(cycle):
    n = cycle.ambient.n
    total = cycle.total_mass()
    threshold = Fraction(total, n + 1)
    flats = {}
    for idx, (_, v) in _independent_subsets(cycle.support(), n):
        flats.setdefault(v.rref, (v, set()))[1].update(idx)
    boundary = []
    best = None
    for v, members in flats.values():
        mass = sum(cycle.points[i][1] for i in members)
        rec = RatioRecord(v, mass, total, Fraction(mass, v.dim + 1), threshold)
        if rec.is_boundary:
            boundary.append(rec)
        elif rec.is_violating and (best is None or rec.ratio > best.ratio):
            best = rec
    if best is None:
        status = STRICTLY_SEMISTABLE if boundary else STABLE
        return StabilityVerdict(status, None, tuple(boundary))
    dest = destabilizer_from_subspace(cycle, best.subspace)
    cert = InstabilityCertificate(**vars(best), destabilizer=dest)
    return StabilityVerdict(UNSTABLE, cert, tuple(boundary))
