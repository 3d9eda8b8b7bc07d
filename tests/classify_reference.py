"""The Fraction flat loop, the reference for classify.

reference_classify keys every flat of the support by its Fraction RREF
rows, keeps each flat's first spanning subset, and scans the flats in
that order with Fraction ratios: the first maximal violating ratio is
certified, and the flats on the boundary ratio are the witnesses.  The
certificate's destabilizer reads each point's Fraction coordinates in
the frame of search_reference._adapted_frame.
"""

from fractions import Fraction

from chowstab.geometry import DiagonalOnePS, ProjectivePoint
from chowstab.stability import (STABLE, STRICTLY_SEMISTABLE, UNSTABLE,
                                Destabilizer, InstabilityCertificate,
                                RatioRecord, StabilityVerdict, Subspace,
                                mumford_weight)
from exact_reference import fraction_rref
from search_reference import _adapted_frame, reference_subsets


def _fraction_span(points):
    rows = [list(p.coords) for p in points]
    rank, _ = fraction_rref(rows)
    return rank, tuple(map(tuple, rows[:rank]))


def reference_destabilizer(cycle, subspace):
    """The 1-PS with weights n-k on the subspace and -(k+1) off it, and
    its Chow weight summed point by point in the adapted coordinates."""
    n, k = cycle.ambient.n, subspace.dim
    _, basis, adapted = _adapted_frame(
        [p.coords for p in subspace.spanning_points], cycle.support(), n)
    ops = DiagonalOnePS(tuple([n - k] * (k + 1) + [-(k + 1)] * (n - k)))
    weight = sum((m * mumford_weight(ProjectivePoint(coords), ops)
                  for (_, m), coords in zip(cycle.points, adapted)),
                 Fraction(0))
    return Destabilizer(ops, basis, weight)


def reference_classify(cycle):
    n = cycle.ambient.n
    support = cycle.support()
    total = cycle.total_mass()
    threshold = Fraction(total, n + 1)
    flats = {}
    for idx, (_, rref) in reference_subsets(support, n, _fraction_span):
        flats.setdefault(rref, (idx, set()))[1].update(idx)
    boundary = []
    best = None
    for rref, (idx, members) in flats.items():
        v = Subspace([support[i] for i in idx])
        assert v.rref == rref, "Subspace differs from the Fraction RREF"
        mass = sum(cycle.points[i][1] for i in members)
        rec = RatioRecord(v, mass, total, Fraction(mass, len(rref)),
                          threshold)
        if rec.is_boundary:
            boundary.append(rec)
        elif rec.is_violating and (best is None or rec.ratio > best.ratio):
            best = rec
    if best is None:
        status = STRICTLY_SEMISTABLE if boundary else STABLE
        return StabilityVerdict(status, None, tuple(boundary))
    dest = reference_destabilizer(cycle, best.subspace)
    cert = InstabilityCertificate(**vars(best), destabilizer=dest)
    return StabilityVerdict(UNSTABLE, cert, tuple(boundary))
