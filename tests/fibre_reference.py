"""The PolyT route to the central fibre, the reference for graded_limit.

moving_section_family builds the t-family of section spaces explicitly,
limit_subspace takes its flat limit by elimination over Q[t], and the
graded dimensions are the ranks of the limit's projections onto the
weight blocks of the monomial basis.  The limit is weight-homogeneous, so
those block ranks must add up to its dimension.

reference_vanishing_orders is the Fraction probe that central_fibre_cycle
replaced by an integer test: every jet row against every limit basis
vector, with Fraction sums over all entries.
"""

from fractions import Fraction

from chowstab.exactcore import limit_subspace
from chowstab.geometry import collision_clusters
from chowstab.hilbert import MonomialBasis, _int_jet_rows, fat_point_length
from chowstab.testconfig import central_fibre_sections, moving_section_family
from exact_reference import fraction_rref


def span_equal(rows_a, rows_b):
    a = [[Fraction(x) for x in r] for r in rows_a]
    b = [[Fraction(x) for x in r] for r in rows_b]
    ra, _ = fraction_rref([r[:] for r in a])
    rb, _ = fraction_rref([r[:] for r in b])
    rab, _ = fraction_rref([r[:] for r in a + b])
    return ra == rb == rab


def reference_fibre(cycle, alpha, gamma, r):
    """(basis, graded dims, trace) of the flat limit by the PolyT route."""
    fam = moving_section_family(cycle, alpha, gamma, r)
    lim = limit_subspace(fam.basis)
    mu = MonomialBasis(cycle.ambient.n, fam.degree).weights(alpha)
    graded = {}
    for c in sorted(set(mu)):
        cols = [j for j, w in enumerate(mu) if w == c]
        rk, _ = fraction_rref([[row[j] for j in cols] for row in lim])
        if rk:
            graded[c] = rk
    assert sum(graded.values()) == len(lim), \
        f"block ranks {graded} do not add up to the limit dimension {len(lim)}"
    trace = sum((Fraction(-c) * d for c, d in graded.items()), Fraction(0))
    return lim, graded, trace


def checked_fibre(cycle, alpha, gamma, r=1):
    """central_fibre_sections at degree gamma*r, checked against the
    reference route: same graded dimensions, trace and span."""
    fibre = central_fibre_sections(cycle, alpha, gamma * r, r)
    lim, graded, trace = reference_fibre(cycle, alpha, gamma, r)
    assert fibre.graded_dims == graded
    assert fibre.trace == trace
    assert fibre.dim == len(lim)
    assert span_equal(fibre.basis, lim)
    return fibre


def reference_vanishing_orders(cycle, alpha, degree):
    """(dim, {collision point: order}) of central_fibre_cycle at one probe
    degree, by Fraction sums of every jet row against every basis vector."""
    n = cycle.ambient.n
    fibre = central_fibre_sections(cycle, alpha, degree)
    orders = {}
    if fibre.dim:
        basis = MonomialBasis(n, degree)
        for q in collision_clusters(cycle, alpha):
            rows = _int_jet_rows(q, degree + 1, basis)
            o = 0
            while o <= degree and all(
                    sum(a * b for a, b in zip(row, v)) == 0
                    for row in rows[fat_point_length(n, o):
                                    fat_point_length(n, o + 1)]
                    for v in fibre.basis):
                o += 1
            orders[q] = o
    return fibre.dim, orders
