"""The per-weight-vector scoring loop, the reference for the search.

reference_search walks the frames that exhaustive_ops_search answers
for (the standard basis, then every independent subset of at most n+1
support points, by size, then lexicographic, completed greedily by
standard vectors), each from a Fraction elimination in _adapted_frame,
and scores every weight vector of every frame one point at a time, in
exact Python integers, keeping the smallest key (-score, weight vector,
frame order).  exhaustive_ops_search scores no frame: it reads the
answer off the flats of maximal excess, so the two share no step.
_int_frame is a frame from one integer elimination, the reference for
stability's pivot step.
"""

import itertools
from fractions import Fraction

from chowstab.errors import VerificationFailed
from chowstab.exactcore import _rref
from chowstab.stability import SearchResult
from exact_reference import fraction_rref


def reference_subsets(points, max_size, span):
    """Yield (indices, span(subset)) for every independent subset.

    Subsets of at most max_size points come from itertools.combinations
    by size, each kept when the Fraction rank, the first entry of what
    `span` returns, equals its size.  Every subset of an independent set
    is independent, so this is the order in which stability grows
    independent subsets one point at a time.
    """
    for size in range(1, min(len(points), max_size) + 1):
        for idx in itertools.combinations(range(len(points)), size):
            found = span([points[i] for i in idx])
            if found[0] == size:
                yield idx, found


def _adapted_frame(vectors, points, n):
    """Basis of Q^(n+1) adapted to the span of `vectors`, in one elimination.

    The basis is the first independent vectors in order, completed by the
    first standard vectors e_0, e_1, ... outside their span.  One RREF of
    the columns [vectors | e_0..e_n | points] does it all: its pivot
    columns are that greedy choice, and each point's reduced column holds
    its coordinates in the basis.  Returns the number of independent
    vectors, the basis rows and the coordinates of every point.
    """
    m = len(vectors)
    std = [tuple(Fraction(int(i == j)) for j in range(n + 1))
           for i in range(n + 1)]
    cols = list(vectors) + std + [p.coords for p in points]
    rows = [list(r) for r in zip(*cols)]
    rank, pivots = fraction_rref(rows)
    if rank != n + 1:
        raise VerificationFailed("standard vectors did not complete a basis")
    basis = tuple(tuple(cols[c]) for c in pivots)
    coords = [[row[c] for row in rows] for c in range(m + n + 1, len(cols))]
    return sum(c < m for c in pivots), basis, coords


def _int_frame(vectors, points, n):
    """The frame of `_adapted_frame` from one integer elimination.

    One `exactcore._rref` of the columns [vectors | e_0..e_n | points]:
    its pivot columns are the greedy choice, and each point's reduced
    column has the zero pattern of its coordinates in the basis, as
    scaling a column changes neither.  Returns the number of independent
    vectors, the pivots and each point's support mask, whose bit i is set
    when its i-th coordinate in the basis is nonzero.
    """
    m = len(vectors)
    std = [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
    cols = list(vectors) + std + list(points)
    rows = [list(r) for r in zip(*cols)]
    rank, pivots = _rref(rows)
    if rank != n + 1:
        raise VerificationFailed("standard vectors did not complete a basis")
    masks = [sum(1 << i for i, row in enumerate(rows) if row[c])
             for c in range(m + n + 1, len(cols))]
    return sum(c < m for c in pivots), pivots, masks


def reference_search(cycle, bound):
    n = cycle.ambient.n
    support = cycle.support()
    masses = [m for _, m in cycle.points]

    def frame(points):
        return _adapted_frame([p.coords for p in points], support, n)

    frames = {}
    subsets = reference_subsets(support, n + 1, frame)
    for idx, (_, basis, coords) in itertools.chain([((), frame([]))],
                                                   subsets):
        frames.setdefault(basis, (idx, coords))

    best_key = None
    best = None
    for order, (basis, (idx, adapted)) in enumerate(frames.items()):
        masks = [tuple(i for i, c in enumerate(coords) if c != 0)
                 for coords in adapted]
        for wvec in itertools.product(range(-bound, bound + 1), repeat=n + 1):
            s = sum(wvec)
            score = 0
            for mask, m in zip(masks, masses):
                score += m * ((n + 1) * min(wvec[i] for i in mask) - s)
            key = (-score, wvec, order)
            if best_key is None or key < best_key:
                best_key = key
                best = (score, wvec, idx, basis)
    score, wvec, idx, basis = best
    return SearchResult(Fraction(score, n + 1), wvec, basis, idx)
