"""The per-weight-vector scoring loop, the reference for the search.

reference_search enumerates the same adapted frames as
exhaustive_ops_search and scores every weight vector of every frame one
point at a time, in exact Python integers, keeping the smallest key
(-score, weight vector, frame order).
"""

import itertools
from fractions import Fraction

from chowstab.stability import (SearchResult, _adapted_frame,
                                _independent_subsets)


def reference_search(cycle, bound):
    n = cycle.ambient.n
    support = cycle.support()
    masses = [m for _, m in cycle.points]
    frames = {}
    subsets = [()] + [idx for idx, _ in _independent_subsets(support, n + 1)]
    for idx in subsets:
        _, basis, coords = _adapted_frame(
            [support[i].coords for i in idx], support, n)
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
