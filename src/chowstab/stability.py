"""Chow stability of weighted 0-cycles under diagonal 1-PS actions.

The Mumford weight of a point uses the traceless normalization of the
weight vector and the minimum over the support of the point, so a cycle is
destabilized exactly by the 1-PS with positive total weight.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd
from operator import index
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import SubspaceNotSpannedBySupport, VerificationFailed
from .exactcore import _check_shape, _primitive, _rref
from .geometry import DiagonalOnePS, ProjectivePoint, WeightedCycle

__all__ = [
    "mumford_weight",
    "chow_weight",
    "Subspace",
    "RatioRecord",
    "Destabilizer",
    "InstabilityCertificate",
    "StabilityVerdict",
    "SearchResult",
    "destabilizer_from_subspace",
    "classify",
    "exhaustive_ops_search",
    "STABLE",
    "STRICTLY_SEMISTABLE",
    "UNSTABLE",
]

STABLE = "stable"
STRICTLY_SEMISTABLE = "strictly_semistable"
UNSTABLE = "unstable"


def _scaled_weight(weights: Sequence[int], support: Iterable[int]) -> int:
    """(n+1) times the Mumford weight: (n+1) min(w_i, i in support) - sum(w)."""
    return len(weights) * min(weights[i] for i in support) - sum(weights)


def mumford_weight(x: ProjectivePoint, alpha: DiagonalOnePS) -> Fraction:
    """min of the traceless weights over the nonzero coordinates of x."""
    w = alpha.weights
    if len(w) != len(x.coords):
        raise ValueError("weight vector length does not match the point")
    return Fraction(_scaled_weight(w, x.support()), len(w))


def chow_weight(cycle: WeightedCycle, alpha: DiagonalOnePS) -> Fraction:
    """Total Chow weight: multiplicity-weighted sum of Mumford weights."""
    return sum((m * mumford_weight(p, alpha) for p, m in cycle.points),
               Fraction(0))


# ---------------------------------------------------------------------------
# linear subspaces spanned by support points


class Subspace:
    """A linear subspace of P^n spanned by cycle support points."""

    __slots__ = ("rref", "spanning_points")

    def __init__(self, spanning_points: Sequence[ProjectivePoint]):
        pts = tuple(spanning_points)
        if not pts:
            raise ValueError("a subspace needs at least one spanning point")
        # each integer RREF row over its pivot entry is the rational RREF row
        rows = [_primitive(p.coords) for p in pts]
        _check_shape(rows, len(rows[0]), "spanning points")
        _, pivots = _rref(rows)
        self.rref = tuple(tuple(Fraction(x, r[c]) for x in r)
                          for r, c in zip(rows, pivots))
        self.spanning_points = pts

    @property
    def dim(self) -> int:
        """Projective dimension."""
        return len(self.rref) - 1

    @property
    def ambient_dim(self) -> int:
        return len(self.rref[0]) - 1

    def contains(self, p: ProjectivePoint) -> bool:
        probe = [_primitive(r) for r in self.rref] + [_primitive(p.coords)]
        _check_shape(probe, self.ambient_dim + 1, "subspace rows and point")
        return _rref(probe)[0] < len(probe)

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.rref == other.rref

    def __hash__(self):
        return hash(self.rref)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, spanned by {self.spanning_points})"


@dataclass(frozen=True)
class RatioRecord:
    """One examined subspace with its mass ratio data."""

    subspace: Subspace
    mass_on_v: int
    total_mass: int
    ratio: Fraction       # mass_on_v / (dim V + 1)
    threshold: Fraction   # total_mass / (n + 1)

    @property
    def is_violating(self) -> bool:
        return self.ratio > self.threshold

    @property
    def is_boundary(self) -> bool:
        return self.ratio == self.threshold


@cache
def _cofactors(ncoords: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Index table (i, s) of the maps w -> (v -> w ^ v) for k-wedges.

    A k-wedge on Q^ncoords has one entry per k-subset of the coordinates,
    in lexicographic order.  For each (k+1)-subset T, the cofactor
    expansion is (w ^ v)_T = sum s * w_i * v_t over t in T, where i is the
    index of T - {t} among the k-subsets and s = (-1)^(k + position of t
    in T).  Row T of the two (C(ncoords, k+1), ncoords) arrays holds i and
    s at column t, and s = 0 for t not in T.  So for k-wedges stacked as
    the rows of W, W[:, i] * s stacks the matrices of the maps v -> w ^ v.
    """
    index = {sub: i for i, sub in
             enumerate(itertools.combinations(range(ncoords), k))}
    subsets = list(itertools.combinations(range(ncoords), k + 1))
    i = np.zeros((len(subsets), ncoords), dtype=np.intp)
    s = np.zeros((len(subsets), ncoords), dtype=np.int64)
    for row, T in enumerate(subsets):
        for j, t in enumerate(T):
            i[row, t] = index[T[:j] + T[j + 1:]]
            s[row, t] = (-1) ** (k + j)
    i.setflags(write=False)
    s.setflags(write=False)
    return i, s


# entries of the wedge products of one block of parents in `_flat_keys`
_BLOCK = 1 << 18


def _flat_keys(vectors: Sequence[Sequence[int]], max_size: int):
    """Yield (indices, key) for every independent subset of vectors.

    Subsets have at most max_size vectors and come by size, then in
    lexicographic index order; each one extends an independent subset
    that is one vector smaller, so a span first shows up with a minimal
    spanning subset.  The key of a rank-k span is k and the primitive
    wedge w of its spanning vectors, made positive at its first nonzero
    entry, so two spans share a key exactly when they are equal; a subset
    is independent exactly when its wedge is nonzero.

    The wedges are taken in the pivot coordinates of the vectors' span:
    the span's RREF basis has a unit matrix there, so reading those
    coordinates maps the span isomorphically onto Q^rank, and its
    subspaces keep their ranks and their equalities.  A wedge then has
    C(rank, k) entries, not C(n+1, k): few points in a large ambient space
    stay cheap.

    The singletons are the primitive vectors.  Each later layer is one
    integer product (`_wedge_block`): the parents' wedges W, one row each,
    through the cofactor table (`_cofactors`) give the maps v -> w ^ v,
    and one product with the vectors gives every parent's wedge with every
    vector, of which the later indices are kept.  A large layer goes in
    blocks of parents, each product holding about _BLOCK entries.  Its
    entries are sums of k+1 terms w_i v_t, so the layer runs in int64
    while (k+1) max|W| max|V| < 2^63, and on Python ints (dtype object)
    above that.
    """
    if max_size < 1:
        return
    rank, pivots = _rref([list(v) for v in vectors])
    coords = [[v[c] for c in pivots] for v in vectors]
    parents, wedges = [], []
    for j, v in enumerate(coords):
        g = gcd(*v)
        if g:
            if next(filter(None, v)) < 0:
                g = -g
            w = tuple(v) if g == 1 else tuple([e // g for e in v])
            yield (j,), (1, w)
            parents.append((j,))
            wedges.append(w)
    if not parents:
        return
    # a primitive vector's entries are at most the vector's
    top = w_top = max(map(abs, itertools.chain.from_iterable(coords)))
    w = wedges
    # a subset of more than `rank` vectors is dependent
    for k in range(1, min(len(coords), max_size, rank)):
        dtype = np.int64 if (k + 1) * w_top * top < 2 ** 63 else object
        i, s = _cofactors(rank, k)
        v = np.array(coords, dtype=dtype).T
        w = np.asarray(w, dtype=dtype)
        last = np.array([idx[-1] for idx in parents])
        # parents go in blocks, so a block's products stay near _BLOCK entries
        step = max(1, _BLOCK // (len(i) * len(coords)))
        # the last layer's children are no parents
        grows = k + 1 < max_size
        children, grown = [], []
        for b in range(0, len(parents), step):
            ps, js, x = _wedge_block(w[b:b + step], v, i, s, last[b:b + step])
            for p, j, wedge in zip((ps + b).tolist(), js.tolist(), x.tolist()):
                child = parents[p] + (j,)
                yield child, (k + 1, tuple(wedge))
                if grows:
                    children.append(child)
            if grows:
                grown.append(x)
        if not children:
            return
        parents, w = children, np.concatenate(grown)
        w_top = int(abs(w).max())


def _wedge_block(w: np.ndarray, v: np.ndarray, i: np.ndarray, s: np.ndarray,
                 last: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The independent children of a block of parents, and their wedges.

    w holds the parents' k-wedges as rows, v the vectors as columns and
    (i, s) is `_cofactors`.  Returns (p, j, x): the pairs, in row order,
    of a parent p and a vector j after its last index `last[p]` and
    outside its span, and the rows of x, the primitive wedges w_p ^ v_j,
    positive at their first nonzero entry.
    """
    # (parent, T, j) -> (w_p ^ v_j)_T
    x = (w[:, i] * s) @ v
    # from 0: on object arrays a one-entry reduce returns the entry, sign
    # and all
    g = np.gcd.reduce(x, axis=1, initial=0)
    p, j = ((g != 0) & (np.arange(v.shape[1]) > last[:, None])).nonzero()
    x, g = x[p, :, j], g[p, j]
    lead = x[np.arange(len(x)), (x != 0).argmax(axis=1)]
    x //= (g * np.sign(lead))[:, None]
    return p, j, x


def _flats(keyed: Iterable[tuple]) -> dict:
    """`_flat_keys` output as key -> (first spanning subset, members): each
    support point of a flat lies in one of its spanning subsets, so their
    union is every support point on it."""
    flats: dict = {}
    for idx, key in keyed:
        flats.setdefault(key, (idx, set()))[1].update(idx)
    return flats


@dataclass(frozen=True)
class Destabilizer:
    """A destabilizing 1-PS in coordinates adapted to a subspace."""

    ops: DiagonalOnePS
    adapted_basis: tuple[tuple[Fraction, ...], ...]
    chow_weight: Fraction


def _pivot(state: tuple, j: int) -> Optional[tuple]:
    """A frame grown by support point j: one fraction-free pivot step.

    A frame is a basis: m chosen support points, then e_i for i in J, the
    greedy completion (each e_i outside the span V of the chosen points
    and the e_h, h < i).  Its state is (J, cols): cols[i] is support point
    i's integer coordinates in the basis, up to a nonzero scalar of its
    own, so its zero pattern is exact.  The root has J = (0..n) and the
    primitive points.  Let c = cols[j] and t the last position in J with
    c[m+t] != 0.  With none, j lies in V: None.  Else, modulo V, j is a
    combination of the e_J[u] whose last term is at J[t], so e_J[t] is the
    one e that falls into V + <j> + <e_h, h < J[t]>; the e_J[u], u < t,
    stay out (a relation would need a multiple of j with no term past
    J[u]), as do the e_J[u], u > t (j already lies in V + <e_h, h < J[u]>).
    So J' = J - {J[t]}.  With e_J[t] traded for c's own vector, a multiple
    of j, a column a with b = a[m+t] becomes, times piv = c[m+t],
    a_i piv - b c_i for i < m, then b, then a_(m+u) piv - b c_(m+u) for
    u != t, over its content; at b = 0 only its zero moves to position m.
    """
    J, cols = state
    c = cols[j]
    m = len(c) - len(J)
    p = next((u for u in range(len(c) - 1, m - 1, -1) if c[u]), None)
    if p is None:
        return None
    piv = c[p]
    grown = []
    for a in cols:
        b = a[p]
        if b:
            a = [ai * piv - b * ci for ai, ci in zip(a, c)]
        a = a[:m] + [b] + a[m:p] + a[p + 1:]
        g = gcd(*a) if b else 1
        grown.append([e // g for e in a] if g > 1 else a)
    return J[:p - m] + J[p - m + 1:], grown


# the entries of a standard vector, off and on its coordinate
_UNIT = (Fraction(0), Fraction(1))


def _frame_basis(vectors: Sequence[Sequence[Fraction]], J: Sequence[int],
                 n: int) -> tuple[tuple[Fraction, ...], ...]:
    """A frame's basis in Fractions: the chosen vectors, then e_j, j in J."""
    return tuple(tuple(v) for v in vectors) + tuple(
        tuple(_UNIT[i == j] for i in range(n + 1)) for j in J)


def destabilizer_from_subspace(cycle: WeightedCycle,
                               subspace: Subspace) -> Destabilizer:
    """Adapted 1-PS with weights n-k on V and -(k+1) off V.

    The returned Chow weight always satisfies the closed form
    (n+1)*massOnV - totalMass*(k+1), which is positive exactly when the
    subspace violates the ratio criterion.
    """
    n = cycle.ambient.n
    support = cycle.support()
    where = {p: i for i, p in enumerate(support)}
    for p in subspace.spanning_points:
        if p not in where:
            raise SubspaceNotSpannedBySupport(f"{p!r} is not a support point")
    k = subspace.dim
    if k > n - 1:
        raise ValueError("subspace must be proper")
    # the frame grows by each spanning point in turn, skipping dependent ones
    frame = (tuple(range(n + 1)), [_primitive(p.coords) for p in support])
    chosen = []
    for p in subspace.spanning_points:
        grown = _pivot(frame, where[p])
        if grown is not None:
            frame = grown
            chosen.append(p.coords)
    if len(chosen) != k + 1:
        raise VerificationFailed(
            f"{len(chosen)} independent spanning points for dimension {k}")
    ops = DiagonalOnePS(tuple([n - k] * (k + 1) + [-(k + 1)] * (n - k)))
    scaled = 0
    mass_on_v = 0
    for (_, m), col in zip(cycle.points, frame[1]):
        # a point's weight depends only on its support in the basis
        scaled += m * _scaled_weight(ops.weights,
                                     (i for i, x in enumerate(col) if x))
        # p lies in V exactly when it needs no completing basis vector
        if not any(col[k + 1:]):
            mass_on_v += m
    total = Fraction(scaled, n + 1)
    closed_form = Fraction((n + 1) * mass_on_v
                           - cycle.total_mass() * (k + 1))
    if total != closed_form:
        raise VerificationFailed(
            f"adapted weight {total} differs from the closed form "
            f"{closed_form}")
    return Destabilizer(ops, _frame_basis(chosen, frame[0], n), total)


@dataclass(frozen=True)
class InstabilityCertificate(RatioRecord):
    """Self-contained evidence that a cycle is Chow unstable."""

    destabilizer: Destabilizer


@dataclass(frozen=True)
class StabilityVerdict:
    status: str
    certificate: Optional[InstabilityCertificate]
    witness_ratios: tuple[RatioRecord, ...]

    @property
    def is_unstable(self) -> bool:
        return self.status == UNSTABLE


def classify(cycle: WeightedCycle) -> StabilityVerdict:
    """Full stability verdict with a certificate in the unstable case.

    The certified subspace maximizes mass/(dim+1); ties prefer lower
    dimension, then the lexicographically earliest spanning subset.
    witness_ratios collects the subspaces sitting exactly on the boundary
    ratio, which separate the stable and strictly semistable outcomes.

    The scan eliminates no candidate subset.  It keys each rank-k flat by
    (k, w), where w is the wedge v_1 ^ ... ^ v_k of its spanning points'
    primitive vectors, divided by its content and made positive at its
    first nonzero entry.  A subset is independent exactly when its wedge
    is nonzero, and two subsets span the same flat exactly when their
    keys are equal.  A child's wedge is its parent's wedged with one more
    vector, and each layer of subsets of one size is one integer product
    of its parents' wedges with the support (`_flat_keys`).  Wedges are
    taken in the coordinates of the support's span, so for a support of
    rank r each has C(r, k) exact integers.  Only the boundary and
    certified flats become a `Subspace`, whose rank must be k.
    """
    n = cycle.ambient.n
    support = cycle.support()
    total = cycle.total_mass()
    threshold = Fraction(total, n + 1)

    def record(idx, mass, rank):
        v = Subspace([support[i] for i in idx])
        # the Subspace eliminates what the scan wedged: same rank or a bug
        if v.dim + 1 != rank:
            raise VerificationFailed(
                f"Subspace of rank {v.dim + 1} for a flat of wedge rank "
                f"{rank}")
        return RatioRecord(v, mass, total, Fraction(mass, rank), threshold)

    flats = _flats(_flat_keys([_primitive(p.coords) for p in support], n))
    boundary = []
    best = None  # (idx, mass, rank) of the running maximal violator
    # scan order is (dim, spanning idx), so the first maximal ratio wins;
    # mass/rank against total/(n+1) and the best ratio, cross-multiplied
    masses = [m for _, m in cycle.points]
    for (rank, _), (idx, members) in flats.items():
        mass = sum(map(masses.__getitem__, members))
        side = (n + 1) * mass - total * rank
        if side == 0:
            boundary.append(record(idx, mass, rank))
        elif side > 0 and (best is None or mass * best[2] > best[1] * rank):
            best = (idx, mass, rank)
    if best is None:
        status = STRICTLY_SEMISTABLE if boundary else STABLE
        return StabilityVerdict(status, None, tuple(boundary))
    rec = record(*best)
    dest = destabilizer_from_subspace(cycle, rec.subspace)
    # the scan's mass comes from the flat's members, the destabilizer's
    # from the frame's zero patterns: they must give the same weight
    rank = rec.subspace.dim + 1
    if dest.chow_weight != (n + 1) * rec.mass_on_v - total * rank:
        raise VerificationFailed(
            f"destabilizer weight {dest.chow_weight} disagrees with the "
            f"mass {rec.mass_on_v} of the scanned flat")
    cert = InstabilityCertificate(**vars(rec), destabilizer=dest)
    return StabilityVerdict(UNSTABLE, cert, tuple(boundary))


# ---------------------------------------------------------------------------
# the best integer weight vector in [-B, B]^(n+1), read off the flats


@dataclass(frozen=True)
class SearchResult:
    weight: Fraction
    weights: tuple[int, ...]
    basis: tuple[tuple[Fraction, ...], ...]
    basis_points: tuple[int, ...]  # support indices, () for the standard basis


def _completion(vectors: Sequence[Sequence[int]], n: int) -> tuple:
    """(J, units) for the span V of independent integer vectors.

    J holds the e_j that complete V greedily, e_j outside V + <e_h, h < j>:
    those j that are the last nonzero coordinate of no vector of V.  The
    bit j of `units` is set when e_j lies in V.  One RREF with the
    coordinates reversed gives both: its pivots are those last nonzero
    coordinates, and e_j lies in V exactly when a reduced row is a
    multiple of it.
    """
    rows = [v[::-1] for v in vectors]
    # one primitive vector is its own reduced form, up to sign
    pivots = _rref(rows)[1] if len(rows) > 1 else [
        next(c for c, x in enumerate(rows[0]) if x)]
    dropped = {n - c for c in pivots}
    units = sum(1 << (n - c) for row, c in zip(rows, pivots)
                if sum(map(bool, row)) == 1)
    return tuple(j for j in range(n + 1) if j not in dropped), units


def exhaustive_ops_search(cycle: WeightedCycle, bound: int) -> SearchResult:
    """Maximal Chow weight over all integer weight vectors in [-B, B].

    Weight vectors run in coordinates adapted to every independent subset
    of at most n+1 support points (in index order, completed greedily by
    standard vectors), plus the standard basis; frames come by subset
    size, then in lexicographic order, the standard basis first.  Ties keep
    the lexicographically smallest weight vector, then the earliest frame.
    This is the reference oracle for classify.  No frame is scored one
    weight vector at a time: the answer is read off the scan's flats.

    Sign vectors.  In one frame the score sum_p m_p((n+1) min(w_i, i in
    mask_p) - sum(w)) is concave and linear on each order cone, which
    meets the cube in a Kuhn simplex with vertices B*s, s in {-1, 1}^(n+1).
    So the frame's lexicographically first maximizer is a B*s.  With T the
    +1 positions of s, the score of B*s is 2B((n+1) M_f(T) - total*|T|),
    M_f(T) the mass of the support points in the span V_T of the basis
    vectors b_t, t in T, and s comes at position sum(2^(n-t), t in T) of
    the sign vectors in `itertools.product((-1, 1))` order, the
    lexicographic one.

    The value.  With exc(F) = (n+1) mass(F) - total*rank(F) for the flats
    F spanned by support points, let V* = max(0, max exc(F)) over those of
    rank at most n.
    The points in V_T span a flat of mass M_f(T) and rank at most |T|, so
    no score exceeds 2B V*.  T = {} scores 0, and a flat's first spanning
    subset scores 2B exc(F) in its frame at T = {0..rank-1}.  So the
    weight is 2B V*/(n+1).  When V* = 0 or B = 0, T = {} in the standard
    frame, the first sign vector in the first frame, is the answer.

    The winners.  Otherwise (f, T) reaches 2B V* exactly when V_T is a
    max-excess flat F: when the b_t, t in T, lie in F and |T| = rank F.
    Then T = {t : b_t in F}, as at most rank F independent b_t lie in F.
    A frame's vectors in F are its points that are members of F, then the
    kept e_j that lie in F (`_completion`).  Each frame's least such
    position is compared in frame order; a smaller one replaces the best.
    The winner's J comes from `_pivot` steps over its points, and its
    support masks must score 2B V* at its T, or VerificationFailed.
    """
    bound = index(bound)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    n = cycle.ambient.n
    support = cycle.support()
    masses = [m for _, m in cycle.points]
    total = sum(masses)
    ints = [_primitive(p.coords) for p in support]
    subsets = list(_flat_keys(ints, n))
    flats = _flats(subsets)
    excess = {key: (n + 1) * sum(map(masses.__getitem__, members))
              - total * key[0] for key, (_, members) in flats.items()}
    top = max(excess.values(), default=0)
    if top <= 0 or bound == 0:
        return SearchResult(Fraction(0), (-bound,) * (n + 1),
                            _frame_basis([], range(n + 1), n), ())
    # J and the bits of the e_j in the span, by flat; the standard frame
    # keeps every e_j, a frame of n+1 points none
    completions = {"root": (tuple(range(n + 1)), 0), "full": ((), 0)}

    def completion(key):
        if key not in completions:
            completions[key] = _completion(
                [ints[i] for i in flats[key][0]], n)
        return completions[key]

    def frames():
        """(points, key) of every frame, in the walk's order."""
        yield (), "root"
        yield from subsets
        for idx, key in subsets:
            if len(idx) == n:
                off = flats[key][1]
                for j in range(idx[-1] + 1, len(ints)):
                    if j not in off:
                        yield idx + (j,), "full"

    # (rank, member bits, bits of the e_j in it) of each max-excess flat
    optimal = [(key[0], sum(1 << i for i in flats[key][1]),
                completion(key)[1]) for key in excess if excess[key] == top]
    # above every position; with no frame found the check below fails
    best, best_idx = 1 << (n + 1), ()
    for idx, key in frames():
        for rank, members, units in optimal:
            position = count = 0
            for t, i in enumerate(idx):
                if members >> i & 1:
                    position |= 1 << (n - t)
                    count += 1
            # the other basis vectors in F are kept e_j, after the points;
            # the least they can add is the last rank - count positions
            if count < rank and units.bit_count() >= rank - count and (
                    position + (1 << (rank - count)) - 1 < best):
                for u, j in enumerate(completion(key)[0]):
                    if units >> j & 1:
                        position |= 1 << (n - len(idx) - u)
                        count += 1
            if count == rank and position < best:
                best, best_idx = position, idx
    frame = (completions["root"][0], ints)
    for i in best_idx:
        frame = frame and _pivot(frame, i)
    # the winner's support masks must score the maximum at its sign set
    inside = frame and sum(m for col, m in zip(frame[1], masses) if all(
        best >> (n - t) & 1 for t, x in enumerate(col) if x))
    if not frame or (n + 1) * inside - total * best.bit_count() != top:
        raise VerificationFailed(
            f"frame {best_idx} misses the scan's maximal excess {top}")
    weights = tuple(bound if best >> (n - t) & 1 else -bound
                    for t in range(n + 1))
    basis = _frame_basis([support[i].coords for i in best_idx], frame[0], n)
    return SearchResult(Fraction(2 * bound * top, n + 1), weights, basis,
                        best_idx)
