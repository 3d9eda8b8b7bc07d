"""The ambient P^n, rational points, weighted 0-cycles and diagonal 1-PS.

Points carry exact rational homogeneous coordinates and are kept in the
canonical scaling where the first nonzero coordinate equals 1, so equality
of points is structural equality.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import ZeroPoint

__all__ = [
    "Ambient",
    "ProjectivePoint",
    "WeightedCycle",
    "DiagonalOnePS",
    "normalize_cycle",
    "chow_multiplicities",
    "limit_point",
    "collision_clusters",
]


@dataclass(frozen=True)
class Ambient:
    """The projective space P^n, n >= 1."""

    n: int

    def __post_init__(self):
        n = operator.index(self.n)  # a float dimension raises TypeError
        if n < 1:
            raise ValueError("the dimension must be at least 1")
        object.__setattr__(self, "n", n)

    @classmethod
    def projective(cls, n: int) -> "Ambient":
        return cls(n)


def _coordinate(c) -> Fraction:
    """A `numbers.Rational` or rational string as a Fraction; a float's
    binary value is rarely the number meant, so it raises TypeError."""
    if isinstance(c, (Fraction, int, str)):
        return c if isinstance(c, Fraction) else Fraction(c)
    if isinstance(c, numbers.Integral):
        return Fraction(operator.index(c))  # a numpy int as a Python int
    if isinstance(c, numbers.Rational):
        return Fraction(c)
    raise TypeError(f"coordinate {c!r} is not an exact rational")


class ProjectivePoint:
    """A rational point of P^n in canonical scaling (first nonzero = 1)."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable):
        raw = tuple(map(_coordinate, coords))
        pivot = None
        for c in raw:
            if c != 0:
                pivot = c
                break
        if pivot is None:
            raise ZeroPoint("all coordinates are zero")
        self.coords = tuple(c / pivot for c in raw)

    @property
    def dim(self) -> int:
        return len(self.coords) - 1

    @property
    def pivot_index(self) -> int:
        for i, c in enumerate(self.coords):
            if c != 0:
                return i
        raise ZeroPoint("all coordinates are zero")  # unreachable

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coords) if c != 0)

    def __eq__(self, other):
        return isinstance(other, ProjectivePoint) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __lt__(self, other: "ProjectivePoint"):
        return self.coords < other.coords

    def __repr__(self):
        return "[" + ":".join(str(c) for c in self.coords) + "]"


@dataclass(frozen=True)
class WeightedCycle:
    """A 0-cycle: distinct points with positive integer multiplicities.

    The point list is sorted by coordinates, so two cycles are equal as
    dataclass values exactly when they are equal as cycles.
    """

    ambient: Ambient
    points: tuple[tuple[ProjectivePoint, int], ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.points

    def support(self) -> tuple[ProjectivePoint, ...]:
        return tuple(p for p, _ in self.points)

    def total_mass(self) -> int:
        return sum(m for _, m in self.points)

    def __len__(self):
        return len(self.points)


def _as_point(ambient: Ambient, coords) -> ProjectivePoint:
    pt = (coords if isinstance(coords, ProjectivePoint)
          else ProjectivePoint(coords))
    if pt.dim != ambient.n:
        raise ValueError(
            f"point has {pt.dim + 1} coordinates, ambient wants "
            f"{ambient.n + 1}")
    return pt


def normalize_cycle(ambient: Ambient, raw: Iterable[tuple]) -> WeightedCycle:
    """Canonicalize, merge equal points and sort; rejects mult < 1."""
    acc: dict = {}
    order: list = []
    for coords, mult in raw:
        mult = operator.index(mult)
        if mult < 1:
            raise ValueError("multiplicities must be positive integers")
        pt = _as_point(ambient, coords)
        if pt in acc:
            acc[pt] += mult
        else:
            acc[pt] = mult
            order.append(pt)
    pts = tuple(sorted((p, acc[p]) for p in order))
    return WeightedCycle(ambient, pts)


@dataclass(frozen=True)
class DiagonalOnePS:
    """A 1-parameter subgroup acting diagonally with integer weights.

    t acts on homogeneous coordinates by x_i -> t**w_i x_i, so limits at
    t -> 0 concentrate on the minimal-weight coordinates of each point.
    """

    weights: tuple[int, ...]

    def __post_init__(self):
        ws = tuple(operator.index(w) for w in self.weights)
        if not ws:
            raise ValueError("empty weight vector")
        object.__setattr__(self, "weights", ws)

    @classmethod
    def trivial(cls, ncoords: int) -> "DiagonalOnePS":
        return cls((0,) * ncoords)

    @property
    def is_trivial(self) -> bool:
        return all(w == self.weights[0] for w in self.weights)

    def normalized(self) -> tuple[Fraction, ...]:
        """Traceless representative: subtract the average weight."""
        mean = Fraction(sum(self.weights), len(self.weights))
        return tuple(Fraction(w) - mean for w in self.weights)

    def shifted(self, c: int) -> "DiagonalOnePS":
        return DiagonalOnePS(tuple(w + c for w in self.weights))


def chow_multiplicities(cycle: WeightedCycle) -> WeightedCycle:
    """Chow masses of the blowup cycle: multiplicity a becomes a**(n-1)."""
    n = cycle.ambient.n
    pts = tuple((p, m ** (n - 1)) for p, m in cycle.points)
    return WeightedCycle(cycle.ambient, pts)


def limit_point(p: ProjectivePoint, alpha: DiagonalOnePS) -> ProjectivePoint:
    """The limit of alpha(t).p as t -> 0.

    Coordinates survive exactly on the indices where p is nonzero and the
    weight attains its minimum over the support of p.
    """
    if len(alpha.weights) != len(p.coords):
        raise ValueError("weight vector length does not match the point")
    lo = min(alpha.weights[i] for i in p.support())
    masked = tuple(c if (c != 0 and alpha.weights[i] == lo) else Fraction(0)
                   for i, c in enumerate(p.coords))
    return ProjectivePoint(masked)


def collision_clusters(cycle: WeightedCycle, alpha: DiagonalOnePS
                       ) -> dict[ProjectivePoint, tuple[ProjectivePoint, ...]]:
    """Group support points by their common limit under alpha.

    Keys are sorted by coordinates; members keep their cycle order.
    """
    groups: dict[ProjectivePoint, list[ProjectivePoint]] = {}
    for p, _ in cycle.points:
        q = limit_point(p, alpha)
        groups.setdefault(q, []).append(p)
    return {q: tuple(groups[q]) for q in sorted(groups)}

