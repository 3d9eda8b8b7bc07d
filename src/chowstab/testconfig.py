"""Blowup test configurations via degreewise flat limits.

The family of section spaces attached to a cycle Z and a diagonal 1-PS is
the kernel, over the rational function field in t, of the jet conditions
at the moved points alpha(t).p_i.  Because moving the points is a linear
substitution, that kernel is the orbit of the kernel at t=1, which gives
polynomial basis vectors directly: the coefficient of x^e in a cleared
kernel vector v picks up t**(max_weight(v) - <w, e>).  Evaluating at t=0
keeps the top weight part of each vector; exactcore.graded_limit computes
that flat limit from the jet matrix at t=1.  moving_section_family builds
the explicit t-family, which the tests use as the reference route.

Each r sample of df_invariant takes one of two routes (_central_summary).
The central fibre is a union of pieces, one at each limit point q of the
moving cycle, and a sample is read from those pieces when the fat points
(r M_q) q, M_q the mass that reaches q, are shown to impose independent
conditions in degree d = gamma r:
- at once when d >= r M - 1, M the total mass (the fat-point regularity
  bound);
- below it, unless a line through two limit points carries more than
  d + 1 of that mass (the line count, which fails fast), by the monomial
  check at coordinate points and full row rank mod one prime of the other
  points' jet rows.
A limit point reached by one support point is then a closed form with no
matrix; a cluster of several takes graded_limit of its own jets at degree
r M_q - 1 (_split_summary holds the argument).  Every sample not so
certified takes graded_limit of the global jet matrix, which stays the
reference for the split route.

df_invariant computes its samples in increasing r and checks each
held-out dimension as its sample arrives, so a refusal stops at the first
dimension that misses the interpolant; the traces are checked after the
last sample.
"""

from __future__ import annotations

import math
import operator
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import PolynomialityFailed, RankDrop, VerificationFailed
from .exactcore import (PolyT, _full_row_rank, _primitive, _solve,
                        graded_limit, int_rank_profile, interpolate_poly,
                        poly_eval, rank_kernel)
from .geometry import (DiagonalOnePS, ProjectivePoint, WeightedCycle,
                       chow_multiplicities, collision_clusters, normalize_cycle)
from .hilbert import (ExpansionCoeffs, FatPointSpec, MonomialBasis,
                      _int_jet_rows, base_coeffs, fat_point_length,
                      futaki_from_coeffs, jet_vanishing_matrix, lifting_shift,
                      predicted_central_coeffs)
from .stability import _flat_keys, chow_weight

__all__ = [
    "SectionFamily",
    "CentralFibre",
    "DegreeReport",
    "TestConfigSpec",
    "CentralFibreData",
    "DFResult",
    "ExpansionReport",
    "moving_section_family",
    "central_fibre_sections",
    "central_fibre_cycle",
    "df_invariant",
    "expansion_comparison",
]

_GUARD_SEED = 977


@dataclass(frozen=True)
class SectionFamily:
    """A basis, polynomial in t, of the moving space of sections."""

    cycle: WeightedCycle
    alpha: DiagonalOnePS
    degree: int
    r: int
    basis: tuple[tuple[PolyT, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def _moved_coords(p: ProjectivePoint, alpha: DiagonalOnePS,
                  t0: Fraction) -> list[Fraction]:
    """Coordinates of alpha(t0).p cleared so the limit pivot stays constant."""
    lo = min(alpha.weights[i] for i in p.support())
    return [c * t0 ** (alpha.weights[i] - lo)
            for i, c in enumerate(p.coords)]


def moving_section_family(cycle: WeightedCycle, alpha: DiagonalOnePS,
                          gamma: int, r: int) -> SectionFamily:
    """Degree gamma*r forms vanishing to order r*a_i along the moved cycle.

    The returned vectors are primitive in t (some coefficient is constant
    and nonzero).  The construction is verified at a random rational t: the
    jet matrix there must have the t=1 rank and must annihilate every
    returned vector, otherwise RankDrop is raised.  This is the reference
    route to the central fibre; production code uses central_fibre_sections.
    """
    n = cycle.ambient.n
    if len(alpha.weights) != n + 1:
        raise ValueError("weight vector length mismatch")
    if gamma < 1 or r < 1:
        raise ValueError("need gamma >= 1 and r >= 1")
    degree = gamma * r
    basis = MonomialBasis(n, degree)
    rank1, kernel = rank_kernel(
        jet_vanishing_matrix(FatPointSpec(cycle, degree, r)), len(basis))
    mu = basis.weights(alpha)
    family = []
    for v in kernel:
        top = max(mu[i] for i, x in enumerate(v) if x != 0)
        family.append(tuple(
            PolyT.t_power(top - mu[i], x) if x != 0 else PolyT()
            for i, x in enumerate(v)))
    fam = SectionFamily(cycle, alpha, degree, r, tuple(family))
    _verify_family(fam, rank1, len(basis))
    return fam


def _verify_family(fam: SectionFamily, rank1: int, ncols: int) -> None:
    rng = random.Random(_GUARD_SEED)
    t0 = Fraction(rng.randint(2, 97), 101)
    moved = normalize_cycle(
        fam.cycle.ambient,
        [(_moved_coords(p, fam.alpha, t0), a) for p, a in fam.cycle.points])
    if len(moved) != len(fam.cycle):
        raise RankDrop("moved points collided at a nonzero parameter")
    rows = jet_vanishing_matrix(FatPointSpec(moved, fam.degree, fam.r))
    rank_t0, _ = int_rank_profile(rows, ncols)
    if rank_t0 != rank1:
        raise RankDrop(
            f"jet rank {rank_t0} at t={t0} differs from generic rank {rank1}")
    for v in fam.basis:
        vals = [p(t0) for p in v]
        for row in rows:
            if sum(a * b for a, b in zip(row, vals)) != 0:
                raise RankDrop("family vector left the jet kernel")


@dataclass(frozen=True)
class CentralFibre:
    """The flat limit at t=0 of the moving space of sections."""

    degree: int
    basis: tuple[tuple[Fraction, ...], ...]
    graded_dims: dict[int, int]
    trace: Fraction

    @property
    def dim(self) -> int:
        return len(self.basis)


def _trace(graded: dict[int, int]) -> Fraction:
    """Trace of the induced generator: a weight-c section contributes -c."""
    return Fraction(-sum(c * d for c, d in graded.items()))


def central_fibre_sections(cycle: WeightedCycle, alpha: DiagonalOnePS,
                           degree: int, r: int = 1) -> CentralFibre:
    """Flat limit of the degree-d forms vanishing to order r*a_i.

    The basis holds the top-weight parts of the jet kernel vectors, one
    weight-homogeneous vector per free column of the weight-sorted jet
    matrix (see graded_limit).
    """
    basis = MonomialBasis(cycle.ambient.n, degree)
    _, graded, vecs = graded_limit(
        jet_vanishing_matrix(FatPointSpec(cycle, degree, r)),
        basis.weights(alpha), want_basis=True)
    return CentralFibre(degree, tuple(vecs), graded, _trace(graded))


def _central_summary(cycle: WeightedCycle, alpha: DiagonalOnePS,
                     degree: int, r: int
                     ) -> tuple[int, Fraction, dict[int, int], bool]:
    """dim, trace, graded dimensions and jet separation of the limit.

    A sample that `_split_summary` certifies is read from its limit
    points.  Every other sample takes the dimension-only form of
    central_fibre_sections: the certified rank profile of the weight-sorted
    jet matrix instead of a kernel basis.  The last entry says whether the
    jet conditions are independent.
    """
    split = _split_summary(cycle, alpha, degree, r)
    if split is not None:
        return split
    spec = FatPointSpec(cycle, degree, r)
    basis = MonomialBasis(cycle.ambient.n, degree)
    rank, graded, _ = graded_limit(jet_vanishing_matrix(spec),
                                   basis.weights(alpha))
    return (len(basis) - rank, _trace(graded), graded,
            rank == spec.expected_rows)


def _split_summary(cycle: WeightedCycle, alpha: DiagonalOnePS, degree: int,
                   r: int
                   ) -> Optional[tuple[int, Fraction, dict[int, int], bool]]:
    """_central_summary read from the limit points, or None if uncertified.

    Let Z be the cycle with every multiplicity a_k scaled by r, d the
    degree, Z_t = alpha(t).Z and Z_0 its flat limit.  Z_0 is a union of
    pieces Z_{0,q}, one at each limit point q, and the cluster of support
    points that reach q has mass M_q.
    - Z_{0,q} lies in the fat point (r M_q) q.  Take a product of r M_q
      linear forms that vanish at q and move its factors, r a_k of them
      to each moving point of the cluster, so that the moved product
      vanishes to order r a_k there.  It lies in the ideal of Z_t near q,
      and its limit is the original product.
    - Certificate (`_fat_points_independent`): the fat points (r M_q) q
      impose independent conditions on degree-d forms.  So does Z_0, a
      subscheme of their union, and then so does Z_t for t near 0 by
      semicontinuity, hence Z itself: the jets separate.  When
      d >= r M - 1, M the total mass, this is the regularity bound for
      fat points (Catalisano, Trung and Valla, Proc. AMS 118, 1993).
    - The flat limit of the degree-d forms through Z_t lies in
      H^0(I_{Z_0}(d)), and both have dimension C(d+n, n) - length(Z).  So
      they are equal, and the limit's weights are those of S_d minus
      those of the quotient, which is the sum over q of H^0(O_{Z_{0,q}}(d)).
    - q has its nonzero coordinates in one weight space of alpha, of
      weight mu = w_i at i = q.pivot_index, and x_i is nonzero at q.
      Division by x_i^d identifies the degree-d quotient at q with
      O_{Z_{0,q}} under the torus, up to the shift mu d.
    A single support point of mass a gives Z_{0,q} = (r a) q, and GL of
    q's weight space, which commutes with alpha, moves q to e_i: its
    weights are mu (d - k) + sum_{j != i} w_j b_j over the multi-indices b
    on the other coordinates with |b| = k < r a: as r a <= d + 1, those
    of the degree-d monomials with e_i > d - r a.  A cluster's weights
    come from graded_limit of its own jets at degree D = r M_q - 1, where
    both the cluster and (r M_q) q impose independent conditions, shifted
    by mu (d - D).  The lengths and the dimension are checked against the
    fat-point lengths; a mismatch raises VerificationFailed.

    A sample below the bound that passes the line count but fails the
    rank check pays for the certificate on top of the global route: the
    jet rows of its non-coordinate limit points and one elimination mod
    one prime, against the global route's elimination mod several primes
    and its check.  Five double points over a conic in a weight plane of
    P^3 (weights (-1,-1,-1,3), gamma 4) paid 0.05-0.07 s on a 0.6 s
    sample at r = 3 and 0.25-0.37 s on an 8-10 s sample at r = 4 (2-vCPU
    VM, Python 3.11).
    """
    n = cycle.ambient.n
    mass = dict(cycle.points)
    clusters = collision_clusters(cycle, alpha)
    fat = {q: r * sum(mass[p] for p in members)
           for q, members in clusters.items()}
    basis = MonomialBasis(n, degree)
    if not _fat_points_independent(fat, basis):
        return None
    weights = np.array(basis.weights(alpha), dtype=object)
    counts = Counter(weights.tolist())
    for q, members in clusters.items():
        if len(members) == 1:
            # the weights of the monomials that (r a) q at e_i kills
            kill = basis.exponents[:, q.pivot_index] > degree - fat[q]
            local = Counter(weights[kill].tolist())
        else:
            local = _cluster_weights(
                WeightedCycle(cycle.ambient,
                              tuple((p, mass[p]) for p in members)),
                alpha, r, alpha.weights[q.pivot_index], degree)
        length = sum(fat_point_length(n, r * mass[p]) for p in members)
        if sum(local.values()) != length:
            raise VerificationFailed(
                f"limit scheme at {q} has length {sum(local.values())}, "
                f"its fat points {length}")
        counts.subtract(local)
    graded = {c: k for c, k in counts.items() if k}
    dim = sum(graded.values())
    want = math.comb(degree + n, n) - sum(
        fat_point_length(n, r * a) for a in mass.values())
    if dim != want or min(graded.values(), default=0) < 0:
        raise VerificationFailed(
            f"split central fibre has dimension {dim}, expected {want}")
    return dim, _trace(graded), graded, True


def _fat_points_independent(fat: dict[ProjectivePoint, int],
                            basis: MonomialBasis) -> bool:
    """Whether the fat points m_q q impose independent conditions on the
    forms of `basis`, of degree d, shown without the global jet matrix.

    True at once when d >= sum m_q - 1, the regularity bound.  Below it,
    a line through two of the points that carries sum m_q > d + 1 fails
    fast, as does a point with m_q > d + 1.  At a coordinate point e_i
    the conditions are unit rows: they kill the monomials with
    e_i > d - m.  Two coordinate points kill disjoint sets exactly when
    m_i + m_j <= d + 1, which the line count has checked, so those rows
    are pinned without being built.  The jet rows of the other points on
    the monomials left must then have full row rank, shown mod one prime
    (`_full_row_rank`).  False only means "not shown".
    """
    degree = basis.degree
    if degree >= sum(fat.values()) - 1:
        return True
    if max(fat.values()) > degree + 1:
        return False
    # each line through two of the points, with all the points on it
    masses = list(fat.values())
    lines: dict = {}
    for idx, (rank, w) in _flat_keys([_primitive(q.coords) for q in fat], 2):
        if rank == 2:
            lines.setdefault(w, set()).update(idx)
    if any(sum(masses[i] for i in on_line) > degree + 1
           for on_line in lines.values()):
        return False
    keep = np.ones(len(basis), dtype=bool)
    rows = []
    for q, m in fat.items():
        if len(q.support()) == 1:
            keep &= basis.exponents[:, q.pivot_index] <= degree - m
        else:
            rows.append(_int_jet_rows(q, m, basis))
    return not rows or _full_row_rank(np.concatenate(rows)[:, keep])


def _cluster_weights(cluster: WeightedCycle, alpha: DiagonalOnePS, r: int,
                     mu: int, degree: int) -> Counter:
    """Weights in degree `degree` of the limit scheme of a cluster reaching
    a point of weight mu: S_D minus the graded limit at D = r M_q - 1,
    shifted by mu (degree - D)."""
    low = r * cluster.total_mass() - 1
    weights = MonomialBasis(cluster.ambient.n, low).weights(alpha)
    _, graded, _ = graded_limit(
        jet_vanishing_matrix(FatPointSpec(cluster, low, r)), weights)
    local = Counter(weights)
    local.subtract(graded)
    return Counter({c + mu * (degree - low): k
                    for c, k in local.items() if k})


@dataclass(frozen=True)
class DegreeReport:
    """Limit data of the degree-d piece of the moving ideal (r=1)."""

    degree: int
    dim: int
    vanishing_orders: dict[ProjectivePoint, int]


def central_fibre_cycle(cycle: WeightedCycle, alpha: DiagonalOnePS,
                        probe_degrees: Sequence[int]) -> list[DegreeReport]:
    """Diagnostic for-the-limit cycle: guaranteed vanishing orders.

    For each probe degree d, takes the flat limit of the degree-d forms
    through the moved cycle (order multiplier 1) and reports, at every
    collision point q, the largest order to which all limit sections
    vanish.  This bounds the fat point of the limit scheme at q from
    below; it is a diagnostic, not a full ideal presentation.
    """
    reports = []
    n = cycle.ambient.n
    clusters = collision_clusters(cycle, alpha)
    for d in probe_degrees:
        if d < 1:
            raise ValueError(f"probe degree must be >= 1, got {d}")
        fibre = central_fibre_sections(cycle, alpha, d)
        orders: dict[ProjectivePoint, int] = {}
        if fibre.dim:
            basis = MonomialBasis(n, d)
            # a vector vanishes on a row exactly when its primitive
            # multiple does, so the probe is an integer sum over the
            # nonzero entries
            vecs = [[(j, x) for j, x in enumerate(_primitive(v)) if x]
                    for v in fibre.basis]
            for q in clusters:
                # rows of jet order o sit between the order-o and
                # order-(o+1) fat point lengths
                rows = _int_jet_rows(q, d + 1, basis).tolist()
                o = 0
                while o <= d and all(
                        sum(row[j] * x for j, x in v) == 0
                        for row in rows[fat_point_length(n, o):
                                        fat_point_length(n, o + 1)]
                        for v in vecs):
                    o += 1
                orders[q] = o
        reports.append(DegreeReport(d, fibre.dim, orders))
    return reports


# ---------------------------------------------------------------------------
# the Donaldson-Futaki invariant of a blowup test configuration


@dataclass(frozen=True)
class TestConfigSpec:
    """Blowup test configuration data: cycle, 1-PS, level and r samples."""

    __test__ = False  # keep pytest from collecting the domain name

    cycle: WeightedCycle
    alpha: DiagonalOnePS
    gamma: int
    r_samples: tuple[int, ...] = ()

    def __post_init__(self):
        n = self.cycle.ambient.n
        if len(self.alpha.weights) != n + 1:
            raise ValueError("weight vector length mismatch")
        object.__setattr__(self, "gamma", operator.index(self.gamma))
        if self.gamma < 1:
            raise ValueError("gamma must be positive")
        rs = tuple(map(operator.index, self.r_samples))
        rs = rs or tuple(range(2, n + 6))
        if sorted(set(rs)) != list(rs) or rs[0] < 1:
            raise ValueError("r samples must be increasing positive integers")
        if len(rs) < n + 4:
            raise ValueError(
                f"need at least {n + 4} r samples: degree n+1 trace fit "
                "plus two held-out verification points")
        object.__setattr__(self, "r_samples", rs)


@dataclass(frozen=True)
class CentralFibreData:
    """Per-exponent data of the central fibre and the fitted expansions."""

    dims: dict[int, int]
    traces: dict[int, Fraction]
    fitted: ExpansionCoeffs
    normalized: ExpansionCoeffs     # after the level-gamma lifting shift
    lam_gamma: Fraction
    jet_separation: dict[int, bool]


@dataclass(frozen=True)
class DFResult:
    """Exact Donaldson-Futaki invariant with its asymptotic prediction."""

    gamma: int
    f_exact: Fraction
    f_predicted_leading: Optional[Fraction]
    ch_weight: Fraction
    central: CentralFibreData


def df_invariant(spec: TestConfigSpec) -> DFResult:
    """Exact F at level gamma from degreewise dims and traces.

    The r samples are computed in increasing r.  Dimensions are fitted by
    a degree-n polynomial in r on the first n+1 samples, and each later
    sample's dimension is checked exactly against that interpolant as soon
    as the sample is computed: the first mismatch raises
    PolynomialityFailed (sampling started below the stability threshold r0
    of the data) and no further sample is computed.  Traces are fitted by
    a degree-(n+1) polynomial on the first n+2 samples and checked on the
    rest after the last sample, so a trace mismatch is reported only when
    every dimension has passed.  The level-gamma lifting normalization is
    applied and, since the invariant is blind to liftings, checked to
    leave F unchanged.
    """
    n = spec.cycle.ambient.n
    gamma = spec.gamma
    rs = spec.r_samples
    dims: dict[int, int] = {}
    traces: dict[int, Fraction] = {}
    separation: dict[int, bool] = {}
    sampling = False

    def dim_samples(r_values):
        nonlocal sampling
        for r in r_values:
            sampling = True
            dims[r], traces[r], _, separation[r] = _central_summary(
                spec.cycle, spec.alpha, gamma * r, r)
            sampling = False
            yield r, Fraction(dims[r])

    fit = list(dim_samples(rs[:n + 1]))
    try:
        dim_fit = interpolate_poly(fit, n, dim_samples(rs[n + 1:]))
        trace_fit = interpolate_poly(
            [(r, traces[r]) for r in rs[:n + 2]],
            n + 1,
            [(r, traces[r]) for r in rs[n + 2:]])
    except VerificationFailed as exc:
        if sampling:
            # a held-out sample's own identity failed, not its check
            raise
        raise PolynomialityFailed(
            f"r samples {rs} start below the polynomial range: "
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


@dataclass(frozen=True)
class GammaRow:
    """Per-gamma entry of an expansion comparison report."""

    gamma: int
    f_value: Fraction
    c0_dev: Fraction
    c1_dev: Fraction
    b0_dev: Fraction
    b1_dev: Fraction


@dataclass(frozen=True)
class ExpansionReport:
    """Degree-2 fit of F(gamma) against the asymptotic prediction.

    fit_coeffs holds (a0, a1, a2) of the exact least squares quadratic;
    leading_coeff is a2 and gamma_coeff is a1.  leading_coeff estimates
    predicted_gamma_power_coeff, the coefficient of gamma^n (the base
    Futaki invariant, zero on P^n).  The leading non-zero term of the
    expansion, predicted_gamma_coeff = minus the Chow weight over
    2 (n-2)!, is the coefficient of gamma: read it from gamma_coeff or,
    more stably on a short window, from centered_slope, the derivative
    of the fit at the window average.
    """

    gammas: tuple[int, ...]
    f_values: tuple[Fraction, ...]
    fit_coeffs: tuple[Fraction, Fraction, Fraction]
    residuals: tuple[Fraction, ...]
    ch_weight: Fraction
    predicted_gamma_coeff: Fraction
    predicted_gamma_power_coeff: Fraction
    rows: tuple[GammaRow, ...]

    @property
    def leading_coeff(self) -> Fraction:
        return self.fit_coeffs[2]

    @property
    def gamma_coeff(self) -> Fraction:
        return self.fit_coeffs[1]

    @property
    def centered_slope(self) -> Fraction:
        mid = Fraction(sum(self.gammas), len(self.gammas))
        return self.fit_coeffs[1] + 2 * self.fit_coeffs[2] * mid


def expansion_comparison(cycle: WeightedCycle, alpha: DiagonalOnePS,
                         gammas: Sequence[int],
                         r_samples: Sequence[int] = ()) -> ExpansionReport:
    """Run df_invariant over a gamma window and compare with the expansion."""
    n = cycle.ambient.n
    if n < 2:
        raise ValueError("expansion comparison needs ambient dimension >= 2")
    gs = tuple(sorted(set(operator.index(g) for g in gammas)))
    if len(gs) < 4:
        raise ValueError("need at least four gamma values for a quadratic fit")
    f_values = []
    rows = []
    ch = None
    for g in gs:
        res = df_invariant(TestConfigSpec(cycle, alpha, g, tuple(r_samples)))
        ch = res.ch_weight
        pred = predicted_central_coeffs(cycle, alpha, g)
        fit = res.central.fitted
        f_values.append(res.f_exact)
        rows.append(GammaRow(g, res.f_exact,
                             fit.c0 - pred.c0,
                             fit.c1 - pred.c1,
                             fit.b0 - pred.b0,
                             fit.b1 - pred.b1))
    # exact quadratic least squares via the normal equations
    powers = [[Fraction(g) ** k for k in range(3)] for g in gs]
    ata = [[sum(row[i] * row[j] for row in powers) for j in range(3)]
           for i in range(3)]
    atf = [sum(row[i] * f for row, f in zip(powers, f_values))
           for i in range(3)]
    coeffs = _solve(ata, atf)
    residuals = tuple(f - poly_eval(coeffs, g)
                      for g, f in zip(gs, f_values))
    predicted_slope = -ch / (2 * math.factorial(n - 2))
    f_base = futaki_from_coeffs(base_coeffs(n, alpha))
    return ExpansionReport(gs, tuple(f_values),
                           (coeffs[0], coeffs[1], coeffs[2]),
                           residuals, ch, predicted_slope, f_base,
                           tuple(rows))
