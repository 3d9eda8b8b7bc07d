"""The four benchmark workloads: inputs from a seed, ops, answer checks.

Every workload is a closed loop: ops run back to back in one process.
Inputs are grouped in rounds that hold the same mix of ops; a run measures
a number of whole rounds fixed by its length in seconds (`rounds_for`).

Each op's answer is classified as
  ok       verified answer,
  refused  the typed refusal stored for a known-failing input,
  wrong    wrong answer or unexpected exception.
Expected answers (``expected/<workload>.json``) come from the program at
the commit that introduced the benchmark; ``record_expected.py`` rebuilds
them.  Independent cross-checks run on every seed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from math import gcd
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from chowstab import balance, cli, geometry, stability

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"
DEFAULT_SEED = 0
ROUNDS = 8               # input rounds generated per run; the loop cycles them
FLOW_MAX_ITER = 100      # cap on balance_flow; reaching it is "undecided"

OK, REFUSED, WRONG = "ok", "refused", "wrong"


class Wrong(Exception):
    """An op's answer failed a check."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise Wrong(msg)


@dataclass
class Op:
    kind: str
    key: str                         # identifies the op's expected answer
    run: Callable[[], object]
    check: Callable[[object], str]   # returns OK or REFUSED, raises Wrong


@dataclass
class Workload:
    rounds: list                     # list of lists of Op
    warm_up: Callable[[], None]
    trace_rounds: int                # rounds in a traced run, about 10 s
    round_s: float                   # one round's time at the reference
                                     # speed, at the commit that sized it
    pass_rounds: int = 1             # a run measures whole passes of this
                                     # many rounds
    probe_kernel: str = "python"     # calibrate.KERNELS entry for its clock

    def rounds_for(self, seconds: float) -> int:
        """Rounds in a run of `seconds`: a count fixed by `seconds` alone,
        so every commit and every spell of machine speed measures the same
        work."""
        pass_s = self.pass_rounds * self.round_s
        return self.pass_rounds * max(1, round(seconds / pass_s))


# ---------------------------------------------------------------------------
# independent exact helpers (no chowstab code)


def _rank(rows) -> int:
    """Rank of a rational matrix by plain Gaussian elimination."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _in_span(basis, p) -> bool:
    return _rank(list(basis) + [p]) == _rank(basis)


def _normalized(coords) -> tuple:
    """Projective point with its first nonzero coordinate scaled to 1."""
    c = [Fraction(x) for x in coords]
    piv = next(x for x in c if x)
    return tuple(x / piv for x in c)


def _check_certificate(cycle, verdict) -> None:
    """Unstable verdict: recount the certificate and its closed form."""
    cert = verdict.certificate
    n = cycle.ambient.n
    span = [p.coords for p in cert.subspace.spanning_points]
    k = _rank(span) - 1
    require(k == cert.subspace.dim, "certificate dimension")
    mass = sum(m for p, m in cycle.points if _in_span(span, p.coords))
    total = cycle.total_mass()
    require(mass == cert.mass_on_v, "certificate mass on V")
    require(cert.ratio == Fraction(mass, k + 1)
            and cert.ratio > Fraction(total, n + 1), "certificate ratio")
    closed = (n + 1) * mass - total * (k + 1)
    require(cert.destabilizer.chow_weight == closed and closed > 0,
            "destabilizer closed form (n+1)*mass_on_V - total*(k+1)")


def verdict_record(verdict) -> list:
    cert = verdict.certificate
    if cert is None:
        return [verdict.status, None, None, None]
    return [verdict.status, cert.mass_on_v, cert.subspace.dim, str(cert.ratio)]


# ---------------------------------------------------------------------------
# corpus-p2: the 938-config acceptance corpus, classify + bounded search

SEVEN_POINTS = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1],
                [1, 1, 0], [1, 2, 3], [1, -1, 2]]
SEARCH_BOUND = 3
CORPUS_ROUND = 14        # ops per round, in seed-shuffled corpus order;
                         # 67 rounds hold the 938 configs


def corpus_configs() -> list:
    """Subsets of up to 4 of the 7 points, masses in {1, 2}: 938 cycles."""
    p2 = geometry.Ambient.projective(2)
    out = []
    for k in range(1, 5):
        for idx in itertools.combinations(range(7), k):
            for mults in itertools.product((1, 2), repeat=k):
                out.append(geometry.normalize_cycle(
                    p2, [(SEVEN_POINTS[i], m) for i, m in zip(idx, mults)]))
    return out


def corpus_answer(verdict, search) -> list:
    return verdict_record(verdict) + [str(search.weight), list(search.weights)]


def _corpus_op(index: int, cycle, expected: Optional[list]) -> Op:
    def run():
        return (stability.classify(cycle),
                stability.exhaustive_ops_search(cycle, SEARCH_BOUND))

    def check(out):
        verdict, search = out
        require(verdict.is_unstable == (search.weight > 0),
                "classify sign disagrees with exhaustive_ops_search")
        if verdict.is_unstable:
            _check_certificate(cycle, verdict)
        if expected is not None:
            require(corpus_answer(verdict, search) == expected[index],
                    "differs from the stored answer")
        return OK

    return Op("corpus", str(index), run, check)


def build_corpus(seed: int, tiny: bool, expected: dict) -> Workload:
    configs = corpus_configs()
    answers = expected["answers"]
    order = list(range(len(configs)))
    random.Random(f"{seed}/corpus").shuffle(order)
    ops = [_corpus_op(i, configs[i], answers) for i in order]
    rounds = [ops[i:i + CORPUS_ROUND] for i in range(0, len(ops), CORPUS_ROUND)]
    if tiny:
        rounds = rounds[:1]

    def warm_up():
        op = _corpus_op(0, configs[0], answers)
        op.check(op.run())

    # a run passes over the whole corpus, so its slowest configs are in
    # every run whatever the seed
    return Workload(rounds, warm_up, trace_rounds=27, round_s=0.28,
                    pass_rounds=len(rounds))


# ---------------------------------------------------------------------------
# classify-wide: random integer point sets, some with a planted subspace

# (kind, n, number of points, planted hyperplane)
WIDE_KINDS = (
    ("p2-n12", 2, 12, False),
    ("p2-n18-planted", 2, 18, True),
    ("p2-n21", 2, 21, False),
    ("p2-n24", 2, 24, False),
    ("p2-n30-planted", 2, 30, True),
    ("p3-n10", 3, 10, False),
    ("p3-n12-planted", 3, 12, True),
    ("p3-n14", 3, 14, False),
    ("p3-n16-planted", 3, 16, True),
)
WIDE_TINY = ("p2-n12", "p2-n18-planted")
COORD_RANGE = 9


def _primitive(v) -> Optional[tuple]:
    """Integer vector scaled to a canonical representative, None if zero."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        return None
    lead = next(x for x in v if x)
    g = g if lead > 0 else -g
    return tuple(x // g for x in v)


def wide_points(seed: int, rnd: int, kind: str, n: int, count: int,
                planted: bool) -> tuple[list, Optional[list]]:
    """(points with masses, spanning rows of the planted subspace or None).

    Planted sets put just over (k+1)/(n+1) of the mass on a random
    hyperplane (k = n-1), so the cycle is unstable; other sets are random
    points with masses 1 (P^3) or 1-2 (P^2).
    """
    rng = random.Random(f"{seed}/{rnd}/{kind}")
    seen = set()
    pts = []

    def add(v, mass):
        key = _primitive(v)
        if key is not None and key not in seen:
            seen.add(key)
            pts.append((list(v), mass))

    basis = None
    if planted:
        while True:
            basis = [[rng.randint(-COORD_RANGE, COORD_RANGE)
                      for _ in range(n + 1)] for _ in range(n)]
            if _rank(basis) == n:
                break
        on_v = n * count // (n + 1) + 1
        while len(pts) < on_v:
            cs = [rng.randint(-5, 5) for _ in range(n)]
            add([sum(c * b[j] for c, b in zip(cs, basis))
                 for j in range(n + 1)], 1)
    while len(pts) < count:
        v = [rng.randint(-COORD_RANGE, COORD_RANGE) for _ in range(n + 1)]
        if basis is not None and _in_span(basis, v):
            continue
        mass = 2 if (n == 2 and not planted and rng.random() < 0.25) else 1
        add(v, mass)
    return pts, basis


def _wide_op(seed, rnd, kind, n, count, planted, expected) -> Op:
    pts, basis = wide_points(seed, rnd, kind, n, count, planted)
    cycle = geometry.normalize_cycle(geometry.Ambient.projective(n), pts)
    key = f"{rnd}/{kind}"

    def run():
        verdict = stability.classify(cycle)
        flow = balance.balance_flow(balance.BalanceCycle.from_weighted(cycle),
                                    max_iter=FLOW_MAX_ITER)
        return verdict, flow

    def check(out):
        verdict, flow = out
        if verdict.is_unstable:
            _check_certificate(cycle, verdict)
        if basis is not None:
            mass = sum(m for p, m in cycle.points if _in_span(basis, p.coords))
            require(verdict.is_unstable
                    and verdict.certificate.ratio >= Fraction(mass, n),
                    "planted subspace not detected")
        chow = geometry.chow_multiplicities(cycle)
        exact = verdict if chow == cycle else stability.classify(chow)
        if exact.status == stability.STABLE:
            require(flow.status != "diverged", "flow diverged on a stable cycle")
        elif exact.status == stability.UNSTABLE:
            require(flow.status != "converged",
                    "flow converged on an unstable cycle")
        if expected is not None:
            require(verdict_record(verdict) == expected[key],
                    "differs from the stored answer")
        return OK

    return Op(kind, key, run, check)


def build_wide(seed: int, tiny: bool, expected: dict) -> Workload:
    answers = expected["answers"] if seed == expected["seed"] else None
    kinds = [k for k in WIDE_KINDS if not tiny or k[0] in WIDE_TINY]
    rounds = [[_wide_op(seed, r, *k, answers) for k in kinds]
              for r in range(1 if tiny else ROUNDS)]

    def warm_up():
        op = _wide_op(seed, -1, "warm-up", 2, 6, False, None)
        op.check(op.run())

    return Workload(rounds, warm_up, trace_rounds=2, round_s=4.3)


# ---------------------------------------------------------------------------
# df-p2 / df-p3: in-process CLI runs on documents written in set-up

E0, E1, E2 = [1, 0, 0], [0, 1, 0], [0, 0, 1]
COLLINEAR = [(E0, 1), (E1, 1), ([1, 1, 0], 1)]
COLLIDING = [(E0, 1), ([1, 1, 0], 1), ([1, 0, 1], 1)]
GEN4 = [(E0, 1), (E1, 1), (E2, 1), ([1, 1, 1], 1)]
GEN4B = [(E0, 1), (E1, 1), ([1, 1, 1], 1), ([1, 2, 3], 1)]
GEN5 = [(E0, 1), (E1, 1), (E2, 1), ([1, 1, 1], 1), ([1, 2, 3], 1)]
GEN5M2 = [(E0, 2), (E1, 1), (E2, 1), ([1, 1, 1], 1), ([1, 2, 3], 1)]
W112, W10M1, W2M1M1 = (1, 1, -2), (1, 0, -1), (2, -1, -1)

P3_COORD = [([1, 0, 0, 0], 1), ([0, 1, 0, 0], 1), ([0, 0, 1, 0], 1),
            ([0, 0, 0, 1], 1)]
P3_E1111 = [([1, 0, 0, 0], 1), ([0, 1, 0, 0], 1), ([0, 0, 1, 0], 1),
            ([1, 1, 1, 1], 1)]
P3_ROADMAP = [([1, 0, 0, 0], 1), ([0, 1, 0, 0], 1), ([1, 1, 0, 0], 1),
              ([1, 2, 3, 4], 1)]
W1111 = (1, 1, -1, -1)


@dataclass(frozen=True)
class CliKind:
    kind: str
    command: str
    points: list
    weights: tuple
    args: tuple
    known_failing: bool = False


# gamma ranges start at the smallest gamma with gamma^n > sum a^n; below
# that the test configuration does not exist
DF_P2_KINDS = (
    CliKind("df-collinear-g2", "df", COLLINEAR, W112, ("--gamma", "2"),
            known_failing=True),
    CliKind("df-collinear-g10", "df", COLLINEAR, W112, ("--gamma", "10")),
    CliKind("df-colliding-g7", "df", COLLIDING, W112, ("--gamma", "7")),
    CliKind("df-gen4-g6", "df", GEN4, W2M1M1, ("--gamma", "6")),
    CliKind("df-gen4b-g4", "df", GEN4B, W10M1, ("--gamma", "4")),
    CliKind("df-gen5-g3", "df", GEN5, W10M1, ("--gamma", "3")),
    CliKind("df-gen5m2-g3", "df", GEN5M2, W10M1, ("--gamma", "3")),
    CliKind("expansion-collinear-3-6", "expansion", COLLINEAR, W112,
            ("--gamma-range", "3..6")),
    CliKind("limit-gen5-2-6", "limit", GEN5, W10M1, ("--gamma-range", "2..6")),
    CliKind("limit-colliding-2-6", "limit", COLLIDING, W112,
            ("--gamma-range", "2..6")),
)
DF_P2_TINY = ("df-collinear-g2", "df-gen4-g6", "limit-colliding-2-6",
              "expansion-collinear-3-6")

# gamma 2 is the smallest level for four unit points on P^3; r samples
# 1..7 are the cheapest window TestConfigSpec accepts there (top degree 14)
DF_P3_KINDS = (
    CliKind("df-p3-coord", "df", P3_COORD, W1111,
            ("--gamma", "2", "--r-samples", "1..7")),
    CliKind("df-p3-e1111", "df", P3_E1111, W1111,
            ("--gamma", "2", "--r-samples", "1..7")),
    CliKind("df-p3-roadmap", "df", P3_ROADMAP, W1111,
            ("--gamma", "2", "--r-samples", "1..7"), known_failing=True),
)
DF_P3_TINY = ("df-p3-coord",)


def _perm_for_kind(n: int, index: int) -> tuple:
    """Coordinate relabelling of the index-th kind of a deck.

    Fixed per kind, not drawn from the seed: relabelling coordinates
    changes the cost of the exact elimination by up to a factor of two,
    and every round and every seed should cost the same.
    """
    perms = list(itertools.permutations(range(n + 1)))
    return perms[(index * 5) % len(perms)]


def _document(ck: CliKind, perm: tuple, rng: random.Random) -> dict:
    """The cycle with coordinates and weights relabelled by perm, each
    point written with a random rational scale, in random order."""
    points = []
    for coords, mult in ck.points:
        scale = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                         rng.choice((1, 2, 5)))
        cs = [Fraction(coords[perm[j]]) * scale for j in range(len(coords))]
        item = {"coords": [c.numerator if c.denominator == 1 else str(c)
                           for c in cs]}
        if mult != 1:
            item["mult"] = mult
        points.append(item)
    rng.shuffle(points)
    return {"ambient": {"projective": len(ck.weights) - 1},
            "points": points,
            "weights": [ck.weights[perm[j]] for j in range(len(perm))]}


def run_cli(argv: list) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_answer(code: int, out: str, err: str) -> dict:
    return {"code": code, "report": json.loads(out) if out else None,
            "stderr": err}


def _permuted_report(report: dict, perm: tuple) -> dict:
    """What the report of the relabelled cycle must say.

    Every df and expansion field is invariant under relabelling
    coordinates together with the weights; limit reports name limit
    points, which move with the coordinates.
    """
    if report is None or report.get("command") != "limit":
        return report
    out = json.loads(json.dumps(report))
    for deg in out["degrees"]:
        moved = []
        for item in deg["vanishing_orders"]:
            q = [Fraction(x) for x in item["point"]]
            moved.append({"point": [str(c) for c in
                                    _normalized([q[perm[j]]
                                                 for j in range(len(q))])],
                          "order": item["order"]})
        deg["vanishing_orders"] = sorted(
            moved, key=lambda it: [Fraction(c) for c in it["point"]])
    return out


def _check_df_report(report: dict) -> None:
    """F must equal c1*b0/c0 - b1 from the fit coefficients printed next to it."""
    c = {k: Fraction(v) for k, v in report["fit"]["coeffs"].items()}
    f = Fraction(report["F"])
    require(f == c["c1"] * c["b0"] / c["c0"] - c["b1"],
            "F disagrees with its fit coefficients")
    require(report["negative"] == (f < 0), "sign flag")


def _cli_op(ck: CliKind, path: Path, perm: tuple,
            expected: Optional[dict]) -> Op:
    argv = [ck.command, str(path), "--format", "json", *ck.args]

    def run():
        return run_cli(argv)

    def check(out):
        code, stdout, stderr = out
        got = cli_answer(code, stdout, stderr)
        want = expected[ck.kind] if expected is not None else None
        if ck.known_failing and want is not None and got == want:
            return REFUSED
        require(code == 0, f"exit code {code}: {stderr.strip()[:200]}")
        report = got["report"]
        if ck.command == "df":
            _check_df_report(report)
        elif ck.command == "expansion":
            require(report["F"] == [row["F"] for row in report["per_gamma"]],
                    "expansion F list disagrees with per-gamma rows")
        if want is not None and not ck.known_failing:
            require(report == _permuted_report(want["report"], perm),
                    "differs from the stored answer")
        return OK

    return Op(ck.kind, ck.kind, run, check)


def build_cli(kinds, tiny_kinds, seed: int, tiny: bool, expected: dict,
              workdir: Path, round_s: float) -> Workload:
    answers = expected["answers"]
    rounds = []
    for r in range(1 if tiny else ROUNDS):
        ops = []
        for i, ck in enumerate(kinds):
            if tiny and ck.kind not in tiny_kinds:
                continue
            perm = _perm_for_kind(len(ck.weights) - 1, i)
            rng = random.Random(f"{seed}/{r}/{ck.kind}")
            path = workdir / f"{r}-{ck.kind}.json"
            path.write_text(json.dumps(_document(ck, perm, rng)),
                            encoding="utf-8")
            ops.append(_cli_op(ck, path, perm, answers))
        rounds.append(ops)

    warm = CliKind("warm-up", "df", COLLINEAR, W112, ("--gamma", "3"))
    warm_path = workdir / "warm-up.json"
    warm_path.write_text(json.dumps(_document(warm, (0, 1, 2),
                                              random.Random(seed))),
                         encoding="utf-8")

    def warm_up():
        op = _cli_op(warm, warm_path, (0, 1, 2), None)
        op.check(op.run())

    return Workload(rounds, warm_up, trace_rounds=1, round_s=round_s)


# ---------------------------------------------------------------------------

WORKLOADS = ("corpus-p2", "classify-wide", "df-p2", "df-p3")


def build(name: str, seed: int, tiny: bool, workdir: Path) -> Workload:
    """Generate a workload's inputs, with checks against the stored answers."""
    with open(EXPECTED_DIR / f"{name}.json", encoding="utf-8") as fh:
        expected = json.load(fh)
    if name == "corpus-p2":
        return build_corpus(seed, tiny, expected)
    if name == "classify-wide":
        return build_wide(seed, tiny, expected)
    if name == "df-p2":
        return build_cli(DF_P2_KINDS, DF_P2_TINY, seed, tiny, expected,
                         workdir, round_s=5.8)
    if name == "df-p3":
        wl = build_cli(DF_P3_KINDS, DF_P3_TINY, seed, tiny, expected,
                       workdir, round_s=13.2)
        # its ops range from interpreter-bound to wide Bareiss steps
        wl.probe_kernel = "mixed"
        return wl
    raise ValueError(f"unknown workload {name!r}")
