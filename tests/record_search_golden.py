"""Record tests/golden/search_sweep.json, the bounded 1-PS search sweep.

Run from the repository root:

    PYTHONPATH=src python tests/record_search_golden.py

Each line of the file's "cycles" list holds one cycle (its ambient n and
its points, coordinates as strings, with masses) and, for each bound B,
every field of `exhaustive_ops_search(cycle, B)`: the weight as a string,
the weight vector, the basis points and the basis rows, each row one
string of space-separated Fractions.  The cycles are

- the 938 corpus-p2 configs of perfbench/workloads.py at B = 0..3;
- 600 seeded random cycles on P^1..P^4 at B = 0..3;
- the 216 classify-wide cycles of seeds 1-3 at B = 2.

tests/test_search_sweep.py replays every entry.  The answers are the
search's contract: re-record only as a reviewed change of its output.
"""

import importlib.util
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from chowstab import Ambient, exhaustive_ops_search, normalize_cycle

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "search_sweep.json"
RANDOM_CYCLES = 600
WIDE_SEEDS = (1, 2, 3)
# few distinct entries, many zeros: coordinate points and coordinate flats
# are common, so optimal flats often hold standard vectors
ENTRIES = (0, 0, 0, 0, 1, 1, -1, 2, -2, Fraction(1, 2), Fraction(-2, 3))


def _workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def random_cycles(count=RANDOM_CYCLES):
    """(n, points) for `count` seeded cycles, n = 1..4 in turn, with up to
    n+3 points; one cycle in ten carries masses from 2^62 on."""
    rng = random.Random("search-sweep")
    out = []
    for c in range(count):
        n = 1 + c % 4
        heavy = rng.random() < 0.1
        points = []
        for _ in range(rng.randint(1, n + 3)):
            coords = [0]
            while not any(coords):
                coords = [rng.choice(ENTRIES) for _ in range(n + 1)]
            mass = (rng.randint(2 ** 62, 2 ** 64) if heavy
                    else rng.randint(1, 3))
            points.append((coords, mass))
        out.append((n, points))
    return out


def sweep():
    """(source, n, points, bounds) for every cycle of the sweep."""
    wl = _workloads()
    for i, cycle in enumerate(wl.corpus_configs()):
        points = [(list(p.coords), m) for p, m in cycle.points]
        yield f"corpus/{i}", cycle.ambient.n, points, range(4)
    for i, (n, points) in enumerate(random_cycles()):
        yield f"random/{i}", n, points, range(4)
    for seed in WIDE_SEEDS:
        for rnd in range(wl.ROUNDS):
            for kind, n, count, planted in wl.WIDE_KINDS:
                points, _ = wl.wide_points(seed, rnd, kind, n, count, planted)
                yield f"wide/{seed}/{rnd}/{kind}", n, points, (2,)


def cycle_of(n, points):
    """The cycle of one stored entry (strings or numbers as coordinates)."""
    return normalize_cycle(Ambient.projective(n),
                           [([Fraction(x) for x in coords], m)
                            for coords, m in points])


def answer(res):
    """A SearchResult as JSON-ready strings and ints."""
    return {"weight": str(res.weight), "weights": list(res.weights),
            "basis_points": list(res.basis_points),
            "basis": [" ".join(map(str, row)) for row in res.basis]}


def main():
    lines = []
    for source, n, points, bounds in sweep():
        stored = [([str(Fraction(x)) for x in coords], m)
                  for coords, m in points]
        cycle = cycle_of(n, stored)
        results = {str(b): answer(exhaustive_ops_search(cycle, b))
                   for b in bounds}
        lines.append(json.dumps({"source": source, "n": n, "points": stored,
                                 "results": results},
                                separators=(",", ":")))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text('{"cycles": [\n' + ",\n".join(lines) + "\n]}\n")
    print(f"{len(lines)} cycles -> {GOLDEN.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
