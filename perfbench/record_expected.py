"""Rebuild perfbench/expected/*.json from the program as it is now.

    PYTHONPATH=src python3 perfbench/record_expected.py [WORKLOAD ...]

The stored answers are what every later run is checked against, so
rebuild them only when a change of answer is intended and reviewed.
corpus-p2, df-p2 and df-p3 answers hold for every seed; classify-wide
answers are for the default seed.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads as w
from chowstab import geometry, stability

WORK_ROOT = Path(__file__).resolve().parent.parent / ".perfbench" / "work"


def corpus() -> dict:
    return {"answers": [
        w.corpus_answer(stability.classify(c),
                        stability.exhaustive_ops_search(c, w.SEARCH_BOUND))
        for c in w.corpus_configs()]}


def wide() -> dict:
    answers = {}
    for r in range(w.ROUNDS):
        for kind, n, count, planted in w.WIDE_KINDS:
            pts, _ = w.wide_points(w.DEFAULT_SEED, r, kind, n, count, planted)
            cycle = geometry.normalize_cycle(geometry.Ambient.projective(n),
                                             pts)
            answers[f"{r}/{kind}"] = w.verdict_record(
                stability.classify(cycle))
    return {"seed": w.DEFAULT_SEED, "answers": answers}


def cli_kinds(kinds) -> dict:
    """Answers for each kind written canonically: no relabelling or scaling."""
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        answers = {}
        for ck in kinds:
            doc = {"ambient": {"projective": len(ck.weights) - 1},
                   "points": [{"coords": c, "mult": m} for c, m in ck.points],
                   "weights": list(ck.weights)}
            path = tmp / f"{ck.kind}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            answers[ck.kind] = w.cli_answer(*w.run_cli(
                [ck.command, str(path), "--format", "json", *ck.args]))
        return {"answers": answers}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


RECORDERS = {
    "corpus-p2": corpus,
    "classify-wide": wide,
    "df-p2": lambda: cli_kinds(w.DF_P2_KINDS),
    "df-p3": lambda: cli_kinds(w.DF_P3_KINDS),
}


def main(names) -> int:
    w.EXPECTED_DIR.mkdir(exist_ok=True)
    for name in names or w.WORKLOADS:
        data = RECORDERS[name]()
        path = w.EXPECTED_DIR / f"{name}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
