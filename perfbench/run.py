"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout.  Each workload runs in fresh
worker processes (perfbench/worker.py) with BLAS/OpenMP threads pinned to
1 in their environment only: two set-up-only workers and one measuring
worker, so `setup_s` is the median of three set-ups.  With --trace 0 the
last stdout line carries the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced pass.  End-to-end times are read from a
clock that runs at a fixed reference speed of the machine
(perfbench/calibrate.py).  The line before the result describes the
machine and the run, wall-clock figures included; the full report, spans
included, is written to .perfbench/results/.  Exits 2 without a result when the program's
sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("corpus-p2", "classify-wide", "df-p2", "df-p3")
SETUP_REPEATS = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_worker(args: list, deadline: float) -> dict:
    """Run one worker to completion and parse its last stdout line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=worker_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no report")
    return json.loads(lines[-1])


def tail(latencies: list) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples beyond).  With 10 samples or fewer
    no such percentile exists and the maximum is reported, 0 beyond it.
    """
    xs = sorted(latencies)
    n = len(xs)
    k = n - 10 if n > 10 else n
    return xs[k - 1], 100.0 * k / n, n - k


def end_to_end(plain: dict, setup_s: float, rss_mib: float
               ) -> tuple[dict, dict]:
    """The six end-to-end metrics and what stands behind them.

    Times are scaled to the reference speed.  ops_per_s is the median over
    rounds of verified ops per second of the round's time; rounds hold the
    same mix of ops, and the median keeps a burst of load from other
    processes out of the figure.
    """
    lat = plain["latencies"]
    answered = plain["outcomes"]["ok"]
    value, pct, beyond = tail(lat)
    metrics = {
        "ops_per_s": (statistics.median(plain["round_rates"]), "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (value, "s"),
        "answered_ratio": (answered / len(lat), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }
    by_kind = {}
    for kind, x in zip(plain["kinds"], lat):
        by_kind.setdefault(kind, []).append(x)
    info = {"latency_tail_percentile": pct, "latency_tail_beyond": beyond,
            "latency_samples": len(lat),
            "failed_ratio": 1 - answered / len(lat),
            "wall_ops_per_s": statistics.median(plain["wall_round_rates"]),
            "wall_latency_p50_s": statistics.median(plain["wall_latencies"]),
            "wall_latency_tail_s": tail(plain["wall_latencies"])[0],
            "kind_p50_s": {k: statistics.median(v)
                           for k, v in sorted(by_kind.items())
                           if k != "corpus"}}
    return metrics, info


def git_sha() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "chowstab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="only each workload's cheapest ops, one round")
    args = ap.parse_args(argv)
    if not (SRC / "chowstab" / "__init__.py").is_file():
        sys.stderr.write(f"error: no chowstab sources under {SRC}\n")
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)] + (["--tiny"] if args.tiny
                                                 else [])
    try:
        setups = [run_worker(common + ["--setup-only"], deadline)
                  for _ in range(SETUP_REPEATS - 1)]
        report = run_worker(common + (["--trace"] if args.trace else []),
                            deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    setups.append(report)
    setup_s = statistics.median(r["setup_s"] for r in setups)

    passes = [report["plain"]] + ([report["traced"]] if args.trace else [])
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(p["outcomes"]["wrong"] for p in passes)
    refused = sum(p["outcomes"]["refused"] for p in passes)
    e2e, e2e_info = end_to_end(report["plain"], setup_s,
                               report["peak_rss_mib"])
    metrics = report["layers"] if args.trace else e2e
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "tiny": args.tiny, "seconds": args.seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": report["numpy"],
        "git_sha": git_sha(), "source_digest": source_digest(),
        "setup_samples_s": [r["setup_s"] for r in setups],
        "setup_wall_samples_s": [r["setup_wall_s"] for r in setups],
        "refused": refused,
        "errors": [e for p in passes for e in p["errors"]],
        "absent_hooks": report.get("absent_hooks", []),
        "probe_kernel": report["probe_kernel"],
        "probes": len(report["probe_s"]),
        "probe_s_median": statistics.median(report["probe_s"]),
        **e2e_info,
    }
    out_dir = ROOT / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    full = {"info": info, "end_to_end": e2e,
            "per_layer": report.get("layers"), "spans": report.get("spans"),
            "dropped_spans": report.get("dropped_spans")}
    (out_dir / f"{stem}.json").write_text(json.dumps(full), encoding="utf-8")

    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u}
                    for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
