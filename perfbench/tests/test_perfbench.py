"""The benchmark's own tests.  Run from the repository root with

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from chowstab import cli, stability  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric_with_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


def test_workload_names_match_spec():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(run.WORKLOADS)


@pytest.fixture
def tiny(tmp_path):
    return lambda name: workloads.build(name, 3, True, tmp_path)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_self_times_add_up_to_traced_wall(tiny, workload):
    report = worker.measure(tiny(workload), 0, True)
    wall = report["traced"]["wall_s"]
    layers = report["layers"]
    total = sum(v for k, (v, _) in layers.items() if k.endswith(".self_s"))
    total += layers["trace.unattributed_s"][0]
    assert total == pytest.approx(wall, rel=1e-9, abs=1e-9)
    assert all(layers[f"{l}.self_s"][0] >= 0 for l in tracing.LAYERS)
    assert report["absent_hooks"] == []
    assert report["traced"]["outcomes"]["wrong"] == 0


def test_hooks_are_removed_after_a_traced_pass(tiny):
    before = (stability.classify, stability.Subspace.__init__, cli.main)
    worker.measure(tiny("corpus-p2"), 0, True)
    assert (stability.classify, stability.Subspace.__init__, cli.main) == before


def test_missing_hook_target_is_reported_absent(monkeypatch):
    monkeypatch.delattr(stability, "exhaustive_ops_search")
    hooks = tracing.Installed(tracing.Tracer())
    try:
        assert hooks.absent == ["chowstab.stability.exhaustive_ops_search"]
    finally:
        hooks.remove()


def _wrong_count(wl):
    return worker.measure(wl, 0, False)["plain"]["outcomes"]["wrong"]


def test_corrupted_search_answer_is_failed(tiny, monkeypatch):
    real = stability.exhaustive_ops_search

    def corrupted(cycle, bound):
        res = real(cycle, bound)
        return dataclasses.replace(res, weight=-res.weight)

    monkeypatch.setattr(stability, "exhaustive_ops_search", corrupted)
    assert _wrong_count(tiny("corpus-p2")) > 0


def test_corrupted_verdict_is_failed(tiny, monkeypatch):
    monkeypatch.setattr(
        stability, "classify",
        lambda cycle: stability.StabilityVerdict(stability.STABLE, None, ()))
    assert _wrong_count(tiny("classify-wide")) > 0


@pytest.mark.parametrize("workload", ["df-p2", "df-p3"])
def test_corrupted_invariant_is_failed(tiny, monkeypatch, workload):
    real = cli.df_invariant

    def corrupted(spec):
        res = real(spec)
        return dataclasses.replace(res, f_exact=res.f_exact + 1)

    monkeypatch.setattr(cli, "df_invariant", corrupted)
    assert _wrong_count(tiny(workload)) > 0


def test_known_failing_input_is_refused_not_failed(tiny):
    outcomes = worker.measure(tiny("df-p2"), 0, False)["plain"]["outcomes"]
    assert outcomes == {"ok": 3, "refused": 1, "wrong": 0}


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(1, 31))) == (20, 100.0 * 20 / 30, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_scaled_clock_scales_by_probe_and_leaves_probes_out(monkeypatch):
    now = [100.0]
    probe_s = [0.002]

    def fake_probe(kernel):
        now[0] += probe_s[0]
        return probe_s[0]

    monkeypatch.setattr(calibrate, "perf_counter", lambda: now[0])
    monkeypatch.setattr(calibrate, "probe", fake_probe)
    clock = calibrate.ScaledClock()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)   # ticks by hand only
        now[0] += 1.0
        assert clock.now() == pytest.approx(0.5)    # twice the reference
        probe_s[0] = 0.004
        clock._tick(signal.SIGALRM, None)
        assert clock.now() == pytest.approx(0.25)   # the slow 1 s was 0.25
        now[0] += 1.0
        assert clock.now() == pytest.approx(0.5)
        assert clock.probes == [0.004]
    finally:
        clock.close()


def test_measure_leaves_no_timer_running(tiny):
    worker.measure(tiny("corpus-p2"), 0, False)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


@pytest.mark.parametrize("workload,rounds,ops", [
    ("corpus-p2", 67, 938), ("classify-wide", 4, 36), ("df-p2", 3, 30),
    ("df-p3", 1, 3)])
def test_a_run_measures_a_fixed_amount_of_work(tmp_path, workload, rounds,
                                               ops):
    wl = workloads.build(workload, 3, False, tmp_path)
    assert wl.rounds_for(0) == wl.pass_rounds
    count = wl.rounds_for(SPEC["run_seconds"])
    assert count == rounds
    assert sum(len(wl.rounds[i % len(wl.rounds)])
               for i in range(count)) == ops
