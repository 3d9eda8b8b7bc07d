"""One workload in one fresh process: set up, run ops, report as JSON.

Started by run.py, which sets the environment (thread pins, PYTHONPATH)
and combines the reports of several workers.  The last stdout line is a
JSON object.  Usage:

    python perfbench/worker.py --workload NAME --seed N --seconds S
        [--trace] [--tiny] [--setup-only]
"""

from time import perf_counter

T_START = perf_counter()

import calibrate  # noqa: E402

# Run as a program, the set-up clock starts before the heavy imports, so
# set-up counts them; a test that imports this file starts no clock.
SETUP_CLOCK = calibrate.ScaledClock() if __name__ == "__main__" else None

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORK_ROOT = Path(__file__).resolve().parent.parent / ".perfbench" / "work"
MAX_ERRORS_REPORTED = 5


class Tally:
    """Outcome counts and latencies of the ops of one pass.

    With a scaled clock, `latencies` and `round_rates` are in seconds at
    the reference speed and the wall figures sit beside them; without
    one, both are wall figures.
    """

    def __init__(self):
        self.latencies = []
        self.wall_latencies = []
        self.kinds = []
        self.outcomes = {workloads.OK: 0, workloads.REFUSED: 0,
                         workloads.WRONG: 0}
        self.errors = []
        self.wall_s = 0.0
        self.round_rates = []       # answered ops per second of each round
        self.wall_round_rates = []

    def add(self, op, latency, wall_latency, outcome, error=None):
        self.latencies.append(latency)
        self.wall_latencies.append(wall_latency)
        self.kinds.append(op.kind)
        self.outcomes[outcome] += 1
        if error is not None and len(self.errors) < MAX_ERRORS_REPORTED:
            self.errors.append(f"{op.kind}[{op.key}]: {error}")

    @property
    def attempted(self):
        return len(self.latencies)


def run_op(op, now, tracer=None):
    """(latency, wall latency, outcome, error): the op timed by `now` and
    by the wall clock, then checked untimed.

    Checks run with the tracer paused, so their chowstab calls record no
    spans and their time counts as unattributed.
    """
    t0, w0 = now(), perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a crash is a wrong answer, not a harness failure
        return now() - t0, perf_counter() - w0, workloads.WRONG, repr(exc)
    latency, wall = now() - t0, perf_counter() - w0
    if tracer is not None:
        tracer.enabled = False
    try:
        return latency, wall, op.check(out), None
    except workloads.Wrong as exc:
        return latency, wall, workloads.WRONG, str(exc)
    except Exception as exc:
        return latency, wall, workloads.WRONG, f"check raised {exc!r}"
    finally:
        if tracer is not None:
            tracer.enabled = True


def run_rounds(rounds, tally, count, *, now=perf_counter, tracer=None):
    """`count` whole rounds, cycling through `rounds`, timed by `now`."""
    t0 = perf_counter()
    for done in range(count):
        r0, w0 = now(), perf_counter()
        ok0 = tally.outcomes[workloads.OK]
        for op in rounds[done % len(rounds)]:
            if tracer is not None:
                tracer.begin_op(tally.attempted)
            result = run_op(op, now, tracer)
            if tracer is not None:
                tracer.end_op()
            tally.add(op, *result)
        ok = tally.outcomes[workloads.OK] - ok0
        tally.round_rates.append(ok / (now() - r0))
        tally.wall_round_rates.append(ok / (perf_counter() - w0))
    tally.wall_s = perf_counter() - t0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=WORK_ROOT))
    try:
        wl = workloads.build(args.workload, args.seed, args.tiny, workdir)
        wl.warm_up()
        setup_s, setup_wall_s = SETUP_CLOCK.now(), perf_counter() - T_START
        SETUP_CLOCK.close()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s,
                              "setup_wall_s": setup_wall_s}))
            return 0
        report = measure(wl, args.seconds, args.trace)
    finally:
        SETUP_CLOCK.close()
        shutil.rmtree(workdir, ignore_errors=True)
    report["setup_s"] = setup_s
    report["setup_wall_s"] = setup_wall_s
    report["numpy"] = numpy.__version__
    report["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(report))
    return 0


def measure(wl, seconds, traced):
    """Untraced pass of the rounds that `seconds` asks for, timed by a
    scaled clock with the workload's probe kernel; with `traced`, the
    workload's trace rounds untraced and then under the tracer, so the
    work counts of a seed repeat exactly.  The clock stops before a traced
    pass, so no probe falls inside a span.
    """
    count = (min(wl.trace_rounds, len(wl.rounds)) if traced
             else wl.rounds_for(seconds))
    plain = Tally()
    clock = calibrate.ScaledClock(calibrate.KERNELS[wl.probe_kernel])
    try:
        run_rounds(wl.rounds, plain, count, now=clock.now)
    finally:
        clock.close()
    probes = {"probe_s": clock.probes, "probe_kernel": wl.probe_kernel}
    if not traced:
        return {"plain": summary(plain), **probes}
    tracer = tracing.Tracer()
    hooks = tracing.Installed(tracer)
    traced_tally = Tally()
    tracer.enabled = True
    try:
        run_rounds(wl.rounds, traced_tally, count, tracer=tracer)
    finally:
        tracer.enabled = False
        hooks.remove()
    layers = tracer.layer_metrics(traced_tally.wall_s)
    layers["trace.overhead_ratio"] = (
        traced_tally.wall_s / (plain.wall_s - clock.probe_total_s), "ratio")
    return {"plain": summary(plain), "traced": summary(traced_tally),
            "layers": layers, "absent_hooks": hooks.absent,
            "spans": tracer.spans, "dropped_spans": tracer.dropped_spans,
            **probes}


def summary(tally):
    return {"latencies": tally.latencies,
            "wall_latencies": tally.wall_latencies, "kinds": tally.kinds,
            "outcomes": tally.outcomes, "round_rates": tally.round_rates,
            "wall_round_rates": tally.wall_round_rates,
            "errors": tally.errors, "wall_s": tally.wall_s}


if __name__ == "__main__":
    sys.exit(main())
