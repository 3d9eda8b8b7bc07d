"""A clock that runs at a fixed reference speed of the machine.

The shared VM the benchmark runs on changes speed by up to about 2x, in
spells that last from a fraction of a second to minutes, and an op slows
by about the same factor as other work of its kind.  `ScaledClock`
probes the speed every PROBE_EVERY_S from a SIGALRM handler: it times one
run of a fixed kernel of the kind of work the workload does, with no
chowstab code.  The time between two probes is scaled by the kernel's
reference time over the probe's time, so the clock reads the seconds the
same work takes at the reference speed; the probes' own time is left
out.  Nothing a change to the program does can move the kernel's time.

Two kernels: PYTHON (Fraction elimination and Bareiss steps on 48-bit
integers, where the interpreter's overhead dominates) and MIXED (the same
plus Bareiss steps on 1500-bit integers, where C arithmetic on the digits
dominates).  Wide-integer arithmetic slows by only about 0.6 of the
interpreter's factor in a slow spell, so a workload whose ops range from
interpreter-bound to wide-integer-bound is probed with MIXED.
"""

from __future__ import annotations

import random
import signal
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable

PROBE_EVERY_S = 0.05       # time between probes

_RNG = random.Random(20070215)
_FRAC = [[_RNG.randint(-9, 9) for _ in range(9)] for _ in range(7)]
_NARROW = [[_RNG.getrandbits(48) - (1 << 47) for _ in range(9)]
           for _ in range(9)]
_WIDE = [[_RNG.getrandbits(1500) - (1 << 1499) for _ in range(5)]
         for _ in range(5)]


def _fraction_rank(rows) -> int:
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(m[0])):
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


def _bareiss_det(rows) -> int:
    m = [list(r) for r in rows]
    n = len(m)
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return m[-1][-1]


@dataclass(frozen=True)
class Kernel:
    name: str
    run: Callable[[], tuple]
    reference_s: float         # its time at the speed scaled times refer to


def _python() -> tuple:
    return _fraction_rank(_FRAC), _bareiss_det(_NARROW)


def _mixed() -> tuple:
    return _python() + (_bareiss_det(_WIDE),)


# At the reference speed each part of MIXED takes about 1 ms.
PYTHON = Kernel("python", _python, 0.001)
MIXED = Kernel("mixed", _mixed, 0.002)
KERNELS = {k.name: k for k in (PYTHON, MIXED)}
_EXPECTED = {k.name: k.run() for k in KERNELS.values()}


def probe(kernel: Kernel = PYTHON) -> float:
    """Seconds of one kernel run."""
    t0 = perf_counter()
    out = kernel.run()
    t = perf_counter() - t0
    if out != _EXPECTED[kernel.name]:
        raise RuntimeError("speed probe kernel gave a different answer")
    return t


class ScaledClock:
    """Seconds at the reference speed since the clock was made.

    One clock at a time per process: it owns SIGALRM until `close`.
    """

    def __init__(self, kernel: Kernel = PYTHON):
        self.kernel = kernel
        self.probes = []                 # seconds of every probe
        self.probe_total_s = 0.0         # wall time spent probing
        self._scaled = 0.0
        self._last = min(probe(kernel) for _ in range(3))
        self._mark = perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def _tick(self, signum, frame):
        t0 = perf_counter()
        p = probe(self.kernel)
        self._scaled += (t0 - self._mark) * self.kernel.reference_s / p
        self._last = p
        self.probes.append(p)
        self._mark = perf_counter()
        self.probe_total_s += self._mark - t0

    def now(self) -> float:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return self._scaled + ((perf_counter() - self._mark)
                                   * self.kernel.reference_s / self._last)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
