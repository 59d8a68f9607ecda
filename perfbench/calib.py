"""Machine-speed calibration for the timed runs.

On a shared host the speed of a core drifts by up to 2x, in spells from a
fraction of a second to minutes (other tenants on the same physical cores),
while CPU time and wall time of this process stay equal: the process is not
descheduled, the core just retires fewer instructions per second.  A run
cannot outlast the long spells, so replaying calls and keeping the fastest
does not remove them.

The timed runs therefore time a fixed pure-Python kernel (set membership
scans, dict lookups, small calls and a ``json.loads``: the operations
``mlsm`` spends its time in) in short bursts: before each verdict call,
after it, and every PERIOD_S inside it (from a SIGALRM handler).  The
bursts cut a call into segments; each segment is rescaled by the kernel's
speed at its two ends, and the bursts' own time is left out:

    reported = sum over segments of
               segment * REFERENCE_KERNEL_S / mean(burst at start, burst at end)

The kernel is the benchmark's own code and never calls ``mlsm``, so a
change to the package moves the reported times exactly as it moves the
measured ones; only the machine's drift cancels.  Reported times are
seconds at the reference speed, the speed of the machine the constant
below was measured on.
"""

from __future__ import annotations

import json
import random
import signal
import statistics
import time

# Median seconds of one kernel() on the reference machine (2-core x86 VM,
# in its fast spells).  It only scales the reported times.
REFERENCE_KERNEL_S = 0.00032
BURST = 3  # kernels per burst; a burst's value is their median
PERIOD_S = 0.025  # bursts inside a call at this interval

_N = 60
_rng = random.Random(20260518)
_APPROVE = [[frozenset(_rng.sample(range(_N), 5)) for _ in range(_N)] for _ in range(3)]
_order = list(range(_N))
_rng.shuffle(_order)
_PARTNER = {}
for _a, _b in zip(_order[0::2], _order[1::2]):
    _PARTNER[_a] = _b
    _PARTNER[_b] = _a
_DOC = json.dumps({"layers": [[sorted(s) for s in layer] for layer in _APPROVE]})


def _happy(layer: int, a: int) -> bool:
    return _PARTNER.get(a) in _APPROVE[layer][a]


def kernel() -> int:
    """Count mutually approving unhappy pairs in three layers of a fixed
    60-agent instance, then parse its approval lists back from JSON."""
    count = 0
    for layer in range(3):
        happy = [_happy(layer, a) for a in range(_N)]
        approve = _APPROVE[layer]
        for a in range(_N):
            if happy[a]:
                continue
            mine = approve[a]
            for b in range(a + 1, _N):
                if not happy[b] and b in mine and a in approve[b]:
                    count += 1
    doc = json.loads(_DOC)
    return count + sum(len(x) for layer in doc["layers"] for x in layer)


def burst() -> float:
    """Median seconds of BURST back-to-back kernel runs."""
    clock = time.perf_counter
    samples = []
    for _ in range(BURST):
        t0 = clock()
        kernel()
        samples.append(clock() - t0)
    return statistics.median(samples)


def rescale(seconds: float, before: float, after: float) -> float:
    """``seconds`` run between bursts ``before`` and ``after``, at the
    reference speed."""
    return seconds * 2 * REFERENCE_KERNEL_S / (before + after)


class Speed:
    """Brackets calls with bursts (``start``/``stop``) and rescales them.

    Owns SIGALRM while open; ``close`` restores the previous handler."""

    def __init__(self):
        self._marks: list[tuple[float, float, float]] = []  # (start, end, value)
        self._last: float | None = None  # burst after the previous call
        self._previous = signal.signal(signal.SIGALRM, self._alarm)

    def _alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        value = burst()
        self._marks.append((t0, time.perf_counter(), value))

    def start(self) -> None:
        """Burst (unless one just ended the previous call), then arm the
        timer; the caller reads the clock right after."""
        if self._last is None:
            self._last = burst()
        self._marks.clear()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self, t0: float, t1: float) -> tuple[float, float]:
        """Disarm, burst, and return the call's (measured, rescaled)
        seconds, both without the bursts run inside it."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        after = burst()
        inside = [m for m in self._marks if t0 <= m[0] and m[1] <= t1]
        edges = [(t0, t0, self._last), *inside, (t1, t1, after)]
        self._last = after
        measured = scaled = 0.0
        for (_, end, v0), (begin, _, v1) in zip(edges, edges[1:]):
            measured += begin - end
            scaled += rescale(begin - end, v0, v1)
        return measured, scaled

    def pause(self) -> None:
        """Forget the last burst (the next call starts with a fresh one)."""
        self._last = None

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
