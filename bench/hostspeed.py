"""Host speed probe, used to scale every time the benchmark reports.

On a host whose cores are shared, the same solve can take anywhere from one
to two times its fastest time, in phases that last from seconds to tens of
seconds, as long as a run or longer.  A probe times a fixed kernel that does
the kind of work the workload does but calls no code of the program: bit
tests on 2000-bit masks with small-int packing and dict stores for the
solver, plus a subset table over small-int bitmasks for the oracle.  A time
measured while probing is multiplied by the kernel's reference time over the
mean probe time, so it reads as seconds on a host where the kernel takes its
reference time.

Measured on a shared 2-vCPU Xeon VM: over ten seeds per workload, raw
throughput spread by 8-11 % (quartile distance over median) and the scaled
one by 2-4 %; over 150 s of wider swings, raw 10-second medians of solver,
oracle and codec work spread by 20-70 %, the ones scaled by the solver
kernel by 1-4 %.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

INTERVAL_S = 0.1

_rng = random.Random(2409_03623)
_MASKS = [_rng.getrandbits(2000) for _ in range(20)]
_KEEP = sorted(_rng.sample(range(1, 2001), 400))
_SMALL = 9
_ADJ = [_rng.getrandbits(_SMALL) & ~(1 << i) for i in range(_SMALL)]


def _bit(v: int) -> int:
    return 1 << (v - 1)


def _pack(masks: list[int]) -> int:
    """Bit tests on 2000-bit masks and small-int packing, as in induced."""
    packed_masks = []
    for m in masks:
        packed = 0
        for i, w in enumerate(_KEEP):
            if m & _bit(w):
                packed |= 1 << i
        packed_masks.append(packed)
    counts = {}
    for i, x in enumerate(packed_masks * 50):
        counts[i] = x.bit_count()
    return len(counts)


def _table() -> int:
    """Every vertex set that a walk along _ADJ can end in, by end vertex: a
    subset table over small-int bitmasks, as in the oracle."""
    ends = [0] * (1 << _SMALL)
    for i in range(_SMALL):
        ends[1 << i] = 1 << i
    for m in range(1, 1 << _SMALL):
        e = ends[m]
        while e:
            xbit = e & -e
            e ^= xbit
            ext = _ADJ[xbit.bit_length() - 1] & ~m
            while ext:
                wbit = ext & -ext
                ext ^= wbit
                ends[m | wbit] |= wbit
    return sum(map(bool, ends))


# probe name -> (kernel, its reference time in seconds).  "solver" tracked
# the solver and codec best, "oracle" the exact oracle: one kernel for both
# spread the hub medians by 7-8 % instead of 2-4 %.
PROBES = {
    "solver": (lambda: _pack(_MASKS), 0.002),
    "oracle": (lambda: _pack(_MASKS[:8]) + _table(), 0.0015),
}


class ScaledClock:
    """Probes the host while work runs, and scales the work's times.

    Inside `with clock:` a SIGALRM timer probes the host every INTERVAL_S,
    so a solve of several seconds is sampled while it runs, not only at its
    ends.  `on_probe`, when set, is called with each probe's duration.
    """

    def __init__(self, probe: str):
        self._kernel, self.reference_s = PROBES[probe]
        self.starts: list[float] = []  # perf_counter at each probe's start
        self.durations: list[float] = []
        self.on_probe = None

    def _probe(self, *_signal) -> None:
        start = time.perf_counter()
        self._kernel()
        took = time.perf_counter() - start
        self.starts.append(start)
        self.durations.append(took)
        if self.on_probe is not None:
            self.on_probe(took)

    def __enter__(self) -> "ScaledClock":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, seconds: float) -> tuple[float, float]:
        """(net, scaled) seconds for work that ran `seconds` from perf_counter
        `start`.  net leaves out the probes that interrupted the work; scaled
        is net times reference_s over the mean of those probes and the last
        one before them."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, start + seconds)
        net = seconds - sum(self.durations[first:last])
        return net, net * self.reference_s / statistics.fmean(self.durations[max(first - 1, 0) : last])
