"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark shares a few cores of a busy host, whose speed drifts by
20-40 % over seconds and minutes while the program under test stays the
same.  Between items the benchmark times this kernel, which never changes
and uses no bfgeo code, and scales every item's wall time by
``NOMINAL_S / (kernel time around the item)``.  The scaled times are
seconds at the host speed at which the kernel takes ``NOMINAL_S``; a change
to bfgeo moves them exactly as it moves the wall time, while a host that is
slow for a while moves the kernel as well and cancels out.

The kernel mixes the two kinds of work bfgeo does, so that a busy host
slows it about as much as it slows bfgeo: numpy gathers and element-wise
arithmetic mod 5 over a stack of 15 625 3x4 matrices (the shape of the
GF(5) 3x4 rank-1 test, written here in plain numpy so that a change to
bfgeo does not change the kernel), and an interpreter loop over a dict.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# the kernel's median time on the 2-vCPU Xeon VM the bounds were set on
NOMINAL_S = 0.0058
# a sample is at least this long, and at least this share of the time
# since the previous sample, so long items get a longer look at the host
SAMPLE_MIN_S = 0.02
SAMPLE_SHARE = 0.03
# sample after the first item that ends this long after the last sample
SAMPLE_EVERY_S = 0.25

_rng = np.random.default_rng(12345)
_MATS = _rng.integers(0, 5, (15625, 3, 4)).astype(np.int16)
_PERM = _rng.permutation(len(_MATS))


def kernel() -> int:
    M = _MATS[_PERM] - _MATS
    M %= 5
    ok = np.ones(len(M), dtype=bool)
    for i, i2 in ((0, 1), (0, 2), (1, 2)):
        for j in range(3):
            for j2 in range(j + 1, 4):
                ok &= (M[:, i, j] * M[:, i2, j2] - M[:, i, j2] * M[:, i2, j]) % 5 == 0
    acc = int(ok.sum())
    d = {}
    for i in range(6000):
        j = i & 255
        d[j] = d.get(j, 0) + (i * 7) % 13
    return acc + len(d)


class HostClock:
    """Samples of the kernel's time, and wall times scaled by them.

    ``sample`` records ``(when, kernel seconds)``; ``scale(t0, t1)`` is the
    factor for work done from ``t0`` to ``t1``: ``NOMINAL_S`` over the mean
    of the last sample before ``t0`` and the first one after ``t1``.

    An item is timed as segments: ``start`` opens one, ``pause`` (called
    between the stages of a long item) closes it, samples the host when one
    is due and opens the next, and ``stop`` closes the last and returns them
    all, so the time spent sampling is never part of an item.
    """

    def __init__(self):
        self.at: list[float] = []
        self.ref: list[float] = []
        self.segments: list[tuple[float, float]] = []
        self.opened = 0.0
        for _ in range(3):
            kernel()
        self.sample()

    def start(self):
        self.segments = []
        self.opened = time.perf_counter()

    def pause(self):
        self.segments.append((self.opened, time.perf_counter()))
        self.maybe_sample()
        self.opened = time.perf_counter()

    def stop(self) -> list[tuple[float, float]]:
        self.pause()
        return self.segments

    def sample(self):
        since = time.perf_counter() - self.at[-1] if self.at else 0.0
        want = max(SAMPLE_MIN_S, SAMPLE_SHARE * since)
        reps = []
        t0 = time.perf_counter()
        while not reps or time.perf_counter() - t0 < want:
            r0 = time.perf_counter()
            kernel()
            reps.append(time.perf_counter() - r0)
        self.at.append(time.perf_counter())
        self.ref.append(statistics.median(reps))

    def maybe_sample(self):
        if time.perf_counter() - self.at[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        before = max(bisect.bisect_right(self.at, t0) - 1, 0)
        after = min(bisect.bisect_left(self.at, t1), len(self.at) - 1)
        return NOMINAL_S / ((self.ref[before] + self.ref[after]) / 2)

    def speed(self) -> float:
        """The host's median speed over the run, 1.0 at the nominal speed."""
        return NOMINAL_S / statistics.median(self.ref)
