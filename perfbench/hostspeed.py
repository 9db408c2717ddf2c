"""How fast the host runs right now, from two fixed reference kernels.

A shared host slows every process on it together, by up to 2x and for
tens of seconds at a time, so times taken in separate runs of the same
code spread far wider than any change worth detecting.  The probe times
two kernels between the workload's operations; they are plain code of the
benchmark's own and never call the program, so they cost the same on
every commit.  Dividing a time by the kernels' current time relative to
their nominal time gives that time at the nominal host speed, and a later
commit is compared with its parent at the same speed.  Each workload names
the kernels its work follows (`speed_kernels` in workloads.py).

- `python_kernel` is the allocating interpreter work of the program's
  kind: it lists the 2-stable 7-subsets of the 20-cycle as frozen records
  (members, bitmask), indexes them in a dict and packs the masks into an
  array, much as a graph is built.
- `numpy_kernel` is the array work of the BFS engine: a broadcast AND of
  uint64 masks reduced to one boolean per row.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# Each kernel's time in the fastest state seen on an Intel Xeon host with
# 2 vCPUs (CPython 3.11, numpy 2.4): the speed adjusted times are given at.
NOMINAL_S = {"python": 0.0090, "numpy": 0.0100}

# Probe at most this often while operations run; a probe takes about
# 25 ms, so this costs about a tenth of a run's time, none of it timed.
EVERY_S = 0.25

# A stretch between two samples takes the mean slowdown of the samples
# taken within this many seconds of it: one sample is a 20 ms reading,
# jittery on its own, while the host's state holds for seconds.
WINDOW_S = 0.5


@dataclass(frozen=True)
class _Record:
    members: tuple
    mask: int


def python_kernel() -> int:
    n, k = 20, 7
    records = []

    def extend(start: int, members: tuple, left: int) -> None:
        if not left:
            if not (members[0] == 0 and members[-1] == n - 1):
                mask = 0
                for m in members:
                    mask |= 1 << m
                records.append(_Record(members, mask))
            return
        for i in range(start, n):
            extend(i + 2, members + (i,), left - 1)

    extend(0, (), k)
    index = {r.members: i for i, r in enumerate(records)}
    masks = np.array([r.mask for r in records], dtype=np.uint64)
    return sum(index[r.members] for r in records) + int((masks & masks[0] == 0).sum())


_rng = np.random.default_rng(0)
_ROWS = _rng.integers(0, 2**62, 3000, dtype=np.uint64)
_COLS = _rng.integers(0, 2**62, 256, dtype=np.uint64)


def numpy_kernel() -> int:
    total = 0
    for _ in range(6):
        total += int(((_ROWS[:, None] & _COLS[None, :]) == 0).any(axis=1).sum())
    return total


KERNELS = {"python": python_kernel, "numpy": numpy_kernel}


class HostSpeed:
    """Kernel samples taken between operations, and the time they took.

    Calling the probe between two operations takes a sample when EVERY_S
    has passed since the last one.  `spent` is the time probes took, for
    the caller to take out of any interval it timed around them.  The time
    between two consecutive samples is a *segment*; `adjust` divides the
    work done in each segment by the host's slowdown around it.
    """

    def __init__(self):
        self.samples: list[dict[str, float]] = []
        self.begun: list[float] = []  # perf_counter when each sample began
        self.ended: list[float] = []  # and when it ended
        self.spent = 0.0
        self._due = 0.0

    def __call__(self) -> None:
        if perf_counter() >= self._due:
            self.sample()

    def sample(self) -> None:
        t0 = perf_counter()
        times = {}
        for name, kernel in KERNELS.items():
            k0 = perf_counter()
            kernel()
            times[name] = perf_counter() - k0
        end = perf_counter()
        self.samples.append(times)
        self.begun.append(t0)
        self.ended.append(end)
        self.spent += end - t0
        self._due = end + EVERY_S

    def adjust(self, kernels, first: int, op_starts) -> tuple[float, list[float]]:
        """Time at nominal speed of the segments after sample `first`, and
        the slowdown in force at each of `op_starts`.

        A sample's slowdown is the time of `kernels` over their nominal
        time; a segment's is the mean over the samples that end within
        WINDOW_S of it, which always include the two around it.
        """
        nominal = sum(NOMINAL_S[name] for name in kernels)
        raw = [sum(s[name] for name in kernels) / nominal for s in self.samples[first:]]
        ended, begun = self.ended[first:], self.begun[first + 1:]
        segment = [
            statistics.fmean(raw[bisect_left(ended, e - WINDOW_S):
                                 max(j + 2, bisect_right(ended, b + WINDOW_S))])
            for j, (e, b) in enumerate(zip(ended, begun))
        ]
        wall = sum((b - e) / f for e, b, f in zip(ended, begun, segment))
        return wall, [segment[bisect_right(ended, t) - 1] for t in op_starts]
