"""Calibration kernel: a fixed piece of work that tracks the machine's speed.

On a shared machine the same work can take 1.5x as long from one second to
the next.  While a child runs its workload, this kernel is timed every
EVERY_S seconds: between two ops when one ends in time, else from a timer
signal that interrupts the op (one thread: the handler runs between two
bytecodes of the workload).  An op's time is its measured time
minus the kernel time inside it, scaled by NOMINAL_S over the median kernel
sample around it: calibrated seconds.  A change to sylowpi moves calibrated
time exactly as it moves measured time, since the kernel calls no sylowpi
code; a slowdown of the whole machine moves the kernel as well and cancels.

The kernel mixes what sylowpi spends its time on: big-integer modular
arithmetic, permutation rows looked up in a dict by their bytes, and small
numpy calls on index arrays (`np.ix_`, `np.unique`, masks).  Its data fit
in a few hundred kB, so the cache an op leaves behind barely moves it: a
kernel that reads megabytes would run slower after ops that use more
memory, and flatter those ops' calibrated times.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# the kernel's median on a 2-vCPU x86-64 VM (Python 3.11, numpy 2.4) when
# the machine is quiet; it fixes the unit, not the result
NOMINAL_S = 0.008
EVERY_S = 0.1    # one sample per 0.1 s: about 10 % of a run's time
WINDOW_S = 0.25  # an op is scaled by the samples within this much of it

_TABLE = ((np.arange(128)[:, None] * 7 + np.arange(128)[None, :] * 13) % 128).astype(np.int32)
_GENS = np.array([3, 17, 101], dtype=np.int32)
_PERMS = np.array([np.random.default_rng(0).permutation(12) for _ in range(96)], dtype=np.int32)
_ENC = {p.tobytes(): i for i, p in enumerate(_PERMS)}


def kernel() -> int:
    # big-integer modular arithmetic (criterion, catalog, arith)
    acc = 0
    for i in range(1, 1800):
        acc ^= pow(i, 65537, 1_000_000_007) % (i + 7)
    # permutation rows looked up by their bytes (the multiplication table)
    for i in range(40):
        acc += sum(_ENC.get(p.tobytes(), 1) for p in _PERMS[:, _PERMS[i]])
    # closure by frontier over a small table (subgroup closure, lattice)
    for start in range(14):
        frontier = np.array([start], dtype=np.int32)
        mask = np.zeros(128, dtype=bool)
        mask[start] = True
        members = {start}
        while frontier.size:
            new = np.unique(_TABLE[np.ix_(frontier, _GENS)].ravel())
            new = new[~mask[new]]
            mask[new] = True
            members.update(new.tolist())
            frontier = new
        acc += len(members)
    return acc


class Calibrator:
    """Kernel samples of one child, and the conversion of its measured
    seconds into calibrated ones."""

    def __init__(self):
        self.starts: list[float] = []  # perf_counter at the start of each sample
        self.samples: list[float] = []
        kernel()  # first calls pay numpy's one-off dispatch set-up

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def between_ops(self) -> None:
        """Sample now if one is due, and restart the timer, so that it
        interrupts only an op that runs longer than EVERY_S.  An
        interruption costs the op some of its cache; on short ops that
        came and went at random and made their times noisier."""
        if time.perf_counter() - self.starts[-1] >= EVERY_S:
            self.sample()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def calibrated(self, start: float, end: float) -> float:
        """Calibrated seconds of the interval [start, end]: its length less
        the samples taken inside it, times NOMINAL_S over the median of the
        samples within WINDOW_S of it (at least the nearest on each side).
        One sample is noisy; a much wider window would miss the machine's
        changes of speed."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        inside = sum(self.samples[first:last])
        lo = min(bisect.bisect_left(self.starts, start - WINDOW_S), max(0, first - 1))
        hi = max(bisect.bisect_left(self.starts, end + WINDOW_S), min(len(self.starts), last + 1))
        return (end - start - inside) * NOMINAL_S / statistics.median(self.samples[lo:hi])
