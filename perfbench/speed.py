"""Fixed reference kernels that measure how fast the host runs right now.

The benchmark host is shared.  Other tenants slow this process by up to
about 40%, in phases lasting from a fraction of a second to minutes, and
the slowdown shows in process time as well as in wall time.  run.py times
these kernels around every repetition and divides the host's current
slowdown out of the measured rate, which leaves the program's own speed.

There are two kernels, one for each kind of work polarfec does, and every
correction uses both:

- "scalar": interpreter-bound work on short lists and 16-element arrays,
  as in the scalar decoders, the schedules and rs_decode.
- "array": passes over large arrays, as in the batch kernels.

The kernels run in the benchmark process, right after each repetition, so
they sample the CPU and the moment the repetition ran in.  Timed in a
separate helper process they tracked the repetitions worse (README.md,
"Host-load correction").  They share no state with polarfec that a change
to it could move: they never call it, the garbage collector is off while
they run, and the array kernel works in buffers allocated once, so
glibc's heap and its dynamic mmap threshold, which polarfec's own
allocations set, do not decide whether its pages fault.

Every workload is corrected.  polar16 simulates its frames in 2 pool
workers, which the kernels do not sample directly, but the host's load
reaches them too: over ten runs its corrected spread was 0.10 against 0.16
uncorrected.
"""

from __future__ import annotations

import gc
import mmap
import statistics
from time import perf_counter

import numpy as np

# Kernel times on that host when it is quiet.  They only set the scale: a
# corrected rate is what the program would do on a host running the kernels
# this fast.
NOMINAL_S = {"scalar": 0.006, "array": 0.003}


class Kernels:
    """The two kernels and the array kernel's buffers (6.25 MiB, kept)."""

    def __init__(self):
        shape, n = (256, 1024), 256 * 1024
        self._buffer = mmap.mmap(-1, 3 * 8 * n + n)
        # Processes forked from this one (pool workers) do not inherit the
        # buffers, so they count once in peak_rss_mb, not once per worker.
        self._buffer.madvise(mmap.MADV_DONTFORK)
        self._x, self._plus, self._minus = (
            np.frombuffer(self._buffer, np.float64, count=n, offset=8 * n * i).reshape(shape) for i in range(3)
        )
        self._positive = np.frombuffer(self._buffer, np.bool_, count=n, offset=24 * n).reshape(shape)

    @staticmethod
    def _scalar():
        values = [float((i * 37) % 11 - 5) for i in range(16)]
        acc = 0.0
        for _ in range(500):
            a, b = values[:8], values[8:]
            f = [min(abs(x), abs(y)) if (x < 0) == (y < 0) else -min(abs(x), abs(y)) for x, y in zip(a, b)]
            g = [y - x if k % 2 else y + x for k, (x, y) in enumerate(zip(a, b))]
            acc += sum(f) + sum(g)
        small = np.arange(16.0)
        for _ in range(1200):
            small = np.minimum(np.abs(small), small + 1.0)
        return acc + float(small[0])

    def _array(self):
        x = self._x
        x.fill(1.0)
        for _ in range(3):
            np.greater(x, 0, out=self._positive)
            np.add(x, 1.0, out=self._plus)
            np.subtract(x, 1.0, out=self._minus)
            np.copyto(x, self._minus)
            np.copyto(x, self._plus, where=self._positive)
        return float(x[0, 0])

    def seconds(self):
        """Wall time of one run of each kernel, by kernel name.

        Each kernel first runs once untimed, so that the timed run finds
        its code and buffers in cache whatever the repetition left there.
        """
        times = {}
        collecting = gc.isenabled()
        gc.disable()
        try:
            for name, kernel in (("scalar", self._scalar), ("array", self._array)):
                kernel()
                start = perf_counter()
                kernel()
                times[name] = perf_counter() - start
        finally:
            if collecting:
                gc.enable()
        return times


def slowdown(before, after):
    """How many times slower than nominal the host ran between two timings.

    The mean over the kernels of their time, averaged over the two timings,
    against nominal.
    """
    return statistics.mean((before[k] + after[k]) / 2 / NOMINAL_S[k] for k in NOMINAL_S)
