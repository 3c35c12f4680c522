"""Timings scaled to a fixed host speed.

The benchmark runs on a few cores of a shared host whose speed changes,
often by half or more, for seconds to minutes at a time as other tenants
load it.  Raw wall times then measure the host as much as topkdoc.  To take
the host out, a short fixed reference task is timed right before and right
after each measured stretch of work, and the stretch's time is reported as

    measured * nominal_ns / (mean of the two reference times)

that is, as it would read on a host that runs the reference in nominal_ns.
No reference calls topkdoc, so a change to the library moves the scaled
times as it moves the raw ones.

Two references, because a loaded host slows two kinds of work by different
amounts.  INTERPRETER reads a list of 2**16 Python ints at scattered
positions and counts their bits, the kind of work ``bitrank`` and
``wavelet`` do at query time; it scales query latencies.  ARRAYS sorts 2**18
int64 values with numpy, the kind of work that dominates building the
suffix array at build and at load time; it scales build and load times.
Each tracks its kind of work more closely than the other does.
"""

import random
import statistics
import time

import numpy as np


class Reference:
    def __init__(self, task, nominal_ns, repeats):
        self.task = task
        self.nominal_ns = nominal_ns   # about its time on an unloaded 2-core host
        self.repeats = repeats

    def time_ns(self):
        """The host's current time for the task: median of a few runs, in ns."""
        times = []
        for _ in range(self.repeats):
            start = time.perf_counter_ns()
            self.task()
            times.append(time.perf_counter_ns() - start)
        return statistics.median(times)

    def factor(self, before, after):
        """Scale for a stretch of work between two timings of the task."""
        return 2 * self.nominal_ns / (before + after)


_SIZE = 1 << 16
_rng = random.Random(20111118)
_WORDS = [_rng.getrandbits(64) for _ in range(_SIZE)]
_OFFSETS = [_rng.randrange(_SIZE) for _ in range(4096)]
_KEYS = np.random.default_rng(20111118).integers(0, 1 << 40, size=1 << 18)


def _interpreter_task():
    acc = 0
    words, offsets = _WORDS, _OFFSETS
    for i in range(1500):
        acc += words[(offsets[i & 4095] ^ (acc & 1023)) & (_SIZE - 1)].bit_count()
    return acc


def _array_task():
    return np.argsort(_KEYS, kind="stable")


INTERPRETER = Reference(_interpreter_task, nominal_ns=200_000, repeats=5)
ARRAYS = Reference(_array_task, nominal_ns=25_000_000, repeats=3)


def timed(work, reference=ARRAYS):
    """Run work(); return its result, its scaled and its raw wall time in s."""
    before = reference.time_ns()
    start = time.perf_counter()
    result = work()
    raw = time.perf_counter() - start
    return result, raw * reference.factor(before, reference.time_ns()), raw
