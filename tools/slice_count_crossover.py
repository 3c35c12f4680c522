"""Time SuffixIndex.top_documents' two counts over slices of each length.

top_documents counts a slice of at most suffixes.SHORT_SLICE slots by a
Python sort and a longer one in numpy.  This script builds the suffix
array of one benchmark workload, draws random slices of its document
array at each length L below, and times both counts on the same slices,
forcing each by setting SHORT_SLICE in this process: the per-call time is
the minimum over PASSES passes.  Both counts must give the same pairs.

Usage: python tools/slice_count_crossover.py WORKLOAD SEED

WORKLOAD is a name in perfbench/workloads.py.  Prints one row per L.
"""

import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from topkdoc import build_suffix_array, ingest, suffixes  # noqa: E402

LENGTHS = (8, 16, 24, 32, 48, 64, 96, 128)
SLICES = 400
PASSES = 9
PYTHON, NUMPY = 1 << 62, 0      # SHORT_SLICE values that force each count


def time_count(s, intervals, k, short_slice):
    """(µs per call, the pairs of every call) with SHORT_SLICE set."""
    suffixes.SHORT_SLICE = short_slice
    best = float("inf")
    for _ in range(PASSES):
        start = time.perf_counter()
        for sp, ep in intervals:
            s.top_documents(sp, ep, k)
        best = min(best, time.perf_counter() - start)
    pairs = [s.top_documents(sp, ep, k) for sp, ep in intervals]
    return best / len(intervals) * 1e6, pairs


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    wl = workloads.make(argv[1], int(argv[2]))
    s = build_suffix_array(ingest(wl.docs))
    rng = random.Random(int(argv[2]))
    kept = suffixes.SHORT_SLICE
    print(f"{argv[1]}, seed {argv[2]}: n = {len(s)}, k = {wl.k}, SHORT_SLICE = {kept}, "
          f"{SLICES} slices per L, min of {PASSES} passes")
    print(f"{'L':>5}  {'numpy µs':>9}  {'Python µs':>9}")
    try:
        for length in LENGTHS:
            starts = (rng.randint(1, len(s) - length + 1) for _ in range(SLICES))
            intervals = [(sp, sp + length - 1) for sp in starts]
            numpy_us, numpy_pairs = time_count(s, intervals, wl.k, NUMPY)
            python_us, python_pairs = time_count(s, intervals, wl.k, PYTHON)
            if numpy_pairs != python_pairs:
                sys.exit(f"L = {length}: the two counts give different pairs")
            print(f"{length:5d}  {numpy_us:9.2f}  {python_us:9.2f}")
    finally:
        suffixes.SHORT_SLICE = kept


if __name__ == "__main__":
    main(sys.argv)
