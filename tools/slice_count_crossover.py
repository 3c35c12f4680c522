"""Time the two counts of each of two choices the index makes by a slice's
length.

top_documents counts a slice of at most suffixes.SHORT_SLICE slots by a
Python sort and a longer one in numpy.  By default this script builds the
suffix array of one benchmark workload, draws random slices of its
document array at each length L below, and times both counts on the same
slices, forcing each by setting SHORT_SLICE in this process: the per-call
time is the minimum over PASSES passes.  Both counts must give the same
pairs.

In recount mode it builds the workload's whole index and times
engine.frequencies, which reads the exact frequencies of a locus-served
query over its core (xlight's seeds, the select scan's documents), both
ways on the same slices: one count of the L slots and one read of m of
their documents (forced by a huge engine.RECOUNT_SLOTS), against m
WaveletTree.doc_freq calls (RECOUNT_SLOTS = 0).  Both must give the same frequencies.  For each
m it prints the longest L at which the count still wins, found by
interpolating between the two lengths around the crossover, and that L
per frequency: the slots one doc_freq call is worth.

Usage: python tools/slice_count_crossover.py WORKLOAD SEED [recount]

WORKLOAD is a name in perfbench/workloads.py.  Prints one row per L.
Times are raw, not host-scaled.
"""

import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from topkdoc import build_index, build_suffix_array, engine, ingest, suffixes  # noqa: E402

LENGTHS = (8, 16, 24, 32, 48, 64, 96, 128)
SLICES = 400
PASSES = 9
PYTHON, NUMPY = 1 << 62, 0      # SHORT_SLICE values that force each count

RECOUNT_LENGTHS = (256, 1024, 2048, 4096, 8192, 16384, 32768, 65536)
RECOUNT_READS = (1, 4, 10, 16)  # m, the frequencies read per slice
RECOUNT_SLICES = 60
COUNT, DOC_FREQ = 1 << 62, 0    # RECOUNT_SLOTS values that force each way


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


def time_recount(index, queries, slots):
    """(µs per slice, the frequencies of every slice) with RECOUNT_SLOTS
    set; queries are (sp, ep, docs) triples."""
    engine.RECOUNT_SLOTS = slots
    frequencies = engine.frequencies
    best = float("inf")
    for _ in range(PASSES):
        start = time.perf_counter()
        for sp, ep, docs in queries:
            frequencies(index, sp, ep)(docs)
        best = min(best, time.perf_counter() - start)
    freqs = [frequencies(index, sp, ep)(docs) for sp, ep, docs in queries]
    return best / len(queries) * 1e6, freqs


def crossover(rows):
    """The L where the count stops winning, interpolated between the two
    lengths around the first loss: rows are (L, count µs, doc_freq µs).
    None if the count never wins, inf if it never loses."""
    prev = None
    for length, count_us, doc_freq_us in rows:
        gain = doc_freq_us - count_us
        if gain <= 0:
            if prev is None:
                return None
            (l0, g0), l1 = prev, length
            return l0 + (l1 - l0) * g0 / (g0 - gain)
        prev = (length, gain)
    return float("inf")


def recount_mode(name, seed):
    wl = workloads.make(name, seed)
    index = build_index(wl.docs, g_prime=wl.g_prime, k_max=wl.k_max, variant=wl.variant)
    ids = index.suffixes.doc_ids
    rng = random.Random(seed)
    kept = engine.RECOUNT_SLOTS
    print(f"{name}, seed {seed}: n = {len(ids)}, d = {index.corpus.d}, "
          f"RECOUNT_SLOTS = {kept}, {RECOUNT_SLICES} slices per L, min of {PASSES} passes")
    print(f"{'L':>6}" + "".join(f"  {f'count m={m}':>11}  {f'doc_freq m={m}':>14}"
                                for m in RECOUNT_READS))
    rows = {m: [] for m in RECOUNT_READS}
    try:
        for length in RECOUNT_LENGTHS:
            if length > len(ids):
                break
            line = f"{length:6d}"
            for m in RECOUNT_READS:
                queries = []
                for _ in range(RECOUNT_SLICES):
                    sp = rng.randint(1, len(ids) - length + 1)
                    present = sorted(set(ids[sp - 1:sp - 1 + length].tolist()))
                    docs = [rng.choice(present) for _ in range(m)]
                    queries.append((sp, sp + length - 1, docs))
                count_us, count_freqs = time_recount(index, queries, COUNT)
                doc_freq_us, doc_freqs = time_recount(index, queries, DOC_FREQ)
                if count_freqs != doc_freqs:
                    sys.exit(f"L = {length}, m = {m}: the two ways give different frequencies")
                rows[m].append((length, count_us, doc_freq_us))
                line += f"  {count_us:11.2f}  {doc_freq_us:14.2f}"
            print(line)
    finally:
        engine.RECOUNT_SLOTS = kept
    print(f"{'m':>3}  {'crossover L':>11}  {'slots per frequency':>19}")
    for m in RECOUNT_READS:
        at = crossover(rows[m])
        if at is None:
            print(f"{m:3d}  {'never wins':>11}")
        else:
            print(f"{m:3d}  {at:11.0f}  {at / m:19.0f}")


def main(argv):
    if len(argv) == 4 and argv[3] == "recount":
        return recount_mode(argv[1], int(argv[2]))
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
