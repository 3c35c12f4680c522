"""Time each phase of query_topk, and each result constructor, in-process.

This script builds one benchmark workload's index, as perfbench/run.py
does, and times the phases of a greedy query over its patterns: the
interval search, the locus search, the stored candidates, the count of a
slice no marked node serves, and the whole query.  Each phase runs on the
inputs the query would give it, on every pattern that reaches it, and its
time is the minimum over PASSES passes.  A phase's time per pattern is that
pass divided by all the patterns, so the phases sum to about the query's
time less its own code.  The constructors are timed apart, with timeit, on
the values of the workload's first pattern, each through a lambda that
reads its arguments, whose cost (about 0.1 µs) the figures include.  A
line before the phases gives the suffix index's table of first slots: t,
its entries and bytes, and how many of the patterns it answers without a
bisect (those of at most t symbols, all of them in the text).

Output piped to a reader that stops early, such as head, ends it quietly.

Usage: python tools/query_fixed_cost.py WORKLOAD SEED

WORKLOAD is a name in perfbench/workloads.py.  Times are raw, not
host-scaled.
"""

import os
import sys
import time
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from topkdoc import (MarkedNode, PatternInterval, QueryStats, TopKResult,  # noqa: E402
                     build_index, candidates_of, find_locus, kstar, pattern_interval,
                     query_topk)

PASSES = 7
TIMEIT_CALLS = 100_000


def best_us(calls, patterns):
    """(calls made, µs per call, µs per pattern): the fastest of PASSES
    passes over calls, each a (function, arguments) pair."""
    if not calls:
        return 0, 0.0, 0.0
    best = float("inf")
    for _ in range(PASSES):
        start = time.perf_counter()
        for fn, args in calls:
            fn(*args)
        best = min(best, time.perf_counter() - start)
    return len(calls), best / len(calls) * 1e6, best / patterns * 1e6


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    wl = workloads.make(argv[1], int(argv[2]))
    index = build_index(wl.docs, g_prime=wl.g_prime, k_max=wl.k_max, variant=wl.variant)
    s, c, w, x = index.suffixes, index.corpus, index.wavelet, index.sgst
    k, k_star = wl.k, kstar(wl.k)
    g = k_star * x.g_prime
    intervals = [pattern_interval(s, c, p) for p in wl.patterns]
    loci = [find_locus(x, k_star, iv.sp, iv.ep)
            if k_star <= x.k_max and iv.ep - iv.sp >= g else None for iv in intervals]
    phases = {
        "pattern_interval": [(pattern_interval, (s, c, p)) for p in wl.patterns],
        "find_locus": [(find_locus, (x, k_star, iv.sp, iv.ep)) for iv in intervals
                       if k_star <= x.k_max and iv.ep - iv.sp >= g],
        "candidates_of": [(candidates_of, (x, node, w, k)) for node in loci if node],
        "top_documents": [(s.top_documents, (iv.sp, iv.ep, k))
                          for iv, node in zip(intervals, loci)
                          if node is None and iv.ep >= iv.sp],
        "query_topk": [(query_topk, (index, p, k)) for p in wl.patterns],
    }
    patterns = len(wl.patterns)
    print(f"{argv[1]}, seed {argv[2]}: n = {c.n}, {patterns} patterns, k = {k}, "
          f"variant {x.variant}, min of {PASSES} passes")
    by_table = sum(len(iv.pattern) <= s.t and all(s.code[b] for b in iv.pattern)
                   for iv in intervals)
    print(f"prefix table: t = {s.t}, {len(s.first)} entries, {s.first.nbytes} bytes "
          f"({s.first.nbytes / c.n:.2f} per symbol); it answers {by_table} of "
          f"{patterns} patterns without a bisect")
    print(f"{'phase':<18} {'calls':>6} {'µs per call':>12} {'µs per pattern':>15}")
    for name, calls in phases.items():
        count, per_call, per_pattern = best_us(calls, patterns)
        print(f"{name:<18} {count:6d} {per_call:12.2f} {per_pattern:15.2f}")

    iv = intervals[0]
    node = next((nd for nd in loci if nd), x.node_at(1))
    result = query_topk(index, wl.patterns[0], k)
    stats = tuple(vars(result.stats).values())
    constructors = {
        "TopKResult": lambda: TopKResult(result.pairs, result.pattern, k, x.variant,
                                         result.stats),
        "PatternInterval": lambda: PatternInterval(iv.sp, iv.ep, iv.pattern),
        "MarkedNode": lambda: MarkedNode(node.rank, node.sp, node.ep, node.cls),
        "QueryStats": lambda: QueryStats(*stats),
    }
    print(f"{'constructor':<18} {'µs per call':>12}   (timeit, best of 5 x {TIMEIT_CALLS})")
    for name, make in constructors.items():
        best = min(timeit.repeat(make, number=TIMEIT_CALLS, repeat=5))
        print(f"{name:<18} {best / TIMEIT_CALLS * 1e6:12.3f}")


if __name__ == "__main__":
    try:
        main(sys.argv)
    except BrokenPipeError:
        # The reader closed the pipe: point stdout at devnull, so that the
        # flush at exit does not fail again, and exit without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
