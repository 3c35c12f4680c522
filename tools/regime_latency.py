"""Time queries by regime, in-process: each regime's share, p50, p99, mean
and share of the summed time.

This script builds one benchmark workload's index, as perfbench/run.py
does, and sorts its patterns into the three query regimes by what
query_topk reports: equal (a marked node spans the pattern's interval),
flank (a marked node lies inside it and the flanks around it are
repaired) and fallback (no marked node serves it, and its slice of the
document array is counted).  Every pattern is then queried under each
strategy PASSES times, one timed call at a time; a pattern's time is the
fastest of its calls.  For each regime, and for all patterns together, it
prints the share of the patterns, then per strategy the p50, p99 and mean
of those times and the regime's share of their sum over all patterns.  A
throughput such as perfbench's queries_per_s is a mean, so a change to one
regime moves it by that regime's share of the summed time, which the p50
and p99 alone cannot size.

Output piped to a reader that stops early, such as head, ends it quietly.

Usage: python tools/regime_latency.py WORKLOAD SEED [PASSES]

WORKLOAD is a name in perfbench/workloads.py; PASSES defaults to 5.  Times
are raw µs, not host-scaled.
"""

import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from topkdoc import STRATEGIES, build_index, pattern_interval, query_topk  # noqa: E402

REGIMES = ("equal", "flank", "fallback")


def regime(index, pattern, k):
    stats = query_topk(index, pattern, k).stats
    if not stats.locus_found:
        return "fallback"
    iv = pattern_interval(index.suffixes, index.corpus, pattern)
    return "equal" if (stats.locus_sp, stats.locus_ep) == (iv.sp, iv.ep) else "flank"


def fastest_us(index, patterns, k, strategy, passes):
    """Each pattern's fastest of `passes` timed queries, in µs."""
    best = [float("inf")] * len(patterns)
    clock = time.perf_counter_ns
    for _ in range(passes):
        for i, pattern in enumerate(patterns):
            start = clock()
            query_topk(index, pattern, k, strategy)
            best[i] = min(best[i], clock() - start)
    return [t / 1e3 for t in best]


def quantiles(times):
    """(p50, p99) of times; both the one time when there is only one."""
    if len(times) < 2:
        return times[0], times[0]
    return statistics.median(times), statistics.quantiles(times, n=100)[98]


def main(argv):
    if len(argv) not in (3, 4):
        sys.exit(__doc__)
    passes = int(argv[3]) if len(argv) == 4 else 5
    wl = workloads.make(argv[1], int(argv[2]))
    index = build_index(wl.docs, g_prime=wl.g_prime, k_max=wl.k_max, variant=wl.variant)
    patterns = wl.patterns
    regimes = [regime(index, p, wl.k) for p in patterns]
    times = {s: fastest_us(index, patterns, wl.k, s, passes) for s in STRATEGIES}
    print(f"{argv[1]}, seed {argv[2]}: n = {index.corpus.n}, {len(patterns)} patterns, "
          f"k = {wl.k}, variant {wl.variant}, best of {passes} passes, raw µs")
    columns = ("p50", "p99", "mean", "time")
    print(f"{'regime':<9} {'patterns':>8} {'share':>7}"
          + "".join(f" {f'{s} {c}':>11}" for s in STRATEGIES for c in columns))
    for name in (*REGIMES, "all"):
        rows = [i for i, r in enumerate(regimes) if name in (r, "all")]
        line = f"{name:<9} {len(rows):8d} {len(rows) / len(patterns):7.2%}"
        for s in STRATEGIES:
            if rows:
                own = [times[s][i] for i in rows]
                line += " {:11.2f} {:11.2f} {:11.2f} {:11.2%}".format(
                    *quantiles(own), statistics.fmean(own), sum(own) / sum(times[s]))
            else:
                line += f" {'-':>11}" * len(columns)
        print(line)


if __name__ == "__main__":
    try:
        main(sys.argv)
    except BrokenPipeError:
        # The reader closed the pipe: point stdout at devnull, so that the
        # flush at exit does not fail again, and exit without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
