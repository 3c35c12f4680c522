"""Time each stage of an index build, in-process.

The stages are those of engine.build_index, each run on the output of the
one before: ingest, the suffix sort, the wavelet tree, the marking of the
sampled tree's nodes and the pass that counts their candidates.  A
stage's time is the minimum over PASSES runs.  The line above the stages
gives the marked nodes: how many, how deep they nest, and the sum of
their slices over n, which is how many times a count of each node's own
slice would read the document array.

Usage: python tools/build_stages.py WORKLOAD SEED
       python tools/build_stages.py periodic

WORKLOAD is a name in perfbench/workloads.py, built with its g′, k_max
and layout.  `periodic` builds "ab" * 250000 at g′ = 50 with k_max 16,
whose nodes nest thousands deep.  Times are raw, not host-scaled.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from topkdoc import build_suffix_array, ingest  # noqa: E402
from topkdoc.sgst import count_candidates, mark_nodes  # noqa: E402
from topkdoc.wavelet import WaveletTree  # noqa: E402

PASSES = 5


def best_s(fn, *args):
    """(fn(*args), the fastest of PASSES calls in seconds)."""
    best = float("inf")
    for _ in range(PASSES):
        start = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - start)
    return out, best


def depth(sp, ep):
    """How deep the preorder intervals nest."""
    open_ends, deepest = [], 0
    for a, b in zip(sp, ep):
        while open_ends and open_ends[-1] < a:
            open_ends.pop()
        open_ends.append(b)
        deepest = max(deepest, len(open_ends))
    return deepest


def main(argv):
    if argv[1:] == ["periodic"]:
        name, docs, g_prime, k_max = "periodic", [b"ab" * 250_000], 50, 16
    elif len(argv) == 3:
        wl = workloads.make(argv[1], int(argv[2]))
        name, docs, g_prime, k_max = f"{argv[1]}, seed {argv[2]}", wl.docs, wl.g_prime, wl.k_max
    else:
        sys.exit(__doc__)
    times = {}
    corpus, times["ingest"] = best_s(ingest, docs)
    s, times["suffix sort"] = best_s(build_suffix_array, corpus)
    _, times["wavelet tree"] = best_s(WaveletTree, s.doc_ids, corpus.d)
    (sp, ep, cls), times["marking"] = best_s(mark_nodes, corpus, s, g_prime, k_max)
    _, times["candidate pass"] = best_s(count_candidates, s.doc_ids, corpus.d, sp, ep, cls)
    slots = sum(b - a + 1 for a, b in zip(sp, ep))
    print(f"{name}: n = {corpus.n}, d = {corpus.d}, g′ = {g_prime}, k_max = {k_max}, "
          f"min of {PASSES} runs")
    print(f"marked nodes: {len(sp)}, nested {depth(sp, ep)} deep, "
          f"their slices sum to {slots / corpus.n:.1f} n")
    print(f"{'stage':<16} {'ms':>10}")
    for stage, seconds in times.items():
        print(f"{stage:<16} {seconds * 1e3:10.1f}")
    print(f"{'total':<16} {sum(times.values()) * 1e3:10.1f}")


if __name__ == "__main__":
    main(sys.argv)
