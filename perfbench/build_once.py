"""Build one workload's index in a fresh process; print its cost as JSON.

    python3 perfbench/build_once.py --workload NAME --seed N [--save PATH]

The process only generates the corpus and builds the index before its
peak resident set size is read, so ``peak_rss_mb`` is the build's memory
high-water mark including the interpreter and the generated documents.
``build_s`` is the build's wall time scaled to the reference host speed of
``hostspeed.py``; ``raw_build_s`` is the wall time as measured.
With ``--save`` the index is then written with ``save_index``'s defaults.
"""

import argparse
import json
import resource

import checkout
import hostspeed
import workloads


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--save")
    args = parser.parse_args()
    topkdoc = checkout.import_topkdoc()

    wl = workloads.make(args.workload, args.seed)
    index, build_s, raw_build_s = hostspeed.timed(
        lambda: topkdoc.build_index(wl.docs, g_prime=wl.g_prime, k_max=wl.k_max,
                                    variant=wl.variant))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if args.save:
        topkdoc.save_index(index, args.save)
    print(json.dumps({"build_s": build_s, "raw_build_s": raw_build_s,
                      "peak_rss_mb": peak_rss_mb}))


if __name__ == "__main__":
    main()
