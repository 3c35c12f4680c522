"""Command line interface: build an index, query it, inspect it, benchmark it."""

import argparse
import os
import random
import sys
import time

from . import container, engine
from .corpus import SENTINEL
from .errors import Error


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (Error, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="topkdoc",
        description="Index a document collection and answer which documents "
                    "contain a substring pattern most often.")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="index a directory or file of documents")
    b.add_argument("input", help="directory of document files, or a single file")
    b.add_argument("output", help="path of the index container to write")
    b.add_argument("--gprime", type=int, default=400,
                   help="base sampling step g'; level k samples every k*g' slots")
    b.add_argument("--kmax", type=int, default=16,
                   help="largest precomputed candidate level (power of two)")
    b.add_argument("--variant", choices=("light", "xlight"), default="light",
                   help="light stores candidate frequencies, xlight recounts them")
    b.add_argument("--line-docs", action="store_true",
                   help="treat each line of the input file as one document "
                        "(a trailing \\r is dropped; empty lines are skipped, "
                        "so ids count non-empty lines)")
    b.add_argument("--include-sa", action="store_true",
                   help="store the suffix array instead of rebuilding it on load")
    b.set_defaults(func=cmd_build)

    q = sub.add_parser("query", help="top-k documents for a pattern")
    q.add_argument("index", help="index container written by build")
    q.add_argument("pattern")
    q.add_argument("k", type=int)
    q.add_argument("--strategy", choices=engine.STRATEGIES, default=engine.GREEDY)
    q.add_argument("--no-sgst", action="store_true",
                   help="ignore precomputed candidates")
    q.set_defaults(func=cmd_query)

    i = sub.add_parser("inspect", help="header fields and bytes per container section")
    i.add_argument("index")
    i.set_defaults(func=cmd_inspect)

    n = sub.add_parser("bench", help="query throughput and work counters")
    n.add_argument("index")
    n.add_argument("--num-queries", type=int, default=1000)
    n.add_argument("--pattern-len", type=int, default=3)
    n.add_argument("--k", type=int, default=10)
    n.add_argument("--strategies", default="greedy,dfs,select",
                   help="comma-separated subset of greedy,dfs,select")
    n.add_argument("--seed", type=int, default=0)
    n.set_defaults(func=cmd_bench)
    return parser


def _read_documents(path, line_docs):
    if os.path.isdir(path):
        names = sorted(os.listdir(path))
        docs = []
        for name in names:
            full = os.path.join(path, name)
            if os.path.isfile(full):
                with open(full, "rb") as fh:
                    docs.append(fh.read())
        return docs
    with open(path, "rb") as fh:
        data = fh.read()
    if line_docs:
        lines = (line.removesuffix(b"\r") for line in data.split(b"\n"))
        return [line for line in lines if line]
    return [data]


def cmd_build(args):
    docs = _read_documents(args.input, args.line_docs)
    index = engine.build_index(docs, g_prime=args.gprime, k_max=args.kmax,
                               variant=args.variant)
    size = container.save_index(index, args.output,
                                include_suffix_array=args.include_sa)
    corpus = index.corpus
    print(f"n={corpus.n} d={corpus.d} sigma={corpus.sigma} "
          f"tree_nodes={index.sgst.node_count} "
          f"g_prime={index.sgst.g_prime} k_max={index.sgst.k_max} "
          f"variant={index.sgst.variant}")
    print(f"index_bytes={size} bits_per_symbol={size * 8 / corpus.n:.2f}")
    return 0


def cmd_query(args):
    index = container.load_index(args.index)
    result = engine.query_topk(index, args.pattern, args.k,
                               strategy=args.strategy,
                               use_sgst=not args.no_sgst)
    for doc, freq in result.pairs:
        print(f"{doc}\t{freq}")
    return 0


def cmd_inspect(args):
    """Print the header's fields, then the bytes and bits per symbol of the
    fixed header and of each section, its 16-byte frame included; the rows
    before the total sum to the file size.  The file is loaded first, so a
    container that does not load is reported as an error."""
    with open(args.index, "rb") as fh:
        data = fh.read()
    container.deserialize_index(data)
    header, frames = container.read_frames(data)
    print(" ".join(f"{name}={value}" for name, value in header._asdict().items()))
    rows = [("header", container.HEADER_BYTES)]
    rows += [(container.SECTION_NAMES.get(sec_id, f"section_{sec_id}"), end - start + 16)
             for sec_id, start, end in frames]
    rows.append(("total", len(data)))
    for name, size in rows:
        print(f"{name} bytes={size} bits_per_symbol={size * 8 / header.n:.3f}")
    return 0


def cmd_bench(args):
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    for s in strategies:
        if s not in engine.STRATEGIES:
            raise ValueError(f"unknown strategy {s!r}")
    index = container.load_index(args.index)
    size = os.path.getsize(args.index)
    report = run_bench(index, num_queries=args.num_queries,
                       pattern_len=args.pattern_len, k=args.k,
                       strategies=strategies, seed=args.seed)
    print(f"queries={report['num_queries']} pattern_len={args.pattern_len} "
          f"k={args.k} seed={args.seed}")
    for s in strategies:
        r = report["strategies"][s]
        print(f"strategy={s} mean_us={r['mean_us']:.1f} "
              f"mean_positions_scanned={r['mean_positions_scanned']:.2f} "
              f"mean_docs_emitted={r['mean_docs_emitted']:.2f} "
              f"mean_heap_offers={r['mean_heap_offers']:.2f} "
              f"loci_found={r['loci_found']}")
    print(f"index_bits_per_symbol={size * 8 / index.corpus.n:.2f}")
    return 0


def sample_patterns(index, num, length, rng):
    """Patterns cut from random text positions; windows crossing a document
    terminator are resampled."""
    text = index.corpus.text
    n = len(text)
    if length < 1 or length > n:
        raise ValueError("pattern length outside the text")
    sentinel = bytes([SENTINEL])
    patterns = []
    attempts = 0
    while len(patterns) < num:
        attempts += 1
        if attempts > 1000 * max(num, 1) + 1000:
            raise ValueError("could not sample patterns; documents shorter "
                             "than the requested length?")
        start = rng.randrange(n - length + 1)
        window = text[start:start + length]
        if sentinel in window:
            continue
        patterns.append(window)
    return patterns


def run_bench(index, num_queries=1000, pattern_len=3, k=10,
              strategies=("greedy", "dfs", "select"), seed=0):
    """Run the same sampled queries under each strategy and average the
    counters.  Pattern choice is deterministic under seed; timings are
    reported but vary run to run."""
    rng = random.Random(seed)
    patterns = sample_patterns(index, num_queries, pattern_len, rng) \
        if num_queries else []
    report = {"num_queries": num_queries, "strategies": {}}
    for strategy in strategies:
        scanned = emitted = offers = loci = 0
        elapsed = 0.0
        for pat in patterns:
            t0 = time.perf_counter()
            result = engine.query_topk(index, pat, k, strategy=strategy)
            elapsed += time.perf_counter() - t0
            st = result.stats
            scanned += st.positions_scanned
            emitted += st.docs_emitted
            offers += st.heap_offers
            loci += 1 if st.locus_found else 0
        denom = max(1, len(patterns))
        report["strategies"][strategy] = {
            "mean_us": elapsed * 1e6 / denom,
            "mean_positions_scanned": scanned / denom,
            "mean_docs_emitted": emitted / denom,
            "mean_heap_offers": offers / denom,
            "loci_found": loci,
        }
    return report


if __name__ == "__main__":
    sys.exit(main())
