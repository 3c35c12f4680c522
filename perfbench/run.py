"""End-to-end and per-layer benchmark of topkdoc on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a repository checkout; it imports topkdoc from the
checkout's ``src/`` and refuses to run without it.  Workloads are defined
in ``workloads.py``.  One process drives one client in a closed loop: each
``query_topk`` call is issued only after the previous one returned, cycling
through the workload's patterns and, for every pattern, through the three
strategies.  Every answer is compared, outside the timed region, with the
index-free oracle in ``oracle.py``.

``--trace 0`` measures the end-to-end metrics with no tracing installed,
in ROUNDS rounds.  Each round builds the index in a fresh process that only
generates the corpus and builds (``build_once.py``; the first round's
process also saves the container), then LOADS times loads the container
and runs queries on it, each time for an equal share of ``--seconds``.
The last slice goes on until the pass under way is complete, so every
pattern ran equally often.  Set-up and load report the median over the
run's builds and loads; p50 and p99 are over all queries of a strategy.

Every timing, end-to-end or of a query in either mode, is scaled to a
fixed host speed (``hostspeed.py``): a reference task is timed before and
after each build and load and around every CHUNK_S of queries, and each
time is multiplied by the reference's nominal time over the mean of the
two reference times around it.  The span times of ``--trace 1`` are not
scaled.  The output reports the raw build times and the scale factors
applied to queries.

``--trace 1`` works in this process on the first TRACED_PATTERNS patterns.
With the span wrappers of ``tracing.py`` installed it builds, saves, builds
again under tracemalloc for per-stage peak memory, loads and runs one query
pass; then one pass with only the call counters installed; then, with every
wrapper removed and checked to be gone, one untraced pass, whose p50s give
the tracing overhead.  Spans go to ``.perfbench/trace-<workload>.jsonl``.

Each metric is printed on its own line with its unit; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every answer matched the oracle and the workload stayed in its regimes.
"""

import argparse
import dataclasses
import gc
import json
import statistics
import struct
import subprocess
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

import checkout
import hostspeed
import oracle
import tracing
import workloads
from workloads import EQUAL, FALLBACK, FLANK, REGIMES

HERE = Path(__file__).resolve().parent
STRATEGIES = ("greedy", "dfs", "select")
ROUNDS = 3          # builds per end-to-end run
LOADS = 4           # loads per round, each followed by a slice of queries
MIN_SAMPLES = 1000      # patterns per workload: >= 10 samples beyond the p99
TRACED_PATTERNS = 1000  # a random subset: patterns come in random order
CHUNK_S = 0.05      # query time between two timings of the reference loop
BUILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "load_s": "s",
    "index_bits_per_symbol": "bits/symbol",
    "build_peak_rss_mb": "MB",
    **{f"query_p50_us.{s}": "us" for s in STRATEGIES},
    **{f"query_p99_us.{s}": "us" for s in STRATEGIES},
    "queries_per_s": "1/s",
}

PER_LAYER = {
    "corpus.ingest_s": "s",
    "suffixes.build_suffix_array_s": "s",
    "suffixes.build_suffix_array_peak_mb": "MB",
    "suffixes.pattern_interval_us": "us",
    "wavelet.build_s": "s",
    "wavelet.greedy_topk_s.build": "s",
    "wavelet.greedy_topk_calls.build": "count",
    "wavelet.greedy_topk_us.query": "us",
    "wavelet.doc_freq_us": "us",
    "wavelet.doc_freq_calls": "count",
    "wavelet.restricted_us": "us",
    "sgst.build_sgst_self_s": "s",
    "sgst.build_sgst_peak_mb": "MB",
    "sgst.marked_nodes": "count",
    "sgst.find_locus_us": "us",
    "sgst.locus_hit_rate": "ratio",
    "sgst.candidates_of_us": "us",
    "louds.encode_s": "s",
    "louds.nav_calls": "count",
    "bitrank.rank_calls": "count",
    "bitrank.select_calls": "count",
    "engine.select_scan_us": "us",
    "engine.positions_scanned": "count",
    "engine.docs_emitted": "count",
    "engine.heap_offers": "count",
    "engine.emit_to_scan_ratio": "ratio",
    **{f"engine.regime_share.{r}": "ratio" for r in REGIMES},
    "engine.query_self_us": "us",
    "container.serialize_s": "s",
    "container.deserialize_s": "s",
    "container.suffix_array_rebuild_s": "s",
    **{f"container.bits_per_symbol.{s}": "bits/symbol" for s in ("corpus", "wavelet", "sgst")},
    **{f"trace.overhead_p50_us.{s}": "us" for s in STRATEGIES},
}

# Section ids of the container format (see topkdoc.container).
_SECTIONS = {1: "corpus", 2: "wavelet", 3: "sgst", 4: "suffix_array"}
_HEADER_BYTES = 4 + 2 + 7 * 8


class QueryRun:
    """Latencies, answers checked and per-pattern stats of a query loop."""

    def __init__(self, pass_length):
        self.pass_length = pass_length   # patterns in one pass over the workload
        self.passes = []         # per pass: strategy -> latencies in ns
        self.stats = []          # per pattern of the first pass: strategy -> QueryStats
        self.attempted = 0
        self.failed = 0
        self.tie_order = 0       # correct, but another choice among tied documents
        self.errors = []
        self.position = 0        # patterns issued so far, each under every strategy
        self.scales = []         # host-speed factor of each chunk of queries

    def latency_ns(self, strategy):
        return [t for per_pass in self.passes for t in per_pass[strategy]]

    def p50_us(self, strategy):
        return statistics.median(self.latency_ns(strategy)) / 1e3

    def p99_us(self, strategy):
        return statistics.quantiles(self.latency_ns(strategy), n=100)[98] / 1e3

    def queries_per_s(self):
        latencies = [self.latency_ns(s) for s in STRATEGIES]
        return sum(map(len, latencies)) * 1e9 / sum(map(sum, latencies))


def run_queries(topkdoc, index, wl, expected, run, seconds, min_patterns, tracer=None):
    """Closed loop over the patterns, continuing where `run` stopped, for
    `seconds` and until `min_patterns` patterns ran under every strategy."""
    query = topkdoc.query_topk
    patterns = wl.patterns
    gc.collect()
    pending = []             # (latencies list, raw ns) of the chunk under way
    reference = hostspeed.INTERPRETER
    before = reference.time_ns()
    chunk_end = time.perf_counter() + CHUNK_S

    def flush():
        nonlocal before, chunk_end
        after = reference.time_ns()
        scale = reference.factor(before, after)
        for latencies, elapsed in pending:
            latencies.append(elapsed * scale)
        run.scales.append(scale)
        pending.clear()
        before = after
        chunk_end = time.perf_counter() + CHUNK_S

    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or run.position < min_patterns:
        if time.perf_counter() >= chunk_end:
            flush()
        i = run.position
        pattern = patterns[i % len(patterns)]
        answer = expected[pattern]
        first_pass = i < len(patterns)
        if first_pass:
            run.stats.append({})
        if i % len(patterns) == 0:
            run.passes.append({s: [] for s in STRATEGIES})
        # Rotate the strategy order so none always runs right after another.
        for j in range(len(STRATEGIES)):
            strategy = STRATEGIES[(i + j) % len(STRATEGIES)]
            run.attempted += 1
            if tracer is not None:
                tracer.query_id = run.attempted
            try:
                start = time.perf_counter_ns()
                result = query(index, pattern, wl.k, strategy=strategy)
                elapsed = time.perf_counter_ns() - start
            except Exception as exc:  # any failure is counted, never fatal
                run.failed += 1
                run.errors.append(f"{pattern!r} {strategy}: {type(exc).__name__}: {exc}")
                continue
            pending.append((run.passes[-1][strategy], elapsed))
            problem = oracle.check(result.pairs, answer)
            if problem == oracle.TIE_ORDER:
                run.tie_order += 1
            elif problem is not None:
                run.failed += 1
                run.errors.append(f"{pattern!r} {strategy}: {problem}: got "
                                  f"{result.pairs}, expected {answer.top}")
            if first_pass:
                run.stats[i][strategy] = result.stats
        run.position += 1
    flush()
    if tracer is not None:
        tracer.query_id = None
    return run


def classify(wl, expected, run):
    """Regime of each pattern of the first pass, from its greedy QueryStats."""
    out = []
    for pattern, stats in zip(wl.patterns, run.stats):
        st = stats.get("greedy")
        if st is None or not st.locus_found:
            out.append(FALLBACK)
        elif st.locus_ep - st.locus_sp + 1 == expected[pattern].total:
            out.append(EQUAL)
        else:
            out.append(FLANK)
    return out


def regime_guard(wl, regimes, run, all_patterns=True):
    """Problems that show the workload left its intended regimes.

    Only a run over all of the workload's patterns must show every regime
    the workload is meant to have.
    """
    problems = []
    counts = Counter(regimes)
    for regime in REGIMES:
        if all_patterns and regime in wl.regimes and not counts[regime]:
            problems.append(f"no query in regime {regime}")
        if regime not in wl.regimes and counts[regime]:
            problems.append(f"{counts[regime]} queries in regime {regime}")
    scanned = 0
    for pattern, regime, stats in zip(wl.patterns, regimes, run.stats):
        if regime != FLANK or "greedy" not in stats or "select" not in stats:
            continue
        emitted = stats["greedy"].docs_emitted
        positions = stats["select"].positions_scanned
        scanned += positions
        if emitted > positions:
            problems.append(f"{pattern!r}: greedy emitted {emitted} > "
                            f"select scanned {positions}")
    if all_patterns and FLANK in wl.regimes and not scanned:
        problems.append("flank queries scanned no positions")
    return problems


def build_once(wl, seed, save=None):
    """Build in a fresh process; returns its build_s and peak_rss_mb."""
    cmd = [sys.executable, str(HERE / "build_once.py"),
           "--workload", wl.name, "--seed", str(seed)]
    if save is not None:
        cmd += ["--save", str(save)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=BUILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: build process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(topkdoc, wl, seed, seconds, expected, container):
    """Builds, loads and query slices, interleaved so that every metric's
    samples spread over the whole run rather than one stretch of it."""
    builds, loads, raw_loads = [], [], []
    run = QueryRun(len(wl.patterns))
    for round_ in range(ROUNDS):
        builds.append(build_once(wl, seed, save=container if round_ == 0 else None))
        for _ in range(LOADS):
            index = None
            gc.collect()
            index, load_s, raw_load_s = hostspeed.timed(lambda: topkdoc.load_index(container))
            loads.append(load_s)
            raw_loads.append(raw_load_s)
            if len(loads) == 1:
                describe(wl, index)
            run_queries(topkdoc, index, wl, expected, run, seconds / (ROUNDS * LOADS), 0)
    passes = max(1, -(-run.position // run.pass_length))
    run_queries(topkdoc, index, wl, expected, run, 0, passes * run.pass_length)
    metrics = {
        "setup_s": statistics.median(b["build_s"] for b in builds),
        "load_s": statistics.median(loads),
        "index_bits_per_symbol": container.stat().st_size * 8 / wl.n,
        "build_peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in builds),
        **{f"query_p50_us.{s}": run.p50_us(s) for s in STRATEGIES},
        **{f"query_p99_us.{s}": run.p99_us(s) for s in STRATEGIES},
        "queries_per_s": run.queries_per_s(),
    }
    print("setup: " + " ".join(f"build_s={b['build_s']:.3f}" for b in builds)
          + " " + " ".join(f"load_s={t:.3f}" for t in loads))
    print("setup as measured: " + " ".join(f"build_s={b['raw_build_s']:.3f}" for b in builds)
          + " " + " ".join(f"load_s={t:.3f}" for t in raw_loads))
    return metrics, run


def traced(topkdoc, wl, expected, container):
    wl = dataclasses.replace(wl, patterns=wl.patterns[:TRACED_PATTERNS])
    tracer = tracing.Tracer()
    one_pass = len(wl.patterns)
    tracer.install(tracing.SPANS)
    try:
        tracer.phase = "build"
        index = topkdoc.build_index(wl.docs, g_prime=wl.g_prime, k_max=wl.k_max,
                                    variant=wl.variant)
        tracer.phase = "save"
        topkdoc.save_index(index, container)
        index = None
        tracer.phase = "build-mem"
        tracer.memory = True
        tracemalloc.start()
        try:
            topkdoc.build_index(wl.docs, g_prime=wl.g_prime, k_max=wl.k_max,
                                variant=wl.variant)
        finally:
            tracemalloc.stop()
            tracer.memory = False
        tracer.phase = "load"
        gc.collect()
        index = topkdoc.load_index(container)
        tracer.phase = "query"
        span_run = run_queries(topkdoc, index, wl, expected, QueryRun(one_pass), 0,
                               one_pass, tracer)
    finally:
        tracer.uninstall()
    tracer.install(tracing.COUNTS)
    try:
        tracer.phase = "count"
        count_run = run_queries(topkdoc, index, wl, expected, QueryRun(one_pass), 0,
                                one_pass)
    finally:
        tracer.uninstall()
    left = tracing.wrappers_left()
    if left:
        raise SystemExit(f"perfbench: tracing wrappers left in place: {left}")
    describe(wl, index)
    plain_run = run_queries(topkdoc, index, wl, expected, QueryRun(one_pass), 0, one_pass)
    metrics = layer_metrics(tracer, index, wl, expected, span_run, container)
    for s in STRATEGIES:
        metrics[f"trace.overhead_p50_us.{s}"] = span_run.p50_us(s) - plain_run.p50_us(s)
    out = checkout.OUT / f"trace-{wl.name}.jsonl"
    tracer.write(out)
    print(f"trace: {len(tracer.spans)} spans written to {out.relative_to(checkout.ROOT)}")
    print("trace: no layer queues work or runs concurrently (one thread, closed "
          "loop), so no wait-time metric is reported")
    for other in (count_run, plain_run):
        span_run.attempted += other.attempted
        span_run.failed += other.failed
        span_run.tie_order += other.tie_order
        span_run.errors += other.errors
    return metrics, span_run


def layer_metrics(tracer, index, wl, expected, run, container):
    total = defaultdict(int)
    own = defaultdict(int)
    calls = Counter()
    for (name, start, end, _, _, phase), self_ns in zip(tracer.spans, tracer.self_times()):
        total[phase, name] += end - start
        own[phase, name] += self_ns
        calls[phase, name] += 1
    queries = run.attempted
    sections = section_bytes(container)

    def build_s(name):
        return total["build", name] / 1e9

    def query_us(name):
        return total["query", name] / queries / 1e3

    stats = [st for per_pattern in run.stats for st in per_pattern.values()]
    consulted = sum(st.used_sgst for st in stats)
    found = sum(st.locus_found for st in stats)
    counts = tracer.counts["count"]
    regimes = Counter(classify(wl, expected, run))
    emitted = statistics.fmean(p["greedy"].docs_emitted for p in run.stats)
    scanned = statistics.fmean(p["select"].positions_scanned for p in run.stats)
    return {
        "corpus.ingest_s": build_s("corpus.ingest"),
        "suffixes.build_suffix_array_s": build_s("suffixes.build_suffix_array"),
        "suffixes.build_suffix_array_peak_mb":
            tracer.peaks["suffixes.build_suffix_array"] / 1e6,
        "suffixes.pattern_interval_us": query_us("suffixes.pattern_interval"),
        "wavelet.build_s": build_s("wavelet.build"),
        "wavelet.greedy_topk_s.build": build_s("wavelet.greedy_topk"),
        "wavelet.greedy_topk_calls.build": calls["build", "wavelet.greedy_topk"],
        "wavelet.greedy_topk_us.query": query_us("wavelet.greedy_topk"),
        "wavelet.doc_freq_us": query_us("wavelet.doc_freq"),
        "wavelet.doc_freq_calls": calls["query", "wavelet.doc_freq"] / queries,
        "wavelet.restricted_us": query_us("wavelet.restricted"),
        "sgst.build_sgst_self_s": own["build", "sgst.build_sgst"] / 1e9,
        "sgst.build_sgst_peak_mb": tracer.peaks["sgst.build_sgst"] / 1e6,
        "sgst.marked_nodes": index.sgst.node_count,
        "sgst.find_locus_us": query_us("sgst.find_locus"),
        "sgst.locus_hit_rate": found / consulted if consulted else 0.0,
        "sgst.candidates_of_us": query_us("sgst.candidates_of"),
        "louds.encode_s": build_s("louds.encode"),
        "louds.nav_calls": counts["louds.nav"] / queries,
        "bitrank.rank_calls": counts["bitrank.rank"] / queries,
        "bitrank.select_calls": counts["bitrank.select"] / queries,
        "engine.select_scan_us": query_us("engine.select_scan"),
        "engine.positions_scanned": statistics.fmean(st.positions_scanned for st in stats),
        "engine.docs_emitted": statistics.fmean(st.docs_emitted for st in stats),
        "engine.heap_offers": statistics.fmean(st.heap_offers for st in stats),
        "engine.emit_to_scan_ratio": emitted / scanned if scanned else 0.0,
        **{f"engine.regime_share.{r}": regimes[r] / len(run.stats) for r in REGIMES},
        "engine.query_self_us": own["query", "engine.query_topk"] / queries / 1e3,
        "container.serialize_s": total["save", "container.serialize"] / 1e9,
        "container.deserialize_s": total["load", "container.deserialize"] / 1e9,
        "container.suffix_array_rebuild_s":
            total["load", "suffixes.build_suffix_array"] / 1e9,
        **{f"container.bits_per_symbol.{name}": sections.get(name, 0) * 8 / wl.n
           for name in ("corpus", "wavelet", "sgst")},
    }


def section_bytes(container):
    """Bytes per container section, its 16-byte section header included."""
    data = Path(container).read_bytes()
    sizes = {}
    offset = _HEADER_BYTES
    while offset + 16 <= len(data):
        sec_id, length = struct.unpack_from("<QQ", data, offset)
        sizes[_SECTIONS.get(sec_id, str(sec_id))] = 16 + length
        offset += 16 + length
    return sizes


def describe(wl, index):
    print(f"workload {wl.name}: n={wl.n} d={len(wl.docs)} sigma={wl.sigma} "
          f"marked_nodes={index.sgst.node_count} patterns={len(wl.patterns)} "
          f"distinct_patterns={len(set(wl.patterns))} pattern_len={wl.pattern_len} k={wl.k} "
          f"k_max={wl.k_max} g_prime={wl.g_prime} variant={wl.variant}")


def report(metrics, units, run, regimes, problems):
    for strategy in STRATEGIES:
        print(f"samples.{strategy} = {len(run.latency_ns(strategy))} queries in "
              f"{len(run.passes)} passes of {run.pass_length} patterns")
    print(f"host speed: query times scaled by a median of {statistics.median(run.scales):.3f} "
          f"(range {min(run.scales):.3f}-{max(run.scales):.3f}) over {len(run.scales)} "
          f"chunks, to a host running the interpreter reference in "
          f"{hostspeed.INTERPRETER.nominal_ns / 1e3:g} us")
    shares = Counter(regimes)
    print("regimes: " + " ".join(f"{r}={shares[r] / len(regimes):.3f}" for r in REGIMES))
    print(f"query_error_rate = {run.failed / run.attempted:.6f} ratio "
          f"({run.failed} of {run.attempted})")
    print(f"tie_order_share = {run.tie_order / run.attempted:.6f} ratio ({run.tie_order} "
          "correct answers list other documents tied at the k-th frequency than "
          "the lowest ids)")
    for line in run.errors[:10]:
        print(f"error: {line}")
    for line in problems:
        print(f"regime guard: {line}")
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]:.6g} {unit}")
    correct = run.failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return correct


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    topkdoc = checkout.import_topkdoc()
    checkout.OUT.mkdir(exist_ok=True)
    container = checkout.OUT / f"{args.workload}.tkdi"

    wl = workloads.make(args.workload, args.seed)
    expected = oracle.expected_answers(wl.docs, wl.patterns, wl.k)
    if args.trace:
        metrics, run = traced(topkdoc, wl, expected, container)
        units = PER_LAYER
    else:
        metrics, run = end_to_end(topkdoc, wl, args.seed, args.seconds, expected, container)
        units = END_TO_END
    container.unlink()
    regimes = classify(wl, expected, run)
    problems = regime_guard(wl, regimes, run, all_patterns=not args.trace)
    return 0 if report(metrics, units, run, regimes, problems) else 1


if __name__ == "__main__":
    sys.exit(main())
