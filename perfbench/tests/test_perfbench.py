"""Tests of the benchmark's own parts.

    python3 -m pytest perfbench/tests
"""

import json
import random
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import checkout  # noqa: E402
import hostspeed  # noqa: E402

topkdoc = checkout.import_topkdoc()

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_generators_repeat_under_a_seed():
    for name in workloads.WORKLOADS:
        a, b, c = workloads.make(name, 7), workloads.make(name, 7), workloads.make(name, 8)
        assert a == b
        assert a.docs != c.docs and a.patterns != c.patterns
        assert len(a.patterns) >= run.MIN_SAMPLES
        assert all(len(p) == a.pattern_len and b"\x00" not in p for p in a.patterns)
        assert all(doc and b"\x00" not in doc for doc in a.docs)


def brute_count(doc, pattern):
    count, start = 0, 0
    while (hit := doc.find(pattern, start)) >= 0:
        count, start = count + 1, hit + 1
    return count


def test_oracle_matches_brute_force_find_counts():
    rng = random.Random(3)
    for _ in range(30):
        docs = [bytes(rng.choice(b"ab") for _ in range(rng.randint(1, 30)))
                for _ in range(rng.randint(1, 8))]
        m = rng.randint(1, 4)
        patterns = sorted({doc[i:i + m] for doc in docs for i in range(len(doc) - m + 1)})
        if not patterns:
            continue
        k = rng.randint(1, 4)
        answers = oracle.expected_answers(docs, patterns, k)
        for pattern in patterns:
            counts = {i: brute_count(doc, pattern) for i, doc in enumerate(docs, 1)}
            counts = {doc: c for doc, c in counts.items() if c}
            ranked = sorted(counts.items(), key=lambda p: (-p[1], p[0]))
            assert answers[pattern] == oracle.Answer(ranked[:k], counts, sum(counts.values()))


def test_oracle_agrees_with_the_library_on_a_small_index():
    docs = [b"abab", b"abba", b"bab", b"aaab"]
    index = topkdoc.build_index(docs, g_prime=1, k_max=4)
    for patterns in ([b"a", b"b"], [b"ab", b"ba", b"bb", b"aa"], [b"aab", b"bab"]):
        answers = oracle.expected_answers(docs, patterns, 2)
        for pattern in patterns:
            assert oracle.check(topkdoc.query_topk(index, pattern, 2).pairs,
                                answers[pattern]) is None


def test_check_separates_tie_order_from_wrong_answers():
    answer = oracle.Answer([(1, 3), (2, 2)], {1: 3, 2: 2, 5: 2, 6: 1}, 8)
    assert oracle.check([(1, 3), (2, 2)], answer) is None
    assert oracle.check([(1, 3), (5, 2)], answer) == oracle.TIE_ORDER
    assert oracle.check([(1, 3), (6, 2)], answer) not in (None, oracle.TIE_ORDER)
    assert oracle.check([(1, 3), (6, 1)], answer) not in (None, oracle.TIE_ORDER)
    assert oracle.check([(5, 2), (1, 3)], answer) not in (None, oracle.TIE_ORDER)
    assert oracle.check([(1, 3)], answer) not in (None, oracle.TIE_ORDER)


def test_metric_names_and_units_match_the_benchmark_file():
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    for section, declared in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        for name, unit in declared.items():
            assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), (name, unit)
        assert {m["name"]: m["unit"] for m in spec[section]} == declared
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _originals():
    out = {}
    for module_name, path, _, _ in tracing.TARGETS:
        module = sys.modules[module_name]
        if "." in path:
            cls_name, attr = path.split(".")
            out[module_name, path] = getattr(module, cls_name).__dict__[attr]
        else:
            out[module_name, path] = getattr(module, path)
    return out


def test_traced_wrappers_restore_the_original_functions():
    before = _originals()
    engine_query = sys.modules["topkdoc.engine"].query_topk
    tracer = tracing.Tracer()
    for kinds, phase in ((tracing.SPANS, "query"), (tracing.COUNTS, "count")):
        tracer.install(kinds)
        try:
            assert tracing.wrappers_left()
            tracer.phase = "build"
            index = topkdoc.build_index([b"abab", b"abba", b"bab"], g_prime=1, k_max=4)
            tracer.phase = phase
            for strategy in run.STRATEGIES:
                topkdoc.query_topk(index, b"ab", 2, strategy=strategy)
        finally:
            tracer.uninstall()
        assert _originals() == before
        assert sys.modules["topkdoc.engine"].query_topk is engine_query
        assert tracing.wrappers_left() == []
    names = {span[0] for span in tracer.spans}
    assert {"engine.build_index", "sgst.build_sgst", "engine.query_topk",
            "suffixes.pattern_interval", "sgst.find_locus"} <= names
    assert tracer.counts["count"]["bitrank.rank"] > 0
    assert not tracer.counts["query"]
    # Self times are never negative and add up to the root spans' time.
    self_ns = tracer.self_times()
    roots = sum(end - start for _, start, end, parent, _, _ in tracer.spans if parent is None)
    assert all(s >= 0 for s in self_ns) and sum(self_ns) == roots


def test_regime_guard_flags_drift_and_a_broken_work_bound():
    stats = topkdoc.QueryStats
    wl = workloads.Workload("w", [b"ab"], [b"a", b"b"], 1, 1, 1, "light", workloads.REGIMES)
    queries = run.QueryRun(2)
    queries.stats = [{"greedy": stats(docs_emitted=5), "select": stats(positions_scanned=3)},
                     {"greedy": stats(), "select": stats()}]
    problems = run.regime_guard(wl, [workloads.FLANK, workloads.EQUAL], queries)
    assert any("fallback" in p for p in problems)
    assert any("emitted 5 > select scanned 3" in p for p in problems)
    only_equal = workloads.Workload("w", [b"ab"], [b"a"], 1, 1, 1, "light", (workloads.EQUAL,))
    assert run.regime_guard(only_equal, [workloads.EQUAL], queries) == []
    assert run.regime_guard(only_equal, [workloads.FALLBACK], queries)


def test_query_latencies_are_scaled_to_the_reference_host_speed(monkeypatch):
    reference = hostspeed.INTERPRETER
    assert reference.factor(reference.nominal_ns, reference.nominal_ns) == 1
    assert reference.time_ns() > 0 and hostspeed.ARRAYS.time_ns() > 0
    # A host twice as slow as the reference halves every recorded latency.
    monkeypatch.setattr(reference, "time_ns", lambda: 2 * reference.nominal_ns)
    docs, patterns = [b"abab", b"abba", b"bab"], [b"ab", b"ba", b"bb"]
    index = topkdoc.build_index(docs, g_prime=1, k_max=4)
    wl = workloads.Workload("w", docs, patterns, 2, 2, 1, "light", workloads.REGIMES)
    queries = run.run_queries(topkdoc, index, wl, oracle.expected_answers(docs, patterns, 2),
                              run.QueryRun(len(patterns)), 0, len(patterns))
    assert queries.failed == 0 and queries.scales and set(queries.scales) == {0.5}
    for strategy in run.STRATEGIES:
        assert len(queries.latency_ns(strategy)) == len(patterns)
