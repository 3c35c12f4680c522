import dataclasses
import hashlib
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import topkdoc.engine as engine_module
import topkdoc.suffixes as suffixes_module
from topkdoc import (
    DFS, GREEDY, SELECT, STRATEGIES, build_index, ingest, load_index, query_topk, save_index,
)
from topkdoc.bitrank import RankBitVector
from topkdoc import errors
from topkdoc.engine import CandidateHeap, frequencies, kstar, select_scan
from topkdoc.errors import (
    EmptyPatternError,
    InvalidParameterError,
    OutOfRangeError,
    UnknownStrategyError,
)
from topkdoc.sgst import SGST, candidates_of, find_locus
from topkdoc.suffixes import SuffixIndex, pattern_interval
from topkdoc.wavelet import WaveletTree

from conftest import (
    acgt_corpus,
    naive_topk,
    occurring_patterns,
    random_docs,
    revisions_corpus,
)

EQUAL, FLANK, FALLBACK = "equal", "flank", "fallback"


def ranked_freqs(pairs):
    return sorted((f for _, f in pairs), reverse=True)


def regime(index, result):
    """Which of the three query paths answered result."""
    if not result.stats.locus_found:
        return FALLBACK
    iv = pattern_interval(index.suffixes, index.corpus, result.pattern)
    if (result.stats.locus_sp, result.stats.locus_ep) == (iv.sp, iv.ep):
        return EQUAL
    return FLANK


def check_against_oracle(docs, result, pattern, k):
    """Frequency multiset matches the naive answer; frequencies are exact."""
    want = naive_topk(docs, pattern, k)
    assert ranked_freqs(result.pairs) == [f for _, f in want]
    exact = dict(naive_topk(docs, pattern, len(docs)))
    for doc, freq in result.pairs:
        assert exact[doc] == freq
    assert len({doc for doc, _ in result.pairs}) == len(result.pairs)
    assert result.pairs == sorted(result.pairs, key=lambda p: (-p[1], p[0]))


def test_kstar_values():
    assert [kstar(k) for k in (1, 2, 3, 4, 5, 10, 16, 17)] == [1, 2, 4, 4, 8, 16, 16, 32]
    with pytest.raises(ValueError):
        kstar(0)


def test_heap_basics():
    with pytest.raises(ValueError):
        CandidateHeap(0)
    h = CandidateHeap(2)
    assert h.kth_frequency() == 0
    h.offer(5, 3)
    assert len(h) == 1 and h.kth_frequency() == 0
    h.offer(7, 3)
    assert h.kth_frequency() == 3
    # Tie at the boundary: the larger id (7) is evicted first.
    h.offer(2, 4)
    assert sorted(h.members()) == [(2, 4), (5, 3)]
    # Offers at or below the k-th frequency are dropped.
    h.offer(9, 3)
    assert sorted(h.members()) == [(2, 4), (5, 3)]


def test_heap_update_in_place():
    h = CandidateHeap(2)
    h.offer(4, 1)
    h.offer(6, 5)
    h.offer(4, 7)                     # same doc, higher total
    assert sorted(h.members()) == [(4, 7), (6, 5)]
    assert len(h) == 2
    assert h.kth_frequency() == 5
    h.offer(6, 5)                     # no-op repeat
    assert sorted(h.members()) == [(4, 7), (6, 5)]


def scan(index, sp, ep, core_sp, core_ep, heap):
    """select_scan over index's document array, reading its frequencies
    as query_topk does."""
    return select_scan(index.suffixes.doc_ids, frequencies(index, sp, ep, heap.capacity),
                       sp, ep, core_sp, core_ep, heap)


def test_select_scan_worked(worked_index):
    # Whole interval [5, 8] uncovered, capacity 1: doc 1 wins with count 2.
    h = CandidateHeap(1)
    scanned, offered = scan(worked_index, 5, 8, 1, 0, h)
    assert (scanned, offered) == (4, 3)
    assert h.members() == [(1, 2)]


def test_select_scan_covered_core(worked_index):
    h = CandidateHeap(3)
    scanned, offered = scan(worked_index, 5, 8, 5, 6, h)
    assert scanned == 2               # positions 7 and 8 only
    assert offered == 2
    assert sorted(h.members()) == [(1, 2), (2, 1)]


def test_select_scan_fully_covered(worked_index):
    h = CandidateHeap(2)
    assert scan(worked_index, 5, 8, 5, 8, h) == (0, 0)
    assert h.members() == []


def test_select_scan_dedupes_repeats(worked_index):
    h = CandidateHeap(3)
    scanned, offered = scan(worked_index, 1, 14, 1, 0, h)
    assert scanned == 14
    assert offered == 3               # three distinct documents
    assert sorted(h.members()) == [(1, 5), (2, 5), (3, 4)]


def test_select_scan_covered_must_nest(worked_index):
    with pytest.raises(OutOfRangeError):
        scan(worked_index, 5, 8, 4, 6, CandidateHeap(1))


def test_build_index_validation():
    for kwargs, reason in (({"g_prime": 0}, "g_prime"), ({"g_prime": -3}, "g_prime"),
                           ({"k_max": 3}, "power of two"), ({"k_max": 0}, "power of two"),
                           ({"variant": "heavy"}, "variant")):
        with pytest.raises(InvalidParameterError, match=reason):
            build_index(["ab"], **kwargs)


def test_k_below_one_rejected(worked_index):
    # Every call that takes a count k, or a heap capacity, refuses one below
    # 1 with the same ValueError subclass, rather than answering [] or a
    # negative slice of the ranking.
    s, w = worked_index.suffixes, worked_index.wavelet
    assert s.top_documents(1, 14, 1) == [(1, 5)]
    for k in (0, -1):
        for call in (lambda: s.top_documents(1, 14, k), lambda: w.greedy_topk(1, 14, k),
                     lambda: kstar(k), lambda: query_topk(worked_index, "ab", k),
                     lambda: CandidateHeap(k)):
            with pytest.raises(InvalidParameterError, match="at least 1"):
                call()


def test_parameters_that_are_not_integers_rejected(worked_index):
    # A float or a string given as a count or build parameter raises the
    # package's own InvalidParameterError on entry; numpy ints and bools,
    # which operator.index takes, answer as the ints they equal.
    s, w = worked_index.suffixes, worked_index.wavelet
    for k in (2.0, "3", None):
        for call in (lambda: s.top_documents(1, 14, k), lambda: w.greedy_topk(1, 14, k),
                     lambda: kstar(k), lambda: query_topk(worked_index, "ab", k),
                     lambda: CandidateHeap(k), lambda: build_index(["ab"], g_prime=k),
                     lambda: build_index(["ab"], k_max=k)):
            with pytest.raises(InvalidParameterError, match="integer"):
                call()
    for k in (np.int64(2), np.uint8(2), True):
        assert kstar(k) == kstar(int(k))
        assert query_topk(worked_index, "ab", k) == query_topk(worked_index, "ab", int(k))
        assert s.top_documents(1, 14, k) == w.greedy_topk(1, 14, k) == w.greedy_topk(1, 14, int(k))
    # Past 255 candidate offsets, a uint8 k added to an offset would overflow.
    idx = build_index(["ab" * 300, "ba" * 200, "abab"], g_prime=np.int64(2), k_max=np.int32(4))
    assert (type(idx.sgst.g_prime), type(idx.sgst.k_max)) == (int, int)
    assert idx.sgst.cand_off[-1] > 255
    for pattern in ("ab", "b", "ba"):
        assert query_topk(idx, pattern, np.uint8(2)) == query_topk(idx, pattern, 2)


def test_build_index_accepts_corpus(worked_corpus):
    idx = build_index(worked_corpus, g_prime=7, k_max=1)
    assert idx.corpus is worked_corpus


def test_query_worked_answers(worked_index):
    assert query_topk(worked_index, "ab", 1).pairs == [(1, 2)]
    assert query_topk(worked_index, "b", 2).pairs == [(1, 2), (2, 2)]
    assert query_topk(worked_index, "ba", 3).pairs == [(1, 1), (2, 1), (3, 1)]
    assert query_topk(worked_index, "abab", 2).pairs == [(1, 1)]
    assert query_topk(worked_index, "zz", 5).pairs == []
    r = query_topk(worked_index, "b", 2)
    assert r.pattern == b"b" and r.k == 2 and r.variant == "light"


def test_result_fields_cannot_be_assigned(dense_index):
    r = query_topk(dense_index, "a", 2)
    for name in ("pairs", "pattern", "k", "variant", "stats"):
        with pytest.raises(AttributeError):
            setattr(r, name, None)
    assert r.pairs == [(1, 2), (2, 2)] and r.stats.locus_found


def test_result_equality_ignores_stats(dense_index):
    # "a" at k = 2 is a flank query on the dense index: greedy emits a
    # document where select scans a position, so the counters differ, yet
    # the results are equal.
    greedy = query_topk(dense_index, "a", 2, strategy=GREEDY)
    select = query_topk(dense_index, "a", 2, strategy=SELECT)
    assert greedy.stats != select.stats
    assert greedy == select and not greedy != select
    base = engine_module.TopKResult([(1, 2)], b"ab", 2, "light")
    assert base == engine_module.TopKResult([(1, 2)], b"ab", 2, "light", greedy.stats)
    for other in ([(1, 1)], b"ab", 2, "light"), ([(1, 2)], b"ba", 2, "light"), \
                 ([(1, 2)], b"ab", 3, "light"), ([(1, 2)], b"ab", 2, "xlight"):
        assert base != engine_module.TopKResult(*other)
        assert not base == engine_module.TopKResult(*other)
    with pytest.raises(TypeError):
        hash(greedy)


def test_result_repr(dense_index):
    assert repr(query_topk(dense_index, "ab", 2)) == \
        "TopKResult(pairs=[(1, 2), (2, 1)], pattern=b'ab', k=2, variant='light')"


def test_query_validation(worked_index):
    with pytest.raises(UnknownStrategyError):
        query_topk(worked_index, "ab", 1, strategy="fastest")
    with pytest.raises(ValueError):
        query_topk(worked_index, "ab", 0)
    with pytest.raises(EmptyPatternError):
        query_topk(worked_index, "", 1)


def test_query_stats_levels(worked_index):
    # K_max=1: k=1 goes through the sampled tree, k=2 cannot.
    r1 = query_topk(worked_index, "ab", 1)
    assert r1.stats.kstar == 1 and r1.stats.used_sgst
    assert not r1.stats.locus_found   # single root node spans everything
    r2 = query_topk(worked_index, "b", 2)
    assert r2.stats.kstar == 2 and not r2.stats.used_sgst
    r3 = query_topk(worked_index, "ab", 1, use_sgst=False)
    assert not r3.stats.used_sgst
    assert r3.pairs == r1.pairs


def test_query_locus_path(dense_index):
    for strat in STRATEGIES:
        r = query_topk(dense_index, "b", 2, strategy=strat)
        assert r.pairs == [(1, 2), (2, 2)]
        assert r.stats.locus_found
        assert (r.stats.locus_sp, r.stats.locus_ep) == (9, 14)
        # Locus equals the whole interval: nothing to scan or emit.
        assert r.stats.positions_scanned == 0
        assert r.stats.docs_emitted == 0
    r = query_topk(dense_index, "ab", 1)
    assert (r.stats.locus_sp, r.stats.locus_ep) == (5, 8)
    assert r.pairs == [(1, 2)]


def test_query_singleton_interval_falls_back(dense_index):
    r = query_topk(dense_index, "abab", 1)
    assert not r.stats.locus_found
    assert r.pairs == [(1, 1)]


def test_random_queries_vs_oracle():
    rng = random.Random(151)
    for _ in range(6):
        docs = random_docs(rng, max_docs=8, max_total=120)
        for g_prime, variant in [(1, "light"), (2, "xlight"), (400, "light")]:
            idx = build_index(docs, g_prime=g_prime, k_max=4, variant=variant)
            for pattern in occurring_patterns(docs, 2):
                for k in (1, 2, 5):
                    for strat in STRATEGIES:
                        for use in (True, False):
                            r = query_topk(idx, pattern, k, strategy=strat, use_sgst=use)
                            check_against_oracle(docs, r, pattern, k)


def test_strategies_agree_on_frequency_multisets():
    rng = random.Random(157)
    for _ in range(8):
        docs = random_docs(rng, max_docs=10, max_total=250)
        idx = build_index(docs, g_prime=2, k_max=8)
        for pattern in occurring_patterns(docs, 3)[::3]:
            for k in (1, 3, 10):
                results = [query_topk(idx, pattern, k, strategy=s) for s in STRATEGIES]
                freqs = [ranked_freqs(r.pairs) for r in results]
                assert freqs[0] == freqs[1] == freqs[2]


def test_empty_sampling_always_falls_back():
    rng = random.Random(163)
    docs = random_docs(rng, max_docs=6, max_total=100)
    idx = build_index(docs, g_prime=400, k_max=16)
    assert idx.sgst.node_count == 0
    for pattern in occurring_patterns(docs, 2)[:10]:
        r = query_topk(idx, pattern, 3)
        assert r.stats.used_sgst and not r.stats.locus_found
        check_against_oracle(docs, r, pattern, 3)


def test_short_intervals_skip_the_locus_search(monkeypatch):
    # A level-k* node spans at least k*·g′ + 1 slots, so an interval with
    # ep - sp < g holds none: the query does not search for one, yet still
    # counts as having used the sampled tree.
    rng = random.Random(167)
    docs = revisions_corpus(rng)
    idx = build_index(docs, g_prime=3, k_max=8)
    searched = []

    def recording_find_locus(x, k_star, sp, ep):
        searched.append((k_star, sp, ep))
        return find_locus(x, k_star, sp, ep)

    monkeypatch.setattr(engine_module, "find_locus", recording_find_locus)
    skipped = found = 0
    for pattern in occurring_patterns(docs, 3):
        for k in (1, 3, 8):
            searched.clear()
            r = query_topk(idx, pattern, k)
            iv = pattern_interval(idx.suffixes, idx.corpus, pattern)
            assert r.stats.used_sgst
            if iv.ep - iv.sp < r.stats.g:
                skipped += 1
                assert searched == [] and not r.stats.locus_found
                assert find_locus(idx.sgst, r.stats.kstar, iv.sp, iv.ep) is None
            else:
                assert searched == [(r.stats.kstar, iv.sp, iv.ep)]
                found += r.stats.locus_found
            check_against_oracle(docs, r, pattern, k)
    assert skipped >= 50 and found >= 500


def test_counted_intervals_are_shorter_than_2g(monkeypatch):
    # Level k samples slots 1, g + 1, 2g + 1, ... of its W_k windows, and a
    # pattern interval holding two consecutive slots holds their marked
    # node.  So an interval the count answers holds at most one slot s and
    # spans at most s - g + 1 .. s + g - 1.  Past the last slot
    # S = 1 + W_k * g the suffix array still runs on: W_1 = (n - 1) // g'
    # and an odd count drops the last window at each doubling, so
    # W_k = W_1 // k, yet n - S < g still.  The bound is 2g - 1 even there.
    real = SuffixIndex.top_documents
    counted = []

    def recording(self, sp, ep, k):
        counted.append((sp, ep))
        return real(self, sp, ep, k)

    monkeypatch.setattr(SuffixIndex, "top_documents", recording)
    rng = random.Random(269)
    before_last = past_last = past_dropped = 0
    for _ in range(100):
        docs = random_docs(rng, max_docs=rng.choice((3, 10)),
                           max_total=rng.choice((80, 300)), sigma=rng.randint(2, 4))
        g_prime = rng.randint(1, 5)
        idx = build_index(docs, g_prime=g_prime, k_max=8)
        intervals = {}
        for pattern in occurring_patterns(docs, 6):
            iv = pattern_interval(idx.suffixes, idx.corpus, pattern)
            intervals.setdefault((iv.sp, iv.ep), pattern)
        windows = (idx.corpus.n - 1) // g_prime
        for k in idx.sgst.levels():
            if not idx.sgst.level_nodes(k):
                continue
            g = k * g_prime
            last_slot = 1 + windows // k * g
            dropped = k > 1 and windows // (k // 2) % 2 == 1
            for (sp, ep), pattern in intervals.items():
                counted.clear()
                r = query_topk(idx, pattern, k)
                if not counted:
                    assert r.stats.locus_found
                    continue
                assert counted == [(sp, ep)] and not r.stats.locus_found
                assert ep - sp + 1 < 2 * g
                if ep <= last_slot:
                    before_last += 1
                else:
                    past_last += 1
                    past_dropped += dropped
    assert before_last > 20_000 and past_last > 2000 and past_dropped > 1000


def test_locus_less_queries_read_no_wavelet_tree(monkeypatch):
    # A query no marked node serves is answered from the document array
    # alone, ties to the lowest ids, on both layouts and with every
    # strategy: bounded ones (sampled tree used, no node inside) and
    # unbounded ones (k* above k_max, or the sampled tree disabled) alike.
    rng = random.Random(277)
    corpora = [(revisions_corpus(rng), 3), (acgt_corpus(rng), 10),
               (random_docs(rng, max_docs=8, max_total=200, sigma=2), 400)]
    locus_less = []
    for docs, g_prime in corpora:
        for variant in ("light", "xlight"):
            idx = build_index(docs, g_prime=g_prime, k_max=8, variant=variant)
            for pattern in occurring_patterns(docs, 3):
                for k in (1, 2, 5, 8, 9):
                    for strat in STRATEGIES:
                        for use in (True, False):
                            r = query_topk(idx, pattern, k, strategy=strat, use_sgst=use)
                            if not r.stats.locus_found:
                                locus_less.append((docs, idx, pattern, k, strat, use, r))

    def refuse(*args):
        raise AssertionError("a locus-less query read the wavelet tree")

    for name in ("greedy_topk", "doc_freq"):
        monkeypatch.setattr(WaveletTree, name, refuse)
    monkeypatch.setattr(RankBitVector, "rank1_pair", refuse)
    for docs, idx, pattern, k, strat, use, r in locus_less:
        again = query_topk(idx, pattern, k, strategy=strat, use_sgst=use)
        assert again.pairs == r.pairs == naive_topk(docs, pattern, k)
    bounded = sum(r.stats.used_sgst for *_, r in locus_less)
    assert bounded > 2000 and len(locus_less) - bounded > 10_000


def test_locus_less_queries_count_the_pattern_interval_once(monkeypatch):
    # top_documents runs, once over the pattern interval, exactly when no
    # marked node serves the query; that includes every k* > k_max and
    # use_sgst=False query.  Its pairs are the oracle's, lowest ids first.
    calls = []
    real = SuffixIndex.top_documents

    def recording(self, sp, ep, k):
        calls.append((sp, ep, k))
        return real(self, sp, ep, k)

    monkeypatch.setattr(SuffixIndex, "top_documents", recording)
    docs = revisions_corpus(random.Random(281))
    idx = build_index(docs, g_prime=3, k_max=8)
    unbounded = bounded = 0
    for pattern in occurring_patterns(docs, 3)[::2]:
        iv = pattern_interval(idx.suffixes, idx.corpus, pattern)
        for k in (1, 3, 8, 9, 16):
            for use in (True, False):
                calls.clear()
                r = query_topk(idx, pattern, k, use_sgst=use)
                assert r.stats.used_sgst == (use and kstar(k) <= idx.sgst.k_max)
                if r.stats.locus_found:
                    assert calls == []
                    check_against_oracle(docs, r, pattern, k)
                    continue
                assert calls == [(iv.sp, iv.ep, k)]
                assert r.pairs == naive_topk(docs, pattern, k)
                unbounded += not r.stats.used_sgst
                bounded += r.stats.used_sgst
    assert unbounded > 500 and bounded > 50


def test_query_searches_through_pattern_interval_once(monkeypatch):
    # The benchmark times the interval search by wrapping the name
    # pattern_interval that topkdoc.engine bound, so every query must search
    # through it, once; the pattern is normalised once, inside it.  Absent
    # patterns and every regime, strategy and k* are included.
    calls = Counter()
    search, normalise = engine_module.pattern_interval, suffixes_module.as_pattern_bytes

    def counted_search(*args):
        calls["pattern_interval"] += 1
        return search(*args)

    def counted_normalise(pattern):
        calls["as_pattern_bytes"] += 1
        return normalise(pattern)

    docs = revisions_corpus(random.Random(307))
    idx = build_index(docs, g_prime=3, k_max=8)
    patterns = occurring_patterns(docs, 4)[::7] + ["zz", b"q", "abcdefgh" * 3]
    patterns += [p.encode() for p in patterns[:20]]
    regimes = Counter()
    for pattern in patterns:
        for k in (1, 3, 16):
            for strat in STRATEGIES:
                for use in (True, False):
                    with monkeypatch.context() as m:
                        m.setattr(engine_module, "pattern_interval", counted_search)
                        m.setattr(suffixes_module, "as_pattern_bytes", counted_normalise)
                        r = query_topk(idx, pattern, k, strategy=strat, use_sgst=use)
                    assert calls == {"pattern_interval": 1, "as_pattern_bytes": 1}
                    calls.clear()
                    regimes[regime(idx, r) if r.pairs else "absent"] += 1
    assert min(regimes.values()) > 50 and len(regimes) == 4, regimes


@pytest.mark.parametrize("stored_sa", [None, False, True])
def test_edge_k_and_overlong_patterns(tmp_path, stored_sa):
    # k at or above d lists every matching document with its exact count,
    # bounded (k* <= k_max) or not (k far above k_max); a pattern longer
    # than every document matches nothing.  The document array is derived
    # at load, so reloaded indexes (suffix array stored or rebuilt) must
    # answer the same.
    rng = random.Random(283)
    counted = 0
    for trial in range(3):
        docs = random_docs(rng, max_docs=6, max_total=150, sigma=2)
        d = len(docs)
        idx = build_index(docs, g_prime=2, k_max=8)
        if stored_sa is not None:
            path = tmp_path / f"edge{trial}.tkdi"
            save_index(idx, path, include_suffix_array=stored_sa)
            idx = load_index(path)
        for pattern in occurring_patterns(docs, 5):
            every = naive_topk(docs, pattern, d)
            for k in (d, d + 2, 8, 10**6):
                for strat in STRATEGIES:
                    r = query_topk(idx, pattern, k, strategy=strat)
                    assert r.pairs == every
                    assert r.stats.used_sgst == (k != 10**6)
                    counted += r.stats.used_sgst and not r.stats.locus_found
        longest = max(docs, key=len)
        for pattern in (longest + "a", longest * 2, "ab" * len(longest)):
            for k in (1, d, 10**6):
                for use in (True, False):
                    assert query_topk(idx, pattern, k, use_sgst=use).pairs == []
    assert counted > 150


def test_flanked_locus_unary_run():
    # Long single-letter runs give suffix-tree nodes with one huge child,
    # so the found marked node sits strictly inside the pattern interval
    # and the flanks must be repaired by the traversal / scan.
    idx = build_index(["bb", "aaaaaaaaaaaa"], g_prime=1, k_max=8)
    for strat in STRATEGIES:
        r = query_topk(idx, "a", 3, strategy=strat)
        assert r.pairs == [(2, 12)]
        assert (r.stats.locus_sp, r.stats.locus_ep) == (5, 14)
        if strat == SELECT:
            assert r.stats.positions_scanned == 2 and r.stats.docs_emitted == 0
        else:
            assert r.stats.docs_emitted == 1 and r.stats.positions_scanned == 0
    # k=2 maps to a coarser level whose node covers the interval exactly.
    r = query_topk(idx, "a", 2)
    assert (r.stats.locus_sp, r.stats.locus_ep) == (3, 14)
    assert r.stats.docs_emitted == 0
    assert r.pairs == [(2, 12)]


def test_flanked_locus_multiple_docs():
    docs = ["bbbbb", "aaaaa", "bbbbbb"]
    idx = build_index(docs, g_prime=1, k_max=8)
    for strat in STRATEGIES:
        r = query_topk(idx, "bb", 3, strategy=strat)
        assert r.pairs == [(3, 5), (1, 4)]
        assert (r.stats.locus_sp, r.stats.locus_ep) == (13, 19)
        assert r.stats.heap_offers == 4
        check_against_oracle(docs, r, "bb", 3)
    g = query_topk(idx, "bb", 3, strategy=GREEDY)
    s = query_topk(idx, "bb", 3, strategy=SELECT)
    assert g.stats.docs_emitted == 2
    assert s.stats.positions_scanned == 2
    assert g.stats.docs_emitted <= s.stats.positions_scanned


def test_greedy_emits_at_most_select_scans():
    rng = random.Random(173)
    for _ in range(10):
        docs = random_docs(rng, max_docs=10, max_total=300)
        idx = build_index(docs, g_prime=2, k_max=8)
        for pattern in occurring_patterns(docs, 2)[::2]:
            for k in (1, 2, 5):
                g = query_topk(idx, pattern, k, strategy=GREEDY)
                if not g.stats.locus_found:
                    continue
                s = query_topk(idx, pattern, k, strategy=SELECT)
                assert g.stats.docs_emitted <= s.stats.positions_scanned


def test_threshold_never_decreases(monkeypatch):
    created = []

    class Recording(CandidateHeap):
        def __init__(self, capacity):
            super().__init__(capacity)
            self.trace = []
            created.append(self)

        def offer(self, doc, freq):
            super().offer(doc, freq)
            self.trace.append(super().kth_frequency())

    monkeypatch.setattr(engine_module, "CandidateHeap", Recording)
    # Only flank queries build a heap, so every corpus here has loci that
    # sit strictly inside their pattern intervals.
    corpora = [(["bb", "aaaaaaaaaaaa"], 1), (["bbbbb", "aaaaa", "bbbbbb"], 1)]
    corpora += [(revisions_corpus(random.Random(seed)), 4) for seed in (179, 181)]
    flank = dict.fromkeys(STRATEGIES, 0)
    emitted = dict.fromkeys(STRATEGIES, 0)
    for docs, g_prime in corpora:
        idx = build_index(docs, g_prime=g_prime, k_max=8)
        for pattern in occurring_patterns(docs, 3):
            for strat in STRATEGIES:
                r = query_topk(idx, pattern, 3, strategy=strat)
                if regime(idx, r) == FLANK:
                    flank[strat] += 1
                    emitted[strat] += r.stats.docs_emitted
    assert min(flank.values()) >= 20
    assert emitted[GREEDY] >= 1 and emitted[DFS] >= 1
    assert len(created) == sum(flank.values())
    assert created                    # loci must actually have been found
    for heap in created:
        assert heap.trace == sorted(heap.trace)


def test_equal_regime_counts_only_xlight_candidates(monkeypatch):
    # light answers from its stored pairs and recounts nothing.  xlight
    # counts the node's slice once, or, with RECOUNT_SLOTS at 0, calls
    # doc_freq once per candidate returned.
    calls, slices = [], []
    real_doc_freq, real_counts = WaveletTree.doc_freq, SuffixIndex.counts

    def counting(self, doc, l, r):
        calls.append((doc, l, r))
        return real_doc_freq(self, doc, l, r)

    def slice_counting(self, sp, ep):
        slices.append((sp, ep))
        return real_counts(self, sp, ep)

    monkeypatch.setattr(WaveletTree, "doc_freq", counting)
    monkeypatch.setattr(SuffixIndex, "counts", slice_counting)
    docs = acgt_corpus(random.Random(211))
    for slots in (engine_module.RECOUNT_SLOTS, 0):
        monkeypatch.setattr(engine_module, "RECOUNT_SLOTS", slots)
        for variant in ("light", "xlight"):
            idx = build_index(docs, g_prime=10, k_max=16, variant=variant)
            x = idx.sgst
            equal = 0
            for pattern in occurring_patterns(docs, 3):
                for k in (1, 3, 10):
                    for strat in STRATEGIES:
                        calls.clear()
                        slices.clear()
                        r = query_topk(idx, pattern, k, strategy=strat)
                        if regime(idx, r) != EQUAL:
                            continue
                        equal += 1
                        node = find_locus(x, kstar(k), r.stats.locus_sp, r.stats.locus_ep)
                        stored = x.cand_docs[x.cand_off[node.rank - 1]:x.cand_off[node.rank]]
                        if variant == "light":
                            assert calls == slices == []
                        elif slots:
                            assert node.ep - node.sp + 1 <= slots * k     # below the bound
                            assert calls == [] and slices == [(node.sp, node.ep)]
                        else:
                            assert calls == [(doc, node.sp, node.ep) for doc in stored[:k]]
                            assert slices == []
                        assert r.stats.heap_offers == len(r.pairs) == min(k, len(stored))
            assert equal >= 300


def test_flank_regime_counts_only_xlight_core_and_select_interval(monkeypatch):
    # Every heap member already holds its exact frequency, so a flank query
    # counts only what it reads: xlight's seeds over the core, and the
    # select scan's documents over [sp, ep].  Greedy and DFS on light count
    # nothing, neither a slice nor, with RECOUNT_SLOTS at 0, by doc_freq.
    calls, slices = [], []
    real_doc_freq, real_counts = WaveletTree.doc_freq, SuffixIndex.counts

    def counting(self, doc, l, r):
        calls.append((doc, l, r))
        return real_doc_freq(self, doc, l, r)

    def slice_counting(self, sp, ep):
        slices.append((sp, ep))
        return real_counts(self, sp, ep)

    monkeypatch.setattr(WaveletTree, "doc_freq", counting)
    monkeypatch.setattr(SuffixIndex, "counts", slice_counting)
    docs = revisions_corpus(random.Random(223))
    for slots in (engine_module.RECOUNT_SLOTS, 0):
        monkeypatch.setattr(engine_module, "RECOUNT_SLOTS", slots)
        for variant in ("light", "xlight"):
            idx = build_index(docs, g_prime=2, k_max=16, variant=variant)
            x = idx.sgst
            flank = 0
            for pattern in occurring_patterns(docs, 3):
                iv = pattern_interval(idx.suffixes, idx.corpus, pattern)
                for k in (1, 3, 10):
                    for strat in STRATEGIES:
                        calls.clear()
                        slices.clear()
                        r = query_topk(idx, pattern, k, strategy=strat)
                        if regime(idx, r) != FLANK:
                            continue
                        flank += 1
                        core = (r.stats.locus_sp, r.stats.locus_ep)
                        want = [core] if variant == "xlight" else []
                        want += [(iv.sp, iv.ep)] if strat == SELECT else []
                        if slots:
                            assert calls == [] and slices == want
                            continue
                        assert slices == [] and \
                            list(dict.fromkeys((lo, hi) for _, lo, hi in calls)) == want
                        if variant == "xlight":
                            node = find_locus(x, kstar(k), *core)
                            stored = x.cand_docs[x.cand_off[node.rank - 1]:x.cand_off[node.rank]]
                            assert calls[:len(stored[:k])] == \
                                [(doc, *core) for doc in stored[:k]]
            assert flank >= 90


def answer_digest(index, docs):
    """sha256 over (pattern, k, strategy, pairs, stats) of every query, and
    the set of regimes those queries took."""
    h = hashlib.sha256()
    seen = set()
    for pattern in occurring_patterns(docs, 3):
        for k in (1, 3, 10, 17):
            for strat in STRATEGIES:
                r = query_topk(index, pattern, k, strategy=strat)
                row = (pattern, k, strat, [(int(d), int(f)) for d, f in r.pairs],
                       tuple(int(v) for v in dataclasses.astuple(r.stats)))
                h.update(repr(row).encode())
                seen.add(regime(index, r))
    return h.hexdigest(), seen


# sha256 of answer_digest over seeded corpora that reach the listed query
# regimes: a change to any answer or work counter changes it.  Both layouts
# answer alike, so they share one digest.
PINNED_ANSWERS = {
    "acgt": (
        acgt_corpus, 211, dict(g_prime=10, k_max=16), {EQUAL, FALLBACK},
        "a4fdad3de692f65e92ad509ee025dc2be43c5c31d5d75346d46d7c380be6d52a"),
    "revisions": (
        revisions_corpus, 223, dict(g_prime=4, k_max=8), {EQUAL, FLANK, FALLBACK},
        "c8100f0cfce3b60fe30bdc267d229b0667b1fee1b04d3c6f728fb60c45d75dfd"),
}


@pytest.mark.parametrize("variant", ["light", "xlight"])
@pytest.mark.parametrize("name", sorted(PINNED_ANSWERS))
def test_answers_and_counters_pinned(name, variant):
    make, seed, params, regimes, digest = PINNED_ANSWERS[name]
    docs = make(random.Random(seed))
    idx = build_index(docs, variant=variant, **params)
    assert answer_digest(idx, docs) == (digest, regimes)


def short_documents(rng):
    """Three thousand acgt documents of 4 to 10 symbols.  A pattern of five
    or six symbols holds a few dozen slots, and ids past 16 times that, so
    its interval is counted by np.unique."""
    return ["".join(rng.choice("acgt") for _ in range(rng.randint(4, 10)))
            for _ in range(3000)]


# (corpus, seed, build parameters, patterns): PINNED_ANSWERS' corpora with
# their digest's patterns, and the short documents with 400 of their
# substrings of five and six symbols.
RECOUNT_CORPORA = {
    **{name: (make, seed, params, lambda docs: occurring_patterns(docs, 3))
       for name, (make, seed, params, _, _) in PINNED_ANSWERS.items()},
    "short-documents": (
        short_documents, 227, dict(g_prime=2, k_max=16),
        lambda docs: random.Random(229).sample(
            [p for p in occurring_patterns(docs, 6) if len(p) >= 5], 400)),
}


@pytest.mark.parametrize("variant", ["light", "xlight"])
@pytest.mark.parametrize("name", sorted(RECOUNT_CORPORA))
def test_recount_by_slice_count_equals_doc_freq(monkeypatch, name, variant):
    # Every locus-served query answers alike whether its recounts count the
    # document array (the default) or call doc_freq (RECOUNT_SLOTS = 0).
    make, seed, params, patterns_of = RECOUNT_CORPORA[name]
    docs = make(random.Random(seed))
    idx = build_index(docs, variant=variant, **params)
    patterns = patterns_of(docs)
    uniques = []
    real_unique = np.unique

    def unique(*args, **kwargs):
        uniques.append(args[0])
        return real_unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", unique)
    default = engine_module.RECOUNT_SLOTS
    answers, by_unique = {}, 0
    for slots in (default, 0):
        monkeypatch.setattr(engine_module, "RECOUNT_SLOTS", slots)
        rows = answers[slots] = {}
        for pattern in patterns:
            for k in (1, 3, 10, 17):
                for strat in STRATEGIES:
                    uniques.clear()
                    r = query_topk(idx, pattern, k, strategy=strat)
                    if r.stats.locus_found:
                        rows[pattern, k, strat] = (r.pairs, dataclasses.astuple(r.stats))
                        by_unique += bool(slots and uniques)
    assert len(answers[0]) >= 100
    assert answers[default] == answers[0]
    if name == "short-documents" and variant == "xlight":
        assert by_unique >= 100     # light's equal queries count nothing
    for pairs, _ in answers[default].values():
        assert all(type(doc) is int and type(freq) is int for doc, freq in pairs)


def test_absent_candidate_reads_zero(monkeypatch):
    # A candidate list that names a document owning no slot of its node
    # reads 0 for it, as doc_freq does, however the node is counted, and
    # its queries raise nothing outside topkdoc.errors.
    docs = revisions_corpus(random.Random(223))
    idx = build_index(docs, g_prime=4, k_max=8, variant="xlight")
    x, w, doc_ids, d = idx.sgst, idx.wavelet, idx.suffixes.doc_ids, idx.corpus.d
    intervals = {p: pattern_interval(idx.suffixes, idx.corpus, p)
                 for p in occurring_patterns(docs, 3)}
    default = engine_module.RECOUNT_SLOTS

    def answers(index, patterns, slots):
        monkeypatch.setattr(engine_module, "RECOUNT_SLOTS", slots)
        out = []
        for pattern in patterns:
            for k in (1, 3, 8):
                for strat in STRATEGIES:
                    try:
                        r = query_topk(index, pattern, k, strat)
                        out.append((r.pairs, dataclasses.astuple(r.stats)))
                    except errors.Error as exc:
                        out.append(type(exc))
        return out

    tampered = queried = zeros = 0
    for rank in range(1, x.node_count + 1, 7):
        node = x.node_at(rank)
        owners = set(doc_ids[node.sp - 1:node.ep].tolist())
        absent = [doc for doc in range(1, d + 1) if doc not in owners]
        for doc in sorted({absent[0], absent[len(absent) // 2], absent[-1]} if absent else ()):
            cand_docs = np.array(x.cand_docs.obj)
            cand_docs[x.cand_off[rank] - 1] = doc       # the node's last candidate
            bad = SGST(x.g_prime, x.k_max, x.variant, x.sp_arr.obj, x.ep_arr.obj,
                       x.cls_arr.obj, x.cand_off.obj, cand_docs, None)
            want = candidates_of(bad, node, w)
            assert (doc, 0) in want
            counted = frequencies(idx, node.sp, node.ep, len(want))
            assert candidates_of(bad, node, w, None, counted) == want
            tampered += 1
            # Only a pattern whose interval holds the node can reach it.
            reaching = [p for p, iv in intervals.items() if iv.sp <= node.sp and node.ep <= iv.ep]
            bad_index = dataclasses.replace(idx, sgst=bad)
            got = answers(bad_index, reaching, default)
            assert got == answers(bad_index, reaching, 0)
            queried += len(reaching)
            zeros += sum((doc, 0) in a[0] for a in got if type(a) is tuple)
    assert tampered >= 10 and queried >= 100 and zeros >= 10


def test_whole_build_memory_budget():
    # At most 90 bytes per symbol of traced allocation for build_index on
    # top of the ingested corpus, at over 200 k symbols.  Word revisions
    # repeat whole documents; 21 identical copies of one 10 k-symbol
    # document repeat far longer stretches, so any build step whose memory
    # grows with the longest repeat (doubling ranks kept per round, say)
    # exceeds the budget there first.  They peak at about 38 and 36, in
    # the suffix sort.
    rng = random.Random(5)
    revisions = revisions_corpus(rng, bases=10, revisions=20, length=220)
    copies = ["".join(rng.choice("abcdefghij") for _ in range(10_000))] * 21
    for docs in (revisions, copies):
        c = ingest(docs)
        assert c.n >= 200_000
        tracemalloc.start()
        try:
            build_index(c, g_prime=50, k_max=16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 90 * c.n
