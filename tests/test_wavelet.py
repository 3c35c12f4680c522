import gc
import heapq
import random
import time
from collections import Counter

import numpy as np
import pytest

from topkdoc.bitrank import RankBitVector
from topkdoc.errors import InconsistentIntervalsError, OutOfRangeError, ValueOutOfRangeError
from topkdoc.wavelet import WaveletTree, level_sizes

from conftest import WORKED_D, WORKED_ROOT_BITMAP

# Fourteen positions over eight documents, shaped so the outer interval
# [4, 14] with covered core [7, 11] reaches exactly four documents, those
# of the uncovered flanks [4, 6] and [12, 14].  Expected emissions below
# were tallied by hand from this list.
EIGHT_DOC_SEQ = [6, 4, 3, 1, 7, 2, 1, 2, 7, 3, 8, 7, 5, 7]


def bits_as_string(v):
    return "".join(str(v.get(p)) for p in range(1, len(v) + 1))


def brute_freqs(values, l, r):
    freqs = {}
    for v in values[l - 1:r]:
        freqs[v] = freqs.get(v, 0) + 1
    return freqs


def brute_restricted(values, l, r, cl, cr, threshold):
    """Docs of [l, r] outside the core [cl, cr], with outer frequency."""
    outer = brute_freqs(values, l, r)
    reachable = {values[p - 1] for p in range(l, r + 1) if not cl <= p <= cr}
    return {doc: f for doc, f in outer.items() if doc in reachable and f > threshold}


def random_core(rng, n):
    """Random outer interval [l, r] with a covered core that may be empty or
    touch either end."""
    l = rng.randint(1, n)
    r = rng.randint(l, n)
    cl = rng.randint(l, r + 1)
    cr = rng.randint(cl - 1, r)
    return l, r, cl, cr


def test_worked_root_bitmap(worked_wavelet):
    root = worked_wavelet.root
    assert bits_as_string(root.bits) == WORKED_ROOT_BITMAP
    assert (root.lo, root.hi, root.mid) == (1, 3, 2)


def test_internal_node_count_by_d():
    for d, want in [(1, 0), (2, 1), (3, 2), (4, 3), (5, 4), (8, 7)]:
        w = WaveletTree([1] * 3, d)
        assert len(w.internal_nodes()) == want
    for d, height in [(1, 0), (2, 1), (3, 2), (8, 3), (9, 4)]:
        # The left half is never the smaller, so the leftmost path is the longest.
        node, depth = WaveletTree([1], d).root, 0
        while not node.is_leaf:
            node, depth = node.left, depth + 1
        assert depth == height == (d - 1).bit_length()


def test_internal_nodes_in_level_order_at_large_d():
    # Listing the nodes makes every handle, so the walk must stay linear in d.
    d = 1 << 18
    w = WaveletTree(np.arange(1, d + 1), d)
    start = time.perf_counter()
    nodes = w.internal_nodes()
    assert time.perf_counter() - start < 5
    assert len(nodes) == d - 1
    # A power of two splits evenly: level t holds 2**t nodes of 2**(18 - t) ids.
    assert [(node.lo, node.hi) for node in nodes[:3]] == [(1, d), (1, d // 2), (d // 2 + 1, d)]
    assert all(node.hi - node.lo + 1 == d >> (i + 1).bit_length() - 1
               for i, node in enumerate(nodes))
    assert all(a.hi < b.lo for a, b in zip(nodes, nodes[1:]) if a.hi - a.lo == b.hi - b.lo)


def test_levels_concatenate_their_nodes_bits():
    # Level t is the bits of depth t's internal nodes, left to right, each
    # node's bits routing its own subsequence; every level above the last
    # holds all n bits, and the last only those of its two-id nodes.
    rng = random.Random(83)
    for d in (2, 3, 5, 7, 8, 13, 32, 33):
        values = [rng.randint(1, d) for _ in range(rng.randint(1, 120))]
        w = WaveletTree(values, d)
        assert len(w.levels) == w.height == (d - 1).bit_length()
        subsequences = {(1, d): values}
        for t, level in enumerate(w.levels):
            nodes = [node for node in w.internal_nodes() if node.level == t]
            want = []
            for node in nodes:
                seq = subsequences[node.lo, node.hi]
                subsequences[node.lo, node.mid] = [v for v in seq if v <= node.mid]
                subsequences[node.mid + 1, node.hi] = [v for v in seq if v > node.mid]
                assert node.offset == len(want) and node.size == len(seq)
                assert node.before == sum(want)
                want += [int(v > node.mid) for v in seq]
            assert bits_as_string(level) == "".join(map(str, want))
            if t < w.height - 1:
                assert len(level) == len(values)
            else:
                assert all(node.hi - node.lo == 1 for node in nodes)


def test_level_sizes_are_the_levels_bit_counts():
    # level_sizes gives, from the document lengths alone, each level's bit
    # count: what a load sizes each wavelet level, and its inflate, by.
    rng = random.Random(89)
    for d in (1, 2, 3, 5, 7, 8, 13, 32, 33):
        values = [rng.randint(1, d) for _ in range(rng.randint(1, 120))]
        lengths = np.bincount(values, minlength=d + 1)[1:]
        assert level_sizes(lengths) == [len(level) for level in WaveletTree(values, d).levels]


def test_dropped_tree_needs_no_cycle_collector():
    # Node handles refer to the tree's level data, not to the tree, so a
    # dropped tree and every handle made are freed by reference counting.
    gc.collect()
    gc.disable()
    try:
        w = WaveletTree([v % 9 + 1 for v in range(200)], 9)
        assert len(w.internal_nodes()) == 8
        del w
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_access_worked(worked_wavelet):
    assert [worked_wavelet.access(i) for i in range(1, 15)] == WORKED_D
    with pytest.raises(OutOfRangeError):
        worked_wavelet.access(0)
    with pytest.raises(OutOfRangeError):
        worked_wavelet.access(15)


def test_doc_freq_worked(worked_wavelet):
    w = worked_wavelet
    assert w.doc_freq(1, 5, 8) == 2
    assert w.doc_freq(2, 5, 8) == 1
    assert w.doc_freq(3, 5, 8) == 1
    assert w.doc_freq(1, 1, 14) == 5
    assert w.doc_freq(2, 8, 5) == 0          # empty interval short-circuits
    with pytest.raises(OutOfRangeError):
        w.doc_freq(4, 1, 14)
    with pytest.raises(OutOfRangeError):
        w.doc_freq(1, 0, 3)


def test_project_worked(worked_wavelet):
    root = worked_wavelet.root
    left, right = worked_wavelet.project(root, 5, 8)
    assert left == (4, 6)
    assert right == (2, 2)
    assert worked_wavelet.project(root, 8, 5) == ((1, 0), (1, 0))
    with pytest.raises(OutOfRangeError):
        worked_wavelet.project(root, 1, 15)
    leaf = root.right
    with pytest.raises(OutOfRangeError):
        worked_wavelet.project(leaf, 1, 1)


def test_build_validation():
    with pytest.raises(ValueOutOfRangeError):
        WaveletTree([1], 0)
    with pytest.raises(ValueOutOfRangeError):
        WaveletTree([0, 1], 2)
    with pytest.raises(ValueOutOfRangeError):
        WaveletTree([3], 2)


def test_greedy_topk_worked(worked_wavelet):
    assert worked_wavelet.greedy_topk(1, 14, 3) == [(1, 5), (2, 5), (3, 4)]
    assert worked_wavelet.greedy_topk(5, 8, 2) == [(1, 2), (2, 1)]
    assert worked_wavelet.greedy_topk(5, 8, 10) == [(1, 2), (2, 1), (3, 1)]
    assert worked_wavelet.greedy_topk(9, 14, 1) == [(1, 2)]
    with pytest.raises(ValueError):
        worked_wavelet.greedy_topk(1, 14, 0)
    with pytest.raises(OutOfRangeError):
        worked_wavelet.greedy_topk(0, 14, 1)


def test_greedy_topk_single_doc():
    w = WaveletTree([1, 1, 1, 1], 1)
    assert w.greedy_topk(2, 4, 5) == [(1, 3)]
    assert w.access(3) == 1


def test_answers_are_python_ints():
    # The bit vectors read numpy words and rank directories through
    # memoryviews; every answer stays a plain int, not a numpy scalar, on a
    # built tree and on one rebuilt from its words.
    built = WaveletTree(EIGHT_DOC_SEQ, 8)
    loaded = WaveletTree.from_levels([(level.words, len(level)) for level in built.levels],
                                     np.bincount(EIGHT_DOC_SEQ, minlength=9)[1:])
    for w in (built, loaded):
        v = w.levels[0]
        answers = [v.ones, v.rank1(5), *v.rank1_pair(3, 9), v.select(1, 2), v.select(0, 2),
                   v.get(4), w.access(5), w.doc_freq(7, 1, 14)]
        answers += [x for pair in w.greedy_topk(1, 14, 3) for x in pair]
        assert [type(x) for x in answers] == [int] * len(answers)


def test_random_access_and_freq_vs_oracle():
    rng = random.Random(61)
    for _ in range(20):
        d = rng.randint(1, 12)
        n = rng.randint(1, 200)
        values = [rng.randint(1, d) for _ in range(n)]
        w = WaveletTree(values, d)
        for _ in range(30):
            i = rng.randint(1, n)
            assert w.access(i) == values[i - 1]
            l = rng.randint(1, n)
            r = rng.randint(l, n)
            doc = rng.randint(1, d)
            assert w.doc_freq(doc, l, r) == values[l - 1:r].count(doc)


def test_random_greedy_topk_vs_oracle():
    rng = random.Random(67)
    for _ in range(25):
        d = rng.randint(1, 10)
        n = rng.randint(1, 150)
        values = [rng.randint(1, d) for _ in range(n)]
        l = rng.randint(1, n)
        r = rng.randint(l, n)
        k = rng.randint(1, d + 2)
        want = sorted(brute_freqs(values, l, r).items(), key=lambda p: (-p[1], p[0]))[:k]
        assert WaveletTree(values, d).greedy_topk(l, r, k) == want


def test_greedy_topk_one_rank_pair_per_internal_node(monkeypatch):
    calls = Counter()

    def counting(name):
        real = getattr(RankBitVector, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in ("rank1", "rank1_pair", "_rank1_pair", "select", "get"):
        monkeypatch.setattr(RankBitVector, name, counting(name))
    real_pop = heapq.heappop

    def counting_pop(heap):
        calls["pop"] += 1
        return real_pop(heap)

    monkeypatch.setattr(heapq, "heappop", counting_pop)
    rng = random.Random(71)
    for _ in range(40):
        d = rng.randint(1, 16)
        n = rng.randint(1, 300)
        w = WaveletTree([rng.randint(1, d) for _ in range(n)], d)
        l = rng.randint(1, n)
        r = rng.randint(l, n)
        calls.clear()
        out = w.greedy_topk(l, r, rng.randint(1, d + 2))
        # Every pop that emits nothing is an internal node.
        internal = calls.pop("pop") - len(out)
        assert calls == Counter(_rank1_pair=internal)


def test_restricted_entry_checks():
    w = WaveletTree(EIGHT_DOC_SEQ, 8)
    for args in [(0, 14, 7, 11),            # outer starts before 1
                 (4, 15, 7, 11),            # outer ends after n
                 (5, 4, 1, 0),              # empty outer
                 (4, 14, 2, 5),             # core starts before the outer
                 (4, 14, 12, 15),           # core ends after the outer
                 (4, 10, 3, 11)]:           # core encloses the outer
        for walk in (w.restricted_greedy, w.restricted_dfs):
            with pytest.raises(InconsistentIntervalsError):
                list(walk(*args, lambda: 0))


def test_restricted_worked_instance():
    w = WaveletTree(EIGHT_DOC_SEQ, 8)
    want = {1: 2, 2: 2, 5: 1, 7: 4}
    assert dict(w.restricted_greedy(4, 14, 7, 11, lambda: 0)) == want
    assert dict(w.restricted_dfs(4, 14, 7, 11, lambda: 0)) == want


@pytest.mark.parametrize("threshold,want", [
    (1, {1: 2, 2: 2, 7: 4}),
    (2, {7: 4}),
    (3, {7: 4}),
    (4, {}),
])
def test_restricted_fixed_threshold(threshold, want):
    w = WaveletTree(EIGHT_DOC_SEQ, 8)
    assert dict(w.restricted_greedy(4, 14, 7, 11, lambda: threshold)) == want
    assert dict(w.restricted_dfs(4, 14, 7, 11, lambda: threshold)) == want


def test_restricted_no_uncovered_yields_nothing():
    # With d = 1 the root is a leaf, so only the entry test keeps it out.
    for w in (WaveletTree(EIGHT_DOC_SEQ, 8), WaveletTree([1] * 14, 1)):
        assert list(w.restricted_greedy(4, 14, 4, 14, lambda: 0)) == []
        assert list(w.restricted_dfs(4, 14, 4, 14, lambda: 0)) == []


def test_restricted_threshold_read_at_pop():
    # Raise the threshold after the first emission: both traversals must
    # stop with exactly one document reported.  The priority queue reports
    # the most frequent first, depth first the leftmost reachable one.
    w = WaveletTree(EIGHT_DOC_SEQ, 8)
    for method, first in [(w.restricted_greedy, (7, 4)), (w.restricted_dfs, (1, 2))]:
        cell = [0]
        got = []
        for doc, freq in method(4, 14, 7, 11, lambda: cell[0]):
            got.append((doc, freq))
            cell[0] = 100
        assert got == [first]


def test_restricted_whole_interval_uncovered_matches_plain_counts():
    w = WaveletTree(EIGHT_DOC_SEQ, 8)
    want = brute_freqs(EIGHT_DOC_SEQ, 1, 14)
    assert dict(w.restricted_greedy(1, 14, 1, 0, lambda: 0)) == want
    assert dict(w.restricted_dfs(1, 14, 1, 0, lambda: 0)) == want


def test_restricted_random_vs_oracle():
    rng = random.Random(71)
    for _ in range(40):
        d = rng.randint(1, 12)
        n = rng.randint(1, 120)
        values = [rng.randint(1, d) for _ in range(n)]
        w = WaveletTree(values, d)
        l, r, cl, cr = random_core(rng, n)
        threshold = rng.choice([0, 0, 1, 2, 3])
        want = brute_restricted(values, l, r, cl, cr, threshold)
        assert dict(w.restricted_greedy(l, r, cl, cr, lambda: threshold)) == want
        assert dict(w.restricted_dfs(l, r, cl, cr, lambda: threshold)) == want


def test_restricted_at_most_two_rank_pairs_per_internal_node(monkeypatch):
    # The walk projects the outer interval and, when non-empty, the core:
    # never a third rank pair, even where both flanks are non-empty.  A
    # level's vector is shared by its nodes; the node a pair ranks in is the
    # one whose bits hold the pair's second position.
    calls = Counter()
    owner = {}
    real = RankBitVector._rank1_pair

    def counting(self, i, j):
        calls[owner[id(self), j]] += 1
        return real(self, i, j)

    monkeypatch.setattr(RankBitVector, "_rank1_pair", counting)
    for name in ("rank1", "rank1_pair", "select", "get"):
        monkeypatch.setattr(RankBitVector, name, None)
    rng = random.Random(79)
    cases = [(EIGHT_DOC_SEQ, 8, (4, 14, 7, 11))]
    for _ in range(60):
        d = rng.randint(1, 16)
        n = rng.randint(1, 200)
        values = [rng.randint(1, d) for _ in range(n)]
        cases.append((values, d, random_core(rng, n)))
    for values, d, (l, r, cl, cr) in cases:
        w = WaveletTree(values, d)
        internal = w.internal_nodes()
        owner.clear()
        owner.update({(id(node.bits), node.offset + p): node
                      for node in internal for p in range(1, node.size + 1)})
        uncovered = {values[p - 1] for p in range(l, r + 1) if not cl <= p <= cr}
        # With threshold 0 the walk expands exactly the internal nodes whose
        # id range holds a document of the flanks.
        expanded = {node for node in internal
                    if any(node.lo <= doc <= node.hi for doc in uncovered)}
        for walk in (w.restricted_greedy, w.restricted_dfs):
            calls.clear()
            list(walk(l, r, cl, cr, lambda: 0))
            assert set(calls) == expanded
            assert max(calls.values(), default=0) <= 2


def test_restricted_greedy_emits_in_frequency_order():
    rng = random.Random(73)
    for _ in range(20):
        d = rng.randint(2, 10)
        n = rng.randint(5, 100)
        values = [rng.randint(1, d) for _ in range(n)]
        w = WaveletTree(values, d)
        l, r, cl, cr = random_core(rng, n)
        freqs = [f for _, f in w.restricted_greedy(l, r, cl, cr, lambda: 0)]
        assert freqs == sorted(freqs, reverse=True)
