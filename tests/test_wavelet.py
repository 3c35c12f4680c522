import heapq
import random
from collections import Counter

import pytest

from topkdoc.bitrank import RankBitVector
from topkdoc.errors import InconsistentIntervalsError, OutOfRangeError, ValueOutOfRangeError
from topkdoc.wavelet import TrackedIntervals, WaveletTree, tracked_root

from conftest import WORKED_D, WORKED_ROOT_BITMAP

# Fourteen positions over eight documents, shaped so the outer interval
# [4, 14] with uncovered parts [4, 6] and [12, 14] reaches exactly four
# documents.  Expected emissions below were tallied by hand from this list.
EIGHT_DOC_SEQ = [6, 4, 3, 1, 7, 2, 1, 2, 7, 3, 8, 7, 5, 7]


def bits_as_string(v):
    return "".join(str(v.get(p)) for p in range(1, len(v) + 1))


def brute_freqs(values, l, r):
    freqs = {}
    for v in values[l - 1:r]:
        freqs[v] = freqs.get(v, 0) + 1
    return freqs


def brute_restricted(values, l, r, l1, r1, l2, r2, threshold):
    """Docs reachable through the uncovered parts, with outer frequency."""
    outer = brute_freqs(values, l, r)
    reachable = set(values[l1 - 1:r1]) | set(values[l2 - 1:r2])
    return {doc: f for doc, f in outer.items() if doc in reachable and f > threshold}


def random_tracked(rng, n):
    """Random outer interval with a covered core; parts may be empty."""
    l = rng.randint(1, n)
    r = rng.randint(l, n)
    c1 = rng.randint(l, r + 1)          # covered core [c1, c2], maybe empty
    c2 = rng.randint(c1 - 1, r)
    l1, r1 = l, c1 - 1
    l2, r2 = c2 + 1, r
    if r1 < l1:
        l1, r1 = 1, 0
    if r2 < l2:
        l2, r2 = 1, 0
    return l, r, l1, r1, l2, r2


def test_worked_root_bitmap(worked_wavelet):
    root = worked_wavelet.root
    assert bits_as_string(root.bits) == WORKED_ROOT_BITMAP
    assert (root.lo, root.hi, root.mid) == (1, 3, 2)


def test_internal_node_count_by_d():
    for d, want in [(1, 0), (2, 1), (3, 2), (4, 3), (5, 4), (8, 7)]:
        w = WaveletTree([1] * 3, d)
        assert len(w.internal_nodes()) == want
    assert WaveletTree([1], 1).height == 0
    assert WaveletTree([1], 8).height == 3


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


def test_random_access_and_freq_vs_oracle():
    rng = random.Random(61)
    for _ in range(20):
        d = rng.randint(1, 12)
        n = rng.randint(1, 200)
        values = [rng.randint(1, d) for _ in range(n)]
        w = WaveletTree(values, d, sample_step=rng.choice([64, 128]))
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
        # 64 samples every word; 128 counts a word inside each sample block.
        for step in (64, 128):
            w = WaveletTree(values, d, sample_step=step)
            assert w.greedy_topk(l, r, k) == want


def test_greedy_topk_one_rank_pair_per_internal_node(monkeypatch):
    calls = Counter()

    def counting(name):
        real = getattr(RankBitVector, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in ("rank1", "rank1_pair", "select", "get"):
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
        assert calls == Counter(rank1_pair=internal)


def test_tracked_validation():
    w = WaveletTree(EIGHT_DOC_SEQ, 8)
    node = w.root
    with pytest.raises(InconsistentIntervalsError):
        TrackedIntervals(node, 5, 4, 1, 0, 1, 0)
    with pytest.raises(InconsistentIntervalsError):
        TrackedIntervals(node, 4, 14, 2, 5, 1, 0)          # prefix escapes outer
    with pytest.raises(InconsistentIntervalsError):
        TrackedIntervals(node, 4, 14, 4, 9, 8, 14)         # parts overlap
    t = TrackedIntervals(node, 4, 14, 1, 0, 1, 0)
    assert not t.has_uncovered
    assert TrackedIntervals(node, 4, 14, 4, 6, 12, 14).has_uncovered


def test_tracked_must_anchor_at_root():
    w = WaveletTree(EIGHT_DOC_SEQ, 8)
    other = WaveletTree(EIGHT_DOC_SEQ, 8)
    t = tracked_root(other, 4, 14, 4, 6, 12, 14)
    with pytest.raises(InconsistentIntervalsError):
        list(w.restricted_greedy(t, lambda: 0))
    with pytest.raises(InconsistentIntervalsError):
        list(w.restricted_dfs(t, lambda: 0))


def test_restricted_worked_instance():
    w = WaveletTree(EIGHT_DOC_SEQ, 8)
    t = tracked_root(w, 4, 14, 4, 6, 12, 14)
    want = {1: 2, 2: 2, 5: 1, 7: 4}
    assert dict(w.restricted_greedy(t, lambda: 0)) == want
    assert dict(w.restricted_dfs(t, lambda: 0)) == want


@pytest.mark.parametrize("threshold,want", [
    (1, {1: 2, 2: 2, 7: 4}),
    (2, {7: 4}),
    (3, {7: 4}),
    (4, {}),
])
def test_restricted_fixed_threshold(threshold, want):
    w = WaveletTree(EIGHT_DOC_SEQ, 8)
    t = tracked_root(w, 4, 14, 4, 6, 12, 14)
    assert dict(w.restricted_greedy(t, lambda: threshold)) == want
    assert dict(w.restricted_dfs(t, lambda: threshold)) == want


def test_restricted_no_uncovered_yields_nothing():
    w = WaveletTree(EIGHT_DOC_SEQ, 8)
    t = tracked_root(w, 4, 14, 1, 0, 1, 0)
    assert list(w.restricted_greedy(t, lambda: 0)) == []
    assert list(w.restricted_dfs(t, lambda: 0)) == []


def test_restricted_threshold_read_at_pop():
    # Raise the threshold after the first emission: both traversals must
    # stop with exactly one document reported.  The priority queue reports
    # the most frequent first, depth first the leftmost reachable one.
    w = WaveletTree(EIGHT_DOC_SEQ, 8)
    for method, first in [(w.restricted_greedy, (7, 4)), (w.restricted_dfs, (1, 2))]:
        cell = [0]
        got = []
        for doc, freq in method(tracked_root(w, 4, 14, 4, 6, 12, 14), lambda: cell[0]):
            got.append((doc, freq))
            cell[0] = 100
        assert got == [first]


def test_restricted_whole_interval_uncovered_matches_plain_counts():
    w = WaveletTree(EIGHT_DOC_SEQ, 8)
    t = tracked_root(w, 1, 14, 1, 14, 1, 0)
    want = brute_freqs(EIGHT_DOC_SEQ, 1, 14)
    assert dict(w.restricted_greedy(t, lambda: 0)) == want
    assert dict(w.restricted_dfs(t, lambda: 0)) == want


def test_restricted_random_vs_oracle():
    rng = random.Random(71)
    for _ in range(40):
        d = rng.randint(1, 12)
        n = rng.randint(1, 120)
        values = [rng.randint(1, d) for _ in range(n)]
        w = WaveletTree(values, d)
        l, r, l1, r1, l2, r2 = random_tracked(rng, n)
        threshold = rng.choice([0, 0, 1, 2, 3])
        want = brute_restricted(values, l, r, l1, r1, l2, r2, threshold)
        t = tracked_root(w, l, r, l1, r1, l2, r2)
        assert dict(w.restricted_greedy(t, lambda: threshold)) == want
        t = tracked_root(w, l, r, l1, r1, l2, r2)
        assert dict(w.restricted_dfs(t, lambda: threshold)) == want


def test_restricted_greedy_emits_in_frequency_order():
    rng = random.Random(73)
    for _ in range(20):
        d = rng.randint(2, 10)
        n = rng.randint(5, 100)
        values = [rng.randint(1, d) for _ in range(n)]
        w = WaveletTree(values, d)
        l, r, l1, r1, l2, r2 = random_tracked(rng, n)
        t = tracked_root(w, l, r, l1, r1, l2, r2)
        freqs = [f for _, f in w.restricted_greedy(t, lambda: 0)]
        assert freqs == sorted(freqs, reverse=True)
