import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from topkdoc import build_suffix_array, candidates_of, find_locus, ingest
from topkdoc.bitrank import RankBitVector
from topkdoc.errors import KStarNotPrecomputedError
from topkdoc.sgst import (VARIANTS, _ancestor_interval, _lcp_array, _smaller_neighbours,
                          build_sgst)
from topkdoc.wavelet import WaveletTree

from conftest import random_docs, revisions_corpus

# Marked intervals of the fully sampled worked corpus (spacing 1, levels
# 1/2/4), each with its deepest marking level.  Derived by hand from the
# lcp array of "abab\0abba\0bab\0" and cross-checked by the brute oracle
# below.
DENSE_NODES = {
    (1, 14): 4, (9, 14): 4,
    (1, 3): 2, (5, 8): 2, (11, 13): 2,
    (4, 8): 1, (5, 6): 1, (9, 10): 1, (12, 13): 1,
}
DENSE_LEVEL_2 = {(1, 3), (1, 14), (5, 8), (9, 14), (11, 13)}
DENSE_LEVEL_4 = {(1, 14), (9, 14)}


def common_prefix(a: bytes, b: bytes) -> int:
    i = 0
    while i < len(a) and i < len(b) and a[i] == b[i]:
        i += 1
    return i


def brute_lcp(text, sa):
    """1-based lcp values; entry i compares slots i-1 and i."""
    n = len(sa)
    out = [0] * (n + 1)
    for i in range(2, n + 1):
        out[i] = common_prefix(text[sa[i - 2] - 1:], text[sa[i - 1] - 1:])
    return out


def brute_ancestor(text, sa, p, q):
    """Widen [p, q] while internal lcps stay >= min(lcp[p+1..q])."""
    n = len(sa)
    lcps = brute_lcp(text, sa)
    h = min(lcps[p + 1:q + 1])
    if h == 0:
        return (1, n)
    lo, hi = p, q
    while lo > 1 and lcps[lo] >= h:
        lo -= 1
    while hi < n and lcps[hi + 1] >= h:
        hi += 1
    return (lo, hi)


def brute_marks(text, sa, g):
    slots = list(range(1, len(sa) + 1, g))
    return {brute_ancestor(text, sa, p, q) for p, q in zip(slots, slots[1:])}


def build_all(docs, **kwargs):
    c = ingest(docs)
    s = build_suffix_array(c)
    w = WaveletTree(s.doc_ids, c.d)
    return c, s, w, build_sgst(c, s, w, **kwargs)


def test_lcp_array_random_vs_oracle():
    rng = random.Random(101)
    for _ in range(20):
        c = ingest(random_docs(rng, max_docs=6, max_total=150))
        s = build_suffix_array(c)
        got = _lcp_array(c.text, s.sa)
        assert list(got) == brute_lcp(c.text, list(s.sa))


def kasai_lcp(text, sa):
    """Kasai et al.'s linear scan over text order: the reference lcp array."""
    n = len(sa)
    pos = [p - 1 for p in sa]
    inv = [0] * n
    for i, p in enumerate(pos):
        inv[p] = i
    out = [0] * (n + 1)
    h = 0
    for p in range(n):
        i = inv[p]
        if i == 0:
            h = 0
            continue
        q = pos[i - 1]
        while p + h < n and q + h < n and text[p + h] == text[q + h]:
            h += 1
        out[i + 1] = h
        h = max(h - 1, 0)
    return out


def test_lcp_array_long_repeats_vs_kasai():
    # Revisions and runs share long prefixes, so they need many doubling
    # rounds; past 2^14 slots the pairs are lifted in several batches.
    rng = random.Random(139)
    corpora = [revisions_corpus(rng), revisions_corpus(rng, bases=3, revisions=12, length=100),
               ["a" * 6000, "a" * 5000, "ab" * 3000, "b"]]
    for docs in corpora:
        c = ingest(docs)
        s = build_suffix_array(c)
        lcp = _lcp_array(c.text, s.sa).tolist()
        assert lcp == kasai_lcp(c.text, s.sa.tolist())
    assert c.n > 1 << 14 and max(lcp) >= 4000


def brute_smaller_neighbours(values):
    """O(n^2) nearest strictly smaller slot on each side, for slots 1..n of values."""
    n = len(values) - 1
    prev = [max((t for t in range(1, i) if values[t] < values[i]), default=0)
            for i in range(1, n + 1)]
    nxt = [min((t for t in range(i + 1, n + 1) if values[t] < values[i]), default=n + 1)
           for i in range(1, n + 1)]
    return prev, nxt


def test_smaller_neighbours_vs_oracle():
    rng = random.Random(103)
    for _ in range(40):
        n = rng.randint(1, 120)
        # Few distinct values, so runs of equal lcp are common.
        values = [0] + [rng.randint(0, rng.choice([1, 3, 8])) for _ in range(n)]
        prev, nxt = _smaller_neighbours(np.array(values, dtype=np.int64), n)
        got = (prev[1:n + 1].tolist(), nxt[1:n + 1].tolist())
        assert got == brute_smaller_neighbours(values)


def test_ancestor_interval_random_vs_oracle():
    rng = random.Random(107)
    for _ in range(15):
        c = ingest(random_docs(rng, max_docs=6, max_total=120))
        s = build_suffix_array(c)
        n = c.n
        lcp = _lcp_array(c.text, s.sa)
        prev, nxt = _smaller_neighbours(lcp, n)
        for _ in range(30):
            p = rng.randint(1, n - 1)
            q = rng.randint(p + 1, n)
            got = _ancestor_interval(lcp, prev, nxt, p, q)
            want = brute_ancestor(c.text, list(s.sa), p, q)
            assert got == want
            assert got[0] <= p and q <= got[1]


def test_build_memory_budget():
    # At most 100 bytes per symbol of traced allocation on top of the
    # inputs.  A structure of O(n log n) bytes, such as a sparse table of
    # range minima over the lcp array, exceeds it.
    rng = random.Random(241)
    c = ingest(["".join(rng.choice("acgt") for _ in range(1000)) for _ in range(50)])
    s = build_suffix_array(c)
    w = WaveletTree(s.doc_ids, c.d)
    tracemalloc.start()
    try:
        build_sgst(c, s, w, g_prime=200, k_max=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 100 * c.n


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("g_prime", [1, 4])
def test_counted_candidates_match_greedy_topk(variant, g_prime):
    # Every marked node stores exactly what a greedy traversal of its
    # interval reports, ties to lower ids included.
    rng = random.Random(151 + g_prime)
    corpora = [random_docs(rng, max_docs=10, max_total=300, sigma=2) for _ in range(8)]
    corpora += [revisions_corpus(rng) for _ in range(2)]
    nodes = ties = 0
    for docs in corpora:
        _, _, w, x = build_all(docs, g_prime=g_prime, k_max=8, variant=variant)
        for rank in range(1, x.node_count + 1):
            nd = x.node_at(rank)
            want = w.greedy_topk(nd.sp, nd.ep, nd.cls)
            lo, hi = x.cand_off[rank - 1], x.cand_off[rank]
            assert x.cand_docs[lo:hi] == [doc for doc, _ in want]
            if variant == "light":
                assert x.cand_freqs[lo:hi] == [freq for _, freq in want]
            nodes += 1
            ties += len({freq for _, freq in want}) < len(want)
    assert nodes > 100 and ties > 10


def test_build_makes_no_traversal(monkeypatch):
    def refuse(*args):
        raise AssertionError("build_sgst traversed the wavelet tree")

    monkeypatch.setattr(WaveletTree, "greedy_topk", refuse)
    _, _, _, x = build_all(revisions_corpus(random.Random(157)), g_prime=2, k_max=8)
    assert x.node_count > 0


def test_build_parameter_validation(worked_corpus, worked_suffixes, worked_wavelet):
    with pytest.raises(ValueError):
        build_sgst(worked_corpus, worked_suffixes, worked_wavelet, g_prime=0)
    with pytest.raises(ValueError):
        build_sgst(worked_corpus, worked_suffixes, worked_wavelet, k_max=3)
    with pytest.raises(ValueError):
        build_sgst(worked_corpus, worked_suffixes, worked_wavelet, variant="heavy")


def test_worked_default_build(worked_index):
    x = worked_index.sgst
    assert x.g_prime == 7 and x.k_max == 1
    assert x.levels() == [1]
    assert x.node_count == 1
    node = x.node_at(1)
    assert (node.sp, node.ep, node.cls) == (1, 14, 1)
    assert candidates_of(x, node, worked_index.wavelet) == [(1, 5)]


def test_dense_build_marks(dense_index):
    x = dense_index.sgst
    assert x.levels() == [1, 2, 4]
    assert x.node_count == len(DENSE_NODES)
    got = {(nd.sp, nd.ep): nd.cls for nd in x.level_nodes(1)}
    assert got == DENSE_NODES
    assert {(nd.sp, nd.ep) for nd in x.level_nodes(2)} == DENSE_LEVEL_2
    assert {(nd.sp, nd.ep) for nd in x.level_nodes(4)} == DENSE_LEVEL_4
    assert sorted(x.skeletons) == [2, 4]
    # Dense rank 1 is the containment root.
    assert (x.node_at(1).sp, x.node_at(1).ep) == (1, 14)


def test_dense_build_candidates(dense_index):
    x = dense_index.sgst
    w = dense_index.wavelet
    by_iv = {(nd.sp, nd.ep): nd for nd in x.level_nodes(1)}
    assert candidates_of(x, by_iv[(1, 14)], w) == [(1, 5), (2, 5), (3, 4)]
    assert candidates_of(x, by_iv[(9, 14)], w) == [(1, 2), (2, 2), (3, 2)]
    assert candidates_of(x, by_iv[(5, 8)], w) == [(1, 2), (2, 1)]
    assert candidates_of(x, by_iv[(4, 8)], w) == [(1, 2)]
    assert candidates_of(x, by_iv[(12, 13)], w) == [(1, 1)]


def test_skeleton_refs_point_into_main_tree(dense_index):
    x = dense_index.sgst
    louds, refs = x.skeletons[2]
    assert louds.node_count == len(refs) == len(DENSE_LEVEL_2)
    ivs = [(x.node_at(r).sp, x.node_at(r).ep) for r in refs]
    assert ivs == [(1, 14), (1, 3), (5, 8), (9, 14), (11, 13)]


def test_levels_nest_downward():
    rng = random.Random(109)
    for _ in range(10):
        docs = random_docs(rng, max_docs=8, max_total=300)
        _, _, _, x = build_all(docs, g_prime=rng.choice([1, 2, 3]), k_max=8)
        sets = {k: {(nd.sp, nd.ep) for nd in x.level_nodes(k)} for k in x.levels()}
        for small, big in zip(x.levels(), x.levels()[1:]):
            assert sets[big] <= sets[small]


def test_random_marks_vs_oracle():
    rng = random.Random(113)
    for _ in range(12):
        docs = random_docs(rng, max_docs=6, max_total=200)
        g_prime = rng.choice([1, 2, 5])
        c, s, _, x = build_all(docs, g_prime=g_prime, k_max=4)
        sa = list(s.sa)
        want_sets = {k: brute_marks(c.text, sa, k * g_prime) for k in x.levels()}
        for k in x.levels():
            assert {(nd.sp, nd.ep) for nd in x.level_nodes(k)} == want_sets[k]
        # Deepest marking level wins.
        for nd in x.level_nodes(1):
            want_cls = max(k for k in x.levels() if (nd.sp, nd.ep) in want_sets[k])
            assert nd.cls == want_cls


def test_containment_tree_is_laminar():
    rng = random.Random(127)
    for _ in range(10):
        docs = random_docs(rng, max_docs=8, max_total=250)
        _, _, _, x = build_all(docs, g_prime=rng.choice([1, 2]), k_max=4)
        tau = x.tau
        for rank in range(1, x.node_count + 1):
            h = tau.handle_of_rank(rank)
            nd = x.node_at(rank)
            prev_ep = nd.sp - 1
            for t in range(1, tau.child_count(h) + 1):
                child = x.node_at(tau.node_rank(tau.child(h, t)))
                # Children sit inside the parent, disjoint, left to right.
                assert nd.sp <= child.sp <= child.ep <= nd.ep
                assert child.sp > prev_ep
                prev_ep = child.ep
            p = tau.parent(h)
            if p is None:
                assert rank == 1
            else:
                parent = x.node_at(tau.node_rank(p))
                assert parent.sp <= nd.sp and nd.ep <= parent.ep


def test_degenerate_sampling_leaves_structure_empty():
    _, _, _, x = build_all(["abab", "abba", "bab"], g_prime=400, k_max=16)
    assert x.is_empty
    assert x.node_count == 0
    assert x.level_nodes(1) == []
    assert x.level_nodes(16) == []
    assert find_locus(x, 1, 1, 5) is None
    assert find_locus(x, 16, 1, 5) is None


def test_find_locus_worked(dense_index):
    x = dense_index.sgst
    nd = find_locus(x, 1, 5, 8)
    assert (nd.sp, nd.ep, nd.cls) == (5, 8, 2)
    nd = find_locus(x, 2, 9, 14)
    assert (nd.sp, nd.ep) == (9, 14)
    nd = find_locus(x, 1, 11, 13)
    assert (nd.sp, nd.ep) == (11, 13)
    nd = find_locus(x, 1, 12, 13)
    assert (nd.sp, nd.ep) == (12, 13)
    # The whole array is its own locus at every level.
    for k in (1, 2, 4):
        assert (find_locus(x, k, 1, 14).sp, find_locus(x, k, 1, 14).ep) == (1, 14)


def test_find_locus_dead_ends(dense_index, worked_index):
    x = dense_index.sgst
    assert find_locus(x, 4, 5, 8) is None       # level 4 has nothing inside [5, 8]
    assert find_locus(x, 1, 6, 8) is None       # descent dead-ends below (5, 8)
    assert find_locus(x, 1, 2, 2) is None
    # Single-node structure: root spans everything, so smaller targets fail.
    y = worked_index.sgst
    assert find_locus(y, 1, 5, 8) is None
    nd = find_locus(y, 1, 1, 14)
    assert (nd.sp, nd.ep) == (1, 14)


def test_find_locus_level_validation(dense_index):
    x = dense_index.sgst
    for bad in (0, 3, 5, 8, 16):
        with pytest.raises(KStarNotPrecomputedError):
            find_locus(x, bad, 1, 14)


def test_find_locus_agrees_with_exhaustive_search():
    # The locus must be a marked node of the level contained in the target
    # interval; whenever one exists at all along the containment chain the
    # search must not miss it.
    rng = random.Random(131)
    for _ in range(10):
        docs = random_docs(rng, max_docs=8, max_total=200)
        c, s, _, x = build_all(docs, g_prime=rng.choice([1, 2]), k_max=4)
        if x.is_empty:
            continue
        for k in x.levels():
            nodes = [(nd.sp, nd.ep) for nd in x.level_nodes(k)]
            for _ in range(40):
                sp = rng.randint(1, c.n)
                ep = rng.randint(sp, c.n)
                got = find_locus(x, k, sp, ep)
                contained = [iv for iv in nodes if sp <= iv[0] and iv[1] <= ep]
                if got is None:
                    # Nothing contained is reachable by containment descent:
                    # allowed only when no contained node exists whose every
                    # ancestor contains [sp, ep].  Approximate by checking
                    # the maximal contained intervals are not nested inside
                    # any node that fails to contain [sp, ep].
                    for iv in contained:
                        enclosing = [o for o in nodes
                                     if o[0] <= iv[0] and iv[1] <= o[1] and o != iv]
                        assert any(not (o[0] <= sp and ep <= o[1]) for o in enclosing) \
                            or not enclosing and not (sp <= 1 and c.n <= ep)
                else:
                    assert (got.sp, got.ep) in nodes
                    assert sp <= got.sp and got.ep <= ep


def test_find_locus_one_select_pair_per_level(monkeypatch):
    # The descent spans the children of each node it passes by one select
    # pair, and reads no other bit: so it makes exactly one pair for every
    # node of the level that strictly contains [sp, ep].
    calls = Counter()

    def counting(name):
        real = getattr(RankBitVector, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in ("rank1", "rank1_pair", "select", "select_pair", "get"):
        monkeypatch.setattr(RankBitVector, name, counting(name))
    rng = random.Random(233)
    c, _, _, x = build_all(revisions_corpus(rng), g_prime=4, k_max=8)
    descended = 0
    for k in x.levels():
        nodes = [(nd.sp, nd.ep) for nd in x.level_nodes(k)]
        assert len(nodes) > 1
        targets = [(sp, ep) for sp, ep in nodes if sp < ep]
        targets += [(sp + 1, ep) for sp, ep in targets] + [(sp, ep - 1) for sp, ep in targets]
        for _ in range(300):
            sp = rng.randint(1, c.n)
            targets.append((sp, rng.randint(sp, min(c.n, sp + 40))))
        for sp, ep in targets:
            calls.clear()
            find_locus(x, k, sp, ep)
            enclosing = sum(1 for a, b in nodes if a <= sp and ep <= b and (a, b) != (sp, ep))
            assert calls == Counter(select_pair=enclosing)
            descended += enclosing > 1
    assert descended


def test_light_and_xlight_agree():
    rng = random.Random(137)
    for _ in range(8):
        docs = random_docs(rng, max_docs=8, max_total=200)
        c = ingest(docs)
        s = build_suffix_array(c)
        w = WaveletTree(s.doc_ids, c.d)
        light = build_sgst(c, s, w, g_prime=1, k_max=4, variant="light")
        xlight = build_sgst(c, s, w, g_prime=1, k_max=4, variant="xlight")
        assert light.cand_freqs is not None and xlight.cand_freqs is None
        assert light.node_count == xlight.node_count
        for rank in range(1, light.node_count + 1):
            a, b = light.node_at(rank), xlight.node_at(rank)
            assert (a.sp, a.ep, a.cls) == (b.sp, b.ep, b.cls)
            assert candidates_of(light, a, w) == candidates_of(xlight, b, w)
