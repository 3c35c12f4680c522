import random
import tracemalloc

import numpy as np
import pytest

from topkdoc import build_suffix_array, candidates_of, find_locus, ingest, pattern_interval
from topkdoc.bitrank import RankBitVector
from topkdoc.errors import KStarNotPrecomputedError
from topkdoc.sgst import VARIANTS, build_sgst
from topkdoc.wavelet import WaveletTree

from conftest import occurring_patterns, random_docs, revisions_corpus

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


def kasai_lcp(text, sa):
    """Kasai et al.'s linear scan over text order: the reference lcp array.

    1-based; entry i compares the suffixes at slots i-1 and i.
    """
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


def oracle_marks(lcp, g):
    """Marked intervals at sampling step g, with each window's prefix length.

    The node spanning slots p..q is the lcp-interval of h = min(lcp[p+1..q]):
    it reaches left to the last slot t <= p with lcp[t] < h and right to the
    slot before the first t > q with lcp[t] < h.  For h = 0 it is the root.
    Returns {(interval, (p, h)) per window}.
    """
    n = len(lcp) - 1
    vals = np.array(lcp + [-1])             # a sentinel below every h at n + 1
    out = set()
    for p in range(1, n - g + 1, g):
        q = p + g
        h = int(vals[p + 1:q + 1].min())
        if h == 0:
            out.add(((1, n), (p, 0)))
            continue
        lo = int(np.flatnonzero(vals[1:p + 1] < h)[-1]) + 1
        hi = q + int(np.flatnonzero(vals[q + 1:] < h)[0])
        out.add(((lo, hi), (p, h)))
    return out


def build_all(docs, **kwargs):
    c = ingest(docs)
    s = build_suffix_array(c)
    w = WaveletTree(s.doc_ids, c.d)
    return c, s, w, build_sgst(c, s, **kwargs)


def test_build_memory_budget():
    # At most 100 bytes per symbol of traced allocation on top of the
    # inputs.  A structure of O(n log n) bytes, such as a sparse table of
    # range minima over the lcp array, exceeds it.
    rng = random.Random(241)
    c = ingest(["".join(rng.choice("acgt") for _ in range(1000)) for _ in range(50)])
    s = build_suffix_array(c)
    tracemalloc.start()
    try:
        build_sgst(c, s, g_prime=200, k_max=16)
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


def test_build_parameter_validation(worked_corpus, worked_suffixes):
    with pytest.raises(ValueError):
        build_sgst(worked_corpus, worked_suffixes, g_prime=0)
    with pytest.raises(ValueError):
        build_sgst(worked_corpus, worked_suffixes, k_max=3)
    with pytest.raises(ValueError):
        build_sgst(worked_corpus, worked_suffixes, variant="heavy")


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
    # Preorder: by sp ascending, then ep descending; rank 1 is the root.
    assert [(nd.sp, nd.ep) for nd in x.level_nodes(1)] == sorted(
        DENSE_NODES, key=lambda iv: (iv[0], -iv[1]))
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


def test_level_nodes_are_the_classes_at_or_above(dense_index):
    x = dense_index.sgst
    nodes = x.level_nodes(2)
    assert [(nd.sp, nd.ep) for nd in nodes] == [(1, 14), (1, 3), (5, 8), (9, 14), (11, 13)]
    assert nodes == [x.node_at(r) for r in range(1, x.node_count + 1) if x.cls_arr[r - 1] >= 2]


def test_levels_nest_downward():
    rng = random.Random(109)
    for _ in range(10):
        docs = random_docs(rng, max_docs=8, max_total=300)
        _, _, _, x = build_all(docs, g_prime=rng.choice([1, 2, 3]), k_max=8)
        sets = {k: {(nd.sp, nd.ep) for nd in x.level_nodes(k)} for k in x.levels()}
        for small, big in zip(x.levels(), x.levels()[1:]):
            assert sets[big] <= sets[small]


def test_random_marks_vs_oracle():
    # Small random corpora, then inputs whose windows share long prefixes:
    # word revisions, unary runs and identical copies, the last with more
    # documents than g', so windows fall inside the terminator slots 1..d.
    rng = random.Random(113)
    cases = [(random_docs(rng, max_docs=6, max_total=200), rng.choice([1, 2, 5]))
             for _ in range(12)]
    copy = "".join(rng.choice("abcdefghij") for _ in range(1100))
    cases += [(revisions_corpus(rng), 2), (revisions_corpus(rng, bases=2, revisions=9), 5),
              (["a" * 2500, "a" * 1200, "b", "ab" * 400], 3), ([copy] * 12, 5)]
    longest = 0
    terminated = False
    for docs, g_prime in cases:
        c, s, _, x = build_all(docs, g_prime=g_prime, k_max=4)
        sa = s.sa.tolist()
        lcp = kasai_lcp(c.text, sa)
        want_sets = {}
        for k in x.levels():
            marks = oracle_marks(lcp, k * g_prime)
            want_sets[k] = {iv for iv, _ in marks}
            for _, (p, h) in marks:
                longest = max(longest, h)
                terminated |= 0 in c.text[sa[p - 1] - 1:sa[p - 1] - 1 + h]
            assert {(nd.sp, nd.ep) for nd in x.level_nodes(k)} == want_sets[k]
        # Deepest marking level wins.
        for nd in x.level_nodes(1):
            want_cls = max(k for k in x.levels() if (nd.sp, nd.ep) in want_sets[k])
            assert nd.cls == want_cls
    assert longest >= 1000 and terminated


def test_containment_tree_is_laminar():
    # Every level lists its nodes in strict (sp, -ep) order, any two of
    # them nest or are disjoint, and level k is the nodes of class >= k.
    rng = random.Random(127)
    corpora = [(random_docs(rng, max_docs=8, max_total=250), rng.choice([1, 2]))
               for _ in range(10)]
    corpora += [(revisions_corpus(rng), 3)]
    for docs, g_prime in corpora:
        _, _, _, x = build_all(docs, g_prime=g_prime, k_max=8)
        for k in x.levels():
            nodes = x.level_nodes(k)
            assert nodes == [nd for nd in x.level_nodes(1) if nd.cls >= k]
            keys = [(nd.sp, -nd.ep) for nd in nodes]
            assert all(a < b for a, b in zip(keys, keys[1:]))
            for i, a in enumerate(nodes):
                for b in nodes[i + 1:]:
                    assert b.ep <= a.ep or a.ep < b.sp


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
    assert find_locus(x, 1, 6, 8) is None       # (5, 6) and (5, 8) start left of 6
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
    # On a pattern's interval the locus is the one maximal level node inside
    # it, or None when no level node lies inside.  On any other interval it
    # is None or some level node inside.
    rng = random.Random(131)
    corpora = [(random_docs(rng, max_docs=8, max_total=200), rng.choice([1, 2]))
               for _ in range(10)]
    corpora += [(revisions_corpus(rng), 2), (["ab" * 60, "ab" * 30 + "b"], 1)]
    found = missing = 0
    for docs, g_prime in corpora:
        c, s, _, x = build_all(docs, g_prime=g_prime, k_max=8)
        if x.is_empty:
            continue
        intervals = {(iv.sp, iv.ep) for iv in
                     (pattern_interval(s, c, p) for p in occurring_patterns(docs, 6))}
        for k in x.levels():
            nodes = [(nd.sp, nd.ep) for nd in x.level_nodes(k)]
            for sp, ep in intervals:
                inside = [iv for iv in nodes if sp <= iv[0] and iv[1] <= ep]
                maximal = [iv for iv in inside
                           if not any(o != iv and o[0] <= iv[0] and iv[1] <= o[1]
                                      for o in inside)]
                assert len(maximal) <= 1
                got = find_locus(x, k, sp, ep)
                assert (None if got is None else (got.sp, got.ep)) == \
                    (maximal[0] if maximal else None)
                found += got is not None
                missing += got is None
            for _ in range(40):
                sp = rng.randint(1, c.n)
                ep = rng.randint(sp, c.n)
                got = find_locus(x, k, sp, ep)
                if got is not None:
                    assert (got.sp, got.ep) in nodes
                    assert sp <= got.sp and got.ep <= ep
    assert found > 1000 and missing > 1000


def test_find_locus_makes_no_bit_vector_call(monkeypatch):
    # The locus is one binary search over a level's keys: no bit vector is
    # read at all.
    def refuse(*args):
        raise AssertionError("find_locus read a bit vector")

    for name in ("rank1", "rank1_pair", "_rank1", "select", "_select", "get"):
        monkeypatch.setattr(RankBitVector, name, refuse)
    rng = random.Random(233)
    c, _, _, x = build_all(revisions_corpus(rng), g_prime=4, k_max=8)
    found = 0
    for k in x.levels():
        nodes = [(nd.sp, nd.ep) for nd in x.level_nodes(k)]
        assert len(nodes) > 1
        targets = nodes + [(sp + 1, ep) for sp, ep in nodes if sp < ep]
        targets += [(sp, ep - 1) for sp, ep in nodes if sp < ep]
        for _ in range(300):
            sp = rng.randint(1, c.n)
            targets.append((sp, rng.randint(sp, min(c.n, sp + 40))))
        for sp, ep in targets:
            found += find_locus(x, k, sp, ep) is not None
    assert found > len(x.levels()) * 100


def test_light_and_xlight_agree():
    rng = random.Random(137)
    for _ in range(8):
        docs = random_docs(rng, max_docs=8, max_total=200)
        c = ingest(docs)
        s = build_suffix_array(c)
        w = WaveletTree(s.doc_ids, c.d)
        light = build_sgst(c, s, g_prime=1, k_max=4, variant="light")
        xlight = build_sgst(c, s, g_prime=1, k_max=4, variant="xlight")
        assert light.cand_freqs is not None and xlight.cand_freqs is None
        assert light.node_count == xlight.node_count
        for rank in range(1, light.node_count + 1):
            a, b = light.node_at(rank), xlight.node_at(rank)
            assert (a.sp, a.ep, a.cls) == (b.sp, b.ep, b.cls)
            assert candidates_of(light, a, w) == candidates_of(xlight, b, w)
