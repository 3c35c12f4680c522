"""Sampled suffix-tree node index with precomputed top-document candidates.

For each candidate level k in {1, 2, 4, ..., K_max} the suffix array is
sampled every g = k * g_prime slots (slots 1, g+1, 2g+1, ...) and the
suffix-tree ancestor spanning each consecutive sample pair is marked.  A
marked node is identified with its suffix-array interval; the marked sets
nest as k doubles, so a single containment tree `tau` holds every marked
node while the sparser levels keep only LOUDS skeletons of references into
it.  Each node stores its interval, its deepest level c (the largest k
that marked it), and the c most frequent documents of its interval; the
"light" layout keeps their frequencies next to the ids, "xlight" drops
them and recounts through the wavelet tree on demand.

Ancestor intervals are computed without materializing a suffix tree: the
node spanning sample slots p < q is the lcp-interval of h = min(lcp[p+1..q]),
bounded by the nearest lcp values below h on either side.  One stack pass
each way over the lcp array gives every slot those neighbours (Abouelhoda,
Kurtz and Ohlebusch, "Replacing suffix trees with enhanced suffix arrays",
2004), so marking needs O(n) memory.
"""

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .louds import LoudsTree
from .wavelet import WaveletTree
from .errors import KStarNotPrecomputedError

VARIANTS = ("light", "xlight")


@dataclass(frozen=True)
class MarkedNode:
    """A marked suffix-tree node: dense index in tau plus its interval."""

    rank: int
    sp: int
    ep: int
    cls: int


class SGST:
    """Built candidate structure; see build_sgst."""

    def __init__(self, g_prime, k_max, variant, tau, sp_arr, ep_arr, cls_arr,
                 cand_off, cand_docs, cand_freqs, skeletons):
        self.g_prime = g_prime
        self.k_max = k_max
        self.variant = variant
        self.tau = tau                  # LoudsTree over all marked nodes, or None
        self.sp_arr = sp_arr            # indexed by dense rank - 1
        self.ep_arr = ep_arr
        self.cls_arr = cls_arr
        self.cand_off = cand_off        # len node_count + 1, offsets into cand_docs
        self.cand_docs = cand_docs
        self.cand_freqs = cand_freqs    # None for the xlight layout
        self.skeletons = skeletons      # level k >= 2 -> (LoudsTree, refs into tau)

    @property
    def node_count(self):
        return 0 if self.tau is None else self.tau.node_count

    @property
    def is_empty(self):
        return self.tau is None

    def levels(self):
        out = []
        k = 1
        while k <= self.k_max:
            out.append(k)
            k <<= 1
        return out

    def node_at(self, rank):
        return MarkedNode(rank, self.sp_arr[rank - 1], self.ep_arr[rank - 1],
                          self.cls_arr[rank - 1])

    def level_nodes(self, k):
        """Marked nodes of level k, in level order of its skeleton."""
        if k == 1:
            return [self.node_at(r) for r in range(1, self.node_count + 1)]
        entry = self.skeletons.get(k)
        if entry is None:
            return []
        _, refs = entry
        return [self.node_at(r) for r in refs]


def build_sgst(corpus, s, w: WaveletTree, g_prime=400, k_max=16,
               variant="light", sample_step=64) -> SGST:
    """Mark, classify and precompute candidates over the suffix array of corpus.

    `s` is the corpus's SuffixIndex and `w` the wavelet tree over its
    document array.  Degenerate sampling (fewer than two sampled slots at
    some level) simply leaves that level empty; queries fall back to a full
    greedy traversal when no marked ancestor serves them.
    """
    if g_prime < 1:
        raise ValueError("g_prime must be at least 1")
    if k_max < 1 or k_max & (k_max - 1):
        raise ValueError("k_max must be a power of two")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")

    x = SGST(g_prime, k_max, variant, None, [], [], [], [0], [],
             [] if variant == "light" else None, {})
    n = len(s.sa)
    lcp = _lcp_array(corpus.text, s.sa)
    prev, nxt = _smaller_neighbours(lcp, n)

    level_sets = {}
    classes = {}
    for k in x.levels():
        g = k * g_prime
        level_sets[k] = {_ancestor_interval(lcp, prev, nxt, p, p + g)
                         for p in range(1, n - g + 1, g)}
        for iv in level_sets[k]:
            classes[iv] = k  # levels ascend, so the last write is the max
    if not classes:
        return x

    x.tau, order = _containment_tree(classes, sample_step)
    tau_rank = {iv: i + 1 for i, iv in enumerate(order)}
    x.sp_arr = [iv[0] for iv in order]
    x.ep_arr = [iv[1] for iv in order]
    x.cls_arr = [classes[iv] for iv in order]
    for iv in order:
        for doc, freq in w.greedy_topk(iv[0], iv[1], classes[iv]):
            x.cand_docs.append(doc)
            if x.cand_freqs is not None:
                x.cand_freqs.append(freq)
        x.cand_off.append(len(x.cand_docs))

    for k in x.levels()[1:]:
        if level_sets[k]:
            louds, sub_order = _containment_tree(level_sets[k], sample_step)
            x.skeletons[k] = (louds, tuple(tau_rank[iv] for iv in sub_order))
    return x


def find_locus(x: SGST, k_star, sp, ep):
    """Deepest-available marked node whose interval fits inside [sp, ep].

    Descends level k_star from the root through nodes containing [sp, ep]
    and returns the first node contained in it, or None when the descent
    dead-ends (no marked ancestor small enough), the level is empty, or
    the root does not contain [sp, ep].
    """
    if k_star < 1 or k_star & (k_star - 1) or k_star > x.k_max:
        raise KStarNotPrecomputedError(
            f"level {k_star} not precomputed (levels are powers of two up to {x.k_max})")
    if x.is_empty:
        return None
    if k_star == 1:
        louds, refs = x.tau, None
    else:
        entry = x.skeletons.get(k_star)
        if entry is None:
            return None
        louds, refs = entry

    # Children of a node occupy consecutive dense ranks, so the descent
    # reads intervals straight from the side arrays and only materializes
    # a handle when actually stepping down.
    sp_arr, ep_arr = x.sp_arr, x.ep_arr
    bits = louds.bits

    def interval_of(rank):
        r = rank if refs is None else refs[rank - 1]
        return sp_arr[r - 1], ep_arr[r - 1]

    def found(rank):
        return x.node_at(rank if refs is None else refs[rank - 1])

    v = louds.root
    nsp, nep = interval_of(1)
    if sp <= nsp and nep <= ep:
        return found(1)
    if not (nsp <= sp and ep <= nep):
        return None
    while True:
        cc = louds.child_count(v)
        if cc == 0:
            return None
        base = bits.rank1(v - 1)          # children are ranks base+1..base+cc
        # Children are disjoint and sorted; find the first reaching sp.
        lo, hi, first = 1, cc, None
        while lo <= hi:
            mid = (lo + hi) // 2
            if interval_of(base + mid)[1] >= sp:
                first = mid
                hi = mid - 1
            else:
                lo = mid + 1
        if first is None:
            return None
        t = first
        descend = None
        while t <= cc:
            nsp, nep = interval_of(base + t)
            if nsp > ep:
                break
            if sp <= nsp and nep <= ep:
                return found(base + t)
            if nsp <= sp and ep <= nep:
                descend = base + t
                break
            t += 1
        if descend is None:
            return None
        v = louds.handle_of_rank(descend)


def candidates_of(x: SGST, node: MarkedNode, w: WaveletTree):
    """Precomputed (doc, freq) list of a marked node, most frequent first.

    The light layout returns stored frequencies; xlight recounts each doc
    over the node's interval through the wavelet tree.
    """
    lo, hi = x.cand_off[node.rank - 1], x.cand_off[node.rank]
    docs = x.cand_docs[lo:hi]
    if x.cand_freqs is not None:
        return list(zip(docs, x.cand_freqs[lo:hi]))
    return [(doc, w.doc_freq(doc, node.sp, node.ep)) for doc in docs]


def _lcp_array(text, sa):
    """lcp[i] = longest common prefix of the suffixes at slots i-1 and i.

    1-based; entries 2..n are meaningful.  Kasai's construction, linear
    total work.
    """
    n = len(sa)
    lcp = np.zeros(n + 1, dtype=np.int64)
    if n < 2:
        return lcp
    pos = (np.asarray(sa, dtype=np.int64) - 1).tolist()  # 0-based starts
    inv = [0] * n
    for i, p in enumerate(pos):
        inv[p] = i
    h = 0
    for p in range(n):
        i = inv[p]
        if i > 0:
            q = pos[i - 1]
            while p + h < n and q + h < n and text[p + h] == text[q + h]:
                h += 1
            lcp[i + 1] = h  # slot i (0-based) vs predecessor -> 1-based i+1
            if h:
                h -= 1
        else:
            h = 0
    return lcp


def _smaller_neighbours(lcp, n):
    """Nearest slots on each side whose lcp value is strictly smaller.

    Returns lists prev and nxt over slots 1..n: prev[i] is the largest
    t < i with lcp[t] < lcp[i], or 0 if there is none, and nxt[i] the
    smallest t > i with lcp[t] < lcp[i], or n + 1.  Each pass pushes every
    slot once and pops the entries at or above the current value.
    """
    vals = lcp.tolist()
    vals[0] = -1            # sentinels below every lcp value, at 0 and n + 1
    vals.append(-1)
    prev = [0] * (n + 2)
    stack = [0]
    for i in range(1, n + 1):
        v = vals[i]
        while vals[stack[-1]] >= v:
            stack.pop()
        prev[i] = stack[-1]
        stack.append(i)
    nxt = [n + 1] * (n + 2)
    stack = [n + 1]
    for i in range(n, 0, -1):
        v = vals[i]
        while vals[stack[-1]] >= v:
            stack.pop()
        nxt[i] = stack[-1]
        stack.append(i)
    return prev, nxt


def _ancestor_interval(lcp, prev, nxt, p, q):
    """Suffix-array interval of the lowest suffix-tree node spanning slots p..q.

    That node is the lcp-interval of h = min(lcp[p+1..q]).  At m, the
    leftmost slot of p+1..q holding h, the lcp values stay above h between
    p+1 and m and at least h between m and q, so the nearest smaller values
    around m are the interval's boundaries.  For h = 0 there are none, and
    the node is the root (1, n).
    """
    m = p + 1 + int(np.argmin(lcp[p + 1:q + 1]))
    return (max(prev[m], 1), nxt[m] - 1)


def _containment_tree(intervals, sample_step):
    """LOUDS-encoded containment tree of a laminar interval family.

    Returns (tree, intervals in level order), as LoudsTree.encode does.
    Children are listed left to right.
    """
    children = defaultdict(list)
    stack = []
    roots = []
    for iv in sorted(intervals, key=lambda iv: (iv[0], -iv[1])):
        while stack and not (stack[-1][0] <= iv[0] and iv[1] <= stack[-1][1]):
            stack.pop()
        if stack:
            children[stack[-1]].append(iv)
        else:
            roots.append(iv)
        stack.append(iv)
    if len(roots) != 1:
        raise AssertionError(f"marked intervals split into {len(roots)} unrelated groups")
    return LoudsTree.encode(roots[0], children=lambda iv: children.get(iv, ()),
                            sample_step=sample_step)
