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
them and recounts through the wavelet tree on demand.  The build counts
them with one bincount over each node's slice of the document array.

The node spanning two sample slots is the locus of their suffixes' common
prefix, measured by galloping slice comparisons on the text; its interval
is found by the binary search queries use (suffixes.prefix_interval).  So
marking holds nothing beyond the text and the suffix array, and its time
grows with the level-1 windows' common-prefix lengths times log n.
"""

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .louds import LoudsTree
from .wavelet import WaveletTree
from .errors import KStarNotPrecomputedError
from .suffixes import prefix_interval

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
        """The powers of two up to k_max."""
        return [1 << i for i in range(self.k_max.bit_length())]

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


def build_sgst(corpus, s, g_prime=400, k_max=16, variant="light",
               sample_step=64) -> SGST:
    """Mark, classify and precompute candidates over the suffix array of corpus.

    `s` is the corpus's SuffixIndex; candidates are counted from its
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
    text = corpus.text
    sa = memoryview(s.sa)               # plain ints, not numpy scalars

    def spanning_node(p, q):
        a, b = sa[p - 1] - 1, sa[q - 1] - 1
        h = _common_prefix(text, a, b)
        iv = prefix_interval(sa, text, text[a:a + h])
        return h, (iv.sp, iv.ep)

    # A level-2k window is two adjacent level-k windows, and its node is
    # the shallower of theirs (equal depths name the same node): only
    # level 1 searches the suffix array.
    windows = [spanning_node(p, p + g_prime) for p in range(1, len(sa) - g_prime + 1, g_prime)]
    level_sets = {}
    classes = {}
    for k in x.levels():
        if k > 1:
            windows = [min(pair) for pair in zip(windows[::2], windows[1::2])]
        level_sets[k] = {iv for _, iv in windows}
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
        # Top documents by (-freq, doc): ids come out of flatnonzero
        # ascending, and the stable sort keeps equal counts in that order.
        freq = np.bincount(s.doc_ids[iv[0] - 1:iv[1]])
        docs = np.flatnonzero(freq)
        top = docs[np.argsort(-freq[docs], kind="stable")[:classes[iv]]]
        x.cand_docs.extend(top.tolist())
        if x.cand_freqs is not None:
            x.cand_freqs.extend(freq[top].tolist())
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
    # reads intervals straight from the side arrays and steps down by rank.
    sp_arr, ep_arr = x.sp_arr, x.ep_arr

    def interval_of(rank):
        r = rank if refs is None else refs[rank - 1]
        return sp_arr[r - 1], ep_arr[r - 1]

    def found(rank):
        return x.node_at(rank if refs is None else refs[rank - 1])

    rank = 1
    nsp, nep = interval_of(1)
    if sp <= nsp and nep <= ep:
        return found(1)
    if not (nsp <= sp and ep <= nep):
        return None
    while True:
        first, last = louds.child_span(rank)
        # Children are disjoint and sorted; find the first reaching sp.
        lo, hi = first, last
        while lo <= hi:
            mid = (lo + hi) // 2
            if interval_of(mid)[1] >= sp:
                hi = mid - 1
            else:
                lo = mid + 1
        rank = None
        for child in range(lo, last + 1):
            nsp, nep = interval_of(child)
            if nsp > ep:
                break
            if sp <= nsp and nep <= ep:
                return found(child)
            if nsp <= sp and ep <= nep:
                rank = child
                break
        if rank is None:
            return None


def candidates_of(x: SGST, node: MarkedNode, w: WaveletTree, k=None):
    """Precomputed (doc, freq) list of a marked node, most frequent first.

    Only the first k entries when k is given.  The light layout returns
    stored frequencies; xlight recounts each doc returned over the node's
    interval through the wavelet tree.
    """
    lo, hi = x.cand_off[node.rank - 1], x.cand_off[node.rank]
    if k is not None:
        hi = min(hi, lo + k)
    docs = x.cand_docs[lo:hi]
    if x.cand_freqs is not None:
        return list(zip(docs, x.cand_freqs[lo:hi]))
    return [(doc, w.doc_freq(doc, node.sp, node.ep)) for doc in docs]


def _common_prefix(text, a, b):
    """Length of the longest common prefix of text[a:] and text[b:], a != b.

    Gallops to a mismatching block, then halves it.  A block running past
    the end is cut short, and two distinct suffixes are cut to different
    lengths, so equal blocks always match in full.
    """
    h, step = 0, 1
    while text[a + h:a + h + step] == text[b + h:b + h + step]:
        h += step
        step <<= 1
    while step > 1:             # text[a:] and text[b:] differ before h + step
        step >>= 1
        if text[a + h:a + h + step] == text[b + h:b + h + step]:
            h += step
    return h


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
