"""Sampled suffix-tree node index with precomputed top-document candidates.

For each candidate level k in {1, 2, 4, ..., K_max} the suffix array is
sampled every g = k * g_prime slots (slots 1, g+1, 2g+1, ...) and the
suffix-tree ancestor spanning each consecutive sample pair is marked.  A
marked node is identified with its suffix-array interval.  The marked sets
nest as k doubles, so every node is stored once, with its interval, its
class c (the deepest level that marked it), and the c most frequent
documents of its interval; the "light" layout keeps their frequencies next
to the ids, "xlight" drops them and recounts through the wavelet tree on
demand.  The build counts them with one bincount over each node's slice of
the document array.

The stored arrays are the whole sampled tree.  Nodes are kept in preorder,
sorted by (sp ascending, ep descending); intervals nest or are disjoint,
so this order fixes the tree's shape, and level k is exactly the nodes of
class >= k.  find_locus is one binary search over a level's (sp, -ep) keys.

The node spanning two sample slots is the locus of their suffixes' common
prefix, measured by galloping slice comparisons on the text; its interval
is found by the search queries use (SuffixIndex.interval).  So marking
holds nothing beyond the text and the suffix index, and its time grows
with the level-1 windows' common-prefix lengths times log n.
"""

from bisect import bisect_left
from dataclasses import dataclass

from .wavelet import WaveletTree
from .errors import KStarNotPrecomputedError

VARIANTS = ("light", "xlight")


@dataclass(frozen=True)
class MarkedNode:
    """A marked suffix-tree node: its 1-based preorder rank plus its interval."""

    rank: int
    sp: int
    ep: int
    cls: int


class SGST:
    """Built candidate structure; see build_sgst."""

    def __init__(self, g_prime, k_max, variant, sp_arr, ep_arr, cls_arr,
                 cand_off, cand_docs, cand_freqs):
        self.g_prime = g_prime
        self.k_max = k_max
        self.variant = variant
        self.sp_arr = sp_arr            # indexed by preorder rank - 1
        self.ep_arr = ep_arr
        self.cls_arr = cls_arr
        self.cand_off = cand_off        # len node_count + 1, offsets into cand_docs
        self.cand_docs = cand_docs
        self.cand_freqs = cand_freqs    # None for the xlight layout
        # Level k -> (sorted (sp, -ep) keys, preorder ranks) of its nodes,
        # those of class >= k; preorder keeps them sorted.
        self.by_level = {}
        for k in self.levels():
            ranks = [r for r, c in enumerate(cls_arr, 1) if c >= k]
            self.by_level[k] = ([(sp_arr[r - 1], -ep_arr[r - 1]) for r in ranks], ranks)

    @property
    def node_count(self):
        return len(self.sp_arr)

    def levels(self):
        """The powers of two up to k_max."""
        return [1 << i for i in range(self.k_max.bit_length())]

    def node_at(self, rank):
        return MarkedNode(rank, self.sp_arr[rank - 1], self.ep_arr[rank - 1],
                          self.cls_arr[rank - 1])

    def level_nodes(self, k):
        """Marked nodes of level k, in preorder."""
        return [self.node_at(r) for r in self.by_level.get(k, ((), ()))[1]]


def build_sgst(corpus, s, g_prime=400, k_max=16, variant="light") -> SGST:
    """Mark, classify and precompute candidates over the suffix array of corpus.

    `s` is the corpus's SuffixIndex; candidates are counted from its
    document array by SuffixIndex.top_documents.  Degenerate sampling
    (fewer than two sampled slots at some level) simply leaves that level
    empty.  A query that no marked node serves counts its interval with
    the same top_documents.
    """
    if g_prime < 1:
        raise ValueError("g_prime must be at least 1")
    if k_max < 1 or k_max & (k_max - 1):
        raise ValueError("k_max must be a power of two")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")

    text = corpus.text
    sa = memoryview(s.sa)               # plain ints, not numpy scalars

    def spanning_node(p, q):
        a, b = sa[p - 1] - 1, sa[q - 1] - 1
        h = _common_prefix(text, a, b)
        iv = s.interval(text, text[a:a + h])
        return h, (iv.sp, iv.ep)

    # A level-2k window is two adjacent level-k windows, and its node is
    # the shallower of theirs (equal depths name the same node): only
    # level 1 searches the suffix array.
    windows = [spanning_node(p, p + g_prime) for p in range(1, len(sa) - g_prime + 1, g_prime)]
    classes = {}
    for i in range(k_max.bit_length()):
        if i:
            windows = [min(pair) for pair in zip(windows[::2], windows[1::2])]
        for _, iv in windows:
            classes[iv] = 1 << i  # levels ascend, so the last write is the max

    order = sorted(classes, key=lambda iv: (iv[0], -iv[1]))     # preorder
    cand_off, cand_docs = [0], []
    cand_freqs = [] if variant == "light" else None
    for iv in order:
        top = s.top_documents(iv[0], iv[1], classes[iv])
        cand_docs.extend(doc for doc, _ in top)
        if cand_freqs is not None:
            cand_freqs.extend(freq for _, freq in top)
        cand_off.append(len(cand_docs))
    return SGST(g_prime, k_max, variant, [iv[0] for iv in order], [iv[1] for iv in order],
                [classes[iv] for iv in order], cand_off, cand_docs, cand_freqs)


def find_locus(x: SGST, k_star, sp, ep):
    """Largest level-k_star marked node inside [sp, ep], or None.

    The first level node at or after (sp, -ep) in preorder starts at sp or
    later and, of the nodes starting at sp, is the widest ending by ep; it
    lies inside [sp, ep] exactly when it ends by ep.  A pattern's interval
    and the marked nodes nest or are disjoint, and each level holds the
    lowest common ancestor of any two of its nodes, so at most one maximal
    level node lies inside a pattern's interval, and this is it.  For any
    other interval it returns None or some level node inside.
    """
    if k_star < 1 or k_star & (k_star - 1) or k_star > x.k_max:
        raise KStarNotPrecomputedError(
            f"level {k_star} not precomputed (levels are powers of two up to {x.k_max})")
    keys, ranks = x.by_level[k_star]
    i = bisect_left(keys, (sp, -ep))
    if i == len(keys) or x.ep_arr[ranks[i] - 1] > ep:
        return None
    return x.node_at(ranks[i])


def candidates_of(x: SGST, node: MarkedNode, w: WaveletTree, k=None):
    """Precomputed (doc, freq) list of a marked node, ranked by (-freq, doc).

    Only the first k entries when k is given.  The light layout returns
    its stored pairs, which the build ranked and the loader checks are
    ranked.  xlight stores no frequencies to check: it recounts each doc
    returned over the node's interval through the wavelet tree, then ranks
    them.
    """
    lo, hi = x.cand_off[node.rank - 1], x.cand_off[node.rank]
    if k is not None:
        hi = min(hi, lo + k)
    docs = x.cand_docs[lo:hi]
    if x.cand_freqs is not None:
        return list(zip(docs, x.cand_freqs[lo:hi]))
    pairs = [(doc, w.doc_freq(doc, node.sp, node.ep)) for doc in docs]
    return sorted(pairs, key=lambda p: (-p[1], p[0]))


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
