"""Sampled suffix-tree node index with precomputed top-document candidates.

For each candidate level k in {1, 2, 4, ..., K_max} the suffix array is
sampled every g = k * g_prime slots (slots 1, g+1, 2g+1, ...) and the
suffix-tree ancestor spanning each consecutive sample pair is marked.  A
marked node is identified with its suffix-array interval.  The marked sets
nest as k doubles, so every node is stored once, with its interval, its
class c (the deepest level that marked it), and the c most frequent
documents of its interval; the "light" layout keeps their frequencies next
to the ids, "xlight" drops them and recounts them on demand, from a count
of the node's slice of the document array or through the wavelet tree
(candidates_of).  The build counts them in one preorder pass over the
marked nodes, which reads each slot of the document array once
(count_candidates) and counts and ranks a node's compact counts as a
query counts and ranks its interval (suffixes.count, suffixes.ranked).

The stored arrays are the whole sampled tree.  Nodes are kept in preorder,
sorted by (sp ascending, ep descending); intervals nest or are disjoint,
so this order fixes the tree's shape, and level k is exactly the nodes of
class >= k.  Each level also keeps one int64 key per node that orders as
(sp, -ep) does, so find_locus is one binary search over a level's keys,
and the key it finds gives back the node's sp and ep.
Every array is kept once, as a read-only int64 numpy array, and read
through a memoryview, whose items are plain ints.

The node spanning two sample slots is the locus of their suffixes' common
prefix, measured by galloping slice comparisons on the text; its interval
is found by the search queries use (SuffixIndex.interval).  So marking
holds nothing beyond the text and the suffix index, and its time grows
with the level-1 windows' common-prefix lengths times log n.
"""

from bisect import bisect_left
from typing import NamedTuple

import numpy as np

from .suffixes import SHORT_SLICE, count, ranked, top_of_few
from .wavelet import WaveletTree
from .errors import InvalidParameterError, KStarNotPrecomputedError, integer, positive

VARIANTS = ("light", "xlight")
SPARSE = 8      # see count_candidates


class MarkedNode(NamedTuple):
    """A marked suffix-tree node: its 1-based preorder rank, its interval
    [sp, ep] and its class.  A named tuple: immutable, equal to and hashed
    as the tuple (rank, sp, ep, cls)."""

    rank: int
    sp: int
    ep: int
    cls: int


class SGST:
    """Built candidate structure; see build_sgst.

    sp_arr, ep_arr and cls_arr hold each node's interval and class,
    indexed by preorder rank - 1; cand_off (node_count + 1 offsets) cuts
    cand_docs and, in the light layout, cand_freqs (xlight: None) into the
    nodes' candidate lists.  Each is kept once (see _frozen): a write to
    it raises, and its items are plain ints.
    """

    def __init__(self, g_prime, k_max, variant, sp_arr, ep_arr, cls_arr,
                 cand_off, cand_docs, cand_freqs):
        self.g_prime, self.k_max, self.variant = g_prime, k_max, variant
        self.sp_arr, self.ep_arr, self.cls_arr, self.cand_off, self.cand_docs = map(
            _frozen, (sp_arr, ep_arr, cls_arr, cand_off, cand_docs))
        self.cand_freqs = None if cand_freqs is None else _frozen(cand_freqs)
        # Level k -> (the _key of each of its nodes, their preorder ranks),
        # those of class >= k; preorder keeps the keys ascending.
        keys, cls = _key(self.sp_arr.obj, self.ep_arr.obj), self.cls_arr.obj
        self.by_level = {k: (_frozen(keys[cls >= k]), _frozen(np.flatnonzero(cls >= k) + 1))
                         for k in self.levels()}

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


def _frozen(values):
    """values as a read-only int64 array (the view's .obj), read through a
    memoryview, whose items are plain ints."""
    arr = np.array(values, dtype=np.int64)
    arr.flags.writeable = False
    return memoryview(arr)


_EP_MASK = (1 << 31) - 1


def _key(sp, ep):
    """One int (or int64 array) per interval that orders intervals as
    (sp, -ep) does, since ep <= corpus.MAX_SYMBOLS < 2**31: sp is key >> 31
    and ep is _EP_MASK - (key & _EP_MASK)."""
    return sp << 31 | (_EP_MASK - ep)


def build_sgst(corpus, s, g_prime=400, k_max=16, variant="light") -> SGST:
    """Mark, classify and precompute candidates over the suffix array of corpus.

    `s` is the corpus's SuffixIndex.  mark_nodes finds the nodes and their
    classes; count_candidates counts their top documents from s's document
    array in one preorder pass.  Degenerate sampling (fewer than two
    sampled slots at some level) simply leaves that level empty.  A query
    that no marked node serves counts its interval with
    SuffixIndex.top_documents, which ranks exactly as the pass does.
    """
    g_prime, k_max = positive("g_prime", g_prime), integer("k_max", k_max)
    if k_max < 1 or k_max & (k_max - 1):
        raise InvalidParameterError(f"k_max = {k_max}; it must be a power of two")
    if variant not in VARIANTS:
        raise InvalidParameterError(f"variant {variant!r}; it must be one of {VARIANTS}")
    sp, ep, cls = mark_nodes(corpus, s, g_prime, k_max)
    cand_off, docs, freqs = count_candidates(s.doc_ids, corpus.d, sp, ep, cls)
    return SGST(g_prime, k_max, variant, sp, ep, cls, cand_off, docs,
                freqs if variant == "light" else None)


def mark_nodes(corpus, s, g_prime, k_max):
    """The marked nodes' sp, ep and class lists, in preorder."""
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

    order = sorted(classes, key=lambda iv: _key(*iv))     # preorder
    return [iv[0] for iv in order], [iv[1] for iv in order], [classes[iv] for iv in order]


def count_candidates(doc_ids, d, sp, ep, cls):
    """Each node's top cls documents of doc_ids[sp - 1:ep], ranked by
    (-freq, doc) as SuffixIndex.top_documents ranks them: the m + 1
    offsets that cut the lists, then their docs and freqs, in preorder.

    The nodes come in preorder and nest or are disjoint, so one pass left
    to right keeps a stack of the open ancestors, each with a cursor at
    its first slot not yet counted and its counts so far.  Opening a node
    counts the slots its parent left uncovered before it; closing one
    counts its own last uncovered slots, ranks its top documents and adds
    its counts into its parent's.  So every slot is read once.

    A node counts into a vector over the d + 1 ids if it has more than
    d / SPARSE slots and the open vectors stay within n counts, and ranks
    it by _ranked when it closes.  Otherwise it keeps parts, slices of
    doc_ids and its closed children's (ids, counts), sums them when it
    closes (_summed, through suffixes.count) and ranks the sum by
    suffixes.ranked, as top_documents ranks its count.  A child's
    counts hold at most min(slots, d + 1) ids, so no node costs more than
    about SPARSE times its slots, and the open counts never exceed 2 n,
    whatever the depth or d.  A vector's parent is a vector: it is larger,
    and was opened with no more vectors open.  A node of at most
    SHORT_SLICE slots is counted in Python with all its descendants
    (top_of_few), from one read of its slice, which its parent then counts
    as uncovered slots: on slices that short numpy's fixed cost per call
    is most of the time.
    """
    m, n = len(sp), len(doc_ids)
    tops = [None] * m
    # Open ancestors, innermost last: [node, first slot not counted, counts],
    # the counts a vector over the ids or a list of parts: (ids, None) for
    # slots counted once, (ids, counts) for a closed child.
    stack = []
    vectors = 0

    def add(into, ids, counts=None):        # counts None: each of ids once
        if type(into) is list:
            into.append((ids, counts))
        elif counts is None:
            into += np.bincount(ids, minlength=d + 1)
        else:
            into[ids] += counts

    i = 0
    while True:
        lo = sp[i] - 1 if i < m else n
        while stack and ep[stack[-1][0]] <= lo:     # the top ends before node i
            j, at, counts = stack.pop()
            if at < ep[j]:
                add(counts, doc_ids[at:ep[j]])
            if type(counts) is list:
                ids, counts = _summed(counts)
                tops[j] = ranked(ids, counts, cls[j])
                if stack:
                    add(stack[-1][2], ids, counts)
            else:
                vectors -= 1
                top = _ranked(counts, cls[j])
                tops[j] = list(zip(top.tolist(), counts[top].tolist()))
                if stack:
                    stack[-1][2] += counts      # a vector's parent is a vector
            if stack:
                stack[-1][1] = ep[j]
        if i == m:
            break
        if stack and stack[-1][1] < lo:
            add(stack[-1][2], doc_ids[stack[-1][1]:lo])
        hi = ep[i]
        if hi - lo > SHORT_SLICE:
            dense = (hi - lo) * SPARSE > d and (vectors + 1) * (d + 1) <= n
            vectors += dense
            stack.append([i, lo, np.zeros(d + 1, np.int64) if dense else []])
            i += 1
            continue
        few = doc_ids[lo:hi]
        slots = few.tolist()
        while i < m and sp[i] <= hi:                # node i and its descendants
            tops[i] = top_of_few(slots[sp[i] - 1 - lo:ep[i] - lo], cls[i])
            i += 1
        if stack:
            add(stack[-1][2], few)
            stack[-1][1] = hi
    pairs = [pair for top in tops for pair in top]
    return (np.cumsum([0, *map(len, tops)]), [doc for doc, _ in pairs],
            [f for _, f in pairs])


def _summed(parts):
    """The distinct ids of parts, ascending, and their summed counts: a
    part (ids, None) counts each of its ids once, (ids, counts) each id
    counts times.  The parts are joined and counted by suffixes.count,
    weighted by the children's counts when there are any."""
    ids = np.concatenate([part for part, _ in parts])
    weights = None
    if any(counts is not None for _, counts in parts):
        weights = np.concatenate([np.ones(len(part)) if counts is None else counts
                                  for part, counts in parts])
    return count(ids, weights)


def _ranked(counts, c):
    """The positions of the c largest counts of a dense vector, one count
    per id 0..d, most of them zero, ranked by (-count, position).

    Only the pass's vectors are ranked here; compact counts, which hold no
    zeros and are far shorter, are ranked by suffixes.ranked.  Every
    position counted at least as often as the c-th largest count, and at
    least once, taken ascending and stably sorted by -count, ranks ties
    lowest first: the partition skips the sort of the zeros."""
    if c == 1:
        return counts.argmax(keepdims=True)     # the first of the most
    floor = np.partition(counts, -c)[-c] if c < len(counts) else 1
    top = (counts >= max(floor, 1)).nonzero()[0]
    return top[(-counts[top]).argsort(kind="stable")[:c]]


def find_locus(x: SGST, k_star, sp, ep):
    """Largest level-k_star marked node inside [sp, ep], or None.

    The first level node at or after (sp, -ep) in preorder (found by its
    _key) starts at sp or later and, of the nodes starting at sp, is the
    widest ending by ep; it lies inside [sp, ep] exactly when it ends by
    ep.  A pattern's interval and the marked nodes nest or are disjoint,
    and each level holds the lowest common ancestor of any two of its
    nodes, so at most one maximal level node lies inside a pattern's
    interval, and this is it.  For any other interval it returns None or
    some level node inside.  The node's sp and ep are decoded from the key
    the search found; only its rank and class are read from the arrays.
    """
    try:
        keys, ranks = x.by_level[k_star]
    except KeyError:
        raise KStarNotPrecomputedError(
            f"level {k_star} not precomputed (levels are powers of two up to {x.k_max})"
        ) from None
    i = bisect_left(keys, _key(sp, ep))
    if i == len(keys):
        return None
    key = keys[i]
    node_ep = _EP_MASK - (key & _EP_MASK)
    if node_ep > ep:
        return None
    rank = ranks[i]
    return MarkedNode(rank, key >> 31, node_ep, x.cls_arr[rank - 1])


def candidates_of(x: SGST, node: MarkedNode, w: WaveletTree, k=None, freqs=None):
    """Precomputed (doc, freq) list of a marked node, ranked by (-freq, doc).

    Only the first k entries when k is given, an integer >= 1
    (InvalidParameterError otherwise).  The light layout returns
    its stored pairs, which the build ranked and the loader checks are
    ranked.  xlight stores no frequencies to check: it recounts the docs
    returned over the node's interval, then ranks them.  freqs, a function
    from a list of docs to their frequencies there (engine.frequencies),
    reads them all at once; without it, each is counted through the
    wavelet tree by w.doc_freq.
    """
    lo, hi = x.cand_off[node.rank - 1], x.cand_off[node.rank]
    if k is not None:
        if k.__class__ is not int or k < 1:
            k = positive("k", k)
        hi = min(hi, lo + k)
    docs = x.cand_docs[lo:hi]
    if x.cand_freqs is not None:
        return list(zip(docs, x.cand_freqs[lo:hi]))
    docs = docs.tolist()
    counted = freqs(docs) if freqs else [w.doc_freq(doc, node.sp, node.ep) for doc in docs]
    return sorted(zip(docs, counted), key=lambda p: (-p[1], p[0]))


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
