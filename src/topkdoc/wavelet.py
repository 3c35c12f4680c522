"""Wavelet tree over the document array, stored level by level, plus
frequency-ordered traversals.

The tree splits the document id range [1, d] in halves: a node covering
[lo, hi] has one bit per element of its subsequence, 0 routing ids <= mid
to the left child and 1 routing the rest right, with mid = (lo + hi) // 2.
Nodes of one depth differ in width by at most one id, so with height
h = ceil(log2 d) every node above depth h - 1 is internal, depth h - 1
holds the 2**(h - 1) nodes of one or two ids, and depth h only leaves.

The bits are stored pointerless (Claude and Navarro, "Practical rank/select
queries over arbitrary sequences", SPIRE 2008): one RankBitVector per level
t = 0..h - 1, the concatenation of the bits of the level's internal nodes,
left to right.  No node stores a length or a pointer.  With cum the prefix
sums of the document lengths (each document's count of elements), the node
over ids lo..hi holds cum[hi] - cum[lo - 1] bits, cum[hi] - cum[mid] of
them ones, so each node's offset in its level and the ones before that
offset are prefix sums over the level's nodes, computed once per level in
numpy (_layout).  Every level above the last holds n bits, the last only
those of its two-id nodes: at most h bits per element in all.

Nodes are handles (_Node), each made the first time its parent is asked for
it and kept there, so a node's identity is stable.  Building, loading and
querying make only the handles that a walk reaches.

The build sends the document array down one level at a time: a level's
bits are one table lookup over its sequence, and the next level's sequence
is each node's stable partition, from one np.compress of the zeros and one
of the ones, put in place through a mask that runs in one block per child.
document_order sends the positions 0..n - 1 down the same way, reading the
stored bits.  Neither makes a numpy call per node.

An interval [l, r] of a node's sequence projects into its children through
two ranks on its level, at offset + l - 1 and offset + r, less the ones
before the node; with a and b the node's ones before l and through r:

    left  child: [l - a, r - b]
    right child: [a + 1, b]

greedy_topk, doc_freq and the restricted walks all project this way, each
with one _rank1_pair call per node and interval; they check their
arguments once, on entry.

restricted_greedy / restricted_dfs take an outer interval [l, r] and a
covered core [core_sp, core_ep] inside it, the interval of a sampled node
whose documents are already counted.  They project both intervals down the
tree, at most two rank pairs per node, and descend only where the outer
projection is longer than the core's, that is where positions outside the
core remain.  Each reachable leaf is reported with its frequency in the
whole outer interval, and a node is pruned once its outer interval cannot
beat the caller's current k-th best frequency.

greedy_topk, the k most frequent documents of one interval, is the same
walk with an empty core and no threshold: nodes pop from a priority queue
ordered by interval length, so leaves pop in non-increasing frequency
order and the first k are the answer.  No build, load or query path calls
greedy_topk or access; both stay as the references the tests check the
index against.
"""

import heapq
from itertools import islice

import numpy as np

from .bitrank import RankBitVector, ranks1
from .errors import (InconsistentIntervalsError, OutOfRangeError, ValueOutOfRangeError,
                     positive)


class _Node:
    """Handle on the node over ids lo..hi, split at mid, at depth `level`.

    An internal node's bits are positions offset + 1 .. offset + size of
    its level's vector `bits`, which holds `before` ones ahead of them; a
    leaf has bits None and children None.  left and right are made on
    first use and then kept.  The class defines no __getattr__: one would
    slow every attribute read of the walks, not only the first of a child."""

    __slots__ = ("lo", "hi", "mid", "level", "offset", "size", "before", "bits",
                 "_left", "_right", "_layout", "_index")

    def __init__(self, layout, level, index, lo, hi):
        # layout: the tree's (levels, offsets, before), not the tree itself,
        # so that no reference cycle keeps a dropped tree's bits alive.
        self.lo, self.hi, self.mid = lo, hi, (lo + hi) // 2
        self.level = level
        self._layout, self._index = layout, index     # index: place among the level's nodes
        self.offset = self.size = self.before = self.bits = self._left = self._right = None
        if lo < hi:
            levels, offsets, before = layout
            self.offset = int(offsets[level][index])
            self.size = int(offsets[level][index + 1]) - self.offset
            self.before = int(before[level][index])
            self.bits = levels[level]
            self._left = self._right = _UNMADE

    @property
    def is_leaf(self):
        return self.lo == self.hi

    @property
    def left(self):
        child = self._left
        if child is _UNMADE:
            child = self._left = _Node(self._layout, self.level + 1, 2 * self._index,
                                       self.lo, self.mid)
        return child

    @property
    def right(self):
        child = self._right
        if child is _UNMADE:
            child = self._right = _Node(self._layout, self.level + 1, 2 * self._index + 1,
                                        self.mid + 1, self.hi)
        return child


_UNMADE = object()      # a child handle not yet made


def _children(lo, hi):
    """The id ranges (lo, hi) of the children of the nodes over lo..hi, two
    per node, left child first, as int64 arrays."""
    mid = (lo + hi) // 2
    return np.stack((lo, mid + 1), axis=1).ravel(), np.stack((mid, hi), axis=1).ravel()


def _shape(d):
    """(lo, hi) per level, top first: the id ranges of the level's 2**t
    nodes, left to right, as int64 arrays."""
    lo, hi = np.array([1]), np.array([d])
    for _ in range((d - 1).bit_length()):
        yield lo, hi
        lo, hi = _children(lo, hi)


def _node_bits(cum, lo, hi):
    """The bits stored by each node over ids lo..hi, none for a leaf, with
    cum the prefix sums of the document lengths."""
    return np.where(lo < hi, cum[hi] - cum[lo - 1], 0)


def level_sizes(lengths):
    """The bits stored at each level, top first, by the tree over the
    document array of documents holding lengths[j - 1] slots each."""
    cum = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
    return [int(_node_bits(cum, lo, hi).sum()) for lo, hi in _shape(len(lengths))]


def _split(node, i, j):
    """project without its checks, for 1 <= i <= j <= node.size."""
    before = node.before
    a, b = node.bits._rank1_pair(node.offset + i - 1, node.offset + j)
    a -= before
    b -= before
    return (i - a, j - b), (a + 1, b)


class WaveletTree:
    """Balanced wavelet tree over a sequence of document ids 1..d."""

    def __init__(self, values, d):
        if d < 1:
            raise ValueOutOfRangeError("need at least one document")
        arr = np.asarray(values)
        if arr.size and (arr.min() < 1 or arr.max() > d):
            raise ValueOutOfRangeError(f"values must lie in 1..{d}")
        arr = arr.astype(np.int32, copy=False)
        self._layout(d, np.bincount(arr, minlength=d + 1)[1:])
        ids = np.arange(d + 1)
        levels = []

        def level_bits(t, lo, hi, seq):
            # Whether each id lies above the midpoint of its node here.
            right = ids > np.repeat(np.append(0, (lo + hi) // 2), np.append(1, hi - lo + 1))
            bits = np.take(right, seq)
            levels.append(RankBitVector(bits))
            return bits

        self._descend(arr, level_bits)
        self._finish(levels)

    @classmethod
    def from_levels(cls, levels, lengths):
        """Rebuild the tree over the document array of documents holding
        lengths[j - 1] slots each, from its levels' packed bits, top level
        first, each a (little-endian u64 words, bit count) pair.

        With cum the prefix sums of the lengths, each level holds the bits
        of its internal nodes, the node over ids lo..hi holding
        cum[hi] - cum[lo - 1] of them: each level's bit count must be the
        one level_sizes gives, which the caller checks as it reads the
        level.  Each node must hold cum[hi] - cum[mid] ones; one vectorised
        rank pass per level checks them, and raises
        InconsistentIntervalsError otherwise.  A tree that passes routes
        exactly each document's length to its leaf.
        """
        self = cls.__new__(cls)
        self._layout(len(lengths), lengths)
        for (words, _), (lo, hi), offsets, before in zip(
                levels, _shape(self.d), self._offsets, self._before, strict=True):
            ones, want = np.diff(ranks1(words, offsets)), np.diff(before)
            bad = np.flatnonzero(ones != want)
            if bad.size:
                i = bad[0]
                raise InconsistentIntervalsError(
                    f"node over ids {lo[i]}..{hi[i]} holds {ones[i]} ones; the document "
                    f"lengths give {want[i]}")
        self._finish([RankBitVector.from_words(words, nbits) for words, nbits in levels])
        return self

    def _layout(self, d, lengths):
        """Shape and node sizes from the d document lengths: per level, each
        node's offset among the level's bits and the ones before it, with a
        closing total; a leaf of the last level holds none.  All of them are
        read-only."""
        self.d = d
        self.height = (d - 1).bit_length()
        self._cum = cum = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
        self.n = int(cum[-1])
        self._offsets, self._before = [], []
        for lo, hi in _shape(d):
            size = _node_bits(cum, lo, hi)
            ones = cum[hi] - cum[(lo + hi) // 2]
            self._offsets.append(np.concatenate(([0], np.cumsum(size))))
            self._before.append(np.concatenate(([0], np.cumsum(ones))))
        for arr in (cum, *self._offsets, *self._before):
            arr.flags.writeable = False

    def _finish(self, levels):
        self.levels = levels
        self.root = _Node((levels, self._offsets, self._before), 0, 0, 1, self.d)

    def _descend(self, seq, level_bits, slots=None):
        """Send seq, one entry per element of the root's sequence, down the
        tree: at each level t, level_bits(t, lo, hi, seq) gives the level's
        bits over seq, and each internal node's entries split stably into its
        left child's, then its right child's.  Where slots is given, each
        leaf's entries land in order in slots cum[id - 1]:cum[id]; without
        it the last level is not split."""
        cum = self._cum
        for t, (lo, hi) in enumerate(_shape(self.d)):
            bits = level_bits(t, lo, hi, seq)
            if slots is None and t == self.height - 1:
                return
            inner = lo < hi
            child_lo, child_hi = _children(lo[inner], hi[inner])
            count = cum[child_hi] - cum[child_lo - 1]
            # compress, unlike a boolean index, does not branch on each bit.
            # The masks below run in blocks, one per child, so they cost no
            # branch per entry either.
            zeros, ones = np.compress(~bits, seq), np.compress(bits, seq)
            seq = np.empty(len(bits), dtype=seq.dtype)
            right = np.repeat(np.arange(len(count)) % 2 == 1, count)
            seq[~right] = zeros
            seq[right] = ones
            del zeros, ones
            leaf = child_lo == child_hi
            if leaf.any():
                done = np.repeat(leaf, count)
                if slots is not None:
                    docs = np.zeros(self.d, dtype=bool)
                    docs[child_lo[leaf] - 1] = True
                    slots[np.repeat(docs, np.diff(cum))] = np.compress(done, seq)
                seq = np.compress(~done, seq)

    def internal_nodes(self):
        """Internal nodes in level order; the shape is a function of d alone.
        Makes every node's handle, so no build, load or query calls it."""
        out, level = [], [self.root]
        while level:
            level = [node for node in level if not node.is_leaf]
            out += level
            level = [child for node in level for child in (node.left, node.right)]
        return out

    def document_order(self):
        """The 0-based positions holding document 1, ascending, then those
        holding document 2, and so on, as int32: the stable argsort of the
        sequence.

        The positions go down the levels as the build sent the documents,
        split by the stored bits; a leaf's positions are its document's."""
        slots = np.arange(self.n, dtype=np.int32)
        if not self.height:
            return slots

        def stored_bits(t, lo, hi, seq):
            words = self.levels[t].words.view(np.uint8)
            return np.unpackbits(words, count=len(seq), bitorder="little").view(bool)

        self._descend(slots.copy(), stored_bits, slots)
        return slots

    def access(self, i):
        """Document id stored at 1-based position i.

        No query or build path calls it: queries read the document array
        (SuffixIndex.doc_ids).  It stays because the acceptance suite's
        test_structure_self_consistency checks the tree through it."""
        if not 1 <= i <= self.n:
            raise OutOfRangeError(f"position {i} outside 1..{self.n}")
        node = self.root
        while node.bits is not None:
            (i0, j0), (i1, _) = _split(node, i, i)
            if j0 == i0:        # i projects into the left child: its bit is 0
                i, node = i0, node.left
            else:
                i, node = i1, node.right
        return node.lo

    def doc_freq(self, doc, l, r):
        """Occurrences of doc in positions [l, r]; 0 when r < l."""
        if not 1 <= doc <= self.d:
            raise OutOfRangeError(f"document {doc} outside 1..{self.d}")
        if r < l:
            return 0
        if l < 1 or r > self.n:
            raise OutOfRangeError(f"interval [{l}, {r}] outside 1..{self.n}")
        # _split inline, one side only: a call per level made doc_freq
        # slower than the per-node tree it replaced.
        node = self.root
        bits = node.bits
        while bits is not None:
            before, offset = node.before, node.offset
            a, b = bits._rank1_pair(offset + l - 1, offset + r)
            if doc <= node.mid:
                l, r, node = l - a + before, r - b + before, node.left
            else:
                l, r, node = a - before + 1, b - before, node.right
            if r < l:
                return 0
            bits = node.bits
        return r - l + 1

    def project(self, node, i, j):
        """Project [i, j] of node's sequence into both children.

        Returns ((i0, j0), (i1, j1)); an empty input or an absent side comes
        back with j < i.
        """
        if node.bits is None:
            raise OutOfRangeError("leaves have no children to project into")
        if j < i:
            return (1, 0), (1, 0)
        if i < 1 or j > node.size:
            raise OutOfRangeError(f"interval [{i}, {j}] outside 1..{node.size}")
        return _split(node, i, j)

    def greedy_topk(self, l, r, k):
        """The k documents occurring most often in [l, r], ties to lower ids.

        Returns (doc, frequency) pairs sorted by descending frequency then
        ascending id; shorter than k when fewer distinct documents occur.

        No build, load or query path calls it: queries and the build count
        the document array (SuffixIndex.top_documents, sgst.count_candidates).
        It stays as the reference both are tested against, itself checked
        against a brute-force count (test_random_greedy_topk_vs_oracle);
        perfbench's TARGETS lists it."""
        if r < l or l < 1 or r > self.n:
            raise OutOfRangeError(f"interval [{l}, {r}] outside 1..{self.n}")
        k = positive("k", k)
        # Keys (-length, lo): among equal lengths the smaller id range pops
        # first, which is what makes ties land on lower document ids.
        walk = self._restricted(l, r, 1, 0, lambda: 0, heapq.heappush, heapq.heappop)
        return sorted(islice(walk, k), key=lambda p: (-p[1], p[0]))

    def restricted_greedy(self, l, r, core_sp, core_ep, threshold_source):
        """Yield (doc, frequency in [l, r]) for each document occurring in
        [l, r] outside the covered core [core_sp, core_ep].

        The core may be empty (core_ep < core_sp); otherwise it must lie
        inside [l, r].  Priority-queue traversal ordered by outer interval
        length.  A node whose outer interval is not larger than the value
        currently reported by threshold_source() is skipped; callers'
        thresholds never decrease, so once one is skipped every later node
        is too.
        """
        return self._restricted(l, r, core_sp, core_ep, threshold_source,
                                heapq.heappush, heapq.heappop)

    def restricted_dfs(self, l, r, core_sp, core_ep, threshold_source):
        """Depth-first variant of restricted_greedy, left children first.

        Skips any subtree whose outer interval is not larger than the
        current threshold, but keeps visiting siblings.
        """
        return self._restricted(l, r, core_sp, core_ep, threshold_source,
                                list.append, list.pop)

    def _restricted(self, l, r, cl, cr, threshold_source, push, pop):
        """The traversal behind both restricted walks; push and pop make the
        frontier a heap or a stack.  Each entry carries a node with its
        projected outer interval [l, r] and core [cl, cr]; the core stays one
        contiguous piece of the outer interval, so the node still holds
        uncovered positions exactly when the outer is the longer.  Keys
        (-outer length, lo) are unique because no node shares the frontier
        with its ancestor."""
        if not 1 <= l <= r <= self.n:
            raise InconsistentIntervalsError(f"outer interval [{l}, {r}] outside 1..{self.n}")
        if cr >= cl and not l <= cl <= cr <= r:
            raise InconsistentIntervalsError("covered core escapes the outer interval")
        if r - l <= cr - cl:
            return
        frontier = [(l - r - 1, 1, self.root, l, r, cl, cr)]
        while frontier:
            neg, _, node, l, r, cl, cr = pop(frontier)
            if -neg <= threshold_source():
                continue
            if node.bits is None:
                yield node.lo, -neg
                continue
            (l0, r0), (l1, r1) = _split(node, l, r)
            if cr < cl:
                c0 = c1 = 1
                d0 = d1 = 0
            else:
                (c0, d0), (c1, d1) = _split(node, cl, cr)
            # Right first, so that a stack pops the left child first.
            if r1 - l1 > d1 - c1:
                right = node.right
                push(frontier, (l1 - r1 - 1, right.lo, right, l1, r1, c1, d1))
            if r0 - l0 > d0 - c0:
                left = node.left
                push(frontier, (l0 - r0 - 1, left.lo, left, l0, r0, c0, d0))
