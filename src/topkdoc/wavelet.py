"""Wavelet tree over the document array, plus frequency-ordered traversals.

The tree splits the document id range [1, d] in halves: a node covering
[a, b] stores one bit per element of its subsequence, 0 routing ids <= mid
to the left child and 1 routing the rest right, with mid = (a + b) // 2.
Height is ceil(log2 d) and every level stores n bits in total.

An interval [l, r] of the document array projects into a child through two
rank operations, which is what every traversal below is built on:

    left  child: [rank0(l - 1) + 1, rank0(r)]
    right child: [rank1(l - 1) + 1, rank1(r)]

Since rank0(i) = i - rank1(i), both sides come from the one rank1_pair
call that `project` makes per node; greedy_topk, doc_freq and the
restricted walks all project through it.

restricted_greedy / restricted_dfs take an outer interval [l, r] and a
covered core [core_sp, core_ep] inside it, the interval of a sampled node
whose documents are already counted.  They project both intervals down the
tree, at most two rank1_pair calls per node, and descend only where the
outer projection is longer than the core's, that is where positions
outside the core remain.  Each reachable leaf is reported with its
frequency in the whole outer interval, and a node is pruned once its outer
interval cannot beat the caller's current k-th best frequency.

greedy_topk, the k most frequent documents of one interval, is the same
walk with an empty core and no threshold: nodes pop from a priority queue
ordered by interval length, so leaves pop in non-increasing frequency
order and the first k are the answer.
"""

import heapq
from itertools import islice

import numpy as np

from .bitrank import RankBitVector
from .errors import InconsistentIntervalsError, OutOfRangeError, ValueOutOfRangeError


class _Node:
    __slots__ = ("lo", "hi", "mid", "bits", "left", "right")

    def __init__(self, lo, hi):
        """The whole subtree over ids lo..hi, bit vectors left unset."""
        self.lo = lo
        self.hi = hi
        self.mid = (lo + hi) // 2
        self.bits = None
        self.left = _Node(lo, self.mid) if lo < hi else None
        self.right = _Node(self.mid + 1, hi) if lo < hi else None

    @property
    def is_leaf(self):
        return self.lo == self.hi


class WaveletTree:
    """Balanced wavelet tree over a sequence of document ids 1..d."""

    def __init__(self, values, d):
        if d < 1:
            raise ValueOutOfRangeError("need at least one document")
        arr = np.asarray(values, dtype=np.int64)
        if arr.size and (arr.min() < 1 or arr.max() > d):
            raise ValueOutOfRangeError(f"values must lie in 1..{d}")
        self._shape(d, int(arr.size))
        stack = [(self.root, arr)]
        while stack:
            node, values = stack.pop()
            if not node.is_leaf:
                go_right = values > node.mid
                node.bits = RankBitVector(go_right)
                stack.append((node.left, values[~go_right]))
                stack.append((node.right, values[go_right]))

    @classmethod
    def from_bitmaps(cls, bitmaps, lengths):
        """Rebuild the tree over the document array of documents holding
        lengths[j - 1] slots each, from the bit vectors of its d - 1
        internal nodes, given in internal_nodes() order.

        With cum the prefix sums of the lengths, the node over ids lo..hi
        must hold cum[hi] - cum[lo - 1] bits, cum[hi] - cum[mid] of them
        ones, or InconsistentIntervalsError is raised.  A tree that passes
        routes exactly each document's length to its leaf.
        """
        self = cls.__new__(cls)
        cum = np.concatenate(([0], np.cumsum(lengths))).tolist()
        self._shape(len(lengths), cum[-1])
        for node, bits in zip(self.internal_nodes(), bitmaps, strict=True):
            size, ones = cum[node.hi] - cum[node.lo - 1], cum[node.hi] - cum[node.mid]
            if (len(bits), bits.ones) != (size, ones):
                raise InconsistentIntervalsError(
                    f"node over ids {node.lo}..{node.hi} holds {len(bits)} bits, "
                    f"{bits.ones} of them ones; the document lengths give {size} and {ones}")
            node.bits = bits
        return self

    def _shape(self, d, n):
        self.d = d
        self.n = n
        self.root = _Node(1, d)

    def internal_nodes(self):
        """Internal nodes in level order; the shape is a function of d alone."""
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

        One top-down pass splits each node's positions by its bits, left
        child first; a leaf's positions are its document's."""
        slots = np.empty(self.n, dtype=np.int32)
        done = 0
        stack = [(self.root, np.arange(self.n, dtype=np.int32))]
        while stack:
            node, where = stack.pop()
            if node.bits is None:
                slots[done:done + len(where)] = where
                done += len(where)
                continue
            words = np.array(node.bits.words, dtype="<u8").view(np.uint8)
            right = np.unpackbits(words, count=len(where), bitorder="little").view(bool)
            # compress, unlike a boolean index, does not branch on each bit.
            stack.append((node.right, np.compress(right, where)))
            stack.append((node.left, np.compress(~right, where)))
        return slots

    def access(self, i):
        """Document id stored at 1-based position i."""
        if not 1 <= i <= self.n:
            raise OutOfRangeError(f"position {i} outside 1..{self.n}")
        node = self.root
        while node.bits is not None:
            bits = node.bits
            if bits.get(i):
                i = bits.rank1(i)
                node = node.right
            else:
                i = bits.rank0(i)
                node = node.left
        return node.lo

    def doc_freq(self, doc, l, r):
        """Occurrences of doc in positions [l, r]; 0 when r < l."""
        if not 1 <= doc <= self.d:
            raise OutOfRangeError(f"document {doc} outside 1..{self.d}")
        if r < l:
            return 0
        if l < 1 or r > self.n:
            raise OutOfRangeError(f"interval [{l}, {r}] outside 1..{self.n}")
        node = self.root
        while node.bits is not None:
            left, right = self.project(node, l, r)
            if doc <= node.mid:
                (l, r), node = left, node.left
            else:
                (l, r), node = right, node.right
            if r < l:
                return 0
        return r - l + 1

    def project(self, node, i, j):
        """Project [i, j] of node's sequence into both children.

        Returns ((i0, j0), (i1, j1)); an empty input or an absent side comes
        back with j < i.
        """
        bits = node.bits
        if bits is None:
            raise OutOfRangeError("leaves have no children to project into")
        if j < i:
            return (1, 0), (1, 0)
        # Raises unless 1 <= i and j <= the node's length.
        o, oj = bits.rank1_pair(i - 1, j)     # ones before i, and through j
        return (i - o, j - oj), (o + 1, oj)

    def greedy_topk(self, l, r, k):
        """The k documents occurring most often in [l, r], ties to lower ids.

        Returns (doc, frequency) pairs sorted by descending frequency then
        ascending id; shorter than k when fewer distinct documents occur.
        """
        if r < l or l < 1 or r > self.n:
            raise OutOfRangeError(f"interval [{l}, {r}] outside 1..{self.n}")
        if k < 1:
            raise ValueError("k must be at least 1")
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
        frontier = [(l - r - 1, self.root.lo, self.root, l, r, cl, cr)]
        project = self.project
        while frontier:
            neg, _, node, l, r, cl, cr = pop(frontier)
            if -neg <= threshold_source():
                continue
            if node.bits is None:
                yield node.lo, -neg
                continue
            (l0, r0), (l1, r1) = project(node, l, r)
            (c0, d0), (c1, d1) = project(node, cl, cr)     # no rank when empty
            # Right first, so that a stack pops the left child first.
            if r1 - l1 > d1 - c1:
                push(frontier, (l1 - r1 - 1, node.right.lo, node.right, l1, r1, c1, d1))
            if r0 - l0 > d0 - c0:
                push(frontier, (l0 - r0 - 1, node.left.lo, node.left, l0, r0, c0, d0))
