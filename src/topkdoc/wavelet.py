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

greedy_topk reports the k most frequent documents of one interval by
visiting nodes from a priority queue ordered by interval length, so leaves
pop in non-increasing frequency order.  restricted_greedy / restricted_dfs
do the same job while skipping an already-counted core subinterval: they
descend only where uncovered positions remain, report each reachable leaf
with its frequency in the full outer interval, and prune once a node's
outer interval cannot beat the caller's current k-th best frequency.
"""

import heapq
from dataclasses import dataclass

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


@dataclass(frozen=True)
class TrackedIntervals:
    """A node's outer interval plus the uncovered prefix/suffix inside it.

    [l, r] is the projection of the full query interval; [l1, r1] and
    [l2, r2] are the projections of the uncovered prefix and suffix (either
    may be empty, signalled by r < l).  Emptiness of the uncovered parts at
    a leaf only gates reachability; reported frequencies always come from
    the outer interval.
    """

    node: object
    l: int
    r: int
    l1: int
    r1: int
    l2: int
    r2: int

    def __post_init__(self):
        if self.r < self.l:
            raise InconsistentIntervalsError("outer interval is empty")
        for lo, hi in ((self.l1, self.r1), (self.l2, self.r2)):
            if hi < lo:
                continue
            if lo < self.l or hi > self.r:
                raise InconsistentIntervalsError("uncovered interval escapes the outer one")
        if self.r1 >= self.l1 and self.r2 >= self.l2 and self.r1 >= self.l2:
            raise InconsistentIntervalsError("uncovered intervals overlap or are out of order")

    @property
    def has_uncovered(self):
        return self.r1 >= self.l1 or self.r2 >= self.l2


class WaveletTree:
    """Balanced wavelet tree over a sequence of document ids 1..d."""

    def __init__(self, values, d, sample_step=64):
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
                node.bits = RankBitVector(go_right, sample_step)
                stack.append((node.left, values[~go_right]))
                stack.append((node.right, values[go_right]))

    @classmethod
    def from_bitmaps(cls, bitmaps, d, n):
        """Rebuild the tree over d ids and n positions from the bit vectors of
        its d - 1 internal nodes, given in internal_nodes() order.

        Raises InconsistentIntervalsError unless the root holds n bits and
        each child as many as its parent routes to it.
        """
        self = cls.__new__(cls)
        self._shape(d, n)
        length = {self.root: n}
        for node, bits in zip(self.internal_nodes(), bitmaps, strict=True):
            if len(bits) != length[node]:
                raise InconsistentIntervalsError(
                    f"node over ids {node.lo}..{node.hi} holds {len(bits)} bits, "
                    f"its parent routes {length[node]} to it")
            node.bits = bits
            length[node.left] = len(bits) - bits.ones
            length[node.right] = bits.ones
        return self

    def _shape(self, d, n):
        self.d = d
        self.n = n
        self.height = (d - 1).bit_length()
        self.root = _Node(1, d)

    def internal_nodes(self):
        """Internal nodes in level order; the shape is a function of d alone."""
        out = []
        queue = [self.root]
        while queue:
            node = queue.pop(0)
            if node.is_leaf:
                continue
            out.append(node)
            queue.append(node.left)
            queue.append(node.right)
        return out

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
        out = []
        # Key (-length, lo): among equal lengths the smaller id range pops
        # first, which is what makes ties land on lower document ids.
        heap = [(-(r - l + 1), self.root.lo, self.root, l, r)]
        pop, push, project = heapq.heappop, heapq.heappush, self.project
        while heap and len(out) < k:
            _, _, node, nl, nr = pop(heap)
            if node.bits is None:
                out.append((node.lo, nr - nl + 1))
                continue
            (i0, j0), (i1, j1) = project(node, nl, nr)
            if j0 >= i0:
                push(heap, (-(j0 - i0 + 1), node.left.lo, node.left, i0, j0))
            if j1 >= i1:
                push(heap, (-(j1 - i1 + 1), node.right.lo, node.right, i1, j1))
        out.sort(key=lambda p: (-p[1], p[0]))
        return out

    def restricted_greedy(self, t: TrackedIntervals, threshold_source):
        """Yield (doc, outer frequency) for documents in t's uncovered parts.

        Priority-queue traversal ordered by outer interval length.  A node
        whose outer interval is not larger than the value currently reported
        by threshold_source() is skipped; callers' thresholds never decrease,
        so once one is skipped every later node is too.
        """
        return self._restricted(t, threshold_source, heapq.heappush, heapq.heappop)

    def restricted_dfs(self, t: TrackedIntervals, threshold_source):
        """Depth-first variant of restricted_greedy, left children first.

        Skips any subtree whose outer interval is not larger than the
        current threshold, but keeps visiting siblings.
        """
        return self._restricted(t, threshold_source, list.append, list.pop)

    def _restricted(self, t, threshold_source, push, pop):
        """The traversal behind both restricted walks; push and pop make the
        frontier a heap or a stack.  Keys (-outer length, lo) are unique
        because no node shares the frontier with its ancestor."""
        self._check_root(t)
        if not t.has_uncovered:
            return
        frontier = [(-(t.r - t.l + 1), t.node.lo, t)]
        while frontier:
            neg, _, cur = pop(frontier)
            if -neg <= threshold_source():
                continue
            node = cur.node
            if node.bits is None:
                yield node.lo, -neg
                continue
            for child in reversed(self._children_with_uncovered(cur)):
                push(frontier, (-(child.r - child.l + 1), child.node.lo, child))

    def _children_with_uncovered(self, cur):
        node = cur.node
        (ol0, or0), (ol1, or1) = self.project(node, cur.l, cur.r)
        (al0, ar0), (al1, ar1) = self.project(node, cur.l1, cur.r1)
        (bl0, br0), (bl1, br1) = self.project(node, cur.l2, cur.r2)
        out = []
        if ar0 >= al0 or br0 >= bl0:
            out.append(TrackedIntervals(node.left, ol0, or0, al0, ar0, bl0, br0))
        if ar1 >= al1 or br1 >= bl1:
            out.append(TrackedIntervals(node.right, ol1, or1, al1, ar1, bl1, br1))
        return out

    def _check_root(self, t):
        if t.node is not self.root:
            raise InconsistentIntervalsError("tracked intervals must start at the tree root")
        if t.r > self.n:
            raise InconsistentIntervalsError(f"outer interval exceeds sequence length {self.n}")


def tracked_root(tree: WaveletTree, l, r, l1, r1, l2, r2) -> TrackedIntervals:
    """TrackedIntervals anchored at tree's root; empty parts given as r < l."""
    return TrackedIntervals(tree.root, l, r, l1, r1, l2, r2)
