"""Level-order unary degree sequence encoding of ordinal trees.

Each node contributes `1^c 0` in level order, c being its child count, so
a tree of N nodes takes 2N - 1 bits.  This implementation prepends a fixed
"10" pseudo-root (a super-root with the real root as its only child),
which makes every navigation step a closed rank/select formula.  A node is
addressed by the 1-based bit position where its encoding begins; the j-th
one in the sequence is the edge pointing to the j-th node in level order.

A public structure of the package; the index does not use it, because its
sampled tree is fixed by the marked nodes' intervals alone (see sgst).
"""

from collections import deque

import numpy as np

from .bitrank import RankBitVector
from .errors import EmptyTreeError, InvalidHandleError

PSEUDO_ROOT_BITS = "10"


class LoudsTree:
    """Succinct ordinal tree; handles are bit positions, 1-based."""

    def __init__(self, bits: RankBitVector, node_count: int):
        self.bits = bits
        self.node_count = node_count

    @classmethod
    def encode(cls, root, children=None):
        """Encode the tree reachable from root.

        `children` maps a node to its ordered child list (default: its
        `children` attribute).  Returns (tree, nodes in level order), the
        second value giving the node addressed by each dense rank 1..N.
        """
        if root is None:
            raise EmptyTreeError("cannot encode an empty tree")
        if children is None:
            children = lambda node: node.children
        pieces = [PSEUDO_ROOT_BITS]
        order = []
        queue = deque([root])
        while queue:
            node = queue.popleft()
            order.append(node)
            kids = children(node)
            pieces.append("1" * len(kids) + "0")
            queue.extend(kids)
        bits = RankBitVector("".join(pieces))
        return cls(bits, len(order)), order

    @classmethod
    def from_bits(cls, bits: RankBitVector):
        """Wrap an already-built bit sequence (pseudo-root prefix included).

        Raises InvalidHandleError unless it encodes a nonempty tree in
        level order: the "10" prefix, one edge per node, and every node's
        children ranked after it, so that the ones before the r-th zero
        number at least r.
        """
        node_count = bits.rank0(len(bits)) - 1
        packed = np.asarray(bits.words, dtype="<u8").view(np.uint8)
        arr = np.unpackbits(packed, bitorder="little")[:len(bits)]
        zeros = np.flatnonzero(arr == 0)[:-1]         # 0-based, ranks 1..N
        ranks = np.arange(1, node_count + 1)
        if (node_count < 1 or bits.ones != node_count or zeros[0] != 1
                or not (zeros - ranks + 1 >= ranks).all()):
            raise InvalidHandleError("bits do not encode a tree in level order")
        return cls(bits, node_count)

    def degree_bits(self):
        """The raw unary degree string, without the pseudo-root prefix."""
        return "".join(str(self.bits.get(i)) for i in range(3, len(self.bits) + 1))

    @property
    def root(self):
        return 3  # first position after the "10" prefix

    def _check(self, v):
        if not 3 <= v <= len(self.bits) or self.bits.get(v - 1) != 0:
            raise InvalidHandleError(f"{v} is not the start of a node encoding")

    def is_leaf(self, v):
        self._check(v)
        return self.bits.get(v) == 0

    def child_count(self, v):
        self._check(v)
        bits = self.bits
        return bits.select(0, bits.rank0(v - 1) + 1) - v

    def child(self, v, t):
        """Handle of the t-th child of v, t counted from 1."""
        self._check(v)
        bits = self.bits
        if t < 1 or bits.get(v + t - 1) != 1:
            raise InvalidHandleError(f"node at {v} has no child {t}")
        target = bits.rank1(v + t - 1)
        return bits.select(0, target) + 1

    def parent(self, v):
        """Handle of v's parent, or None for the root."""
        rank = self.node_rank(v)
        if rank == 1:
            return None
        bits = self.bits
        edge = bits.select(1, rank)
        return bits.select(0, bits.rank0(edge)) + 1

    def node_rank(self, v):
        """Dense level-order index of v, 1..node_count."""
        self._check(v)
        return self.bits.rank0(v - 1)

    def handle_of_rank(self, rank):
        """Inverse of node_rank."""
        if not 1 <= rank <= self.node_count:
            raise InvalidHandleError(f"rank {rank} outside 1..{self.node_count}")
        return self.bits.select(0, rank) + 1
