import random

import pytest

from topkdoc.errors import EmptyTreeError, InvalidHandleError
from topkdoc.louds import PSEUDO_ROOT_BITS, LoudsTree


def encode_ids(kids):
    """Encode a tree given as {id: [child ids]} rooted at 0."""
    return LoudsTree.encode(0, children=lambda i: kids[i])


def random_tree(rng, max_nodes):
    """Random ordinal tree as {id: [child ids]}, ids in BFS creation order."""
    n = rng.randint(1, max_nodes)
    kids = {0: []}
    for node in range(1, n):
        parent = rng.randint(0, node - 1)
        kids[parent].append(node)
        kids[node] = []
    return kids


def bfs_order(kids):
    order = [0]
    i = 0
    while i < len(order):
        order.extend(kids[order[i]])
        i += 1
    return order


def test_single_node():
    tree, order = encode_ids({0: []})
    assert order == [0]
    assert tree.node_count == 1
    assert tree.degree_bits() == "0"
    assert tree.root == 3
    assert tree.is_leaf(tree.root)
    assert tree.child_count(tree.root) == 0
    assert tree.parent(tree.root) is None
    assert tree.node_rank(tree.root) == 1
    assert tree.handle_of_rank(1) == 3


def test_chain_of_three():
    tree, _ = encode_ids({0: [1], 1: [2], 2: []})
    assert tree.degree_bits() == "10100"
    v = tree.root
    assert not tree.is_leaf(v)
    w = tree.child(v, 1)
    x = tree.child(w, 1)
    assert tree.is_leaf(x)
    assert [tree.node_rank(h) for h in (v, w, x)] == [1, 2, 3]
    assert tree.parent(x) == w
    assert tree.parent(w) == v
    assert tree.parent(v) is None


def test_six_node_example():
    # root -> (a, b, c), b -> (d, e); level order root a b c d e.
    tree, order = encode_ids({0: [1, 2, 3], 1: [], 2: [4, 5], 3: [], 4: [], 5: []})
    assert order == [0, 1, 2, 3, 4, 5]
    assert tree.degree_bits() == "11100110000"
    assert tree.node_count == 6
    b = tree.child(tree.root, 2)
    assert tree.node_rank(b) == 3
    assert tree.child_count(b) == 2
    assert tree.node_rank(tree.child(b, 1)) == 5
    assert tree.node_rank(tree.child(b, 2)) == 6
    assert tree.parent(tree.child(b, 2)) == b


def test_prefix_is_present():
    tree, _ = encode_ids({0: []})
    assert PSEUDO_ROOT_BITS == "10"
    assert len(tree.bits) == len(PSEUDO_ROOT_BITS) + 1
    assert tree.bits.get(1) == 1 and tree.bits.get(2) == 0


def test_invalid_handles():
    tree, _ = encode_ids({0: [1], 1: [2], 2: []})
    for bad in (0, 1, 2, 4, 6, 8, 99):
        with pytest.raises(InvalidHandleError):
            tree.node_rank(bad)
    with pytest.raises(InvalidHandleError):
        tree.child(tree.root, 2)
    with pytest.raises(InvalidHandleError):
        tree.child(tree.root, 0)
    with pytest.raises(InvalidHandleError):
        tree.handle_of_rank(0)
    with pytest.raises(InvalidHandleError):
        tree.handle_of_rank(4)


def test_encode_rejects_missing_root():
    with pytest.raises(EmptyTreeError):
        LoudsTree.encode(None)


def test_random_trees_vs_structure():
    rng = random.Random(83)
    for _ in range(60):
        kids = random_tree(rng, 60)
        tree, order = encode_ids(kids)
        assert order == bfs_order(kids)
        assert tree.node_count == len(kids)
        rank_of = {node: i + 1 for i, node in enumerate(order)}
        parent_of = {c: p for p, cs in kids.items() for c in cs}
        for node in order:
            h = tree.handle_of_rank(rank_of[node])
            assert tree.node_rank(h) == rank_of[node]
            assert tree.child_count(h) == len(kids[node])
            assert tree.is_leaf(h) == (not kids[node])
            for t, c in enumerate(kids[node], start=1):
                ch = tree.child(h, t)
                assert tree.node_rank(ch) == rank_of[c]
                assert tree.parent(ch) == h
            if node == 0:
                assert tree.parent(h) is None
            else:
                assert tree.node_rank(tree.parent(h)) == rank_of[parent_of[node]]


def test_bit_length_is_two_n_plus_one():
    rng = random.Random(89)
    for _ in range(10):
        kids = random_tree(rng, 200)
        tree, _ = encode_ids(kids)
        # 2N - 1 degree bits plus the two prefix bits.
        assert len(tree.bits) == 2 * len(kids) + 1
