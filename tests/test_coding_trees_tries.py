"""Codec tests for labeled rooted trees (advice item A2) and tries
(advice item A1), including hypothesis-generated random structures."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import (
    Bits,
    LabeledRootedTree,
    Trie,
    decode_tree,
    decode_trie,
    encode_tree,
    encode_trie,
    trie_leaf,
    trie_node,
)
from repro.coding.nested import decode_e2, e2_as_maps, encode_e2
from repro.errors import CodingError


# ----------------------------------------------------------------------
# random structure generators
# ----------------------------------------------------------------------
def random_tree(rng_draw, max_nodes=12) -> LabeledRootedTree:
    labels = iter(range(1, max_nodes + 1))
    root = LabeledRootedTree(next(labels))
    nodes = [root]
    # attach remaining labels to random existing nodes with fresh ports
    for label in labels:
        parent = nodes[rng_draw(len(nodes))]
        port_parent = len(parent.children) + 1  # ports need not be dense in T
        child = LabeledRootedTree(label)
        parent.add_child(port_parent, rng_draw(5), child)
        nodes.append(child)
    return root


tree_strategy = st.builds(
    lambda seeds: _tree_from_seeds(seeds),
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=14),
)


def _tree_from_seeds(seeds):
    root = LabeledRootedTree(1)
    nodes = [root]
    for i, seed in enumerate(seeds, start=2):
        parent = nodes[seed % len(nodes)]
        child = LabeledRootedTree(i)
        parent.add_child(len(parent.children), seed % 7, child)
        nodes.append(child)
    return root


def _trie_from_seeds(seeds):
    """A random trie with distinct-leaf structure."""
    it = iter(seeds)

    def build(depth):
        try:
            seed = next(it)
        except StopIteration:
            return trie_leaf()
        if depth > 4 or seed % 3 == 0:
            return trie_leaf()
        return trie_node(
            (seed % 5, seed % 11), build(depth + 1), build(depth + 1)
        )

    return build(0)


trie_strategy = st.builds(
    _trie_from_seeds,
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=30),
)


# ----------------------------------------------------------------------
class TestTreeCodec:
    def test_single_node(self):
        t = LabeledRootedTree(7)
        assert decode_tree(encode_tree(t)) == t

    def test_small_tree(self):
        root = LabeledRootedTree(1)
        a = LabeledRootedTree(2)
        b = LabeledRootedTree(3)
        root.add_child(0, 1, a)
        root.add_child(2, 0, b)
        a.add_child(1, 0, LabeledRootedTree(4))
        assert decode_tree(encode_tree(root)) == root

    @given(tree_strategy)
    @settings(max_examples=40)
    def test_round_trip(self, tree):
        assert decode_tree(encode_tree(tree)) == tree

    @given(tree_strategy)
    @settings(max_examples=20)
    def test_size_preserved(self, tree):
        assert decode_tree(encode_tree(tree)).size() == tree.size()

    def test_code_length_n_log_n(self):
        """O(n log n) length: a 100-node path with small ports/labels."""
        root = LabeledRootedTree(1)
        node = root
        for i in range(2, 101):
            child = LabeledRootedTree(i)
            node.add_child(0, 1, child)
            node = child
        bits = encode_tree(root)
        import math

        assert len(bits) <= 40 * 100 * math.log2(100)

    def test_malformed_rejected(self):
        with pytest.raises(CodingError):
            decode_tree(Bits("10"))


class TestTreePaths:
    def _tree(self):
        root = LabeledRootedTree(1)
        mid = LabeledRootedTree(2)
        leaf = LabeledRootedTree(3)
        root.add_child(4, 0, mid)  # port 4 at root, 0 at mid
        mid.add_child(1, 2, leaf)  # port 1 at mid, 2 at leaf
        return root

    def test_find_label(self):
        t = self._tree()
        assert t.find_label(3).label == 3
        assert t.find_label(9) is None

    def test_path_to_root(self):
        t = self._tree()
        # from node 3 upward: (its port to parent, parent's port), then again
        assert t.path_to_root_ports(3) == [(2, 1), (0, 4)]
        assert t.path_to_root_ports(1) == []

    def test_path_missing_label(self):
        with pytest.raises(CodingError):
            self._tree().path_to_root_ports(42)

    def test_labels_preorder(self):
        assert self._tree().labels() == [1, 2, 3]

    @given(tree_strategy)
    @settings(max_examples=30)
    def test_flat_paths_match_path_to_root_ports(self, tree):
        paths = tree.flat_paths_to_root()
        assert sorted(paths) == sorted(tree.labels())
        for label, flat in paths.items():
            pairs = tree.path_to_root_ports(label)
            assert flat == tuple(x for pair in pairs for x in pair)

    def test_flat_paths_keep_the_first_duplicate_in_preorder(self):
        root = LabeledRootedTree(1)
        first, second = LabeledRootedTree(2), LabeledRootedTree(2)
        root.add_child(3, 0, first)
        root.add_child(1, 0, second)  # port-smaller, but inserted later
        assert root.path_to_root_ports(2) == [(0, 3)]
        assert root.flat_paths_to_root()[2] == (0, 3)


class TestDeepTrees:
    """Trees deeper than the interpreter recursion limit (the canonical
    BFS tree of a long lollipop is a path of length ~n): every traversal
    must be iterative."""

    DEPTH = 2000

    def _chain(self):
        root = LabeledRootedTree(1)
        node = root
        for i in range(2, self.DEPTH + 1):
            child = LabeledRootedTree(i)
            node.add_child(i % 3, (i + 1) % 2, child)
            node = child
        return root

    def test_round_trip_and_equality(self):
        tree = self._chain()
        decoded = decode_tree(encode_tree(tree))
        assert decoded == tree
        assert decoded == self._chain()
        assert decoded.size() == self.DEPTH
        assert decoded.labels() == list(range(1, self.DEPTH + 1))
        other = self._chain()
        node = other
        while node.children:
            node = node.children[0][2]
        node.label = -1
        assert decoded != other

    def test_paths_to_root(self):
        tree = self._chain()
        deepest = tree.path_to_root_ports(self.DEPTH)
        assert len(deepest) == self.DEPTH - 1
        # the step out of node i climbs through (child port, parent port)
        assert deepest[0] == ((self.DEPTH + 1) % 2, self.DEPTH % 3)
        assert deepest[-1] == (1, 2)
        paths = tree.flat_paths_to_root()
        assert len(paths) == self.DEPTH
        for label in (1, 2, self.DEPTH // 2, self.DEPTH):
            pairs = tree.path_to_root_ports(label)
            assert paths[label] == tuple(x for pair in pairs for x in pair)


class TestTrieCodec:
    def test_leaf(self):
        t = trie_leaf()
        assert t.is_leaf and t.num_leaves() == 1
        assert decode_trie(encode_trie(t)) == t

    def test_internal_structure_validated(self):
        with pytest.raises(CodingError):
            Trie((1, 2))  # internal node missing children
        with pytest.raises(CodingError):
            Trie(None, trie_leaf(), trie_leaf())  # leaf with children

    def test_negative_query_rejected(self):
        with pytest.raises(CodingError):
            trie_node((-1, 0), trie_leaf(), trie_leaf())

    @given(trie_strategy)
    @settings(max_examples=40)
    def test_round_trip(self, trie):
        assert decode_trie(encode_trie(trie)) == trie

    @given(trie_strategy)
    @settings(max_examples=20)
    def test_size_identity(self, trie):
        assert trie.size() == 2 * trie.num_leaves() - 1

    @given(trie_strategy)
    @settings(max_examples=40)
    def test_stored_leaf_count_is_a_direct_count(self, trie):
        leaves, stack = 0, [trie]
        while stack:
            node = stack.pop()
            if node.query is None:
                leaves += 1
            else:
                stack += [node.left, node.right]
        assert trie.num_leaves() == leaves
        assert 2 * trie.num_leaves() - 1 == trie.size()

    def test_stored_leaf_count_is_not_a_field(self):
        """Equality, hash and repr see the three fields only, so a shared
        leaf and fresh ``Trie(None)`` leaves build equal tries."""
        names = [f.name for f in dataclasses.fields(Trie)]
        assert names == ["query", "left", "right"]
        assert repr(trie_leaf()) == "Trie(query=None, left=None, right=None)"
        inner = trie_node((0, 3), trie_leaf(), trie_leaf())
        shared = trie_node((1, 5), inner, trie_leaf())
        fresh = Trie((1, 5), Trie((0, 3), Trie(None), Trie(None)), Trie(None))
        assert shared == fresh and hash(shared) == hash(fresh)
        assert shared.num_leaves() == fresh.num_leaves() == 3

    def test_queries_preorder(self):
        t = trie_node((1, 5), trie_node((0, 3), trie_leaf(), trie_leaf()), trie_leaf())
        assert t.queries() == [(1, 5), (0, 3)]

    def test_malformed_rejected(self):
        with pytest.raises(CodingError):
            decode_trie(Bits(""))


class TestE2Codec:
    def test_empty(self):
        assert decode_e2(encode_e2([])) == []

    def test_round_trip(self):
        t1 = trie_node((0, 2), trie_leaf(), trie_leaf())
        e2 = [(2, [(1, t1), (4, trie_leaf())]), (3, [])]
        assert decode_e2(encode_e2(e2)) == e2

    def test_as_maps(self):
        t1 = trie_node((0, 2), trie_leaf(), trie_leaf())
        e2 = [(2, [(1, t1)]), (3, [])]
        maps = e2_as_maps(e2)
        assert maps[2][1] == t1
        assert maps[3] == {}

    def test_as_maps_rejects_duplicates(self):
        with pytest.raises(CodingError):
            e2_as_maps([(2, []), (2, [])])
        with pytest.raises(CodingError):
            e2_as_maps([(2, [(1, trie_leaf()), (1, trie_leaf())])])
