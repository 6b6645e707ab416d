"""Tests for the radix prefix tree."""

import pytest

from repro.kvcache.radix import RadixNode, RadixTree


@pytest.fixture
def tree():
    """A small reasoning tree:

        1 (prompt, 10 tokens)
        |- 2 (5) -- 4 (3)
        |        \\- 5 (2)
        \\- 3 (7) -- 6 (1)
    """
    t = RadixTree()
    t.add_node(1, None, 10)
    t.add_node(2, 1, 5)
    t.add_node(3, 1, 7)
    t.add_node(4, 2, 3)
    t.add_node(5, 2, 2)
    t.add_node(6, 3, 1)
    return t


class TestRadixTree:
    def test_path(self, tree):
        assert tree.path(4) == [1, 2, 4]
        assert tree.path(1) == [1]

    def test_shared_prefix_nodes(self, tree):
        assert tree.shared_prefix_nodes(4, 5) == 2  # 1, 2
        assert tree.shared_prefix_nodes(4, 6) == 1  # 1
        assert tree.shared_prefix_nodes(4, 4) == 3

    def test_shared_prefix_tokens(self, tree):
        assert tree.shared_prefix_tokens(4, 5) == 15
        assert tree.shared_prefix_tokens(4, 6) == 10

    def test_different_roots_share_nothing(self):
        t = RadixTree()
        t.add_node(1, None, 1)
        t.add_node(2, None, 1)
        assert t.shared_prefix_nodes(1, 2) == 0

    def test_depth(self, tree):
        assert tree.get(1).depth == 0
        assert tree.get(4).depth == 2

    def test_leaves(self, tree):
        assert tree.leaves() == [4, 5, 6]

    def test_idempotent_insert(self, tree):
        tree.add_node(4, 2, 3)  # same attributes: fine
        assert len(tree) == 6

    def test_conflicting_insert_raises(self, tree):
        with pytest.raises(ValueError):
            tree.add_node(4, 3, 3)
        with pytest.raises(ValueError):
            tree.add_node(4, 2, 99)

    def test_missing_parent_raises(self):
        t = RadixTree()
        with pytest.raises(KeyError):
            t.add_node(2, 1, 1)

    def test_regrown_length_feeds_path_tokens(self, tree):
        tree.get(4).token_len = 30  # how an owner of the nodes regrows one
        assert tree.shared_prefix_tokens(4, 4) == 45

    def test_node_type_is_what_add_node_builds(self):
        class Tagged(RadixNode):
            pass

        t = RadixTree(Tagged)
        assert type(t.add_node(1, None, 4)) is Tagged

    def test_negative_token_len_raises(self, tree):
        with pytest.raises(ValueError):
            tree.add_node(99, 1, -1)

    def test_contains(self, tree):
        assert 3 in tree
        assert 99 not in tree

