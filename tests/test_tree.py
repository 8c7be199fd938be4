"""AvlTree: insert, strategy-parameterized delete, search, validation."""

import itertools
import math
import numbers
import re

import pytest

from avlkit import (
    AvlMap,
    AvlTree,
    DeletionTrace,
    Direction,
    Phase,
    ReplacementStrategy,
    RotationKind,
    StructuralError,
    format_tree,
)
from avlkit.rng import SplitMix64
import avlkit.tree as tree_mod
from avlkit.tree import Node, _sound, select_replacement

from reference import (
    all_nodes,
    assert_tree_sane,
    balance_errors,
    inorder_keys,
    reference_violations,
    shape_signature,
)

RIGHTMOST = ReplacementStrategy.RIGHTMOST_OF_LEFT
LEFTMOST = ReplacementStrategy.LEFTMOST_OF_RIGHT
OPTIMUM = ReplacementStrategy.OPTIMUM


class TestInsert:
    def test_first_insert_never_rotates(self):
        tree = AvlTree()
        assert tree.insert(10) == (True, [])
        assert tree.root.key == 10
        assert tree.root.balance == 0
        assert tree.size == 1

    def test_ascending_run_triggers_rr(self):
        tree = AvlTree()
        tree.insert(1)
        tree.insert(2)
        inserted, events = tree.insert(3)
        assert inserted
        assert [e.kind for e in events] == [RotationKind.RR]
        assert all(e.phase is Phase.INSERT for e in events)
        assert tree.root.key == 2
        assert_tree_sane(tree, "after 1,2,3")

    def test_duplicate_rejected(self):
        tree = AvlTree([2])
        assert tree.insert(2) == (False, [])
        assert tree.size == 1
        assert tree.in_order() == [2]

    def test_descending_run_triggers_ll(self):
        tree = AvlTree()
        tree.insert(3)
        tree.insert(2)
        _, events = tree.insert(1)
        assert [e.kind for e in events] == [RotationKind.LL]
        assert tree.root.key == 2

    def test_zigzag_triggers_doubles(self):
        tree = AvlTree()
        tree.insert(3)
        tree.insert(1)
        _, events = tree.insert(2)
        assert [e.kind for e in events] == [RotationKind.LR]
        tree2 = AvlTree()
        tree2.insert(1)
        tree2.insert(3)
        _, events2 = tree2.insert(2)
        assert [e.kind for e in events2] == [RotationKind.RL]

    def test_two_node_tree_never_rotates(self):
        # |balance| stays below 2, so the rebalancing threshold is never met
        tree = AvlTree()
        tree.insert(2)
        inserted, events = tree.insert(1)
        assert inserted and events == []
        assert tree.root.balance == -1

    def test_at_most_one_rotation_per_insert(self):
        rng = SplitMix64(99)
        for _ in range(5):
            tree = AvlTree()
            for _ in range(600):
                _, events = tree.insert(rng.below(10_000))
                assert len(events) <= 1
            assert_tree_sane(tree, "random inserts")


def demo_tree():
    """4 -> (2 -> (1, 3), 5), root balance -1."""
    tree = AvlTree([4, 2, 5, 1, 3])
    assert tree.root.key == 4
    assert tree.root.balance == -1
    return tree


def minimal_left_heavy(height, counter):
    """Sparsest AVL shape of the given height, every inner node at balance -1.

    Keys come from `counter` in in-order position, so BST order holds by
    construction.
    """
    if height <= 0:
        return None
    node = Node(None)
    node.left = minimal_left_heavy(height - 1, counter)
    node.key = next(counter)
    node.right = minimal_left_heavy(height - 2, counter)
    node.balance = -1 if height >= 2 else 0
    return node


class TestDelete:
    def test_absent_key_from_empty(self):
        tree = AvlTree()
        assert tree.delete(7) == (False, [])

    def test_absent_key_leaves_tree_alone(self):
        tree = demo_tree()
        assert tree.delete(99, OPTIMUM) == (False, [])
        assert tree.size == 5
        assert_tree_sane(tree, "after absent delete")

    def test_balanced_root_uses_left_tiebreak(self):
        tree = AvlTree([2, 1, 3])
        trace = DeletionTrace()
        deleted, events = tree.delete(2, OPTIMUM, trace)
        assert deleted and events == []
        assert trace.direction is Direction.LEFT
        assert tree.root.key == 1
        assert tree.in_order() == [1, 3]
        assert_tree_sane(tree, "tiebreak delete")

    def test_optimum_follows_taller_side_and_avoids_rotation(self):
        tree = demo_tree()
        trace = DeletionTrace()
        deleted, events = tree.delete(4, OPTIMUM, trace)
        assert deleted and events == []
        assert trace.direction is Direction.LEFT
        assert trace.replacement_key == 3
        assert tree.root.key == 3
        assert_tree_sane(tree, "optimum delete")

    def test_successor_choice_forces_rotation(self):
        tree = demo_tree()
        trace = DeletionTrace()
        deleted, events = tree.delete(4, LEFTMOST, trace)
        assert deleted
        assert trace.direction is Direction.RIGHT
        assert trace.replacement_key == 5
        assert [e.kind for e in events] == [RotationKind.LL]
        assert all(e.phase is Phase.DELETE for e in events)
        assert tree.in_order() == [1, 2, 3, 5]
        assert_tree_sane(tree, "successor delete")

    def test_predecessor_strategy_always_goes_left(self):
        tree = demo_tree()
        trace = DeletionTrace()
        tree.delete(4, RIGHTMOST, trace)
        assert trace.direction is Direction.LEFT
        assert trace.replacement_key == 3

    @pytest.mark.parametrize("key", [1, 2, 99])  # a leaf, a node with one child, absent
    @pytest.mark.parametrize("method", ["delete", "pop"])
    def test_reused_trace_holds_only_the_last_call(self, key, method):
        tree = demo_tree()
        trace = DeletionTrace()
        tree.delete(4, OPTIMUM, trace)
        assert trace == DeletionTrace(True, -1, Direction.LEFT, 3)
        getattr(tree, method)(key, OPTIMUM, trace)
        assert trace == DeletionTrace()

    def test_a_call_that_raises_leaves_the_trace_alone(self):
        tree = demo_tree()
        trace = DeletionTrace()
        tree.delete(4, OPTIMUM, trace)
        for remove in (tree.delete, tree.pop):
            with pytest.raises(ValueError):
                remove(2, "optimum", trace)
            with pytest.raises(TypeError):
                remove("x", OPTIMUM, trace)  # str < int
        assert trace == DeletionTrace(True, -1, Direction.LEFT, 3)

    def test_single_child_and_leaf_removal(self):
        tree = AvlTree([2, 1, 3, 4])
        assert tree.delete(3, OPTIMUM)[0]  # single right child
        assert tree.in_order() == [1, 2, 4]
        assert tree.delete(1, OPTIMUM)[0]  # leaf
        assert tree.in_order() == [2, 4]
        assert_tree_sane(tree, "small removals")

    def test_deletion_can_cascade_multiple_rotations(self):
        # minimal-size (left-heavy) tree of height 5: removing the rightmost
        # key walks the sparse side, so retracing rotates more than once
        tree = AvlTree()
        tree.root = minimal_left_heavy(5, counter=iter(range(1, 100)))
        tree.size = len(tree.in_order())
        assert tree.validate().ok
        rightmost = tree.in_order()[-1]
        deleted, events = tree.delete(rightmost, OPTIMUM)
        assert deleted
        assert len(events) >= 2
        assert_tree_sane(tree, "minimal-tree cascade")

    def test_delete_events_bounded_by_height(self):
        rng = SplitMix64(5)
        tree = AvlTree()
        keys = list(range(512))
        order = list(keys)
        rng.shuffle(order)
        for k in order:
            tree.insert(k)
        while tree.size:
            height_before = tree.height()
            key = tree.in_order()[rng.below(tree.size)]
            _, events = tree.delete(key, OPTIMUM)
            assert len(events) <= height_before


class TestStoredNone:
    """A stored None is a value like any other, not the absence of a key."""

    def test_put_none_twice_keeps_one_key(self):
        tree = AvlTree()
        assert tree.put("k", None) == (None, [])
        assert tree.put("k", None) == (None, [])
        assert tree.size == 1
        assert "k" in tree

    def test_pop_of_stored_none_is_found(self):
        tree = AvlTree()
        tree.put("k", None)
        assert tree.pop("k") == (True, None, [])
        assert tree.size == 0
        assert tree.pop("k") == (False, None, [])
        assert tree.size == 0

    def test_duplicate_insert_into_set_tree_is_rejected(self):
        tree = AvlTree([2, 1, 3])
        assert tree.insert(2) == (False, [])
        assert tree.size == 3
        assert_tree_sane(tree, "after duplicate insert")


class TestSelectReplacement:
    def test_fixed_strategies_ignore_balance(self):
        for balance in (-1, 0, 1):
            node = Node(2)
            node.left = Node(1)
            node.right = Node(3)
            node.balance = balance
            assert select_replacement(node, RIGHTMOST) is Direction.LEFT
            assert select_replacement(node, LEFTMOST) is Direction.RIGHT

    def test_optimum_follows_taller_subtree(self):
        node = Node(2)
        node.left = Node(1)
        node.right = Node(3)
        node.balance = -1
        assert select_replacement(node, OPTIMUM) is Direction.LEFT
        node.balance = 1
        assert select_replacement(node, OPTIMUM) is Direction.RIGHT
        node.balance = 0
        assert select_replacement(node, OPTIMUM) is Direction.LEFT  # fixed tie-break

    def test_requires_two_children(self):
        node = Node(2)
        node.left = Node(1)
        with pytest.raises(StructuralError):
            select_replacement(node, OPTIMUM)
        node.left, node.right = None, Node(3)
        with pytest.raises(StructuralError):
            select_replacement(node, OPTIMUM)

    @pytest.mark.parametrize("strategy", ["leftmost", "optimum", None, Direction.LEFT])
    def test_unknown_strategy_raises(self, strategy):
        node = Node(2)
        node.left = Node(1)
        node.right = Node(3)
        message = re.escape(f"unknown replacement strategy {strategy!r}")
        with pytest.raises(ValueError, match=message):
            select_replacement(node, strategy)


class TestUnknownStrategy:
    """A strategy that is not a ReplacementStrategy member is refused before the descent."""

    @pytest.mark.parametrize("strategy", ["leftmost", "optimum", None, 1])
    @pytest.mark.parametrize("key", [4, 1, 99])  # two children, a leaf, absent
    def test_delete_and_pop_leave_the_tree_unchanged(self, strategy, key):
        tree = AvlTree([4, 2, 6, 1, 3, 5, 7])
        before = layout(tree.root)
        message = re.escape(f"unknown replacement strategy {strategy!r}")
        for delete in (tree.delete, tree.pop):
            with pytest.raises(ValueError, match=message):
                delete(key, strategy)
        assert layout(tree.root) == before
        assert tree.size == 7

    def test_before_any_comparison(self):
        tree = AvlTree([CountingKey(n) for n in range(8)])
        CountingKey.comparisons = 0
        with pytest.raises(ValueError):
            tree.delete(CountingKey(3), "optimum")
        assert CountingKey.comparisons == 0

    def test_map_delete(self):
        mapping = AvlMap([(1, "a")])
        with pytest.raises(ValueError, match="'x'"):
            mapping.delete(1, "x")
        assert mapping.items() == [(1, "a")]


class CountingKey:
    """Totally ordered key that counts comparison operations."""

    comparisons = 0

    def __init__(self, n):
        self.n = n

    def _cmp(self, other):
        CountingKey.comparisons += 1
        return self.n - (other.n if isinstance(other, CountingKey) else other)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __eq__(self, other):
        return self._cmp(other) == 0

    def __hash__(self):
        return hash(self.n)


class TestSearch:
    def test_empty(self):
        assert AvlTree().search(42) is False

    def test_membership(self):
        tree = AvlTree([5, 3, 8])
        assert tree.search(3) is True
        assert tree.search(4) is False
        assert 8 in tree
        assert 9 not in tree

    def test_search_does_not_mutate(self):
        tree = AvlTree([5, 3, 8])
        before = tree.in_order()
        tree.search(3)
        tree.search(999)
        assert tree.in_order() == before
        assert tree.validate().ok

    def test_comparisons_bounded_by_height_plus_one(self):
        tree = AvlTree(CountingKey(n) for n in range(200))
        height = tree.height()
        rng = SplitMix64(3)
        for _ in range(100):
            probe = CountingKey(rng.below(250))
            CountingKey.comparisons = 0
            tree.search(probe)
            assert CountingKey.comparisons <= height + 1


class LessThanOnly:
    """Key ordered by __lt__ alone; == falls back to identity."""

    __slots__ = ("n",)

    def __init__(self, n):
        self.n = n

    def __lt__(self, other):
        return self.n < other.n


class RealNaN:
    """A numbers.Real that is not a float and, like NaN, compares False with everything."""

    def __lt__(self, other):
        return False

    __le__ = __gt__ = __ge__ = __eq__ = __lt__  # so != is True, even with itself


numbers.Real.register(RealNaN)


class TestSelfUnequalKeys:
    """A key that is not equal to itself (NaN) is never stored and never matched."""

    NAN = float("nan")

    def test_insert_and_put_raise_and_leave_the_tree_unchanged(self):
        for keys in ([], [1.0], [1.0, 2.0, 3.0], [float(n) for n in range(20)]):
            tree = AvlTree(keys)
            before = layout(tree.root)
            for mutate in (tree.insert, lambda key: tree.put(key, "v")):
                with pytest.raises(ValueError, match="key nan is not equal to itself"):
                    mutate(self.NAN)
                assert layout(tree.root) == before
                assert tree.size == len(keys)
        tree = AvlTree()
        with pytest.raises(ValueError):
            tree.insert(self.NAN)
        assert tree.insert(1.0) == (True, [])
        assert tree.in_order() == [1.0]

    def test_lookups_and_deletes_find_nothing(self):
        tree = AvlTree([1.0, 2.0, 3.0])
        tree.put(2.0, "two")
        assert self.NAN not in tree
        assert tree.search(self.NAN) is False
        assert tree.get(self.NAN, "none") == "none"
        for strategy in ReplacementStrategy:
            assert tree.delete(self.NAN, strategy) == (False, [])
            assert tree.pop(self.NAN, strategy) == (False, None, [])
        assert tree.items_in_order() == [(1.0, None), (2.0, "two"), (3.0, None)]
        assert tree.validate().ok

    @pytest.mark.parametrize("make_nan", [
        RealNaN, lambda: pytest.importorskip("numpy").float32("nan")], ids=["registered", "numpy"])
    def test_a_real_nan_that_is_not_a_float(self, make_nan):
        nan = make_nan()
        tree = AvlTree([1.0, 2.0, 3.0])
        tree.put(3.0, "three")
        assert tree.get(nan, "none") == "none"
        assert nan not in tree
        assert tree.search(nan) is False
        assert AvlMap([(1.0, "a"), (3.0, "c")]).get(nan) is None
        with pytest.raises(ValueError, match="is not equal to itself"):
            tree.insert(nan)
        assert tree.delete(nan) == (False, [])
        assert tree.items_in_order() == [(1.0, None), (2.0, None), (3.0, "three")]

    def test_map(self):
        mapping = AvlMap([(1.0, "a"), (2.0, "b")])
        with pytest.raises(ValueError, match="nan"):
            mapping.insert(self.NAN, "c")
        assert mapping.get(self.NAN) is None
        assert self.NAN not in mapping
        assert mapping.delete(self.NAN) is None
        assert mapping.items() == [(1.0, "a"), (2.0, "b")]


class TestLessThanOnlyKeys:
    """Equal keys are those neither of which is less than the other."""

    def tree(self):
        return AvlTree(LessThanOnly(n) for n in (5, 3, 8, 1, 4, 7, 9))

    def test_duplicate_insert_and_put(self):
        tree = self.tree()
        assert tree.insert(LessThanOnly(4)) == (False, [])
        assert tree.put(LessThanOnly(4), "four") == (None, [])
        assert tree.put(LessThanOnly(4), "FOUR") == ("four", [])
        assert tree.size == 7
        assert tree.validate().ok

    def test_delete(self):
        tree = self.tree()
        assert tree.delete(LessThanOnly(5))[0] is True
        assert tree.delete(LessThanOnly(5))[0] is False
        assert [key.n for key in tree] == [1, 3, 4, 7, 8, 9]
        assert tree.validate().ok

    def test_lookups_find_stored_keys(self):
        tree = self.tree()
        tree.put(LessThanOnly(1), "one")
        for n in (1, 3, 4, 5, 7, 8, 9):
            assert tree.search(LessThanOnly(n)) is True
            assert LessThanOnly(n) in tree
        assert tree.get(LessThanOnly(1)) == "one"
        assert tree.get(LessThanOnly(6), "none") == "none"
        assert tree.search(LessThanOnly(6)) is False
        assert LessThanOnly(0) not in tree

    def test_map_get(self):
        mapping = AvlMap((LessThanOnly(n), n * 10) for n in range(20))
        assert [mapping.get(LessThanOnly(n)) for n in range(20)] == [n * 10 for n in range(20)]
        assert mapping.get(LessThanOnly(20), -1) == -1
        assert LessThanOnly(19) in mapping


class TestInOrder:
    def test_empty(self):
        assert AvlTree().in_order() == []

    def test_sorted_output(self):
        tree = AvlTree([3, 1, 2])
        assert tree.in_order() == [1, 2, 3]

    def test_iteration_matches_in_order(self):
        tree = AvlTree([9, 4, 7, 1])
        assert list(tree) == tree.in_order()


class TestValidate:
    def test_empty_tree_valid(self):
        assert AvlTree().validate().ok

    def test_planted_balance_mismatch(self):
        tree = AvlTree([2, 1, 3])
        tree.root.balance = 1  # equal-height subtrees say 0
        report = tree.validate()
        assert not report.ok
        assert [v.kind for v in report.violations] == ["balance-mismatch"]

    def test_planted_bst_violation(self):
        tree = AvlTree([2, 1, 3])
        tree.root.left.key = 5
        report = tree.validate()
        assert any(v.kind == "bst-order" for v in report.violations)

    def test_planted_height_violation(self):
        tree = AvlTree([4, 2, 5, 1])
        # graft an extra chain to break the height bound
        tree.root.left.left.left = Node(0)
        tree.root.left.left.left.left = Node(-1)
        report = tree.validate()
        assert any(v.kind == "avl-height" for v in report.violations)

    @pytest.mark.parametrize("size", [5, None, 2.5])
    def test_size_mismatch(self, size):
        tree = AvlTree([1, 2])
        tree.size = size
        report = tree.validate()
        assert [(v.kind, v.key, v.detail) for v in report.violations] == [
            ("size-mismatch", None, f"size says {size}, found 2 reachable nodes")]

    def test_validate_never_mutates(self):
        tree = AvlTree([2, 1, 3])
        tree.root.balance = 1
        tree.validate()
        assert tree.root.balance == 1


def cycle_tree():
    tree = AvlTree([4, 2, 5, 1, 3])
    tree.root.left.left = tree.root
    return tree


def shared_link_tree():
    tree = AvlTree([4, 2, 5, 1, 3])
    tree.root.right.left = tree.root.left
    return tree


def self_loop_tree():
    tree = AvlTree([4, 2, 5, 1, 3])
    tree.root.left.left.left = tree.root.left.left
    return tree


def chain_tree(length, link, size):
    """Keys 0..length-1 in order, every node linked through `link`; balances left at 0."""
    keys = range(length) if link == "right" else range(length - 1, -1, -1)
    tree = AvlTree()
    tree.root = node = Node(keys[0])
    for key in keys[1:]:
        setattr(node, link, Node(key))
        node = getattr(node, link)
    tree.size = size
    return tree


def preorder(node):
    """Every node in pre-order, without recursion."""
    stack = [node]
    while stack:
        node = stack.pop()
        if node is not None:
            yield node
            stack += [node.right, node.left]


def layout(root):
    return [(n.key, n.balance, n.left is None, n.right is None) for n in preorder(root)]


class TestCorruptedStructures:
    """A cycle, a shared link and a deep chain get a defined result, never a RecursionError."""

    @pytest.mark.parametrize("make, key",
                             [(cycle_tree, 4), (shared_link_tree, 2), (self_loop_tree, 1)])
    @pytest.mark.parametrize("size", [5, 20])  # below and above the shared link's 8 nodes reached
    def test_node_reached_twice(self, make, key, size):
        tree = make()
        tree.size = size
        assert [(v.kind, v.key) for v in tree.validate().violations] == [("cycle", key)]
        for walk in (tree.height, tree.clone, lambda: format_tree(tree),
                     tree.in_order, tree.items_in_order, lambda: list(tree)):
            with pytest.raises(StructuralError, match=f"node {key} is reached twice"):
                walk()

    def test_shared_link_whose_repeats_count_to_size(self):
        # 4, 5, then 2, 1 and 3 twice: eight nodes reached, as size says
        tree = shared_link_tree()
        tree.size = 8
        assert [(v.kind, v.key) for v in tree.validate().violations] == [("cycle", 2)]
        for walk in (tree.height, tree.clone, lambda: format_tree(tree),
                     tree.in_order, tree.items_in_order, lambda: list(tree)):
            with pytest.raises(StructuralError, match="node 2 is reached twice"):
                walk()

    @pytest.mark.parametrize("link", ["left", "right"])
    @pytest.mark.parametrize("size", [2000, 1500, 2500, None, 2.5])
    def test_2000_node_chain(self, link, size):
        tree = chain_tree(2000, link, size)
        expected = []
        for below in range(2000):  # post-order: the deepest node first
            key = 1999 - below if link == "right" else below
            left_h, right_h = (0, below) if link == "right" else (below, 0)
            if below > 1:
                expected.append(("avl-height", key,
                                 f"subtree heights {left_h} and {right_h} differ by more than one"))
            if below:
                expected.append(("balance-mismatch", key,
                                 f"stored balance 0, recomputed {right_h - left_h}"))
        if size != 2000:
            expected.append(("size-mismatch", None, f"size says {size}, found 2000 reachable nodes"))
        assert [(v.kind, v.key, v.detail) for v in tree.validate().violations] == expected
        assert tree.height() == 2000
        twin = tree.clone()
        assert twin.size == size
        assert layout(twin.root) == layout(tree.root)
        assert not set(preorder(twin.root)) & set(preorder(tree.root))
        assert len(format_tree(tree).splitlines()) == 2000
        assert tree.in_order() == list(range(2000))


def random_trees(seed, steps):
    """A tree after each step of a random insert/delete run over all strategies."""
    rng = SplitMix64(seed)
    strategies = list(ReplacementStrategy)
    tree = AvlTree()
    for _ in range(steps):
        key = rng.below(300)
        if rng.below(3):
            tree.insert(key)
        else:
            tree.delete(key, strategies[rng.below(3)])
        yield tree


def swept_trees():
    """Every tree reachable from keys 1..7, before and after each deletion."""
    shapes = {}
    for size in range(1, 8):
        for perm in itertools.permutations(range(1, size + 1)):
            tree = AvlTree(perm)
            shapes.setdefault(shape_signature(tree.root), tree)
    for tree in shapes.values():
        yield tree
        for key in tree.in_order():
            for strategy in ReplacementStrategy:
                copy = tree.clone()
                copy.delete(key, strategy)
                yield copy


def forbid_exact_walk(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the exact walk ran on a sound tree")
    monkeypatch.setattr(tree_mod, "_post_order", forbidden)


class TestValidateFastPath:
    """The yes/no pass alone must accept every sound tree."""

    def test_random_insert_delete_runs(self, monkeypatch):
        forbid_exact_walk(monkeypatch)
        checked = 0
        for seed in (1, 2, 3):
            for tree in random_trees(seed, 1500):
                assert tree.validate().ok
                checked += 1
        assert checked == 4500

    def test_exhaustive_sweep_of_keys_1_to_7(self, monkeypatch):
        trees = list(swept_trees())  # clone() uses the exact walk, so it runs first
        forbid_exact_walk(monkeypatch)
        for tree in trees:
            assert tree.validate().ok
        assert len(trees) == 626  # 35 shapes, then 197 keys x 3 strategies

    def test_one_key_comparison_per_adjacent_pair(self):
        trees = itertools.chain(*(random_trees(seed, 1500) for seed in (1, 2, 3)), swept_trees())
        for tree in trees:
            copy = tree.clone()  # random_trees goes on with int keys
            for node in all_nodes(copy.root):
                node.key = CountingKey(node.key)
            CountingKey.comparisons = 0
            assert _sound(copy.root, copy.size) is True
            assert CountingKey.comparisons == max(copy.size - 1, 0)


class FailingKey:
    """Int-like key whose comparisons raise once a shared allowance runs out."""

    allowance = 0

    def __init__(self, n):
        self.n = n

    def __lt__(self, other):
        if FailingKey.allowance <= 0:
            raise RuntimeError("comparison refused")
        FailingKey.allowance -= 1
        return self.n < other.n

    def __repr__(self):
        return f"FailingKey({self.n})"


def outcome(check):
    try:
        return check()
    except Exception as exc:  # the type is the outcome
        return type(exc)


class TestValidateEdgeInputs:
    """Inputs at the edge of the two passes get the result of the exact walk alone."""

    @pytest.mark.parametrize("corrupt", [False, True])
    def test_comparisons_that_raise_after_n_calls(self, corrupt, monkeypatch):
        FailingKey.allowance = 100
        tree = AvlTree([FailingKey(n) for n in (5, 2, 8, 1, 3, 7, 9, 4, 6)])
        if corrupt:
            tree.root.balance = 1  # its subtrees are of equal height

        def report():
            return [(v.kind, v.key, v.detail) for v in tree.validate().violations]

        for allowance in range(12):
            with monkeypatch.context() as exact_only:
                exact_only.setattr(tree_mod, "_sound", lambda root, size: False)
                FailingKey.allowance = allowance
                expected = outcome(report)
            FailingKey.allowance = allowance
            got = outcome(report)
            # on a sound tree the pass makes the exact walk's 8 comparisons;
            # on a rejected one its own come first, so only a raise must match
            if expected is RuntimeError or not corrupt:
                assert got == expected, allowance
            assert (expected is RuntimeError) == (allowance < 8)
            if allowance >= 8:
                assert bool(expected) == corrupt

    @pytest.mark.parametrize("stored", [True, 1.0])
    def test_balance_stored_as_another_type(self, stored):
        tree = AvlTree(range(1, 13))
        for node in all_nodes(tree.root):
            if node.balance == 1:
                node.balance = stored
        assert tree.validate().ok
        tree.root.balance = stored  # its subtrees are of equal height
        report = [(v.kind, v.key, v.detail) for v in tree.validate().violations]
        assert report == reference_violations(tree) != []


PERFECT = range(1, 8)  # 4 over 2 and 6, over the leaves 1, 3, 5 and 7
# 8 over a perfect 4; 10 over the leaf 9 and 12, which is over the leaves 11 and 13
LEFT_LEAF_BESIDE_HEIGHT_2 = (8, 4, 10, 2, 6, 9, 12, 1, 3, 5, 7, 11, 13)
# 8 over a perfect 4; 12 over 10, which is over the leaves 9 and 11, and the leaf 13
RIGHT_LEAF_BESIDE_HEIGHT_2 = (8, 4, 12, 2, 6, 10, 13, 1, 3, 5, 7, 9, 11)


def node_at(tree, key):
    return next(node for node in all_nodes(tree.root) if node.key == key)


class TestSoundLeafChildren:
    """The yes/no pass checks a leaf child from its parent; each of those checks rejects."""

    @pytest.mark.parametrize("keys, key, field, value", [
        *((PERFECT, leaf, "balance", balance)
          for leaf in (1, 3) for balance in (1, -1, True)),
        (PERFECT, 1, "key", 2),  # a left leaf not below its parent
        (PERFECT, 5, "key", 3.5),  # a left leaf below its lower bound, 4
        (PERFECT, 3, "key", 2),  # a right leaf not above its parent
        (PERFECT, 3, "key", 4.5),  # a right leaf above its upper bound, 4
        # the parent's balance 0 expects the leaf beside a height-2 subtree at height 2
        (LEFT_LEAF_BESIDE_HEIGHT_2, 10, "balance", 0),
        (RIGHT_LEAF_BESIDE_HEIGHT_2, 12, "balance", 0),
    ])
    def test_a_bad_leaf_child(self, keys, key, field, value):
        tree = AvlTree(keys)
        assert _sound(tree.root, tree.size) is True
        setattr(node_at(tree, key), field, value)
        assert _sound(tree.root, tree.size) is False
        report = [(v.kind, v.key, v.detail) for v in tree.validate().violations]
        assert report == reference_violations(tree) != []

    @pytest.mark.parametrize("size", [6, 8])
    def test_a_size_off_by_one_when_the_last_nodes_are_leaf_children(self, size):
        tree = AvlTree(PERFECT)
        tree.size = size
        assert _sound(tree.root, tree.size) is False
        report = [(v.kind, v.key, v.detail) for v in tree.validate().violations]
        assert report == reference_violations(tree) == [
            ("size-mismatch", None, f"size says {size}, found 7 reachable nodes")]

    def test_a_leaf_shared_by_two_parents(self):
        tree = AvlTree(PERFECT)
        tree.root.right.left = tree.root.left.right  # 3: right of 2 and left of 6
        tree.size = 7  # the nodes reached, counting 3 twice
        assert _sound(tree.root, tree.size) is False
        # the recursive reference cannot see a shared node; the exact walk reports it
        assert [(v.kind, v.key) for v in tree.validate().violations] == [("cycle", 3)]


class TestFormatTree:
    def test_pinned_text_before_and_after_a_delete(self):
        tree = AvlTree([4, 2, 5, 1, 3])
        assert format_tree(tree) == (
            "4 (-1)\n"
            "|-- L: 2 (0)\n"
            "|   |-- L: 1 (0)\n"
            "|   `-- R: 3 (0)\n"
            "`-- R: 5 (0)")
        tree.delete(4)
        assert format_tree(tree) == (
            "3 (-1)\n"
            "|-- L: 2 (-1)\n"
            "|   `-- L: 1 (0)\n"
            "`-- R: 5 (0)")

    def test_empty(self):
        assert format_tree(AvlTree()) == "(empty)"

    def test_one_walk_draws_and_checks(self, monkeypatch):
        def second_walk(root):
            raise AssertionError("format_tree walked the tree before drawing it")
        monkeypatch.setattr(tree_mod, "_post_order", second_walk)
        self.test_pinned_text_before_and_after_a_delete()
        for make, key in ((cycle_tree, 4), (shared_link_tree, 2), (self_loop_tree, 1)):
            with pytest.raises(StructuralError, match=f"node {key} is reached twice"):
                format_tree(make())


class TestHeightBound:
    def test_bound_holds_up_to_2_pow_16(self):
        rng = SplitMix64(2024)
        keys = list(range(1 << 16))
        rng.shuffle(keys)
        tree = AvlTree()
        checkpoints = {(1 << p) for p in range(17)}
        for i, key in enumerate(keys, start=1):
            tree.insert(key)
            if i in checkpoints:
                assert tree.height() <= 1.4405 * math.log2(tree.size + 2)
        assert tree.height() <= 1.4405 * math.log2(tree.size + 2)
        assert tree.size == 1 << 16


class TestClone:
    def test_clone_is_independent(self):
        tree = AvlTree([4, 2, 5, 1, 3])
        twin = tree.clone()
        tree.delete(4)
        assert twin.in_order() == [1, 2, 3, 4, 5]
        assert twin.validate().ok
        assert tree.in_order() == [1, 2, 3, 5]

    def test_clone_preserves_balances(self):
        tree = AvlTree(range(20))
        twin = tree.clone()
        assert not balance_errors(twin.root)
        assert inorder_keys(twin.root) == inorder_keys(tree.root)


class TestPairwiseRotationComparison:
    """The balance-guided strategy wins in aggregate, not on every instance."""

    def test_aggregate_optimum_never_worse_on_random_workloads(self):
        # paired comparison on cloned trees: summed over many two-child
        # deletions, following the taller subtree costs fewer rotations
        rng = SplitMix64(31)
        totals = {OPTIMUM: 0, "baseline": 0}
        compared = 0
        for _ in range(60):
            tree = AvlTree()
            for _ in range(400):
                tree.insert(rng.below(4000))
            for node_key in list(tree.in_order()):
                node = tree.root
                while node is not None and node.key != node_key:
                    node = node.left if node_key < node.key else node.right
                if node is None or node.left is None or node.right is None:
                    continue
                if node.balance == -1:
                    baseline = LEFTMOST
                elif node.balance == 1:
                    baseline = RIGHTMOST
                else:
                    continue
                a, b = tree.clone(), tree.clone()
                _, opt_events = a.delete(node_key, OPTIMUM)
                _, base_events = b.delete(node_key, baseline)
                totals[OPTIMUM] += len(opt_events)
                totals["baseline"] += len(base_events)
                compared += 1
        assert compared > 1000
        assert totals[OPTIMUM] < totals["baseline"]

    def test_single_instance_can_go_either_way(self):
        # counterexample kept on purpose: replacing from the taller side can
        # trip a rotation deep inside it while the shorter side absorbs the
        # removal, so a per-instance "never more rotations" claim is false
        tree = AvlTree()
        tree.size = 8
        n = {k: Node(k) for k in range(1, 9)}
        tree.root = n[4]
        n[4].left, n[4].right, n[4].balance = n[2], n[6], 1
        n[2].left, n[2].right, n[2].balance = n[1], n[3], 0
        n[6].left, n[6].right, n[6].balance = n[5], n[7], 1
        n[7].right, n[7].balance = n[8], 1
        assert tree.validate().ok

        optimum_copy, baseline_copy = tree.clone(), tree.clone()
        _, opt_events = optimum_copy.delete(4, OPTIMUM)
        _, base_events = baseline_copy.delete(4, RIGHTMOST)
        assert len(opt_events) == 1   # successor removal unbalances node 6
        assert len(base_events) == 0  # predecessor removal is absorbed at node 2
        assert_tree_sane(optimum_copy, "counterexample optimum")
        assert_tree_sane(baseline_copy, "counterexample baseline")
