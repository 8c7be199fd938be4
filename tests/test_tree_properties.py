"""Property-based tests: structural invariants under arbitrary workloads."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from avlkit import (
    AvlMap,
    AvlTree,
    DeletionTrace,
    Direction,
    Phase,
    ReplacementStrategy,
    RotationEvent,
    RotationKind,
)

from avlkit.tree import Node, _sound

from reference import (
    ReferenceAvl,
    all_nodes,
    assert_tree_sane,
    recomputed_layout,
    reference_violations,
    shape_signature,
)

STRATEGIES = list(ReplacementStrategy)

keys_strategy = st.lists(st.integers(min_value=-50, max_value=50))

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "search"]),
        st.integers(min_value=-30, max_value=30),
        st.sampled_from(STRATEGIES),
    ),
    max_size=200,
)


@given(keys_strategy)
def test_insert_only_matches_sorted_set(keys):
    tree = AvlTree()
    for key in keys:
        tree.insert(key)
    assert tree.in_order() == sorted(set(keys))
    assert tree.validate().ok
    assert_tree_sane(tree, "insert-only")


@given(keys_strategy)
def test_insert_emits_at_most_one_rotation(keys):
    tree = AvlTree()
    for key in keys:
        _, events = tree.insert(key)
        assert len(events) <= 1


@given(ops_strategy)
def test_mixed_ops_keep_every_invariant(ops):
    tree = AvlTree()
    model = set()
    for action, key, strategy in ops:
        if action == "insert":
            inserted, _ = tree.insert(key)
            assert inserted == (key not in model)
            model.add(key)
        elif action == "delete":
            deleted, _ = tree.delete(key, strategy)
            assert deleted == (key in model)
            model.discard(key)
        else:
            assert tree.search(key) == (key in model)
            continue
        assert tree.validate().ok
        assert tree.in_order() == sorted(model)
    assert_tree_sane(tree, "mixed ops")


@given(st.lists(st.tuples(st.sampled_from(["insert", "delete", "pop"]),
                          st.integers(min_value=0, max_value=15),
                          st.sampled_from(STRATEGIES)), max_size=200))
# OPTIMUM at a balance-0 two-child node, which random ops rarely reach
@example([(action, key, ReplacementStrategy.OPTIMUM)
          for action, key in [("insert", 2), ("insert", 1), ("insert", 3), ("delete", 2)]])
def test_trace_reports_the_heir_the_strategy_takes(ops):
    """Every DeletionTrace field, for all three strategies, against the tree
    as it stood before the call: a two-child node's balance, the side the
    strategy's rule picks, and the in-order neighbour on that side. Keys
    come from a small range so that most deletions find their key. One
    trace serves every delete and pop, so each call must overwrite what
    the one before it wrote."""
    tree = AvlTree()
    trace = DeletionTrace()
    for action, key, strategy in ops:
        if action == "insert":
            tree.insert(key)
            continue
        node = tree.root
        while node is not None and node.key != key:
            node = node.left if key < node.key else node.right
        two_child = node is not None and node.left is not None and node.right is not None
        balance = node.balance if node is not None else None
        keys = tree.in_order()
        getattr(tree, action)(key, strategy, trace)
        if not two_child:
            assert trace == DeletionTrace()
            continue
        assert trace.two_child is True
        assert trace.node_balance == balance
        if strategy is ReplacementStrategy.RIGHTMOST_OF_LEFT:
            direction = Direction.LEFT
        elif strategy is ReplacementStrategy.LEFTMOST_OF_RIGHT:
            direction = Direction.RIGHT
        else:  # OPTIMUM: the taller side, left at balance 0
            direction = Direction.RIGHT if balance > 0 else Direction.LEFT
        assert trace.direction is direction
        position = keys.index(key)
        neighbour = keys[position - 1] if direction is Direction.LEFT else keys[position + 1]
        assert trace.replacement_key == neighbour


@given(keys_strategy, st.sampled_from(STRATEGIES))
def test_delete_then_reinsert_restores_contents(keys, strategy):
    tree = AvlTree()
    for key in keys:
        tree.insert(key)
    if not keys:
        return
    target = keys[len(keys) // 2]
    before = tree.in_order()
    tree.delete(target, strategy)
    tree.insert(target)
    assert tree.in_order() == before
    assert tree.validate().ok


@given(keys_strategy)
def test_height_bound(keys):
    tree = AvlTree()
    for key in keys:
        tree.insert(key)
    if tree.size:
        assert tree.height() <= 1.4405 * math.log2(tree.size + 2)


@settings(max_examples=50)
@given(st.lists(st.tuples(st.integers(-20, 20), st.integers(0, 5)), max_size=120),
       st.sampled_from(STRATEGIES))
def test_map_matches_dict_model(pairs, strategy):
    mapping = AvlMap()
    model = {}
    for key, value in pairs:
        if value == 0 and key in model:
            assert mapping.delete(key, strategy) == model.pop(key)
        else:
            assert mapping.insert(key, value) == model.get(key)
            model[key] = value
        assert mapping.validate().ok
        assert mapping.items() == sorted(model.items())
    for key in model:
        assert mapping.get(key) == model[key]


def stored_layout(node) -> list:
    """(key, value, stored balance) of every node, in order."""
    if node is None:
        return []
    return (stored_layout(node.left) + [(node.key, node.value, node.balance)]
            + stored_layout(node.right))


@settings(max_examples=100)
@given(st.lists(st.integers(-30, 30), max_size=60),
       st.lists(st.tuples(st.sampled_from(["insert", "put", "delete", "pop"]),
                          st.integers(-30, 30)), max_size=60),
       st.permutations(range(-30, 31)))
def test_every_operation_matches_the_reference(built, mixed, doomed):
    # a build, mixed work, then a full teardown: deletions from grown trees
    # are the ones that rotate more than once
    ops = [("insert", key) for key in built] + mixed + [("pop", key) for key in doomed]
    for strategy in STRATEGIES:
        tree, reference = AvlTree(), ReferenceAvl()
        for step, (op, key) in enumerate(ops):
            if op == "insert":
                found, _, kinds = reference.insert(key)
                result, expected = tree.insert(key), (not found,)
            elif op == "put":
                _, old, kinds = reference.insert(key, step, overwrite=True)
                result, expected = tree.put(key, step), (old,)
            elif op == "delete":
                found, _, kinds = reference.delete(key, strategy.value)
                result, expected = tree.delete(key, strategy), (found,)
            else:
                found, value, kinds = reference.delete(key, strategy.value)
                result, expected = tree.pop(key, strategy), (found, value)
            phase = Phase.INSERT if op in ("insert", "put") else Phase.DELETE
            events = [RotationEvent(RotationKind(kind), phase) for kind in kinds]
            assert result == (*expected, events)
            assert shape_signature(tree.root) == shape_signature(reference.root)
            layout = stored_layout(tree.root)
            assert layout == recomputed_layout(reference.root)
            assert tree.size == len(layout)


class Tripped(Exception):
    """Raised by a FuseKey comparison once the shared fuse has burnt down."""


class Fuse:
    """Comparison budget shared by a set of keys; None means unlimited."""

    def __init__(self):
        self.remaining = None
        self.used = 0

    def spend(self):
        if self.remaining is not None:
            if self.remaining == 0:
                raise Tripped
            self.remaining -= 1
        self.used += 1


class FuseKey:
    """Integer key whose comparisons raise once its fuse reaches zero."""

    __slots__ = ("n", "fuse")

    def __init__(self, n, fuse):
        self.n = n
        self.fuse = fuse

    def __lt__(self, other):
        self.fuse.spend()
        return self.n < other.n

    def __gt__(self, other):
        self.fuse.spend()
        return self.n > other.n

    def __eq__(self, other):
        self.fuse.spend()
        return self.n == other.n

    def __hash__(self):
        return hash(self.n)


def frozen(tree):
    """Keys, values, balances and shape of a tree, plus its size."""

    def walk(node):
        if node is None:
            return None
        return (node.key.n, node.value, node.balance, walk(node.left), walk(node.right))

    return walk(tree.root), tree.size


def apply_op(tree, op, key, strategy):
    if op == "insert":
        return tree.insert(key)
    if op == "put":
        return tree.put(key, "new")
    if op == "delete":
        return tree.delete(key, strategy)
    return tree.pop(key, strategy)


@settings(max_examples=50)
@given(st.lists(st.integers(0, 40), max_size=40),
       st.sampled_from(["insert", "put", "delete", "pop"]),
       st.sampled_from(STRATEGIES), st.data())
def test_raising_comparison_leaves_tree_unchanged(keys, op, strategy, data):
    # the fuse burns on comparisons of the probe and of stored keys alike,
    # so it trips at every point of the descent; a target that may be
    # absent reaches inserts that link a leaf and deletes that find nothing
    target = data.draw(st.one_of(st.sampled_from(keys), st.integers(0, 40))
                       if keys else st.integers(0, 40))
    fuse = Fuse()
    tree = AvlTree()
    for n in keys:
        tree.put(FuseKey(n, fuse), n)
    before = frozen(tree)
    expected = tree.clone()
    fuse.used = 0
    expected_result = apply_op(expected, op, FuseKey(target, fuse), strategy)
    needed = fuse.used
    for budget in range(needed):
        trial = tree.clone()
        fuse.remaining = budget
        with pytest.raises(Tripped):
            apply_op(trial, op, FuseKey(target, fuse), strategy)
        fuse.remaining = None
        assert frozen(trial) == before
        assert trial.validate().ok
    fuse.remaining = needed
    assert apply_op(tree, op, FuseKey(target, fuse), strategy) == expected_result
    fuse.remaining = None
    assert frozen(tree) == frozen(expected)


MIRRORED_KIND = {RotationKind.LL: RotationKind.RR, RotationKind.RR: RotationKind.LL,
                 RotationKind.LR: RotationKind.RL, RotationKind.RL: RotationKind.LR}


def mirrored_events(events):
    return [RotationEvent(MIRRORED_KIND[event.kind], event.phase) for event in events]


def reflection(node):
    """Keys, balances and shape of the left-right mirror with negated keys."""
    if node is None:
        return None
    return (-node.key, -node.balance, reflection(node.right), reflection(node.left))


def layout(node):
    if node is None:
        return None
    return (node.key, node.balance, layout(node.left), layout(node.right))


@given(keys_strategy, keys_strategy, st.booleans())
def test_negated_keys_mirror_shape_and_rotations(keys, doomed, predecessor_first):
    # OPTIMUM is left out: its balance-0 tie-break picks LEFT on both trees
    strategy, twin_strategy = (ReplacementStrategy.RIGHTMOST_OF_LEFT,
                               ReplacementStrategy.LEFTMOST_OF_RIGHT)
    if not predecessor_first:
        strategy, twin_strategy = twin_strategy, strategy
    tree, twin = AvlTree(), AvlTree()
    for key in keys:
        inserted, events = tree.insert(key)
        assert twin.insert(-key) == (inserted, mirrored_events(events))
        assert layout(twin.root) == reflection(tree.root)
    for key in doomed:
        deleted, events = tree.delete(key, strategy)
        assert twin.delete(-key, twin_strategy) == (deleted, mirrored_events(events))
        assert layout(twin.root) == reflection(tree.root)


corruptions_strategy = st.lists(
    st.tuples(
        st.sampled_from(["key", "balance", "retype", "cut", "graft"]),
        st.integers(min_value=0, max_value=1000),  # picks the node
        st.integers(min_value=-60, max_value=60),  # the new key, balance or chain start
        st.booleans(),  # left link or right link
    ),
    max_size=6,
)


@settings(max_examples=300)
@given(keys_strategy, corruptions_strategy, st.integers(min_value=-3, max_value=3))
def test_validate_matches_the_frozen_reference(keys, corruptions, size_offset):
    tree = AvlTree(keys)
    for action, pick, number, on_left in corruptions:
        nodes = list(all_nodes(tree.root))
        if not nodes:
            break
        node = nodes[pick % len(nodes)]
        link = "left" if on_left else "right"
        if action == "key":
            node.key = number
        elif action == "balance":
            node.balance = number % 7 - 3
        elif action == "retype":
            # an equal balance of another type: True for 1, or a float
            node.balance = True if node.balance == 1 and number % 2 else float(node.balance)
        elif action == "cut":
            setattr(node, link, None)
        else:
            # a chain of fresh nodes, leaning the way of its link, replaces that subtree
            for offset in range(number % 4 + 1):
                setattr(node, link, Node(number + offset))
                node = getattr(node, link)
    tree.size = len(list(all_nodes(tree.root))) + size_offset
    report = [(v.kind, v.key, v.detail) for v in tree.validate().violations]
    assert report == reference_violations(tree)
    # the yes/no pass accepts exactly the trees with an empty report
    assert _sound(tree.root, tree.size) == (report == [])
