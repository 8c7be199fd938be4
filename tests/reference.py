"""Independent brute-force oracles used by the test suite.

Deliberately naive and separate from the library's own validate(): heights
are recomputed from scratch, orderings are checked via sorted(), so these
helpers cannot inherit a bug from the code under test.
"""

from __future__ import annotations


def subtree_height(node) -> int:
    if node is None:
        return 0
    return 1 + max(subtree_height(node.left), subtree_height(node.right))


def recomputed_balance(node) -> int:
    return subtree_height(node.right) - subtree_height(node.left)


def all_nodes(node):
    if node is None:
        return
    yield node
    yield from all_nodes(node.left)
    yield from all_nodes(node.right)


def balance_errors(root) -> list[str]:
    """Every node whose stored balance disagrees with brute-force heights."""
    errors = []
    for node in all_nodes(root):
        expected = recomputed_balance(node)
        if node.balance != expected:
            errors.append(f"key {node.key!r}: stored {node.balance}, actual {expected}")
        if abs(expected) > 1:
            errors.append(f"key {node.key!r}: height difference {expected}")
    return errors


def inorder_keys(node) -> list:
    if node is None:
        return []
    return inorder_keys(node.left) + [node.key] + inorder_keys(node.right)


def is_strict_bst(root) -> bool:
    keys = inorder_keys(root)
    return all(a < b for a, b in zip(keys, keys[1:]))


def shape_signature(node) -> str:
    """Canonical serialization of keys and structure; ignores balances."""
    if node is None:
        return "."
    return f"({node.key!r} {shape_signature(node.left)} {shape_signature(node.right)})"


def assert_tree_sane(tree, context="") -> None:
    """Full brute-force check of a tree, independent of tree.validate()."""
    errors = balance_errors(tree.root)
    assert not errors, f"{context}: {errors[:5]}"
    assert is_strict_bst(tree.root), f"{context}: BST order broken"
    assert len(inorder_keys(tree.root)) == tree.size, f"{context}: size mismatch"


class _RefNode:
    __slots__ = ("key", "value", "left", "right")

    def __init__(self, key, value):
        self.key = key
        self.value = value
        self.left = None
        self.right = None


def _rotate_right(node):
    pivot = node.left
    node.left = pivot.right
    pivot.right = node
    return pivot


def _rotate_left(node):
    pivot = node.right
    node.right = pivot.left
    pivot.left = node
    return pivot


def _restore(node, kinds):
    """Rotate node if its subtrees' heights differ by two; record the kind."""
    diff = subtree_height(node.right) - subtree_height(node.left)
    if diff < -1:
        if subtree_height(node.left.right) > subtree_height(node.left.left):
            kinds.append("LR")
            node.left = _rotate_left(node.left)
        else:
            kinds.append("LL")
        return _rotate_right(node)
    if diff > 1:
        if subtree_height(node.right.left) > subtree_height(node.right.right):
            kinds.append("RL")
            node.right = _rotate_right(node.right)
        else:
            kinds.append("RR")
        return _rotate_left(node)
    return node


def _pop_max(node, kinds):
    if node.right is None:
        return node.left, node
    node.right, heir = _pop_max(node.right, kinds)
    return _restore(node, kinds), heir


def _pop_min(node, kinds):
    if node.left is None:
        return node.right, node
    node.left, heir = _pop_min(node.left, kinds)
    return _restore(node, kinds), heir


class ReferenceAvl:
    """Naive recursive AVL map: no stored balances, heights recomputed each time.

    Written independently of avlkit.tree as a per-operation oracle. Every
    node on the path is checked on the way back up, with no early stop. A
    two-child deletion takes its heir by the strategy's value
    ("rightmost_of_left", "leftmost_of_right", or "optimum": the taller
    subtree, the left one on a tie). Mutations return
    (found, stored value or None, rotation kinds in the order made).
    """

    def __init__(self):
        self.root = None

    def insert(self, key, value=None, overwrite=False):
        kinds = []
        self.root, found, old = self._insert(self.root, key, value, overwrite, kinds)
        return found, old, kinds

    def delete(self, key, strategy):
        kinds = []
        self.root, found, value = self._delete(self.root, key, strategy, kinds)
        return found, value, kinds

    def _insert(self, node, key, value, overwrite, kinds):
        if node is None:
            return _RefNode(key, value), False, None
        if key == node.key:
            old = node.value
            if overwrite:
                node.value = value
            return node, True, old
        if key < node.key:
            node.left, found, old = self._insert(node.left, key, value, overwrite, kinds)
        else:
            node.right, found, old = self._insert(node.right, key, value, overwrite, kinds)
        return _restore(node, kinds), found, old

    def _delete(self, node, key, strategy, kinds):
        if node is None:
            return None, False, None
        if key < node.key:
            node.left, found, value = self._delete(node.left, key, strategy, kinds)
        elif node.key < key:
            node.right, found, value = self._delete(node.right, key, strategy, kinds)
        else:
            found, value = True, node.value
            if node.left is None:
                return node.right, found, value
            if node.right is None:
                return node.left, found, value
            taller_right = subtree_height(node.right) > subtree_height(node.left)
            if strategy == "leftmost_of_right" or strategy == "optimum" and taller_right:
                node.right, heir = _pop_min(node.right, kinds)
            else:
                node.left, heir = _pop_max(node.left, kinds)
            node.key, node.value = heir.key, heir.value
        return _restore(node, kinds), found, value


def recomputed_layout(node) -> list:
    """(key, value, balance from recomputed heights) of every node, in order."""
    layout = []

    def walk(node):
        if node is None:
            return 0
        left = walk(node.left)
        layout.append(None)
        slot = len(layout) - 1
        right = walk(node.right)
        layout[slot] = (node.key, node.value, right - left)
        return 1 + max(left, right)

    walk(node)
    return layout


def reference_violations(tree) -> list:
    """(kind, key, detail) of every violation, by the recursive walk validate() once was.

    Kept frozen in logic and messages as the oracle for the library's
    iterative validate() on trees (no node reachable twice); recursion
    limits the depth it can check.
    """
    violations = []

    def walk(node):
        # returns (height, count, min_key, max_key) of the subtree
        if node is None:
            return 0, 0, None, None
        left_h, left_n, left_min, left_max = walk(node.left)
        right_h, right_n, right_min, right_max = walk(node.right)
        if left_max is not None and not left_max < node.key:
            violations.append((
                "bst-order", node.key,
                f"left subtree max {left_max!r} is not below the node key"))
        if right_min is not None and not node.key < right_min:
            violations.append((
                "bst-order", node.key,
                f"right subtree min {right_min!r} is not above the node key"))
        diff = right_h - left_h
        if abs(diff) > 1:
            violations.append((
                "avl-height", node.key,
                f"subtree heights {left_h} and {right_h} differ by more than one"))
        if node.balance != diff:
            violations.append((
                "balance-mismatch", node.key,
                f"stored balance {node.balance}, recomputed {diff}"))
        lo = node.key if left_min is None else min(left_min, node.key)
        hi = node.key if right_max is None else max(right_max, node.key)
        return max(left_h, right_h) + 1, left_n + right_n + 1, lo, hi

    _, count, _, _ = walk(tree.root)
    if count != tree.size:
        violations.append((
            "size-mismatch", None,
            f"size says {tree.size}, found {count} reachable nodes"))
    return violations
