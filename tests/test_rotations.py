"""Rotation operations: structure, balance case tables, structural errors."""

import pytest
from hypothesis import given, strategies as st

from avlkit import StructuralError
from avlkit.tree import Node, rotate_ll, rotate_lr, rotate_rl, rotate_rr

from reference import all_nodes, balance_errors, inorder_keys, recomputed_balance, shape_signature


def build(key, left=None, right=None, balance=0):
    node = Node(key)
    node.left = left
    node.right = right
    node.balance = balance
    return node


def leaf(key):
    return Node(key)


class TestSingleRotations:
    def test_ll_three_node_chain(self):
        # 3 -> (2 -> (1, .), .) transiently at -2; LL yields 2 -> (1, 3)
        root = build(3, left=build(2, left=leaf(1), balance=-1), balance=-2)
        new_root = rotate_ll(root)
        assert new_root.key == 2
        assert new_root.left.key == 1
        assert new_root.right.key == 3
        assert (new_root.balance, new_root.left.balance, new_root.right.balance) == (0, 0, 0)
        assert not balance_errors(new_root)

    def test_rr_three_node_chain(self):
        root = build(1, right=build(2, right=leaf(3), balance=1), balance=2)
        new_root = rotate_rr(root)
        assert new_root.key == 2
        assert new_root.left.key == 1
        assert new_root.right.key == 3
        assert (new_root.balance, new_root.left.balance, new_root.right.balance) == (0, 0, 0)
        assert not balance_errors(new_root)

    def test_ll_with_balanced_child(self):
        # the child-balance-0 case arises only while retracing a deletion;
        # the rotation must not shorten the subtree
        child = build(2, left=leaf(1), right=leaf(3), balance=0)
        root = build(4, left=child, balance=-2)
        new_root = rotate_ll(root)
        assert new_root.key == 2
        assert new_root.balance == 1
        assert new_root.right.key == 4
        assert new_root.right.balance == -1
        assert not balance_errors(new_root)

    def test_rr_with_balanced_child(self):
        child = build(3, left=leaf(2), right=leaf(4), balance=0)
        root = build(1, right=child, balance=2)
        new_root = rotate_rr(root)
        assert new_root.key == 3
        assert new_root.balance == -1
        assert new_root.left.balance == 1
        assert not balance_errors(new_root)

    def test_ll_missing_left_child_raises(self):
        with pytest.raises(StructuralError):
            rotate_ll(leaf(1))

    def test_rr_missing_right_child_raises(self):
        with pytest.raises(StructuralError):
            rotate_rr(leaf(1))

    def test_bst_order_preserved(self):
        child = build(2, left=leaf(1), right=leaf(3), balance=0)
        root = build(4, left=child, right=None, balance=-2)
        assert inorder_keys(rotate_ll(root)) == [1, 2, 3, 4]


def plain_bst(keys):
    """Unbalanced BST from insertion order, with true balances stored."""
    root = None
    for key in keys:
        link, node = None, root
        while node is not None:
            link, node = node, (node.left if key < node.key else node.right)
        if link is None:
            root = leaf(key)
        elif key < link.key:
            link.left = leaf(key)
        else:
            link.right = leaf(key)
    for node in all_nodes(root):
        node.balance = recomputed_balance(node)
    return root


@given(st.lists(st.integers(0, 40), min_size=2, max_size=25, unique=True))
def test_single_rotations_are_exact_for_any_balances(keys):
    # not only the rebalancing cases: any starting balances, any heights
    for rotate in (rotate_ll, rotate_rr):
        root = plain_bst(keys)
        if (root.left if rotate is rotate_ll else root.right) is None:
            continue
        rotated = rotate(root)
        assert inorder_keys(rotated) == sorted(keys)
        assert [n.balance for n in all_nodes(rotated)] == \
            [recomputed_balance(n) for n in all_nodes(rotated)]


def lr_instance(grandchild_balance):
    """Five/six-node subtree transiently at -2 whose left child leans right."""
    grandchild = build(4, balance=grandchild_balance)
    if grandchild_balance <= 0:
        grandchild.left = leaf(3)
    if grandchild_balance >= 0:
        grandchild.right = leaf(5)
    left = build(2, left=leaf(1), right=grandchild, balance=1)
    return build(6, left=left, right=leaf(7), balance=-2)


def rl_instance(grandchild_balance):
    grandchild = build(4, balance=grandchild_balance)
    if grandchild_balance <= 0:
        grandchild.left = leaf(3)
    if grandchild_balance >= 0:
        grandchild.right = leaf(5)
    right = build(6, left=grandchild, right=leaf(7), balance=-1)
    return build(2, left=leaf(1), right=right, balance=2)


class TestDoubleRotations:
    def test_lr_minimal_chain(self):
        # 3 -> (1 -> (., 2), .) at -2 with left child at +1
        root = build(3, left=build(1, right=leaf(2), balance=1), balance=-2)
        new_root = rotate_lr(root)
        assert new_root.key == 2
        assert inorder_keys(new_root) == [1, 2, 3]
        assert (new_root.balance, new_root.left.balance, new_root.right.balance) == (0, 0, 0)
        assert not balance_errors(new_root)

    def test_rl_minimal_chain(self):
        root = build(1, right=build(3, left=leaf(2), balance=-1), balance=2)
        new_root = rotate_rl(root)
        assert new_root.key == 2
        assert inorder_keys(new_root) == [1, 2, 3]
        assert (new_root.balance, new_root.left.balance, new_root.right.balance) == (0, 0, 0)
        assert not balance_errors(new_root)

    @pytest.mark.parametrize("grandchild_balance,left_after,root_after", [
        (-1, 0, 1),
        (0, 0, 0),
        (1, -1, 0),
    ])
    def test_lr_case_table(self, grandchild_balance, left_after, root_after):
        root = lr_instance(grandchild_balance)
        keys_before = inorder_keys(root)
        new_root = rotate_lr(root)
        assert new_root.key == 4
        assert new_root.balance == 0
        assert new_root.left.balance == left_after
        assert new_root.right.balance == root_after
        assert inorder_keys(new_root) == keys_before
        assert not balance_errors(new_root)

    @pytest.mark.parametrize("grandchild_balance,root_after,right_after", [
        (1, -1, 0),
        (0, 0, 0),
        (-1, 0, 1),
    ])
    def test_rl_case_table(self, grandchild_balance, root_after, right_after):
        root = rl_instance(grandchild_balance)
        keys_before = inorder_keys(root)
        new_root = rotate_rl(root)
        assert new_root.key == 4
        assert new_root.balance == 0
        assert new_root.left.balance == root_after
        assert new_root.right.balance == right_after
        assert inorder_keys(new_root) == keys_before
        assert not balance_errors(new_root)

    def test_lr_missing_links_raise(self):
        with pytest.raises(StructuralError):
            rotate_lr(leaf(1))
        with pytest.raises(StructuralError):
            rotate_lr(build(2, left=leaf(1), balance=-1))

    def test_rl_missing_links_raise(self):
        with pytest.raises(StructuralError):
            rotate_rl(leaf(1))
        with pytest.raises(StructuralError):
            rotate_rl(build(1, right=leaf(2), balance=1))


def mirrored(node):
    """Key-negated, left/right-swapped copy; balance flips sign."""
    if node is None:
        return None
    twin = Node(-node.key)
    twin.left = mirrored(node.right)
    twin.right = mirrored(node.left)
    twin.balance = -node.balance
    return twin


class TestMirrorSymmetry:
    @pytest.mark.parametrize("child_balance", [-1, 0])
    def test_rr_is_ll_under_reflection(self, child_balance):
        def ll_state():
            child = build(2, left=leaf(1), balance=child_balance)
            if child_balance == 0:
                child.right = leaf(3)
            return build(4, left=child, right=None, balance=-2)

        ll_result = rotate_ll(ll_state())
        rr_result = rotate_rr(mirrored(ll_state()))
        assert shape_signature(mirrored(rr_result)) == shape_signature(ll_result)
        assert not balance_errors(rr_result)

    @pytest.mark.parametrize("grandchild_balance", [-1, 0, 1])
    def test_rl_is_lr_under_reflection(self, grandchild_balance):
        lr_result = rotate_lr(lr_instance(grandchild_balance))
        rl_result = rotate_rl(mirrored(lr_instance(grandchild_balance)))
        assert shape_signature(mirrored(rl_result)) == shape_signature(lr_result)
        assert not balance_errors(rl_result)


def key_balances(root):
    return [(node.key, node.balance) for node in all_nodes(root)]


class TestComposition:
    @pytest.mark.parametrize("grandchild_balance", [-1, 0, 1])
    def test_lr_equals_rr_then_ll_on_keys(self, grandchild_balance):
        # the double rotation must leave keys and balances exactly where the
        # two single rotations would
        direct = rotate_lr(lr_instance(grandchild_balance))
        composed_root = lr_instance(grandchild_balance)
        composed_root.left = rotate_rr(composed_root.left)
        composed = rotate_ll(composed_root)
        assert shape_signature(direct) == shape_signature(composed)
        assert key_balances(direct) == key_balances(composed)

    @pytest.mark.parametrize("grandchild_balance", [-1, 0, 1])
    def test_rl_equals_ll_then_rr_on_keys(self, grandchild_balance):
        direct = rotate_rl(rl_instance(grandchild_balance))
        composed_root = rl_instance(grandchild_balance)
        composed_root.right = rotate_ll(composed_root.right)
        composed = rotate_rr(composed_root)
        assert shape_signature(direct) == shape_signature(composed)
        assert key_balances(direct) == key_balances(composed)
