"""Self-balancing binary search tree with balance-factor bookkeeping.

Every node stores a balance factor: the height of its right subtree minus
the height of its left subtree, kept in {-1, 0, +1} between operations.
No heights are stored. The single rotations (LL, RR) derive exact new
balances from the old ones, and each double rotation (LR, RL) is two
singles. Insert and delete share one rebalancing step: it rotates a node,
hangs the new subtree root where the node hung, and reports the rotation
back to the caller as a RotationEvent so that callers can count them.

Deletion of a node with two children is parameterized by a replacement
strategy: always take the in-order predecessor (rightmost of the left
subtree), always take the successor (leftmost of the right subtree), or
pick the taller subtree as indicated by the balance factor. The last
option usually leaves the node's balance within bounds and therefore
skips a rotation at that node. The replacement node, the heir, is
reached by links from the node and spliced out; its key and value move
into the node.

Insert and delete are loops over the kept path of nodes from the root:
every key comparison happens on the way down, before anything changes.
A deletion has two phases. The read phase, _locate, finds the node, its
heir and the path, and writes nothing. The write phase moves the heir's
key and value into the node, splices the heir out and retraces. The
splice and the rebalancing step each write their one link inline: the
splice's link test also gives the retrace's first step, and a rotated
subtree hangs under the path's previous node, or as the root. Both
retraces count an index down the path: most climbs stop within a few
levels, where building a range costs more than the climb. A key that is
not equal to itself (NaN) is never stored and never matched; a deletion
strategy that is not a ReplacementStrategy member raises ValueError.

No walk uses recursion, and every walk that returns nodes puts each node
it reaches into an identity set and raises StructuralError naming the
first node reached twice (a cycle or a shared subtree): the post-order
walk behind height(), clone() and validate(), the in-order walk behind
in_order(), items_in_order() and iteration, and format_tree()'s drawing
walk. Only _sound, validate()'s yes/no pass, is bounded by size instead
of a set. validate() makes two passes. The yes/no pre-order walk accepts
a sound tree with an empty report. It checks a leaf child from its
parent, so it never stacks or visits one, and it compares each
in-order-adjacent pair of keys once, as the exact walk does, though not
in the same order. Only a tree it rejects gets the exact walk: the
post-order walk, whose error validate() alone turns into a report, as a
single "cycle" violation, and a fold of its nodes that writes every
other violation.
"""

from __future__ import annotations

from enum import Enum
from numbers import Real
from typing import Any, Iterator, NamedTuple, Optional


class StructuralError(Exception):
    """A structural precondition did not hold; indicates an internal bug."""


class RotationKind(Enum):
    LL = "LL"
    LR = "LR"
    RL = "RL"
    RR = "RR"


class Phase(Enum):
    INSERT = "insert"
    DELETE = "delete"


class RotationEvent(NamedTuple):
    kind: RotationKind
    phase: Phase


class ReplacementStrategy(Enum):
    """How a two-child deletion picks the node that fills the vacated slot.

    RIGHTMOST_OF_LEFT always takes the heir from the left subtree.
    LEFTMOST_OF_RIGHT always takes it from the right subtree.
    OPTIMUM, the balance-guided rule, takes the taller subtree, and the
    left one at balance 0, so that runs are reproducible.

    Member order is the row order of benchmark reports.
    """

    RIGHTMOST_OF_LEFT = "rightmost_of_left"
    LEFTMOST_OF_RIGHT = "leftmost_of_right"
    OPTIMUM = "optimum"


class Direction(Enum):
    LEFT = "left"
    RIGHT = "right"


class Node:
    """One key-bearing node. `balance` is right height minus left height."""

    __slots__ = ("key", "value", "left", "right", "balance")

    def __init__(self, key, value=None):
        self.key = key
        self.value = value
        self.left: Optional[Node] = None
        self.right: Optional[Node] = None
        self.balance = 0

    def __repr__(self):
        return f"Node({self.key!r}, balance={self.balance})"


class _Record:
    """A record whose fields are its __slots__, in order.

    It equals a record of the same class with equal fields, reprs as
    Name(field=value, ...), matches positional patterns, and pickles and
    copies through its constructor. It is mutable, so it is unhashable.
    """

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls.__slots__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


class _FrozenRecord(_Record):
    """A _Record that refuses assignment and deletion, and hashes by value.

    A subclass's __init__ sets its fields with object.__setattr__.
    """

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Violation(_Record):
    __slots__ = ("kind", "key", "detail")

    def __init__(self, kind: str, key: Any, detail: str):
        self.kind = kind
        self.key = key
        self.detail = detail


class ValidationReport(_Record):
    __slots__ = ("violations",)

    def __init__(self, violations: Optional[list[Violation]] = None):
        self.violations = [] if violations is None else violations

    @property
    def ok(self) -> bool:
        return not self.violations


class DeletionTrace(_Record):
    """Optional record of how a deletion was carried out, for demos and tests.

    Every delete or pop that returns rewrites all four fields: after it
    the trace equals a fresh one given to that same call. The last three
    stay None unless the deleted node had two children. A call that
    raises leaves the trace as it was.
    """

    __slots__ = ("two_child", "node_balance", "direction", "replacement_key")

    def __init__(self, two_child: bool = False, node_balance: Optional[int] = None,
                 direction: Optional[Direction] = None, replacement_key: Any = None):
        self.two_child = two_child
        self.node_balance = node_balance
        self.direction = direction
        self.replacement_key = replacement_key


def _rotate_ll(node: Node) -> Node:
    """Single rotation that hoists the left child; returns the new subtree root.

    New balances follow exactly from the old ones, whatever they were: with
    n the node's balance and p the child's, the node ends at
    n' = n + 1 - min(p, 0) and the child at p' = p + 1 + max(n', 0).
    """
    pivot = node.left
    if pivot is None:
        raise StructuralError("LL rotation requires a left child")
    node.left = pivot.right
    pivot.right = node
    p = pivot.balance
    n = node.balance + 1 - p if p < 0 else node.balance + 1
    node.balance = n
    pivot.balance = p + 1 + n if n > 0 else p + 1
    return pivot


def _rotate_rr(node: Node) -> Node:
    """Mirror image of _rotate_ll: n' = n - 1 - max(p, 0), p' = p - 1 + min(n', 0)."""
    pivot = node.right
    if pivot is None:
        raise StructuralError("RR rotation requires a right child")
    node.right = pivot.left
    pivot.left = node
    p = pivot.balance
    n = node.balance - 1 - p if p > 0 else node.balance - 1
    node.balance = n
    pivot.balance = p - 1 + n if n < 0 else p - 1
    return pivot


rotate_ll = _rotate_ll
rotate_rr = _rotate_rr


def rotate_lr(node: Node) -> Node:
    """Double rotation: the left child's right child becomes the subtree root.

    RR on the left child, then LL on the node, through the private singles:
    a wrapper on the public names never sees the transient middle state.
    """
    child = node.left
    if child is None or child.right is None:
        raise StructuralError("LR rotation requires a left child with a right child")
    node.left = _rotate_rr(child)
    return _rotate_ll(node)


def rotate_rl(node: Node) -> Node:
    """Mirror image of rotate_lr: the right child's left child is hoisted."""
    child = node.right
    if child is None or child.left is None:
        raise StructuralError("RL rotation requires a right child with a left child")
    node.right = _rotate_ll(child)
    return _rotate_rr(node)


# Enum members and rotation events bound once: looking a member up on its
# class costs more than the hot-path work around it.
_LEFTMOST_OF_RIGHT = ReplacementStrategy.LEFTMOST_OF_RIGHT
_OPTIMUM = ReplacementStrategy.OPTIMUM
_LEFT = Direction.LEFT
_RIGHT = Direction.RIGHT
# One event per kind, in RotationKind order: LL, LR, RL, RR.
_INSERT_EVENTS = tuple(RotationEvent(kind, Phase.INSERT) for kind in RotationKind)
_DELETE_EVENTS = tuple(RotationEvent(kind, Phase.DELETE) for kind in RotationKind)
_ABSENT = object()
# How far below a node of each valid balance its left and right subtrees are.
_HEIGHT_DROPS = {0: (1, 1), 1: (2, 1), -1: (1, 2)}


def _rebalance(tree, path, i, phase_events, events):
    """Rotate path[i], at balance -2 or +2, and hang the result where it hung.

    Single when the taller child leans the same way or not at all, double
    when it leans the other way. Rotations are called by their public
    module names, so a wrapper installed there sees every one. The new
    subtree root is hung under path[i - 1], or as the tree's root when i
    is 0, and returned.
    """
    node = path[i]
    if node.balance < 0:
        if node.left.balance > 0:
            index, subtree = 1, rotate_lr(node)
        else:
            index, subtree = 0, rotate_ll(node)
    elif node.right.balance < 0:
        index, subtree = 2, rotate_rl(node)
    else:
        index, subtree = 3, rotate_rr(node)
    events.append(phase_events[index])
    if not i:
        tree.root = subtree
    elif path[i - 1].left is node:
        path[i - 1].left = subtree
    else:
        path[i - 1].right = subtree
    return subtree


def _insert(tree, key, value, overwrite, events):
    """Insert into tree; returns the previous value, or _ABSENT for a new key.

    One descent with a single less-than per level, as in get, keeps the
    path. After the new leaf is linked, balances change from its parent up
    to the first node whose balance was nonzero (Knuth's Algorithm A), the
    only one that can need a rotation. Every comparison precedes every
    mutation.
    """
    node = tree.root
    path = []
    candidate = None
    while node is not None:
        path.append(node)
        if key < node.key:
            node = node.left
        else:
            candidate = node
            node = node.right
    if not path or candidate is not None and not candidate.key < key:
        # NaN: no key is below or above it, so it seems to match, and an
        # empty tree has no key to compare it with
        if key != key:
            raise ValueError(f"key {key!r} is not equal to itself, so it cannot be stored")
        if not path:
            tree.size += 1
            tree.root = Node(key, value)
            return _ABSENT
        old = candidate.value
        if overwrite:
            candidate.value = value
        return old
    tree.size += 1
    node = Node(key, value)
    if path[-1] is candidate:
        candidate.right = node
    else:
        path[-1].left = node
    i = len(path)
    while i:  # a countdown: most climbs stop within a few levels
        i -= 1
        parent = path[i]
        step = -1 if parent.left is node else 1
        balance = parent.balance + step
        parent.balance = balance
        if balance == step:  # was 0: this subtree grew too
            node = parent
            continue
        if balance:
            _rebalance(tree, path, i, _INSERT_EVENTS, events)
        break
    return _ABSENT


def _locate(tree, key, strategy):
    """Read phase of a deletion: find the node and its heir; writes nothing.

    Rejects a strategy that is not a ReplacementStrategy member before any
    comparison. Every key comparison of the deletion happens in the
    descent. A two-child node's heir is the extreme node of the subtree
    the strategy picks (see ReplacementStrategy), reached by links; a node
    with fewer children is its own heir, with direction None. Returns None
    for a missing key, else (path, node, heir, direction), where path runs
    from the root to the heir's parent.
    """
    # type(), not isinstance: a Mock(spec=ReplacementStrategy) passes isinstance
    if type(strategy) is not ReplacementStrategy:
        raise ValueError(f"unknown replacement strategy {strategy!r}: "
                         f"expected a ReplacementStrategy member")
    node = tree.root
    path = []
    while node is not None:
        if key < node.key:
            path.append(node)
            node = node.left
        elif key > node.key:
            path.append(node)
            node = node.right
        elif key != key:  # NaN: no key is below or above it, yet it equals none
            return None
        else:
            break
    else:
        return None
    if node.left is None or node.right is None:
        return path, node, node, None
    path.append(node)
    # the paper's rule: OPTIMUM takes the taller side, the left at balance 0
    if strategy is _LEFTMOST_OF_RIGHT or strategy is _OPTIMUM and node.balance > 0:
        heir = node.right
        while heir.left is not None:
            path.append(heir)
            heir = heir.left
        return path, node, heir, _RIGHT
    heir = node.left
    while heir.right is not None:
        path.append(heir)
        heir = heir.right
    return path, node, heir, _LEFT


def _delete(tree, key, strategy, events, trace):
    """Delete from tree; returns the removed value, or _ABSENT for a missing key.

    _locate is the read phase. After it, trace, if one is given, gets
    every field rewritten from _locate's result: the defaults for a missing
    key or a node with fewer than two children. The write phase moves the
    heir's key and value into the node and splices the heir out: a root
    with at most one child is replaced by that child and nothing is
    retraced; otherwise one test of the heir's side writes the parent's
    link and sets the first step. Retracing then climbs the path and stops
    once a subtree's height is unchanged.
    """
    located = _locate(tree, key, strategy)
    if located is None:
        if trace is not None:
            trace.__init__()
        return _ABSENT
    path, node, heir, direction = located
    value = node.value
    if direction is not None:
        if trace is not None:
            trace.__init__(True, node.balance, direction, heir.key)
        node.key = heir.key
        node.value = heir.value
    elif trace is not None:
        trace.__init__()
    tree.size -= 1
    child = heir.right if heir.left is None else heir.left
    i = len(path)
    if not i:  # the root, with at most one child: nothing to retrace
        tree.root = child
        return value
    parent = path[-1]
    if parent.left is heir:
        parent.left = child
        step = 1
    else:
        parent.right = child
        step = -1
    while i:
        i -= 1
        node = path[i]
        balance = node.balance + step
        node.balance = balance
        if balance == step:  # was 0: the height is unchanged
            break
        if balance:
            node = _rebalance(tree, path, i, _DELETE_EVENTS, events)
            if node.balance:  # the rotation kept the height
                break
        if i:
            step = 1 if path[i - 1].left is node else -1
    return value


def _reached_twice(node):
    """The StructuralError of a walk that reaches node twice; it keeps the node."""
    error = StructuralError(
        f"node {node.key!r} is reached twice: the links form a cycle or share a subtree")
    error.node = node
    return error


def _post_order(root):
    """Reachable nodes, children before parents and left before right.

    A pre-order that takes the right child first, reversed; only left
    children are stacked. Like every walk that returns nodes, it puts each
    node it reaches into an identity set and raises StructuralError at the
    first node reached twice (a cycle or a shared subtree), whatever size
    says; validate() turns that error into its one "cycle" violation.
    """
    nodes, stack, seen = [], [], set()
    append, push, pop, add = nodes.append, stack.append, stack.pop, seen.add
    node = root
    while node is not None:
        if node in seen:
            raise _reached_twice(node)
        add(node)
        append(node)
        if node.left is not None:
            push(node.left)
        node = node.right
        if node is None and stack:
            node = pop()
    nodes.reverse()
    return nodes


def _sound(root, size):
    """Whether validate() would find nothing wrong, from one pre-order walk.

    Each node carries the exclusive key bounds its ancestors set and the
    height its parent expects of it; the root's expected height is the
    length of the descent along the taller side, by balance. A balance
    other than -1, 0 or +1 (a KeyError in _HEIGHT_DROPS), a missing child
    expected at a height other than 0, a key out of its bounds, or a node
    count other than size rejects, and so does any other exception. A
    leaf child (no left and no right link) is checked in full from its
    parent and never stacked or visited: its balance against 0, the
    height 1 its parent must expect, and its key against the parent's key
    and the bound it inherits. About half of an AVL tree's nodes are
    leaves. Only right children that are not leaves are stacked. The loop
    visits at most size nodes, so a cycle cannot hang it, and it accepts
    only when the nodes visited and the leaves checked from their parents
    add up to size. No node list is kept.

    Why acceptance means the exact walk would report nothing:
    - Order. A node is compared with its lower bound only when it has no
      left child, and with its upper bound only when it has no right
      child; a leaf checked from its parent is compared with both, one of
      them the parent's key. Those bounds are its in-order neighbours, so
      each in-order-adjacent pair is compared exactly once, with the
      operands of the exact walk's comparison, the smaller key on the
      left of <. The order differs, since a right leaf is compared before
      its parent's left subtree, but on a sound tree the set of
      comparisons is the exact walk's, so none of its order checks can
      fail, for any keys.
    - Heights. Under each node the expected heights of the children are
      within one of each other; a missing child must be expected at 0 and
      a leaf child at 1, with balance 0. So, from the leaves up, every
      subtree has the height its parent expected, and every stored
      balance equals the recomputed difference.
    - Repeats. A cycle never ends within size visits. Under a strict
      total order a node reached twice, a visited node or a leaf that two
      parents share, repeats a key in the in-order sequence of the walk,
      which the order checks reject; so no node is reached twice.
    """
    try:
        height, node = 0, root
        for _ in range(size):
            if node is None:
                break
            height += 1
            node = node.right if node.balance > 0 else node.left
        if node is not None:
            return False
        stack, node, lo, hi, leaves = [], root, None, None, 0
        push, pop = stack.append, stack.pop
        for visited in range(1, size + 1):
            left_drop, right_drop = _HEIGHT_DROPS[node.balance]
            key, right = node.key, node.right
            if right is None:
                if height != right_drop or (hi is not None and not key < hi):
                    return False
            elif right.left is None and right.right is None:
                if (right.balance != 0 or height != right_drop + 1 or not key < right.key
                        or (hi is not None and not right.key < hi)):
                    return False
                leaves += 1
            else:
                push((right, height - right_drop, key, hi))
            left = node.left
            if left is None:
                if height != left_drop or (lo is not None and not lo < key):
                    return False
            elif left.left is None and left.right is None:
                if (left.balance != 0 or height != left_drop + 1
                        or (lo is not None and not lo < left.key) or not left.key < key):
                    return False
                leaves += 1
            else:
                node, height, hi = left, height - left_drop, key
                continue
            if not stack:
                return visited + leaves == size
            node, height, lo, hi = pop()
        return size == 0  # size nodes passed with more to come, or no root
    except Exception:
        return False


class AvlTree:
    """Set-semantics AVL tree over totally ordered keys.

    Mutations report the rotations they performed. Single-writer: callers
    must not mutate one instance concurrently; read-only calls may run
    alongside each other as long as no mutation is in flight.
    """

    __slots__ = ("root", "size")

    def __init__(self, keys=()):
        self.root: Optional[Node] = None
        self.size = 0
        for key in keys:
            self.insert(key)

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator:
        yield from (node.key for node in self._nodes_in_order())

    def __contains__(self, key) -> bool:
        return self.search(key)

    def insert(self, key) -> tuple[bool, list[RotationEvent]]:
        """Insert a key. Returns (inserted, rotations).

        A duplicate key is rejected: the tree is unchanged, no rotations.
        An insertion performs at most one rotation (single or double). A key
        that is not equal to itself, such as NaN, raises ValueError.
        """
        events: list[RotationEvent] = []
        return _insert(self, key, None, False, events) is _ABSENT, events

    def put(self, key, value) -> tuple[Optional[Any], list[RotationEvent]]:
        """Insert or overwrite a key's value. Returns (previous value, rotations).

        Overwriting an existing key changes no structure and emits no events.
        A key that is not equal to itself raises ValueError, as in insert.
        """
        events: list[RotationEvent] = []
        old = _insert(self, key, value, True, events)
        return (None if old is _ABSENT else old), events

    def delete(self, key, strategy=ReplacementStrategy.OPTIMUM,
               trace: Optional[DeletionTrace] = None) -> tuple[bool, list[RotationEvent]]:
        """Delete a key. Returns (deleted, rotations).

        An absent key returns (False, []) and is not an error; so does a
        key that is not equal to itself. A strategy that is not a
        ReplacementStrategy member raises ValueError before any comparison.
        Retracing runs from the removal point toward the root, so one
        deletion can emit several rotation events.
        """
        events: list[RotationEvent] = []
        return _delete(self, key, strategy, events, trace) is not _ABSENT, events

    def pop(self, key, strategy=ReplacementStrategy.OPTIMUM,
            trace: Optional[DeletionTrace] = None):
        """Like delete, but also returns the removed node's stored value.

        Returns (found, value, rotations).
        """
        events: list[RotationEvent] = []
        value = _delete(self, key, strategy, events, trace)
        if value is _ABSENT:
            return False, None, events
        return True, value, events

    def search(self, key) -> bool:
        """Membership test: a get that tells a stored value from absence."""
        return self.get(key, _ABSENT) is not _ABSENT

    def get(self, key, default=None):
        """The value stored under key, or default when the key is absent.

        Uses at most height + 1 key comparisons: descends with a single
        less-than per level, remembering the last node passed on the right,
        and settles equality once at the bottom. A NaN never matches: no key
        is above it, so it settles on a node with no right child, and only
        there is a numbers.Real key tested against itself, so that keys of
        other types keep the bound.
        """
        node = self.root
        candidate = None
        while node is not None:
            if key < node.key:
                node = node.left
            else:
                candidate = node
                node = node.right
        if candidate is None or candidate.key < key or (
                candidate.right is None and isinstance(key, Real) and key != key):
            return default
        return candidate.value

    def in_order(self) -> list:
        """All keys in ascending order."""
        return [node.key for node in self._nodes_in_order()]

    def items_in_order(self) -> list:
        """All (key, value) pairs in ascending key order."""
        return [(node.key, node.value) for node in self._nodes_in_order()]

    def _nodes_in_order(self) -> list[Node]:
        """Every node in key order, from one explicit-stack walk.

        Like every walk that returns nodes, it puts each node it reaches
        into an identity set, so the first node reached twice raises
        StructuralError, before any node is returned. It does not read
        size: only _sound, a yes/no pass, is bounded by size.
        """
        nodes, stack, seen = [], [], set()
        append, push, pop, add = nodes.append, stack.append, stack.pop, seen.add
        node = self.root
        while node is not None:
            if node in seen:
                raise _reached_twice(node)
            add(node)
            push(node)
            node = node.left
            while node is None and stack:
                node = pop()
                append(node)
                node = node.right
        return nodes

    def height(self) -> int:
        """Actual tree height, recomputed by traversal (O(n); for checks and demos)."""
        heights = []
        push, pop = heights.append, heights.pop
        for node in _post_order(self.root):
            height = pop() if node.right is not None else 0
            if node.left is not None:
                left = pop()
                if left > height:
                    height = left
            push(height + 1)
        return heights[0] if heights else 0

    def clone(self) -> "AvlTree":
        """Structural deep copy (keys and values are shared, links are not)."""
        twins = []
        push, pop = twins.append, twins.pop
        for node in _post_order(self.root):
            twin = Node(node.key, node.value)
            twin.balance = node.balance
            if node.right is not None:
                twin.right = pop()
            if node.left is not None:
                twin.left = pop()
            push(twin)
        other = AvlTree()
        other.root = twins[0] if twins else None
        other.size = self.size
        return other

    def validate(self) -> ValidationReport:
        """Check every structural invariant; never mutates.

        Reports violations of: strict BST ordering, the height-difference
        bound, stored balance versus recomputed height difference, and the
        size count. A yes/no pass accepts a sound tree in one top-down walk
        and returns an empty report. Any other tree gets the exact walk,
        which alone writes violations: the first node reached twice by
        following links is reported alone, as one "cycle" violation;
        otherwise every violation is listed, children before parents. The
        exact walk does not read size, so a size that differs from the
        count of reachable nodes, even one that is not a count such as
        None, is one "size-mismatch" violation. Neither uses recursion.
        """
        if _sound(self.root, self.size):
            return ValidationReport()
        try:
            nodes = _post_order(self.root)
        except StructuralError as error:
            return ValidationReport([Violation(
                "cycle", error.node.key,
                "node reached twice: the links form a cycle or share a subtree")])
        report = ValidationReport()
        violations = report.violations
        # (height, lo, hi) of each finished subtree; lo and hi are the
        # node key widened by the left subtree's lo and the right's hi
        results = []
        push, pop = results.append, results.pop
        for node in nodes:
            key = node.key
            right = node.right
            if right is None:
                right_h, hi = 0, key
            else:
                right_h, right_lo, hi = pop()
            if node.left is None:
                left_h, lo = 0, key
            else:
                left_h, lo, left_hi = pop()
                if not left_hi < key:
                    violations.append(Violation(
                        "bst-order", key,
                        f"left subtree max {left_hi!r} is not below the node key"))
                    lo = min(lo, key)
            if right is not None and not key < right_lo:
                violations.append(Violation(
                    "bst-order", key,
                    f"right subtree min {right_lo!r} is not above the node key"))
                hi = max(hi, key)
            diff = right_h - left_h
            if diff > 1 or diff < -1:
                violations.append(Violation(
                    "avl-height", key,
                    f"subtree heights {left_h} and {right_h} differ by more than one"))
            if node.balance != diff:
                violations.append(Violation(
                    "balance-mismatch", key,
                    f"stored balance {node.balance}, recomputed {diff}"))
            push(((left_h if left_h > right_h else right_h) + 1, lo, hi))
        if len(nodes) != self.size:
            violations.append(Violation(
                "size-mismatch", None,
                f"size says {self.size}, found {len(nodes)} reachable nodes"))
        return report


def format_tree(tree: AvlTree) -> str:
    """Indented text rendering of a tree with per-node balances.

    One pre-order walk draws and checks: the first node reached twice raises
    StructuralError, before any text is returned.
    """
    if tree.root is None:
        return "(empty)"
    lines: list[str] = []
    seen = set()
    stack = [(tree.root, "", "")]  # (node, its line's prefix, its children's indent)
    while stack:
        node, prefix, indent = stack.pop()
        if node in seen:
            raise _reached_twice(node)
        seen.add(node)
        lines.append(f"{prefix}{node.key} ({node.balance})")
        if node.right is not None:  # pushed first, drawn last
            stack.append((node.right, indent + "`-- R: ", indent + "    "))
        if node.left is not None:
            branch, extension = ("`-- ", "    ") if node.right is None else ("|-- ", "|   ")
            stack.append((node.left, indent + branch + "L: ", indent + extension))
    return "\n".join(lines)
