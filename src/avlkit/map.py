"""Ordered key-value map layered on the AVL set.

Same balancing behavior as AvlTree; nodes additionally carry a value.
During a two-child deletion the replacement's key and value migrate into
the vacated slot together, so no association is ever split.
"""

from __future__ import annotations

from typing import Any, Optional

from .tree import AvlTree, DeletionTrace, ReplacementStrategy, ValidationReport


class AvlMap:
    """Ordered map with overwrite-on-duplicate semantics.

    Single-writer, like the underlying tree.
    """

    __slots__ = ("_tree",)

    def __init__(self, items=()):
        """Map keys to values as dict() does: anything with keys() is read
        through its items(), anything else as (key, value) pairs. A later
        pair for the same key overwrites the earlier value."""
        self._tree = AvlTree()
        if hasattr(items, "keys"):
            items = items.items()
        for key, value in items:
            self.insert(key, value)

    def __len__(self) -> int:
        return self._tree.size

    def __contains__(self, key) -> bool:
        return self._tree.search(key)

    @property
    def tree(self) -> AvlTree:
        """The underlying tree, exposed for validation and inspection."""
        return self._tree

    def insert(self, key, value) -> Optional[Any]:
        """Map key to value. Returns the displaced previous value, if any.

        Overwriting an existing key only swaps the value; the tree
        structure is untouched and no rotations happen.
        """
        old, _ = self._tree.put(key, value)
        return old

    def delete(self, key, strategy=ReplacementStrategy.OPTIMUM,
               trace: Optional[DeletionTrace] = None) -> Optional[Any]:
        """Remove a key. Returns its former value, or None when absent."""
        found, value, _ = self._tree.pop(key, strategy, trace)
        return value if found else None

    def get(self, key, default=None):
        return self._tree.get(key, default)

    def items(self) -> list:
        """All (key, value) pairs in ascending key order."""
        return self._tree.items_in_order()

    def keys(self) -> list:
        return self._tree.in_order()

    def validate(self) -> ValidationReport:
        return self._tree.validate()
