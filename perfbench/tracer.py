"""Span tracing installed from outside the library, for the traced run only.

Wrappers replace names where callers look them up: class attributes such
as ``AvlTree.insert`` and module globals such as ``avlkit.cli.run_experiment``
(``cli`` imported its own reference, so wrapping ``avlkit.bench`` alone
would miss the calls). Each wrapper records a span (name, start, end,
parent) and folds it at once into per-name totals: calls, inclusive time,
and time covered by child spans, so self time is inclusive minus children.
Folding on the fly keeps memory flat across the ~350k spans of one desk
call. A call that re-enters the same layer (``AvlTree.delete`` calling
``AvlTree.pop``) stays inside the outer span and is not counted twice.
The wrapper's own cost outside a child's clock readings lands in the
parent's self time, which inflates the self time of layers with many
child calls (``bench`` most).

Per-item helpers (``SplitMix64.below``, ``RotationCounters.bump``) are not
wrapped: a span costs about as much as they do.
"""

from __future__ import annotations

import functools
import time


class Tracer:
    """Span totals and exact counts for one traced call or batch."""

    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, child_ns]
        self.totals: dict[str, list[int]] = {}  # name -> [calls, incl_ns, child_ns]
        self.counts = {"rotations_insert": 0, "rotations_delete": 0,
                       "validate_nodes": 0, "shuffle_items": 0, "trees_built": 0}
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, hook=None):
        stack = self.stack
        totals = self.totals.setdefault(name, [0, 0, 0])
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] is name:
                return fn(*args, **kwargs)
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _set(self, owner, attr, replacement):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, mods) -> None:
        """Wrap the public entry points of every avlkit layer in `mods`."""
        counts = self.counts

        def count_insert(args, result):
            counts["rotations_insert"] += len(result[-1])

        def count_delete(args, result):
            counts["rotations_delete"] += len(result[-1])

        def count_validate_nodes(args, result):
            counts["validate_nodes"] += args[0].size

        def count_shuffle_items(args, result):
            counts["shuffle_items"] += len(args[1])

        tree = mods.tree.AvlTree
        for attr, name, hook in (
                ("insert", "tree.insert", count_insert),
                ("put", "tree.insert", count_insert),
                ("delete", "tree.delete", count_delete),
                ("pop", "tree.delete", count_delete),
                ("get", "tree.get", None),
                ("search", "tree.get", None),
                ("validate", "tree.validate", count_validate_nodes),
                ("clone", "tree.clone", None)):
            self._set(tree, attr, self.span(name, tree.__dict__[attr], hook))
        self._set(tree, "__init__", self._count_trees_built(tree.__dict__["__init__"]))

        avl_map = mods.map.AvlMap
        for attr, name in (("get", "map.get"), ("__contains__", "map.get"),
                           ("insert", "map.insert"), ("delete", "map.delete")):
            self._set(avl_map, attr, self.span(name, avl_map.__dict__[attr]))

        tally = mods.counters.StrategyTally
        self._set(tally, "record", self.span("counters.record", tally.__dict__["record"]))
        shuffle = mods.rng.SplitMix64
        self._set(shuffle, "shuffle",
                  self.span("rng.shuffle", shuffle.__dict__["shuffle"], count_shuffle_items))

        for attr, name in (("run_experiment", "bench.run_experiment"),
                           ("load_corpus", "bench.load_corpus"),
                           ("render_report", "bench.render")):
            wrapped = self.span(name, getattr(mods.bench, attr))
            self._set(mods.bench, attr, wrapped)
            self._set(mods.cli, attr, wrapped)
        self._set(mods.cli, "main", self.span("cli.main", mods.cli.main))

    def _count_trees_built(self, init):
        stack = self.stack
        counts = self.counts

        @functools.wraps(init)
        def wrapper(*args, **kwargs):
            if any(frame[0] == "bench.run_experiment" for frame in stack):
                counts["trees_built"] += 1
            return init(*args, **kwargs)

        return wrapper

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
