"""Machine-speed calibration loop shared by every timing the benchmark reports.

The loop runs lookups in a plain-Python binary search tree. It imports
nothing from avlkit and allocates nothing while it is timed, so neither a
change to the library nor a change to garbage-collector settings can shift
it; it only tracks how fast this process gets the CPU right now. Each
reported time is ``raw * CAL_REF_MS / calibration_ms`` with the calibration
measured right before the timed call or batch.
"""

from __future__ import annotations

import random
import time

#: Calibration time in ms of the reference machine (2-core shared x86-64,
#: Python 3.11). Normalized times read as if measured on that machine.
CAL_REF_MS = 12.0

_KEYS = 4095  # a perfect tree of depth 12
_PROBES = 2200
_PASSES = 5


class _Node:
    __slots__ = ("key", "left", "right")

    def __init__(self, key, left, right):
        self.key = key
        self.left = left
        self.right = right


def _find(node, key) -> bool:
    if node is None:
        return False
    node_key = node.key
    if key < node_key:
        return _find(node.left, key)
    if node_key < key:
        return _find(node.right, key)
    return True


def _build(lo, hi):
    if lo > hi:
        return None
    mid = (lo + hi) // 2
    return _Node(mid, _build(lo, mid - 1), _build(mid + 1, hi))


class Calibrator:
    """Owns the calibration tree; build it before avlkit is imported."""

    def __init__(self):
        # The tree stays in cache and the lookups recurse, like the
        # library's hot paths, so the loop tracks interpreter speed. A tree
        # larger than cache followed the neighbours' memory traffic more
        # than the workloads, and an iterative lookup missed slowdowns of
        # call-heavy code. The probes are stored in a list, so the loop
        # creates no objects; about a quarter miss.
        self.root = _build(1000, 1000 + _KEYS - 1)
        rng = random.Random(0x5EED)
        self.probes = [rng.randrange(1000 - _KEYS // 3, 1000 + _KEYS)
                       for _ in range(_PROBES)]
        self.samples_ms: list[float] = []

    def lookup_pass(self) -> None:
        """One pass of lookups; allocates nothing."""
        root = self.root
        find = _find
        for key in self.probes:
            find(root, key)

    def measure_ms(self) -> float:
        """Median pass time times the pass count, in ms (about 10-15 ms)."""
        clock = time.perf_counter_ns
        passes = []
        for _ in range(_PASSES):
            start = clock()
            self.lookup_pass()
            passes.append(clock() - start)
        passes.sort()
        ms = passes[_PASSES // 2] * _PASSES / 1e6
        self.samples_ms.append(ms)
        return ms

    def factor(self) -> float:
        """Multiplier that turns a raw time measured next into a normalized one."""
        return CAL_REF_MS / self.measure_ms()
