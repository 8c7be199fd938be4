"""Deterministic pseudo-random primitives for reproducible experiments.

The generator is SplitMix64: a tiny, publicly specified 64-bit mixing
generator. It is implemented here rather than taken from the stdlib so that
an identical seed produces an identical stream on every platform and every
Python version, which makes benchmark output byte-reproducible.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    """SplitMix64 output scrambler (two xor-multiply rounds plus a final shift)."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, *path: int) -> int:
    """Derive a child seed from a master seed and an index path.

    Deterministic and order-sensitive: derive_seed(s, 1, 2) differs from
    derive_seed(s, 2, 1). Used to give every (purpose, iteration) pair its
    own stream while keeping a single user-facing seed.
    """
    state = master & _MASK64
    for index in path:
        state = _mix((state ^ _mix(index & _MASK64)) + _GAMMA & _MASK64)
    return state


class SplitMix64:
    """Seedable 64-bit generator with an unbiased shuffle."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        return _mix(self.state)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), bias-free via rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        mask = (1 << (bound - 1).bit_length()) - 1
        while True:
            r = self.next_u64() & mask
            if r < bound:
                return r

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle.

        Draws j exactly as below(i + 1) would, with next_u64 and _mix
        inlined and the state written back once at the end, so the
        permutation and the final state are those of the plain loop.
        """
        state = self.state
        for i in range(len(items) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while True:
                state = (state + _GAMMA) & _MASK64
                z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
                j = (z ^ (z >> 31)) & mask
                if j <= i:
                    break
            items[i], items[j] = items[j], items[i]
        self.state = state

    def choice(self, items):
        return items[self.below(len(items))]
