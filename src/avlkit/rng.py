"""Deterministic pseudo-random primitives for reproducible experiments.

The generator is SplitMix64: a tiny, publicly specified 64-bit mixing
generator. It is implemented here rather than taken from the stdlib so that
an identical seed produces an identical stream on every platform and every
Python version, which makes benchmark output byte-reproducible.

SplitMix64 is counter-based: from state s, draw k (k = 1, 2, ...) is
_mix((s + k * GAMMA) mod 2**64). So `_draws` can compute a block of
draws at once, in lanes of one Python int, and `SplitMix64.shuffle`
takes its draws that way; they are bit-identical to those `next_u64`
returns one by one.
"""

from __future__ import annotations

import functools
import struct
from operator import length_hint

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    """SplitMix64 output scrambler (two xor-multiply rounds plus a final shift)."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@functools.cache
def _lanes(count: int):
    """The constants of `count` 128-bit lanes in one int, lane 0 lowest.

    Returns a 1 in each lane, (k + 1) * GAMMA in lane k, a mask of each
    lane's low 64 bits, and an unpacker of those low words. `shuffle`
    asks only for powers of two up to 1024, so the cache holds at most
    11 layouts (about 170 KB).
    """
    def lanes(values):
        return int.from_bytes(b"".join(v.to_bytes(16, "little") for v in values), "little")

    return (lanes([1] * count), _GAMMA * lanes(range(1, count + 1)),
            lanes([_MASK64] * count), struct.Struct("<" + "Q8x" * count).unpack)


def _draws(state: int, count: int) -> tuple[int, ...]:
    """The next `count` outputs of a SplitMix64 at `state`, as next_u64 gives them.

    Lane k starts as state + (k + 1) * GAMMA, below 2**75. Each lane is cut
    back to 64 bits before it is multiplied, so no product (below 2**128)
    spills into the next lane. The unpacker reads the low words from a
    little-endian byte string, so the result is the same on every platform.
    """
    ones, steps, low, unpack = _lanes(count)
    z = (state * ones + steps) & low
    z = ((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
    z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB & low
    return unpack((z ^ (z >> 31)).to_bytes(16 * count, "little"))


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
        """Uniform integer in [0, bound), bias-free via rejection sampling.

        A draw is one 64-bit output, so bound must lie in [1, 2**64].
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound > 1 << 64:
            raise ValueError(f"bound {bound} exceeds 2**64, the range of one draw")
        mask = (1 << (bound - 1).bit_length()) - 1
        while True:
            r = self.next_u64() & mask
            if r < bound:
                return r

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle.

        Draws j exactly as below(i + 1) would. The draws come from
        `_draws` in blocks of up to 1024 lanes, bit-identical to successive
        next_u64 calls, and the state moves past the draws used only, so
        the permutation and the final state are those of the plain loop.
        """
        state = self.state
        i = len(items) - 1
        mask = (1 << i.bit_length()) - 1
        half = mask >> 1
        while i > 0:
            draws = _draws(state, min(1024, mask + 1))
            rest = iter(draws)
            for r in rest:
                j = r & mask
                if j <= i:
                    items[i], items[j] = items[j], items[i]
                    i -= 1
                    if i == half:
                        if not i:
                            break
                        mask = half
                        half >>= 1
            # a shuffle that ends inside a block uses only part of it
            state = (state + (len(draws) - length_hint(rest)) * _GAMMA) & _MASK64
        self.state = state

    def choice(self, items):
        return items[self.below(len(items))]
