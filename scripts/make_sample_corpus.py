#!/usr/bin/env python3
"""Generate a deterministic pseudo-word corpus for benchmark runs.

Rotation counts depend only on the number of distinct keys and the shuffle
order, never on what the words look like, so synthetic words benchmark
exactly like a real dictionary of the same size. The bundled
data/sample_words_10k.txt was produced by:

    python3 scripts/make_sample_corpus.py --count 10000 --out data/sample_words_10k.txt

A full-scale corpus (for example 235886 words, the size of a classic Unix
dictionary) can be generated the same way with --count 235886.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from avlkit.rng import SplitMix64  # noqa: E402

CONSONANTS = "bcdfghjklmnpqrstvwz"
VOWELS = "aeiouy"
GENERATOR_SEED = 0x5EEDC0DE  # fixed so the bundled corpus is regenerable bit-for-bit


def pseudo_word(rng: SplitMix64) -> str:
    syllables = 2 + rng.below(3)
    parts = []
    for _ in range(syllables):
        parts.append(CONSONANTS[rng.below(len(CONSONANTS))])
        parts.append(VOWELS[rng.below(len(VOWELS))])
    if rng.below(3) == 0:
        parts.append(CONSONANTS[rng.below(len(CONSONANTS))])
    return "".join(parts)


def generate(count: int, seed: int = GENERATOR_SEED) -> list[str]:
    rng = SplitMix64(seed)
    words: set[str] = set()
    while len(words) < count:
        words.add(pseudo_word(rng))
    return sorted(words)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=10_000)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=GENERATOR_SEED)
    args = parser.parse_args()
    if args.count < 1:
        parser.error(f"--count must be at least 1, got {args.count}")
    words = generate(args.count, args.seed)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text("\n".join(words) + "\n", encoding="utf-8")
    print(f"wrote {len(words)} words to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
