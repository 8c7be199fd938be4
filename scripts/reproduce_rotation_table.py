#!/usr/bin/env python3
"""Run the full rotation-count experiment and save every output format.

Convenience driver around `avlkit bench`: one run, three artifacts
(table to stdout, csv and json next to the corpus or into --out-dir).

    python3 scripts/reproduce_rotation_table.py --corpus words.txt
    python3 scripts/reproduce_rotation_table.py --corpus data/sample_words_10k.txt \
        --iterations 100 --out-dir results/

Pure Python: a full 235k-word, 100-iteration run takes on the order of
ten minutes. Use --sample-size for a quick look.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from avlkit import (ExperimentConfig, StructuralError, load_corpus,  # noqa: E402
                    render_report, run_experiment)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", required=True, type=Path)
    parser.add_argument("--iterations", type=int, default=100)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--sample-size", type=int, default=None)
    parser.add_argument("--out-dir", type=Path, default=None)
    args = parser.parse_args()

    try:
        corpus = load_corpus(args.corpus)
        config = ExperimentConfig(iterations=args.iterations, seed=args.seed,
                                  sample_size=args.sample_size)
        size = args.sample_size or len(corpus.words)
        print(f"running: {size} words x {args.iterations} iterations x 3 strategies "
              f"(seed {args.seed})", file=sys.stderr)
        started = time.perf_counter()
        report = run_experiment(corpus, config)
    except (OSError, ValueError, StructuralError) as exc:  # as `avlkit bench` reports them
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"done in {time.perf_counter() - started:.1f}s", file=sys.stderr)

    sys.stdout.write(render_report(report, "table"))
    out_dir = args.out_dir or args.corpus.parent
    stem = f"rotations_{args.corpus.stem}_s{args.seed}_i{args.iterations}"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for fmt in ("csv", "json"):
            target = out_dir / f"{stem}.{fmt}"
            target.write_text(render_report(report, fmt), encoding="utf-8")
            print(f"wrote {target}", file=sys.stderr)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
