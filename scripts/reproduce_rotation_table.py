#!/usr/bin/env python3
"""Run the full rotation-count experiment and save every output format.

Convenience driver around `avlkit bench`: one run, three artifacts
(table to stdout, csv and json next to the corpus or into --out-dir).
It takes `avlkit bench`'s run flags (--corpus, --iterations, --seed,
--sample-size, declared once by `avlkit.cli.add_run_flags`, with the
same defaults) plus --out-dir, and always runs all three strategies.
It loads and runs through `avlkit bench`'s own path
(`avlkit.cli.run_bench`), so it reports a bad corpus or bad flags with
the same `error: ...` line and exit status 1. It makes the output
directory once the corpus and flags are known to be good and before the
run starts, so a bad --out-dir fails at once and a bad corpus or bad
flags leave no directory behind.

    python3 scripts/reproduce_rotation_table.py --corpus words.txt
    python3 scripts/reproduce_rotation_table.py --corpus data/sample_words_10k.txt \
        --iterations 100 --out-dir results/

Files are named rotations_<corpus stem>_s<seed>_i<iterations>, with
_n<sample size> added when --sample-size is given, so a subsample run
never overwrites a full run's files.

Pure Python: a full 235k-word, 100-iteration run takes about 9 minutes
(8.7 min with CPython 3.11.7 on a shared 2-core x86_64 machine).
Use --sample-size for a quick look.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from avlkit import render_report  # noqa: E402
from avlkit.cli import add_run_flags, run_bench  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_run_flags(parser)
    parser.add_argument("--out-dir", type=Path, default=None)
    args = parser.parse_args()

    corpus = Path(args.corpus)
    out_dir = args.out_dir or corpus.parent

    def announce(words):
        # a bad --out-dir fails here, before a run whose results it would lose
        out_dir.mkdir(parents=True, exist_ok=True)
        print(f"running: {words} words x {args.iterations} iterations x 3 strategies "
              f"(seed {args.seed})", file=sys.stderr)

    started = time.perf_counter()
    report = run_bench(args.corpus, args.iterations, args.seed, args.sample_size,
                       announce=announce)
    if report is None:
        return 1
    print(f"done in {time.perf_counter() - started:.1f}s", file=sys.stderr)

    sys.stdout.write(render_report(report, "table"))
    stem = f"rotations_{corpus.stem}_s{args.seed}_i{args.iterations}"
    if args.sample_size is not None:
        stem += f"_n{args.sample_size}"
    try:
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
