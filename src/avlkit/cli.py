"""Command-line entry point: benchmark, randomized checking, and a deletion demo."""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .bench import (BenchmarkReport, ExperimentConfig, _words_used, load_corpus,
                    render_report, run_experiment)
from .map import AvlMap
from .rng import SplitMix64, derive_seed
from .tree import AvlTree, DeletionTrace, ReplacementStrategy, StructuralError, format_tree

_STRATEGY_TOKENS = {
    "rightmost": ReplacementStrategy.RIGHTMOST_OF_LEFT,
    "leftmost": ReplacementStrategy.LEFTMOST_OF_RIGHT,
    "optimum": ReplacementStrategy.OPTIMUM,
}


def add_run_flags(parser: argparse.ArgumentParser) -> None:
    """Declare the flags of one run: the ones `avlkit bench` and the reproduce script share."""
    parser.add_argument("--corpus", required=True, help="newline-delimited word file")
    parser.add_argument("--iterations", type=int, default=100)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--sample-size", type=int, default=None,
                        help="run on a seeded subsample of the corpus")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avlkit",
        description="AVL tree deletion strategies and rotation-count benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser(
        "bench", help="run the shuffle-insert/shuffle-delete rotation benchmark")
    add_run_flags(bench)
    bench.add_argument("--strategy", choices=[*_STRATEGY_TOKENS, "all"], default="all")
    bench.add_argument("--format", choices=["table", "csv", "json"], default="table")
    bench.set_defaults(func=cmd_bench)

    check = sub.add_parser(
        "check", help="randomized differential check against a reference model")
    check.add_argument("--ops", type=int, default=10_000)
    check.add_argument("--seed", type=int, default=1)
    check.set_defaults(func=cmd_check)

    demo = sub.add_parser(
        "demo", help="show how a deletion picks its replacement and rebalances")
    demo.add_argument("--keys", default="4,2,5,1,3",
                      help="comma-separated integer insertion order")
    demo.add_argument("--delete", type=str, default=None, metavar="KEY")
    demo.add_argument("--strategy", choices=list(_STRATEGY_TOKENS), default="optimum")
    demo.set_defaults(func=cmd_demo)

    return parser


def run_bench(corpus_path, iterations, seed, sample_size=None,
              strategies=tuple(ReplacementStrategy),
              announce=None) -> Optional[BenchmarkReport]:
    """Load the corpus, run the experiment and return its report: `avlkit bench`'s path.

    `strategies` are ReplacementStrategy members, checked by
    ExperimentConfig. `announce`, if given, is called with the number of
    words the run uses once the corpus and config are known to be good,
    just before the run starts. A bad corpus, a bad config, an OSError or
    ValueError from `announce` or a broken run prints `error: ...` on
    stderr and returns None.
    """
    try:
        corpus = load_corpus(corpus_path)
        config = ExperimentConfig(iterations=iterations, seed=seed,
                                  strategies=strategies, sample_size=sample_size)
        if announce is not None:
            announce(_words_used(corpus, config))
        return run_experiment(corpus, config)
    except (OSError, ValueError, StructuralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def cmd_bench(args) -> int:
    strategies = (tuple(ReplacementStrategy) if args.strategy == "all"
                  else (_STRATEGY_TOKENS[args.strategy],))
    report = run_bench(args.corpus, args.iterations, args.seed, args.sample_size, strategies)
    if report is None:
        return 1
    sys.stdout.write(render_report(report, args.format))
    return 0


def cmd_check(args) -> int:
    if args.ops < 1:
        print("error: --ops must be positive", file=sys.stderr)
        return 1
    rng = SplitMix64(derive_seed(args.seed, 0xC0DE))
    universe = max(16, args.ops // 10)
    tree_map = AvlMap()
    model: dict = {}
    strategies = list(ReplacementStrategy)
    counts = {"insert": 0, "delete": 0, "search": 0}

    for index in range(args.ops):
        roll = rng.below(100)
        key = rng.below(universe)
        if roll < 45:
            counts["insert"] += 1
            value = rng.below(1 << 30)
            actual, expected = tree_map.insert(key, value), model.get(key)
            model[key] = value
        elif roll < 80:
            counts["delete"] += 1
            strategy = rng.choice(strategies)
            actual, expected = tree_map.delete(key, strategy), model.pop(key, None)
        else:
            counts["search"] += 1
            actual, expected = key in tree_map, key in model
        if roll < 80 and actual == expected:  # a mutation: revalidate, then compare sizes
            report = tree_map.validate()
            if not report.ok:
                first = report.violations[0]
                print(f"invariant violation at op {index}: {first.kind} at key "
                      f"{first.key!r}: {first.detail}", file=sys.stderr)
                return 1
            actual, expected = len(tree_map), len(model)
        if actual != expected:
            print(f"divergence at op {index}: key={key!r} expected={expected!r} "
                  f"actual={actual!r}", file=sys.stderr)
            return 1

    if tree_map.items() != sorted(model.items()):
        print("divergence: final contents do not match the reference model",
              file=sys.stderr)
        return 1
    print(f"ok: {args.ops} ops ({counts['insert']} inserts, {counts['delete']} deletes, "
          f"{counts['search']} searches), {len(tree_map)} keys remain, "
          f"0 divergences (seed {args.seed})")
    return 0


def cmd_demo(args) -> int:
    try:
        keys = [int(part) for part in args.keys.split(",") if part.strip()]
        target = None if args.delete is None else int(args.delete)
    except ValueError as exc:
        print(f"error: malformed key argument: {exc}", file=sys.stderr)
        return 1
    strategy = _STRATEGY_TOKENS[args.strategy]
    tree = AvlTree(keys)
    print(f"inserted {keys} -> tree of {len(tree)}:")
    print(format_tree(tree))
    if target is None:
        return 0
    print(f"\ndeleting {target} using strategy {strategy.value}")
    trace = DeletionTrace()
    deleted, events = tree.delete(target, strategy, trace)
    if not deleted:
        print(f"key {target} not present; tree unchanged")
        return 0
    if trace.two_child:
        print(f"two children at balance {trace.node_balance}: replaced from the "
              f"{trace.direction.value} subtree by key {trace.replacement_key}")
    else:
        print("at most one child: unlinked directly, no replacement needed")
    print("rotations: " + (", ".join(e.kind.value for e in events) or "none"))
    print("\nafter:")
    print(format_tree(tree))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
