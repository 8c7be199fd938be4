"""Shuffle-insert / shuffle-delete benchmark over a word corpus.

Each iteration builds a tree from a shuffled corpus, then tears it down in
a second shuffled order, tallying every rotation by kind and phase. The
three replacement strategies see identical shuffle sequences for a given
(seed, iteration), so their rotation counts are directly comparable. All
randomness flows from the configured seed through the pinned generator in
avlkit.rng, which makes reports byte-reproducible.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .counters import PercentageRow, RotationCounters, StrategyTally, percentage_row
from .rng import SplitMix64, derive_seed
from .tree import (
    DEFAULT_STRATEGY_ORDER,
    AvlTree,
    Phase,
    ReplacementStrategy,
    StructuralError,
)


class CorpusError(ValueError):
    """The corpus file could not be turned into a usable word list."""


# Stream purposes for seed derivation; keeps corpus subsampling independent
# of the per-iteration shuffle streams.
_SHUFFLE_STREAM = 0
_SAMPLE_STREAM = 1


@dataclass(frozen=True)
class Corpus:
    """Deduplicated word list plus provenance.

    original_count is the raw line count before blank removal and
    deduplication; sha256 fingerprints the source bytes.
    """

    words: tuple[str, ...]
    source_path: str
    original_count: int
    sha256: str

    @classmethod
    def from_words(cls, words, source_path="<memory>") -> "Corpus":
        """The corpus a file holding these words, one per line, would give."""
        return _parse_corpus(("\n".join(words) + "\n").encode("utf-8"), source_path)


def _parse_corpus(raw: bytes, source) -> Corpus:
    """Fingerprint UTF-8 bytes, then trim, drop blanks and drop duplicates.

    Duplicates keep their first occurrence. Raises CorpusError, naming the
    source, when the bytes are not UTF-8 or no word is left.
    """
    digest = hashlib.sha256(raw).hexdigest()
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise CorpusError(f"corpus {source} is not valid UTF-8: {exc}") from exc
    words: list[str] = []
    seen: set[str] = set()
    for line in lines:
        word = line.strip()
        if word and word not in seen:
            seen.add(word)
            words.append(word)
    if not words:
        raise CorpusError(f"corpus {source} is empty after filtering")
    return Corpus(tuple(words), str(source), len(lines), digest)


def load_corpus(path) -> Corpus:
    """Read a newline-delimited word file: trim, drop blanks, drop duplicates.

    Duplicates keep their first occurrence. Raises CorpusError when the
    file is not UTF-8 or nothing is left; an unreadable path raises the
    underlying OSError.
    """
    return _parse_corpus(Path(path).read_bytes(), path)


def seeded_shuffle(words, rng: SplitMix64) -> list:
    """Return an unbiased Fisher-Yates permutation of `words` drawn from `rng`."""
    permuted = list(words)
    rng.shuffle(permuted)
    return permuted


@dataclass(frozen=True)
class ExperimentConfig:
    iterations: int = 100
    seed: int = 1
    strategies: tuple[ReplacementStrategy, ...] = DEFAULT_STRATEGY_ORDER
    sample_size: Optional[int] = None

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if not self.strategies:
            raise ValueError("at least one strategy is required")
        if self.sample_size is not None and self.sample_size < 1:
            raise ValueError("sample_size must be positive")


@dataclass
class StrategyRow:
    """One strategy's accumulated totals and per-iteration averages."""

    strategy: ReplacementStrategy
    insert_totals: RotationCounters
    delete_totals: RotationCounters
    insert_average: RotationCounters
    delete_average: RotationCounters

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy.value,
            "insert": {"totals": self.insert_totals.as_dict(),
                       "averages": self.insert_average.as_dict()},
            "delete": {"totals": self.delete_totals.as_dict(),
                       "averages": self.delete_average.as_dict()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StrategyRow":
        def counters(block):
            return RotationCounters(block["ll"], block["lr"], block["rl"], block["rr"])

        return cls(
            strategy=ReplacementStrategy(data["strategy"]),
            insert_totals=counters(data["insert"]["totals"]),
            delete_totals=counters(data["delete"]["totals"]),
            insert_average=counters(data["insert"]["averages"]),
            delete_average=counters(data["delete"]["averages"]),
        )


@dataclass
class BenchmarkReport:
    """Per-strategy rotation averages plus the percentage comparison row."""

    seed: int
    iterations: int
    corpus_sha256: str
    sample_size: Optional[int]
    rows: list[StrategyRow]
    percentages: Optional[PercentageRow]

    def row_for(self, strategy: ReplacementStrategy) -> StrategyRow:
        for row in self.rows:
            if row.strategy is strategy:
                return row
        raise KeyError(strategy)

    def to_dict(self) -> dict:
        return {
            "config": {
                "seed": self.seed,
                "iterations": self.iterations,
                "corpus_sha256": self.corpus_sha256,
                "sample_size": self.sample_size,
            },
            "rows": [row.to_dict() for row in self.rows],
            "percentages": None if self.percentages is None else self.percentages.as_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BenchmarkReport":
        config = data["config"]
        pct = data["percentages"]
        return cls(
            seed=config["seed"],
            iterations=config["iterations"],
            corpus_sha256=config["corpus_sha256"],
            sample_size=config["sample_size"],
            rows=[StrategyRow.from_dict(row) for row in data["rows"]],
            percentages=None if pct is None else PercentageRow(**pct),
        )


def _experiment_words(corpus: Corpus, config: ExperimentConfig) -> list:
    words = list(corpus.words)
    if config.sample_size is None:
        return words
    if config.sample_size > len(words):
        raise ValueError(
            f"sample_size {config.sample_size} exceeds corpus size {len(words)}")
    rng = SplitMix64(derive_seed(config.seed, _SAMPLE_STREAM))
    rng.shuffle(words)
    return words[:config.sample_size]


def run_experiment(corpus: Corpus, config: ExperimentConfig) -> BenchmarkReport:
    """Run the shuffle-insert/shuffle-delete cycle for every configured strategy.

    Per iteration and strategy: start from an empty tree, insert every word
    in one shuffled order, delete every word in another, and verify the
    tree ends empty. Shuffle orders depend only on (seed, iteration), never
    on the strategy. The percentage row is filled in when all three
    strategies ran and the baselines are non-degenerate.
    """
    words = _experiment_words(corpus, config)
    if not words:
        raise CorpusError("experiment needs a non-empty corpus")
    tallies = {strategy: StrategyTally(strategy, iterations=config.iterations)
               for strategy in config.strategies}

    for iteration in range(config.iterations):
        rng = SplitMix64(derive_seed(config.seed, _SHUFFLE_STREAM, iteration))
        insert_order = seeded_shuffle(words, rng)
        delete_order = seeded_shuffle(words, rng)
        for strategy in config.strategies:
            record = tallies[strategy].record
            tree = AvlTree()
            insert = tree.insert
            for word in insert_order:
                inserted, events = insert(word)
                if not inserted:
                    raise StructuralError(f"duplicate word {word!r} in corpus")
                for event in events:
                    record(event)
            check = tree.validate()
            if not check.ok:
                first = check.violations[0]
                raise StructuralError(
                    f"invariant violation after insert phase: {first.kind} at {first.key!r}")
            delete = tree.delete
            for word in delete_order:
                deleted, events = delete(word, strategy)
                if not deleted:
                    raise StructuralError(f"word {word!r} vanished before deletion")
                for event in events:
                    record(event)
            if tree.size != 0 or tree.root is not None:
                raise StructuralError("tree not empty after delete phase")

    rows = []
    for strategy in config.strategies:
        tally = tallies[strategy]
        rows.append(StrategyRow(
            strategy=strategy,
            insert_totals=tally.insert_counters,
            delete_totals=tally.delete_counters,
            insert_average=tally.average(Phase.INSERT),
            delete_average=tally.average(Phase.DELETE),
        ))

    percentages = None
    if set(config.strategies) == set(DEFAULT_STRATEGY_ORDER):
        report_rows = {row.strategy: row for row in rows}
        optimum = report_rows[ReplacementStrategy.OPTIMUM].delete_average
        a = report_rows[ReplacementStrategy.RIGHTMOST_OF_LEFT].delete_average
        b = report_rows[ReplacementStrategy.LEFTMOST_OF_RIGHT].delete_average
        try:
            percentages = percentage_row(optimum, a, b)
        except ValueError:
            percentages = None  # tiny corpora can produce zero-rotation baselines

    return BenchmarkReport(
        seed=config.seed,
        iterations=config.iterations,
        corpus_sha256=corpus.sha256,
        sample_size=config.sample_size,
        rows=rows,
        percentages=percentages,
    )


def render_report(report: BenchmarkReport, fmt: str = "table") -> str:
    """Render as an aligned table, csv, or json.

    The table shows delete-phase averages rounded to integers; csv and
    json carry full precision.
    """
    if fmt == "table":
        return _render_table(report)
    if fmt == "csv":
        return _render_csv(report)
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _meta_line(report: BenchmarkReport) -> str:
    """The config echo that heads the table and csv renderings."""
    return (f"# seed={report.seed} iterations={report.iterations}"
            f" corpus_sha256={report.corpus_sha256} sample_size={report.sample_size}")


def _render_table(report: BenchmarkReport) -> str:
    header = ["Algorithm", "LL", "LR", "RL", "RR", "Sum"]
    body: list[list[str]] = []
    for row in report.rows:
        avg = row.delete_average
        body.append([row.strategy.label] + [f"{round(v):,}" for v in
                                            (avg.ll, avg.lr, avg.rl, avg.rr, avg.sum)])
    if report.percentages is not None:
        p = report.percentages
        body.append(["Percentage"] + [f"{round(v):,}" for v in
                                      (p.ll, p.lr, p.rl, p.rr, p.sum)])
    widths = [max(len(line[i]) for line in [header] + body) for i in range(6)]
    lines = []
    for line in [header] + body:
        cells = [line[0].ljust(widths[0])]
        cells += [cell.rjust(widths[i + 1]) for i, cell in enumerate(line[1:])]
        lines.append("  ".join(cells).rstrip())
    return "\n".join([_meta_line(report)] + lines) + "\n"


def _render_csv(report: BenchmarkReport) -> str:
    lines = [_meta_line(report), "algorithm,ll,lr,rl,rr,sum"]
    for row in report.rows:
        avg = row.delete_average
        lines.append(",".join([row.strategy.label] + [repr(float(v)) for v in
                                                      (avg.ll, avg.lr, avg.rl, avg.rr, avg.sum)]))
    if report.percentages is not None:
        p = report.percentages
        lines.append(",".join(["percentage"] + [repr(float(v)) for v in
                                                (p.ll, p.lr, p.rl, p.rr, p.sum)]))
    return "\n".join(lines) + "\n"

