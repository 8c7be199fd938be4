"""Shuffle-insert / shuffle-delete benchmark over a word corpus.

Each iteration builds a tree from a shuffled corpus, then tears it down in
a second shuffled order, tallying every rotation by kind and phase. The
three replacement strategies see identical shuffle sequences for a given
(seed, iteration), so their rotation counts are directly comparable. All
randomness flows from the configured seed through the pinned generator in
avlkit.rng, which makes reports byte-reproducible. A report stores
the totals and the iteration count once; every average, in every
rendering, is derived from them.

The trees hold each word's rank among the run's words, not the word;
a repeated word is refused before any tree is built. An AVL tree's shape
and rotations depend only on how its keys compare, and the ranks compare
exactly as the words do, so every rotation and every count is the one
the words would give; comparing small ints is just cheaper than
comparing strings.
"""

from __future__ import annotations

import gc
import json
from itertools import pairwise
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .counters import PercentageRow, RotationCounters, StrategyTally
from .rng import SplitMix64, derive_seed
from .tree import AvlTree, ReplacementStrategy, StructuralError, _FrozenRecord, _Record


class CorpusError(ValueError):
    """The corpus file could not be turned into a usable word list."""


# Stream purposes for seed derivation; keeps corpus subsampling independent
# of the per-iteration shuffle streams.
_SHUFFLE_STREAM = 0
_SAMPLE_STREAM = 1

# Row labels of the table and csv renderings.
_ROW_LABELS = {
    ReplacementStrategy.RIGHTMOST_OF_LEFT: "Rightmost of Left",
    ReplacementStrategy.LEFTMOST_OF_RIGHT: "Leftmost of Right",
    ReplacementStrategy.OPTIMUM: "Optimum",
}


class Corpus(_FrozenRecord):
    """Deduplicated word list plus provenance.

    original_count is the raw line count before blank removal and
    deduplication; sha256 fingerprints the source bytes.
    """

    __slots__ = ("words", "source_path", "original_count", "sha256")

    def __init__(self, words: tuple[str, ...], source_path: str, original_count: int,
                 sha256: str):
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "source_path", source_path)
        object.__setattr__(self, "original_count", original_count)
        object.__setattr__(self, "sha256", sha256)

    @classmethod
    def from_words(cls, words, source_path="<memory>") -> "Corpus":
        """The corpus a file holding these words, one per line, would give."""
        return _parse_corpus(("\n".join(words) + "\n").encode("utf-8"), source_path)


def _parse_corpus(raw: bytes, source) -> Corpus:
    """Fingerprint UTF-8 bytes, split them into lines, then trim, drop
    blanks and drop duplicates.

    Lines end only where bytes.splitlines() ends them, at \\r\\n, \\r or
    \\n: the other Unicode line boundaries (U+0085, U+2028, \\f, ...) stay
    inside a word. A leading byte-order mark is dropped before the split,
    but the fingerprint is of the raw bytes, mark included. Duplicates
    keep their first occurrence. Raises CorpusError, naming the source,
    when the bytes are not UTF-8 or no word is left.
    """
    import hashlib  # here, not at the top: it loads OpenSSL, and only a corpus needs it

    digest = hashlib.sha256(raw).hexdigest()
    try:
        # not the "utf-8-sig" codec: loading it adds about 0.2 MB to a run's peak RSS
        text = raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"corpus {source} is not valid UTF-8: {exc}") from exc
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:
        lines.pop()  # the final line break ends a line; it does not start one
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


def _check_strategies(strategies: Sequence[ReplacementStrategy]) -> None:
    """Raise ValueError naming the strategies that are not ReplacementStrategy
    members, or else those listed more than once."""
    unknown = [strategy for strategy in strategies
               if not isinstance(strategy, ReplacementStrategy)]
    if unknown:
        raise ValueError(f"unknown strategy: {', '.join(map(repr, unknown))}")
    repeated = [strategy.value for strategy in dict.fromkeys(strategies)
                if strategies.count(strategy) > 1]
    if repeated:
        raise ValueError(f"strategy listed more than once: {', '.join(repeated)}")


class ExperimentConfig(_FrozenRecord):
    """What run_experiment runs. Any iterable of strategies but a str is
    read once into a tuple, in order, before it is checked."""

    __slots__ = ("iterations", "seed", "strategies", "sample_size")

    def __init__(self, iterations: int = 100, seed: int = 1,
                 strategies: Iterable[ReplacementStrategy] = tuple(ReplacementStrategy),
                 sample_size: Optional[int] = None):
        numbers = {"iterations": iterations, "seed": seed}
        if sample_size is not None:
            numbers["sample_size"] = sample_size
        for name, value in numbers.items():
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if iterations < 1:
            raise ValueError("iterations must be positive")
        if isinstance(strategies, str):
            raise ValueError(f"strategies must be ReplacementStrategy members, "
                             f"not the str {strategies!r}")
        strategies = tuple(strategies or ())
        if not strategies:
            raise ValueError("at least one strategy is required")
        _check_strategies(strategies)
        if sample_size is not None and sample_size < 1:
            raise ValueError("sample_size must be positive")
        object.__setattr__(self, "iterations", iterations)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "strategies", strategies)
        object.__setattr__(self, "sample_size", sample_size)


class BenchmarkReport(_Record):
    """Per-strategy rotation totals; averages and percentages are derived.

    Every average is a row's totals divided by the report's iterations,
    the one count they are taken over. to_dict and from_dict write and
    read the whole json schema, rows included. Each row's strategy must
    be a ReplacementStrategy member with no other row: ValueError if not.
    """

    __slots__ = ("seed", "iterations", "corpus_sha256", "sample_size", "rows")

    def __init__(self, seed: int, iterations: int, corpus_sha256: str,
                 sample_size: Optional[int], rows: list[StrategyTally]):
        _check_strategies([row.strategy for row in rows])
        self.seed = seed
        self.iterations = iterations
        self.corpus_sha256 = corpus_sha256
        self.sample_size = sample_size
        self.rows = rows

    def row_for(self, strategy: ReplacementStrategy) -> StrategyTally:
        for row in self.rows:
            if row.strategy is strategy:
                return row
        raise KeyError(strategy)

    def _ran_all_strategies(self) -> bool:
        return {row.strategy for row in self.rows} == set(ReplacementStrategy)

    @property
    def percentages(self) -> Optional[PercentageRow]:
        """Optimum's delete averages against the two fixed strategies'.

        Each column, Sum included, is 100 * optimum / ((a + b) / 2) at full
        precision; rounding is a rendering concern. None unless all three
        strategies ran and no baseline column averaged zero rotations,
        which is checked before any division.
        """
        if not self._ran_all_strategies():
            return None
        optimum, baseline_a, baseline_b = (
            self.row_for(strategy).delete_totals.averaged(self.iterations).as_dict().values()
            for strategy in (ReplacementStrategy.OPTIMUM, ReplacementStrategy.RIGHTMOST_OF_LEFT,
                             ReplacementStrategy.LEFTMOST_OF_RIGHT))
        means = [(a + b) / 2 for a, b in zip(baseline_a, baseline_b)]
        if any(mean <= 0 for mean in means):
            return None  # tiny corpora can produce zero-rotation baselines
        return PercentageRow(*(100.0 * opt / mean for opt, mean in zip(optimum, means)))

    def to_dict(self) -> dict:
        def phase(totals):
            return {"totals": totals.as_dict(),
                    "averages": totals.averaged(self.iterations).as_dict()}

        percentages = self.percentages
        return {
            "config": {
                "seed": self.seed,
                "iterations": self.iterations,
                "corpus_sha256": self.corpus_sha256,
                "sample_size": self.sample_size,
            },
            "rows": [{"strategy": row.strategy.value,
                      "insert": phase(row.insert_totals),
                      "delete": phase(row.delete_totals)} for row in self.rows],
            "percentages": None if percentages is None else percentages.as_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BenchmarkReport":
        """Inverse of to_dict; averages and percentages are derived again, not read."""

        def totals(phase):
            block = phase["totals"]
            return RotationCounters(block["ll"], block["lr"], block["rl"], block["rr"])

        config = data["config"]
        rows = [StrategyTally(ReplacementStrategy(row["strategy"]),
                              totals(row["insert"]), totals(row["delete"]))
                for row in data["rows"]]
        return cls(config["seed"], config["iterations"], config["corpus_sha256"],
                   config["sample_size"], rows)


def _words_used(corpus: Corpus, config: ExperimentConfig) -> int:
    """How many corpus words a run of this config uses.

    Raises ValueError when the sample is larger than the corpus.
    """
    count = len(corpus.words)
    if config.sample_size is None:
        return count
    if config.sample_size > count:
        raise ValueError(f"sample_size {config.sample_size} exceeds corpus size {count}")
    return config.sample_size


def _experiment_words(corpus: Corpus, config: ExperimentConfig) -> list:
    """The words a run of this config uses, in corpus or sample order.

    Raises CorpusError when there are none.
    """
    count = _words_used(corpus, config)
    if not count:
        raise CorpusError("experiment needs a non-empty corpus")
    words = list(corpus.words)
    if config.sample_size is not None:
        SplitMix64(derive_seed(config.seed, _SAMPLE_STREAM)).shuffle(words)
    return words[:count]


def _ranks(words: list) -> tuple[list, list[int]]:
    """The words in ascending order, and each word's index there.

    The index is the word's rank, and two ranks compare as their words do.
    That holds only if the sorted words are strictly increasing under <,
    so each adjacent pair is checked once, before any tree is built: an
    equal pair raises CorpusError naming the smallest repeated word, and
    any other pair that is not increasing (a NaN among floats, say) raises
    CorpusError naming both, as does a lone word that is not equal to
    itself. Words that cannot be compared raise TypeError from the sort.
    """
    ordered = sorted(words)
    for low, high in pairwise(ordered):
        if not low < high:
            if low == high:
                raise CorpusError(f"duplicate word {low!r} in corpus")
            raise CorpusError(f"corpus words {low!r} and {high!r} are not strictly "
                              f"ordered by <")
    if ordered[0] != ordered[0]:
        raise CorpusError(f"corpus word {ordered[0]!r} is not equal to itself")
    rank = {word: i for i, word in enumerate(ordered)}
    return ordered, [rank[word] for word in words]


def run_experiment(corpus: Corpus, config: ExperimentConfig) -> BenchmarkReport:
    """Run the shuffle-insert/shuffle-delete cycle for every configured strategy.

    Per iteration and strategy: start from an empty tree, insert every word
    in one shuffled order, delete every word in another, and verify the
    tree ends empty. Shuffle orders depend only on (seed, iteration), never
    on the strategy.

    The trees hold each word's rank among the run's words (those left
    after sampling), ranked once per run. Ranks compare as their words
    do, so every comparison has the same outcome, every tree the same shape
    and every rotation event is the one the words would give; the counts,
    and so every report, are identical. Errors name the word, not its rank.

    Each build's and each teardown's rotation events are kept in one list
    and tallied in one StrategyTally.record_all call.

    The run pauses the cyclic garbage collector: the trees and the report
    hold no reference cycles, so only the collector's passes over every
    live node would be lost. The pause is process-wide, so while a run is
    in progress no thread of the process collects cycles. On return, or on
    an error, the collector is enabled again only if it was enabled on
    entry.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        ordered, keys = _ranks(_experiment_words(corpus, config))
        tallies = [StrategyTally(strategy) for strategy in config.strategies]
        kept: list = []  # one build's or one teardown's events
        keep = kept.extend
        for iteration in range(config.iterations):
            rng = SplitMix64(derive_seed(config.seed, _SHUFFLE_STREAM, iteration))
            insert_order = keys[:]
            rng.shuffle(insert_order)
            delete_order = keys[:]
            rng.shuffle(delete_order)
            for tally in tallies:
                strategy = tally.strategy
                tree = AvlTree()
                insert = tree.insert
                for key in insert_order:
                    inserted, events = insert(key)
                    if not inserted:
                        raise StructuralError(f"word {ordered[key]!r} was refused on insert")
                    if events:
                        keep(events)
                tally.record_all(kept)
                kept.clear()
                check = tree.validate()
                if not check.ok:
                    first = check.violations[0]
                    word = None if first.key is None else ordered[first.key]
                    raise StructuralError(
                        f"invariant violation after insert phase: {first.kind} at {word!r}")
                delete = tree.delete
                for key in delete_order:
                    deleted, events = delete(key, strategy)
                    if not deleted:
                        raise StructuralError(f"word {ordered[key]!r} vanished before deletion")
                    if events:
                        keep(events)
                tally.record_all(kept)
                kept.clear()
                if tree.size != 0 or tree.root is not None:
                    raise StructuralError("tree not empty after delete phase")
    finally:
        if gc_was_enabled:
            gc.enable()

    return BenchmarkReport(
        seed=config.seed,
        iterations=config.iterations,
        corpus_sha256=corpus.sha256,
        sample_size=config.sample_size,
        rows=tallies,
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


def _delete_rows(report: BenchmarkReport, percentage_label: str):
    """The (label, LL..Sum values) rows of a rendering, and its closing notes.

    One row per strategy's delete averages, then the percentage row. When
    all three strategies ran but the percentage row is missing, a note
    says why.
    """
    rows = [(_ROW_LABELS[row.strategy],
             row.delete_totals.averaged(report.iterations).as_dict().values())
            for row in report.rows]
    notes = []
    percentages = report.percentages
    if percentages is not None:
        rows.append((percentage_label, percentages.as_dict().values()))
    elif report._ran_all_strategies():
        notes.append("# no percentage row: a baseline column averaged zero rotations")
    return rows, notes


def _render_table(report: BenchmarkReport) -> str:
    rows, notes = _delete_rows(report, "Percentage")
    header = ["Algorithm", "LL", "LR", "RL", "RR", "Sum"]
    body = [[label] + [f"{round(v):,}" for v in values] for label, values in rows]
    widths = [max(len(line[i]) for line in [header] + body) for i in range(6)]
    lines = []
    for line in [header] + body:
        cells = [line[0].ljust(widths[0])]
        cells += [cell.rjust(widths[i + 1]) for i, cell in enumerate(line[1:])]
        lines.append("  ".join(cells).rstrip())
    return "\n".join([_meta_line(report)] + lines + notes) + "\n"


def _render_csv(report: BenchmarkReport) -> str:
    rows, notes = _delete_rows(report, "percentage")
    lines = [_meta_line(report), "algorithm,ll,lr,rl,rr,sum"]
    lines += [",".join([label] + [repr(float(v)) for v in values]) for label, values in rows]
    return "\n".join(lines + notes) + "\n"
