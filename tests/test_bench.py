"""Benchmark harness: corpus loading, experiment runs, report rendering."""

import gc
import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, reject, settings, strategies as st

import avlkit.bench
import avlkit.cli
import avlkit.counters
import avlkit.map
import avlkit.rng
import avlkit.tree
from avlkit import (
    AvlTree,
    BenchmarkReport,
    Corpus,
    CorpusError,
    ExperimentConfig,
    Phase,
    ReplacementStrategy,
    RotationEvent,
    RotationKind,
    StructuralError,
    load_corpus,
    render_report,
    run_experiment,
)
from avlkit.bench import _SHUFFLE_STREAM, _experiment_words
from avlkit.cli import main
from avlkit.counters import StrategyTally
from avlkit.rng import SplitMix64, derive_seed

SAMPLE_CORPUS = Path(__file__).resolve().parent.parent / "data" / "sample_words_10k.txt"


@pytest.fixture
def small_corpus():
    return Corpus.from_words([f"w{i:03d}" for i in range(40)])


def small_config(**overrides):
    defaults = dict(iterations=3, seed=5)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestLoadCorpus:
    def test_dedup_and_blank_removal(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("a\nb\na\n\n", encoding="utf-8")
        corpus = load_corpus(path)
        assert corpus.words == ("a", "b")
        assert corpus.original_count == 4
        assert corpus.source_path == str(path)
        assert len(corpus.sha256) == 64

    def test_whitespace_trimmed(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("  spaced  \nplain\n", encoding="utf-8")
        assert load_corpus(path).words == ("spaced", "plain")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n\n  \n", encoding="utf-8")
        with pytest.raises(CorpusError):
            load_corpus(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_corpus(tmp_path / "nope.txt")

    def test_from_words_requires_content(self):
        with pytest.raises(CorpusError):
            Corpus.from_words(["", "  "])

    def test_from_words_matches_file_of_same_lines(self, tmp_path):
        lines = ["  b", "a", "", "b", "caf\u00e9 "]
        path = tmp_path / "words.txt"
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
        from_file = load_corpus(path)
        from_memory = Corpus.from_words(lines)
        assert from_memory.words == from_file.words == ("b", "a", "caf\u00e9")
        assert from_memory.original_count == from_file.original_count == 5
        assert from_memory.sha256 == from_file.sha256

    def test_byte_order_mark_is_not_part_of_the_first_word(self, tmp_path):
        body = "word\nword\nother\n".encode("utf-8")
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(body)
        marked.write_bytes(b"\xef\xbb\xbf" + body)
        without, with_mark = load_corpus(plain), load_corpus(marked)
        assert with_mark.words == without.words == ("word", "other")
        assert with_mark.original_count == without.original_count == 3
        assert with_mark.sha256 == hashlib.sha256(marked.read_bytes()).hexdigest()
        assert with_mark.sha256 != without.sha256

    @pytest.mark.parametrize("boundary", ["\x85", "\u2028", "\u2029", "\f", "\v",
                                          "\x1c", "\x1d", "\x1e"])
    def test_only_cr_and_lf_end_a_line(self, tmp_path, boundary):
        word = f"al{boundary}pha"
        path = tmp_path / "words.txt"
        path.write_bytes(f"{word}\r\nbeta\rgamma\n".encode("utf-8"))
        from_file = load_corpus(path)
        assert from_file.words == (word, "beta", "gamma")
        assert from_file.original_count == 3
        from_memory = Corpus.from_words([word, "beta"])
        assert from_memory.words == (word, "beta")
        assert from_memory.original_count == 2

    @given(st.lists(st.text(), min_size=1))
    def test_fingerprint_is_the_sha256_of_the_lines(self, words):
        try:
            corpus = Corpus.from_words(words)
        except CorpusError:
            reject()  # no word left
        expected = hashlib.sha256(("\n".join(words) + "\n").encode("utf-8")).hexdigest()
        assert corpus.sha256 == expected

    def test_non_utf8_file_rejected_with_its_name(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes("caf\u00e9\n".encode("latin-1"))
        with pytest.raises(CorpusError, match="latin1.txt"):
            load_corpus(path)


class TestExperimentConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ExperimentConfig(iterations=0)
        with pytest.raises(ValueError):
            ExperimentConfig(strategies=())
        with pytest.raises(ValueError):
            ExperimentConfig(sample_size=0)
        with pytest.raises(ValueError, match="optimum"):
            ExperimentConfig(strategies=(ReplacementStrategy.OPTIMUM,
                                         ReplacementStrategy.OPTIMUM))
        # a str is one token, not an iterable of one-character strategies
        with pytest.raises(ValueError, match="strategies must be ReplacementStrategy "
                                             "members, not the str 'optimum'"):
            ExperimentConfig(strategies="optimum")

    @pytest.mark.parametrize("name, value", [
        ("iterations", 2.5), ("iterations", None), ("seed", 1.5), ("seed", "x"),
        ("seed", None), ("sample_size", 2.5), ("sample_size", "3"),
        ("iterations", True), ("seed", False), ("sample_size", True)])
    def test_rejects_a_number_that_is_not_an_int(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an int, got {value!r}"):
            ExperimentConfig(**{name: value})

    @pytest.mark.parametrize("strategy", ["optimum", None, "OPTIMUM"])
    def test_rejects_a_strategy_that_is_not_a_member(self, strategy):
        with pytest.raises(ValueError, match=f"unknown strategy: {strategy!r}"):
            ExperimentConfig(strategies=(ReplacementStrategy.OPTIMUM, strategy))

    def test_strategies_are_kept_as_a_tuple(self):
        order = (ReplacementStrategy.OPTIMUM, ReplacementStrategy.RIGHTMOST_OF_LEFT)
        config = ExperimentConfig(strategies=list(order))
        assert config.strategies == order
        assert config == ExperimentConfig(strategies=order)
        assert hash(config) == hash(ExperimentConfig(strategies=order))

    def test_an_iterator_of_strategies_is_read_once(self, small_corpus):
        config = small_config(strategies=iter(ReplacementStrategy))
        assert config.strategies == tuple(ReplacementStrategy)
        report = run_experiment(small_corpus, config)
        assert [row.strategy for row in report.rows] == list(ReplacementStrategy)

    @pytest.mark.parametrize("strategies", [(), [], iter([]), None])
    def test_no_strategy_is_rejected(self, strategies):
        with pytest.raises(ValueError, match="at least one strategy is required"):
            ExperimentConfig(strategies=strategies)

    def test_sample_size_above_corpus_rejected(self, small_corpus):
        with pytest.raises(ValueError):
            run_experiment(small_corpus, small_config(sample_size=999))


class TestRunExperiment:
    def test_single_word_corpus_has_no_rotations(self):
        corpus = Corpus.from_words(["solo"])
        report = run_experiment(corpus, ExperimentConfig(iterations=1, seed=1))
        for row in report.rows:
            assert row.delete_totals.sum == 0
            assert row.insert_totals.sum == 0
        assert report.percentages is None  # zero baselines: no comparison row

    def test_insert_phase_identical_across_strategies(self, small_corpus):
        report = run_experiment(small_corpus, small_config())
        totals = {row.insert_totals.as_dict()["sum"] for row in report.rows}
        dicts = [row.insert_totals.as_dict() for row in report.rows]
        assert dicts[0] == dicts[1] == dicts[2]
        assert len(totals) == 1

    def test_averages_are_totals_over_iterations(self, small_corpus):
        config = small_config()
        report = run_experiment(small_corpus, config)
        rows = json.loads(render_report(report, "json"))["rows"]
        csv_rows = render_report(report, "csv").splitlines()[2:]
        for row, data, line in zip(report.rows, rows, csv_rows):
            averages = data["delete"]["averages"]
            assert averages["ll"] == row.delete_totals.ll / config.iterations
            assert averages["sum"] == pytest.approx(row.delete_totals.sum / config.iterations)
            assert float(line.split(",")[1]) == averages["ll"]

    def test_identical_config_gives_identical_reports(self, small_corpus):
        a = run_experiment(small_corpus, small_config())
        b = run_experiment(small_corpus, small_config())
        assert render_report(a, "csv") == render_report(b, "csv")
        assert render_report(a, "json") == render_report(b, "json")

    def test_different_seeds_change_counts(self, small_corpus):
        a = run_experiment(small_corpus, small_config(seed=5))
        b = run_experiment(small_corpus, small_config(seed=6))
        assert render_report(a, "csv") != render_report(b, "csv")

    def test_row_order_follows_config(self, small_corpus):
        config = small_config(strategies=(
            ReplacementStrategy.OPTIMUM,
            ReplacementStrategy.RIGHTMOST_OF_LEFT,
            ReplacementStrategy.LEFTMOST_OF_RIGHT,
        ))
        report = run_experiment(small_corpus, config)
        assert [row.strategy for row in report.rows] == list(config.strategies)
        assert report.percentages is not None  # all three present, any order

    def test_single_strategy_run_has_no_percentage_row(self, small_corpus):
        config = small_config(strategies=(ReplacementStrategy.OPTIMUM,))
        report = run_experiment(small_corpus, config)
        assert [row.strategy for row in report.rows] == [ReplacementStrategy.OPTIMUM]
        assert report.percentages is None
        for fmt in ("table", "csv"):  # no comparison was asked for, so no note either
            lines = render_report(report, fmt).splitlines()
            assert [line for line in lines if line.startswith("#")] == lines[:1]

    def test_row_for_refuses_a_strategy_the_run_left_out(self, small_corpus):
        report = run_experiment(small_corpus,
                                small_config(strategies=(ReplacementStrategy.OPTIMUM,)))
        assert report.row_for(ReplacementStrategy.OPTIMUM) is report.rows[0]
        with pytest.raises(KeyError):
            report.row_for(ReplacementStrategy.LEFTMOST_OF_RIGHT)

    def test_sample_size_is_deterministic_subset(self, small_corpus):
        a = run_experiment(small_corpus, small_config(sample_size=10))
        b = run_experiment(small_corpus, small_config(sample_size=10))
        assert render_report(a, "json") == render_report(b, "json")
        assert a.sample_size == 10

    def test_config_echo_matches_inputs(self, small_corpus):
        report = run_experiment(small_corpus, small_config())
        assert report.seed == 5
        assert report.iterations == 3
        assert report.corpus_sha256 == small_corpus.sha256
        assert report.sample_size is None

    def test_midrun_invariant_failure_aborts(self, small_corpus, monkeypatch):
        class LyingTree(avlkit.bench.AvlTree):
            def delete(self, key, strategy=None, trace=None):
                return False, []  # pretends every word is already gone

        monkeypatch.setattr(avlkit.bench, "AvlTree", LyingTree)
        with pytest.raises(StructuralError):
            run_experiment(small_corpus, small_config())

    @pytest.mark.parametrize("words, error, message", [
        ((), CorpusError, "experiment needs a non-empty corpus"),
        (("w1", "w2", "w1"), CorpusError, "duplicate word 'w1' in corpus"),
        (("b", "c", "a", "b"), CorpusError, "duplicate word 'b' in corpus"),
        ((1.0, float("nan"), 2.0), CorpusError,
         r"corpus words 1\.0 and nan are not strictly ordered by <"),
        ((float("nan"),), CorpusError, "corpus word nan is not equal to itself"),
        (("w1", 2, "w3"), TypeError,
         "'<' not supported between instances of '(int|str)' and '(int|str)'"),
    ])
    def test_hand_built_corpus_is_checked(self, words, error, message):
        corpus = Corpus(words=words, source_path="<hand-built>",
                        original_count=len(words), sha256="")
        with pytest.raises(error, match=f"^{message}$"):
            run_experiment(corpus, small_config())

    def test_refused_insert_aborts(self, monkeypatch):
        class RefusingTree(avlkit.bench.AvlTree):
            def insert(self, key):
                return False, []  # refuses every key, as if already present

        monkeypatch.setattr(avlkit.bench, "AvlTree", RefusingTree)
        with pytest.raises(StructuralError, match="^word 'solo' was refused on insert$"):
            run_experiment(Corpus.from_words(["solo"]), small_config())

    def test_invalid_tree_after_insert_phase_aborts(self, small_corpus, monkeypatch):
        class SkewedTree(avlkit.bench.AvlTree):
            def validate(self):
                self.root.balance = 2  # out of range, whatever the real balance
                return super().validate()

        monkeypatch.setattr(avlkit.bench, "AvlTree", SkewedTree)
        message = r"^invariant violation after insert phase: balance-mismatch at 'w\d{3}'$"
        with pytest.raises(StructuralError, match=message):
            run_experiment(small_corpus, small_config())

    def test_tree_left_non_empty_after_delete_phase_aborts(self, small_corpus, monkeypatch):
        class KeepsLastWord(avlkit.bench.AvlTree):
            def delete(self, key, strategy=None, trace=None):
                if self.size == 1:
                    return True, []  # claims the last deletion without making it
                return super().delete(key, strategy, trace)

        monkeypatch.setattr(avlkit.bench, "AvlTree", KeepsLastWord)
        with pytest.raises(StructuralError, match="^tree not empty after delete phase$"):
            run_experiment(small_corpus, small_config())


def set_gc(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def gc_restored():
    """Whatever a test does to cyclic GC, put it back as it was."""
    was_enabled = gc.isenabled()
    yield
    set_gc(was_enabled)


class TestGcPause:
    """run_experiment pauses cyclic GC and hands the caller's state back."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_a_run_pauses_gc_and_restores_it(self, small_corpus, monkeypatch, gc_restored,
                                             enabled):
        seen = []

        class WatchingTree(avlkit.bench.AvlTree):
            def validate(self):
                seen.append(gc.isenabled())
                return super().validate()

        monkeypatch.setattr(avlkit.bench, "AvlTree", WatchingTree)
        set_gc(enabled)
        run_experiment(small_corpus, small_config())
        assert seen and not any(seen)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_a_run_that_raises_restores_gc(self, small_corpus, monkeypatch, gc_restored,
                                           enabled):
        class LyingTree(avlkit.bench.AvlTree):
            def delete(self, key, strategy=None, trace=None):
                return False, []

        monkeypatch.setattr(avlkit.bench, "AvlTree", LyingTree)
        set_gc(enabled)
        with pytest.raises(StructuralError):
            run_experiment(small_corpus, small_config())
        assert gc.isenabled() is enabled


# Every name perfbench/tracer.py wraps, by the module it looks the owner up in.
TRACED_NAMES = [
    (avlkit.tree, "AvlTree", ("insert", "put", "delete", "pop", "get", "search",
                              "validate", "clone", "__init__")),
    (avlkit.map, "AvlMap", ("get", "__contains__", "insert", "delete")),
    (avlkit.counters, "StrategyTally", ("record",)),
    (avlkit.rng, "SplitMix64", ("shuffle",)),
]
TRACED_FUNCTIONS = ("run_experiment", "load_corpus", "render_report")


class TestTracedContract:
    """What the benchmark's traced run relies on: the names it wraps, and a
    run's calls through them, which it counts to check rotations and builds."""

    @pytest.mark.parametrize("module, owner, names", TRACED_NAMES)
    def test_each_wrapped_method_is_in_its_class_dict(self, module, owner, names):
        cls = vars(module)[owner]
        for name in names:
            assert callable(vars(cls)[name]), name

    def test_cli_holds_the_bench_functions_themselves(self):
        for name in TRACED_FUNCTIONS:
            assert vars(avlkit.cli)[name] is vars(avlkit.bench)[name], name
        assert callable(vars(avlkit.cli)["main"])

    def test_a_run_inserts_and_deletes_each_word_once_per_strategy(self, monkeypatch):
        words, iterations = 50, 2
        strategies = len(ReplacementStrategy)
        calls, rotations = Counter(), Counter()

        def counted(name):
            method = vars(AvlTree)[name]

            def wrapper(*args, **kwargs):
                calls[name] += 1
                result = method(*args, **kwargs)
                if name != "__init__":
                    rotations[name] += len(result[-1])
                return result

            return wrapper

        for name in ("insert", "delete", "__init__"):
            monkeypatch.setattr(AvlTree, name, counted(name))
        corpus = Corpus.from_words([f"w{i:02d}" for i in range(words)])
        report = run_experiment(corpus, ExperimentConfig(iterations=iterations, seed=3))
        assert calls == {"insert": words * iterations * strategies,
                         "delete": words * iterations * strategies,
                         "__init__": iterations * strategies}
        assert rotations["insert"] == sum(row.insert_totals.sum for row in report.rows)
        assert rotations["delete"] == sum(row.delete_totals.sum for row in report.rows)


# distinct str keys, unsorted: mixed case, non-ASCII and shared prefixes
distinct_words = st.lists(
    st.builds(str.__add__, st.sampled_from(["", "ab", "Ab", "ég"]),
              st.text(alphabet="aAbBzéÉßΩ中", max_size=4)),
    unique=True, min_size=1, max_size=60)


def word_keyed_report(corpus, config):
    """run_experiment as a plain loop over the words themselves."""
    words = _experiment_words(corpus, config)
    tallies = [StrategyTally(strategy) for strategy in config.strategies]
    for iteration in range(config.iterations):
        rng = SplitMix64(derive_seed(config.seed, _SHUFFLE_STREAM, iteration))
        insert_order, delete_order = words[:], words[:]
        rng.shuffle(insert_order)
        rng.shuffle(delete_order)
        for tally in tallies:
            tree = AvlTree()
            for word in insert_order:
                for event in tree.insert(word)[1]:
                    tally.record(event)
            assert tree.validate().ok
            for word in delete_order:
                for event in tree.delete(word, tally.strategy)[1]:
                    tally.record(event)
            assert tree.root is None
    return BenchmarkReport(config.seed, config.iterations, corpus.sha256,
                           config.sample_size, tallies)


class TestWordRanks:
    """The trees hold ranks; ranks must rotate exactly as the words do."""

    @settings(max_examples=100)
    @given(distinct_words, st.randoms(use_true_random=False))
    def test_ranks_give_the_words_events_op_by_op(self, words, random):
        rank = {word: i for i, word in enumerate(sorted(words))}
        insert_order = random.sample(words, len(words))
        delete_order = random.sample(words, len(words))
        for strategy in ReplacementStrategy:
            by_word, by_rank = AvlTree(), AvlTree()
            for word in insert_order:
                assert by_word.insert(word) == by_rank.insert(rank[word])
            for word in delete_order:
                assert (by_word.delete(word, strategy)
                        == by_rank.delete(rank[word], strategy))

    @pytest.mark.parametrize("sample_size", [None, 150])
    def test_report_equals_a_word_keyed_run(self, sample_size):
        rng = SplitMix64(7)
        pieces = ["Zé", "zé", "ab", "Ab", "ß", "Ω", "中", "a", "É"]
        words = sorted({"".join(pieces[rng.below(len(pieces))] for _ in range(4))
                        for _ in range(400)})
        rng.shuffle(words)
        corpus = Corpus.from_words(words)
        assert list(corpus.words) != sorted(corpus.words)
        config = small_config(sample_size=sample_size)
        expected = render_report(word_keyed_report(corpus, config), "json")
        assert render_report(run_experiment(corpus, config), "json") == expected


class TestRenderReport:
    def test_table_contains_all_row_labels(self, small_corpus):
        report = run_experiment(small_corpus, small_config())
        table = render_report(report, "table")
        for label in ["Rightmost of Left", "Leftmost of Right", "Optimum", "Percentage"]:
            assert label in table
        assert "Algorithm" in table and "Sum" in table

    def test_json_round_trips(self, small_corpus):
        report = run_experiment(small_corpus, small_config())
        parsed = BenchmarkReport.from_dict(json.loads(render_report(report, "json")))
        assert parsed == report

    def test_report_of_fresh_tallies_averages_over_its_own_iterations(self):
        tallies = [StrategyTally(strategy) for strategy in ReplacementStrategy]
        for i, tally in enumerate(tallies):
            for kind in RotationKind:
                for _ in range(4 + i):
                    tally.record(RotationEvent(kind, Phase.DELETE))
            tally.record(RotationEvent(RotationKind.LR, Phase.INSERT))
        report = BenchmarkReport(3, 4, "ab" * 32, None, tallies)
        data = json.loads(render_report(report, "json"))
        for tally, row in zip(tallies, data["rows"]):
            for phase, totals in (("insert", tally.insert_totals),
                                  ("delete", tally.delete_totals)):
                assert row[phase]["averages"] == {kind: value / 4 for kind, value
                                                  in totals.as_dict().items()}
        assert data["percentages"]["sum"] == pytest.approx(100 * 6 / 4.5)
        # the first row's deletions: 4 of each kind over 4 iterations
        assert render_report(report, "table").splitlines()[2].split()[-5:] == [
            "1", "1", "1", "1", "4"]
        parsed = BenchmarkReport.from_dict(data)
        assert parsed == report
        for fmt in ("table", "csv", "json"):
            assert render_report(parsed, fmt) == render_report(report, fmt), fmt

    def test_json_that_repeats_a_strategy_is_refused(self, small_corpus):
        report = run_experiment(small_corpus, small_config())
        data = json.loads(render_report(report, "json"))
        optimum = next(row for row in data["rows"] if row["strategy"] == "optimum")
        data["rows"].append(optimum)
        message = "strategy listed more than once: optimum"
        with pytest.raises(ValueError, match=message):
            BenchmarkReport.from_dict(data)
        with pytest.raises(ValueError, match=message):
            BenchmarkReport(1, 1, "ab" * 32, None, report.rows + report.rows[-1:])

    @pytest.mark.parametrize("strategy", ["optimum", None])
    def test_a_row_whose_strategy_is_no_member_is_refused(self, strategy):
        with pytest.raises(ValueError, match=f"unknown strategy: {strategy!r}"):
            BenchmarkReport(1, 1, "ab" * 32, None, [StrategyTally(strategy)])

    def test_json_config_schema(self, small_corpus):
        report = run_experiment(small_corpus, small_config())
        data = json.loads(render_report(report, "json"))
        assert set(data["config"]) == {"seed", "iterations", "corpus_sha256", "sample_size"}
        assert set(data) == {"config", "rows", "percentages"}
        for row in data["rows"]:
            assert set(row) == {"strategy", "insert", "delete"}
            for phase in ("insert", "delete"):
                assert set(row[phase]) == {"totals", "averages"}
                assert set(row[phase]["totals"]) == {"ll", "lr", "rl", "rr", "sum"}

    def test_csv_shape(self, small_corpus):
        report = run_experiment(small_corpus, small_config())
        lines = render_report(report, "csv").splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "algorithm,ll,lr,rl,rr,sum"
        body = lines[2:]
        assert len(body) == 4
        assert body[0].startswith("Rightmost of Left,")
        assert body[3].startswith("percentage,")
        for line in body:
            assert len(line.split(",")) == 6

    def test_csv_percentage_row_is_full_precision(self, small_corpus):
        report = run_experiment(small_corpus, small_config())
        percentage_line = render_report(report, "csv").splitlines()[-1]
        values = [float(v) for v in percentage_line.split(",")[1:]]
        assert values == [report.percentages.ll, report.percentages.lr,
                          report.percentages.rl, report.percentages.rr,
                          report.percentages.sum]

    def test_unknown_format_rejected(self, small_corpus):
        report = run_experiment(small_corpus, small_config())
        with pytest.raises(ValueError):
            render_report(report, "xml")

    def test_degenerate_baseline_is_explained(self):
        report = run_experiment(Corpus.from_words(["solo"]), ExperimentConfig(iterations=1))
        note = "# no percentage row: a baseline column averaged zero rotations"
        for fmt in ("table", "csv"):
            lines = render_report(report, fmt).splitlines()
            assert lines[-1] == note
            assert sum(line.startswith("#") for line in lines) == 2
            assert not any(line.lower().startswith("percentage") for line in lines)


class TestPinnedReport:
    """The bundled corpus' report bytes, pinned so no refactor changes them."""

    MD5 = {
        "table": "c76f3c135c8e6fdd31b16e833f5eadb7",
        "csv": "a0d2cd09b6905a3444bf0dd729c25329",
        "json": "9bdf6e15626be1c278f6831d238113ea",
    }

    def test_bench_output_and_json_round_trip_are_pinned(self, capsys):
        outputs = {}
        for fmt in self.MD5:
            code = main(["bench", "--corpus", str(SAMPLE_CORPUS), "--sample-size", "500",
                         "--iterations", "3", "--seed", "11", "--format", fmt])
            assert code == 0
            outputs[fmt] = capsys.readouterr().out
        for fmt, text in outputs.items():
            assert hashlib.md5(text.encode("utf-8")).hexdigest() == self.MD5[fmt], fmt
        parsed = BenchmarkReport.from_dict(json.loads(outputs["json"]))
        for fmt, text in outputs.items():
            assert render_report(parsed, fmt) == text, fmt
