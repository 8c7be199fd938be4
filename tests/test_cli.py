"""CLI surface: bench, check, demo subcommands and their exit codes."""

from pathlib import Path

import pytest

import avlkit.cli
import avlkit.tree
from avlkit import AvlMap, ReplacementStrategy
from avlkit.cli import main

SAMPLE_CORPUS = Path(__file__).resolve().parent.parent / "data" / "sample_words_10k.txt"


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "words.txt"
    words = [f"word{i:03d}" for i in range(60)]
    path.write_text("\n".join(words) + "\n", encoding="utf-8")
    return str(path)


class TestBenchCommand:
    def test_table_output(self, corpus_file, capsys):
        code = main(["bench", "--corpus", corpus_file, "--iterations", "2",
                     "--seed", "3", "--strategy", "all"])
        out = capsys.readouterr().out
        assert code == 0
        for label in ["Rightmost of Left", "Leftmost of Right", "Optimum", "Percentage"]:
            assert label in out

    def test_missing_corpus_fails_with_diagnostic(self, tmp_path, capsys):
        code = main(["bench", "--corpus", str(tmp_path / "missing.txt")])
        captured = capsys.readouterr()
        assert code != 0
        assert "error" in captured.err
        assert captured.out == ""

    def test_repeat_runs_are_byte_identical(self, corpus_file, capsys):
        flags = ["bench", "--corpus", corpus_file, "--iterations", "2",
                 "--seed", "9", "--format", "csv"]
        assert main(flags) == 0
        first = capsys.readouterr().out
        assert main(flags) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_json_format(self, corpus_file, capsys):
        code = main(["bench", "--corpus", corpus_file, "--iterations", "1",
                     "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        assert '"config"' in out and '"rows"' in out

    def test_single_strategy(self, corpus_file, capsys):
        code = main(["bench", "--corpus", corpus_file, "--iterations", "1",
                     "--strategy", "optimum"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Optimum" in out
        assert "Rightmost of Left" not in out

    def test_sample_size_too_large_fails(self, corpus_file, capsys):
        code = main(["bench", "--corpus", corpus_file, "--sample-size", "100000"])
        assert code != 0
        assert "error" in capsys.readouterr().err

    def test_run_bench_runs_the_strategies_it_is_given(self, corpus_file, capsys):
        report = avlkit.cli.run_bench(corpus_file, 1, 1,
                                      strategies=(ReplacementStrategy.OPTIMUM,))
        assert [row.strategy for row in report.rows] == [ReplacementStrategy.OPTIMUM]
        assert capsys.readouterr().err == ""

    def test_run_bench_announces_the_word_count_once_before_the_run(self, monkeypatch):
        calls = []
        run = avlkit.cli.run_experiment

        def recorded_run(corpus, config):
            calls.append("run")
            return run(corpus, config)

        monkeypatch.setattr(avlkit.cli, "run_experiment", recorded_run)
        report = avlkit.cli.run_bench(SAMPLE_CORPUS, 1, 1, sample_size=37,
                                      announce=calls.append)
        assert calls == [37, "run"]
        assert report.sample_size == 37

    def test_run_bench_announces_no_run_that_cannot_start(self, corpus_file, tmp_path, capsys):
        calls = []
        # a missing corpus, then a sample larger than the 60-word corpus
        for path, sample_size in [(tmp_path / "missing.txt", None), (corpus_file, 61)]:
            assert avlkit.cli.run_bench(path, 1, 1, sample_size=sample_size,
                                        announce=calls.append) is None
            assert capsys.readouterr().err.startswith("error: ")
        assert calls == []

    def test_unknown_strategy_token_is_reported(self, corpus_file, capsys):
        # a library caller's bad strategy gets the error line, not a traceback
        assert avlkit.cli.run_bench(corpus_file, 1, 1, strategies=("bogus",)) is None
        captured = capsys.readouterr()
        assert captured.err == "error: unknown strategy: 'bogus'\n"
        assert captured.out == ""

    def test_unknown_strategy_flag_rejected_by_argparse(self, corpus_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--corpus", corpus_file, "--strategy", "bogus"])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_unknown_flag_rejected_before_work(self, corpus_file):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--corpus", corpus_file, "--frobnicate"])
        assert exc.value.code != 0


class TestCheckCommand:
    def test_default_flags_pass(self, capsys):
        code = main(["check"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("ok: 10000 ops")
        assert "0 divergences" in out

    def test_small_run_passes(self, capsys):
        code = main(["check", "--ops", "1500", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("ok: 1500 ops")
        assert "0 divergences" in out

    def test_fixed_seed_reproduces_output(self, capsys):
        main(["check", "--ops", "800", "--seed", "42"])
        first = capsys.readouterr().out
        main(["check", "--ops", "800", "--seed", "42"])
        second = capsys.readouterr().out
        assert first == second

    def test_planted_balance_bug_is_caught(self, capsys, monkeypatch):
        real = avlkit.tree.rotate_ll

        def corrupted(node):
            pivot = real(node)
            pivot.balance = 1  # wrong whenever the real table says otherwise
            return pivot

        monkeypatch.setattr(avlkit.tree, "rotate_ll", corrupted)
        code = main(["check", "--ops", "1500", "--seed", "1"])
        captured = capsys.readouterr()
        assert code != 0
        assert "violation" in captured.err or "divergence" in captured.err

    def test_nonpositive_ops_rejected(self, capsys):
        assert main(["check", "--ops", "0"]) != 0


class ForgetsOverwrites(AvlMap):
    def insert(self, key, value):
        super().insert(key, value)
        return None


class LosesDeletedValues(AvlMap):
    def delete(self, key, *args):
        super().delete(key, *args)
        return None


class MissesPresentKeys(AvlMap):
    def __contains__(self, key):
        return False


class CountsOneTooMany(AvlMap):
    def __len__(self):
        return super().__len__() + 1


class DropsLastItem(AvlMap):
    def items(self):
        return super().items()[:-1]


class TestCheckReportsDivergence:
    """Each way the map can disagree with the model, and the line that reports it."""

    @pytest.mark.parametrize("broken, line", [
        (ForgetsOverwrites, "divergence at op 64: key=123 expected=705858761 actual=None"),
        (LosesDeletedValues, "divergence at op 39: key=55 expected=615508646 actual=None"),
        (MissesPresentKeys, "divergence at op 62: key=123 expected=True actual=False"),
        (CountsOneTooMany, "divergence at op 0: key=12 expected=0 actual=1"),
        (DropsLastItem, "divergence: final contents do not match the reference model"),
    ])
    def test_divergence_is_reported(self, capsys, monkeypatch, broken, line):
        monkeypatch.setattr(avlkit.cli, "AvlMap", broken)
        code = main(["check", "--ops", "1500", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == line + "\n"
        assert captured.out == ""


class TestDemoCommand:
    def test_optimum_deletion_trace(self, capsys):
        code = main(["demo", "--keys", "4,2,5,1,3", "--delete", "4",
                     "--strategy", "optimum"])
        out = capsys.readouterr().out
        assert code == 0
        assert "left subtree" in out
        assert "rotations: none" in out
        assert "after:" in out
        assert out.count("(0)") >= 2  # balances are visible

    def test_successor_deletion_rotates(self, capsys):
        code = main(["demo", "--keys", "4,2,5,1,3", "--delete", "4",
                     "--strategy", "leftmost"])
        out = capsys.readouterr().out
        assert code == 0
        assert "right subtree" in out
        assert "rotations: LL" in out

    def test_absent_key_message(self, capsys):
        code = main(["demo", "--keys", "1,2,3", "--delete", "99"])
        out = capsys.readouterr().out
        assert code == 0
        assert "not present" in out

    def test_malformed_keys_fail(self, capsys):
        code = main(["demo", "--keys", "1,banana,3"])
        assert code != 0
        assert "malformed" in capsys.readouterr().err

    def test_leaf_deletion_needs_no_replacement(self, capsys):
        code = main(["demo", "--keys", "2,1,3", "--delete", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "at most one child: unlinked directly, no replacement needed" in out
        assert "rotations: none" in out

    def test_keys_only_prints_tree(self, capsys):
        code = main(["demo", "--keys", "2,1,3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tree of 3" in out
