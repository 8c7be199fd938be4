"""The two scripts under scripts/, run as a user runs them."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import test_acceptance
import test_bench

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = REPO_ROOT / "scripts"
SAMPLE_CORPUS = REPO_ROOT / "data" / "sample_words_10k.txt"


def run_script(name, *args):
    result = subprocess.run([sys.executable, str(SCRIPTS / name), *map(str, args)],
                            capture_output=True, check=True)
    return result.stdout


def test_reproduce_script_writes_the_pinned_report(tmp_path):
    table = run_script("reproduce_rotation_table.py", "--corpus", SAMPLE_CORPUS,
                       "--sample-size", 500, "--iterations", 3, "--seed", 11,
                       "--out-dir", tmp_path)
    outputs = {"table": table}
    for fmt in ("csv", "json"):
        outputs[fmt] = (tmp_path / f"rotations_sample_words_10k_s11_i3_n500.{fmt}").read_bytes()
    for fmt, data in outputs.items():
        assert hashlib.md5(data).hexdigest() == test_bench.TestPinnedReport.MD5[fmt], fmt


def test_subsample_and_full_runs_write_separate_files(tmp_path):
    corpus = tmp_path / "words.txt"
    corpus.write_text("".join(f"w{i:03d}\n" for i in range(60)), encoding="utf-8")
    common = ("--corpus", corpus, "--iterations", 2, "--seed", 4, "--out-dir", tmp_path)
    run_script("reproduce_rotation_table.py", *common)
    run_script("reproduce_rotation_table.py", *common, "--sample-size", 20)
    for stem, sample_size in (("rotations_words_s4_i2", None),
                              ("rotations_words_s4_i2_n20", 20)):
        assert (tmp_path / f"{stem}.csv").is_file()
        report = json.loads((tmp_path / f"{stem}.json").read_text(encoding="utf-8"))
        assert report["config"]["sample_size"] == sample_size


@pytest.mark.parametrize("bad, message", [
    (("--corpus", "missing.txt"), "No such file"),
    (("--corpus", SAMPLE_CORPUS, "--iterations", 0), "iterations must be positive"),
    (("--corpus", SAMPLE_CORPUS, "--sample-size", 10001),
     "sample_size 10001 exceeds corpus size 10000"),
])
def test_reproduce_script_reports_bad_input(tmp_path, bad, message):
    out_dir = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "reproduce_rotation_table.py"), *map(str, bad),
         "--out-dir", str(out_dir)],
        capture_output=True, cwd=tmp_path)
    assert result.returncode == 1
    assert result.stdout == b""
    assert b"running:" not in result.stderr  # no run is announced that never starts
    last_line = result.stderr.decode().splitlines()[-1]
    assert last_line.startswith("error: ") and message in last_line
    assert not out_dir.exists()


def test_reproduce_script_reports_an_unwritable_out_dir(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "reproduce_rotation_table.py"),
         "--corpus", str(SAMPLE_CORPUS), "--sample-size", "50", "--iterations", "1",
         "--out-dir", str(blocker / "out")],
        capture_output=True, cwd=tmp_path)
    assert result.returncode == 1
    assert result.stdout == b""  # the directory fails before the run starts
    assert b"running:" not in result.stderr
    last_line = result.stderr.decode().splitlines()[-1]
    assert last_line.startswith("error: ") and "Not a directory" in last_line


def test_corpus_script_regenerates_the_bundled_corpus(tmp_path):
    out = tmp_path / "words.txt"
    run_script("make_sample_corpus.py", "--count", 10000, "--out", out)
    assert out.read_bytes() == SAMPLE_CORPUS.read_bytes()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == test_acceptance.SAMPLE_CORPUS_SHA256


@pytest.mark.parametrize("count", [0, -3])
def test_corpus_script_refuses_a_count_below_one(tmp_path, count):
    out = tmp_path / "words.txt"
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "make_sample_corpus.py"), "--count", str(count),
         "--out", str(out)],
        capture_output=True)
    assert result.returncode == 2
    assert f"--count must be at least 1, got {count}" in result.stderr.decode()
    assert not out.exists()
