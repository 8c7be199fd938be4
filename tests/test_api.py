"""The top-level namespace holds exactly the names a caller spells;
importing it loads no code generation, and nothing the package does
loads hashlib (OpenSSL)."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import avlkit
from test_acceptance import REPO_ROOT, SAMPLE_CORPUS, SAMPLE_CORPUS_SHA256

PUBLIC = {
    "AvlTree", "AvlMap", "ReplacementStrategy", "DeletionTrace", "Direction",
    "RotationEvent", "RotationKind", "Phase", "StructuralError", "format_tree",
    "Corpus", "CorpusError", "load_corpus", "ExperimentConfig", "run_experiment",
    "BenchmarkReport", "render_report",
}

# Internals and types callers only receive: importable from their modules only.
MODULE_ONLY = [
    ("avlkit.tree", name) for name in (
        "Node", "rotate_ll", "rotate_lr", "rotate_rl", "rotate_rr",
        "ValidationReport", "Violation")
] + [
    ("avlkit.counters", name) for name in (
        "RotationCounters", "StrategyTally", "PercentageRow")
] + [
    ("avlkit.rng", name) for name in ("SplitMix64", "derive_seed")
]


def test_all_lists_exactly_the_public_names():
    assert sorted(avlkit.__all__) == sorted(PUBLIC)


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from avlkit import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == PUBLIC


@pytest.mark.parametrize("module, name", MODULE_ONLY)
def test_internal_name_lives_in_its_module_only(module, name):
    assert hasattr(importlib.import_module(module), name)
    assert not hasattr(avlkit, name)


# Runs in a fresh interpreter. Prints which of the modules that generate
# code (dataclasses, inspect) importing avlkit loaded, and then running
# `avlkit check`; then which of hashlib and _hashlib (OpenSSL) importing
# avlkit, `avlkit check`, `avlkit demo`, a corpus load and a whole
# `avlkit bench` loaded. A module the interpreter loaded at startup, as
# some site setups do, is not counted.
FOOTPRINT = """
import sys
startup = set(sys.modules)
import contextlib, io, json
def loaded(*names):
    return [name for name in names if name in sys.modules and name not in startup]
import avlkit, avlkit.cli
after_import = loaded("dataclasses", "inspect")
with contextlib.redirect_stdout(io.StringIO()):
    codes = [avlkit.cli.main(["check", "--ops", "200"])]
    after_check = loaded("dataclasses", "inspect")
    codes.append(avlkit.cli.main(["demo", "--delete", "4"]))
corpus = avlkit.load_corpus(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()) as report:
    codes.append(avlkit.cli.main(["bench", "--corpus", sys.argv[1], "--sample-size", "300",
                                  "--iterations", "1", "--format", "json"]))
print(json.dumps([codes, after_import, after_check, loaded("hashlib", "_hashlib"),
                  corpus.sha256, json.loads(report.getvalue())]))
"""

# Runs in a fresh interpreter where CPython's built-in SHA-256 modules
# cannot be imported, as on a build without them; prints the digest of a
# corpus and whether hashlib loaded to compute it.
FALLBACK = """
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
import json
import avlkit
corpus = avlkit.load_corpus(sys.argv[1])
print(json.dumps([corpus.sha256, "hashlib" in sys.modules]))
"""


def run_fresh(script):
    # pyproject's pytest pythonpath reaches only this process, not a child
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", script, str(SAMPLE_CORPUS)],
                            capture_output=True, check=True, env=env)
    return json.loads(result.stdout)


def test_hashlib_never_loads():
    codes, after_import, after_check, hashing, digest, report = run_fresh(FOOTPRINT)
    assert codes == [0, 0, 0]
    assert after_import == [], "import avlkit loaded a code-generating module"
    assert after_check == [], "avlkit check loaded a code-generating module"
    assert hashing == [], "import avlkit, check, demo, load_corpus or bench loaded hashlib"
    assert digest == SAMPLE_CORPUS_SHA256
    assert report["config"]["corpus_sha256"] == SAMPLE_CORPUS_SHA256


def test_hashlib_fingerprints_a_corpus_without_the_builtin_module():
    assert run_fresh(FALLBACK) == [SAMPLE_CORPUS_SHA256, True]
