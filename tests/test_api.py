"""The top-level namespace holds exactly the names a caller spells, and
importing it loads neither code generation nor what only a corpus needs."""

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
# `avlkit check`; one the interpreter loaded at startup, as some site
# setups do, is not counted. Then prints whether hashlib was loaded after
# `avlkit check` and `avlkit demo`, and again after a corpus load.
FOOTPRINT = """
import sys
startup = set(sys.modules)
import contextlib, io, json
def loaded():
    return [name for name in ("dataclasses", "inspect")
            if name in sys.modules and name not in startup]
import avlkit, avlkit.cli
after_import = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [avlkit.cli.main(["check", "--ops", "200"])]
    after_check = loaded()
    codes.append(avlkit.cli.main(["demo", "--delete", "4"]))
before = "hashlib" in sys.modules
corpus = avlkit.load_corpus(sys.argv[1])
print(json.dumps([codes, after_import, after_check, before, "hashlib" in sys.modules,
                  corpus.sha256]))
"""


def test_hashlib_loads_only_with_a_corpus():
    # pyproject's pytest pythonpath reaches only this process, not a child
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", FOOTPRINT, str(SAMPLE_CORPUS)],
                            capture_output=True, check=True, env=env)
    codes, after_import, after_check, before, after, digest = json.loads(result.stdout)
    assert codes == [0, 0]
    assert after_import == [], "import avlkit loaded a code-generating module"
    assert after_check == [], "avlkit check loaded a code-generating module"
    assert not before, "import avlkit, check or demo loaded hashlib"
    assert after
    assert digest == SAMPLE_CORPUS_SHA256
