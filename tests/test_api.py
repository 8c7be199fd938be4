"""The top-level namespace holds exactly the names a caller spells."""

import importlib

import pytest

import avlkit

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
        "select_replacement", "ValidationReport", "Violation")
] + [
    ("avlkit.counters", name) for name in (
        "RotationCounters", "StrategyTally", "PercentageRow", "percentage_row")
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
