"""AVL tree with pluggable deletion replacement strategies and a rotation benchmark.

The package exports what a caller constructs, passes, compares, catches or
calls. Internals stay in their modules: the node, the rotations and the
strategy rule in avlkit.tree, the rotation tallies in avlkit.counters, and
the seeded generator in avlkit.rng.
"""

from .bench import (
    BenchmarkReport,
    Corpus,
    CorpusError,
    ExperimentConfig,
    load_corpus,
    render_report,
    run_experiment,
)
from .map import AvlMap
from .tree import (
    AvlTree,
    DeletionTrace,
    Direction,
    Phase,
    ReplacementStrategy,
    RotationEvent,
    RotationKind,
    StructuralError,
    format_tree,
)

__version__ = "0.1.0"

__all__ = [
    "AvlMap",
    "AvlTree",
    "BenchmarkReport",
    "Corpus",
    "CorpusError",
    "DeletionTrace",
    "Direction",
    "ExperimentConfig",
    "Phase",
    "ReplacementStrategy",
    "RotationEvent",
    "RotationKind",
    "StructuralError",
    "format_tree",
    "load_corpus",
    "render_report",
    "run_experiment",
]
