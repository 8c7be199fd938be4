"""AVL tree with pluggable deletion replacement strategies and a rotation benchmark."""

from .bench import (
    BenchmarkReport,
    Corpus,
    CorpusError,
    ExperimentConfig,
    load_corpus,
    render_report,
    run_experiment,
)
from .counters import PercentageRow, RotationCounters, StrategyTally, percentage_row
from .map import AvlMap
from .rng import SplitMix64, derive_seed
from .tree import (
    DEFAULT_STRATEGY_ORDER,
    AvlTree,
    DeletionTrace,
    Direction,
    Node,
    Phase,
    ReplacementStrategy,
    RotationEvent,
    RotationKind,
    StructuralError,
    ValidationReport,
    Violation,
    format_tree,
    rotate_ll,
    rotate_lr,
    rotate_rl,
    rotate_rr,
    select_replacement,
)

__version__ = "0.1.0"

__all__ = [
    "AvlMap",
    "AvlTree",
    "BenchmarkReport",
    "Corpus",
    "CorpusError",
    "DEFAULT_STRATEGY_ORDER",
    "DeletionTrace",
    "Direction",
    "ExperimentConfig",
    "Node",
    "PercentageRow",
    "Phase",
    "ReplacementStrategy",
    "RotationCounters",
    "RotationEvent",
    "RotationKind",
    "SplitMix64",
    "StrategyTally",
    "StructuralError",
    "ValidationReport",
    "Violation",
    "derive_seed",
    "format_tree",
    "load_corpus",
    "percentage_row",
    "render_report",
    "rotate_ll",
    "rotate_lr",
    "rotate_rl",
    "rotate_rr",
    "run_experiment",
    "select_replacement",
]
