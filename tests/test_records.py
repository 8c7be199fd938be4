"""The nine records behave as plain field-by-field records: construction
by position and keyword with defaults, equality, repr, hashing, freezing,
fresh default containers, pickling and copying."""

import copy
import pickle

import pytest

from avlkit import (
    BenchmarkReport,
    Corpus,
    DeletionTrace,
    Direction,
    ExperimentConfig,
    ReplacementStrategy,
)
from avlkit.counters import PercentageRow, RotationCounters, StrategyTally
from avlkit.tree import ValidationReport, Violation

OPTIMUM = ReplacementStrategy.OPTIMUM
DIGEST = "ab" * 32

# (class, field names, non-default values, defaults of the trailing fields, frozen)
RECORDS = [
    (Violation, ("kind", "key", "detail"),
     ("bst-order", 3, "left subtree max 4 is not below the node key"), (), False),
    (ValidationReport, ("violations",),
     ([Violation("cycle", 1, "node reached twice")],), ([],), False),
    (DeletionTrace, ("two_child", "node_balance", "direction", "replacement_key"),
     (True, -1, Direction.LEFT, "k"), (False, None, None, None), False),
    (RotationCounters, ("ll", "lr", "rl", "rr"), (1, 2, 3, 4), (0, 0, 0, 0), False),
    (StrategyTally, ("strategy", "insert_totals", "delete_totals"),
     (OPTIMUM, RotationCounters(1, 2, 3, 4), RotationCounters(5, 6, 7, 8)),
     (RotationCounters(), RotationCounters()), False),
    (PercentageRow, ("ll", "lr", "rl", "rr", "sum"),
     (90.0, 80.5, 70.25, 60.0, 75.0), (), False),
    (Corpus, ("words", "source_path", "original_count", "sha256"),
     (("a", "b"), "<memory>", 3, DIGEST), (), True),
    (ExperimentConfig, ("iterations", "seed", "strategies", "sample_size"),
     (3, 7, (OPTIMUM,), 10), (100, 1, tuple(ReplacementStrategy), None), True),
    (BenchmarkReport, ("seed", "iterations", "corpus_sha256", "sample_size", "rows"),
     (7, 3, DIGEST, None, [StrategyTally(OPTIMUM)]), (), False),
]
IDS = [record[0].__name__ for record in RECORDS]


def fields_of(record, names):
    return tuple(getattr(record, name) for name in names)


@pytest.fixture(params=RECORDS, ids=IDS)
def spec(request):
    return request.param


def test_construction_by_position_and_keyword(spec):
    cls, names, values, defaults, _ = spec
    record = cls(*values)
    assert fields_of(record, names) == values
    assert cls(**dict(zip(names, values))) == record
    required = values[:len(names) - len(defaults)]
    assert fields_of(cls(*required), names) == required + defaults
    assert cls.__match_args__ == names


def test_equality(spec):
    cls, names, values, defaults, _ = spec
    record = cls(*values)
    assert record == cls(*values)
    assert record != values
    assert record.__eq__(values) is NotImplemented
    if defaults:
        assert record != cls(*values[:len(names) - len(defaults)])


def test_repr_names_every_field(spec):
    cls, names, values, _, _ = spec
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__name__}({fields})"


def test_repr_of_a_fresh_trace():
    assert repr(DeletionTrace()) == (
        "DeletionTrace(two_child=False, node_balance=None, direction=None,"
        " replacement_key=None)")


def test_frozen_records_hash_by_value_and_refuse_writes(spec):
    cls, names, values, _, frozen = spec
    record = cls(*values)
    if not frozen:
        with pytest.raises(TypeError):
            hash(record)
        return
    assert hash(record) == hash(cls(*values))
    assert len({record, cls(*values)}) == 1
    with pytest.raises(AttributeError):
        setattr(record, names[0], values[0])
    with pytest.raises(AttributeError):
        delattr(record, names[0])
    assert fields_of(record, names) == values


def test_default_containers_are_fresh():
    first, second = StrategyTally(OPTIMUM), StrategyTally(OPTIMUM)
    assert first.insert_totals is not second.insert_totals
    assert first.delete_totals is not second.delete_totals
    assert first.insert_totals is not first.delete_totals
    assert ValidationReport().violations is not ValidationReport().violations


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(spec, protocol):
    cls, _, values, _, _ = spec
    record = cls(*values)
    assert pickle.loads(pickle.dumps(record, protocol)) == record


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy])
def test_copy_round_trip(spec, duplicate):
    cls, _, values, _, _ = spec
    record = cls(*values)
    assert duplicate(record) == record
