"""AvlMap: overwrite semantics, value migration through deletions."""

from avlkit import AvlMap, ReplacementStrategy
from avlkit.rng import SplitMix64


def test_insert_into_empty_returns_none():
    mapping = AvlMap()
    assert mapping.insert("a", 1) is None
    assert mapping.get("a") == 1
    assert len(mapping) == 1


def test_overwrite_returns_previous_and_keeps_size():
    mapping = AvlMap()
    assert mapping.insert("a", 1) is None
    assert mapping.insert("a", 2) == 1
    assert len(mapping) == 1
    assert mapping.get("a") == 2


def test_overwrite_never_rotates():
    mapping = AvlMap()
    for i in range(64):
        mapping.insert(i, i)
    for i in range(64):
        _, events = mapping.tree.put(i, i + 1000)
        assert events == []


def test_delete_absent_returns_none():
    assert AvlMap().delete("missing") is None


def test_delete_returns_value():
    mapping = AvlMap()
    mapping.insert("b", 2)
    assert mapping.delete("b") == 2
    assert len(mapping) == 0
    assert mapping.get("b") is None


def test_get_from_empty():
    assert AvlMap().get("x") is None
    assert AvlMap().get("x", default=7) == 7


def test_two_child_deletion_migrates_key_and_value_together():
    mapping = AvlMap()
    for key in [4, 2, 5, 1, 3]:
        mapping.insert(key, key * 10)
    for strategy in ReplacementStrategy:
        copy = AvlMap()
        for key, value in mapping.items():
            copy.insert(key, value)
        removed = copy.delete(4, strategy)
        assert removed == 40
        assert copy.items() == [(1, 10), (2, 20), (3, 30), (5, 50)]
        assert copy.validate().ok


def test_random_workload_preserves_value_multiset():
    rng = SplitMix64(77)
    mapping = AvlMap()
    model = {}
    strategies = list(ReplacementStrategy)
    for step in range(10_000):
        key = rng.below(400)
        if rng.below(100) < 55:
            value = rng.below(1 << 20)
            assert mapping.insert(key, value) == model.get(key)
            model[key] = value
        else:
            strategy = strategies[rng.below(3)]
            assert mapping.delete(key, strategy) == model.pop(key, None)
        if step % 500 == 0:
            assert mapping.validate().ok
            assert sorted(v for _, v in mapping.items()) == sorted(model.values())
    assert mapping.items() == sorted(model.items())
    assert mapping.validate().ok


def test_keys_and_contains():
    mapping = AvlMap([(2, "b"), (1, "a"), (3, "c")])
    assert mapping.keys() == [1, 2, 3]
    assert 2 in mapping
    assert 9 not in mapping
