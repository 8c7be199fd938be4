"""The pinned generator: stability, unbiasedness plumbing, stream derivation."""

import pytest
from hypothesis import given, strategies as st

from avlkit.rng import SplitMix64, _draws, derive_seed


def shuffled(items, rng):
    permuted = list(items)
    rng.shuffle(permuted)
    return permuted


def test_golden_permutation_is_locked():
    # frozen on first computation; any change to the generator or the
    # shuffle breaks byte-reproducibility of every benchmark report
    rng = SplitMix64(42)
    assert shuffled(list(range(1, 11)), rng) == [1, 9, 10, 2, 7, 8, 5, 3, 4, 6]


def test_single_element_untouched():
    rng = SplitMix64(1)
    assert shuffled(["only"], rng) == ["only"]
    assert shuffled([], rng) == []


@given(st.lists(st.integers(), max_size=64), st.integers(min_value=0, max_value=2**64 - 1))
def test_shuffle_is_a_permutation(items, seed):
    rng = SplitMix64(seed)
    assert sorted(shuffled(items, rng)) == sorted(items)


def fisher_yates_on_below(items, rng):
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]


@pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1, derive_seed(3, 0, 1)])
def test_shuffle_draws_as_below_does(seed):
    # the golden permutation alone would not see a lost state write-back:
    # two shuffles on one generator, as run_experiment does, then one draw.
    # Draws come in blocks of up to 1024: 4097 (and a few small sizes) run
    # a block out inside a power-of-two band, and many sizes cross into a
    # new band on a block's last draw
    for size in [*range(71), 1000, 1023, 1024, 1025, 2049, 4097]:
        rng, model = SplitMix64(seed), SplitMix64(seed)
        for _ in range(2):
            items, expected = list(range(size)), list(range(size))
            rng.shuffle(items)
            fisher_yates_on_below(expected, model)
            assert items == expected
        assert rng.next_u64() == model.next_u64()


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
@pytest.mark.parametrize("count", [1, 2, 3, 1024])
def test_draws_are_the_next_u64_stream(seed, count):
    # 2**64 - 1 wraps the state on the first draw
    rng = SplitMix64(seed)
    assert list(_draws(seed, count)) == [rng.next_u64() for _ in range(count)]


def test_same_seed_same_stream():
    a = SplitMix64(123456)
    b = SplitMix64(123456)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_different_seeds_diverge():
    a = SplitMix64(1)
    b = SplitMix64(2)
    assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


def test_below_stays_in_range_and_covers_small_bounds():
    rng = SplitMix64(9)
    seen = set()
    for _ in range(400):
        value = rng.below(7)
        assert 0 <= value < 7
        seen.add(value)
    assert seen == set(range(7))


def test_below_rejects_nonpositive_bound():
    with pytest.raises(ValueError):
        SplitMix64(0).below(0)


def test_below_rejects_a_bound_past_one_draw():
    with pytest.raises(ValueError, match=r"exceeds 2\*\*64"):
        SplitMix64(1).below(2**64 + 1)
    # the largest bound takes one draw, whole
    assert SplitMix64(1).below(2**64) == SplitMix64(1).next_u64()


@pytest.mark.parametrize("empty", [[], (), ""], ids=["list", "tuple", "str"])
def test_choice_from_an_empty_sequence_is_an_index_error_before_any_draw(empty):
    rng = SplitMix64(7)
    with pytest.raises(IndexError, match="^cannot choose from an empty sequence$"):
        rng.choice(empty)
    assert rng.state == SplitMix64(7).state


def test_choice_draws_as_below_does():
    rng, twin = SplitMix64(7), SplitMix64(7)
    items = "abcde"
    assert [rng.choice(items) for _ in range(50)] == [items[twin.below(5)] for _ in range(50)]
    assert rng.state == twin.state


def test_derive_seed_is_order_sensitive_and_stable():
    assert derive_seed(1, 0, 0) == derive_seed(1, 0, 0)
    assert derive_seed(1, 0, 1) != derive_seed(1, 1, 0)
    assert derive_seed(1, 0) != derive_seed(2, 0)
    # lock the derivation so stored benchmark reports stay reproducible
    assert derive_seed(1, 0, 0) == 0x5E41AB087439611E


def test_derived_streams_do_not_collide_across_iterations():
    seeds = {derive_seed(7, 0, iteration) for iteration in range(10_000)}
    assert len(seeds) == 10_000


def test_shuffle_of_three_is_close_to_uniform():
    # all 6 orderings of a 3-element list should appear ~equally often
    # across independent derived streams
    counts = {}
    trials = 6000
    for i in range(trials):
        rng = SplitMix64(derive_seed(5, 2, i))
        order = tuple(shuffled([0, 1, 2], rng))
        counts[order] = counts.get(order, 0) + 1
    assert len(counts) == 6
    expected = trials / 6
    for order, n in counts.items():
        assert abs(n - expected) < 5 * (expected ** 0.5), (order, n)
