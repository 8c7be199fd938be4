"""Rotation tallying, averaging, and the percentage comparison row that
BenchmarkReport derives from the tallies."""

import copy

import pytest
from hypothesis import given, strategies as st

from avlkit import BenchmarkReport, Phase, ReplacementStrategy, RotationEvent, RotationKind
from avlkit.counters import RotationCounters, StrategyTally
from avlkit.tree import _DELETE_EVENTS, _INSERT_EVENTS


def tally():
    return StrategyTally(ReplacementStrategy.OPTIMUM)


class TestRecord:
    def test_delete_event_goes_to_delete_side(self):
        t = tally()
        t.record(RotationEvent(RotationKind.LL, Phase.DELETE))
        assert t.delete_totals.as_dict() == {"ll": 1, "lr": 0, "rl": 0, "rr": 0, "sum": 1}
        assert t.insert_totals.sum == 0

    def test_insert_event_goes_to_insert_side(self):
        t = tally()
        t.record(RotationEvent(RotationKind.LR, Phase.INSERT))
        assert t.insert_totals.lr == 1
        assert t.delete_totals.sum == 0

    def test_conservation(self):
        t = tally()
        kinds = list(RotationKind)
        phases = list(Phase)
        k = 0
        for i in range(57):
            t.record(RotationEvent(kinds[i % 4], phases[i % 2]))
            k += 1
        assert t.insert_totals.sum + t.delete_totals.sum == k

    @pytest.mark.parametrize("kind", ["LL", None, Phase.DELETE])
    def test_record_rejects_a_kind_that_is_not_a_member(self, kind):
        t = tally()
        with pytest.raises(ValueError, match=f"unknown rotation kind {kind!r}"):
            t.record(RotationEvent(kind, Phase.DELETE))
        assert t == tally()

    @pytest.mark.parametrize("phase", ["delete", None, RotationKind.LL])
    def test_record_rejects_a_phase_that_is_not_a_member(self, phase):
        t = tally()
        with pytest.raises(ValueError, match=f"unknown phase {phase!r}"):
            t.record(RotationEvent(RotationKind.LL, phase))
        assert t.insert_totals.sum == t.delete_totals.sum == 0


# the tree's eight shared events, and equal but distinct copies of them
member_events = st.lists(st.one_of(
    st.sampled_from(_INSERT_EVENTS + _DELETE_EVENTS),
    st.builds(RotationEvent, st.sampled_from(RotationKind), st.sampled_from(Phase))))
non_member_events = st.one_of(
    st.builds(RotationEvent, st.sampled_from(["LL", None, Phase.DELETE]),
              st.sampled_from(Phase)),
    st.builds(RotationEvent, st.sampled_from(RotationKind),
              st.sampled_from(["delete", None, RotationKind.LL])))


def recorded_one_by_one(*event_lists):
    t = tally()
    for events in event_lists:
        for event in events:
            t.record(event)
    return t


class TestRecordAll:
    @given(member_events, member_events)
    def test_totals_equal_those_of_record(self, start, events):
        t = recorded_one_by_one(start)
        t.record_all(events)
        assert t == recorded_one_by_one(start, events)

    @given(member_events, member_events, non_member_events, st.data())
    def test_a_non_member_raises_and_leaves_the_tally_unchanged(self, start, events, bad, data):
        events.insert(data.draw(st.integers(0, len(events))), bad)
        t = recorded_one_by_one(start)
        before = copy.deepcopy(t)
        with pytest.raises(ValueError, match="^unknown (phase|rotation kind) "):
            t.record_all(events)
        assert t == before

    def test_the_shared_events_are_tallied_by_kind_and_phase(self):
        t = tally()
        t.record_all(iter(_INSERT_EVENTS + _DELETE_EVENTS * 2))
        assert t.insert_totals == RotationCounters(1, 1, 1, 1)
        assert t.delete_totals == RotationCounters(2, 2, 2, 2)

    def test_no_events_change_nothing(self):
        t = tally()
        t.record_all([])
        assert t == tally()


class TestAverage:
    def test_divides_by_iterations(self):
        counters = RotationCounters(100, 200, 300, 400)
        assert counters.averaged(100) == RotationCounters(1, 2, 3, 4)

    def test_single_iteration_is_identity(self):
        counters = RotationCounters(7, 8, 9, 10)
        assert counters.averaged(1) == RotationCounters(7, 8, 9, 10)

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError):
            RotationCounters(1, 2, 3, 4).averaged(0)

    def test_record_then_average_equals_presummed(self):
        t = tally()
        for _ in range(8):
            t.record(RotationEvent(RotationKind.RR, Phase.DELETE))
        for _ in range(2):
            t.record(RotationEvent(RotationKind.RL, Phase.DELETE))
        assert t.delete_totals.averaged(4) == RotationCounters(0, 0, 2, 8).averaged(4)


def report_percentages(optimum, rightmost_of_left, leftmost_of_right):
    """The percentages of a one-iteration report with these delete totals."""
    rows = [StrategyTally(strategy, delete_totals=totals) for strategy, totals in (
        (ReplacementStrategy.RIGHTMOST_OF_LEFT, rightmost_of_left),
        (ReplacementStrategy.LEFTMOST_OF_RIGHT, leftmost_of_right),
        (ReplacementStrategy.OPTIMUM, optimum))]
    return BenchmarkReport(1, 1, "ab" * 32, None, rows).percentages


class TestPercentageRow:
    def test_reported_sum_ratio(self):
        # published comparison row. Note the printed sums (50,664 / 62,819 /
        # 62,743) were rounded independently of the per-kind entries, so the
        # recomputed sums differ by 1-2; the percentages agree either way.
        optimum = RotationCounters(15986, 11046, 8613, 15018)
        a = RotationCounters(18775, 12633, 12640, 18770)
        b = RotationCounters(18712, 12640, 12620, 18769)
        assert abs(optimum.sum - 50_664) <= 1
        assert abs(a.sum - 62_819) <= 1
        assert abs(b.sum - 62_743) <= 2
        assert round(100 * 50_664 / ((62_819 + 62_743) / 2)) == 81
        assert round(100 * 8_613 / ((12_640 + 12_620) / 2)) == 68
        row = report_percentages(optimum, a, b)
        assert round(row.sum) == 81
        assert round(row.rl) == 68
        assert round(row.ll) == 85
        assert round(row.lr) == 87
        assert round(row.rr) == 80

    def test_identical_inputs_give_100_everywhere(self):
        c = RotationCounters(5, 6, 7, 8)
        row = report_percentages(c, RotationCounters(5, 6, 7, 8), RotationCounters(5, 6, 7, 8))
        assert row.as_dict() == {"ll": 100, "lr": 100, "rl": 100, "rr": 100, "sum": 100}

    def test_degenerate_baseline_rejected(self):
        optimum = RotationCounters(1, 1, 1, 1)
        zero = RotationCounters()
        assert report_percentages(optimum, zero, zero) is None
        # one column is enough, and it is caught before any division
        assert report_percentages(optimum, RotationCounters(1, 1, 0, 1),
                                  RotationCounters(1, 1, 0, 1)) is None

    @given(st.integers(min_value=1, max_value=1000))
    def test_scale_invariance(self, factor):
        optimum = RotationCounters(10, 20, 30, 40)
        a = RotationCounters(15, 25, 35, 45)
        b = RotationCounters(11, 21, 31, 41)
        base = report_percentages(optimum, a, b)
        scale = lambda c: RotationCounters(c.ll * factor, c.lr * factor,
                                           c.rl * factor, c.rr * factor)
        scaled = report_percentages(scale(optimum), scale(a), scale(b))
        assert scaled == base
