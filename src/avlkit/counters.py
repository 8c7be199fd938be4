"""Rotation-event tallies and the percentage comparison row.

Averages and the json schema belong to avlkit.bench.BenchmarkReport,
which holds the tallies.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional

from .tree import (_DELETE_EVENTS, _INSERT_EVENTS, Phase, ReplacementStrategy, RotationEvent,
                   RotationKind, _Record)

# The tree's eight shared events by identity: whether each is a deletion's,
# and its kind's counter. They live as long as the tree module, so no other
# live object can have one of these ids.
_SHARED = {id(event): (event.phase is Phase.DELETE, event.kind.name.lower())
           for event in _INSERT_EVENTS + _DELETE_EVENTS}
# Each shared event under its value, so an equal event finds it.
_TWINS = {event: event for event in _INSERT_EVENTS + _DELETE_EVENTS}


class RotationCounters(_Record):
    """Tallies of the four rotation kinds. Totals are ints, averages floats."""

    __slots__ = ("ll", "lr", "rl", "rr")

    def __init__(self, ll: float = 0, lr: float = 0, rl: float = 0, rr: float = 0):
        self.ll = ll
        self.lr = lr
        self.rl = rl
        self.rr = rr

    @property
    def sum(self) -> float:
        return self.ll + self.lr + self.rl + self.rr

    def averaged(self, iterations: int) -> "RotationCounters":
        """Per-iteration means. Requires at least one iteration."""
        if iterations < 1:
            raise ValueError("cannot average over zero iterations")
        return RotationCounters(self.ll / iterations, self.lr / iterations,
                                self.rl / iterations, self.rr / iterations)

    def as_dict(self) -> dict:
        return {"ll": self.ll, "lr": self.lr, "rl": self.rl, "rr": self.rr,
                "sum": self.sum}


class StrategyTally(_Record):
    """One strategy's rotation totals, split by operation phase.

    A tally holds counts only: the BenchmarkReport that holds it derives
    the averages. A tally given no totals starts its own at zero.
    """

    __slots__ = ("strategy", "insert_totals", "delete_totals")

    def __init__(self, strategy: ReplacementStrategy,
                 insert_totals: Optional[RotationCounters] = None,
                 delete_totals: Optional[RotationCounters] = None):
        self.strategy = strategy
        self.insert_totals = RotationCounters() if insert_totals is None else insert_totals
        self.delete_totals = RotationCounters() if delete_totals is None else delete_totals

    def record(self, event: RotationEvent) -> None:
        """Tally one event: record_all of the one-event tuple."""
        self.record_all((event,))

    def record_all(self, events: Iterable[RotationEvent]) -> None:
        """Add every event to the counter of its kind and phase.

        The events are counted by identity in one pass that makes no Python
        call per event: the tree's mutations hand out eight shared events,
        one per kind and phase. An event that is only equal to one of them
        is counted as that one; a phase, then a kind, that is not an enum
        member raises ValueError. Every event is counted before any total
        changes, so events that raise leave the tally as it was.
        """
        events = list(events)
        counts = Counter(map(id, events))
        if not counts.keys() <= _SHARED.keys():
            counts = Counter(id(_shared_twin(event)) for event in events)
        for event_id, count in counts.items():
            is_delete, name = _SHARED[event_id]
            totals = self.delete_totals if is_delete else self.insert_totals
            setattr(totals, name, getattr(totals, name) + count)


def _shared_twin(event: RotationEvent) -> RotationEvent:
    """The tree's shared event of event's kind and phase; ValueError if there is none."""
    if not isinstance(event.phase, Phase):
        raise ValueError(f"unknown phase {event.phase!r}: expected a Phase member")
    if not isinstance(event.kind, RotationKind):
        raise ValueError(f"unknown rotation kind {event.kind!r}: expected a RotationKind member")
    return _TWINS[event]


class PercentageRow(_Record):
    """Optimum's counts as a percentage of the two baselines' column means."""

    __slots__ = ("ll", "lr", "rl", "rr", "sum")

    def __init__(self, ll: float, lr: float, rl: float, rr: float, sum: float):
        self.ll = ll
        self.lr = lr
        self.rl = rl
        self.rr = rr
        self.sum = sum

    def as_dict(self) -> dict:
        return {"ll": self.ll, "lr": self.lr, "rl": self.rl, "rr": self.rr,
                "sum": self.sum}


def percentage_row(optimum: RotationCounters, baseline_a: RotationCounters,
                   baseline_b: RotationCounters) -> PercentageRow:
    """100 * optimum / mean(baseline_a, baseline_b), per column and for the sum.

    Full precision; rounding is a rendering concern. Raises ValueError when
    a column's baseline mean is zero.
    """

    def pct(opt, a, b):
        mean = (a + b) / 2
        if mean <= 0:
            raise ValueError("degenerate baseline: column mean is zero")
        return 100.0 * opt / mean

    columns = zip(optimum.as_dict().values(), baseline_a.as_dict().values(),
                  baseline_b.as_dict().values())
    return PercentageRow(*(pct(*column) for column in columns))
