"""Rotation-event tallies and the percentage comparison row.

Averages and the json schema belong to avlkit.bench.BenchmarkReport,
which holds the tallies.
"""

from __future__ import annotations

from typing import Optional

from .tree import Phase, ReplacementStrategy, RotationEvent, RotationKind, _Record

# Bound once: looking an enum member up on its class costs more than a bump.
_LL = RotationKind.LL
_LR = RotationKind.LR
_RL = RotationKind.RL
_RR = RotationKind.RR
_INSERT = Phase.INSERT
_DELETE = Phase.DELETE


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

    def bump(self, kind: RotationKind) -> None:
        """Add one to kind's tally. A kind that is not a RotationKind member raises ValueError."""
        if kind is _LL:
            self.ll += 1
        elif kind is _LR:
            self.lr += 1
        elif kind is _RL:
            self.rl += 1
        elif kind is _RR:
            self.rr += 1
        else:
            raise ValueError(f"unknown rotation kind {kind!r}: expected a RotationKind member")

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
        """Increment exactly one counter, chosen by the event's kind and phase.

        A phase that is not a Phase member raises ValueError, as bump does
        for a kind.
        """
        phase = event.phase
        if phase is _DELETE:
            self.delete_totals.bump(event.kind)
        elif phase is _INSERT:
            self.insert_totals.bump(event.kind)
        else:
            raise ValueError(f"unknown phase {phase!r}: expected a Phase member")


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
