"""Rotation-event tallying and aggregation."""

from __future__ import annotations

from dataclasses import dataclass, field

from .tree import Phase, ReplacementStrategy, RotationEvent, RotationKind


@dataclass
class RotationCounters:
    """Tallies of the four rotation kinds. Totals are ints, averages floats."""

    ll: float = 0
    lr: float = 0
    rl: float = 0
    rr: float = 0

    @property
    def sum(self) -> float:
        return self.ll + self.lr + self.rl + self.rr

    def bump(self, kind: RotationKind) -> None:
        if kind is RotationKind.LL:
            self.ll += 1
        elif kind is RotationKind.LR:
            self.lr += 1
        elif kind is RotationKind.RL:
            self.rl += 1
        else:
            self.rr += 1

    def averaged(self, iterations: int) -> "RotationCounters":
        """Per-iteration means. Requires at least one iteration."""
        if iterations < 1:
            raise ValueError("cannot average over zero iterations")
        return RotationCounters(self.ll / iterations, self.lr / iterations,
                                self.rl / iterations, self.rr / iterations)

    def as_dict(self) -> dict:
        return {"ll": self.ll, "lr": self.lr, "rl": self.rl, "rr": self.rr,
                "sum": self.sum}


@dataclass
class StrategyTally:
    """Rotation counters for one strategy's run, split by operation phase."""

    strategy: ReplacementStrategy
    iterations: int = 0
    insert_counters: RotationCounters = field(default_factory=RotationCounters)
    delete_counters: RotationCounters = field(default_factory=RotationCounters)

    def record(self, event: RotationEvent) -> None:
        """Increment exactly one counter, chosen by the event's kind and phase."""
        side = self.delete_counters if event.phase is Phase.DELETE else self.insert_counters
        side.bump(event.kind)

    def average(self, phase: Phase) -> RotationCounters:
        counters = self.delete_counters if phase is Phase.DELETE else self.insert_counters
        return counters.averaged(self.iterations)


@dataclass
class PercentageRow:
    """Optimum's counts as a percentage of the two baselines' column means."""

    ll: float
    lr: float
    rl: float
    rr: float
    sum: float

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

    return PercentageRow(
        ll=pct(optimum.ll, baseline_a.ll, baseline_b.ll),
        lr=pct(optimum.lr, baseline_a.lr, baseline_b.lr),
        rl=pct(optimum.rl, baseline_a.rl, baseline_b.rl),
        rr=pct(optimum.rr, baseline_a.rr, baseline_b.rr),
        sum=pct(optimum.sum, baseline_a.sum, baseline_b.sum),
    )
