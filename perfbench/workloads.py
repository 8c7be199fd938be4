"""The benchmark's workloads: one closed loop, one caller, inputs from --seed.

Each workload has ``setup(calibrator)``, which returns its normalized
set-up time, and ``run_unit(index)``, which times only the part a user of
avlkit waits for and then checks the program's output outside the timed
region. A unit is one in-process CLI call (desk, check) or one batch of map
operations. Unit ``index`` always gets the same input for the same seed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

_clock = time.perf_counter_ns

CORPUS = Path("data") / "sample_words_10k.txt"
LAYERS = ("tree", "map", "counters", "bench", "rng", "cli")


def fresh_import() -> SimpleNamespace:
    """Import avlkit from scratch, as a new process would, and return its layers."""
    for name in [n for n in sys.modules if n == "avlkit" or n.startswith("avlkit.")]:
        del sys.modules[name]
    return SimpleNamespace(**{layer: importlib.import_module(f"avlkit.{layer}")
                              for layer in LAYERS})


def derived_seed(workload: str, seed: int, index: int) -> int:
    """Seed of unit `index`; str seeding of random.Random is stable across runs."""
    return random.Random(f"{workload}:{seed}:{index}").randrange(1, 1 << 31)


def percentile(sorted_values, q):
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


@dataclass
class Unit:
    raw_s: float
    ops: int
    failed: int
    latencies_ns: dict[str, tuple[int, int]] = field(default_factory=dict)  # kind -> (p50, p99)
    rotations: tuple[int, int] | None = None  # (insert, delete) from the output
    logical_inserts: int = 0


class MissingInput(Exception):
    """A file the workload needs is not in the checkout."""


class Workload:
    name = ""
    setup_reps = 10
    trace_pairs = 2  # (untraced, traced) unit pairs in a traced run
    stateful = False  # units change state that later units see
    ops_per_unit = 0
    mods = None

    def setup(self, calibrator) -> float:
        """Fresh import of avlkit plus the workload's own preparation."""
        factor = calibrator.factor()
        start = _clock()
        self.mods = fresh_import()
        self.prepare()
        return (_clock() - start) / 1e9 * factor

    def prepare(self) -> None:
        pass

    def final_check(self) -> bool:
        return True


# Rotation totals of `avlkit bench --iterations 4 --seed S` on the bundled
# 10k-word corpus: insert LL, LR, RL, RR (the same for every strategy), then
# delete LL, LR, RL, RR for rightmost-of-left, leftmost-of-right, optimum.
DESK_PINNED = {
    1: (4716, 4606, 4604, 4708, 3095, 2087, 2133, 3203, 3176, 2119, 2159, 3164, 2702, 1829, 1490, 2555),
    2: (4657, 4669, 4677, 4725, 3250, 2129, 2171, 3234, 3249, 2118, 2170, 3231, 2726, 1893, 1459, 2605),
    3: (4695, 4722, 4618, 4655, 3093, 2187, 2098, 3152, 3176, 2154, 2081, 3093, 2694, 1905, 1443, 2485),
    4: (4690, 4733, 4648, 4617, 3124, 2115, 2156, 3209, 3215, 2144, 2198, 3218, 2685, 1827, 1469, 2617),
    5: (4680, 4639, 4591, 4639, 3091, 2055, 2118, 3181, 3037, 2109, 2066, 3184, 2612, 1801, 1441, 2485),
    6: (4613, 4661, 4632, 4734, 3230, 2110, 2170, 3136, 3249, 2136, 2151, 3149, 2728, 1852, 1457, 2515),
    7: (4794, 4575, 4728, 4658, 3162, 2229, 2120, 3200, 3155, 2247, 2106, 3151, 2726, 1949, 1471, 2521),
    8: (4737, 4746, 4564, 4664, 3154, 2237, 2201, 3191, 3126, 2122, 2121, 3145, 2666, 1929, 1509, 2575),
}


class DeskRotations(Workload):
    """The paper's experiment through ``avlkit bench`` on the bundled corpus.

    The first call of a run uses a pinned seed whose rotation totals must
    match DESK_PINNED bit for bit; later calls use seeds derived from --seed.
    """

    name = "desk-rotations"
    setup_reps = 10
    trace_pairs = 4
    iterations = 4
    strategies = 3

    def __init__(self, root: Path, seed: int):
        self.corpus_path = root / CORPUS
        if not self.corpus_path.is_file():
            raise MissingInput(f"corpus {self.corpus_path} not found")
        self.seed = seed
        self.words = 0

    def prepare(self) -> None:
        self.words = len(self.mods.bench.load_corpus(self.corpus_path).words)

    @property
    def ops_per_unit(self) -> int:
        return self.words * self.iterations * self.strategies * 2

    def call_seed(self, index: int) -> int:
        if index == 0:
            pinned = sorted(DESK_PINNED)
            return pinned[self.seed % len(pinned)]
        return derived_seed(self.name, self.seed, index)

    def run_unit(self, index: int) -> Unit:
        seed = self.call_seed(index)
        argv = ["bench", "--corpus", str(self.corpus_path), "--iterations",
                str(self.iterations), "--seed", str(seed), "--format", "json"]
        out = io.StringIO()
        start = _clock()
        with contextlib.redirect_stdout(out):
            code = self.mods.cli.main(argv)
        raw = (_clock() - start) / 1e9
        ops = self.ops_per_unit
        totals = self.check(code, out.getvalue(), seed)
        unit = Unit(raw, ops, 0 if totals else ops,
                    logical_inserts=self.words * self.iterations)
        if totals:
            unit.rotations = (sum(totals[:4]) * self.strategies, sum(totals[4:]))
        return unit

    def check(self, code: int, text: str, seed: int):
        """Return the 16 rotation totals if the report is right, else None."""
        if code != 0:
            return None
        try:
            report = json.loads(text)
            rows = report["rows"]
            inserts = [tuple(row["insert"]["totals"][k] for k in "ll lr rl rr".split())
                       for row in rows]
            deletes = [tuple(row["delete"]["totals"][k] for k in "ll lr rl rr".split())
                       for row in rows]
        except (ValueError, KeyError, TypeError):
            return None
        strategies = [row["strategy"] for row in rows]
        if strategies != ["rightmost_of_left", "leftmost_of_right", "optimum"]:
            return None
        if report["config"]["seed"] != seed or report["config"]["iterations"] != self.iterations:
            return None
        if len(set(inserts)) != 1:
            return None
        totals = inserts[0] + deletes[0] + deletes[1] + deletes[2]
        pinned = DESK_PINNED.get(seed)
        if pinned is not None and totals != pinned:
            return None
        return totals


class MapMixed(Workload):
    """Library use: a long-lived AvlMap of 200k int keys under 60/20/20 get/put/delete.

    Keys of the operations are uniform over [0, 400k) while the preload holds
    the even ones, so about half the operations hit and the size stays near
    200k. Every result is replayed against a dict after its batch.
    """

    name = "map-mixed"
    setup_reps = 3
    trace_pairs = 10
    stateful = True
    preload_chunks = 10
    span = 400_000
    batch_ops = 10_000
    ops_per_unit = batch_ops
    kinds = ("get", "put", "delete")

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.map = None
        self.model: dict = {}
        self.op_rng = random.Random(f"{self.name}:ops:{seed}")
        self.batches: list[list] = []

    def _preload_items(self) -> list:
        rng = random.Random(f"{self.name}:preload:{self.seed}")
        keys = list(range(0, self.span, 2))
        rng.shuffle(keys)
        return [(key, key + 1) for key in keys]

    def setup(self, calibrator) -> float:
        """Preload in chunks, each normalized by its own calibration: one
        reading before a 2 s preload missed the machine's speed changes."""
        items = self._preload_items()
        self.map = None
        elapsed = super().setup(calibrator)
        avl_map = self.mods.map.AvlMap()
        insert = avl_map.insert
        step = -(-len(items) // self.preload_chunks)
        for lo in range(0, len(items), step):
            chunk = items[lo:lo + step]
            factor = calibrator.factor()
            start = _clock()
            for key, value in chunk:
                insert(key, value)
            elapsed += (_clock() - start) / 1e9 * factor
        self.map = avl_map
        self.model = dict(items)
        return elapsed

    def _batch(self, index: int) -> list:
        while len(self.batches) <= index:
            rng = self.op_rng
            ops = []
            for _ in range(self.batch_ops):
                roll = rng.random()
                key = rng.randrange(self.span)
                if roll < 0.6:
                    ops.append((0, key, None))
                elif roll < 0.8:
                    ops.append((1, key, rng.randrange(1 << 30)))
                else:
                    ops.append((2, key, None))
            self.batches.append(ops)
        batch = self.batches[index]
        self.batches[index] = None  # each batch runs once; keep memory flat
        return batch

    def run_unit(self, index: int) -> Unit:
        batch = self._batch(index)
        avl_map = self.map
        get, put, delete = avl_map.get, avl_map.insert, avl_map.delete
        lat = ([], [], [])
        results = []
        clock = _clock
        start = clock()
        for kind, key, value in batch:
            if kind == 0:
                t0 = clock()
                result = get(key)
                t1 = clock()
            elif kind == 1:
                t0 = clock()
                result = put(key, value)
                t1 = clock()
            else:
                t0 = clock()
                result = delete(key)
                t1 = clock()
            lat[kind].append(t1 - t0)
            results.append(result)
        raw = (clock() - start) / 1e9
        failed = self._replay(batch, results)
        latencies = {}
        for kind, values in zip(self.kinds, lat):
            values.sort()
            latencies[kind] = (percentile(values, 0.50), percentile(values, 0.99))
        return Unit(raw, len(batch), failed, latencies_ns=latencies)

    def _replay(self, batch, results) -> int:
        model = self.model
        failed = 0
        for (kind, key, value), result in zip(batch, results):
            if kind == 0:
                expected = model.get(key)
            elif kind == 1:
                expected = model.get(key)
                model[key] = value
            else:
                expected = model.pop(key, None)
            if result != expected:
                failed += 1
        return failed

    def final_check(self) -> bool:
        """Final contents equal the dict model and the tree is a valid AVL tree."""
        return (self.map.items() == sorted(self.model.items())
                and self.map.validate().ok)


class CheckValidate(Workload):
    """``avlkit check --ops 10000``: randomized ops, each mutation validated.

    The only user path dominated by ``AvlTree.validate`` (a full walk of a
    ~500-key tree after every insert and delete).
    """

    name = "check-validate"
    setup_reps = 10
    ops_per_unit = 10_000

    def __init__(self, root: Path, seed: int):
        self.seed = seed

    def prepare(self) -> None:
        self.mods.cli.build_parser()

    def run_unit(self, index: int) -> Unit:
        seed = derived_seed(self.name, self.seed, index)
        argv = ["check", "--ops", str(self.ops_per_unit), "--seed", str(seed)]
        out = io.StringIO()
        start = _clock()
        with contextlib.redirect_stdout(out):
            code = self.mods.cli.main(argv)
        raw = (_clock() - start) / 1e9
        lines = out.getvalue().splitlines()
        ok = (code == 0 and len(lines) == 1
              and lines[0].startswith(f"ok: {self.ops_per_unit} ops")
              and "0 divergences" in lines[0])
        return Unit(raw, self.ops_per_unit, 0 if ok else self.ops_per_unit)


WORKLOADS = {w.name: w for w in (DeskRotations, MapMixed, CheckValidate)}
