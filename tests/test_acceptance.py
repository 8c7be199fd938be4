"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -rA` to see the per-criterion
lines and timings. Criterion 4 needs a full-size word list (set
AVLKIT_WORDS, or have /usr/share/dict/words); it is skipped otherwise and
everything else runs in a couple of minutes.
"""

import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from avlkit import (
    AvlTree,
    DeletionTrace,
    Direction,
    ExperimentConfig,
    ReplacementStrategy,
    load_corpus,
    render_report,
    run_experiment,
)
from avlkit.rng import SplitMix64

from reference import balance_errors, inorder_keys, shape_signature

REPO_ROOT = Path(__file__).resolve().parent.parent
SAMPLE_CORPUS = REPO_ROOT / "data" / "sample_words_10k.txt"
SAMPLE_CORPUS_SHA256 = "b5de3aef3ccba7054da5c6ec12d8cd1cddf93ff65db3f2d7334b5650340111d7"

# frozen after the first deterministic desk-scale run (seed 1, 100 iterations)
DESK_SCALE_GOLDEN_SUM_PCT = 80.58825413151139
# that run's rendered report, every byte of it
DESK_SCALE_MD5 = {
    "table": "9ba92d3b809de1517d36d75b41dcb2a9",
    "csv": "1ec9e35c773c78fce4a373928c7a1a94",
    "json": "9cd4bd26a26a50ada371abd95f947ee9",
}

STRATEGIES = list(ReplacementStrategy)


def report_pass(criterion, started, detail):
    print(f"PASS criterion {criterion} ({time.perf_counter() - started:.1f}s): {detail}")


def test_criterion_1_invariants_and_differential_oracle():
    """>=10k randomized ops over multiple seeds; validate() clean after every
    mutation; membership and in-order always match a sorted-set model."""
    started = time.perf_counter()
    total_ops = 0
    for seed in (101, 202, 303):
        rng = SplitMix64(seed)
        tree = AvlTree()
        model = set()
        for _ in range(4000):
            total_ops += 1
            key = rng.below(600)
            roll = rng.below(100)
            if roll < 50:
                inserted, _ = tree.insert(key)
                assert inserted == (key not in model)
                model.add(key)
            elif roll < 85:
                strategy = STRATEGIES[rng.below(3)]
                deleted, _ = tree.delete(key, strategy)
                assert deleted == (key in model)
                model.discard(key)
            else:
                assert tree.search(key) == (key in model)
                continue
            report = tree.validate()
            assert report.ok, report.violations[:3]
            assert tree.in_order() == sorted(model)
            probe = rng.below(600)
            assert tree.search(probe) == (probe in model)
    assert total_ops >= 10_000
    report_pass(1, started, f"{total_ops} ops across 3 seeds, zero violations")


def test_criterion_2_exhaustive_rotation_oracle(monkeypatch):
    """Every tree reachable by insertion sequences over subsets of 1..7:
    each rotation performed during any single deletion leaves stored
    balances equal to brute-force recomputed height differences."""
    started = time.perf_counter()
    import avlkit.tree as tree_mod

    checked = {"rotations": 0}

    def oracle_wrapped(rotate):
        def wrapper(node):
            result = rotate(node)
            # inside the rotated subtree every descendant is settled, so
            # brute-force heights must agree immediately
            errors = balance_errors(result)
            assert not errors, (rotate.__name__, errors)
            checked["rotations"] += 1
            return result
        return wrapper

    for name in ("rotate_ll", "rotate_lr", "rotate_rl", "rotate_rr"):
        monkeypatch.setattr(tree_mod, name, oracle_wrapped(getattr(tree_mod, name)))

    shapes = {}
    for size in range(1, 8):
        for perm in itertools.permutations(range(1, size + 1)):
            tree = AvlTree(perm)
            signature = shape_signature(tree.root)
            if signature not in shapes:
                shapes[signature] = tree
    # the wrapper must have seen the rotations that built the shapes
    assert checked["rotations"] > 0
    deletions = 0
    delete_rotations = 0
    kinds_seen = set()
    for tree in shapes.values():
        for key in tree.in_order():
            for strategy in STRATEGIES:
                copy = tree.clone()
                before = checked["rotations"]
                deleted, events = copy.delete(key, strategy)
                assert deleted
                # every rotation the deletion reports went through the oracle
                assert checked["rotations"] - before == len(events), (key, strategy, events)
                deletions += 1
                delete_rotations += len(events)
                kinds_seen.update(e.kind for e in events)
                errors = balance_errors(copy.root)
                assert not errors, (shape_signature(tree.root), key, strategy, errors)
                assert copy.validate().ok
                assert inorder_keys(copy.root) == [k for k in tree.in_order() if k != key]
    assert delete_rotations > 100   # the oracle must actually see rotations
    assert len(kinds_seen) == 4     # singles and doubles both exercised
    report_pass(2, started, f"{len(shapes)} shapes, {deletions} deletions; "
                            f"{checked['rotations']} rotations brute-force checked "
                            f"({delete_rotations} during deletion, all 4 kinds)")


def test_criterion_3_insert_rotation_bound():
    """No single insertion ever emits more than one rotation event."""
    started = time.perf_counter()
    checked = 0
    for seed in (7, 77, 777):
        rng = SplitMix64(seed)
        tree = AvlTree()
        for _ in range(5000):
            _, events = tree.insert(rng.below(1 << 20))
            assert len(events) <= 1
            checked += 1
    tree = AvlTree()
    for key in range(2000):  # adversarial: sorted input rotates constantly
        _, events = tree.insert(key)
        assert len(events) <= 1
        checked += 1
    report_pass(3, started, f"{checked} insertions, max one rotation each")


def _full_corpus_path():
    candidate = os.environ.get("AVLKIT_WORDS")
    if candidate and Path(candidate).is_file():
        return Path(candidate)
    system_words = Path("/usr/share/dict/words")
    if system_words.is_file():
        return system_words
    return None


def test_criterion_4_full_scale_percentages():
    """Full-size corpus, 100 iterations: Sum percentage in [78, 84]; LL, LR,
    RL, RR within +-6 of 85, 87, 68, 80. Takes minutes in pure Python."""
    path = _full_corpus_path()
    if path is None:
        pytest.skip(
            "no full-size word list; set AVLKIT_WORDS or generate one with "
            "scripts/make_sample_corpus.py --count 235886 --out words.txt")
    started = time.perf_counter()
    corpus = load_corpus(path)
    assert len(corpus.words) > 100_000, "criterion needs a full-size corpus"
    report = run_experiment(corpus, ExperimentConfig(iterations=100, seed=1))
    pct = report.percentages
    assert pct is not None
    assert 78 <= pct.sum <= 84, pct.as_dict()
    assert abs(pct.ll - 85) <= 6, pct.as_dict()
    assert abs(pct.lr - 87) <= 6, pct.as_dict()
    assert abs(pct.rl - 68) <= 6, pct.as_dict()
    assert abs(pct.rr - 80) <= 6, pct.as_dict()
    report_pass(4, started,
                f"{len(corpus.words)} words: percentages "
                f"{ {k: round(v, 2) for k, v in pct.as_dict().items()} }")


def test_criterion_5_desk_scale_percentages():
    """Bundled 10k corpus, seed 1, 100 iterations: Sum percentage in
    [74, 88], equal to the pinned golden value, the balance-guided
    strategy strictly below both baselines, and every rendered byte
    pinned."""
    started = time.perf_counter()
    corpus = load_corpus(SAMPLE_CORPUS)
    assert corpus.sha256 == SAMPLE_CORPUS_SHA256, "bundled corpus changed"
    report = run_experiment(corpus, ExperimentConfig(iterations=100, seed=1))
    pct = report.percentages
    assert pct is not None
    assert 74 <= pct.sum <= 88
    assert pct.sum == pytest.approx(DESK_SCALE_GOLDEN_SUM_PCT, rel=1e-12)
    optimum = report.row_for(ReplacementStrategy.OPTIMUM).delete_totals.sum
    baseline_a = report.row_for(ReplacementStrategy.RIGHTMOST_OF_LEFT).delete_totals.sum
    baseline_b = report.row_for(ReplacementStrategy.LEFTMOST_OF_RIGHT).delete_totals.sum
    assert optimum < baseline_a
    assert optimum < baseline_b
    # column-wise: at this scale the strategy wins every column, not just the sum
    def average(strategy):
        return report.row_for(strategy).delete_totals.averaged(report.iterations)

    opt_avg = average(ReplacementStrategy.OPTIMUM)
    a_avg = average(ReplacementStrategy.RIGHTMOST_OF_LEFT)
    b_avg = average(ReplacementStrategy.LEFTMOST_OF_RIGHT)
    for column in ("ll", "lr", "rl", "rr"):
        assert getattr(opt_avg, column) <= max(getattr(a_avg, column),
                                               getattr(b_avg, column))
    for fmt, md5 in DESK_SCALE_MD5.items():
        assert hashlib.md5(render_report(report, fmt).encode("utf-8")).hexdigest() == md5, fmt
    report_pass(5, started,
                f"sum percentage {pct.sum:.3f} (golden {DESK_SCALE_GOLDEN_SUM_PCT:.3f}); "
                f"optimum {optimum} < baselines {baseline_a}, {baseline_b}")


def test_criterion_6_replacement_direction_conformance():
    """Every two-child deletion with balance -1 replaces from the left under
    the balance-guided strategy, and from the right at +1."""
    started = time.perf_counter()
    observed = {-1: 0, 0: 0, 1: 0}
    for seed in (11, 22, 33, 44):
        rng = SplitMix64(seed)
        tree = AvlTree()
        for _ in range(900):
            tree.insert(rng.below(5000))
        keys = tree.in_order()
        while tree.size > 2:
            key = keys[rng.below(len(keys))]
            trace = DeletionTrace()
            deleted, _ = tree.delete(key, ReplacementStrategy.OPTIMUM, trace)
            if deleted:
                keys.remove(key)
            if not trace.two_child:
                continue
            observed[trace.node_balance] += 1
            if trace.node_balance == -1:
                assert trace.direction is Direction.LEFT
            elif trace.node_balance == 1:
                assert trace.direction is Direction.RIGHT
            else:
                assert trace.direction is Direction.LEFT
    assert observed[-1] > 100 and observed[1] > 100, observed
    report_pass(6, started, f"two-child deletions by balance: {observed}, zero violations")


def test_criterion_7_bench_determinism():
    """Two bench invocations with identical flags emit byte-identical csv
    and json."""
    started = time.perf_counter()
    # pyproject's pytest pythonpath reaches only this process, not a child
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))

    def invoke(fmt):
        result = subprocess.run(
            [sys.executable, "-m", "avlkit", "bench",
             "--corpus", str(SAMPLE_CORPUS), "--sample-size", "400",
             "--iterations", "3", "--seed", "11", "--format", fmt],
            capture_output=True, cwd=REPO_ROOT, env=env)
        assert result.returncode == 0, result.stderr.decode()
        return result.stdout

    for fmt in ("csv", "json"):
        first = invoke(fmt)
        second = invoke(fmt)
        assert first == second, f"{fmt} output differs between runs"
        assert first  # sanity: not empty
    parsed = json.loads(invoke("json"))
    assert parsed["config"]["seed"] == 11
    report_pass(7, started, "csv and json byte-identical across processes")
