"""avlkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. With ``--trace 0`` it times the workload
for about S seconds and prints the end-to-end metrics; with ``--trace 1``
it runs a fixed number of (untraced, traced) unit pairs and prints the
per-layer metrics. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the interpreter, platform, nproc and raw figures of the run.

Every time is normalized to a reference machine speed: raw seconds times
``CAL_REF_MS / calibration_ms``, with the calibration loop of
``calibrate.py`` run right before each timed set-up, call or batch.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from calibrate import CAL_REF_MS, Calibrator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, calibrator: Calibrator, seconds: float):
    """Timed run: repeated set-ups, then units until `seconds` have passed."""
    from workloads import Unit

    setups = [workload.setup(calibrator) for _ in range(workload.setup_reps)]
    units, factors = [], []
    raised = False
    deadline = time.monotonic() + seconds
    while not raised and (not units or time.monotonic() < deadline):
        factors.append(calibrator.factor())
        start = time.perf_counter()
        try:
            units.append(workload.run_unit(len(units)))
        except Exception:  # the program failed: report it, count the run as failed
            traceback.print_exc()
            units.append(Unit(time.perf_counter() - start, workload.ops_per_unit, 0))
            raised = True
    attempted = sum(u.ops for u in units)
    failed = sum(u.failed for u in units)
    if raised or not final_check(workload):
        failed = attempted
    raw_wall = statistics.median(u.raw_s for u in units)
    wall = statistics.median(u.raw_s * f for u, f in zip(units, factors))
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(wall, "s"),
        "ops_per_s": metric(workload.ops_per_unit / wall, "ops/s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    context = {"units": len(units), "setup_reps": len(setups),
               "calib_ms_median": statistics.median(calibrator.samples_ms),
               "raw_wall_s": raw_wall,
               "raw_ops_per_s": workload.ops_per_unit / raw_wall}
    context.update(latency_metrics(units, factors))
    return attempted, failed, metrics, context


def final_check(workload) -> bool:
    try:
        return workload.final_check()
    except Exception:
        traceback.print_exc()
        return False


def latency_metrics(units, factors) -> dict:
    """p50 and p99 per operation kind: each computed inside one batch and
    normalized by that batch's calibration, then the median across batches."""
    out = {}
    for kind in units[0].latencies_ns:
        for q, name in enumerate(("p50", "p99")):
            out[f"{kind}_{name}_us"] = statistics.median(
                unit.latencies_ns[kind][q] * factor / 1e3
                for unit, factor in zip(units, factors) if unit.latencies_ns)
    return out


def trace(workload, calibrator: Calibrator):
    """Traced run: alternate untraced and traced units on the same inputs."""
    from tracer import Tracer

    workload.setup(calibrator)
    pairs = workload.trace_pairs
    plain, plain_factors, traced_walls = [], [], []
    sums: dict[str, float] = {}
    failed = attempted = 0

    def add(key, value):
        sums[key] = sums.get(key, 0.0) + value

    # Desk and check calls start from scratch, so every pair runs unit 0's
    # input and the traced counts must equal the untraced output exactly.
    # Map batches change the tree, so each batch is a new one.
    same_input = not workload.stateful
    for pair in range(pairs):
        plain_index = 0 if same_input else 2 * pair
        traced_index = 0 if same_input else 2 * pair + 1
        plain_factors.append(calibrator.factor())
        unit = workload.run_unit(plain_index)
        plain.append(unit)

        factor = calibrator.factor()
        tracer = Tracer()
        tracer.install(workload.mods)
        try:
            traced = workload.run_unit(traced_index)
        finally:
            tracer.uninstall()
        traced_walls.append(traced.raw_s * factor)
        attempted += unit.ops + traced.ops
        failed += unit.failed + traced.failed
        counted = (tracer.counts["rotations_insert"], tracer.counts["rotations_delete"])
        for checked in (unit, traced):
            if checked.rotations is not None and checked.rotations != counted:
                failed += checked.ops
        for name, (calls, inclusive, children) in tracer.totals.items():
            add(name + ".calls", calls)
            add(name + ".incl_s", inclusive * factor / 1e9)
            add(name + ".self_s", (inclusive - children) * factor / 1e9)
        for name, count in tracer.counts.items():
            add(name, count)
        add("logical_inserts", traced.logical_inserts)

    if not final_check(workload):
        failed = attempted
    return attempted, failed, layer_metrics(sums, pairs, plain, plain_factors,
                                            traced_walls, workload, calibrator)


def layer_metrics(sums, pairs, plain, plain_factors, traced_walls, workload, calibrator):
    def per_unit(key):
        return sums.get(key, 0.0) / pairs

    def mean_us(name):
        calls = sums.get(name + ".calls", 0)
        return sums.get(name + ".incl_s", 0.0) / calls * 1e6 if calls else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    plain_wall = statistics.median(u.raw_s * f for u, f in zip(plain, plain_factors))
    raw_wall = statistics.median(u.raw_s for u in plain)
    unit_s = sum(traced_walls) / pairs
    m = {
        "tree.insert_calls": metric(per_unit("tree.insert.calls"), "count"),
        "tree.insert_us": metric(mean_us("tree.insert"), "us"),
        "tree.delete_calls": metric(per_unit("tree.delete.calls"), "count"),
        "tree.delete_us": metric(mean_us("tree.delete"), "us"),
        "tree.get_us": metric(mean_us("tree.get"), "us"),
        "map.get_us": metric(mean_us("map.get"), "us"),
        "map.insert_us": metric(mean_us("map.insert"), "us"),
        "map.delete_us": metric(mean_us("map.delete"), "us"),
        "map.self_s": metric(sum(per_unit(f"map.{k}.self_s")
                                 for k in ("get", "insert", "delete")), "s"),
        "tree.validate_calls": metric(per_unit("tree.validate.calls"), "count"),
        "tree.validate_s": metric(per_unit("tree.validate.incl_s"), "s"),
        "tree.validate_us_per_node": metric(
            ratio(sums.get("tree.validate.incl_s", 0.0) * 1e6,
                  sums.get("validate_nodes", 0)), "us"),
        "tree.rotations_insert": metric(per_unit("rotations_insert"), "count"),
        "tree.rotations_delete": metric(per_unit("rotations_delete"), "count"),
        "tree.rotations_per_delete": metric(
            ratio(sums.get("rotations_delete", 0), sums.get("tree.delete.calls", 0)),
            "ratio"),
        "tree.clone_calls": metric(per_unit("tree.clone.calls"), "count"),
        "tree.clone_s": metric(per_unit("tree.clone.incl_s"), "s"),
        "bench.run_experiment_s": metric(per_unit("bench.run_experiment.incl_s"), "s"),
        "bench.self_s": metric(per_unit("bench.run_experiment.self_s"), "s"),
        "bench.trees_built": metric(per_unit("trees_built"), "count"),
        "bench.insert_useful_frac": metric(
            ratio(sums.get("logical_inserts", 0), sums.get("tree.insert.calls", 0))
            if sums.get("trees_built") else 0.0, "ratio"),
        "bench.load_corpus_s": metric(per_unit("bench.load_corpus.incl_s"), "s"),
        "bench.render_s": metric(per_unit("bench.render.incl_s"), "s"),
        "rng.shuffle_calls": metric(per_unit("rng.shuffle.calls"), "count"),
        "rng.shuffle_us_per_item": metric(
            ratio(sums.get("rng.shuffle.incl_s", 0.0) * 1e6,
                  sums.get("shuffle_items", 0)), "us"),
        "counters.record_calls": metric(per_unit("counters.record.calls"), "count"),
        "counters.record_us": metric(mean_us("counters.record"), "us"),
        "cli.main_s": metric(per_unit("cli.main.incl_s"), "s"),
        "cli.self_s": metric(per_unit("cli.main.self_s"), "s"),
        "calib.raw_ms": metric(statistics.median(calibrator.samples_ms), "ms"),
        "raw.wall_s": metric(raw_wall, "s"),
        "raw.ops_per_s": metric(workload.ops_per_unit / raw_wall, "ops/s"),
        "trace.overhead_frac": metric(statistics.median(traced_walls) / plain_wall - 1,
                                      "ratio"),
    }
    shares = {
        "tree.insert": "tree.insert.self_s", "tree.delete": "tree.delete.self_s",
        "tree.get": "tree.get.self_s", "tree.validate": "tree.validate.self_s",
        "bench": "bench.run_experiment.self_s", "rng.shuffle": "rng.shuffle.self_s",
        "counters.record": "counters.record.self_s", "cli": "cli.main.self_s",
    }
    for layer, key in shares.items():
        m[f"share.{layer}"] = metric(100 * ratio(per_unit(key), unit_s), "%")
    m["share.map"] = metric(100 * ratio(m["map.self_s"]["value"], unit_s), "%")
    latencies = latency_metrics(plain, plain_factors)
    for kind in ("get", "put", "delete"):
        for q in ("p50", "p99"):
            name = f"{kind}_{q}_us"
            m[name] = metric(latencies.get(name, 0.0), "us")
    return m


def environment() -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "cal_ref_ms": CAL_REF_MS}


def main(argv=None) -> int:
    args = parse_args(argv)
    # The calibration tree must exist before avlkit is imported.
    calibrator = Calibrator()
    src = ROOT / "src"
    if not (src / "avlkit" / "__init__.py").is_file():
        print(f"error: avlkit sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    except workloads.MissingInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    context = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               **environment()}
    if args.trace:
        attempted, failed, metrics = trace(workload, calibrator)
        metrics["ops_failed_frac"] = metric(failed / attempted, "ratio")
        context["trace_pairs"] = workload.trace_pairs
    else:
        attempted, failed, metrics, extra = measure(workload, calibrator, args.seconds)
        context.update(extra)
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
