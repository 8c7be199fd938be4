"""Checks of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402


def test_calibration_module_imports_only_the_stdlib():
    tree = ast.parse((HERE / "calibrate.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert imported == {"__future__", "random", "time"}


def test_calibration_loop_runs_without_avlkit():
    code = ("import sys; import calibrate; c = calibrate.Calibrator(); c.measure_ms(); "
            "print(sorted(m for m in sys.modules if m.startswith('avlkit')))")
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_calibration_pass_leaves_no_objects_behind():
    calibrator = calibrate.Calibrator()
    calibrator.lookup_pass()

    def blocks_left_by(passes):
        before = sys.getallocatedblocks()
        for _ in range(passes):
            calibrator.lookup_pass()
        return sys.getallocatedblocks() - before

    assert blocks_left_by(5) == blocks_left_by(0)


def test_tracer_counts_rotations_and_restores_the_library():
    import workloads
    from tracer import Tracer

    mods = workloads.fresh_import()
    original = mods.tree.AvlTree.__dict__["insert"]
    tracer = Tracer()
    tracer.install(mods)
    try:
        tree = mods.tree.AvlTree()
        events = 0
        for key in range(64):
            events += len(tree.insert(key)[1])
        for key in range(0, 64, 2):
            events += len(tree.delete(key)[1])
    finally:
        tracer.uninstall()
    assert mods.tree.AvlTree.__dict__["insert"] is original
    assert tracer.totals["tree.insert"][0] == 64
    assert tracer.totals["tree.delete"][0] == 32  # delete's inner pop is not a second call
    counted = tracer.counts["rotations_insert"] + tracer.counts["rotations_delete"]
    assert counted == events > 0
    calls, inclusive, children = tracer.totals["tree.insert"]
    assert children == 0 < inclusive


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for workload in ("desk-rotations", "map-mixed", "check-validate"):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert proc.returncode != 0
        assert proc.stdout == ""


def test_map_run_emits_exactly_the_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "map-mixed", "--seed", "1",
             "--seconds", "1", "--trace", trace],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared}
