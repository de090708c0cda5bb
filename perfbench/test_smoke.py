"""Smoke test of the benchmark: every workload at a tiny size, untraced and traced.

    python3 -m pytest perfbench/test_smoke.py -q

Takes a few minutes. It checks that each run is correct, that the last line
carries every metric BENCHMARK.json declares with its unit, that the full
report names every per-layer metric as a number or as "not observed" with a
reason, and that each layer a workload exercises recorded at least one span.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7

PER_LAYER_REPORTED = (
    "cli.import_s", "cli.import_numpy_s", "cli.import_scipy_s", "cli.main_self_s",
    "workspace.compute_grid_self_us_per_cell", "workspace.min_end_effector_angle_us",
    "workspace.grid_to_csv_us_per_row", "workspace.sweep_fallbacks",
    "workspace.points_queried", "workspace.reachable_fraction",
    "svg.workspace_svg_self_us_per_cell", "svg.marching_squares_us_per_cell",
    "svg.contour_segments", "svg.overlay_svg_ms",
    "simulator.run_scenario_self_us_per_row", "simulator.evaluate_check_us_per_row",
    "simulator.log_to_csv_us_per_row", "simulator.builtin_scenarios_ms",
    "simulator.violation_rows",
    "model.forward_kinematics_us", "model.validate_state_us", "model.theta_from_cables_us",
    "planner.plan_trajectory_us_per_leg", "planner.ik_enumerate_us_per_config",
    "stiffness.calibrate_unpinched_ms_per_fit", "stiffness.calibration_ok_ratio",
    "stiffness.moment_angle_curve_us_per_sample",
    "serialization.load_scenario_us_per_segment",
    "serialization.scenario_roundtrip_us_per_segment",
    "trace.overhead_s", "trace.remainder_s", "trace.spans", "trace.layers_observed",
)
LAYERS = ("cli", "model", "stiffness", "workspace", "planner", "simulator",
          "serialization", "svg")


def run(workload: str, trace: int, root: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--scale", "0.01"],
        capture_output=True, text=True, timeout=600)
    return proc


def result_and_report(workload: str, trace: int):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    report_path = ROOT / ".perfbench_out" / "results" / f"{workload}-seed{SEED}-trace{trace}.json"
    return result, json.loads(report_path.read_text())


@pytest.fixture(scope="module")
def traced():
    return {workload: result_and_report(workload, 1) for workload in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, report = result_and_report(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    machine = report["machine"]
    for fact in ("nproc", "cpu_model", "python", "numpy", "scipy", "commit", "seed",
                 "repeats", "statistic", "src_lines"):
        assert fact in machine


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload, traced):
    result, report = traced[workload]
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    reported = report["per_layer"]
    for name in PER_LAYER_REPORTED:
        entry = reported[name]
        assert entry["unit"]
        assert isinstance(entry.get("value"), (int, float)) or entry["not_observed"]
    facts = report["facts"]
    assert set(facts["layers_expected"]) <= set(facts["layers_called"])
    assert result["metrics"]["trace.layers_observed"]["value"] == len(facts["layers_called"])


def test_every_layer_recorded_spans(traced):
    called = set()
    for _, report in traced.values():
        called.update(report["facts"]["layers_called"])
    assert called == set(LAYERS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
