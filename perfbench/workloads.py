"""The benchmark's four workloads: seeded inputs, operations and output checks.

Each workload turns ``--seed`` into its inputs during set-up (untimed), then
yields a cycle of operations. An operation is one child process: a
``tapearm`` command line, or one library batch in a fresh interpreter. Its
outputs are checked against in-process library results or oracles after the
child has exited, outside the timed region; every mismatch is reported by
name and makes the operation count as failed.

``scale`` shrinks the inputs for the smoke test; the driver always runs 1.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import tapearm as ta
from tapearm import planner, serialization, simulator, stiffness, workspace

PARAMS = ta.DEFAULT_PARAMS
# CLI floats are printed with 12 significant digits; outputs are compared with
# in-process results to this absolute tolerance (m, rad, deg or N*m).
PRINT_TOL = 1e-9
# Minimum-angle agreement with the 0.01-degree sweep oracle (criterion 07).
ORACLE_ANGLE_TOL = math.radians(0.05)


@dataclass
class Op:
    """One timed operation and how to check what it produced."""

    label: str
    argv: list | None   # tapearm arguments after --out DIR; None for the library batch
    units: float        # work done, in the workload's unit
    check: Callable     # (OpResult) -> list of mismatch messages


@dataclass
class OpResult:
    returncode: int
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str
    out_dir: Path
    output_bytes: int
    batch: dict | None = None


def _key_values(stdout: str) -> dict:
    pairs = (line.split("=", 1) for line in stdout.splitlines() if "=" in line)
    return {key: value for key, value in pairs}


def _close(label, name, got, want, tol=PRINT_TOL) -> list:
    if got is None or not abs(float(got) - want) <= tol:
        return [f"{label}: {name}={got} differs from library value {want!r}"]
    return []


def _exit_ok(result: OpResult, label: str) -> list:
    if result.returncode != 0:
        tail = result.stderr.strip().splitlines()[-1:] or [""]
        return [f"{label}: exit code {result.returncode} ({tail[0]})"]
    return []


def sweep_min_angle(point):
    """Oracle: closest-to-zero angle of the brute-force sweep, None if it finds none."""
    intervals = workspace.sweep_feasible_intervals(point, PARAMS)
    angles = [0.0 if i.lo <= 0.0 <= i.hi else min(i.lo, i.hi, key=abs) for i in intervals]
    return min(angles, key=abs) if angles else None


def oracle_mismatch(point, angle, swept) -> str | None:
    """Compare a minimum end-effector angle (None: unreachable) with the sweep.

    A feasible interval narrower than the sweep step can escape the sweep;
    a reachable answer is then accepted when the feasibility predicate holds
    at the angle the program returned.
    """
    if swept is None and angle is not None:
        if not workspace.feasibility_mask(point, [angle], PARAMS)[0]:
            return f"angle {angle!r} at {point} is not feasible and the sweep finds none"
    elif swept is not None and angle is None:
        return f"{point} reported unreachable; the sweep reaches it at {swept!r}"
    elif angle is not None and abs(abs(angle) - abs(swept)) > ORACLE_ANGLE_TOL:
        return f"min angle {angle!r} at {point} is off the sweep's {swept!r} by over 0.05 deg"
    return None


def random_state(rng, params=PARAMS) -> ta.JointState:
    """A joint state strictly inside every bound of ``params``."""
    return ta.JointState(float(rng.uniform(params.l1_min + 0.01, 1.0)),
                         float(rng.uniform(0.02, 0.9)),
                         float(rng.uniform(-0.95, 0.95) * params.theta_limit))


def _leg_steps(a, b, dt) -> int:
    profile = planner.plan_trajectory([a, b], PARAMS, dt=dt)
    return sum(round(duration / dt) for duration, _ in profile.segments)


def fill_waypoints(rng, dt: float, target_rows: int, tolerance: int) -> tuple[list, int]:
    """Random waypoints whose planned run logs ``target_rows`` (+0/-tolerance) rows.

    Legs that would overshoot are shortened toward their start in joint
    space, which keeps every intermediate state inside the bounds, so run
    lengths hardly vary with the seed.
    """
    waypoints = [random_state(rng)]
    steps = 0
    for _ in range(100_000):
        remaining = target_rows - 1 - steps
        if remaining <= tolerance:
            return waypoints, steps + 1
        a, b = waypoints[-1], random_state(rng)
        n = _leg_steps(a, b, dt)
        if n > remaining:
            f = remaining / n * rng.uniform(0.5, 1.0)
            b = ta.JointState(a.l1 + f * (b.l1 - a.l1), a.l2 + f * (b.l2 - a.l2),
                              a.theta + f * (b.theta - a.theta))
            n = _leg_steps(a, b, dt)
            if n == 0 or n > remaining:
                continue
        waypoints.append(b)
        steps += n
    raise RuntimeError("could not fill the requested run length")


def waypoint_checks(waypoints, visits: int) -> list[str]:
    """eq3_residual, visits_target at a few waypoints, target and final_theta."""
    final = ta.forward_kinematics(waypoints[-1])
    inner = waypoints[1:-1]
    picks = [inner[round(i * (len(inner) - 1) / max(visits - 1, 1))]
             for i in range(min(visits, len(inner)))]
    checks = ["eq3_residual:1e-9"]
    for state in picks:
        pose = ta.forward_kinematics(state)
        checks.append(f"visits_target:({pose.x!r},{pose.y!r}):1e-6")
    checks.append(f"target:({final.x!r},{final.y!r}):1e-6")
    checks.append(f"final_theta:{waypoints[-1].theta!r}rad:1e-6")
    return checks


def build_scenario(name, waypoints, dt, checks) -> simulator.Scenario:
    first = waypoints[0]
    return simulator.Scenario(
        name, PARAMS,
        simulator.initial_state(planner.control_from_state(first), first.theta, PARAMS),
        planner.plan_trajectory(waypoints, PARAMS, dt=dt), dt, tuple(checks))


def _final_row_mismatches(label, row, waypoint) -> list:
    pose = ta.forward_kinematics(waypoint)
    return (_close(label, "final x_m", row[0], pose.x)
            + _close(label, "final y_m", row[1], pose.y)
            + _close(label, "final theta_rad", row[2], waypoint.theta))


def _check_lines(label, stdout, expected_checks) -> list:
    lines = [line for line in stdout.splitlines() if line.startswith(("PASS ", "FAIL "))]
    problems = [f"{label}: {line}" for line in lines if line.startswith("FAIL ")]
    if len(lines) != len(expected_checks):
        problems.append(f"{label}: {len(lines)} check lines, expected {len(expected_checks)}")
    return problems


class Workload:
    name = ""
    unit = ""               # what `units` counts, printed as <unit>_per_s
    wall_includes_startup = True
    #: Layers whose spans the workload must record when traced.
    layers: tuple = ()

    def __init__(self, seed: int, scale: float, work_dir: Path):
        """Make the inputs from ``seed``; files go to ``work_dir``."""
        self.rng = np.random.default_rng(seed)

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def extra(self) -> dict:
        """Workload facts that feed per-layer metrics (see layers.py)."""
        return {}


class WorkspaceMap(Workload):
    """``tapearm --format both workspace`` over an 80 000-cell grid."""

    name = "workspace-map"
    unit = "cells"
    layers = ("cli", "workspace", "svg")
    oracle_cells = 64

    def __init__(self, seed, scale, work_dir):
        super().__init__(seed, scale, work_dir)
        self.resolution = 0.01 / math.sqrt(scale)
        # Offsets of at least 0.05 cell keep every bound above 1e-4 in
        # magnitude, so repr() never writes an exponent (a negative number in
        # exponent notation would read as an option on the command line).
        ox, oy = (float(v) for v in self.rng.choice([-1.0, 1.0], 2)
                  * self.rng.uniform(0.05, 0.5, 2) * self.resolution)
        self.bounds = (-2.0 + ox, 2.0 + ox, oy, 2.0 + oy)
        self.nx = int(round((self.bounds[1] - self.bounds[0]) / self.resolution))
        self.ny = int(round((self.bounds[3] - self.bounds[2]) / self.resolution))
        xs = workspace.grid_centers(self.bounds[0], self.bounds[1], self.nx, self.resolution)
        ys = workspace.grid_centers(self.bounds[2], self.bounds[3], self.ny, self.resolution)
        cells = self.rng.choice(self.nx * self.ny, min(self.oracle_cells, self.nx * self.ny),
                                replace=False)
        self.oracle = {}
        for cell in sorted(int(c) for c in cells):
            point = (float(xs[cell % self.nx]), float(ys[cell // self.nx]))
            self.oracle[cell] = (point, sweep_min_angle(point))
        self.first_digest = None
        self.fraction = None

    def ops(self):
        argv = ["--format", "both", "workspace", "--bounds", *map(repr, self.bounds),
                "--resolution", repr(self.resolution)]
        return [Op("workspace", argv, self.nx * self.ny, self.check)]

    def check(self, result: OpResult) -> list:
        label = "workspace"
        problems = _exit_ok(result, label)
        if problems:
            return problems
        cells = self.nx * self.ny
        printed = _key_values(result.stdout)
        if printed.get("cells") != str(cells):
            problems.append(f"{label}: stdout cells={printed.get('cells')}, expected {cells}")
        csv_bytes = (result.out_dir / "workspace.csv").read_bytes()
        lines = csv_bytes.decode().splitlines()
        if lines[:1] != [workspace.GRID_CSV_HEADER]:
            problems.append(f"{label}: CSV header {lines[:1]}")
        rows = lines[1:]
        if len(rows) != cells:
            return problems + [f"{label}: {len(rows)} CSV rows, expected {cells}"]
        reachable = sum(1 for row in rows if row.split(",")[2] == "1")
        fraction = f"{reachable / cells:.12g}"
        if printed.get("reachable_fraction") != fraction:
            problems.append(f"{label}: reachable_fraction={printed.get('reachable_fraction')} "
                            f"but the CSV gives {fraction}")
        for cell, (point, swept) in self.oracle.items():
            x, y, flag, min_angle = rows[cell].split(",")
            if abs(float(x) - point[0]) > 1e-12 or abs(float(y) - point[1]) > 1e-12:
                problems.append(f"{label}: row {cell} is at ({x}, {y}), expected {point}")
                continue
            problem = oracle_mismatch(point, float(min_angle) if flag == "1" else None, swept)
            if problem:
                problems.append(f"{label}: {problem}")
        svg_text = (result.out_dir / "workspace.svg").read_text()
        if not (svg_text.startswith("<svg") and svg_text.rstrip().endswith("</svg>")
                and "<polyline" in svg_text):
            problems.append(f"{label}: workspace.svg is not a heat map with contours")
        digest = hashlib.sha256(csv_bytes).hexdigest()
        if self.first_digest is None:
            self.first_digest, self.fraction = digest, reachable / cells
        elif digest != self.first_digest:
            problems.append(f"{label}: CSV differs from the first run of the same inputs")
        return problems

    def extra(self):
        return {"reachable_fraction": self.fraction}


class ScenarioReplay(Workload):
    """``tapearm simulate`` on a generated ~53k-row scenario file."""

    name = "scenario-replay"
    unit = "rows"
    layers = ("cli", "serialization", "simulator", "model", "svg")
    dt = 0.002

    def __init__(self, seed, scale, work_dir):
        super().__init__(seed, scale, work_dir)
        target = max(50, int(53_000 * scale))
        self.waypoints, self.rows = fill_waypoints(self.rng, self.dt, target, target // 200)
        self.checks = waypoint_checks(self.waypoints, visits=4)
        scenario = build_scenario("replay", self.waypoints, self.dt, self.checks)
        self.path = work_dir / "replay.json"
        serialization.save_scenario(scenario, self.path)

    def ops(self):
        return [Op("simulate", ["--format", "both", "simulate", str(self.path)],
                   self.rows, self.check)]

    def check(self, result: OpResult) -> list:
        label = "simulate"
        problems = _exit_ok(result, label) + _check_lines(label, result.stdout, self.checks)
        log = result.out_dir / "replay_log.csv"
        if not log.exists() or not (result.out_dir / "replay_overlay.svg").exists():
            return problems + [f"{label}: log CSV or overlay SVG not written"]
        lines = log.read_text().splitlines()
        if lines[0] != simulator.LOG_CSV_HEADER:
            problems.append(f"{label}: log header {lines[0]!r}")
        if len(lines) - 1 != self.rows:
            problems.append(f"{label}: {len(lines) - 1} log rows, expected {self.rows}")
        fields = lines[-1].split(",")
        final = (float(fields[8]), float(fields[9]), float(fields[7]))
        return problems + _final_row_mismatches(label, final, self.waypoints[-1])


class CliBurst(Workload):
    """Six short ``tapearm`` commands, one process each."""

    name = "cli-burst"
    unit = "commands"
    layers = ("cli", "model", "workspace", "stiffness", "planner", "simulator", "svg")
    demos = ("deploy-and-bend", "stationary-bend-uncoordinated")

    def __init__(self, seed, scale, work_dir):
        super().__init__(seed, scale, work_dir)
        rng = self.rng
        # Angles go on the command line as bare degrees (a leading minus with
        # a unit suffix would read as an option); the reference state uses
        # the angle the CLI parses.
        self.fk_state = self._cli_state(random_state(rng))
        pose = ta.forward_kinematics(random_state(rng))
        self.ik_point = (pose.x, pose.y)
        self.cable_state = self._cli_state(random_state(rng))
        self.curve_max_deg = float(rng.uniform(35.0, 45.0))
        scenarios = simulator.builtin_scenarios(PARAMS)
        self.demo_checks = {name: scenarios[name].checks for name in self.demos}

    @staticmethod
    def _cli_state(state):
        degrees = repr(math.degrees(state.theta))
        return ta.JointState(state.l1, state.l2, math.radians(float(degrees))), degrees

    def ops(self):
        (s, s_deg), (c, c_deg) = self.fk_state, self.cable_state
        return [
            Op("fk", ["fk", repr(s.l1), repr(s.l2), s_deg], 1, self.check_fk),
            Op("ik", ["ik", repr(self.ik_point[0]), repr(self.ik_point[1])], 1, self.check_ik),
            Op("cables", ["cables", repr(c.l1), repr(c.l2), c_deg, "--d", "0.02"],
               1, self.check_cables),
            Op("stiffness", ["stiffness", "--curve", "0", repr(self.curve_max_deg), "81"],
               1, self.check_curve),
            *(Op(f"demo {name}", ["demo", name], 1,
                 lambda result, name=name: self.check_demo(result, name))
              for name in self.demos),
        ]

    def check_fk(self, result):
        problems = _exit_ok(result, "fk")
        pose = ta.forward_kinematics(self.fk_state[0])
        got = _key_values(result.stdout)
        return (problems + _close("fk", "x_m", got.get("x_m"), pose.x)
                + _close("fk", "y_m", got.get("y_m"), pose.y)
                + _close("fk", "phi_deg", got.get("phi_deg"), math.degrees(pose.phi)))

    def check_ik(self, result):
        problems = _exit_ok(result, "ik")
        theta = workspace.min_end_effector_angle(self.ik_point, PARAMS)
        state = workspace.ik_at_theta(self.ik_point, theta, PARAMS)
        got = _key_values(result.stdout)
        return (problems + _close("ik", "l1_m", got.get("l1_m"), state.l1)
                + _close("ik", "l2_m", got.get("l2_m"), state.l2)
                + _close("ik", "theta_deg", got.get("theta_deg"), math.degrees(state.theta)))

    def check_cables(self, result):
        problems = _exit_ok(result, "cables")
        pair = ta.cable_lengths(self.cable_state[0], 0.02)
        got = _key_values(result.stdout)
        return (problems + _close("cables", "cL_m", got.get("cL_m"), pair.c_L)
                + _close("cables", "cR_m", got.get("cR_m"), pair.c_R))

    def check_curve(self, result):
        problems = _exit_ok(result, "stiffness")
        path = result.out_dir / "stiffness_unpinched.csv"
        if not path.exists():
            return problems + ["stiffness: stiffness_unpinched.csv not written"]
        _, unpinched = stiffness.default_models(PARAMS.tape)
        want = stiffness.moment_angle_curve(unpinched, 0.0, math.radians(self.curve_max_deg), 81)
        got = stiffness.read_moment_csv(path)
        if got.shape != want.shape or not np.allclose(got, want, rtol=0, atol=PRINT_TOL):
            problems.append("stiffness: moment table differs from moment_angle_curve")
        return problems

    def check_demo(self, result, name):
        label = f"demo {name}"
        return _exit_ok(result, label) + _check_lines(label, result.stdout,
                                                      self.demo_checks[name])


class ApiBatch(Workload):
    """One fresh interpreter running a seeded library batch after ``import tapearm``."""

    name = "api-batch"
    unit = "calls"
    wall_includes_startup = False
    layers = ("model", "workspace", "planner", "stiffness", "serialization", "simulator")
    dt = 0.01
    oracle_points = 64
    # Calibration anchors: fitted peak moment, peak angle and plateau moment
    # within these relative errors of the generating model (criterion 08's
    # anchors are the peak and the pinched moment at the peak angle).
    fit_tol = {"peak_moment": 0.02, "peak_angle": 0.05, "propagation_moment": 0.10}
    noise_nm = 0.002

    def __init__(self, seed, scale, work_dir):
        super().__init__(seed, scale, work_dir)
        rng = self.rng

        def n(full, least):
            return max(least, int(round(full * scale)))

        roundtrip = [random_state(rng) for _ in range(n(20_000, 10))]
        points = rng.uniform([-2.0, 0.0], [2.0, 2.0], (n(20_000, 10), 2)).tolist()
        enumerate_points = [ta.forward_kinematics(random_state(rng)) for _ in range(n(300, 3))]
        self.truths, curves = [], []
        for _ in range(n(100, 3)):
            peak = 0.654 * rng.uniform(0.9, 1.1)
            peak_angle = math.radians(10.0) * rng.uniform(0.8, 1.2)
            truth = stiffness.UnpinchedPairModel(
                peak_moment=peak, peak_angle=peak_angle,
                propagation_moment=peak * rng.uniform(0.08, 0.15),
                decay_angle=peak_angle * rng.uniform(0.7, 1.5))
            samples = stiffness.moment_angle_curve(truth, 0.0, math.radians(60.0), 81)
            samples[:, 1] += rng.normal(0.0, self.noise_nm, len(samples))
            self.truths.append(truth)
            curves.append(samples.tolist())
        self.scenarios = []
        for _ in range(n(100, 3)):
            waypoints, rows = fill_waypoints(rng, self.dt, 400, 4)
            self.scenarios.append((waypoints, rows))
        self.spec = {
            "roundtrip": [[s.l1, s.l2, s.theta] for s in roundtrip],
            "points": points,
            "enumerate": [[p.x, p.y] for p in enumerate_points],
            "enumerate_count": 8,
            "curves": curves,
            "scenarios": [{"waypoints": [[w.l1, w.l2, w.theta] for w in waypoints],
                           "dt": self.dt, "checks": waypoint_checks(waypoints, visits=2)}
                          for waypoints, _ in self.scenarios],
        }
        self.calls = sum(len(self.spec[k]) for k in
                         ("roundtrip", "points", "enumerate", "curves", "scenarios"))
        # References: the library in this process, and the sweep oracle on a
        # seeded subset of the angle queries.
        self.angles = [workspace.min_end_effector_angle(tuple(p), PARAMS) for p in points]
        self.oracle = {int(index): sweep_min_angle(tuple(points[index])) for index in
                       rng.choice(len(points), min(self.oracle_points, len(points)),
                                  replace=False)}
        self.fits_ok = self.fits_done = 0

    def ops(self):
        return [Op("batch", None, self.calls, self.check)]

    def check(self, result: OpResult) -> list:
        label = "batch"
        problems = _exit_ok(result, label)
        batch = result.batch
        if problems or batch is None:
            return problems or [f"{label}: no batch result written"]
        errors = batch["roundtrip"]
        if any(e is None for e in errors):
            problems.append(f"{label}: {sum(e is None for e in errors)} FK->IK round trips "
                            "found no inverse")
        elif max(errors) > PRINT_TOL:
            problems.append(f"{label}: FK->IK round-trip error {max(errors):.3g} m")
        if batch["angles"] != self.angles:
            problems.append(f"{label}: min_end_effector_angle results differ from the library "
                            "in the benchmark process")
        for index, swept in self.oracle.items():
            problem = oracle_mismatch(tuple(self.spec["points"][index]),
                                      batch["angles"][index], swept)
            if problem:
                problems.append(f"{label}: {problem}")
        for (x, y), states in zip(self.spec["enumerate"], batch["enumerated"]):
            if not states:
                problems.append(f"{label}: ik_enumerate found nothing at ({x}, {y})")
            for l1, l2, theta in states:
                pose = ta.forward_kinematics(ta.JointState(l1, l2, theta))
                if math.hypot(pose.x - x, pose.y - y) > PRINT_TOL:
                    problems.append(f"{label}: enumerated state misses ({x}, {y})")
        ok = 0
        for truth, fit in zip(self.truths, batch["fits"]):
            if isinstance(fit, str):
                problems.append(f"{label}: calibration failed: {fit}")
                continue
            fitted = dict(zip(("peak_moment", "peak_angle", "propagation_moment"), fit))
            bad = [key for key, tol in self.fit_tol.items()
                   if abs(fitted[key] - getattr(truth, key)) > tol * getattr(truth, key)]
            if bad:
                problems.append(f"{label}: calibration misses the anchors {bad}")
            else:
                ok += 1
        self.fits_ok += ok
        self.fits_done += len(self.truths)
        for (waypoints, rows), run in zip(self.scenarios, batch["scenarios"]):
            if run["rows"] != rows:
                problems.append(f"{label}: short scenario logged {run['rows']} rows, "
                                f"expected {rows}")
            if run["failed_checks"]:
                problems.append(f"{label}: scenario checks failed: {run['failed_checks']}")
            if not run["roundtrip_equal"]:
                problems.append(f"{label}: scenario changed in the save/load round trip")
            problems += _final_row_mismatches(label, run["final"], waypoints[-1])
        return problems

    def extra(self):
        if not self.fits_done:
            return {}
        return {"calibration_ok_ratio": self.fits_ok / self.fits_done}


WORKLOADS = {w.name: w for w in (WorkspaceMap, ScenarioReplay, CliBurst, ApiBatch)}
