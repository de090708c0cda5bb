"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math

import numpy as np

from tapearm.model import (
    DEFAULT_PARAMS,
    JointState,
    cable_lengths,
    extension_ratio,
    forward_kinematics,
    mass_budget,
    theta_from_cables,
)
from tapearm.simulator import Scenario, builtin_scenarios, run_scenario
from tapearm.stiffness import FlattenedSection, default_models, flattened_moment, peak_ratio
from tapearm.workspace import (
    feasibility_mask,
    grid_centers,
    ik_at_theta,
    min_end_effector_angle,
)

PARAMS = DEFAULT_PARAMS


def _report(number, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"acceptance criterion {number:02d} [{name}]: {status}")
    assert not failures, "; ".join(failures)


def test_criterion_01_multi_configuration_reproduction():
    failures = []
    target = (0.076, 0.686)
    expected = {7.1: (0.076, 0.615), 10.0: (0.254, 0.438), 16.7: (0.432, 0.265)}
    for degrees, (l1_ref, l2_ref) in expected.items():
        state = ik_at_theta(target, math.radians(degrees), PARAMS)
        if state is None:
            failures.append(f"theta={degrees} deg infeasible")
            continue
        if abs(state.l1 - l1_ref) > 5e-3 or abs(state.l2 - l2_ref) > 5e-3:
            failures.append(f"theta={degrees} deg lengths ({state.l1:.4f}, {state.l2:.4f}) "
                            f"vs ({l1_ref}, {l2_ref})")
        pose = forward_kinematics(state)
        if math.hypot(pose.x - target[0], pose.y - target[1]) > 2e-3:
            failures.append(f"theta={degrees} deg misses the target")
    _report(1, "multi-configuration reproduction", failures)


def test_criterion_02_reaching_targets():
    failures = []
    for x, y in ((0.229, 0.838), (0.076, 0.838)):
        minimum = min_end_effector_angle((x, y), PARAMS)
        if minimum is None:
            failures.append(f"({x}, {y}) unreachable")
            continue
        pose = forward_kinematics(ik_at_theta((x, y), minimum, PARAMS))
        state = ik_at_theta((pose.x, pose.y), pose.phi, PARAMS)
        pose = forward_kinematics(state)
        miss = math.hypot(pose.x - x, pose.y - y)
        if miss > 1e-9:
            failures.append(f"({x}, {y}) roundtrip misses by {miss:.3g} m")
    _report(2, "reaching targets", failures)


def test_criterion_03_fk_ik_roundtrip():
    rng = np.random.default_rng(2024)
    failures = []
    worst = 0.0
    count = 0
    while count < 10_000:
        l1 = rng.uniform(PARAMS.l1_min, 1.5)
        l2 = rng.uniform(0.0, 1.5)
        if l1 + l2 > PARAMS.max_total_length:
            continue
        theta = rng.uniform(-PARAMS.theta_limit, PARAMS.theta_limit)
        if theta == 0.0:
            continue
        state = JointState(l1, l2, theta)
        pose = forward_kinematics(state)
        solved = ik_at_theta((pose.x, pose.y), pose.phi, PARAMS)
        count += 1
        if solved is None:
            failures.append(f"state {state} became unreachable")
            break
        if solved.theta != state.theta:
            failures.append("theta not reproduced exactly")
            break
        worst = max(worst, abs(solved.l1 - state.l1), abs(solved.l2 - state.l2))
    if worst > 1e-9:
        failures.append(f"worst length error {worst:.3g} m > 1e-9")
    _report(3, "fk/ik roundtrip on 10k random states", failures)


def test_criterion_04_cable_map_roundtrip():
    failures = []
    worst = 0.0
    for d in (0.01, 0.015, 0.02):
        for degrees in np.linspace(-55.0, 55.0, 221):
            state = JointState(0.6, 0.5, math.radians(degrees))
            recovered = theta_from_cables(cable_lengths(state, d), d)
            worst = max(worst, abs(recovered - state.theta))
    if worst > 1e-9:
        failures.append(f"worst roundtrip error {worst:.3g} rad > 1e-9")
    _report(4, "cable map roundtrip", failures)


def test_criterion_05_stationary_bend_point():
    failures = []
    scenarios = builtin_scenarios()

    held = run_scenario(scenarios["stationary-bend"])
    if held.rows[-1].t < 10.0 - 1e-9:
        failures.append("coordinated retraction shorter than 10 s")
    l1_drift = max(abs(r.l1 - held.rows[0].l1) for r in held.rows)
    if l1_drift > 1e-6:
        failures.append(f"l1 drift {l1_drift:.3g} m > 1e-6")
    bend_drift = max(math.hypot(0.0, r.l1 - held.rows[0].l1) for r in held.rows)
    if bend_drift > 1e-6:
        failures.append(f"bend-point drift {bend_drift:.3g} m > 1e-6")

    grown = run_scenario(scenarios["stationary-bend-uncoordinated"])
    growth = grown.rows[-1].l1 - grown.rows[0].l1
    node_drive = grown.rows[-1].q2 - grown.rows[0].q2
    if growth <= 0:
        failures.append("uncoordinated variant shows no l1 growth")
    if abs(growth - node_drive) > 1e-6:
        failures.append(f"l1 growth {growth:.6g} m vs node drive {node_drive:.6g} m")
    _report(5, "stationary bend point", failures)


def test_criterion_06_constant_angle_retraction():
    failures = []
    log = run_scenario(builtin_scenarios()["constant-angle-retraction"])
    target = math.radians(22.0)
    theta_error = max(abs(r.theta - target) for r in log.rows)
    if theta_error > 1e-6:
        failures.append(f"theta deviates {theta_error:.3g} rad > 1e-6")
    residual = max(r.eq3_residual for r in log.rows)
    if residual > 1e-9:
        failures.append(f"cable residual {residual:.3g} m > 1e-9")
    if not log.rows[-1].l1 < log.rows[0].l1:
        failures.append("no retraction happened")
    _report(6, "constant-angle retraction", failures)


def test_criterion_07_workspace_oracle_equivalence():
    failures = []
    step = math.radians(0.01)
    n = int(PARAMS.theta_limit / step + 1e-9)
    lattice = np.arange(-n, n + 1) * step
    tolerance = math.radians(0.05)

    def oracle(x, y):
        mask = feasibility_mask((x, y), lattice, PARAMS)
        if not mask.any():
            return None
        feasible = lattice[mask]
        return float(feasible[np.argmin(np.abs(feasible))])

    xs = grid_centers(-2.0, 2.0, 50, 0.08)
    ys = grid_centers(0.0, 2.0, 50, 0.04)
    closed_grid = {}
    worst = 0.0
    for y in ys:
        for x in xs:
            closed = min_end_effector_angle((float(x), float(y)), PARAMS)
            swept = oracle(float(x), float(y))
            closed_grid[(float(x), float(y))] = closed
            if (closed is None) != (swept is None):
                failures.append(f"reachability mismatch at ({x:.3f}, {y:.3f})")
            elif closed is not None:
                worst = max(worst, abs(abs(closed) - abs(swept)))
    if worst > tolerance:
        failures.append(f"worst min-angle disagreement {math.degrees(worst):.4f} deg > 0.05")

    for y in ys:
        for x in xs:
            mirrored = closed_grid[(float(-x), float(y))]
            value = closed_grid[(float(x), float(y))]
            if (value is None) != (mirrored is None):
                failures.append(f"mirror asymmetry at ({x:.3f}, {y:.3f})")
            elif value is not None and value != -mirrored and not (value == 0 == mirrored):
                failures.append(f"mirror min-angle mismatch at ({x:.3f}, {y:.3f})")

    for y in ys:
        minimum = min_end_effector_angle((0.0, float(y)), PARAMS)
        if minimum is not None and minimum != 0.0:
            failures.append(f"x=0 cell at y={y:.3f} has nonzero min angle")
    _report(7, "workspace oracle equivalence on a 50x50 grid", failures)


def test_criterion_08_stiffness_calibration():
    failures = []
    pinched, unpinched = default_models()
    ratio = peak_ratio(pinched, unpinched, math.radians(10.0))
    if abs(ratio - 0.055 / 0.654) > 1e-3:
        failures.append(f"peak ratio {ratio:.5f} not within 1e-3 of {0.055 / 0.654:.5f}")

    section = FlattenedSection.from_tape(PARAMS.tape)
    rng = np.random.default_rng(8)
    for kappa in rng.uniform(-10.0, 10.0, 1000):
        double = flattened_moment(section, 2.0 * kappa)
        single = flattened_moment(section, kappa)
        if single != 0.0 and abs(double - 2.0 * single) > 1e-15 * abs(double):
            failures.append(f"linearity breaks at kappa={kappa}")
            break

    thetas = np.linspace(1e-6, math.pi, 10_000)
    moments = np.array([unpinched.moment(t) for t in thetas])
    mirrored = np.array([unpinched.moment(-t) for t in thetas])
    if not np.array_equal(mirrored, -moments):
        failures.append("unpinched curve is not odd")
    i_peak = int(np.argmax(moments))
    if not (np.all(np.diff(moments[: i_peak + 1]) > 0)
            and np.all(np.diff(moments[i_peak:]) < 0)):
        failures.append("unpinched curve does not have a single positive-side maximum")
    _report(8, "stiffness calibration and curve shape", failures)


def test_criterion_09_mass_and_extension():
    failures = []
    budget = mass_budget(PARAMS, 3.0)
    if abs(budget.per_tape - 0.076) > 1e-3:
        failures.append(f"3 m tape mass {budget.per_tape * 1e3:.1f} g not within 1 g of 76 g")
    if budget.node != 0.163:
        failures.append(f"node mass {budget.node} kg != 0.163 kg")
    ratio = extension_ratio(PARAMS)
    if not ratio > 20.0:
        failures.append(f"extension ratio {ratio:.2f} not above 20")
    _report(9, "mass and extension figures", failures)


def test_criterion_10_simulator_determinism():
    failures = []
    for name, scenario in builtin_scenarios().items():
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        if first.rows != second.rows:
            failures.append(f"{name}: repeated runs differ")
            continue
        halved = Scenario(scenario.name, scenario.params, scenario.initial,
                          scenario.profile, scenario.dt / 2, scenario.checks)
        refined = run_scenario(halved)
        for i, j in zip(first.boundary_indices, refined.boundary_indices):
            if first.rows[i] != refined.rows[j]:
                failures.append(f"{name}: boundary state differs between dt and dt/2")
                break
    _report(10, "simulator determinism and dt independence", failures)
