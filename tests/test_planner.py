import math

import numpy as np
import pytest

from tapearm.model import (
    DEFAULT_PARAMS,
    ControlState,
    JointState,
    ManipulatorParams,
    Pose,
    cable_lengths,
    forward_kinematics,
    link_lengths,
)
from tapearm.planner import (
    ControlProfile,
    PlanningError,
    RateCommand,
    SpeedLimits,
    control_from_state,
    controls_between,
    ik_enumerate,
    plan_trajectory,
    stationary_bend_rates,
)
from tapearm.workspace import feasible_theta_interval, ik_at_theta

PARAMS = DEFAULT_PARAMS


def test_ik_solve_reference_config():
    state = ik_at_theta((0.076, 0.686), math.radians(16.7), PARAMS)
    assert state is not None
    assert state.l1 == pytest.approx(0.432, abs=5e-3)
    assert state.l2 == pytest.approx(0.265, abs=5e-3)


def test_ik_solve_straight():
    state = ik_at_theta((0.0, 0.9), 0.0, PARAMS)
    assert state.l1 + state.l2 == pytest.approx(0.9, abs=1e-12)


def test_ik_solve_second_target():
    interval = feasible_theta_interval((0.229, 0.838), PARAMS)
    theta = 0.5 * (interval.lo + interval.hi)
    state = ik_at_theta((0.229, 0.838), theta, PARAMS)
    assert state is not None
    pose = forward_kinematics(state)
    assert math.hypot(pose.x - 0.229, pose.y - 0.838) <= 1e-9


def test_ik_solve_infeasible_is_none():
    assert ik_at_theta((1.5, 0.1), math.radians(30.0), PARAMS) is None


def test_fk_ik_roundtrip_property():
    rng = np.random.default_rng(12)
    count = 0
    while count < 2000:
        l1 = rng.uniform(PARAMS.l1_min, 1.2)
        l2 = rng.uniform(0.0, 1.2)
        if l1 + l2 > PARAMS.max_total_length:
            continue
        theta = rng.uniform(-PARAMS.theta_limit, PARAMS.theta_limit)
        if theta == 0.0:
            continue
        state = JointState(l1, l2, theta)
        pose = forward_kinematics(state)
        solved = ik_at_theta((pose.x, pose.y), pose.phi, PARAMS)
        assert solved is not None
        assert solved.theta == state.theta
        assert solved.l1 == pytest.approx(state.l1, abs=1e-9)
        assert solved.l2 == pytest.approx(state.l2, abs=1e-9)
        count += 1


def test_ik_enumerate_covers_reference_configs():
    states = ik_enumerate((0.076, 0.686), PARAMS, 481)
    assert len(states) == 481
    thetas = [s.theta for s in states]
    assert len(set(thetas)) == len(thetas)
    for state in states:
        pose = forward_kinematics(state)
        assert math.hypot(pose.x - 0.076, pose.y - 0.686) <= 1e-9
    for target_deg, l1_ref, l2_ref in ((7.1, 0.076, 0.615), (10.0, 0.254, 0.438),
                                       (16.7, 0.432, 0.265)):
        nearest = min(states, key=lambda s: abs(s.theta - math.radians(target_deg)))
        assert nearest.l1 == pytest.approx(l1_ref, abs=5e-3)
        assert nearest.l2 == pytest.approx(l2_ref, abs=5e-3)


def test_ik_enumerate_midline_and_unreachable():
    straight = ik_enumerate((0.0, 1.0), PARAMS, 7)
    assert len(straight) == 1
    assert straight[0].theta == 0.0
    assert ik_enumerate((0.0, 2.5), PARAMS, 5) == []
    with pytest.raises(ValueError):
        ik_enumerate((0.5, 1.0), PARAMS, 0)
    # below l1_min the straight split takes link 1's slack, leaving link 2
    # at zero length, not below it
    params = ManipulatorParams(l2_min=0.0005)
    (straight,) = ik_enumerate((0.0, params.l1_min - 0.0007), params, 7)
    assert straight.theta == 0.0 and straight.l1 == params.l1_min - 0.0007
    assert straight.l2 == 0.0


def test_ik_enumerate_starts_at_minimum_angle():
    interval = feasible_theta_interval((0.3, 1.0), PARAMS)
    states = ik_enumerate((0.3, 1.0), PARAMS, 5)
    assert states[0].theta == interval.lo
    states_left = ik_enumerate((-0.3, 1.0), PARAMS, 5)
    assert states_left[0].theta == -states[0].theta


def test_controls_between_examples():
    a = JointState(0.3, 0.5, 0.0)
    assert controls_between(a, a) == (0.0, 0.0)
    node_move = JointState(0.4, 0.4, 0.0)
    assert controls_between(a, node_move) == pytest.approx((0.0, 0.1))
    growth = JointState(0.45, 0.5, 0.0)
    assert controls_between(a, growth) == pytest.approx((0.15, 0.0))


def test_controls_between_is_exact_inverse():
    rng = np.random.default_rng(21)
    for _ in range(300):
        a = JointState(rng.uniform(0.1, 0.8), rng.uniform(0.1, 0.8), 0.0)
        b = JointState(rng.uniform(0.1, 0.8), rng.uniform(0.1, 0.8), 0.0)
        dq1, dq2 = controls_between(a, b)
        l1, l2 = link_lengths(ControlState(dq1, dq2, a.l1, a.l2))
        assert l1 == pytest.approx(b.l1, abs=1e-12)
        assert l2 == pytest.approx(b.l2, abs=1e-12)


def test_stationary_bend_rates():
    command = stationary_bend_rates(-0.05)
    assert command.q1_rate == -0.05
    assert command.q2_rate == 0.05
    assert command.cL_rate == command.cR_rate == -0.05
    zero = stationary_bend_rates(0.0)
    assert zero == RateCommand(0.0, 0.0, 0.0, 0.0)


def test_constant_theta_cable_rates():
    # holding the angle, both cables track the total-length rate q1', whatever
    # the node rate: a leg between equal-angle states gets exactly that law
    theta = math.radians(22.0)
    profile = plan_trajectory([JointState(0.3, 0.4, theta), JointState(0.45, 0.05, theta)],
                              PARAMS, SpeedLimits(q2=0.07))
    ((duration, command),) = profile.segments
    assert duration == pytest.approx(5.0, abs=1e-12)
    assert command.q1_rate == pytest.approx(-0.04, abs=1e-12)
    assert command.q2_rate == pytest.approx(0.07, abs=1e-12)
    assert command.cL_rate == pytest.approx(command.q1_rate, abs=1e-12)
    assert command.cR_rate == pytest.approx(command.q1_rate, abs=1e-12)


def test_plan_trajectory_single_waypoint_is_empty():
    profile = plan_trajectory([Pose(0.0, 0.6, 0.0)], PARAMS)
    assert profile.segments == ()
    same = Pose(0.0, 0.6, 0.0)
    assert plan_trajectory([same, same], PARAMS).segments == ()


def test_plan_trajectory_straight_extension():
    limits = SpeedLimits(q1=0.05, q2=0.05, cable=0.05)
    profile = plan_trajectory([Pose(0.0, 0.5, 0.0), Pose(0.0, 1.0, 0.0)], PARAMS, limits)
    assert len(profile.segments) == 1
    duration, _ = profile.segments[0]
    assert duration == pytest.approx(10.0, abs=1e-9)


def test_plan_trajectory_actuation_sequence_three_segments():
    # extend, then move the node, then bend: three pure phases
    stowed = JointState(PARAMS.l1_min, 0.004, 0.0)
    extended = JointState(PARAMS.l1_min + 0.6, 0.004, 0.0)
    node_set = JointState(PARAMS.l1_min + 0.3, 0.304, 0.0)
    bent = JointState(node_set.l1, node_set.l2, math.radians(30.0))
    profile = plan_trajectory([stowed, extended, node_set, bent], PARAMS)
    assert len(profile.segments) == 3
    extend_cmd = profile.segments[0][1]
    assert extend_cmd.q1_rate > 0 and extend_cmd.q2_rate == 0
    node_cmd = profile.segments[1][1]
    assert node_cmd.q1_rate == pytest.approx(0.0, abs=1e-15) and node_cmd.q2_rate < 0
    bend_cmd = profile.segments[2][1]
    assert bend_cmd.q1_rate == 0 and bend_cmd.q2_rate == 0
    assert bend_cmd.cL_rate > 0 > bend_cmd.cR_rate


def test_plan_trajectory_respects_limits():
    limits = SpeedLimits()
    waypoints = [Pose(0.0, 0.5, 0.0), Pose(0.3, 1.2, math.radians(40.0))]
    profile = plan_trajectory(waypoints, PARAMS, limits)
    for _, command in profile.segments:
        command.check_limits(limits)


def test_plan_trajectory_unreachable_waypoint():
    with pytest.raises(PlanningError, match="waypoint 1"):
        plan_trajectory([Pose(0.0, 0.5, 0.0), Pose(1.9, 0.1, math.radians(40.0))], PARAMS)


def test_plan_trajectory_refuses_a_joint_state_outside_the_bounds():
    inside = JointState(0.3, 0.4, 0.0)
    # every bound the waypoint breaks is named, as validate_state names it
    with pytest.raises(PlanningError, match=r"^waypoint 1 is outside the bounds: "
                       r"l1_min\[value=0\.05 limit=0\.076 margin=-0\.026\]; "
                       r"theta_limit\[value=1 limit=0\.959931089 margin=-0\.0401\]$"):
        plan_trajectory([inside, JointState(0.05, 0.4, 1.0)], PARAMS)
    # a waypoint on a bound, within BOUND_EPS, is inside it
    on_bounds = JointState(PARAMS.l1_min, PARAMS.max_total_length - PARAMS.l1_min,
                           -PARAMS.theta_limit)
    assert len(plan_trajectory([inside, on_bounds], PARAMS).segments) == 1


def test_plan_trajectory_replay_hits_waypoints():
    from tapearm.simulator import Scenario, run_scenario, initial_state

    waypoints = [Pose(0.0, 0.6, 0.0),
                 Pose(0.2, 0.9, math.radians(25.0)),
                 Pose(0.1, 1.1, math.radians(12.0)),
                 Pose(0.35, 0.8, math.radians(35.0))]
    states = [ik_at_theta((w.x, w.y), w.phi, PARAMS) for w in waypoints]
    profile = plan_trajectory(waypoints, PARAMS)
    start = initial_state(control_from_state(states[0]), states[0].theta, PARAMS)
    log = run_scenario(Scenario("replay", PARAMS, start, profile))
    for state, index in zip(states[1:], log.boundary_indices):
        row = log.rows[index]
        assert math.hypot(row.l1 - state.l1, row.l2 - state.l2) <= 1e-6
        assert abs(row.theta - state.theta) <= 1e-6


def test_leg_command_endpoint_exactness():
    # each leg's rates times its duration give the actuator increments and
    # the endpoint cable lengths, so the bend angle arrives exactly
    a = JointState(0.3, 0.5, math.radians(5.0))
    b = JointState(0.5, 0.4, math.radians(25.0))
    ((duration, command),) = plan_trajectory([a, b], PARAMS).segments
    dq1, dq2 = controls_between(a, b)
    assert command.q1_rate * duration == pytest.approx(dq1, rel=1e-12)
    assert command.q2_rate * duration == pytest.approx(dq2, rel=1e-12)
    cables_a = cable_lengths(a, PARAMS.cable_offset)
    cables_b = cable_lengths(b, PARAMS.cable_offset)
    assert command.cL_rate * duration == pytest.approx(cables_b.c_L - cables_a.c_L, rel=1e-12)
    assert command.cR_rate * duration == pytest.approx(cables_b.c_R - cables_a.c_R, rel=1e-12)


def test_plan_trajectory_tiny_leg_takes_one_step():
    # a leg far shorter than one step at the speed limits still gets one step
    a = JointState(0.3, 0.5, 0.0)
    b = JointState(math.nextafter(0.3, 1.0), 0.5, 0.0)
    ((duration, command),) = plan_trajectory([a, b], PARAMS, dt=0.01).segments
    assert duration == 0.01
    assert command.q1_rate * duration == pytest.approx(b.l1 - a.l1, rel=1e-12)


def test_control_profile_rejects_bad_durations():
    with pytest.raises(ValueError):
        ControlProfile(((0.0, RateCommand()),))
    with pytest.raises(ValueError):
        RateCommand(q1_rate=math.inf)


def test_control_from_state():
    state = JointState(0.25, 0.4, 0.1)
    control = control_from_state(state)
    assert link_lengths(control) == (0.25, 0.4)
