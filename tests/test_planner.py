import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tapearm.model import (
    DEFAULT_PARAMS,
    ControlState,
    JointState,
    ManipulatorParams,
    Pose,
    cable_lengths,
    forward_kinematics,
    link_lengths,
    within_bounds,
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
from tapearm.simulator import Scenario, initial_state, run_scenario
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
    # and so is a pose, though ik_at_theta reaches this one within its slack
    with pytest.raises(PlanningError, match=r"^waypoint 1 is outside the bounds: "
                       r"l1_min\[value=0\.0755 limit=0\.076 margin=-0\.0005\]$"):
        plan_trajectory([inside, Pose(0.0, 0.0755, 0.0)], PARAMS)


def test_plan_trajectory_replay_hits_waypoints():
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


@st.composite
def _demonstrations(draw):
    """Valid parameters and 2-4 waypoints: joint states inside their bounds,
    and the poses of such states. A length or an angle lies on its bound
    about half the time. The bounds admit states too short for their bend,
    l1 + l2 <= 2 d |sin(theta / 2)|, whose shorter cable would have no
    positive length; none is drawn."""
    def within(lo, hi):
        hi = max(lo, hi)  # max_total_length - l1 may round below l2_min
        return draw(st.sampled_from([lo, hi]) | st.floats(lo, hi))

    l1_min, l2_min = draw(st.floats(0.0, 0.5)), draw(st.floats(0.0, 0.3))
    params = ManipulatorParams(cable_offset=draw(st.floats(0.001, 0.05)),
                               theta_limit=draw(st.floats(0.01, math.pi / 2)),
                               l1_min=l1_min, l2_min=l2_min,
                               max_total_length=draw(st.floats(l1_min + l2_min + 0.01, 2.0)))
    waypoints = []
    for _ in range(draw(st.integers(2, 4))):
        l1 = within(params.l1_min, params.max_total_length - params.l2_min)
        l2 = within(params.l2_min, params.max_total_length - l1)
        state = JointState(l1, l2, within(-params.theta_limit, params.theta_limit))
        assume(l1 + l2 > 2.0 * params.cable_offset * abs(math.sin(0.5 * state.theta)))
        waypoints.append(draw(st.sampled_from([state, forward_kinematics(state)])))
    return params, waypoints


def _midline_pose():
    # within STRAIGHT_X_TOL of the midline: ik_at_theta gives l2 = 0, which
    # only its slack admits under l2_min = 1e-9
    params = ManipulatorParams(cable_offset=0.03125, theta_limit=1.0, l1_min=0.5, l2_min=1e-9,
                               max_total_length=1.0)
    state = JointState(0.5, 1e-9, -1.0)
    return params, [state, forward_kinematics(state)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_demonstrations())
@example(_midline_pose())
def test_planned_runs_end_at_the_last_waypoint_inside_the_bounds(demonstration):
    # a pose is solved as plan_trajectory solves it, and refused where
    # ik_at_theta does not reach it inside the bounds
    params, waypoints = demonstration
    states = [waypoint if isinstance(waypoint, JointState)
              else ik_at_theta((waypoint.x, waypoint.y), waypoint.phi, params)
              for waypoint in waypoints]
    if not all(state is not None and within_bounds(state.l1, state.l2, state.theta, params)
               for state in states):
        with pytest.raises(PlanningError, match=r"^waypoint \d+ (at .* is unreachable"
                                                r"|is outside the bounds: )"):
            plan_trajectory(waypoints, params)
        return
    profile = plan_trajectory(waypoints, params)
    start = initial_state(control_from_state(states[0]), states[0].theta, params)
    log = run_scenario(Scenario("demonstration", params, start, profile))
    assert log.abort is None
    assert not log.rows.outside.any(), log.rows.violations
    end, final = states[-1], log.final
    assert max(abs(final.l1 - end.l1), abs(final.l2 - end.l2), abs(final.theta - end.theta)) <= 1e-9
    if isinstance(waypoints[-1], Pose):
        assert math.hypot(final.x - waypoints[-1].x, final.y - waypoints[-1].y) <= 1e-9


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_demonstrations(), st.tuples(*[st.sampled_from([0.01, 0.1, 10.0]) | st.floats(0.01, 10.0)
                                      for _ in range(3)]),
       st.sampled_from([1e-3, 0.01, 0.3, 1.0]) | st.floats(1e-3, 1.0))
@example((PARAMS, [Pose(0.0, 0.5, 0.0), Pose(0.3, 1.2, math.radians(40.0))]), (0.1,) * 3, 0.01)
def test_plan_trajectory_respects_limits(demonstration, caps, dt):
    # every rate is within its cap, but for rounding, and every leg a whole
    # number of dt steps, at least one, that a Scenario accepts
    params, waypoints = demonstration
    limits = SpeedLimits(*caps)
    try:
        profile = plan_trajectory(waypoints, params, limits, dt)
    except PlanningError as exc:  # a pose not reached inside the bounds
        assert re.match(r"waypoint \d+ (at .* is unreachable|is outside the bounds: )", str(exc))
        return
    for duration, command in profile.segments:
        assert abs(command.q1_rate) <= limits.q1 * (1.0 + 1e-9)
        assert abs(command.q2_rate) <= limits.q2 * (1.0 + 1e-9)
        assert max(abs(command.cL_rate), abs(command.cR_rate)) <= limits.cable * (1.0 + 1e-9)
        steps = duration / dt
        assert round(steps) >= 1 and abs(steps - round(steps)) <= 1e-9 * steps
    state = waypoints[0] if isinstance(waypoints[0], JointState) else ik_at_theta(
        (waypoints[0].x, waypoints[0].y), waypoints[0].phi, params)
    Scenario("limits", params, initial_state(control_from_state(state), state.theta, params),
             profile, dt)


@pytest.mark.parametrize("caps", [(math.inf, 0.1, 0.1), (0.1, math.inf, 0.1),
                                  (0.1, 0.1, math.inf), (math.nan, 0.1, 0.1), (0.0, 0.1, 0.1),
                                  (0.1, -0.1, 0.1)])
def test_speed_limits_refuse_caps_that_are_not_positive_and_finite(caps):
    # an infinite cap would make a leg's slowest duration 0 s, and the leg vanish
    with pytest.raises(ValueError, match=r"^SpeedLimits\.\w+ must be positive and finite"):
        SpeedLimits(*caps)


@pytest.mark.parametrize("dt", [0.0, -0.01, math.nan, math.inf, 1e-320, 5e-324])
def test_plan_trajectory_refuses_a_dt_that_is_not_positive_finite_and_normal(dt):
    # a subnormal dt counts steps too coarsely to keep the rates within their caps
    with pytest.raises(PlanningError, match="^dt must be positive, finite and normal"):
        plan_trajectory([JointState(0.3, 0.4, 0.0), JointState(0.5, 0.4, 0.0)], PARAMS, dt=dt)


def test_plan_trajectory_refuses_a_leg_with_too_many_steps_to_count():
    # 2e309 steps of 1e-10 s at a 1e-300 m/s cap: more than a float holds
    legs = [JointState(0.3, 0.4, 0.0), JointState(0.5, 0.4, 0.0)]
    with pytest.raises(PlanningError, match="^the leg to waypoint 1 takes more dt=1e-10 s"):
        plan_trajectory(legs, PARAMS, SpeedLimits(q1=1e-300), dt=1e-10)
    # and so does a subnormal cap, whose slowest duration overflows
    with pytest.raises(PlanningError, match="^the leg to waypoint 1 takes more dt=0.01 s"):
        plan_trajectory(legs, PARAMS, SpeedLimits(q1=5e-324))


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
