import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tapearm.model import (
    BOUND_EPS,
    DEFAULT_PARAMS,
    DEFAULT_TAPE,
    CablePair,
    CableRangeError,
    ConstraintViolationError,
    ControlState,
    JointState,
    ManipulatorParams,
    Pose,
    TapeProperties,
    Violation,
    cable_lengths,
    extension_ratio,
    forward_kinematics,
    link_lengths,
    mass_budget,
    theta_from_cables,
    validate_state,
    within_bounds,
)
from tapearm.workspace import ANGLE_TOL, LENGTH_TOL


def test_forward_kinematics_reference_configs():
    pose = forward_kinematics(JointState(0.432, 0.265, math.radians(16.7)))
    assert pose.x == pytest.approx(0.0762, abs=2e-3)
    assert pose.y == pytest.approx(0.6858, abs=2e-3)
    assert pose.phi == math.radians(16.7)

    pose = forward_kinematics(JointState(0.254, 0.438, math.radians(10.0)))
    assert pose.x == pytest.approx(0.0760, abs=2e-3)
    assert pose.y == pytest.approx(0.6854, abs=2e-3)


def test_forward_kinematics_straight_arm():
    pose = forward_kinematics(JointState(0.3, 0.45, 0.0))
    assert pose.x == 0.0
    assert pose.y == 0.75
    assert pose.phi == 0.0


def test_forward_kinematics_rejects_invalid_states():
    with pytest.raises(ConstraintViolationError) as excinfo:
        forward_kinematics(JointState(0.5, 0.5, math.radians(80.0)), DEFAULT_PARAMS)
    assert [v.bound for v in excinfo.value.violations] == ["theta_limit"]

    with pytest.raises(ConstraintViolationError) as excinfo:
        forward_kinematics(JointState(0.05, 3.0, math.radians(80.0)), DEFAULT_PARAMS)
    bounds = [v.bound for v in excinfo.value.violations]
    assert set(bounds) == {"l1_min", "max_total_length", "theta_limit"}


def test_link_lengths_examples():
    assert link_lengths(ControlState(0.0, 0.0, 0.1, 0.5)) == (0.1, 0.5)
    grown = link_lengths(ControlState(0.2, 0.0, 0.1, 0.5))
    assert grown == pytest.approx((0.3, 0.5), abs=1e-15)
    assert grown[1] == 0.5  # growth leaves link 2 untouched
    l1, l2 = link_lengths(ControlState(0.0, 0.15, 0.1, 0.5))
    assert (l1, l2) == pytest.approx((0.25, 0.35))
    assert l1 + l2 == pytest.approx(0.6, abs=1e-12)


def test_link_lengths_total_length_conservation():
    rng = np.random.default_rng(42)
    for _ in range(500):
        q1, q2, l1_0, l2_0 = rng.uniform(-0.5, 0.5, size=4)
        l1, l2 = link_lengths(ControlState(q1, q2, l1_0, l2_0))
        assert l1 + l2 == pytest.approx(q1 + l1_0 + l2_0, abs=1e-12)


def fk_from_controls(control, theta):
    """Pose directly from actuator coordinates as one combined linear map.

    Algebraically identical to forward_kinematics composed with link_lengths
    at the same angle, but an independent expression, so the two routes
    cross-check each other.
    """
    s, c = math.sin(theta), math.cos(theta)
    return Pose(x=-s * control.q2 + s * control.l2_0,
                y=control.q1 + (1.0 - c) * control.q2 + control.l1_0 + c * control.l2_0,
                phi=theta)


def test_fk_from_controls_matches_composition():
    rng = np.random.default_rng(0)
    n = 100_000
    thetas = rng.uniform(-DEFAULT_PARAMS.theta_limit, DEFAULT_PARAMS.theta_limit, n)
    l1s = rng.uniform(DEFAULT_PARAMS.l1_min, 1.0, n)
    l2s = rng.uniform(0.0, 1.0, n)
    q1s = rng.uniform(-0.2, 0.2, n)
    q2s = rng.uniform(-0.2, 0.2, n)
    worst = 0.0
    for theta, l1, l2, q1, q2 in zip(thetas, l1s, l2s, q1s, q2s):
        control = ControlState(q1, q2, l1 - q1 - q2, l2 + q2)
        direct = fk_from_controls(control, theta)
        composed = forward_kinematics(JointState(*link_lengths(control), theta))
        worst = max(worst, abs(direct.x - composed.x), abs(direct.y - composed.y))
    assert worst <= 1e-12


def test_fk_from_controls_zero_control_reduces_to_plain_fk():
    control = ControlState(0.0, 0.0, 0.3, 0.4)
    theta = math.radians(25.0)
    direct = fk_from_controls(control, theta)
    plain = forward_kinematics(JointState(0.3, 0.4, theta))
    assert direct == plain


def test_fk_from_controls_straight_growth():
    pose = fk_from_controls(ControlState(0.1, 0.0, 0.1, 0.3), 0.0)
    assert (pose.x, pose.y) == (0.0, 0.5)


def test_cable_lengths_straight_and_bent():
    straight = cable_lengths(JointState(0.4, 0.3, 0.0), 0.015)
    assert straight.c_L == straight.c_R == 0.7

    pair = cable_lengths(JointState(0.5, 0.5, math.radians(30.0)), 0.02)
    assert pair.c_L == pytest.approx(1.010353, abs=1e-6)
    assert pair.c_R == pytest.approx(0.989647, abs=1e-6)


def test_cable_sum_is_twice_total_length():
    rng = np.random.default_rng(3)
    for _ in range(200):
        state = JointState(rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0),
                           rng.uniform(-math.pi, math.pi))
        pair = cable_lengths(state, 0.015)
        assert pair.c_L + pair.c_R == pytest.approx(2 * (state.l1 + state.l2), abs=1e-12)


def test_mirror_symmetry_swaps_cables_and_negates_x():
    state = JointState(0.4, 0.5, math.radians(35.0))
    mirrored = JointState(0.4, 0.5, -math.radians(35.0))
    pair = cable_lengths(state, 0.015)
    pair_mirrored = cable_lengths(mirrored, 0.015)
    assert pair.c_L == pair_mirrored.c_R
    assert pair.c_R == pair_mirrored.c_L
    pose = forward_kinematics(state)
    pose_mirrored = forward_kinematics(mirrored)
    assert pose.x == -pose_mirrored.x
    assert pose.y == pose_mirrored.y


def test_theta_from_cables_roundtrip():
    for d in (0.01, 0.015, 0.02):
        for deg in np.linspace(-55.0, 55.0, 45):
            state = JointState(0.5, 0.4, math.radians(deg))
            theta = theta_from_cables(cable_lengths(state, d), d)
            assert theta == pytest.approx(state.theta, abs=1e-9)


def test_theta_from_cables_edge_cases():
    assert theta_from_cables(CablePair(0.8, 0.8), 0.015) == 0.0
    d = 0.02
    assert theta_from_cables(CablePair(1.0 + 2 * d, 1.0 - 2 * d), d) == pytest.approx(math.pi)
    with pytest.raises(CableRangeError):
        theta_from_cables(CablePair(1.1, 0.9), d)


def test_validate_state_reports_margins():
    assert validate_state(JointState(0.5, 0.5, 0.0), DEFAULT_PARAMS) == []

    violations = validate_state(JointState(0.5, 0.5, math.radians(60.0)), DEFAULT_PARAMS)
    assert [v.bound for v in violations] == ["theta_limit"]
    assert violations[0].margin == pytest.approx(math.radians(-5.0))

    violations = validate_state(JointState(0.05, 0.5, 0.0), DEFAULT_PARAMS)
    assert [v.bound for v in violations] == ["l1_min"]
    assert violations[0].margin == pytest.approx(-0.026)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(["l1_min", "theta_limit"]), st.floats(), st.floats(), st.floats())
@example("l1_min", -0.0, 0.0, math.nan)
@example("max_total_length", math.inf, 2.0, -math.inf)
def test_violation_text_is_its_fields_in_g_format(bound, value, limit, margin):
    assert str(Violation(bound, value, limit, margin)) == (
        f"{bound}[value={value:.9g} limit={limit:.9g} margin={margin:.3g}]")


def _feasible_reference(l1, l2, theta, params, length_tol, angle_tol):
    """The bound test workspace used before within_bounds, hinge slack as an argument."""
    return (math.isfinite(l1) and math.isfinite(l2)
            and l1 >= params.l1_min - length_tol - BOUND_EPS and l1 >= -BOUND_EPS
            and l2 >= params.l2_min - length_tol - BOUND_EPS and l2 >= -BOUND_EPS
            and l1 + l2 <= params.max_total_length + length_tol + BOUND_EPS
            and abs(theta) <= params.theta_limit + angle_tol)


def _near(values):
    """One of ``values``, or a float one ulp either side of it."""
    return st.sampled_from(values).flatmap(lambda v: st.sampled_from(
        [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]))


@st.composite
def _bounds_cases(draw):
    bound = st.one_of(st.just(0.0), st.floats(0.0, 0.5))
    params = ManipulatorParams(theta_limit=draw(st.floats(0.05, math.pi / 2)),
                               l1_min=draw(bound), l2_min=draw(bound),
                               max_total_length=draw(st.floats(0.05, 7.62)))
    length_tol = draw(st.sampled_from([0.0, LENGTH_TOL]))
    angle_tol = draw(st.sampled_from([BOUND_EPS, ANGLE_TOL]))
    special = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0])
    floors = [params.l1_min, params.l2_min, params.l1_min - length_tol - BOUND_EPS,
              params.l2_min - length_tol - BOUND_EPS, -BOUND_EPS]
    length = st.one_of(special, _near(floors), st.floats(-0.1, 8.0), st.floats())
    # half the lengths lie inside their bounds, so that the other bounds decide
    half_room = max(0.0, params.max_total_length - params.l1_min - params.l2_min) / 2
    l1 = draw(st.floats(params.l1_min, params.l1_min + half_room)
              if draw(st.booleans()) else length)
    # l2 also where the total sits at the length budget
    total_cap = params.max_total_length + length_tol + BOUND_EPS
    l2 = draw(st.floats(params.l2_min, params.l2_min + half_room) if draw(st.booleans())
              else st.one_of(length, _near([total_cap - l1, params.max_total_length - l1])))
    limit = params.theta_limit
    theta = draw(_near([limit, -limit, limit + angle_tol, -(limit + angle_tol)])
                 if draw(st.booleans()) else st.one_of(special, st.floats(-2.0, 2.0), st.floats()))
    return params, length_tol, angle_tol, l1, l2, theta


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_bounds_cases())
def test_within_bounds_matches_reference_on_floats_and_arrays(case):
    params, length_tol, angle_tol, l1, l2, theta = case
    expected = _feasible_reference(l1, l2, theta, params, length_tol, angle_tol)
    scalar = within_bounds(l1, l2, theta, params, length_tol, angle_tol)
    assert type(scalar) is bool and scalar == expected
    with np.errstate(invalid="ignore"):  # inf + -inf
        mask = within_bounds(np.array([l1]), np.array([l2]), np.array([theta]), params,
                             length_tol, angle_tol)
    assert mask.dtype == bool and mask.tolist() == [expected]
    if length_tol == 0.0 and angle_tol == BOUND_EPS and all(map(math.isfinite, (l1, l2, theta))):
        assert expected == (validate_state(JointState(l1, l2, theta), params) == [])


def test_mass_budget_reference_values():
    budget = mass_budget(DEFAULT_PARAMS, 3.0)
    assert budget.per_tape == pytest.approx(0.076, abs=1e-3)
    assert budget.node == 0.163
    assert budget.base == 0.372

    empty = mass_budget(DEFAULT_PARAMS, 0.0)
    assert empty.total == DEFAULT_PARAMS.base_mass + DEFAULT_PARAMS.node_mass

    with pytest.raises(ValueError):
        mass_budget(DEFAULT_PARAMS, -0.1)
    with pytest.raises(ValueError):
        mass_budget(DEFAULT_PARAMS, 8.0)


def test_extension_ratio():
    assert extension_ratio(DEFAULT_PARAMS, 0.35) == pytest.approx(21.77, abs=0.01)
    assert extension_ratio(DEFAULT_PARAMS, DEFAULT_TAPE.total_tape_length) == 1.0
    assert extension_ratio(DEFAULT_PARAMS) > 20.0
    with pytest.raises(ValueError):
        extension_ratio(DEFAULT_PARAMS, 0.0)


def test_type_invariants():
    with pytest.raises(ValueError):
        TapeProperties(200e9, 0.02, 0.014, 1.75, 0.0253, 7.62)  # t >= R0
    with pytest.raises(ValueError):
        TapeProperties(-1.0, 2e-4, 0.014, 1.75, 0.0253, 7.62)
    with pytest.raises(ValueError):
        ManipulatorParams(theta_limit=2.0)
    with pytest.raises(ValueError):
        ManipulatorParams(max_total_length=10.0)  # beyond the tape
    with pytest.raises(ValueError):
        CablePair(0.0, 0.5)
    with pytest.raises(ValueError):
        JointState(math.nan, 0.5, 0.0)


def test_params_refuse_a_cable_offset_too_small_to_resolve_theta():
    # at 1e-15 m, reach-two-targets missed both of its targets by millimeters
    with pytest.raises(ValueError, match="^cable_offset 1e-15 m is below 1e-06 "
                                         r"\* max_total_length: too short"):
        ManipulatorParams(cable_offset=1e-15)
    with pytest.raises(ValueError, match="^cable_offset 9.99e-07 m is below"):
        ManipulatorParams(cable_offset=9.99e-7, max_total_length=1.0)


def test_params_accept_a_cable_offset_at_the_bound():
    # tests/test_cli.py's demo-cable-offset-at-the-bound runs a demo there
    for total in (2.0, 0.5, 7.62):
        ManipulatorParams(cable_offset=1e-6 * total, max_total_length=total)


@pytest.mark.parametrize("field", ["l1_min", "l2_min", "base_mass", "node_mass"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_params_reject_non_finite_bounds_and_masses(field, value):
    # a NaN bound compares false both ways and so would silently disable it
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ManipulatorParams(**{field: value})
