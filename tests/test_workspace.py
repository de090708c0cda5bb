import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tapearm import workspace
from tapearm.model import BOUND_EPS, DEFAULT_PARAMS, ManipulatorParams, forward_kinematics
from tapearm.workspace import (
    ANGLE_TOL,
    STRAIGHT_X_TOL,
    AngleInterval,
    compute_grid,
    feasibility_mask,
    feasible_theta_interval,
    grid_to_csv,
    ik_at_theta,
    min_end_effector_angle,
    reachable,
    sweep_feasible_intervals,
)

PARAMS = DEFAULT_PARAMS


def test_ik_at_theta_reference_config():
    state = ik_at_theta((0.076, 0.686), math.radians(10.0), PARAMS)
    assert state is not None
    assert state.l1 == pytest.approx(0.254, abs=5e-3)
    assert state.l2 == pytest.approx(0.438, abs=5e-3)
    pose = forward_kinematics(state)
    assert pose.x == pytest.approx(0.076, abs=1e-12)
    assert pose.y == pytest.approx(0.686, abs=1e-12)


def test_ik_at_theta_straight_split():
    state = ik_at_theta((0.0, 1.0), 0.0, PARAMS)
    assert state is not None
    assert state.l1 + state.l2 == pytest.approx(1.0, abs=1e-12)
    assert state.l1 == PARAMS.l1_min  # split maximizes l2

    assert ik_at_theta((0.3, 1.0), 0.0, PARAMS) is None  # off the midline


def test_ik_at_theta_infeasible_negative_l1():
    assert ik_at_theta((0.5, 0.1), math.radians(5.0), PARAMS) is None
    # the sweep oracle agrees that nothing works at that angle
    mask = feasibility_mask((0.5, 0.1), np.array([math.radians(5.0)]), PARAMS)
    assert not mask[0]


def test_feasible_interval_midline():
    intervals = feasible_theta_interval((0.0, 1.0), PARAMS)
    assert len(intervals) == 1
    assert intervals[0].contains(0.0)
    assert min_end_effector_angle((0.0, 1.0), PARAMS) == 0.0


def test_feasible_interval_midline_with_l2_floor():
    params = ManipulatorParams(l2_min=0.05)
    intervals = feasible_theta_interval((0.0, 1.0), params)
    assert intervals == [AngleInterval(0.0, 0.0)]


def test_feasible_interval_outside_sector_and_disk():
    angle = math.radians(60.0)
    point = (math.sin(angle), math.cos(angle))
    assert feasible_theta_interval(point, PARAMS) == []
    assert feasible_theta_interval((0.0, 2.5), PARAMS) == []
    assert not reachable((0.0, 2.5), PARAMS)


def test_reachable_examples():
    assert reachable((0.5, 1.0), PARAMS)
    angle = math.radians(56.0)
    assert not reachable((math.sin(angle), math.cos(angle)), PARAMS)
    assert not reachable((0.0, 2.1), PARAMS)


def test_interval_endpoints_match_sweep_oracle():
    rng = np.random.default_rng(5)
    step = math.radians(0.02)
    checked = 0
    for _ in range(60):
        point = (rng.uniform(-2.0, 2.0), rng.uniform(0.0, 2.0))
        closed = feasible_theta_interval(point, PARAMS)
        swept = sweep_feasible_intervals(point, PARAMS, step=step)
        assert len(closed) == len(swept)
        for c, s in zip(closed, swept):
            assert abs(c.lo - s.lo) <= step + 1e-12
            assert abs(c.hi - s.hi) <= step + 1e-12
        checked += len(closed)
    assert checked > 20  # the sample actually hit reachable points


@st.composite
def _params_and_points(draw):
    bound = st.one_of(st.just(0.0), st.floats(0.0, 0.5))
    params = ManipulatorParams(theta_limit=draw(st.floats(0.05, math.pi / 2)),
                               l1_min=draw(bound), l2_min=draw(bound),
                               max_total_length=draw(st.floats(0.05, 7.62)))
    # off the midline, where the closed form applies; x spans the length
    # budget or one of the minimum link lengths, so every bound gets active
    scales = [v for v in (params.max_total_length, params.l1_min, params.l2_min) if v > 0]
    coordinate = st.tuples(st.floats(-1.1, 1.1), st.sampled_from(scales),
                           st.floats(-0.1, 1.1))
    points = [(fx * scale, fy * params.max_total_length)
              for fx, scale, fy in draw(st.lists(coordinate, min_size=1, max_size=10))
              if abs(fx * scale) > STRAIGHT_X_TOL]
    return params, draw(st.sampled_from([0.0, 1e-3])), points


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_params_and_points())
def test_closed_form_interval_matches_sweep_oracle(case):
    params, length_tol, points = case
    step = math.radians(0.01)
    n = int(params.theta_limit / step + 1e-9)
    thetas = np.arange(-n, n + 1) * step  # the sweep's lattice
    for point in points:
        closed = feasible_theta_interval(point, params, length_tol)
        for c in closed:
            for theta in (c.lo, 0.5 * (c.lo + c.hi), c.hi):
                assert ik_at_theta(point, theta, params, length_tol) is not None
        in_closed = np.zeros(thetas.shape, dtype=bool)
        for c in closed:
            in_closed |= (thetas >= c.lo) & (thetas <= c.hi)
        in_sweep = np.zeros(thetas.shape, dtype=bool)
        for s in sweep_feasible_intervals(point, params, step, length_tol):
            in_sweep |= (thetas >= s.lo) & (thetas <= s.hi)
        # The closed form covers angles on x's side of the midline. Opposite
        # them link 2 has negative length, which the predicate admits only
        # within the length slack; those angles are left out here. On x's
        # side the two may disagree only where a bound holds to within its
        # slack: ANGLE_TOL on the hinge limit, BOUND_EPS on the lengths.
        same_side = thetas * point[0] > 0
        assert not np.any(in_closed & ~same_side)
        for theta in thetas[(in_closed != in_sweep) & same_side]:
            if abs(abs(theta) - params.theta_limit) <= ANGLE_TOL:
                continue
            assert ik_at_theta(point, theta, params, length_tol - 2 * BOUND_EPS) is None
            assert ik_at_theta(point, theta, params, length_tol + 2 * BOUND_EPS) is not None


def test_feasibility_mask_matches_scalar_predicate():
    rng = np.random.default_rng(9)
    thetas = np.concatenate([[0.0], rng.uniform(-1.0, 1.0, 200)])
    for _ in range(20):
        point = (rng.uniform(-1.5, 1.5), rng.uniform(0.0, 2.0))
        mask = feasibility_mask(point, thetas, PARAMS)
        scalar = np.array([ik_at_theta(point, float(t), PARAMS) is not None for t in thetas])
        assert np.array_equal(mask, scalar)


def test_min_angle_sign_and_mirror():
    rng = np.random.default_rng(17)
    for _ in range(100):
        x = rng.uniform(0.01, 1.9)
        y = rng.uniform(0.0, 1.9)
        right = min_end_effector_angle((x, y), PARAMS)
        left = min_end_effector_angle((-x, y), PARAMS)
        if right is None:
            assert left is None
            continue
        assert right > 0
        assert left == -right


def test_min_angle_below_bound_geometry():
    # every feasible angle is at least the point's polar angle from the y axis
    rng = np.random.default_rng(23)
    for _ in range(200):
        x = rng.uniform(0.01, 1.5)
        y = rng.uniform(0.1, 1.9)
        minimum = min_end_effector_angle((x, y), PARAMS)
        if minimum is None:
            continue
        assert abs(minimum) >= abs(math.atan2(x, y)) - 1e-9


def test_min_angle_attained():
    rng = np.random.default_rng(31)
    for _ in range(200):
        point = (rng.uniform(-1.8, 1.8), rng.uniform(0.0, 1.9))
        minimum = min_end_effector_angle(point, PARAMS)
        if minimum is None:
            continue
        assert ik_at_theta(point, minimum, PARAMS) is not None


def test_monotone_nesting():
    xs = np.linspace(-1.9, 1.9, 21)
    ys = np.linspace(0.0, 1.9, 11)
    bigger_reach = ManipulatorParams(max_total_length=3.0)
    wider_hinge = ManipulatorParams(theta_limit=math.radians(80.0))
    for y in ys:
        for x in xs:
            if reachable((x, y), PARAMS):
                assert reachable((x, y), bigger_reach)
                assert reachable((x, y), wider_hinge)


def test_compute_grid_mirror_symmetry():
    grid = compute_grid(PARAMS, (-1.0, 1.0, 0.0, 1.0), 0.1)
    assert grid.nx == 20 and grid.ny == 10
    flipped_reach = grid.reachable[:, ::-1]
    assert np.array_equal(grid.reachable, flipped_reach)
    mirrored = -grid.min_angle[:, ::-1]
    both = grid.reachable & flipped_reach
    assert np.array_equal(grid.min_angle[both], mirrored[both])


def test_compute_grid_determinism_and_edge_cases():
    grid_a = compute_grid(PARAMS, (-0.5, 0.5, 0.0, 0.5), 0.1)
    grid_b = compute_grid(PARAMS, (-0.5, 0.5, 0.0, 0.5), 0.1)
    assert np.array_equal(grid_a.min_angle, grid_b.min_angle, equal_nan=True)
    assert np.array_equal(grid_a.reachable, grid_b.reachable)

    empty = compute_grid(PARAMS, (0.0, 0.0, 0.0, 1.0), 0.1)
    assert empty.reachable.size == 0

    with pytest.raises(ValueError):
        compute_grid(PARAMS, (-1.0, 1.0, 0.0, 1.0), 0.0)
    with pytest.raises(ValueError):
        compute_grid(PARAMS, (1.0, -1.0, 0.0, 1.0), 0.1)


def test_compute_grid_cell_limit(monkeypatch):
    monkeypatch.setattr(workspace, "MAX_GRID_CELLS", 12)
    assert compute_grid(PARAMS, (0.0, 0.4, 0.0, 0.3), 0.1).reachable.shape == (3, 4)
    assert compute_grid(PARAMS, (0.0, 0.0, 0.0, 1.2), 0.1).ys.size == 12
    for bounds in ((0.0, 0.5, 0.0, 0.3), (0.0, 0.0, 0.0, 1.3), (0.0, 1.0, 0.0, 1.0)):
        with pytest.raises(ValueError, match="cell limit"):
            compute_grid(PARAMS, bounds, 0.1)
    with pytest.raises(ValueError, match="cell limit"):
        compute_grid(PARAMS, (0.0, 1.0, 0.0, 1.0), 5e-324)  # counts overflow to inf
    for bounds, resolution in (((0.0, math.inf, 0.0, 1.0), 0.1),
                               ((math.nan, 1.0, 0.0, 1.0), 0.1),
                               ((0.0, 1.0, 0.0, 1.0), math.inf)):
        with pytest.raises(ValueError, match="finite"):
            compute_grid(PARAMS, bounds, resolution)


def test_grid_sector_and_disk_shape():
    grid = compute_grid(PARAMS, (-2.0, 2.0, 0.0, 2.0), 0.1)
    for iy in range(grid.ny):
        for ix in range(grid.nx):
            if not grid.reachable[iy, ix]:
                continue
            x, y = float(grid.xs[ix]), float(grid.ys[iy])
            assert abs(math.atan2(x, y)) <= PARAMS.theta_limit + 1e-6
            assert math.hypot(x, y) <= PARAMS.max_total_length + 2e-3


def test_grid_csv(tmp_path):
    grid = compute_grid(PARAMS, (-0.4, 0.4, 0.0, 0.4), 0.2)
    path = tmp_path / "grid.csv"
    grid_to_csv(grid, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x_m,y_m,reachable,min_angle_rad"
    assert len(lines) == 1 + grid.nx * grid.ny
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 4
        if fields[2] == "0":
            assert fields[3] == ""
        else:
            float(fields[3])
