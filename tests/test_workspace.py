import io
import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tapearm import workspace
from tapearm.csvtext import BLOCK_FLOATS
from tapearm.model import (
    BOUND_EPS,
    DEFAULT_PARAMS,
    JointState,
    ManipulatorParams,
    forward_kinematics,
    within_bounds,
)
from tapearm.workspace import (
    ANGLE_TOL,
    LENGTH_TOL,
    STRAIGHT_X_TOL,
    GRID_CSV_HEADER,
    AngleInterval,
    WorkspaceGrid,
    compute_grid,
    feasibility_mask,
    feasible_theta_interval,
    grid_to_csv,
    ik_at_theta,
    min_end_effector_angle,
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
    interval = feasible_theta_interval((0.0, 1.0), PARAMS)
    assert interval == AngleInterval(-PARAMS.theta_limit, PARAMS.theta_limit)
    assert min_end_effector_angle((0.0, 1.0), PARAMS) == 0.0


def test_feasible_interval_midline_with_l2_floor():
    params = ManipulatorParams(l2_min=0.05)
    assert feasible_theta_interval((0.0, 1.0), params) == AngleInterval(0.0, 0.0)


def test_feasible_interval_midline_with_zero_length_link2():
    # l2_min within the slack and the node below l1_min: link 1 gives up
    # length within its slack, so the straight split has a zero-length link 2,
    # and so has every bent angle.
    params = ManipulatorParams(l2_min=0.0005)
    point = (0.0, params.l1_min - 0.0007)
    assert ik_at_theta(point, 0.0, params) == JointState(point[1], 0.0, 0.0)
    assert ik_at_theta(point, params.theta_limit, params) is not None
    assert feasible_theta_interval(point, params) == AngleInterval(
        -params.theta_limit, params.theta_limit)
    assert min_end_effector_angle(point, params) == 0.0
    swept = sweep_feasible_intervals(point, params, step=math.radians(1.0))
    assert [(s.lo, s.hi) for s in swept] == [(-math.radians(55.0), math.radians(55.0))]
    # within STRAIGHT_X_TOL of the midline counts as on it, at every angle
    for x in (1e-10, -1e-10):
        assert feasible_theta_interval((x, point[1]), params) == feasible_theta_interval(
            point, params)
        assert ik_at_theta((x, point[1]), -0.5, params) == JointState(point[1], 0.0, -0.5)
    # below the slack on l1_min nothing is left
    assert feasible_theta_interval((0.0, params.l1_min - 0.0011), params) is None


def test_feasible_interval_outside_sector_and_disk():
    angle = math.radians(60.0)
    point = (math.sin(angle), math.cos(angle))
    assert feasible_theta_interval(point, PARAMS) is None
    assert feasible_theta_interval((0.0, 2.5), PARAMS) is None


def test_reachable_examples():
    assert feasible_theta_interval((0.5, 1.0), PARAMS) is not None
    angle = math.radians(56.0)
    assert feasible_theta_interval((math.sin(angle), math.cos(angle)), PARAMS) is None
    assert feasible_theta_interval((0.0, 2.1), PARAMS) is None


@pytest.mark.parametrize("point", [(math.nan, 1.0), (0.3, math.nan), (0.0, math.nan),
                                   (math.nan, math.nan), (math.inf, 1.0), (-math.inf, 1.0),
                                   (0.3, math.inf), (0.3, -math.inf), (0.0, math.inf)])
def test_non_finite_coordinates_are_unreachable(point):
    assert feasible_theta_interval(point, PARAMS) is None
    assert min_end_effector_angle(point, PARAMS) is None
    assert not feasibility_mask(point, [0.0, 0.3, -0.3], PARAMS).any()


def test_interval_endpoints_match_sweep_oracle():
    rng = np.random.default_rng(5)
    step = math.radians(0.02)
    checked = 0
    for _ in range(60):
        point = (rng.uniform(-2.0, 2.0), rng.uniform(0.0, 2.0))
        closed = feasible_theta_interval(point, PARAMS)
        swept = sweep_feasible_intervals(point, PARAMS, step=step)
        assert len(swept) == (closed is not None)
        if closed is not None:
            (s,) = swept
            assert abs(closed.lo - s.lo) <= step + 1e-12
            assert abs(closed.hi - s.hi) <= step + 1e-12
            checked += 1
    assert checked > 20  # the sample actually hit reachable points


@st.composite
def _params_and_points(draw):
    # minimum lengths within the length slack let a link shrink to zero length
    bound = st.one_of(st.just(0.0), st.floats(0.0, LENGTH_TOL, exclude_min=True),
                      st.floats(0.0, 0.5))
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
    # on and just off the midline, with heights also near the ends of the
    # straight split's range
    edge = st.floats(-2 * LENGTH_TOL, 2 * LENGTH_TOL)
    height = st.one_of(
        st.floats(-0.1, 1.1).map(lambda f: f * params.max_total_length),
        edge.map(lambda d: params.l1_min + d),
        edge.map(lambda d: params.l1_min + params.l2_min + d),
        edge.map(lambda d: params.max_total_length + d))
    offset = st.one_of(st.just(0.0), st.floats(-STRAIGHT_X_TOL, STRAIGHT_X_TOL))
    points += draw(st.lists(st.tuples(offset, height), max_size=4))
    return params, points


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_params_and_points())
# within STRAIGHT_X_TOL of the midline with l2_min at the slack: the far
# side holds because the point counts as on the midline, where link 2 has
# zero length at every bent angle, not a negative one
@example((ManipulatorParams(l2_min=0.001), [(1e-10, 1.0), (-1e-10, 1.0)]))
# lo rounds one ulp above the lattice angle 0.1749 rad, which the sweep
# accepts, so the two disagree there and the tightness assertions run
@example((ManipulatorParams(), [(0.0521975789509446, 0.3704241235100138)]))
def test_closed_form_interval_matches_sweep_oracle(case):
    params, points = case
    step = math.radians(0.01)
    n = int(params.theta_limit / step + 1e-9)
    thetas = np.arange(-n, n + 1) * step  # the sweep's lattice
    for point in points:
        closed = feasible_theta_interval(point, params)
        in_closed = np.zeros(thetas.shape, dtype=bool)
        if closed is not None:
            for theta in (closed.lo, 0.5 * (closed.lo + closed.hi), closed.hi):
                assert ik_at_theta(point, theta, params) is not None
            in_closed = (thetas >= closed.lo) & (thetas <= closed.hi)
        in_sweep = np.zeros(thetas.shape, dtype=bool)
        for s in sweep_feasible_intervals(point, params, step):
            in_sweep |= (thetas >= s.lo) & (thetas <= s.hi)
        # The two may disagree only where a bound holds to within its slack:
        # ANGLE_TOL on the hinge limit, BOUND_EPS on the lengths. They agree at
        # theta = 0, so these are the lengths ik_at_theta tests at a bent angle.
        x = point[0] if abs(point[0]) > STRAIGHT_X_TOL else 0.0
        for theta in thetas[in_closed != in_sweep].tolist():
            if abs(abs(theta) - params.theta_limit) <= ANGLE_TOL:
                continue
            lengths = (point[1] - x / math.tan(theta), x / math.sin(theta))
            assert not within_bounds(*lengths, theta, params, LENGTH_TOL - 2 * BOUND_EPS,
                                     ANGLE_TOL)
            assert within_bounds(*lengths, theta, params, LENGTH_TOL + 2 * BOUND_EPS,
                                 ANGLE_TOL)


def test_feasibility_mask_matches_scalar_predicate():
    rng = np.random.default_rng(9)
    thetas = np.concatenate([[0.0], rng.uniform(-1.0, 1.0, 200)])
    for params in (PARAMS, ManipulatorParams(l1_min=0.0, l2_min=0.0005)):
        points = [(rng.uniform(-1.5, 1.5), rng.uniform(0.0, 2.0)) for _ in range(20)]
        # off the midline by less than the length slack, which must not let
        # link 2 go negative on the far side of the midline
        points += [(1e-4, 0.5), (-1e-4, 0.5), (1e-4, 1e-4)]
        for point in points:
            mask = feasibility_mask(point, thetas, params)
            scalar = np.array([ik_at_theta(point, float(t), params) is not None
                               for t in thetas])
            assert np.array_equal(mask, scalar)
            assert not np.any(mask & (thetas * point[0] < 0))


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
            if feasible_theta_interval((x, y), PARAMS) is not None:
                assert feasible_theta_interval((x, y), bigger_reach) is not None
                assert feasible_theta_interval((x, y), wider_hinge) is not None


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


@st.composite
def _grid_cases(draw):
    bound = st.one_of(st.just(0.0), st.floats(0.0, LENGTH_TOL), st.floats(0.0, 0.5))
    # l2_min also just past the length slack, so the asin bound is active
    l2_bound = st.one_of(bound, st.floats(LENGTH_TOL, 0.05))
    params = ManipulatorParams(theta_limit=draw(st.floats(0.05, math.pi / 2)),
                               l1_min=draw(bound), l2_min=draw(l2_bound),
                               max_total_length=draw(st.floats(0.05, 7.62)))
    scale = params.max_total_length
    nx, ny = draw(st.integers(1, 25)), draw(st.integers(1, 25))
    resolution = draw(st.floats(0.01, 0.3)) * scale
    # centred on the midline (odd nx puts a column at x = 0), within
    # STRAIGHT_X_TOL of it, or anywhere
    cx = draw(st.one_of(st.just(0.0), st.floats(-STRAIGHT_X_TOL, STRAIGHT_X_TOL),
                        st.floats(-1.0, 1.0).map(lambda f: f * scale)))
    y0 = draw(st.floats(-0.2, 1.0)) * scale
    half = 0.5 * nx * resolution
    bounds = (cx - half, cx + half, y0, y0 + ny * resolution)
    block = draw(st.sampled_from([1, 7, 64, workspace._BLOCK_CELLS]))
    return params, bounds, resolution, block


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_grid_cases())
# 21 columns, one at x = 0 or 5e-10 off it, in 13 blocks of 20 cells, with
# the asin bound active for |x| < l2_min - LENGTH_TOL
@example((ManipulatorParams(l2_min=0.05), (-0.21, 0.21, 0.0, 0.24), 0.02, 20))
@example((ManipulatorParams(l2_min=0.05), (5e-10 - 0.21, 5e-10 + 0.21, 0.0, 0.24), 0.02, 20))
def test_compute_grid_matches_per_cell_min_angle(case):
    params, bounds, resolution, block = case
    with mock.patch.object(workspace, "_BLOCK_CELLS", block):
        grid = compute_grid(params, bounds, resolution)
    for iy, y in enumerate(grid.ys.tolist()):
        for ix, x in enumerate(grid.xs.tolist()):
            expected = min_end_effector_angle((x, y), params)
            assert grid.reachable[iy, ix] == (expected is not None)
            got = float(grid.min_angle[iy, ix])
            assert got.hex() == (math.nan if expected is None else expected).hex()


def test_grid_sector_and_disk_shape():
    grid = compute_grid(PARAMS, (-2.0, 2.0, 0.0, 2.0), 0.1)
    for iy in range(grid.ny):
        for ix in range(grid.nx):
            if not grid.reachable[iy, ix]:
                continue
            x, y = float(grid.xs[ix]), float(grid.ys[iy])
            assert abs(math.atan2(x, y)) <= PARAMS.theta_limit + 1e-6
            assert math.hypot(x, y) <= PARAMS.max_total_length + 2e-3


def test_grid_csv():
    grid = compute_grid(PARAMS, (-0.4, 0.4, 0.0, 0.4), 0.2)
    fh = io.StringIO()
    grid_to_csv(grid, fh)
    lines = fh.getvalue().splitlines()
    assert lines[0] == "x_m,y_m,reachable,min_angle_rad"
    assert len(lines) == 1 + grid.nx * grid.ny
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 4
        if fields[2] == "0":
            assert fields[3] == ""
        else:
            float(fields[3])


def _grid_csv_loop(grid):
    lines = [GRID_CSV_HEADER + "\n"]
    for iy, y in enumerate(grid.ys.tolist()):
        for ix, x in enumerate(grid.xs.tolist()):
            if grid.reachable[iy, ix]:
                lines.append(f"{x!r},{y!r},1,{float(grid.min_angle[iy, ix])!r}\n")
            else:
                lines.append(f"{x!r},{y!r},0,\n")
    return "".join(lines)


def _random_grid(nx, ny, seed=0):
    rng = np.random.default_rng(seed)
    reach = rng.random((ny, nx)) < 0.5
    angle = rng.choice([rng.uniform(-1.5, 1.5), 0.0, -0.0, 0.5, 1e-7, 0.1], (ny, nx))
    angle[:, ::3] = rng.uniform(-1.5, 1.5, (ny, len(range(0, nx, 3))))
    return WorkspaceGrid(xs=np.linspace(-2.0, 2.0, nx), ys=np.linspace(0.0, 2.0, ny),
                         reachable=reach, min_angle=np.where(reach, angle, math.nan),
                         resolution=0.01, bounds=(-2.0, 2.0, 0.0, 2.0))


@pytest.mark.parametrize("grid", [
    # a midline column of cells at x = 0.0, whose minimum angle is 0.0
    compute_grid(PARAMS, (-0.55, 0.55, 0.0, 1.2), 0.1),
    compute_grid(PARAMS, (-2.0, 2.0, 0.0, 2.0), 0.05),
    compute_grid(PARAMS, (0.0, 1.0, 0.0, 0.0), 0.1),  # no rows
    _random_grid(0, 3),
    _random_grid(BLOCK_FLOATS + 5, 3),  # rows span two blocks of columns
    _random_grid(1, BLOCK_FLOATS + 5),  # more rows than one block of y cells
    _random_grid(7, 2000, seed=1),
], ids=["midline", "default-bounds", "no-rows", "no-columns", "wide", "tall", "narrow"])
def test_grid_csv_matches_reference_loop(grid):
    fh = io.StringIO()
    grid_to_csv(grid, fh)
    assert fh.getvalue() == _grid_csv_loop(grid)


def test_grid_to_csv_memory_is_a_few_blocks():
    # a 1M-cell grid: every temporary is per block of BLOCK_FLOATS cells,
    # where one frame over the grid would take hundreds of MB
    grid = _random_grid(1000, 1000)
    with open(os.devnull, "w") as fh:
        tracemalloc.start()
        try:
            grid_to_csv(grid, fh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak <= 1024 * BLOCK_FLOATS
