import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tapearm import svg
from tapearm.model import DEFAULT_PARAMS, ManipulatorParams
from tapearm.simulator import builtin_scenarios, run_scenario
from tapearm.svg import marching_squares, overlay_svg, workspace_svg
from tapearm.workspace import GRID_CSV_HEADER, compute_grid, grid_to_csv


# --- reference loops: the per-cell renderers the vectorized ones replace ----

def _interpolate(pa, va, pb, vb, level):
    t = (level - va) / (vb - va)
    return (pa[0] + t * (pb[0] - pa[0]), pa[1] + t * (pb[1] - pa[1]))


def _marching_squares_loop(xs, ys, field, level):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    field = np.asarray(field, dtype=float)
    segments = []
    for iy in range(len(ys) - 1):
        for ix in range(len(xs) - 1):
            v_bl = field[iy, ix]
            v_br = field[iy, ix + 1]
            v_tr = field[iy + 1, ix + 1]
            v_tl = field[iy + 1, ix]
            corners = (v_bl, v_br, v_tr, v_tl)
            if any(math.isnan(v) for v in corners):
                continue
            case = ((v_bl > level) | (v_br > level) << 1
                    | (v_tr > level) << 2 | (v_tl > level) << 3)
            if case in (0, 15):
                continue
            x0, x1 = xs[ix], xs[ix + 1]
            y0, y1 = ys[iy], ys[iy + 1]
            p_bl, p_br, p_tr, p_tl = (x0, y0), (x1, y0), (x1, y1), (x0, y1)
            edge_ends = {
                "b": (p_bl, v_bl, p_br, v_br),
                "r": (p_br, v_br, p_tr, v_tr),
                "t": (p_tl, v_tl, p_tr, v_tr),
                "l": (p_bl, v_bl, p_tl, v_tl),
            }
            if case in (5, 10):
                center_above = 0.25 * sum(corners) > level
                if case == 5:
                    pairs = [("b", "r"), ("t", "l")] if center_above else [("l", "b"), ("r", "t")]
                else:
                    pairs = [("l", "b"), ("r", "t")] if center_above else [("b", "r"), ("t", "l")]
            else:
                pairs = svg._CASES[case]
            for edge_a, edge_b in pairs:
                segments.append((_interpolate(*edge_ends[edge_a], level),
                                 _interpolate(*edge_ends[edge_b], level)))
    return svg._stitch(segments)


def _workspace_svg_loop(grid, width=640):
    levels = [math.radians(v) for v in (10, 20, 30, 40, 50)]
    x_min, x_max, y_min, y_max = grid.bounds
    canvas = svg._Canvas(x_min, x_max, y_min, y_max, width=width)
    if grid.reachable.size == 0:
        return canvas.render()
    magnitude = np.abs(grid.min_angle)
    vmax = np.nanmax(magnitude) if grid.reachable.any() else 1.0
    if not (vmax > 0):
        vmax = 1.0
    half = 0.5 * grid.resolution
    for iy in range(grid.ny):
        for ix in range(grid.nx):
            if grid.reachable[iy, ix]:
                fill = svg._color(float(magnitude[iy, ix]) / vmax)
                canvas.rect(float(grid.xs[ix]) - half, float(grid.ys[iy]) - half,
                            grid.resolution, grid.resolution, fill)
    for level in levels:
        for chain in _marching_squares_loop(grid.xs, grid.ys, magnitude, level):
            canvas.polyline(chain, stroke="black", stroke_width=1.0)
    return canvas.render()


def _grid_csv_loop(grid):
    lines = [GRID_CSV_HEADER + "\n"]
    for iy in range(grid.ny):
        y = float(grid.ys[iy])
        for ix in range(grid.nx):
            x = float(grid.xs[ix])
            if grid.reachable[iy, ix]:
                lines.append(f"{x!r},{y!r},1,{float(grid.min_angle[iy, ix])!r}\n")
            else:
                lines.append(f"{x!r},{y!r},0,\n")
    return "".join(lines)


# Values on and around the levels drawn below, so that corners sit exactly at
# the level and two-valued cells make saddles (cases 5 and 10) common.
_VALUES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, math.nan]),
                    st.floats(-2.0, 2.0))


@st.composite
def _fields(draw):
    ny = draw(st.integers(1, 6))
    nx = draw(st.integers(1, 6))
    field = np.array(draw(st.lists(_VALUES, min_size=nx * ny, max_size=nx * ny)),
                     dtype=float).reshape(ny, nx)
    steps = st.floats(0.01, 1.0)
    xs = draw(st.floats(-1.0, 1.0)) + np.cumsum(draw(st.lists(steps, min_size=nx, max_size=nx)))
    ys = draw(st.floats(-1.0, 1.0)) + np.cumsum(draw(st.lists(steps, min_size=ny, max_size=ny)))
    level = draw(st.one_of(st.sampled_from([0.25, 0.5]), st.floats(-2.0, 2.0)))
    return xs, ys, field, level


def _case(bl, br, tr, tl, level=0.5):
    return np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([[bl, br], [tl, tr]]), level


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_fields())
@example(_case(1.0, 0.0, 1.0, 0.0))  # case 5, center above
@example(_case(0.6, 0.0, 0.6, 0.0))  # case 5, center below
@example(_case(0.0, 1.0, 0.0, 1.0))  # case 10, center above
@example(_case(0.0, 0.6, 0.0, 0.6))  # case 10, center below
@example(_case(0.5, 1.0, 0.5, 0.0))  # corners exactly at the level
@example(_case(math.nan, 1.0, 0.0, 0.0))
@example((np.array([0.0, 1.0, 2.0]), np.array([0.0]), np.array([[0.0, 1.0, 0.0]]), 0.5))
@example((np.array([0.0]), np.array([0.0, 1.0, 2.0]), np.array([[0.0], [1.0], [0.0]]), 0.5))
def test_marching_squares_matches_reference_loop(case):
    xs, ys, field, level = case
    assert marching_squares(xs, ys, field, level) == _marching_squares_loop(xs, ys, field, level)


_ALT_PARAMS = ManipulatorParams(theta_limit=0.7, l1_min=0.2, l2_min=0.05, max_total_length=1.3)


@pytest.mark.parametrize("params, bounds, resolution", [
    (DEFAULT_PARAMS, (-1.0, 1.0, 0.0, 1.0), 0.1),        # mixed grid
    (_ALT_PARAMS, (-1.5, 1.5, -0.1, 1.5), 0.043),        # mixed, other parameters
    # rect y (then x) pixels land next to a rounding boundary of "%.2f", so
    # any change in the order of their float operations shows
    (DEFAULT_PARAMS, (-0.38, -0.32, 1.27, 1.5), 0.018),
    (DEFAULT_PARAMS, (-0.17, 1.27, 1.29, 1.34), 0.0735),
    (DEFAULT_PARAMS, (5.0, 6.0, 5.0, 6.0), 0.1),         # nothing reachable
    (DEFAULT_PARAMS, (0.0, 0.0, 0.0, 1.0), 0.1),         # empty bounds
], ids=["mixed", "mixed-other-params", "rect-y-rounding", "rect-x-rounding",
        "unreachable", "empty"])
def test_workspace_outputs_match_reference_loops(tmp_path, params, bounds, resolution):
    grid = compute_grid(params, bounds, resolution)
    assert workspace_svg(grid) == _workspace_svg_loop(grid)
    grid_to_csv(grid, tmp_path / "grid.csv")
    assert (tmp_path / "grid.csv").read_text() == _grid_csv_loop(grid)


def test_marching_squares_circle_level():
    # distance field from the origin: a level set is a circle of that radius;
    # the level avoids exact lattice values, where corner-degenerate cells
    # may legitimately split the chain
    xs = np.linspace(-2.0, 2.0, 81)
    ys = np.linspace(-2.0, 2.0, 81)
    field = np.hypot(*np.meshgrid(xs, ys))
    radius = 0.9753
    chains = marching_squares(xs, ys, field, radius)
    assert chains
    points = [p for chain in chains for p in chain]
    radii = [math.hypot(x, y) for x, y in points]
    assert max(abs(r - radius) for r in radii) < 0.01
    # a single stitched loop that closes on itself
    assert len(chains) == 1
    first, last = chains[0][0], chains[0][-1]
    assert math.hypot(first[0] - last[0], first[1] - last[1]) < 1e-9


def test_marching_squares_skips_nan_cells():
    xs = np.linspace(0.0, 1.0, 11)
    ys = np.linspace(0.0, 1.0, 11)
    field = np.full((11, 11), np.nan)
    assert marching_squares(xs, ys, field, 0.5) == []
    field[:, :5] = 1.0  # no crossing within any all-finite cell
    assert marching_squares(xs, ys, field, 0.5) == []


def test_marching_squares_no_contour_when_level_outside_range():
    xs = ys = np.linspace(0.0, 1.0, 5)
    field = np.ones((5, 5))
    assert marching_squares(xs, ys, field, 2.0) == []


def test_workspace_svg_structure():
    grid = compute_grid(DEFAULT_PARAMS, (-1.0, 1.0, 0.0, 1.0), 0.1)
    text = workspace_svg(grid)
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<rect") > grid.reachable.sum()  # cells + background
    assert "<polyline" in text


def test_workspace_svg_empty_grid():
    grid = compute_grid(DEFAULT_PARAMS, (0.0, 0.0, 0.0, 1.0), 0.1)
    text = workspace_svg(grid)
    assert text.startswith("<svg")


def test_overlay_svg_structure():
    log = run_scenario(builtin_scenarios()["deploy-and-bend"])
    text = overlay_svg(log, title="deploy-and-bend")
    assert text.startswith("<svg")
    assert "deploy-and-bend" in text
    # one polyline and node/tip circles per drawn configuration
    assert text.count("<polyline") >= 4
    assert text.count("<circle") == 2 * text.count("<polyline")
