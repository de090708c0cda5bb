import binascii
import io
import math
import re
import tracemalloc
import zlib
from xml.etree import ElementTree
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tapearm import svg
from tapearm.model import DEFAULT_PARAMS, ManipulatorParams
from tapearm.simulator import ScenarioError, builtin_scenarios, run_scenario
from tapearm.svg import marching_squares, overlay_svg, workspace_svg
from tapearm.workspace import GRID_CSV_HEADER, compute_grid, grid_to_csv
from textcheck import assert_same_text
from valuecopy import replace


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
                pairs = _CASES[case]
            for edge_a, edge_b in pairs:
                segments.append((_interpolate(*edge_ends[edge_a], level),
                                 _interpolate(*edge_ends[edge_b], level)))
    return _stitch(segments)


# Edge pairs of the non-saddle cases, corner bits 1=BL, 2=BR, 4=TR, 8=TL.
_CASES = {
    1: [("l", "b")],
    2: [("b", "r")],
    3: [("l", "r")],
    4: [("r", "t")],
    6: [("b", "t")],
    7: [("l", "t")],
    8: [("t", "l")],
    9: [("b", "t")],
    11: [("r", "t")],
    12: [("r", "l")],
    13: [("b", "r")],
    14: [("l", "b")],
}


def _key(point):
    return (round(point[0] * 1e9), round(point[1] * 1e9))


def _stitch(segments):
    """Join segments sharing endpoints into polylines, growing each chain at
    its end and then at its start."""
    adjacency = {}
    for index, (a, b) in enumerate(segments):
        adjacency.setdefault(_key(a), []).append(index)
        adjacency.setdefault(_key(b), []).append(index)
    used = [False] * len(segments)
    polylines = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        a, b = segments[start]
        chain = [a, b]
        for grow_end in (True, False):
            while True:
                tip = chain[-1] if grow_end else chain[0]
                candidates = [i for i in adjacency.get(_key(tip), []) if not used[i]]
                if not candidates:
                    break
                index = candidates[0]
                used[index] = True
                pa, pb = segments[index]
                nxt = pb if _key(pa) == _key(tip) else pa
                if grow_end:
                    chain.append(nxt)
                else:
                    chain.insert(0, nxt)
        polylines.append(chain)
    return polylines


# Five-stop colormap of the scalar _color below.
_STOPS = [
    (0.00, (13, 8, 135)),
    (0.25, (126, 3, 168)),
    (0.50, (203, 70, 121)),
    (0.75, (248, 149, 64)),
    (1.00, (240, 249, 33)),
]


def _color(t):
    t = min(1.0, max(0.0, t))
    for (t0, c0), (t1, c1) in zip(_STOPS, _STOPS[1:]):
        if t <= t1:
            f = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
            r, g, b = (round(a + f * (b_ - a)) for a, b_ in zip(c0, c1))
            return f"#{r:02x}{g:02x}{b:02x}"
    return "#ffffff"


class _Canvas:
    """An SVG document collected as a list of elements and joined at the end."""

    def __init__(self, x_min, x_max, y_min, y_max, width):
        self.scale = (width - 40) / max(x_max - x_min, y_max - y_min, 1e-9)
        self.width = width
        self.height = int(round((y_max - y_min) * self.scale)) + 40
        self.x_min, self.y_max = x_min, y_max
        self.parts = []

    def px(self, x, y):
        return 20 + (x - self.x_min) * self.scale, 20 + (self.y_max - y) * self.scale

    def image(self, x0, y0, x1, y1):
        """An image over the data rectangle (x0, y0)-(x1, y1), its href left out."""
        left, top = self.px(x0, y1)
        right, bottom = self.px(x1, y0)
        self.parts.append(f'<image x="{left:.2f}" y="{top:.2f}" width="{right - left:.2f}" '
                          f'height="{bottom - top:.2f}" preserveAspectRatio="none" '
                          'style="image-rendering:pixelated" '
                          'xmlns:xlink="http://www.w3.org/1999/xlink" xlink:href=""/>')

    def polyline(self, points, stroke, stroke_width, opacity=1.0):
        text = " ".join(f"{px:.2f},{py:.2f}" for px, py in (self.px(x, y) for x, y in points))
        self.parts.append(f'<polyline points="{text}" fill="none" stroke="{stroke}" '
                          f'stroke-width="{stroke_width}" opacity="{opacity:.3f}"/>')

    def circle(self, x, y, radius_px, fill):
        px, py = self.px(x, y)
        self.parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="{radius_px}" fill="{fill}"/>')

    def text(self, x, y, message):
        px, py = self.px(x, y)
        self.parts.append(f'<text x="{px:.2f}" y="{py:.2f}" font-size="12" '
                          f'font-family="sans-serif">{escape(message)}</text>')

    def render(self):
        body = "\n".join(self.parts)
        return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
                f'height="{self.height}">\n<rect width="100%" height="100%" fill="white"/>\n'
                f'{body}\n</svg>\n')


def _render(renderer, obj, **kwargs):
    fh = io.StringIO()
    renderer(obj, fh, **kwargs)
    return fh.getvalue()


def _workspace_svg_loop(grid, width=640):
    """The heat map's text with its image's href left out, and the image's
    pixels, top row first: each reachable cell's colour, opaque, and every
    other pixel transparent black; None when no cell is reachable."""
    levels = [math.radians(v) for v in (10, 20, 30, 40, 50)]
    if grid.reachable.size == 0:
        # the frame of a zero-height plot
        return _Canvas(0.0, 1.0, 0.0, 0.0, width).render(), None
    x_min, x_max, y_min, y_max = grid.bounds
    canvas = _Canvas(x_min, x_max, y_min, y_max, width=width)
    magnitude = np.abs(grid.min_angle)
    vmax = np.nanmax(magnitude) if grid.reachable.any() else 1.0
    if not (vmax > 0):
        vmax = 1.0
    pixels = None
    if grid.reachable.any():
        half = 0.5 * grid.resolution
        canvas.image(float(grid.xs[0]) - half, float(grid.ys[0]) - half,
                     float(grid.xs[-1]) + half, float(grid.ys[-1]) + half)
        pixels = np.zeros((grid.ny, grid.nx, 4), np.uint8)
        for iy in range(grid.ny):
            for ix in range(grid.nx):
                if grid.reachable[iy, ix]:
                    fill = _color(float(magnitude[iy, ix]) / vmax)
                    rgb = [int(fill[i:i + 2], 16) for i in (1, 3, 5)]
                    pixels[grid.ny - 1 - iy, ix] = (*rgb, 255)
    for level in levels:
        for chain in _marching_squares_loop(grid.xs, grid.ys, magnitude, level):
            canvas.polyline(chain, stroke="black", stroke_width=1.0)
    return canvas.render(), pixels


def _png_chunks(png):
    """The (type, data) chunks of the PNG file ``png``, each CRC checked."""
    assert png[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, at = [], 8
    while at < len(png):
        size = int.from_bytes(png[at:at + 4], "big")
        kind, data = png[at + 4:at + 8], png[at + 8:at + 8 + size]
        assert len(data) == size and png[at + 8 + size:at + 12 + size] == zlib.crc32(
            kind + data).to_bytes(4, "big"), kind
        chunks.append((kind, data))
        at += 12 + size
    return chunks


def _decode_png(png):
    """The pixels of an 8-bit RGBA PNG with filter type 0 on every row, as a
    uint8 array of shape (height, width, 4), after checking the signature,
    the IHDR fields, every CRC and the IEND chunk at the end."""
    chunks = _png_chunks(png)
    kinds = [kind for kind, _ in chunks]
    assert kinds[0] == b"IHDR" and chunks[-1] == (b"IEND", b"") and set(kinds[1:-1]) == {b"IDAT"}
    header = chunks[0][1]
    width, height = int.from_bytes(header[:4], "big"), int.from_bytes(header[4:8], "big")
    assert header[8:] == bytes([8, 6, 0, 0, 0])  # depth, RGBA, deflate, filter method, no interlace
    raw = zlib.decompress(b"".join(data for kind, data in chunks if kind == b"IDAT"))
    rows = np.frombuffer(raw, np.uint8).reshape(height, 1 + 4 * width)
    assert not rows[:, 0].any()  # filter type 0 on every row
    return rows[:, 1:].reshape(height, width, 4)


_IMAGE = re.compile(r'(<image [^>]* xlink:href=")data:image/png;base64,([^"]*)(")')


def _split_heat_map(text):
    """A heat map's text with its image's href left out, and the image's pixels
    (None when it has no image)."""
    found = _IMAGE.findall(text)
    assert len(found) <= 1, len(found)
    if not found:
        return text, None
    return _IMAGE.sub(r"\1\3", text), _decode_png(binascii.a2b_base64(found[0][1]))


def _overlay_svg_loop(log, width=480):
    indices = sorted(set([0] + list(log.boundary_indices) + [len(log.rows) - 1]))
    if len(indices) > 9:
        indices = [indices[int(round(p))] for p in np.linspace(0, len(indices) - 1, 9)]
    rows = [log.rows[i] for i in indices]
    xs = [0.0] + [r.x for r in rows]
    ys = [0.0] + [r.y for r in rows] + [r.l1 for r in rows]
    margin = 0.05 * max(max(xs) - min(xs), max(ys) - min(ys), 0.1)
    canvas = _Canvas(min(xs) - margin, max(xs) + margin,
                     min(ys) - margin, max(ys) + margin, width=width)
    last = len(rows) - 1
    for order, row in enumerate(rows):
        f = order / max(last, 1)
        color = "#d62728" if order == last else _color(0.2 + 0.6 * f)
        canvas.polyline([(0.0, 0.0), (0.0, row.l1), (row.x, row.y)],
                        stroke=color, stroke_width=2.5, opacity=0.35 + 0.65 * f)
        canvas.circle(0.0, row.l1, 4, color)
        canvas.circle(row.x, row.y, 2.5, color)
    if log.scenario:
        canvas.text(min(xs) - 0.5 * margin, max(ys) + 0.5 * margin, log.scenario)
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
# four crossings within 1 nm of the vertex (row 2, column 0): their rounded
# keys join both loops there, which keys by grid edge or vertex would not
@example((np.array([0.0, 0.5, 1.0]), np.linspace(0.1, 0.6, 6),
          np.array([[0, 0, 0], [0.25, 0, 0], [0, 0, 0], [0.25, 0, 0], [0, 0, 0], [0, 0, 0]],
                   dtype=float), 9.560234621542405e-268))
# the level at a vertex of four crossed cells: four zero-length segments there,
# then four saddles around it
@example((np.arange(3.0), np.arange(3.0), np.array([[1.0, 1.0, 1.0], [1.0, 0.5, 1.0],
                                                   [1.0, 1.0, 1.0]]), 0.5))
@example((np.arange(3.0), np.arange(3.0), np.array([[0.0, 1.0, 0.0], [1.0, 0.5, 1.0],
                                                   [0.0, 1.0, 0.0]]), 0.5))
def test_marching_squares_matches_reference_loop(case):
    xs, ys, field, level = case
    assert marching_squares(xs, ys, field, level) == _marching_squares_loop(xs, ys, field, level)


def _exact_half_shares():
    """(share, k) pairs where a channel's a + f * (b - a) is exactly k + 0.5."""
    halves = []
    for (t0, c0), (t1, c1) in zip(_STOPS, _STOPS[1:]):
        for a, b in zip(c0, c1):
            for k in range(min(a, b), max(a, b)):
                t = t0 + (t1 - t0) * (k + 0.5 - a) / (b - a)
                if a + (t - t0) / (t1 - t0) * (b - a) == k + 0.5:
                    halves.append((t, k))
    return halves


def test_colors_match_scalar_colormap():
    halves = _exact_half_shares()
    # exact halves that round down (even k) and up (odd k)
    assert {k % 2 for _, k in halves} == {0, 1} and len(halves) > 100
    boundaries = [math.nextafter(t0, direction) for t0, _ in _STOPS
                  for direction in (-math.inf, math.inf)] + [t0 for t0, _ in _STOPS]
    outside = [-math.inf, -2.0, -1e-300, -0.0, 1.0 + 1e-9, 1.5, 1e300, math.inf, math.nan]
    spread = np.random.default_rng(3).uniform(-0.2, 1.2, 2000).tolist()
    values = [t for t, _ in halves] + boundaries + outside + spread
    assert svg._colors(values) == [_color(v) for v in values]
    assert svg._colors([]) == []


_ALT_PARAMS = ManipulatorParams(theta_limit=0.7, l1_min=0.2, l2_min=0.05, max_total_length=1.3)


@pytest.mark.parametrize("params, bounds, resolution", [
    (DEFAULT_PARAMS, (-1.0, 1.0, 0.0, 1.0), 0.1),        # mixed grid
    (_ALT_PARAMS, (-1.5, 1.5, -0.1, 1.5), 0.043),        # mixed, other parameters
    # the image's y (then x) pixel lands next to a rounding boundary of "%.2f":
    # y 19.38 from ys[-1] + half, 19.37 from (ys[-1] - half) + resolution, and
    # x 6.88 from (xs[0] - half) - x_min, 6.87 from (xs[0] - x_min) - half
    (DEFAULT_PARAMS, (-0.4, -0.202, 1.34, 1.628), 0.0481),
    (DEFAULT_PARAMS, (-0.66, -0.254, 0.73, 1.242), 0.0714),
    (DEFAULT_PARAMS, (5.0, 6.0, 5.0, 6.0), 0.1),         # nothing reachable
    (DEFAULT_PARAMS, (0.0, 0.0, 0.0, 1.0), 0.1),         # empty bounds
    # a midline column: its 93 reachable cells all have angle 0, so the color
    # scale has no positive maximum
    pytest.param(DEFAULT_PARAMS, (-0.005, 0.005, 0.05, 1.0), 0.01,
                 marks=pytest.mark.filterwarnings("error")),
], ids=["mixed", "mixed-other-params", "rect-y-rounding", "rect-x-rounding",
        "unreachable", "empty", "midline-zero-angles"])
def test_workspace_outputs_match_reference_loops(params, bounds, resolution):
    _assert_workspace_outputs_match(compute_grid(params, bounds, resolution))


def _assert_workspace_outputs_match(grid):
    text, pixels = _split_heat_map(_render(workspace_svg, grid))
    expected_text, expected_pixels = _workspace_svg_loop(grid)
    assert text == expected_text
    if expected_pixels is None:
        assert pixels is None
    else:
        assert pixels.shape == expected_pixels.shape
        assert np.array_equal(pixels, expected_pixels)
    assert_same_text(_render(grid_to_csv, grid), _grid_csv_loop(grid))
    return text


# Each case's facts: one row wider than a block of the PNG, a block that ends
# in the middle of a row, an image at a negative pixel x, and any reachable cell.
@pytest.mark.parametrize("bounds, resolution, block_cells, facts", [
    # one row of 20 000 cells, 6 478 of them reachable: the row goes to the
    # compressor in two pieces
    ((-4.0, 4.0, 1.5, 1.5004), 0.0004, svg._PNG_BLOCK_CELLS, (True, True, False, True)),
    # 21 x 11 cells in pieces of 8, 8 and 5
    ((-1.0, 1.0, 0.0, 1.0), 0.1, 8, (False, True, False, True)),
    # 3 x 3 cells over bounds 2.6 cells wide: the cells stick out left of the
    # plot's origin
    ((0.3, 0.326, 0.5, 0.526), 0.01, svg._PNG_BLOCK_CELLS, (False, False, True, True)),
    ((5.0, 6.0, 5.0, 6.0), 0.1, 7, (False, True, False, False)),
], ids=["one-wide-row", "frame-ends-mid-row", "negative-pixel-x", "unreachable"])
def test_heat_map_frames_match_reference_loop(monkeypatch, bounds, resolution, block_cells,
                                              facts):
    monkeypatch.setattr(svg, "_PNG_BLOCK_CELLS", block_cells)
    grid = compute_grid(DEFAULT_PARAMS, bounds, resolution)
    text = _assert_workspace_outputs_match(grid)
    assert (grid.ny == 1 and grid.nx > block_cells, grid.nx > block_cells,
            '<image x="-' in text, bool(grid.reachable.any())) == facts


def test_overlay_svg_matches_reference_loop():
    for name, scenario in builtin_scenarios().items():
        log = run_scenario(scenario)
        assert _render(overlay_svg, log) == _overlay_svg_loop(log), name
    for name in ("a&b<c>", ""):  # an escaped title, and none
        renamed = replace(log, scenario=name)
        assert _render(overlay_svg, renamed) == _overlay_svg_loop(renamed), name


class _CountingSink:
    """A text file that keeps only the number of characters written to it."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)


def _traced_peak(grid):
    sink = _CountingSink()
    tracemalloc.start()
    try:
        workspace_svg(grid, sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _assert_streams(monkeypatch, bounds, resolution):
    # 500k cells. The heat map's PNG is built a block of rows, or a piece of one
    # row, at a time, so the writer holds the grid's |angle| and one block's
    # working set (about 2 MB), 1.6 times the angles' bytes on either grid; the
    # whole image at once, with the colours of every reachable cell, took 8.2
    # (square) and 11.5 (one row) times.
    grid = compute_grid(DEFAULT_PARAMS, bounds, resolution)
    assert grid.reachable.size == 500_000
    bound = 2 * grid.min_angle.nbytes
    assert _traced_peak(grid) <= bound
    monkeypatch.setattr(svg, "_PNG_BLOCK_CELLS", grid.reachable.size)  # one block
    assert _traced_peak(grid) > bound


def test_workspace_svg_streams_its_output(monkeypatch):
    _assert_streams(monkeypatch, (-2.0, 2.0, 0.0, 2.0), 0.004)


def test_workspace_svg_streams_a_one_row_grid(monkeypatch):
    _assert_streams(monkeypatch, (-2.0, 2.0, 1.0, 1.000008), 0.000008)


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
    text = _render(workspace_svg, grid)
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<rect") == 1  # the background
    assert text.count("<image") == 1  # the heat map, one pixel per cell
    assert _split_heat_map(text)[1].shape == (grid.ny, grid.nx, 4)
    assert "<polyline" in text


def test_workspace_svg_empty_grid():
    # a grid with no cells gets the padded frame of a zero-height plot, the
    # same as bounds (0, 4, 0, 0), however tall or wide its bounds are
    frame = ('<svg xmlns="http://www.w3.org/2000/svg" width="640" height="40">\n'
             '<rect width="100%" height="100%" fill="white"/>\n\n</svg>\n')
    for bounds in [(0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 2.0), (0.0, 4.0, 0.0, 0.0),
                   (0.0, 0.0, 0.0, 1e308)]:
        grid = compute_grid(DEFAULT_PARAMS, bounds, 1e305 if bounds[3] > 2 else 0.1)
        assert grid.reachable.size == 0
        assert _render(workspace_svg, grid) == frame, bounds


def _canvas_size(text):
    root = ElementTree.fromstring(text)
    return int(root.get("width")), int(root.get("height"))


def test_tall_drawings_are_no_taller_than_wide():
    # The larger span sets the scale of both axes: a 1 mm x 2 m grid gets a
    # 640x640 canvas, not 640x1200040, and each demo overlay, taller than
    # wide, a 480x480 one.
    grid = compute_grid(DEFAULT_PARAMS, (0.0, 0.001, 0.0, 2.0), 0.001)
    assert _canvas_size(_render(workspace_svg, grid)) == (640, 640)
    for name, scenario in builtin_scenarios().items():
        text = _render(overlay_svg, run_scenario(scenario))
        assert _canvas_size(text) == (480, 480), name


def test_overlay_svg_structure():
    log = run_scenario(builtin_scenarios()["deploy-and-bend"])
    text = _render(overlay_svg, log)
    assert text.startswith("<svg")
    assert "deploy-and-bend" in text
    # one polyline and node/tip circles per drawn configuration
    assert text.count("<polyline") >= 4
    assert text.count("<circle") == 2 * text.count("<polyline")


def test_overlay_title_is_escaped():
    # "&" and "<" must be escaped in XML character data (XML 1.0, section 2.4)
    scenario = replace(builtin_scenarios()["stationary-bend"], name="a&b<c>")
    text = _render(overlay_svg, run_scenario(scenario))
    assert "a&amp;b&lt;c&gt;" in text
    root = ElementTree.fromstring(text)
    assert root.find("{http://www.w3.org/2000/svg}text").text == "a&b<c>"


_STATIONARY_BEND = builtin_scenarios()["stationary-bend"]
_STATIONARY_BEND_LOG = run_scenario(_STATIONARY_BEND)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.text())
def test_every_accepted_name_gives_a_well_formed_overlay(name):
    try:
        replace(_STATIONARY_BEND, name=name)
    except ScenarioError:
        return
    text = _render(overlay_svg, replace(_STATIONARY_BEND_LOG, scenario=name))
    root = ElementTree.fromstring(text)
    # an XML parser reads each line break in character data as "\n"
    title = name.replace("\r\n", "\n").replace("\r", "\n")
    assert root.find("{http://www.w3.org/2000/svg}text").text == title
