"""Hand-rolled SVG output: workspace heat maps with contour polylines and
schematic configuration overlays. No plotting dependency; output is small,
deterministic text.
"""

from __future__ import annotations

import math

import numpy as np

# Layout: canvas widths and the padding around the plot in pixels, the heat
# map's contour levels in radians, and the most configurations an overlay draws.
_WORKSPACE_WIDTH = 640
_OVERLAY_WIDTH = 480
_PAD = 20
_CONTOUR_LEVELS = tuple(math.radians(v) for v in (10, 20, 30, 40, 50))
_MAX_OVERLAY_CONFIGS = 9

# Marching-squares case table, corner bits: 1=BL, 2=BR, 4=TR, 8=TL.
# Values are (edge, edge) pairs; edges are "b", "r", "t", "l".
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
# Saddle cases keyed by whether the cell-center value is above the level.
_SADDLE_5 = {True: [("b", "r"), ("t", "l")], False: [("l", "b"), ("r", "t")]}
_SADDLE_10 = {True: [("l", "b"), ("r", "t")], False: [("b", "r"), ("t", "l")]}


def _interpolate(pa, va, pb, vb, level) -> list:
    """Points where ``level`` crosses the edges from ``pa`` to ``pb``.

    Elementwise over arrays of edges. Where the endpoint values straddle the
    level, the denominator is nonzero.
    """
    t = (level - va) / (vb - va)
    return list(zip((pa[0] + t * (pb[0] - pa[0])).tolist(),
                    (pa[1] + t * (pb[1] - pa[1])).tolist()))


def marching_squares(xs, ys, field, level) -> list:
    """Iso-contour polylines of ``field`` (shape (len(ys), len(xs))) at ``level``.

    Cells with a NaN corner are skipped. Segments are stitched into chains
    where they share endpoints; returns polylines as lists of (x, y) tuples.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    field = np.asarray(field, dtype=float)
    # Corner values of every cell, indexed [iy, ix] like the cell's
    # bottom-left sample.
    bl = field[:-1, :-1]
    br = field[:-1, 1:]
    tr = field[1:, 1:]
    tl = field[1:, :-1]
    case = ((bl > level) | (br > level) << 1 | (tr > level) << 2 | (tl > level) << 3)
    finite = ~(np.isnan(bl) | np.isnan(br) | np.isnan(tr) | np.isnan(tl))
    # Row-major, so segments come out in cell scan order.
    iy, ix = np.nonzero(finite & (case != 0) & (case != 15))
    if iy.size == 0:
        return []
    v_bl, v_br, v_tr, v_tl = bl[iy, ix], br[iy, ix], tr[iy, ix], tl[iy, ix]
    x0, x1 = xs[ix], xs[ix + 1]
    y0, y1 = ys[iy], ys[iy + 1]
    # Interpolate all four edges of each crossed cell; an edge the contour
    # does not cross may divide by zero, and its point is never used.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        edge_points = {
            "b": _interpolate((x0, y0), v_bl, (x1, y0), v_br, level),
            "r": _interpolate((x1, y0), v_br, (x1, y1), v_tr, level),
            "t": _interpolate((x0, y1), v_tl, (x1, y1), v_tr, level),
            "l": _interpolate((x0, y0), v_bl, (x0, y1), v_tl, level),
        }
        # Saddle cells use the center value to pick the separation.
        center_above = (0.25 * (((v_bl + v_br) + v_tr) + v_tl) > level).tolist()
    segments = []
    for k, cell_case in enumerate(case[iy, ix].tolist()):
        if cell_case == 5:
            pairs = _SADDLE_5[center_above[k]]
        elif cell_case == 10:
            pairs = _SADDLE_10[center_above[k]]
        else:
            pairs = _CASES[cell_case]
        for edge_a, edge_b in pairs:
            segments.append((edge_points[edge_a][k], edge_points[edge_b][k]))
    return _stitch(segments)


def _key(point):
    return (round(point[0] * 1e9), round(point[1] * 1e9))


def _stitch(segments) -> list:
    """Join segments sharing endpoints into polylines (undirected)."""
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


# Five-stop colormap for the heat maps (dark blue -> yellow): stop positions
# and their RGB colours.
_STOP_AT = np.array([0.00, 0.25, 0.50, 0.75, 1.00])
_STOP_RGB = np.array([
    (13, 8, 135),
    (126, 3, 168),
    (203, 70, 121),
    (248, 149, 64),
    (240, 249, 33),
])


def _colors(values) -> list[str]:
    """Hex colours of ``values`` on the colormap, one per value.

    Values are clamped to [0, 1] (NaN counts as 0) and interpolated linearly
    between the two stops around them; each channel is rounded half to even.
    """
    t = np.fmin(np.fmax(np.asarray(values, dtype=float), 0.0), 1.0)
    upper = np.searchsorted(_STOP_AT, t).clip(1)  # first stop at or above t
    t0, t1 = _STOP_AT[upper - 1], _STOP_AT[upper]
    c0, c1 = _STOP_RGB[upper - 1], _STOP_RGB[upper]
    f = ((t - t0) / (t1 - t0))[:, None]
    rgb = np.rint(c0 + f * (c1 - c0)).astype(int)
    packed = (rgb[:, 0] << 16) | (rgb[:, 1] << 8) | rgb[:, 2]
    return [f"#{v:06x}" for v in packed.tolist()]


class _Canvas:
    """SVG document with a y-up data coordinate system scaled by its larger span, written
    to ``fh`` as it is drawn: the header when built, then whole lines, then the end tag."""

    def __init__(self, fh, x_min, x_max, y_min, y_max, width):
        self.fh = fh
        self.scale = (width - 2 * _PAD) / max(x_max - x_min, y_max - y_min, 1e-9)
        self.x_min, self.y_max = x_min, y_max
        self.drawn = False
        height = int(round((y_max - y_min) * self.scale)) + 2 * _PAD
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
                 f'height="{height}">\n<rect width="100%" height="100%" fill="white"/>\n')

    def px(self, x, y):
        return (_PAD + (x - self.x_min) * self.scale,
                _PAD + (self.y_max - y) * self.scale)

    def write(self, elements):
        self.fh.write(elements)
        self.drawn = True

    def polyline(self, points, stroke, stroke_width=1.5, opacity=1.0):
        text = " ".join(f"{px:.2f},{py:.2f}" for px, py in (self.px(x, y) for x, y in points))
        self.write(f'<polyline points="{text}" fill="none" stroke="{stroke}" '
                   f'stroke-width="{stroke_width}" opacity="{opacity:.3f}"/>\n')

    def circle(self, x, y, radius_px, fill):
        px, py = self.px(x, y)
        self.write(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="{radius_px}" fill="{fill}"/>\n')

    def text(self, x, y, message):
        px, py = self.px(x, y)
        # xml.sax.saxutils.escape, whose module imports urllib.request (~40 ms)
        message = message.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        self.write(f'<text x="{px:.2f}" y="{py:.2f}" font-size="12" '
                   f'font-family="sans-serif">{message}</text>\n')

    def close(self):
        # A document with no elements keeps a blank line before the end tag.
        self.fh.write("</svg>\n" if self.drawn else "\n</svg>\n")


def workspace_svg(grid, fh) -> None:
    """Write a heat map of |minimum angle| over reachable cells, with contour
    lines at 10-50 deg, to the open text file ``fh`` one grid row at a time."""
    if grid.reachable.size == 0:  # the frame of a zero-height plot, whatever the bounds
        _Canvas(fh, 0.0, 1.0, 0.0, 0.0, _WORKSPACE_WIDTH).close()
        return
    x_min, x_max, y_min, y_max = grid.bounds
    canvas = _Canvas(fh, x_min, x_max, y_min, y_max, _WORKSPACE_WIDTH)
    magnitude = np.abs(grid.min_angle)
    vmax = np.nanmax(magnitude) if grid.reachable.any() else 1.0
    if not (vmax > 0):
        vmax = 1.0
    # The pixel coordinates of each cell's top-left corner, computed once per
    # column or row in the same operation order as _Canvas.px.
    half = 0.5 * grid.resolution
    size = grid.resolution * canvas.scale
    px = _PAD + ((grid.xs - half) - canvas.x_min) * canvas.scale
    py = _PAD + (canvas.y_max - ((grid.ys - half) + grid.resolution)) * canvas.scale
    px_text = [f'<rect x="{v:.2f}" y="' for v in px.tolist()]
    size_text = f'" width="{size:.2f}" height="{size:.2f}" fill="'
    for py_value, reach, row in zip(py.tolist(), grid.reachable, magnitude):
        columns = np.flatnonzero(reach)
        if columns.size:
            py_text = f"{py_value:.2f}{size_text}"
            fills = _colors(row[columns] / vmax)
            canvas.write("".join(f'{px_text[ix]}{py_text}{fill}"/>\n'
                                 for ix, fill in zip(columns.tolist(), fills)))
    for level in _CONTOUR_LEVELS:
        for chain in marching_squares(grid.xs, grid.ys, magnitude, level):
            canvas.polyline(chain, stroke="black", stroke_width=1.0)
    canvas.close()


def overlay_svg(log, fh, title=None) -> None:
    """Write a schematic overlay of sampled configurations from a trajectory log to ``fh``.

    Links are drawn as segments along the tape midline, the pinching node as
    a circle, the tip as a dot. Samples are the initial row, the segment
    boundaries, and the final row, thinned to _MAX_OVERLAY_CONFIGS. The title
    is escaped as XML character data (XML 1.0, section 2.4).
    """
    indices = sorted(set([0] + list(log.boundary_indices) + [len(log.rows) - 1]))
    if len(indices) > _MAX_OVERLAY_CONFIGS:
        picks = np.linspace(0, len(indices) - 1, _MAX_OVERLAY_CONFIGS)
        indices = [indices[int(round(p))] for p in picks]
    rows = [log.rows[i] for i in indices]
    xs = [0.0] + [r.x for r in rows]
    ys = [0.0] + [r.y for r in rows] + [r.l1 for r in rows]
    margin = 0.05 * max(max(xs) - min(xs), max(ys) - min(ys), 0.1)
    canvas = _Canvas(fh, min(xs) - margin, max(xs) + margin,
                     min(ys) - margin, max(ys) + margin, _OVERLAY_WIDTH)
    last = len(rows) - 1
    shares = [order / max(last, 1) for order in range(len(rows))]
    colors = _colors([0.2 + 0.6 * f for f in shares])
    colors[last] = "#d62728"
    for row, f, color in zip(rows, shares, colors):
        opacity = 0.35 + 0.65 * f
        canvas.polyline([(0.0, 0.0), (0.0, row.l1), (row.x, row.y)],
                        stroke=color, stroke_width=2.5, opacity=opacity)
        canvas.circle(0.0, row.l1, 4, color)
        canvas.circle(row.x, row.y, 2.5, color)
    if title:
        canvas.text(min(xs) - 0.5 * margin, max(ys) + 0.5 * margin, title)
    canvas.close()
