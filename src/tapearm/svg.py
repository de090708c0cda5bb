"""Hand-rolled SVG output: workspace heat maps with contour polylines and
schematic configuration overlays. No plotting dependency; output is small,
deterministic text. A heat map's cells are one embedded PNG, built with zlib,
so its size follows the compressed pixels, not the cell count: 94 KB at 80 000.
"""

from __future__ import annotations

import binascii
import itertools
import math
import zlib

import numpy as np

# Layout: canvas widths and the padding around the plot in pixels, the heat
# map's contour levels in radians, and the most configurations an overlay draws.
_WORKSPACE_WIDTH = 640
_OVERLAY_WIDTH = 480
_PAD = 20
_CONTOUR_LEVELS = tuple(math.radians(v) for v in (10, 20, 30, 40, 50))
_MAX_OVERLAY_CONFIGS = 9

# The heat map's PNG compresses whole rows, or pieces of a wider row, this many
# cells at a time, at zlib level 3: level 4 was 17 % slower on a 400k sparse grid.
_PNG_BLOCK_CELLS, _PNG_LEVEL = 16384, 3

# Marching-squares segments of each crossing case (Lorensen & Cline 1987),
# corner bits 1=BL, 2=BR, 4=TR, 8=TL: the two edges ("b", "r", "t", "l") that
# each segment joins, in order. The saddles 5 and 10 are keyed by the case and
# whether the cell-center value is above the level.
_SEGMENTS = {
    1: ("lb",), 2: ("br",), 3: ("lr",), 4: ("rt",), 6: ("bt",), 7: ("lt",),
    8: ("tl",), 9: ("bt",), 11: ("rt",), 12: ("rl",), 13: ("br",), 14: ("lb",),
    (5, True): ("br", "tl"), (5, False): ("lb", "rt"),
    (10, True): ("lb", "rt"), (10, False): ("br", "tl"),
}

# The corners BL, BR, TR, TL as (row, column) steps from a cell's bottom-left
# sample, and the corners that the edges b, r, t and l run from and to.
_CORNER_DY, _CORNER_DX = np.array([0, 0, 1, 1]), np.array([0, 1, 1, 0])
_EDGE_FROM, _EDGE_TO = np.array([0, 1, 3, 0]), np.array([1, 2, 2, 3])


# _SEGMENTS as indices into "brtl", by row case << 1 | center_above: the edge
# pairs of the row's two segments, or of its one segment and then [4, 4].
_SEGMENT_TABLE = np.array([
    [list(map("brtl-".index, pair)) for pair in (*pairs, "--", "--")[:2]]
    for pairs in (_SEGMENTS.get(row >> 1) or _SEGMENTS.get((row >> 1, bool(row & 1)), ())
                  for row in range(32))])


def marching_squares(xs, ys, field, level) -> list:
    """Iso-contour polylines of ``field`` (shape (len(ys), len(xs))) at ``level``.

    Cells with a NaN corner are skipped. Segments are stitched into chains
    where their endpoints round to the same nanometre (``np.rint(p * 1e9)``);
    returns polylines as lists of (x, y) tuples.
    """
    xs, ys, field = (np.asarray(a, dtype=float) for a in (xs, ys, field))
    # A sample's bits are 1 above the level and 16 NaN. The cell whose
    # bottom-left corner is flat sample k ORs its corners' bits shifted by 0
    # (BL), 1 (BR), 2 (TR) and 3 (TL), so a crossed cell with no NaN corner
    # has case 1..14. A k in the last column wraps around its row: no cell.
    bits = ((field > level).view(np.uint8) | np.isnan(field).view(np.uint8) << 4).reshape(-1)
    ny, nx = field.shape
    size = max((ny - 1) * nx - 1, 0)
    case = bits[:size] | bits[1:size + 1] << 1 | bits[nx + 1:] << 2 | bits[nx:nx + size] << 3
    cells = np.flatnonzero(case - np.uint8(1) < 14)  # case 0 wraps to 255; row-major order
    cells = cells[cells % nx != nx - 1]
    # Each crossed cell's corner values and coordinates, shape (4, cells).
    values = field.reshape(-1)[cells + (_CORNER_DY * nx + _CORNER_DX)[:, None]]
    corner_x, corner_y = xs[cells % nx + _CORNER_DX[:, None]], ys[cells // nx + _CORNER_DY[:, None]]
    # Saddle cells use the center value to pick the separation.
    center_above = 0.25 * (((values[0] + values[1]) + values[2]) + values[3]) > level
    edges = _SEGMENT_TABLE[case[cells].astype(np.intp) << 1 | center_above]
    cell, slot = np.nonzero(edges[:, :, 0] < 4)  # in cell order, then the cell's order
    edges, cell = edges[cell, slot], cell[:, None]
    # Both ends of every segment, interpolated from its edges' corners: start
    # and stop are flat indices into the (4, cells) arrays.
    start, stop = _EDGE_FROM[edges] * cells.size + cell, _EDGE_TO[edges] * cells.size + cell
    with np.errstate(over="ignore", invalid="ignore"):
        t = (level - values.take(start)) / (values.take(stop) - values.take(start))
        px = (corner_x.take(start) + t * (corner_x.take(stop) - corner_x.take(start))).reshape(-1)
        py = (corner_y.take(start) + t * (corner_y.take(stop) - corner_y.take(start))).reshape(-1)
        keys = np.rint(np.stack([px, py], 1) * 1e9).view(np.complex128).reshape(-1)
    return _stitch(list(zip(px.tolist(), py.tolist())), keys)


def _stitch(points, keys) -> list:
    """Join segments sharing endpoints into polylines (undirected).

    ``points`` holds the two ends of each segment in turn, and the array
    ``keys`` the join key of each end. A chain grows at its end, then at its
    start: reversed, grown at its end and reversed back. At each tip it takes
    the first unused segment, in segment order, with an end at the tip's key.
    """
    # end i's key group g = group[i] has the ends order[first[g]:first[g + 1]]
    order = np.argsort(keys, kind="stable")
    new = np.ones(keys.size, bool)
    new[1:] = keys[order[1:]] != keys[order[:-1]]
    group = np.empty_like(order)
    group[order] = np.cumsum(new) - 1
    order, group, first = order.tolist(), group.tolist(), [*np.flatnonzero(new).tolist(), keys.size]
    used = [False] * (len(points) // 2)
    polylines = []
    for start in range(len(used)):
        if used[start]:
            continue
        used[start] = True
        chain = points[2 * start:2 * start + 2]
        for tip in (group[2 * start + 1], group[2 * start]):
            while True:
                for end in order[first[tip]:first[tip + 1]]:
                    if not used[end >> 1]:
                        break
                else:  # no unused segment at this tip
                    break
                used[end >> 1] = True
                chain.append(points[end ^ 1])
                tip = group[end ^ 1]
            chain.reverse()
        polylines.append(chain)
    return polylines


# Five-stop colormap for the heat maps (dark blue -> yellow): stop positions
# and their RGBA colours, all opaque.
_STOP_AT = np.array([0.00, 0.25, 0.50, 0.75, 1.00])
_STOP_RGBA = np.array([(13, 8, 135, 255), (126, 3, 168, 255), (203, 70, 121, 255),
                       (248, 149, 64, 255), (240, 249, 33, 255)], float)


def _rgba(values) -> np.ndarray:
    """RGBA channels of ``values`` on the colormap, a uint8 array of shape (n, 4).

    Values are clamped to [0, 1] (NaN counts as 0) and interpolated linearly
    between the two stops around them; each channel is rounded half to even.
    """
    t = np.fmin(np.fmax(np.asarray(values, dtype=float), 0.0), 1.0)
    upper = np.searchsorted(_STOP_AT, t).clip(1)  # first stop at or above t
    t0, t1 = _STOP_AT.take(upper - 1), _STOP_AT.take(upper)
    c0, rgba = _STOP_RGBA.take(upper - 1, 0), _STOP_RGBA.take(upper, 0)
    rgba -= c0  # c0 + f * (c1 - c0) in place, as (c1 - c0) * f + c0
    rgba *= ((t - t0) / (t1 - t0))[:, None]
    return np.rint(np.add(rgba, c0, out=rgba), out=rgba).astype(np.uint8)


def _colors(values) -> list[str]:
    """Hex colours of ``values`` on the colormap, one per value."""
    return ["#%02x%02x%02x" % tuple(rgb) for rgb in _rgba(values)[:, :3].tolist()]


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

    def polyline(self, points, stroke, stroke_width, opacity=1.0):
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


def _heat_png(reachable, magnitude, vmax) -> bytes:
    """An 8-bit RGBA PNG (W3C 2003), one pixel per cell, top row at the largest y:
    ``_rgba(magnitude / vmax)`` where ``reachable``, transparent elsewhere."""
    (ny, nx), compressor, idat = reachable.shape, zlib.compressobj(_PNG_LEVEL), []
    rows, reachable, magnitude = max(_PNG_BLOCK_CELLS // nx, 1), reachable[::-1], magnitude[::-1]
    for top, left in itertools.product(range(0, ny, rows), range(0, nx, _PNG_BLOCK_CELLS)):
        block = np.s_[top:top + rows, left:left + _PNG_BLOCK_CELLS]  # a wide row in pieces
        mask, first = reachable[block], int(left == 0)  # a row starts with its filter type
        pixels = np.zeros((len(mask), first + 4 * mask.shape[1]), np.uint8)
        pixels[:, first:].view("V4")[mask] = _rgba(magnitude[block][mask] / vmax).view("V4")[:, 0]
        idat.append(compressor.compress(pixels))
    chunks = ((b"IHDR", nx.to_bytes(4, "big") + ny.to_bytes(4, "big") + b"\x08\x06\0\0\0"),
              (b"IDAT", b"".join(idat) + compressor.flush()), (b"IEND", b""))
    return b"\x89PNG\r\n\x1a\n" + b"".join(
        len(data).to_bytes(4, "big") + kind + data + zlib.crc32(kind + data).to_bytes(4, "big")
        for kind, data in chunks)


def workspace_svg(grid, fh) -> None:
    """Write a heat map of |minimum angle| over reachable cells, as one embedded
    PNG, with contour lines at 10-50 deg, to the open text file ``fh``."""
    if grid.reachable.size == 0:  # the frame of a zero-height plot, whatever the bounds
        _Canvas(fh, 0.0, 1.0, 0.0, 0.0, _WORKSPACE_WIDTH).close()
        return
    x_min, x_max, y_min, y_max = grid.bounds
    canvas = _Canvas(fh, x_min, x_max, y_min, y_max, _WORKSPACE_WIDTH)
    magnitude = np.abs(grid.min_angle)
    vmax = float(np.nanmax(magnitude, initial=0.0)) or 1.0
    if grid.reachable.any():
        edges = np.array([-0.5, 0.5]) * grid.resolution  # the cells' outer edges
        (left, right), (top, bottom) = canvas.px(grid.xs[[0, -1]] + edges, grid.ys[[-1, 0]] - edges)
        png = binascii.b2a_base64(_heat_png(grid.reachable, magnitude, vmax), newline=False)
        canvas.write(f'<image x="{left:.2f}" y="{top:.2f}" width="{right - left:.2f}" '
                     f'height="{bottom - top:.2f}" preserveAspectRatio="none" '
                     'style="image-rendering:pixelated" xmlns:xlink="http://www.w3.org/1999/xlink" '
                     f'xlink:href="data:image/png;base64,{png.decode()}"/>\n')
    for level in _CONTOUR_LEVELS:
        for chain in marching_squares(grid.xs, grid.ys, magnitude, level):
            canvas.polyline(chain, stroke="black", stroke_width=1.0)
    canvas.close()


def overlay_svg(log, fh) -> None:
    """Write a schematic overlay of sampled configurations from a trajectory log to ``fh``.

    Links are drawn as segments along the tape midline, the pinching node as
    a circle, the tip as a dot. Samples are the initial row, the segment
    boundaries, and the final row, thinned to _MAX_OVERLAY_CONFIGS. The title,
    the log's scenario name, is escaped as XML character data; Scenario admits
    only names whose characters match the Char production of XML 1.0
    (section 2.2), so the document stays well formed.
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
    if log.scenario:
        canvas.text(min(xs) - 0.5 * margin, max(ys) + 0.5 * margin, log.scenario)
    canvas.close()
