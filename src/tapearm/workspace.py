"""Reachability and minimum end-effector-angle analysis.

For a target (x, y) with x != 0, the bend angle fixes both link lengths:

    l2 = x / sin(theta)          l1 = y - x / tan(theta)
    l1 + l2 = y + x * tan(theta / 2)

On (0, pi) with x > 0 both l1 and the total length grow monotonically with
theta, so the feasible angles form a single interval: bounded below by the
minimum-l1 constraint and above by the length budget, the hinge limit, and
(when l2_min > 0) the minimum-l2 constraint. Negative x mirrors the analysis.
Targets within STRAIGHT_X_TOL of x = 0 count as on the midline, where l1 = y
and l2 = 0 at every bent angle, besides the straight arm at theta = 0.

Feasibility at one angle is model.within_bounds with a LENGTH_TOL slack on
the length bounds, never below zero length, and ANGLE_TOL on the hinge limit.

``sweep_feasible_intervals`` is the module's brute-force oracle: it tests the
same per-angle feasibility predicate on a dense angle lattice, with no
knowledge of the interval analysis above.
"""

from __future__ import annotations

import math

import numpy as np

from .csvtext import BLOCK_FLOATS, BlockText
from .model import (BOUND_EPS, JointState, ManipulatorParams, _length_floor, _Value,
                    within_bounds)

# Targets with |x| at or below this count as on the midline: they ride the
# theta = 0 straight-arm branch, and bent, link 2 has zero length.
STRAIGHT_X_TOL = 1e-9

# Feasibility slack on the length bounds. Boundary configurations quoted at
# rounded angles stay feasible, and desk-scale actuation cannot hold bounds
# tighter than this anyway.
LENGTH_TOL = 1e-3

# Angular slack when checking the hinge limit.
ANGLE_TOL = 1e-9

GRID_CSV_HEADER = "x_m,y_m,reachable,min_angle_rad"

# Largest grid compute_grid accepts, in cells (50x the 80 000-cell map of
# --bounds -2 2 0 2 --resolution 0.01), so time and memory stay bounded.
MAX_GRID_CELLS = 4_000_000

# How far a cell's np.arctan2 lo may exceed its hi and the cell still be
# reachable by math.atan2's: 16 ulps of the larger, and 16 of the subnormals.
_SCREEN_ULPS = 16.0 * np.finfo(float).eps
_SCREEN_SUBNORMALS = 16.0 * np.finfo(float).smallest_subnormal


class AngleInterval(_Value):
    """Closed interval of feasible bend angles, radians."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo


def ik_at_theta(point, theta: float, params: ManipulatorParams) -> JointState | None:
    """Joint state reaching ``point`` at bend angle ``theta``, or None.

    Infeasibility is a value, not an error. A target within STRAIGHT_X_TOL
    of the midline counts as on it at every angle: link 2 has zero length
    when bent. theta = 0 admits only such targets; the length split then
    maximizes l2 with l1 >= l1_min, matching the deployment bias of growing
    from the base (every split is kinematically equivalent at theta = 0),
    and where that leaves link 2 below its slackened floor, link 1 gives up
    length within its own slack instead, down to the lowest length
    within_bounds admits. No length comes back negative: one within BOUND_EPS
    below zero is returned as zero.
    """
    x, y = point
    if not abs(x) <= STRAIGHT_X_TOL:  # NaN x takes this branch and fails
        if theta == 0.0:
            return None
        l2 = x / math.sin(theta)
        l1 = y - x / math.tan(theta)
    elif theta == 0.0:
        l1 = min(max(params.l1_min, y - params.max_total_length + params.l1_min),
                 max(y - _length_floor(params.l2_min, LENGTH_TOL),
                     _length_floor(params.l1_min, LENGTH_TOL) - BOUND_EPS))
        l2 = y - l1
    else:
        l1, l2 = y, 0.0
    if not within_bounds(l1, l2, theta, params, LENGTH_TOL, ANGLE_TOL):
        return None
    return JointState(l1 if l1 > 0.0 else 0.0, l2 if l2 > 0.0 else 0.0, theta)


def feasibility_mask(point, thetas, params: ManipulatorParams) -> np.ndarray:
    """Vectorized ik_at_theta feasibility over an array of bend angles."""
    x, y = point
    if abs(x) <= STRAIGHT_X_TOL:
        x = 0.0
    thetas = np.asarray(thetas, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        l2 = x / np.sin(thetas)
        l1 = y - x / np.tan(thetas)
        mask = within_bounds(l1, l2, thetas, params, LENGTH_TOL, ANGLE_TOL)
    zero = thetas == 0.0
    if np.any(zero):
        mask[zero] = ik_at_theta(point, 0.0, params) is not None
    return mask


def sweep_feasible_intervals(point, params: ManipulatorParams,
                             step: float = math.radians(0.01)) -> list[AngleInterval]:
    """Brute-force oracle: sweep the hinge range and collect feasible runs.

    Interval endpoints are resolved to the sweep step.
    """
    if not step > 0:
        raise ValueError("sweep step must be positive")
    n = int(params.theta_limit / step + 1e-9)
    thetas = np.arange(-n, n + 1) * step
    mask = feasibility_mask(point, thetas, params)
    intervals = []
    indices = np.flatnonzero(mask)
    if indices.size == 0:
        return intervals
    run_start = indices[0]
    previous = indices[0]
    for i in indices[1:]:
        if i != previous + 1:
            intervals.append(AngleInterval(float(thetas[run_start]), float(thetas[previous])))
            run_start = i
        previous = i
    intervals.append(AngleInterval(float(thetas[run_start]), float(thetas[previous])))
    return intervals


def feasible_theta_interval(point, params: ManipulatorParams) -> AngleInterval | None:
    """The interval of bend angles from which ``point`` is reachable, or None.

    Uses the closed-form bounds from the module docstring, with the same
    feasibility slack as ik_at_theta; the tests check them against the
    ``sweep_feasible_intervals`` oracle over random parameters. A NaN
    coordinate is unreachable.
    """
    x, y = point
    if abs(x) <= STRAIGHT_X_TOL:
        # On the midline l1 = y and l2 = 0 at every bent angle, so the probe
        # at the hinge limit stands for all of them; it passes only where
        # the straight split does too.
        if ik_at_theta(point, 0.0, params) is None:
            return None
        limit = params.theta_limit
        if ik_at_theta(point, limit, params) is None:
            return AngleInterval(0.0, 0.0)
        return AngleInterval(-limit, limit)

    ax = abs(x)
    lo = math.atan2(ax, y - _length_floor(params.l1_min, LENGTH_TOL))
    hi = min(params.theta_limit,
             2.0 * math.atan2(params.max_total_length + LENGTH_TOL - y, ax))
    l2_floor = _length_floor(params.l2_min, LENGTH_TOL)
    if l2_floor > 0.0:
        ratio = ax / l2_floor
        if ratio < 1.0:
            hi = min(hi, math.asin(ratio))
    if not lo <= hi:  # NaN x or y takes this branch
        return None
    return AngleInterval(lo, hi) if x > 0 else AngleInterval(-hi, -lo)


def min_end_effector_angle(point, params: ManipulatorParams) -> float | None:
    """Smallest-magnitude feasible bend angle, signed like x; None if unreachable."""
    interval = feasible_theta_interval(point, params)
    if interval is None:
        return None
    if interval.lo > 0.0:
        return interval.lo
    if interval.hi < 0.0:
        return interval.hi
    return 0.0


class WorkspaceGrid(_Value):
    """Reachability and minimum-angle samples at cell centers.

    Arrays are indexed [iy, ix]; ``min_angle`` is NaN where unreachable and
    signed like x elsewhere.
    """

    __slots__ = ("xs", "ys", "reachable", "min_angle", "resolution", "bounds")

    def __init__(self, xs: np.ndarray, ys: np.ndarray, reachable: np.ndarray,
                 min_angle: np.ndarray, resolution: float, bounds: tuple):
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "reachable", reachable)
        object.__setattr__(self, "min_angle", min_angle)
        object.__setattr__(self, "resolution", resolution)
        object.__setattr__(self, "bounds", bounds)

    @property
    def nx(self) -> int:
        return len(self.xs)

    @property
    def ny(self) -> int:
        return len(self.ys)

    @property
    def reachable_fraction(self) -> float:
        return float(self.reachable.mean()) if self.reachable.size else 0.0


def grid_centers(lo: float, hi: float, n: int, resolution: float) -> np.ndarray:
    """Cell-center coordinates laid out symmetrically about the bounds midpoint.

    The symmetric layout makes mirrored bounds produce exactly mirrored
    sample points, so workspace symmetry holds bit-for-bit. The midpoint halves
    each bound first, so bounds near the largest float do not overflow it.
    """
    center = 0.5 * lo + 0.5 * hi
    return center + (np.arange(n) - 0.5 * (n - 1)) * resolution


def _map_math(function, *arrays) -> np.ndarray:
    """``function`` applied to the floats of the 1-D ``arrays``, all of one
    length, as float64.

    The math module's libm calls, not numpy's own loops, so vectorized code
    keeps the scalar path's values bit for bit: np.arcsin differs from
    math.asin in the last bit on about 8 % of inputs, np.arctan2 from
    math.atan2 on about 2 % of grid cells, and np.sin and np.cos may differ
    from math.sin and math.cos, depending on the build. compute_grid uses
    np.arctan2 only to rule cells out, within a slack the tests check.
    """
    return np.fromiter(map(function, *(a.tolist() for a in arrays)), float, arrays[0].size)


def compute_grid(params: ManipulatorParams, bounds, resolution: float) -> WorkspaceGrid:
    """Evaluate reachability and minimum angle on square cells over ``bounds``.

    bounds = (x_min, x_max, y_min, y_max). Off the midline a cell's minimum
    angle is the closed-form lo of feasible_theta_interval, signed like x, or
    NaN unless lo <= hi; these are evaluated over grid_to_csv's blocks of at
    most BLOCK_FLOATS cells, which bound the temporaries, in the scalar path's
    operation order, so every value equals min_end_effector_angle's bit for
    bit. np.arctan2 first rules out the cells whose lo exceeds hi by more than
    a slack of _SCREEN_ULPS and _SCREEN_SUBNORMALS; math.atan2 then gives
    every other cell's lo, and its hi where the two lie within the slack.
    Cells within STRAIGHT_X_TOL of the midline call min_end_effector_angle. A
    cell is reachable where its angle is not NaN. Raises ValueError on
    non-finite input, and on a grid over MAX_GRID_CELLS cells (an empty axis
    counts as one cell wide) before allocating it.
    """
    if not (resolution > 0 and math.isfinite(resolution)):
        raise ValueError(f"resolution must be positive and finite, got {resolution}")
    x_min, x_max, y_min, y_max = bounds
    if not all(map(math.isfinite, bounds)):
        raise ValueError(f"bounds must be finite, got {tuple(bounds)}")
    if x_max < x_min or y_max < y_min:
        raise ValueError(f"invalid bounds {bounds}")
    # A tiny resolution overflows the float cell counts to inf, which the
    # clamp keeps out of round().
    nx_f = (x_max - x_min) / resolution
    ny_f = (y_max - y_min) / resolution
    nx = round(min(nx_f, MAX_GRID_CELLS + 1))
    ny = round(min(ny_f, MAX_GRID_CELLS + 1))
    if max(nx, 1) * max(ny, 1) > MAX_GRID_CELLS:
        raise ValueError(f"bounds {tuple(bounds)} at resolution {resolution} m make a grid "
                         f"over the {MAX_GRID_CELLS} cell limit; use a coarser resolution")
    xs = grid_centers(x_min, x_max, nx, resolution)
    ys = grid_centers(y_min, y_max, ny, resolution)
    angle = np.full((ny, nx), math.nan)
    ax = np.abs(xs)
    # hi's bounds that do not depend on y: the hinge limit and the l2 floor
    hi_cap = np.full(nx, params.theta_limit)
    l2_floor = _length_floor(params.l2_min, LENGTH_TOL)
    if l2_floor > 0.0:
        ratio = ax / l2_floor
        capped = ratio < 1.0
        hi_cap[capped] = np.minimum(hi_cap[capped], _map_math(math.asin, ratio[capped]))
    l1_floor = _length_floor(params.l1_min, LENGTH_TOL)
    total = params.max_total_length + LENGTH_TOL
    cols = max(1, min(nx, BLOCK_FLOATS))
    rows = max(1, BLOCK_FLOATS // cols)
    for r0 in range(0, ny, rows):
        below, above = ys[r0:r0 + rows] - l1_floor, total - ys[r0:r0 + rows]
        for c0 in range(0, nx, cols):
            bx, cap = ax[c0:c0 + cols], hi_cap[c0:c0 + cols]
            # np.arctan2 is within a quarter of the slack of math.atan2, so lo and
            # hi are within half of it: a cell with lo > hi + slack is unreachable
            lo = np.arctan2(bx, below[:, None])
            hi = np.minimum(cap, 2.0 * np.arctan2(above[:, None], bx))
            slack = _SCREEN_ULPS * np.maximum(np.abs(lo), np.abs(hi)) + _SCREEN_SUBNORMALS
            gap = lo - hi
            iy, ix = np.nonzero(gap <= slack)
            # math.atan2's lo of every other cell, and its hi where the two are close
            lo = _map_math(math.atan2, bx[ix], below[iy])
            fits = np.abs(gap[iy, ix]) > slack[iy, ix]  # lo < hi - slack
            close = np.flatnonzero(~fits)
            fits[close] = lo[close] <= np.minimum(
                cap[ix[close]], 2.0 * _map_math(math.atan2, above[iy[close]], bx[ix[close]]))
            angle[r0 + iy[fits], c0 + ix[fits]] = np.copysign(lo[fits], xs[c0 + ix[fits]])
    for ix in np.flatnonzero(ax <= STRAIGHT_X_TOL).tolist():
        x = float(xs[ix])
        for iy, y in enumerate(ys.tolist()):
            minimum = min_end_effector_angle((x, y), params)
            angle[iy, ix] = math.nan if minimum is None else minimum
    return WorkspaceGrid(xs=xs, ys=ys, reachable=~np.isnan(angle), min_angle=angle,
                         resolution=resolution, bounds=tuple(bounds))


def grid_to_csv(grid: WorkspaceGrid, fh) -> None:
    """Write the grid as CSV to the open text file ``fh``, with no angle on unreachable cells."""
    fh.write(GRID_CSV_HEADER + "\n")
    if grid.reachable.size == 0:  # no rows: format no axis value either
        return
    flags = np.frombuffer(b"0,1,", np.uint8).reshape(2, 2)
    cols = max(1, min(grid.nx, BLOCK_FLOATS))
    rows = max(1, BLOCK_FLOATS // cols)
    text = BlockText()
    # x cells are the same in every row and y cells are made BLOCK_FLOATS rows
    # at a time, each packed once, so the frames carry no word padding of theirs
    x_cells = [text.packed_cells(grid.xs[c0:c0 + cols]) for c0 in range(0, grid.nx, cols)]
    y_rows = rows * max(1, BLOCK_FLOATS // rows)
    # compute_grid's blocks, in file order; each formats its reachable angles in one call
    for r0 in range(0, grid.ny, rows):
        if not r0 % y_rows:
            y_cells = text.packed_cells(grid.ys[r0:r0 + y_rows, None])
        for c0, x in zip(range(0, grid.nx, cols), x_cells):
            reach = grid.reachable[r0:r0 + rows, c0:c0 + cols]
            found = text.float_cells(grid.min_angle[r0:r0 + rows, c0:c0 + cols][reach], "\n")
            angle = np.zeros(reach.shape + found.shape[1:], np.uint8)  # unreachable: "\n"
            angle[..., -1] = ord("\n")
            angle[reach] = found
            fh.write(text.join_cells(x, y_cells[r0 % y_rows:][:rows],
                                     np.take(flags, reach.view(np.uint8), axis=0), angle))
