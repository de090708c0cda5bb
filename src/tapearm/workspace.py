"""Reachability and minimum end-effector-angle analysis.

For a target (x, y) with x != 0, the bend angle fixes both link lengths:

    l2 = x / sin(theta)          l1 = y - x / tan(theta)
    l1 + l2 = y + x * tan(theta / 2)

On (0, pi) with x > 0 both l1 and the total length grow monotonically with
theta, so the feasible angles form a single interval: bounded below by the
minimum-l1 constraint and above by the length budget, the hinge limit, and
(when l2_min > 0) the minimum-l2 constraint. Negative x mirrors the analysis;
x = 0 rides the straight-arm branch.

``sweep_feasible_intervals`` is the module's brute-force oracle: it tests the
same per-angle feasibility predicate on a dense angle lattice, with no
knowledge of the interval analysis above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import BOUND_EPS, JointState, ManipulatorParams

# Targets with |x| at or below this ride the theta = 0 straight-arm branch.
STRAIGHT_X_TOL = 1e-9

# Feasibility slack on the length bounds. Boundary configurations quoted at
# rounded angles stay feasible, and desk-scale actuation cannot hold bounds
# tighter than this anyway.
LENGTH_TOL = 1e-3

# Angular slack when checking the hinge limit.
ANGLE_TOL = 1e-9

# Smallest positive bend angle: the bent angle closest to straight.
_SMALLEST_ANGLE = math.ulp(0.0)

GRID_CSV_HEADER = "x_m,y_m,reachable,min_angle_rad"

# Largest grid compute_grid accepts, in cells (50x the 80 000-cell map of
# --bounds -2 2 0 2 --resolution 0.01), so time and memory stay bounded.
MAX_GRID_CELLS = 4_000_000


@dataclass(frozen=True)
class AngleInterval:
    """Closed interval of feasible bend angles, radians."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, theta: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= theta <= self.hi + tol


def _feasible(l1: float, l2: float, theta: float, params: ManipulatorParams,
              length_tol: float) -> bool:
    return (math.isfinite(l1) and math.isfinite(l2)
            and l1 >= params.l1_min - length_tol - BOUND_EPS
            and l2 >= params.l2_min - length_tol - BOUND_EPS
            and l1 + l2 <= params.max_total_length + length_tol + BOUND_EPS
            and abs(theta) <= params.theta_limit + ANGLE_TOL)


def ik_at_theta(point, theta: float, params: ManipulatorParams,
                length_tol: float = LENGTH_TOL) -> JointState | None:
    """Joint state reaching ``point`` at bend angle ``theta``, or None.

    Infeasibility is a value, not an error. theta = 0 admits only straight
    targets (|x| within STRAIGHT_X_TOL); the length split then maximizes l2,
    matching the deployment bias of growing from the base (every split is
    kinematically equivalent at theta = 0).
    """
    x, y = point
    if theta == 0.0:
        if abs(x) > STRAIGHT_X_TOL:
            return None
        l1 = max(params.l1_min, y - params.max_total_length + params.l1_min)
        l2 = y - l1
    else:
        l2 = x / math.sin(theta)
        l1 = y - x / math.tan(theta)
    if not _feasible(l1, l2, theta, params, length_tol):
        return None
    return JointState(l1, l2, theta)


def feasibility_mask(point, thetas, params: ManipulatorParams,
                     length_tol: float = LENGTH_TOL) -> np.ndarray:
    """Vectorized ik_at_theta feasibility over an array of bend angles."""
    x, y = point
    thetas = np.asarray(thetas, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        l2 = x / np.sin(thetas)
        l1 = y - x / np.tan(thetas)
        mask = (np.isfinite(l1) & np.isfinite(l2)
                & (l1 >= params.l1_min - length_tol - BOUND_EPS)
                & (l2 >= params.l2_min - length_tol - BOUND_EPS)
                & (l1 + l2 <= params.max_total_length + length_tol + BOUND_EPS)
                & (np.abs(thetas) <= params.theta_limit + ANGLE_TOL))
    zero = thetas == 0.0
    if np.any(zero):
        mask[zero] = ik_at_theta(point, 0.0, params, length_tol) is not None
    return mask


def sweep_feasible_intervals(point, params: ManipulatorParams,
                             step: float = math.radians(0.01),
                             length_tol: float = LENGTH_TOL) -> list[AngleInterval]:
    """Brute-force oracle: sweep the hinge range and collect feasible runs.

    Interval endpoints are resolved to the sweep step.
    """
    if not step > 0:
        raise ValueError("sweep step must be positive")
    n = int(params.theta_limit / step + 1e-9)
    thetas = np.arange(-n, n + 1) * step
    mask = feasibility_mask(point, thetas, params, length_tol)
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


def feasible_theta_interval(point, params: ManipulatorParams,
                            length_tol: float = LENGTH_TOL) -> list[AngleInterval]:
    """Maximal intervals of bend angles from which ``point`` is reachable.

    Uses the closed-form bounds from the module docstring, with the same
    feasibility slack as ik_at_theta; the tests check them against the
    ``sweep_feasible_intervals`` oracle over random parameters.
    """
    x, y = point
    if abs(x) <= STRAIGHT_X_TOL:
        # On the midline l2 = 0 at every bent angle, so the probe at the
        # hinge limit stands for all of them; it passes when l2_min is within
        # the length slack. A feasible straight split (which maximizes l2)
        # makes a point within STRAIGHT_X_TOL count as on the midline.
        # Otherwise the bent angles of a point on the midline stop one float
        # short of zero, and just off it only x's side is left, as in the
        # general case below.
        midline = (0.0, y)
        limit = params.theta_limit
        bent = ik_at_theta(midline, limit, params, length_tol) is not None
        if ik_at_theta(midline, 0.0, params, length_tol) is not None:
            return [AngleInterval(-limit, limit) if bent else AngleInterval(0.0, 0.0)]
        if x == 0.0:
            if bent:
                return [AngleInterval(-limit, -_SMALLEST_ANGLE),
                        AngleInterval(_SMALLEST_ANGLE, limit)]
            return []

    ax = abs(x)
    lo = math.atan2(ax, y - (params.l1_min - length_tol))
    hi = min(params.theta_limit,
             2.0 * math.atan2(params.max_total_length + length_tol - y, ax))
    l2_floor = params.l2_min - length_tol
    if l2_floor > 0.0:
        ratio = ax / l2_floor
        if ratio < 1.0:
            hi = min(hi, math.asin(ratio))
    if lo > hi:
        return []
    return [AngleInterval(lo, hi) if x > 0 else AngleInterval(-hi, -lo)]


def min_end_effector_angle(point, params: ManipulatorParams,
                           length_tol: float = LENGTH_TOL) -> float | None:
    """Smallest-magnitude feasible bend angle, signed like x; None if unreachable."""
    intervals = feasible_theta_interval(point, params, length_tol)
    if not intervals:
        return None
    best = None
    for interval in intervals:
        if interval.lo <= 0.0 <= interval.hi:
            candidate = 0.0
        elif interval.lo > 0.0:
            candidate = interval.lo
        else:
            candidate = interval.hi
        if best is None or abs(candidate) < abs(best):
            best = candidate
    return 0.0 if best == 0.0 else best


def reachable(point, params: ManipulatorParams, length_tol: float = LENGTH_TOL) -> bool:
    """True iff some feasible bend angle reaches the point."""
    return bool(feasible_theta_interval(point, params, length_tol))


@dataclass
class WorkspaceGrid:
    """Reachability and minimum-angle samples at cell centers.

    Arrays are indexed [iy, ix]; ``min_angle`` is NaN where unreachable and
    signed like x elsewhere.
    """

    xs: np.ndarray
    ys: np.ndarray
    reachable: np.ndarray
    min_angle: np.ndarray
    resolution: float
    bounds: tuple

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
    sample points, so workspace symmetry holds bit-for-bit.
    """
    center = 0.5 * (lo + hi)
    return np.array([center + (i - 0.5 * (n - 1)) * resolution for i in range(n)])


def compute_grid(params: ManipulatorParams, bounds, resolution: float,
                 length_tol: float = LENGTH_TOL) -> WorkspaceGrid:
    """Evaluate reachability and minimum angle on square cells over ``bounds``.

    bounds = (x_min, x_max, y_min, y_max). Cell evaluation is independent per
    cell, so the result does not depend on evaluation order. Raises
    ValueError on non-finite input, and on a grid over MAX_GRID_CELLS cells
    (an empty axis counts as one cell wide) before allocating it.
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
        raise ValueError(f"a {nx_f:.7g} x {ny_f:.7g} cell grid exceeds the "
                         f"{MAX_GRID_CELLS} cell limit; use a coarser resolution")
    xs = grid_centers(x_min, x_max, nx, resolution)
    ys = grid_centers(y_min, y_max, ny, resolution)
    reach = np.zeros((ny, nx), dtype=bool)
    angle = np.full((ny, nx), math.nan)
    for iy, y in enumerate(ys):
        for ix, x in enumerate(xs):
            minimum = min_end_effector_angle((float(x), float(y)), params, length_tol)
            if minimum is not None:
                reach[iy, ix] = True
                angle[iy, ix] = minimum
    return WorkspaceGrid(xs=xs, ys=ys, reachable=reach, min_angle=angle,
                         resolution=resolution, bounds=tuple(bounds))


def grid_to_csv(grid: WorkspaceGrid, path) -> None:
    """Write the grid as CSV; min_angle is left empty on unreachable cells."""
    x_text = [f"{x!r}," for x in grid.xs.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write(GRID_CSV_HEADER + "\n")
        for y, reach, angle in zip(grid.ys.tolist(), grid.reachable, grid.min_angle):
            y_text = f"{y!r},"
            fh.write("".join(f"{x}{y_text}1,{a!r}\n" if r else f"{x}{y_text}0,\n"
                             for x, r, a in zip(x_text, reach.tolist(), angle.tolist())))
