"""Quasi-static scenario execution.

Rate commands integrate exactly within a segment (the state at any step is
computed in closed form from the segment start), so identical scenarios
produce bit-identical logs and segment-boundary states do not depend on the
step size. Constraint violations are recorded on the log rows, never
clamped; only a cable differential outside the reachable range aborts a run,
since no kinematic state exists for it. The aborted run keeps the rows logged
before it. Scenario evaluates the log's row 0 and each segment's end as the
run does, and refuses at load any profile the run could not complete: a start
off its cables, a clock past the largest float, or rates that overflow the state.

The log is columnar: float64 arrays, and a bool per row that marks the rows
outside a bound. A LogRow and its violations are built only when it is read.
"""

from __future__ import annotations

import functools
import math
import os
import re
from collections.abc import Sequence

import numpy as np

from .csvtext import BLOCK_FLOATS, BlockText
from .model import (
    CABLE_RANGE_SLACK,
    DEFAULT_PARAMS,
    CablePair,
    CableRangeError,
    ControlState,
    JointState,
    ManipulatorParams,
    _Value,
    cable_lengths,
    forward_kinematics,
    link_lengths,
    validate_states,
    within_bounds,
)
from .planner import (
    ControlProfile,
    PlanningError,
    RateCommand,
    _require_within_bounds,
    control_from_state,
    plan_trajectory,
    stationary_bend_rates,
)
from .units import parse_angle
from .workspace import _map_math, feasible_theta_interval, ik_at_theta

INITIAL_CONSISTENCY_TOL = 1e-9

LOG_CSV_HEADER = ("t_s,q1_m,q2_m,cL_m,cR_m,l1_m,l2_m,theta_rad,x_m,y_m,"
                  "eq3_residual_m,violations")

# The float columns of a run log, in LogRow and CSV order.
LOG_COLUMNS = ("t", "q1", "q2", "cL", "cR", "l1", "l2", "theta", "x", "y", "eq3_residual")
_JOINT = slice(LOG_COLUMNS.index("l1"), LOG_COLUMNS.index("theta") + 1)  # what the bounds read

# Largest log a scenario may produce, in rows (the initial row included; about
# 19x perfbench's 53k-row replay), so time and memory stay bounded; checked
# before anything is allocated.
MAX_LOG_ROWS = 1_000_000

# Longest file name, in bytes, that common file systems accept.
_NAME_MAX = 255

# Rows evaluated per block.
_BLOCK_ROWS = 4096

_NEWLINE = np.frombuffer(b"\n", np.uint8)


class ScenarioError(ValueError):
    """Scenario definition is malformed or kinematically inconsistent."""


class SimState(_Value):
    """The start of a run at t = 0: actuator coordinates and cable lengths."""

    __slots__ = ("control", "cables")

    def __init__(self, control: ControlState, cables: CablePair):
        object.__setattr__(self, "control", control)
        object.__setattr__(self, "cables", cables)


def initial_state(control: ControlState, theta: float, params: ManipulatorParams) -> SimState:
    """Consistent starting state with cable lengths derived from the angle."""
    joint = JointState(*link_lengths(control), theta)
    return SimState(control, cable_lengths(joint, params.cable_offset))


# --- scenarios -------------------------------------------------------------

class Scenario(_Value):
    """A runnable experiment: parameters, start state, profile and checks."""

    __slots__ = ("name", "params", "initial", "profile", "dt", "checks")

    def __init__(self, name: str, params: ManipulatorParams, initial: SimState,
                 profile: ControlProfile, dt: float = 0.01, checks: tuple = ()):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "checks", tuple(checks))
        # The start needs a kinematic state, a bend angle and finite link
        # lengths, that its cable sum matches.
        table, ends = _segment_ends(self)
        JointState(*ends[_JOINT, 0].tolist())
        if ends[-1, 0] > INITIAL_CONSISTENCY_TOL:
            raise ScenarioError("initial state is inconsistent: cable sum does not "
                                "match the link lengths")
        # The CLI writes <out>/<name>_log.csv, so a name must not leave --out.
        if self.name in ("", ".", "..") or any(
                sep and sep in self.name for sep in ("/", os.sep, os.altsep)):
            raise ScenarioError(f"scenario name {self.name!r} is empty, '.', '..' or "
                                "contains a path separator")
        # Nor may it fail only after the run: as a file name, or as the UTF-8
        # text of the overlay's title, which holds only the characters of XML
        # 1.0's Char production (section 2.2) that UTF-8 can encode.
        if re.search("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]", self.name):
            raise ScenarioError(f"scenario name {self.name!r} has a character XML cannot carry")
        try:
            size = len(f"{self.name}_overlay.svg".encode())
        except UnicodeEncodeError as exc:
            raise ScenarioError(f"scenario name {self.name!r} is not valid UTF-8 text: "
                                f"{exc.reason}") from None
        if size > _NAME_MAX:
            raise ScenarioError(f"scenario name makes the {size}-byte file name "
                                f"'<name>_overlay.svg'; at most {_NAME_MAX} bytes fit")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ScenarioError(f"dt must be positive and finite, got {self.dt}")
        with np.errstate(all="ignore"):  # a count past a float's range: inf - inf
            steps = table[5, 1:] / self.dt
            whole = (np.round(steps) >= 1.0) & (np.abs(steps - np.round(steps))
                                                <= 1e-9 * np.maximum(1.0, steps))
        if not whole.all():
            raise ScenarioError(f"segment duration {self.profile.segments[np.argmin(whole)][0]} "
                                f"s is not a whole number of dt={self.dt} s steps, at least one")
        if not math.isfinite(clock := float(ends[0, -1])):
            raise ScenarioError(f"the segment durations add up to {clock} s, past a float's range")
        if (rows := table[12, -1] + 1.0) > MAX_LOG_ROWS:  # a float: it may pass int64's range
            raise ScenarioError(f"the profile logs {rows:.0f} rows at dt={self.dt} s, over the "
                                f"{MAX_LOG_ROWS} row limit; use a larger dt or a shorter profile")
        for check in self.checks:
            parse_check(check)  # fail fast on malformed checks
        # A finite segment end bounds the segment: every coordinate is affine in t.
        finite = np.isfinite(ends[1:-1, 1:]).all(axis=0)
        if not finite.all():
            raise ScenarioError(f"segment {int(np.argmin(finite))} drives the state to "
                                "non-finite values")


class LogRow(_Value):
    """One sampled instant plus its consistency audit: ``eq3_residual`` is the
    drift, in m, of the left cable from what l1, l2 and theta imply."""

    __slots__ = (*LOG_COLUMNS, "violations")

    def __init__(self, t, q1, q2, cL, cR, l1, l2, theta, x, y, eq3_residual, violations):
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "q1", q1)
        object.__setattr__(self, "q2", q2)
        object.__setattr__(self, "cL", cL)
        object.__setattr__(self, "cR", cR)
        object.__setattr__(self, "l1", l1)
        object.__setattr__(self, "l2", l2)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "eq3_residual", eq3_residual)
        object.__setattr__(self, "violations", violations)


class CheckResult(_Value):
    """Outcome of one named check over a trajectory."""

    __slots__ = ("check", "passed", "observed", "threshold", "detail")

    def __init__(self, check: str, passed: bool, observed: float, threshold: float, detail: str):
        object.__setattr__(self, "check", check)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "observed", observed)
        object.__setattr__(self, "threshold", threshold)
        object.__setattr__(self, "detail", detail)


class Abort(_Value):
    """Why and when a run stopped before the end of its profile."""

    __slots__ = ("time", "reason")

    def __init__(self, time: float, reason: str):
        object.__setattr__(self, "time", time)  # s, the first instant with no kinematic state
        object.__setattr__(self, "reason", reason)


class LogRows(_Value, Sequence):
    """The logged rows of a run, stored as columns: a read-only sequence of LogRow.

    ``values`` is a read-only float64 array with one row per name in
    LOG_COLUMNS and one column per logged instant; ``outside`` is a read-only
    bool array, true for each row outside a bound of ``params``. A LogRow,
    with the violations of such a row, is built only when read.
    """

    __slots__ = ("values", "params", "outside")

    def __init__(self, values: np.ndarray, params: ManipulatorParams, outside: np.ndarray):
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "outside", outside)

    @property
    def violations(self) -> dict:
        """The violations of each row outside a bound, keyed by row index."""
        marked = np.flatnonzero(self.outside)
        return dict(zip(marked.tolist(),
                        map(tuple, validate_states(*self.values[_JOINT, marked], self.params))))

    def column(self, name: str):
        """The float64 array of one LOG_COLUMNS column, one entry per row."""
        return self.values[LOG_COLUMNS.index(name)]

    def __len__(self) -> int:
        return self.values.shape[1]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        index = range(len(self))[index]  # negative indices and IndexError as for a list
        violations = (tuple(validate_states(*self.values[_JOINT, [index]], self.params)[0])
                      if self.outside[index] else ())
        return LogRow(*self.values[:, index].tolist(), violations)

    def __eq__(self, other):
        if not isinstance(other, LogRows):
            return NotImplemented
        # outside, and so every violation, follows from values and params
        return self.params == other.params and np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        return f"<LogRows: {len(self)} rows, {np.count_nonzero(self.outside)} with violations>"


class TrajectoryLog(_Value):
    """Time series of a scenario run plus per-check outcomes.

    An aborted run holds the rows logged before ``abort.time`` and no check
    outcomes, since checks grade the whole profile.
    """

    __slots__ = ("scenario", "rows", "checks", "boundary_indices", "abort")

    def __init__(self, scenario: str, rows: LogRows, checks: list, boundary_indices: list,
                 abort: Abort | None = None):
        object.__setattr__(self, "scenario", scenario)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "checks", checks)
        object.__setattr__(self, "boundary_indices", boundary_indices)
        object.__setattr__(self, "abort", abort)

    @property
    def all_passed(self) -> bool:
        return self.abort is None and all(result.passed for result in self.checks)

    @property
    def final(self) -> LogRow:
        return self.rows[-1]


def _evaluate_rows(out, outside, start, rates, t_rels, datum, params: ManipulatorParams):
    """Fill the columns ``out`` and the flags ``outside`` with a block of rows.

    For each row, ``start`` holds its segment's start as (t, q1, q2, cL, cR),
    ``rates`` the (q1, q2, cL, cR) rates in m/s and ``t_rels`` the time since
    that start; ``datum`` is the (l1_0, l2_0) link lengths at q1 = q2 = 0.
    Each row is computed in closed form from the start, elementwise in the
    operation order of link_lengths, theta_from_cables, forward_kinematics
    and cable_lengths, so every value is bit-identical to what those
    functions return. ``outside`` marks the rows outside a bound, except
    those with a non-finite link length, whose segment end Scenario refuses.

    Returns (rows, None), or (row, reason) when ``row`` is the first whose
    cable differential is one no bend angle can produce; it and the rows
    after it are filled but hold no kinematic state.
    """
    t0, q1_0, q2_0, cL_0, cR_0 = start
    q1_rate, q2_rate, cL_rate, cR_rate = rates
    l1_0, l2_0 = datum
    d = params.cable_offset
    four_d = 4.0 * d
    cL = cL_0 + cL_rate * t_rels
    cR = cR_0 + cR_rate * t_rels
    ratio = (cL - cR) / four_d
    q1 = q1_0 + q1_rate * t_rels
    q2 = q2_0 + q2_rate * t_rels
    l1 = q1 + q2 + l1_0
    l2 = -q2 + l2_0
    # max(-1.0, min(1.0, ratio)) as Python evaluates it: NaN clamps to 1.0
    clamped = np.where(ratio < 1.0, ratio, 1.0)
    theta = 2.0 * _map_math(math.asin, np.where(clamped > -1.0, clamped, -1.0))
    total = l1 + l2
    residual = np.abs(cL - (total + 2.0 * d * _map_math(math.sin, 0.5 * theta)))
    rows = (t0 + t_rels, q1, q2, cL, cR, l1, l2, theta,
            l2 * _map_math(math.sin, theta), l1 + l2 * _map_math(math.cos, theta), residual)
    for column, values in zip(out, rows):
        column[:] = values
    outside[:] = ~within_bounds(l1, l2, theta, params) & np.isfinite(l1) & np.isfinite(l2)
    beyond = np.flatnonzero(np.abs(ratio) > 1.0 + CABLE_RANGE_SLACK)
    if not beyond.size:
        return len(t_rels), None
    row = int(beyond[0])
    return row, (f"cable differential {float(cL[row] - cR[row]):.9g} m is outside "
                 f"the +/-{four_d:.9g} m range reachable at offset d={d:.9g} m")


def _segment_table(scenario: Scenario) -> np.ndarray:
    """The segments of ``scenario``, one column each, headed by row 0 as a
    one-row segment of zero rates at t_rel = -0.0, which adds -0.0 to each
    start value and so keeps it, negative zeros included.

    Rows: the rates of t, q1, q2, cL and cR, the duration, the start, and the
    float row numbers before the first and of the last row of each segment. A
    segment starts where the one before ends, bit for bit that last row.
    """
    segments, control, cables = (scenario.profile.segments, scenario.initial.control,
                                 scenario.initial.cables)
    table = np.zeros((13, len(segments) + 1))
    table[:6, 1:] = np.fromiter(((1.0, command.q1_rate, command.q2_rate, command.cL_rate,
                                  command.cR_rate, duration) for duration, command in segments),
                                np.dtype((float, 6)), len(segments)).T
    table[5, 0], table[11, 0] = -0.0, -1.0
    np.add.accumulate(np.round(table[5, 1:] / scenario.dt), out=table[12, 1:])
    table[11, 1:] = table[12, :-1]
    table[6:11, 0] = (0.0, control.q1, control.q2, cables.c_L, cables.c_R)
    table[6:11, 1:] = (table[:5] * table[5])[:, :-1]
    np.add.accumulate(table[6:11], axis=1, out=table[6:11])
    return table


def _segment_ends(scenario: Scenario):
    """(table, ends): the _segment_table of ``scenario`` and the columns of its
    log's row 0 and each segment's end as run_scenario evaluates them, or a
    CableRangeError if row 0 holds no bend angle."""
    control = scenario.initial.control
    with np.errstate(all="ignore"):  # Scenario refuses a profile that overflows
        table = _segment_table(scenario)
        ends = np.empty((len(LOG_COLUMNS), table.shape[1]))
        filled, reason = _evaluate_rows(ends, np.empty(table.shape[1], bool), table[6:11],
                                        table[1:5], table[5], (control.l1_0, control.l2_0),
                                        scenario.params)
    if filled == 0:
        raise CableRangeError(reason)
    return table, ends


def run_scenario(scenario: Scenario) -> TrajectoryLog:
    """Execute the profile and grade every named check.

    The log has one row per step plus the initial row. Rows carry the cable
    consistency residual and mark any bound violations; checks are evaluated
    over the whole series after stepping. A cable differential no bend angle can
    produce ends the run early with ``abort`` set and the rows before it kept.
    Rows are evaluated _BLOCK_ROWS at a time, each from its segment's start and
    rates, so temporaries stay bounded; the log is allocated once, at full length.
    """
    params, dt, control = scenario.params, scenario.dt, scenario.initial.control
    datum = (control.l1_0, control.l2_0)
    with np.errstate(all="ignore"):  # the sum l1 + l2 of huge finite lengths overflows
        table = _segment_table(scenario)
        lasts = table[12].astype(np.int64)  # the last row of each segment
        values = np.empty((len(LOG_COLUMNS), int(lasts[-1]) + 1))
        outside, abort = np.empty(values.shape[1], bool), None
        for first in range(0, values.shape[1], _BLOCK_ROWS):
            stop = min(first + _BLOCK_ROWS, values.shape[1])
            index = np.arange(first, stop)
            block = table[:, np.searchsorted(lasts, index)]
            # Constant rates integrate exactly; evaluating from the segment
            # start keeps boundary states independent of dt.
            t_rels = (index - block[11]) * dt
            np.copyto(t_rels, block[5], where=index == block[12])
            filled, reason = _evaluate_rows(values[:, first:stop], outside[first:stop],
                                            block[6:11], block[1:5], t_rels, datum, params)
            if reason is not None:
                abort = Abort(float(block[6, filled]) + float(t_rels[filled]), reason)
                break
    done = int(np.searchsorted(lasts, first + filled))  # segments 1 to done - 1 ended
    values, outside = values[:, :first + filled], outside[:first + filled]
    values.flags.writeable = outside.flags.writeable = False
    rows = LogRows(values, params, outside)
    checks = ([evaluate_check(check, rows) for check in scenario.checks]
              if abort is None else [])
    return TrajectoryLog(scenario=scenario.name, rows=rows, checks=checks,
                         boundary_indices=lasts[1:done].tolist(), abort=abort)


def log_to_csv(log: TrajectoryLog, fh) -> None:
    """Write the run log, with the standard column header, to the open text file ``fh``.

    Every float is its shortest round-trip ``repr``, byte for byte, from
    ``csvtext.BlockText``, BLOCK_FLOATS floats and one write per block. A
    block's marked rows have their violations named as text from its columns.
    """
    rows = log.rows
    # the residual column, zero or below 1e-4 in most runs, takes repr's path
    # in its own working set, where the other columns take the fast path
    text, residual_text = BlockText(), BlockText()
    fh.write(LOG_CSV_HEADER + "\n")
    block_rows = BLOCK_FLOATS // len(LOG_COLUMNS)
    for first in range(0, len(rows), block_rows):
        block = rows.values[:, first:first + block_rows]
        count = block.shape[1]
        marked = np.flatnonzero(rows.outside[first:first + count])
        texts = np.zeros((count, 0), np.uint8)  # a block in bounds: no violation column
        if marked.size:
            named = np.full(count, "", object)
            named[marked] = list(map(";".join, validate_states(
                *block[_JOINT, marked], rows.params, text=True)))
            texts = named.astype(bytes).view(np.uint8).reshape(count, -1)
        fh.write(text.join_cells(text.float_cells(block[:-1].T).reshape(count, -1),
                                 residual_text.float_cells(block[-1]), texts, _NEWLINE))


# --- named checks ----------------------------------------------------------

def _parse_point(arg: str) -> tuple[float, float]:
    """Read '(x,y)' in meters: exactly two numbers in parentheses."""
    text = arg.strip()
    fields = text[1:-1].split(",") if text[:1] + text[-1:] == "()" else ()
    if len(fields) != 2:
        raise ValueError(f"expected '(x,y)', got {arg!r}")
    return float(fields[0]), float(fields[1])


def _parse_radians(arg: str) -> float:
    try:
        return parse_angle(arg, default_unit="rad")
    except ValueError:
        raise ValueError(f"expected an angle such as '0.3', '0.3rad' or '17deg', "
                         f"got {arg!r}") from None


# A reduction is (at, combine), and the final row alone is the max over it; a
# per-row quantity(rows, arg, at, combine) is evaluated on the rows at ``at``,
# or on fewer where it can tell that the others do not change what combine
# returns.
_MAX, _MIN, _FINAL = (slice(None), np.max), (slice(None), np.min), (slice(-1, None), np.max)

# How far a row's np.hypot distance may lie from np.hypot's extreme and the
# row still hold math.hypot's: 8 ulps of the extreme, and 8 of the subnormals.
_HYPOT_ULPS = 8.0 * np.finfo(float).eps
_HYPOT_SUBNORMALS = 8.0 * np.finfo(float).smallest_subnormal


def _l1_drift(rows, arg, at, combine):
    return np.abs(rows.column("l1")[at] - rows.column("l1")[0])


def _theta_gap(rows, target, at, combine):
    return np.abs(rows.column("theta")[at] - target)


def _distance(rows, point, at, combine):
    """math.hypot distances of the end effector from ``point``, _BLOCK_ROWS rows
    at a time, of the rows that can hold their extreme under ``combine``.

    Those are the rows whose np.hypot distance lies within _HYPOT_ULPS and
    _HYPOT_SUBNORMALS of np.hypot's extreme. Each hypot is within 1 ulp of the
    exact distance, so the row of math.hypot's extreme is within about 4 ulps
    of np.hypot's, and combine's result over the rows kept is its result over
    every row, bit for bit. Every row is kept where the extreme plus that
    slack is not finite: a NaN, an infinite extreme, or one within 8 ulps of
    overflow.
    """
    xs, ys = rows.column("x")[at] - point[0], rows.column("y")[at] - point[1]
    rough = np.hypot(xs, ys)
    bound = float(combine(rough))
    slack = _HYPOT_ULPS * bound + _HYPOT_SUBNORMALS
    if math.isfinite(bound + slack):
        rough -= bound
        near = np.flatnonzero(np.abs(rough, out=rough) <= slack)
        xs, ys = xs[near], ys[near]
    return np.concatenate([_map_math(math.hypot, xs[first:first + _BLOCK_ROWS],
                                     ys[first:first + _BLOCK_ROWS])
                           for first in range(0, len(xs), _BLOCK_ROWS)])


def _residual(rows, arg, at, combine):
    return rows.column("eq3_residual")[at]


def _growth_mismatch(rows):
    """(observed, detail) of l1_growth_equals_node_drive, from the first and last rows."""
    growth, node_drive = (np.diff(rows.column(name)[[0, -1]]).item() for name in ("l1", "q2"))
    mismatch = abs(growth - node_drive)
    if growth <= 0.0:
        return math.inf, f"l1 did not grow (change {growth:.3g} m)"
    return mismatch, (f"l1 grew {growth:.6g} m vs node drive {node_drive:.6g} m "
                      f"(mismatch {mismatch:.3g} m)")


_L1_DRIFT = (_l1_drift, _MAX, "max |l1 - l1(0)| = {observed:.3g} m")
_POINT = "({arg[0]:.6g}, {arg[1]:.6g}) m"

_CHECKS = {
    # name: (argument reader or None, default tolerance, per-row quantity,
    #        reduction, detail text of arg and observed), or a quantity that
    #        grades the rows itself and no reduction
    "l1_constant": (None, 1e-6, *_L1_DRIFT),
    # The bend point sits at (0, l1) in the world frame, so its position is
    # constant exactly when l1 is.
    "bend_point_constant": (None, 1e-6, *_L1_DRIFT),
    "theta_constant": (_parse_radians, 1e-6, _theta_gap, _MAX,
                       "max |theta - {arg:.6g} rad| = {observed:.3g} rad"),
    "final_theta": (_parse_radians, 1e-6, _theta_gap, _FINAL,
                    "|final theta - {arg:.6g} rad| = {observed:.3g} rad"),
    "theta_visits": (_parse_radians, 1e-6, _theta_gap, _MIN,
                     "closest approach to theta={arg:.6g} rad is {observed:.3g} rad"),
    "target": (_parse_point, 1e-3, _distance, _FINAL,
               "final pose misses " + _POINT + " by {observed:.3g} m"),
    "visits_target": (_parse_point, 1e-3, _distance, _MIN,
                      "closest approach to " + _POINT + " is {observed:.3g} m"),
    "target_held": (_parse_point, 1e-3, _distance, _MAX,
                    "max distance from " + _POINT + " is {observed:.3g} m"),
    "eq3_residual": (None, 1e-9, _residual, _MAX,
                     "max cable consistency residual = {observed:.3g} m"),
    "l1_growth_equals_node_drive": (None, 1e-6, _growth_mismatch, None, None),
}


def parse_check(text: str):
    """Parse 'name[:arg][:tol]' with an optional leading 'expect_fail:'.

    Angle arguments take deg/rad suffixes (bare numbers are radians); point
    arguments are '(x,y)' in meters; tolerances are plain numbers in the
    check's native unit, finite and >= 0. Returns (expect_fail, name, parsed
    argument or None, tolerance, the (quantity, reduction, detail) of _CHECKS);
    any malformed or non-finite part is a ScenarioError naming ``text``.
    """
    expect_fail = text.startswith("expect_fail:")
    body = text[len("expect_fail:"):] if expect_fail else text
    name, *rest = body.split(":")
    if name not in _CHECKS:
        raise ScenarioError(f"unknown check {name!r}; known checks: {sorted(_CHECKS)}")
    reader, default_tol, *grading = _CHECKS[name]
    if reader and not rest:
        raise ScenarioError(f"check {name!r} requires an argument")
    if len(rest) > (2 if reader else 1):
        raise ScenarioError(f"malformed check {text!r}")
    try:
        arg = reader(rest.pop(0)) if reader else None
        tol = float(rest[0]) if rest else default_tol
    except ValueError as exc:
        raise ScenarioError(f"check {text!r}: {exc}") from None
    if not ((arg is None or np.isfinite(arg).all()) and 0.0 <= tol < math.inf):
        raise ScenarioError(f"check {text!r}: arguments must be finite, and tolerances "
                            "finite and >= 0")
    return expect_fail, name, arg, tol, tuple(grading)


def evaluate_check(text: str, rows: LogRows) -> CheckResult:
    """Grade one named check over the logged rows, as reductions over their columns."""
    expect_fail, name, arg, tol, (quantity, reduction, detail) = parse_check(text)
    with np.errstate(all="ignore"):  # differences of huge coordinates overflow to inf
        if reduction is None:
            observed, detail = quantity(rows)
        else:
            observed = float(reduction[1](quantity(rows, arg, *reduction)))
            detail = detail.format(arg=arg, observed=observed)
    passed = observed <= tol
    if expect_fail:
        outcome = "failed as expected" if not passed else "unexpectedly passed"
        passed, detail = not passed, f"inner check {outcome}: {detail}"
    return CheckResult(check=text, passed=passed, observed=observed, threshold=tol,
                       detail=detail)


# --- built-in demonstration scenarios --------------------------------------

def _demo(name: str, params: ManipulatorParams, start: JointState, profile: ControlProfile,
          checks: tuple) -> Scenario:
    """The demo ``name``: ``profile`` from the consistent start at ``start``, at dt = 0.01 s."""
    return Scenario(name, params, initial_state(control_from_state(start), start.theta, params),
                    profile, 0.01, checks)


def _deploy_and_bend(params: ManipulatorParams) -> Scenario:
    # Stowed -> extend the tapes -> reposition the node -> bend to 30 deg.
    stowed = JointState(params.l1_min, 0.004, 0.0)
    extended = JointState(params.l1_min + 0.6, 0.004, 0.0)
    node_set = JointState(params.l1_min + 0.3, 0.304, 0.0)
    bent = JointState(node_set.l1, node_set.l2, math.radians(30.0))
    target = forward_kinematics(bent)
    checks = (f"target:({target.x:.9g},{target.y:.9g}):1e-3",
              f"final_theta:{bent.theta!r}rad:1e-6", "eq3_residual:1e-9")
    return _demo("deploy-and-bend", params, stowed,
                 plan_trajectory([stowed, extended, node_set, bent], params), checks)


def _out_of_reach(demo: str, point) -> PlanningError:
    return PlanningError(f"demo {demo!r}: ({point[0]}, {point[1]}) m is out of reach "
                         "under these parameters")


def _reach_two_targets(params: ManipulatorParams) -> Scenario:
    # Reach (0.229, 0.838) m then (0.076, 0.838) m from a straight 0.6 m arm,
    # each point at the middle of its feasible angle interval (0 on the midline).
    waypoints = []
    for point in ((0.0, 0.6), (0.229, 0.838), (0.076, 0.838)):
        interval = feasible_theta_interval(point, params)
        if interval is None:
            raise _out_of_reach("reach-two-targets", point)
        waypoints.append(ik_at_theta(point, 0.5 * (interval.lo + interval.hi), params))
    checks = ("eq3_residual:1e-9", "visits_target:(0.229,0.838):1e-3",
              "target:(0.076,0.838):1e-3")
    return _demo("reach-two-targets", params, waypoints[0],
                 plan_trajectory(waypoints, params), checks)


def _multi_config_same_target(params: ManipulatorParams) -> Scenario:
    # Hold the end effector at (0.076, 0.686) m while sweeping the bend angle
    # from the minimum-l1 configuration through 10 deg to 16.7 deg. Legs are
    # subdivided so the piecewise-constant rates track the curved constraint
    # manifold closely.
    point = (0.076, 0.686)
    theta_start = math.atan2(point[0], point[1] - params.l1_min)
    via = [theta_start, math.radians(10.0), math.radians(16.7)]
    substep = math.radians(0.25)
    path = []
    for a, b in zip(via, via[1:]):
        n = max(1, math.ceil(abs(b - a) / substep))
        path.extend(a + (b - a) * k / n for k in range(n))
    path.append(via[-1])
    states = [ik_at_theta(point, theta, params) for theta in path]
    if any(state is None for state in states):
        raise _out_of_reach("multi-config-same-target", point)
    visit_tol = math.radians(0.05)
    checks = (f"target_held:({point[0]},{point[1]}):1e-3",
              *(f"theta_visits:{angle}:{visit_tol!r}" for angle in ("7.1deg", "10deg", "16.7deg")),
              "eq3_residual:1e-9")
    return _demo("multi-config-same-target", params, states[0],
                 plan_trajectory(states, params), checks)


def _held_rates(name: str, params: ManipulatorParams, start: JointState, duration: float,
                command: RateCommand, checks: tuple) -> Scenario:
    """The demo ``name``, holding ``command`` for ``duration`` s from ``start``,
    or a PlanningError if its start or its end lies outside the bounds.

    The two ends bound the segment: along constant rates l1, l2 and l1 + l2
    are affine in time, and theta = 2 asin((cL - cR) / 4d) is monotone. They
    are the log's rows 0 and 1; a cable that is not positive raises ValueError.
    """
    scenario = _demo(name, params, start, ControlProfile(((duration, command),)), checks)
    _, ends = _segment_ends(scenario)
    for where, row in (("the start", 0), ("the end of segment 0", 1)):
        _, _, _, c_L, c_R, l1, l2, theta = ends[:_JOINT.stop, row].tolist()
        CablePair(c_L, c_R)  # refuses a cable that is not positive
        _require_within_bounds(JointState(l1, l2, theta), params, f"demo {name!r}: {where}")
    return scenario


def _constant_angle_retraction(params: ManipulatorParams) -> Scenario:
    # Retract the tape while the cables hold a 22 deg bend.
    theta = math.radians(22.0)
    # At fixed theta both cables track the total-length rate l1' + l2' = q1'.
    command = RateCommand(q1_rate=-0.02, cL_rate=-0.02, cR_rate=-0.02)
    checks = (f"theta_constant:{theta!r}rad:1e-6", "eq3_residual:1e-9")
    return _held_rates("constant-angle-retraction", params, JointState(0.3, 0.4, theta), 11.0,
                       command, checks)


def _stationary_bend(params: ManipulatorParams, coordinated: bool) -> Scenario:
    # Shorten link 2 by retracting while driving the node outward at the same
    # rate, which pins l1; the uncoordinated variant drives the node alone
    # and l1 grows by the integrated node drive instead.
    rate = 0.05
    if coordinated:
        name = "stationary-bend"
        command = stationary_bend_rates(-rate)
        checks = ("l1_constant:1e-6", "bend_point_constant:1e-6", "eq3_residual:1e-9")
    else:
        name = "stationary-bend-uncoordinated"
        command = RateCommand(q2_rate=rate)
        checks = ("expect_fail:l1_constant:1e-6", "l1_growth_equals_node_drive:1e-6",
                  "eq3_residual:1e-9")
    return _held_rates(name, params, JointState(0.3, 0.6, 0.0), 10.0, command, checks)


# The builder of each bundled demonstration scenario, keyed by CLI name. A
# builder takes the parameters and raises PlanningError when they put one of
# its waypoints out of reach.
DEMOS = {
    "deploy-and-bend": _deploy_and_bend,
    "reach-two-targets": _reach_two_targets,
    "multi-config-same-target": _multi_config_same_target,
    "constant-angle-retraction": _constant_angle_retraction,
    "stationary-bend": functools.partial(_stationary_bend, coordinated=True),
    "stationary-bend-uncoordinated": functools.partial(_stationary_bend, coordinated=False),
}


def builtin_scenarios(params: ManipulatorParams = DEFAULT_PARAMS) -> dict[str, Scenario]:
    """The bundled demonstration scenarios, keyed by CLI name."""
    return {name: build(params) for name, build in DEMOS.items()}
