"""Closed-form planning: configuration enumeration, the rate-coordination
laws for simultaneous tape, node and cable motion, and trajectory planning.
Inverse kinematics at a given angle is workspace.ik_at_theta.

All functions are pure and deterministic for identical inputs.
"""

from __future__ import annotations

import math
import sys

from .model import (
    ControlState,
    JointState,
    ManipulatorParams,
    _require_positive,
    _Value,
    cable_lengths,
    forward_kinematics,
    validate_state,
    within_bounds,
)
from .workspace import STRAIGHT_X_TOL, feasible_theta_interval, ik_at_theta


class PlanningError(ValueError):
    """A trajectory request cannot be satisfied (e.g. unreachable waypoint)."""


class SpeedLimits(_Value):
    """Actuator rate caps, m/s, positive and finite."""

    __slots__ = ("q1", "q2", "cable")

    def __init__(self, q1: float = 0.1, q2: float = 0.1, cable: float = 0.1):
        object.__setattr__(self, "q1", q1)
        object.__setattr__(self, "q2", q2)
        object.__setattr__(self, "cable", cable)
        _require_positive(self, "q1", "q2", "cable")


class RateCommand(_Value):
    """Constant actuator rates, m/s."""

    __slots__ = ("q1_rate", "q2_rate", "cL_rate", "cR_rate")

    def __init__(self, q1_rate: float = 0.0, q2_rate: float = 0.0, cL_rate: float = 0.0,
                 cR_rate: float = 0.0):
        object.__setattr__(self, "q1_rate", q1_rate)
        object.__setattr__(self, "q2_rate", q2_rate)
        object.__setattr__(self, "cL_rate", cL_rate)
        object.__setattr__(self, "cR_rate", cR_rate)
        for name in self.__slots__:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"RateCommand.{name} must be finite")


class ControlProfile(_Value):
    """Ordered piecewise-constant rate segments: (duration_s, RateCommand)."""

    __slots__ = ("segments",)

    def __init__(self, segments: tuple):
        segments = tuple((float(duration), command) for duration, command in segments)
        object.__setattr__(self, "segments", segments)
        for duration, _ in segments:
            if not (duration > 0 and math.isfinite(duration)):
                raise ValueError(f"segment durations must be positive and finite, got {duration}")


def ik_enumerate(point, params: ManipulatorParams, count: int) -> list[JointState]:
    """Up to ``count`` distinct configurations reaching ``point``.

    Angles are sampled uniformly across the feasible interval starting at the
    minimum-angle endpoint. Points on the midline collapse to the single
    straight configuration; unreachable points give an empty list. Every
    returned state is verified to hit the point under forward kinematics.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    interval = feasible_theta_interval(point, params)
    if interval is None:
        return []
    x = point[0]
    if abs(x) <= STRAIGHT_X_TOL:
        thetas = [0.0]
    else:
        start, stop = (interval.lo, interval.hi) if x > 0 else (interval.hi, interval.lo)
        if count == 1 or interval.width == 0.0:
            thetas = [start]
        else:
            thetas = [start + (stop - start) * k / (count - 1) for k in range(count)]
    states = []
    for theta in thetas:
        state = ik_at_theta(point, theta, params)
        if state is None:
            raise RuntimeError(f"interval angle {theta} unexpectedly infeasible at {point}")
        pose = forward_kinematics(state)
        if math.hypot(pose.x - point[0], pose.y - point[1]) > 1e-9:
            raise RuntimeError(f"enumerated state misses {point} at theta={theta}")
        states.append(state)
    return states


def controls_between(from_state: JointState, to_state: JointState) -> tuple[float, float]:
    """Actuator increments (dq1, dq2) moving between two joint states.

    Node motion is pinned by the link-2 change and extension makes up the
    rest: dq2 = l2_from - l2_to, dq1 = (l1_to - l1_from) - dq2.
    """
    dq2 = from_state.l2 - to_state.l2
    dq1 = (to_state.l1 - from_state.l1) - dq2
    return dq1, dq2


def stationary_bend_rates(q1_rate: float) -> RateCommand:
    """Coordinated command that pins l1, keeping the bend point world-fixed.

    Matching the node rate against extension (q2_rate = -q1_rate) cancels the
    l1 change; the total length then changes at q1_rate, which both cables
    must follow to hold the bend angle.
    """
    return RateCommand(q1_rate=q1_rate, q2_rate=-q1_rate,
                       cL_rate=q1_rate, cR_rate=q1_rate)


def control_from_state(state: JointState) -> ControlState:
    """Zeroed actuator coordinates with the state's lengths as the datum."""
    return ControlState(q1=0.0, q2=0.0, l1_0=state.l1, l2_0=state.l2)


def _require_within_bounds(state: JointState, params: ManipulatorParams, what: str) -> None:
    """Raise PlanningError, naming ``what`` and the validate_state text of each
    broken bound, if ``state`` lies outside the bounds of ``params``."""
    if not within_bounds(state.l1, state.l2, state.theta, params):
        raise PlanningError(f"{what} is outside the bounds: "
                            + "; ".join(map(str, validate_state(state, params))))


def plan_trajectory(waypoints, params: ManipulatorParams,
                    limits: SpeedLimits = SpeedLimits(), dt: float = 0.01) -> ControlProfile:
    """Piecewise-constant-rate profile visiting the waypoints in order.

    Waypoints are poses (solved by ik_at_theta at their phi) or explicit
    joint states; either state must lie inside the bounds of ``params``,
    without ik_at_theta's slack. The first waypoint is the start. Each leg
    runs all four actuators together at constant rates, stretched to the
    duration of its slowest actuator at its cap and rounded up to a whole
    number of ``dt`` steps, at least one, so no rate exceeds its cap and a
    simulator can replay the profile exactly. Cable rates come from the
    endpoint cable lengths, so the bend angle arrives exactly even though it
    evolves nonlinearly along the leg. Legs between waypoints with equal
    orientation reduce to the constant-angle cable law. Coincident waypoints
    produce no segment. A leg whose ends lie inside the bounds stays inside
    them: l1, l2 and l1 + l2 are affine in time along it, and theta monotone.
    """
    # A subnormal dt counts a leg's steps too coarsely to keep its rates within
    # their caps.
    if not sys.float_info.min <= dt < math.inf:
        raise PlanningError(f"dt must be positive, finite and normal, got {dt}")
    states = []
    for index, waypoint in enumerate(waypoints):
        state = waypoint
        if not isinstance(waypoint, JointState):
            state = ik_at_theta((waypoint.x, waypoint.y), waypoint.phi, params)
            if state is None:
                raise PlanningError(
                    f"waypoint {index} at (x={waypoint.x:.6g} m, y={waypoint.y:.6g} m, "
                    f"phi={waypoint.phi:.6g} rad) is unreachable")
        _require_within_bounds(state, params, f"waypoint {index}")
        states.append(state)
    if not states:
        raise PlanningError("need at least one waypoint")

    cables = [cable_lengths(state, params.cable_offset) for state in states]
    segments = []
    for index in range(1, len(states)):
        dq1, dq2 = controls_between(states[index - 1], states[index])
        dcL = cables[index].c_L - cables[index - 1].c_L
        dcR = cables[index].c_R - cables[index - 1].c_R
        slowest = max(abs(dq1) / limits.q1, abs(dq2) / limits.q2,
                      abs(dcL) / limits.cable, abs(dcR) / limits.cable)
        if slowest == 0.0:
            continue
        steps = slowest / dt - 1e-12
        if steps == math.inf:
            raise PlanningError(f"the leg to waypoint {index} takes more dt={dt:.6g} s "
                                "steps than a float counts at these speed limits")
        duration = max(1, math.ceil(steps)) * dt
        segments.append((duration, RateCommand(dq1 / duration, dq2 / duration,
                                               dcL / duration, dcR / duration)))
    return ControlProfile(tuple(segments))
