"""Value types and closed-form kinematic maps of the pinched-tape planar arm.

Geometry convention: link 1 (length ``l1``) runs from the base origin along
+y to the pinching node; link 2 (length ``l2``) leaves the node at bending
angle ``theta`` measured from the base midline, positive toward +x. The two
actuator coordinates are the cumulative tape extension ``q1`` and the
cumulative node displacement toward the tip ``q2``; the steering cables run
at a fixed offset ``d`` on either side of the midline.

Everything here is a pure function over frozen value types, safe for
concurrent use. Units are SI throughout (meters, radians, kilograms,
pascals).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Bound comparisons allow this much absolute slack so states derived through
# floating-point pipelines (e.g. inverse kinematics at an exact bound) do not
# report spurious violations.
BOUND_EPS = 1e-12

# Relative slack on the +/-4d cable-differential range, so differentials
# within rounding of the boundary still map to a bend angle.
CABLE_RANGE_SLACK = 1e-9

# Number of tapes forming the backbone (back-to-back pair).
TAPE_COUNT = 2

# Stowed envelope used for the extension-ratio figure of merit: the desk-scale
# housing the full tapes spool into.
DEFAULT_STOWED_LENGTH = 0.35


class ConstraintViolationError(ValueError):
    """A state violates manipulator bounds; carries every violated bound."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class CableRangeError(ValueError):
    """Cable differential is kinematically inconsistent with the offset."""


@dataclass(frozen=True, slots=True)
class Violation:
    """One violated bound: its name, the offending value, limit and margin.

    ``margin`` is how far inside the bound the value sits; negative means
    violated.
    """

    bound: str
    value: float
    limit: float
    margin: float

    def __str__(self) -> str:
        return (f"{self.bound}[value={self.value:.9g} "
                f"limit={self.limit:.9g} margin={self.margin:.3g}]")


def _require_positive(obj, *names):
    for name in names:
        value = getattr(obj, name)
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{type(obj).__name__}.{name} must be positive and finite, got {value}")


def _require_finite(obj, *names):
    # The value types built per simulator row test their fields inline and
    # call this only on failure, to name the first non-finite one.
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValueError(f"{type(obj).__name__}.{name} must be finite, got {value}")


@dataclass(frozen=True)
class TapeProperties:
    """Material and cross-section geometry of one bistable tape."""

    elastic_modulus: float   # Pa
    thickness: float         # m
    transverse_radius: float  # m, unstressed radius of the cross-section arc
    subtended_angle: float   # rad, arc swept by the cross section
    linear_density: float    # kg/m
    total_tape_length: float  # m, length wound on one reel

    def __post_init__(self):
        _require_positive(self, "elastic_modulus", "thickness", "transverse_radius",
                          "subtended_angle", "linear_density", "total_tape_length")
        if self.thickness >= self.transverse_radius:
            raise ValueError("thin-shell tape requires thickness < transverse_radius")


#: 0.2 mm steel tape from a 7.62 m reel. The cross-section radius and arc are
#: chosen to match a standard 25 mm tape; density follows from 76 g per 3 m.
DEFAULT_TAPE = TapeProperties(
    elastic_modulus=200e9,
    thickness=0.2e-3,
    transverse_radius=0.014,
    subtended_angle=1.75,
    linear_density=0.0253,
    total_tape_length=7.62,
)


@dataclass(frozen=True)
class ManipulatorParams:
    """Joint limits, cable geometry and mass figures of the assembled arm."""

    tape: TapeProperties = DEFAULT_TAPE
    cable_offset: float = 0.015           # m, cable distance from the midline
    theta_limit: float = math.radians(55.0)  # rad, hinge stop
    l1_min: float = 0.076                 # m, tape must clear the pinching node
    l2_min: float = 0.0                   # m
    max_total_length: float = 2.0         # m, budget for l1 + l2
    base_mass: float = 0.372              # kg, housing + reels + spools, tapes excluded
    node_mass: float = 0.163              # kg

    def __post_init__(self):
        _require_positive(self, "cable_offset", "max_total_length")
        _require_finite(self, "l1_min", "l2_min", "base_mass", "node_mass")
        if not 0.0 < self.theta_limit <= math.pi / 2:
            raise ValueError("theta_limit must lie in (0, pi/2]")
        if self.l1_min < 0 or self.l2_min < 0:
            raise ValueError("minimum link lengths must be nonnegative")
        if self.max_total_length > self.tape.total_tape_length:
            raise ValueError("max_total_length exceeds the available tape")
        if self.base_mass < 0 or self.node_mass < 0:
            raise ValueError("masses must be nonnegative")


DEFAULT_PARAMS = ManipulatorParams()


@dataclass(frozen=True)
class JointState:
    """Kinematic triple: link lengths and bending angle."""

    l1: float     # m
    l2: float     # m
    theta: float  # rad

    def __post_init__(self):
        if not (math.isfinite(self.l1) and math.isfinite(self.l2) and math.isfinite(self.theta)):
            _require_finite(self, "l1", "l2", "theta")


@dataclass(frozen=True)
class ControlState:
    """Actuator-space coordinates plus the link lengths they started from."""

    q1: float    # m, cumulative tape extension
    q2: float    # m, cumulative node displacement toward the tip
    l1_0: float  # m, link 1 length at q1 = q2 = 0
    l2_0: float  # m, link 2 length at q1 = q2 = 0

    def __post_init__(self):
        if not (math.isfinite(self.q1) and math.isfinite(self.q2)
                and math.isfinite(self.l1_0) and math.isfinite(self.l2_0)):
            _require_finite(self, "q1", "q2", "l1_0", "l2_0")


@dataclass(frozen=True)
class Pose:
    """Planar end-effector pose; ``phi`` equals the bending angle."""

    x: float    # m
    y: float    # m
    phi: float  # rad

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.phi)):
            _require_finite(self, "x", "y", "phi")


@dataclass(frozen=True)
class CablePair:
    """Left and right steering cable lengths from base to tip."""

    c_L: float  # m
    c_R: float  # m

    def __post_init__(self):
        _require_positive(self, "c_L", "c_R")


def _length_violations(l1: float, l2: float, params: ManipulatorParams) -> list[Violation]:
    violations = []
    if l1 < params.l1_min - BOUND_EPS:
        violations.append(Violation("l1_min", l1, params.l1_min, l1 - params.l1_min))
    if l2 < params.l2_min - BOUND_EPS:
        violations.append(Violation("l2_min", l2, params.l2_min, l2 - params.l2_min))
    total = l1 + l2
    if total > params.max_total_length + BOUND_EPS:
        violations.append(Violation("max_total_length", total, params.max_total_length,
                                    params.max_total_length - total))
    return violations


def within_bounds(l1, l2, theta, params: ManipulatorParams, length_tol: float = 0.0,
                  angle_tol: float = BOUND_EPS):
    """True where a state lies inside every bound of ``params``.

    The length bounds get ``length_tol`` slack, but the lower ones stop at
    zero length, and the hinge limit gets ``angle_tol``; the defaults are
    validate_state's bounds. One expression of comparisons joined with ``&``,
    so floats give a bool and numpy arrays an elementwise mask. NaN is
    outside every bound, and so is an infinite length.
    """
    return ((l1 >= params.l1_min - length_tol - BOUND_EPS) & (l1 >= -BOUND_EPS)
            & (l2 >= params.l2_min - length_tol - BOUND_EPS) & (l2 >= -BOUND_EPS)
            & (l1 + l2 <= params.max_total_length + length_tol + BOUND_EPS)
            & (abs(theta) <= params.theta_limit + angle_tol))


def validate_state(state: JointState, params: ManipulatorParams) -> list[Violation]:
    """Check a joint state against every bound; an empty list means valid.

    Violations are returned (one entry per failed bound, naming the bound and
    the negative margin), never raised.
    """
    violations = _length_violations(state.l1, state.l2, params)
    if abs(state.theta) > params.theta_limit + BOUND_EPS:
        violations.append(Violation("theta_limit", state.theta, params.theta_limit,
                                    params.theta_limit - abs(state.theta)))
    return violations


def forward_kinematics(state: JointState, params: ManipulatorParams | None = None) -> Pose:
    """End-effector pose of a joint state.

    x = l2 sin(theta), y = l1 + l2 cos(theta), phi = theta. When ``params``
    is given the state is validated first and a ConstraintViolationError
    listing every violated bound is raised for invalid states.
    """
    if params is not None:
        violations = validate_state(state, params)
        if violations:
            raise ConstraintViolationError(violations)
    return Pose(
        x=state.l2 * math.sin(state.theta),
        y=state.l1 + state.l2 * math.cos(state.theta),
        phi=state.theta,
    )


def link_lengths(control: ControlState, params: ManipulatorParams | None = None) -> tuple[float, float]:
    """Link lengths produced by actuator coordinates.

    l1 = q1 + q2 + l1(0) and l2 = -q2 + l2(0): extension feeds link 1 only,
    node motion trades length between the links, so the total l1 + l2 changes
    only through q1. With ``params`` given, out-of-bound lengths raise a
    ConstraintViolationError.
    """
    l1 = control.q1 + control.q2 + control.l1_0
    l2 = -control.q2 + control.l2_0
    if params is not None:
        violations = _length_violations(l1, l2, params)
        if violations:
            raise ConstraintViolationError(violations)
    return l1, l2


def cable_lengths(state: JointState, d: float) -> CablePair:
    """Steering cable lengths at offset ``d``: c = l1 + l2 +/- 2 d sin(theta/2)."""
    if not d > 0:
        raise ValueError(f"cable offset must be positive, got {d}")
    total = state.l1 + state.l2
    bend = 2.0 * d * math.sin(0.5 * state.theta)
    return CablePair(c_L=total + bend, c_R=total - bend)


def theta_from_cables(cables: CablePair, d: float) -> float:
    """Bending angle from the cable differential; inverse of cable_lengths.

    Raises CableRangeError when |c_L - c_R| exceeds 4d, a differential no
    bending angle can produce.
    """
    if not d > 0:
        raise ValueError(f"cable offset must be positive, got {d}")
    ratio = (cables.c_L - cables.c_R) / (4.0 * d)
    if abs(ratio) > 1.0 + CABLE_RANGE_SLACK:
        raise CableRangeError(
            f"cable differential {cables.c_L - cables.c_R:.9g} m is outside the "
            f"+/-{4.0 * d:.9g} m range reachable at offset d={d:.9g} m")
    # Differentials within rounding of the +/-4d boundary map to +/-pi.
    return 2.0 * math.asin(max(-1.0, min(1.0, ratio)))


@dataclass(frozen=True)
class MassBudget:
    """Mass breakdown at a given deployed length."""

    base: float      # kg, housing + reels + spools
    node: float      # kg, pinching node
    per_tape: float  # kg, one tape at the deployed length
    tape_count: int = TAPE_COUNT

    @property
    def total(self) -> float:
        return self.base + self.node + self.tape_count * self.per_tape


def mass_budget(params: ManipulatorParams, deployed_length: float) -> MassBudget:
    """Mass breakdown with ``deployed_length`` of each tape paid out."""
    if not 0.0 <= deployed_length <= params.tape.total_tape_length:
        raise ValueError(f"deployed length {deployed_length} m outside "
                         f"[0, {params.tape.total_tape_length}] m")
    return MassBudget(base=params.base_mass, node=params.node_mass,
                      per_tape=params.tape.linear_density * deployed_length)


def extension_ratio(params: ManipulatorParams,
                    stowed_length: float = DEFAULT_STOWED_LENGTH) -> float:
    """Fully deployed tape length over the stowed envelope length."""
    if not stowed_length > 0:
        raise ValueError(f"stowed length must be positive, got {stowed_length}")
    return params.tape.total_tape_length / stowed_length
