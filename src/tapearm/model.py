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
import operator

# Bound comparisons allow this much absolute slack so states derived through
# floating-point pipelines (e.g. inverse kinematics at an exact bound) do not
# report spurious violations.
BOUND_EPS = 1e-12

# Relative slack on the +/-4d cable-differential range, so differentials
# within rounding of the boundary still map to a bend angle.
CABLE_RANGE_SLACK = 1e-9

# The text of a Violation: str.format fills in its bound and limit, and then
# % its value and margin.
_VIOLATION_TEXT = "{}[value=%.9g limit={:.9g} margin=%.3g]"

# Number of tapes forming the backbone (back-to-back pair).
TAPE_COUNT = 2

# Stowed envelope used for the extension-ratio figure of merit: the desk-scale
# housing the full tapes spool into.
DEFAULT_STOWED_LENGTH = 0.35

# Smallest cable offset, per m of max_total_length. theta = 2 asin((c_L - c_R) /
# 4d) inherits the cables' rounding, about eps * max_total_length, so at this
# offset its error is about 1e-10 rad, far inside every check's tolerance.
MIN_CABLE_OFFSET = 1e-6


class ConstraintViolationError(ValueError):
    """A state violates manipulator bounds; carries every violated bound."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class CableRangeError(ValueError):
    """Cable differential is kinematically inconsistent with the offset."""


class _Value:
    """Base of the value types. Each lists its fields as ``__slots__`` and sets
    them in ``__init__`` with object.__setattr__; later writes raise
    AttributeError. Equality (within one type), hash and repr read the fields
    in slot order."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = operator.attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # for copy and pickle: __init__ on the same fields
        return type(self), tuple(self._asdict().values())

    def _asdict(self) -> dict:
        """Each field's value by name, in slot order."""
        return {name: getattr(self, name) for name in self.__slots__}


class Violation(_Value):
    """One violated bound: its name, the offending value, limit and margin.

    ``margin`` is how far inside the bound the value sits; negative means
    violated.
    """

    __slots__ = ("bound", "value", "limit", "margin")

    def __init__(self, bound: str, value: float, limit: float, margin: float):
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "limit", limit)
        object.__setattr__(self, "margin", margin)

    def __str__(self) -> str:
        return _VIOLATION_TEXT.format(self.bound, self.limit) % (self.value, self.margin)


def _require_positive(obj, *names):
    for name in names:
        value = getattr(obj, name)
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{type(obj).__name__}.{name} must be positive and finite, got {value}")


def _require_finite(obj, *names):
    # The states and poses that each scalar FK or IK call builds test their
    # fields inline, for that per-call cost, and call this only on failure.
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValueError(f"{type(obj).__name__}.{name} must be finite, got {value}")


class TapeProperties(_Value):
    """Material and cross-section geometry of one bistable tape."""

    __slots__ = ("elastic_modulus", "thickness", "transverse_radius", "subtended_angle",
                 "linear_density", "total_tape_length")

    def __init__(self, elastic_modulus: float, thickness: float, transverse_radius: float,
                 subtended_angle: float, linear_density: float, total_tape_length: float):
        object.__setattr__(self, "elastic_modulus", elastic_modulus)  # Pa
        object.__setattr__(self, "thickness", thickness)  # m
        object.__setattr__(self, "transverse_radius", transverse_radius)  # m, unstressed arc
        object.__setattr__(self, "subtended_angle", subtended_angle)  # rad, swept by the arc
        object.__setattr__(self, "linear_density", linear_density)  # kg/m
        object.__setattr__(self, "total_tape_length", total_tape_length)  # m, on one reel
        _require_positive(self, "elastic_modulus", "thickness", "transverse_radius",
                          "subtended_angle", "linear_density", "total_tape_length")
        if thickness >= transverse_radius:
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


class ManipulatorParams(_Value):
    """Joint limits, cable geometry and mass figures of the assembled arm."""

    __slots__ = ("tape", "cable_offset", "theta_limit", "l1_min", "l2_min", "max_total_length",
                 "base_mass", "node_mass")

    def __init__(self, tape: TapeProperties = DEFAULT_TAPE, cable_offset: float = 0.015,
                 theta_limit: float = math.radians(55.0), l1_min: float = 0.076,
                 l2_min: float = 0.0, max_total_length: float = 2.0, base_mass: float = 0.372,
                 node_mass: float = 0.163):
        object.__setattr__(self, "tape", tape)
        object.__setattr__(self, "cable_offset", cable_offset)  # m, from the midline
        object.__setattr__(self, "theta_limit", theta_limit)  # rad, hinge stop
        object.__setattr__(self, "l1_min", l1_min)  # m, tape must clear the pinching node
        object.__setattr__(self, "l2_min", l2_min)  # m
        object.__setattr__(self, "max_total_length", max_total_length)  # m, for l1 + l2
        object.__setattr__(self, "base_mass", base_mass)  # kg, tapes excluded
        object.__setattr__(self, "node_mass", node_mass)  # kg
        _require_positive(self, "cable_offset", "max_total_length")
        _require_finite(self, "l1_min", "l2_min", "base_mass", "node_mass")
        if cable_offset < MIN_CABLE_OFFSET * max_total_length:
            raise ValueError(f"cable_offset {cable_offset:.9g} m is below {MIN_CABLE_OFFSET:g} * "
                             "max_total_length: too short for the cables to resolve theta")
        if not 0.0 < theta_limit <= math.pi / 2:
            raise ValueError("theta_limit must lie in (0, pi/2]")
        if l1_min < 0 or l2_min < 0:
            raise ValueError("minimum link lengths must be nonnegative")
        if max_total_length > tape.total_tape_length:
            raise ValueError("max_total_length exceeds the available tape")
        if base_mass < 0 or node_mass < 0:
            raise ValueError("masses must be nonnegative")


DEFAULT_PARAMS = ManipulatorParams()


class JointState(_Value):
    """Kinematic triple: link lengths and bending angle."""

    __slots__ = ("l1", "l2", "theta")

    def __init__(self, l1: float, l2: float, theta: float):
        object.__setattr__(self, "l1", l1)  # m
        object.__setattr__(self, "l2", l2)  # m
        object.__setattr__(self, "theta", theta)  # rad
        if not (math.isfinite(l1) and math.isfinite(l2) and math.isfinite(theta)):
            _require_finite(self, "l1", "l2", "theta")


class ControlState(_Value):
    """Actuator-space coordinates plus the link lengths they started from."""

    __slots__ = ("q1", "q2", "l1_0", "l2_0")

    def __init__(self, q1: float, q2: float, l1_0: float, l2_0: float):
        object.__setattr__(self, "q1", q1)  # m, cumulative tape extension
        object.__setattr__(self, "q2", q2)  # m, cumulative node displacement toward the tip
        object.__setattr__(self, "l1_0", l1_0)  # m, link 1 length at q1 = q2 = 0
        object.__setattr__(self, "l2_0", l2_0)  # m, link 2 length at q1 = q2 = 0
        if not (math.isfinite(q1) and math.isfinite(q2)
                and math.isfinite(l1_0) and math.isfinite(l2_0)):
            _require_finite(self, "q1", "q2", "l1_0", "l2_0")


class Pose(_Value):
    """Planar end-effector pose; ``phi`` equals the bending angle."""

    __slots__ = ("x", "y", "phi")

    def __init__(self, x: float, y: float, phi: float):
        object.__setattr__(self, "x", x)  # m
        object.__setattr__(self, "y", y)  # m
        object.__setattr__(self, "phi", phi)  # rad
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(phi)):
            _require_finite(self, "x", "y", "phi")


class CablePair(_Value):
    """Left and right steering cable lengths from base to tip."""

    __slots__ = ("c_L", "c_R")

    def __init__(self, c_L: float, c_R: float):
        object.__setattr__(self, "c_L", c_L)  # m
        object.__setattr__(self, "c_R", c_R)  # m
        _require_positive(self, "c_L", "c_R")


# The bounds of a joint state, in validate_state's order: the ManipulatorParams
# field of each one's limit. _bound_tests holds their tests, and _named_bounds
# the value each one reads and its margin, in the same order.
_BOUND_NAMES = ("l1_min", "l2_min", "max_total_length", "theta_limit")


def _length_floor(limit: float, length_tol: float) -> float:
    """The shortest length a lower length bound admits under ``length_tol``
    slack: ``limit - length_tol``, but never below zero."""
    floor = limit - length_tol
    return floor if floor > 0.0 else 0.0


def _bound_tests(l1, l2, theta, params: ManipulatorParams, length_tol: float = 0.0,
                 angle_tol: float = BOUND_EPS) -> tuple:
    """Whether a state lies inside each bound of _BOUND_NAMES, in its order, with
    within_bounds' slack: bools for floats, and masks for numpy arrays."""
    return (l1 >= _length_floor(params.l1_min, length_tol) - BOUND_EPS,
            l2 >= _length_floor(params.l2_min, length_tol) - BOUND_EPS,
            l1 + l2 <= params.max_total_length + length_tol + BOUND_EPS,
            abs(theta) <= params.theta_limit + angle_tol)


def within_bounds(l1, l2, theta, params: ManipulatorParams, length_tol: float = 0.0,
                  angle_tol: float = BOUND_EPS):
    """True where a state lies inside every bound of ``params``.

    The length bounds get ``length_tol`` slack, but the lower ones stop at
    zero length, and the hinge limit gets ``angle_tol``; the defaults are
    validate_state's bounds. The tests are comparisons joined with ``&``, so
    floats give a bool and numpy arrays an elementwise mask. NaN is outside
    every bound, and so is an infinite length.
    """
    l1_min, l2_min, total, theta_limit = _bound_tests(l1, l2, theta, params, length_tol,
                                                      angle_tol)
    return l1_min & l2_min & total & theta_limit


def _named_bounds(l1, l2, theta, params: ManipulatorParams):
    """Each bound of _BOUND_NAMES, in its order, at a state: (name, limit,
    inside, value, margin), for floats as for numpy arrays. The margin is how
    far inside the limit the value sits."""
    l1_min, l2_min, total_max, theta_limit = limits = tuple(getattr(params, name)
                                                            for name in _BOUND_NAMES)
    return zip(_BOUND_NAMES, limits, _bound_tests(l1, l2, theta, params),
               (l1, l2, l1 + l2, theta),
               (l1 - l1_min, l2 - l2_min, total_max - (l1 + l2), theta_limit - abs(theta)))


def validate_state(state: JointState, params: ManipulatorParams) -> list[Violation]:
    """Check a joint state against every bound; an empty list means valid.

    Violations are returned (one entry per failed bound, naming the bound and
    the negative margin), never raised.
    """
    return [Violation(name, value, limit, margin) for name, limit, inside, value, margin
            in _named_bounds(state.l1, state.l2, state.theta, params) if not inside]


def validate_states(l1, l2, theta, params: ManipulatorParams, text: bool = False) -> list[list]:
    """validate_state over the numpy arrays ``l1``, ``l2`` and ``theta``: per
    state, its Violations in validate_state's order, or with ``text`` their
    str. Each bound takes one mask over the states and formats its limit once."""
    named = [[] for _ in range(len(l1))]
    for name, limit, inside, values, margins in _named_bounds(l1, l2, theta, params):
        at = (~inside).nonzero()[0]
        pairs = zip(values[at].tolist(), margins[at].tolist())
        made = (map(_VIOLATION_TEXT.format(name, limit).__mod__, pairs) if text else
                [Violation(name, value, limit, margin) for value, margin in pairs])
        for state, item in zip(at.tolist(), made):
            named[state].append(item)
    return named


def forward_kinematics(state: JointState, params: ManipulatorParams | None = None) -> Pose:
    """End-effector pose of a joint state.

    x = l2 sin(theta), y = l1 + l2 cos(theta), phi = theta. When ``params``
    is given the state is validated first and a ConstraintViolationError
    listing every violated bound is raised for invalid states.
    """
    if params is not None and not within_bounds(state.l1, state.l2, state.theta, params):
        raise ConstraintViolationError(validate_state(state, params))
    # positional fields: keywords cost Pose's __init__ about 200 ns a call
    l1, l2, theta = state.l1, state.l2, state.theta
    return Pose(l2 * math.sin(theta), l1 + l2 * math.cos(theta), theta)


def link_lengths(control: ControlState) -> tuple[float, float]:
    """Link lengths produced by actuator coordinates.

    l1 = q1 + q2 + l1(0) and l2 = -q2 + l2(0): extension feeds link 1 only,
    node motion trades length between the links, so the total l1 + l2 changes
    only through q1.
    """
    return control.q1 + control.q2 + control.l1_0, -control.q2 + control.l2_0


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


class MassBudget(_Value):
    """Mass breakdown at a given deployed length."""

    __slots__ = ("base", "node", "per_tape")

    def __init__(self, base: float, node: float, per_tape: float):
        object.__setattr__(self, "base", base)  # kg, housing + reels + spools
        object.__setattr__(self, "node", node)  # kg, pinching node
        object.__setattr__(self, "per_tape", per_tape)  # kg, one tape at the deployed length

    @property
    def total(self) -> float:
        return self.base + self.node + TAPE_COUNT * self.per_tape


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
