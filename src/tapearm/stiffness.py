"""Bending-moment models for the back-to-back bistable tape pair.

Pinching flattens both tapes over a short region, turning each cross section
into a thin rectangle whose bending moment is linear in curvature. The
unpinched pair resists bending with a stiff ramp up to a peak moment, then
relaxes onto the fold-propagation plateau; the back-to-back arrangement makes
that curve odd-symmetric in the bending angle.

``calibrate_unpinched`` fits that curve to measured samples with numpy alone:
the peak and plateau moments come from linear least squares, and the peak and
decay angles from a small Levenberg-Marquardt loop.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .model import DEFAULT_TAPE, TAPE_COUNT, TapeProperties

#: Reference pair calibration: the bench pair peaks at 0.654 N*m while the
#: pinched joint needs only 0.055 N*m at that same angle. The angle where the
#: peak occurs and the plateau fraction are configuration choices, not
#: measured values.
UNPINCHED_PEAK_MOMENT = 0.654
PINCHED_MOMENT_AT_PEAK = 0.055
DEFAULT_PEAK_ANGLE = math.radians(10.0)
DEFAULT_PROPAGATION_FRACTION = 0.1

MOMENT_CSV_HEADER = "theta_rad,moment_Nm"


class CalibrationError(ValueError):
    """Moment-curve fit failed or the data cannot constrain the model."""


@dataclass(frozen=True)
class FlattenedSection:
    """Rectangular cross section of a tape flattened by the pinch rollers.

    The flattened width equals the unrolled cross-section arc, so the second
    moment of area is (transverse_radius * subtended_angle) * t^3 / 12.
    """

    width: float            # m
    thickness: float        # m
    elastic_modulus: float  # Pa

    def __post_init__(self):
        if not (self.width > 0 and self.thickness > 0 and self.elastic_modulus > 0):
            raise ValueError("FlattenedSection dimensions and modulus must be positive")

    @classmethod
    def from_tape(cls, tape: TapeProperties) -> "FlattenedSection":
        return cls(width=tape.transverse_radius * tape.subtended_angle,
                   thickness=tape.thickness,
                   elastic_modulus=tape.elastic_modulus)

    @property
    def second_moment(self) -> float:
        """Second moment of area of the flattened rectangle, m^4."""
        return self.width * self.thickness ** 3 / 12.0


@dataclass(frozen=True)
class PinchJointModel:
    """Pinched tapes as a torsional spring over the flattened bend region.

    The bend angle distributes over the flattened length, kappa = theta / Lp,
    so the joint moment is tape_count * E * I * theta / Lp.
    """

    section: FlattenedSection
    bend_region_length: float = 0.01  # m, roller contact scale
    tape_count: int = TAPE_COUNT

    def __post_init__(self):
        if not self.bend_region_length > 0:
            raise ValueError("bend_region_length must be positive")
        if self.tape_count < 1:
            raise ValueError("tape_count must be at least 1")

    @property
    def stiffness(self) -> float:
        """Torsional stiffness k = tape_count * E * I / Lp, N*m/rad."""
        return (self.tape_count * self.section.elastic_modulus *
                self.section.second_moment / self.bend_region_length)

    @classmethod
    def calibrated(cls, section: FlattenedSection, reference_angle: float,
                   reference_moment: float, tape_count: int = TAPE_COUNT) -> "PinchJointModel":
        """Solve the bend-region length so moment(reference_angle) == reference_moment."""
        if not (reference_angle > 0 and reference_moment > 0):
            raise ValueError("reference angle and moment must be positive")
        lp = (tape_count * section.elastic_modulus * section.second_moment *
              reference_angle / reference_moment)
        return cls(section=section, bend_region_length=lp, tape_count=tape_count)

    def moment(self, theta: float) -> float:
        return self.stiffness * theta


@dataclass(frozen=True)
class UnpinchedPairModel:
    """Odd moment-angle curve of the unpinched back-to-back pair.

    Linear ramp from the origin to (peak_angle, peak_moment), then an
    exponential relaxation onto the propagation plateau with angular scale
    ``decay_angle``. The ramp slope is peak_moment / peak_angle so the curve
    is continuous at the peak, which is its single positive-side maximum.
    """

    peak_moment: float             # N*m
    peak_angle: float              # rad
    propagation_moment: float      # N*m, post-fold plateau
    decay_angle: float | None = None  # rad, relaxation scale; peak_angle when omitted

    def __post_init__(self):
        if self.decay_angle is None:
            object.__setattr__(self, "decay_angle", self.peak_angle)
        if not self.peak_angle > 0:
            raise ValueError("peak_angle must be positive")
        if not 0.0 < self.propagation_moment < self.peak_moment:
            raise ValueError("need 0 < propagation_moment < peak_moment")
        if not self.decay_angle > 0:
            raise ValueError("decay_angle must be positive")

    @property
    def pre_peak_stiffness(self) -> float:
        """Ramp slope, N*m/rad."""
        return self.peak_moment / self.peak_angle

    def moment(self, theta: float) -> float:
        magnitude = abs(theta)
        if magnitude <= self.peak_angle:
            value = self.pre_peak_stiffness * magnitude
        else:
            value = (self.propagation_moment +
                     (self.peak_moment - self.propagation_moment) *
                     math.exp(-(magnitude - self.peak_angle) / self.decay_angle))
        return math.copysign(value, theta)


def flattened_moment(section: FlattenedSection, kappa: float) -> float:
    """Moment of one flattened tape at longitudinal curvature kappa: E I kappa."""
    return section.elastic_modulus * section.second_moment * kappa


def peak_ratio(pinched: PinchJointModel, unpinched: UnpinchedPairModel,
               theta_ref: float) -> float:
    """Pinched moment at theta_ref over the unpinched curve's maximum."""
    if not theta_ref > 0:
        raise ValueError("theta_ref must be positive")
    return pinched.moment(theta_ref) / unpinched.peak_moment


def moment_angle_curve(model, theta_min: float, theta_max: float, n: int) -> np.ndarray:
    """Sample (theta, moment) at n evenly spaced angles; returns shape (n, 2)."""
    if n < 2:
        raise ValueError("need at least 2 samples")
    thetas = np.linspace(theta_min, theta_max, n)
    return np.column_stack([thetas, [model.moment(t) for t in thetas]])


def write_moment_csv(path, samples) -> None:
    """Write a (theta, moment) table with the standard two-column header."""
    with open(path, "w", newline="") as fh:
        fh.write(MOMENT_CSV_HEADER + "\n")
        for theta, moment in samples:
            fh.write(f"{float(theta)!r},{float(moment)!r}\n")


def read_moment_csv(path) -> np.ndarray:
    """Read a table written by write_moment_csv; returns shape (n, 2)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != MOMENT_CSV_HEADER.split(","):
            raise ValueError(f"unexpected header {header!r}")
        rows = [(float(theta), float(moment)) for theta, moment in reader]
    return np.array(rows)


@dataclass(frozen=True)
class CalibrationResult:
    """Fitted pair model plus the residual norm of the fit."""

    model: UnpinchedPairModel
    residual_norm: float  # N*m, sqrt of the squared-residual sum


def _design_matrix(angles: np.ndarray, peak_angle: float, decay_angle: float) -> np.ndarray:
    """Basis for the two linear coefficients (peak and plateau moments)."""
    ramp = angles <= peak_angle
    exponent = np.where(ramp, 0.0, -(angles - peak_angle) / decay_angle)
    decay = np.exp(exponent)
    phi_peak = np.where(ramp, angles / peak_angle, decay)
    phi_prop = np.where(ramp, 0.0, 1.0 - decay)
    return np.column_stack([phi_peak, phi_prop])


# Levenberg-Marquardt settings: forward-difference step relative to the
# parameter, damping range, stopping tolerances on the relative step and the
# relative cost decrease, and the iteration cap.
_LM_DIFF_STEP = math.sqrt(np.finfo(float).eps)
_LM_DAMPING_START = 1e-3
_LM_DAMPING_MIN = 1e-12
_LM_DAMPING_MAX = 1e16
_LM_STEP_TOL = 1e-10
_LM_COST_TOL = 1e-12
_LM_MAX_ITERATIONS = 100


def _levenberg_marquardt(residuals, u: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimize the squared norm of ``residuals(u)``, starting from ``u``.

    Marquardt's (1963) damped Gauss-Newton iteration with a forward-difference
    Jacobian J. The damping is scaled by diag(J^T J), so it does not depend on
    the units of ``u``. A step is accepted only if its cost is finite and
    lower; otherwise the damping grows tenfold and the step is retried. The
    loop stops on a small relative step or cost decrease, when no damping up
    to _LM_DAMPING_MAX lowers the cost, when the Jacobian is not finite, or
    after _LM_MAX_ITERATIONS. Returns the last accepted point and its cost.
    """
    r = residuals(u)
    cost = float(r @ r)
    damping = _LM_DAMPING_START
    for _ in range(_LM_MAX_ITERATIONS):
        jac = np.empty((r.size, u.size))
        for k in range(u.size):
            shifted = u.copy()
            shifted[k] += _LM_DIFF_STEP * max(1.0, abs(u[k]))
            jac[:, k] = (residuals(shifted) - r) / (shifted[k] - u[k])
        with np.errstate(over="ignore", invalid="ignore"):
            normal = jac.T @ jac
            gradient = jac.T @ r
        if not (np.all(np.isfinite(normal)) and np.all(np.isfinite(gradient))):
            break
        diagonal = np.diag(normal)
        scale = np.diag(np.where(diagonal > 0.0, diagonal, 1.0))
        while damping <= _LM_DAMPING_MAX:
            step = np.linalg.solve(normal + damping * scale, -gradient)
            trial = u + step
            r_trial = residuals(trial)
            cost_trial = float(r_trial @ r_trial)
            if cost_trial < cost:  # False for NaN and inf
                break
            damping *= 10.0
        else:
            break
        small_step = np.linalg.norm(step) <= _LM_STEP_TOL * (_LM_STEP_TOL + np.linalg.norm(u))
        small_gain = cost - cost_trial <= _LM_COST_TOL * cost
        u, r, cost = trial, r_trial, cost_trial
        damping = max(0.1 * damping, _LM_DAMPING_MIN)
        if small_step or small_gain:
            break
    return u, cost


def calibrate_unpinched(samples) -> CalibrationResult:
    """Least-squares fit of the odd pair model to (angle, moment) samples.

    Samples may cover both signs; odd symmetry folds them onto the positive
    half-axis. The fit is separable (variable projection, Golub & Pereyra
    1973): for each candidate shape the two linear coefficients, the peak and
    plateau moments, are solved exactly by linear least squares, and the two
    nonlinear shape parameters, the logs of the peak and decay angles, are
    fitted by a numpy Levenberg-Marquardt loop (``_levenberg_marquardt``).
    It runs from three decay-angle starts, keeps the fit with the lowest
    cost, and finishes with a 1-D pass over the decay angle.

    Raises CalibrationError for degenerate data: fewer than 4 samples, a
    non-finite sample, all samples at one angle, no sample past the torque
    peak, or a fit that ends at a shape that is not finite and positive or
    at moments without 0 < plateau < peak.
    """
    points = [(float(a), float(m)) for a, m in samples]
    if len(points) < 4:
        raise CalibrationError(f"need at least 4 samples, got {len(points)}")
    angles = np.array([abs(a) for a, _ in points])
    moments = np.array([m if a >= 0 else -m for a, m in points])
    if not (np.all(np.isfinite(angles)) and np.all(np.isfinite(moments))):
        raise CalibrationError("samples must be finite")
    if np.ptp(angles) == 0.0:
        raise CalibrationError("all samples share one angle; the curve shape is unconstrained")
    peak_guess = float(angles[int(np.argmax(moments))])
    if peak_guess >= float(np.max(angles)):
        raise CalibrationError("no sample past the torque peak; the plateau is unconstrained")
    if peak_guess <= 0.0:
        raise CalibrationError("torque peak at zero angle; the ramp is unconstrained")

    def solve_linear(log_shape):
        """Moment coefficients and residuals at (log peak, log decay) angles."""
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            peak_angle, decay_angle = np.exp(log_shape)
            design = _design_matrix(angles, peak_angle, decay_angle)
        if not np.all(np.isfinite(design)):
            return None, np.full(moments.shape, math.inf)
        coeffs, *_ = np.linalg.lstsq(design, moments, rcond=None)
        return coeffs, design @ coeffs - moments

    def residuals(log_shape):
        return solve_linear(log_shape)[1]

    fits = [_levenberg_marquardt(residuals, np.log([peak_guess, decay_guess]))
            for decay_guess in (0.5 * peak_guess, peak_guess, 2.0 * peak_guess)]
    log_peak, log_decay = min(fits, key=lambda fit: fit[1])[0]
    # The residual has a kink in the peak angle wherever the peak passes a
    # sample angle, and the optimum often sits on one. The 2-D steps then keep
    # crossing the kink and the decay angle stalls short of its optimum, so a
    # last 1-D pass fits the decay angle with the peak angle held.
    (log_decay,), _ = _levenberg_marquardt(
        lambda v: residuals(np.array([log_peak, v[0]])), np.array([log_decay]))
    best = np.array([log_peak, log_decay])
    with np.errstate(over="ignore"):
        peak_angle, decay_angle = np.exp(best).tolist()
    coeffs, residual = solve_linear(best)
    if coeffs is None or not (0.0 < peak_angle < math.inf and 0.0 < decay_angle < math.inf):
        raise CalibrationError("fit converged to a degenerate shape "
                               f"(peak angle={peak_angle:.6g}, decay angle={decay_angle:.6g})")
    peak_moment, propagation_moment = float(coeffs[0]), float(coeffs[1])
    if not (math.isfinite(peak_moment) and math.isfinite(propagation_moment)
            and 0.0 < propagation_moment < peak_moment):
        raise CalibrationError("fit converged to a degenerate model "
                               f"(peak={peak_moment:.6g}, plateau={propagation_moment:.6g})")
    model = UnpinchedPairModel(peak_moment=peak_moment, peak_angle=peak_angle,
                               propagation_moment=propagation_moment,
                               decay_angle=decay_angle)
    return CalibrationResult(model=model, residual_norm=float(np.linalg.norm(residual)))


def default_models(tape: TapeProperties = DEFAULT_TAPE) -> tuple[PinchJointModel, UnpinchedPairModel]:
    """Pinched and unpinched pair models anchored to the reference bench pair.

    Both models produce their anchor moments at DEFAULT_PEAK_ANGLE: the
    unpinched curve peaks at 0.654 N*m there, and the pinched joint's bend
    region is sized so it needs 0.055 N*m at the same angle.
    """
    section = FlattenedSection.from_tape(tape)
    pinched = PinchJointModel.calibrated(section, DEFAULT_PEAK_ANGLE, PINCHED_MOMENT_AT_PEAK)
    unpinched = UnpinchedPairModel(
        peak_moment=UNPINCHED_PEAK_MOMENT,
        peak_angle=DEFAULT_PEAK_ANGLE,
        propagation_moment=DEFAULT_PROPAGATION_FRACTION * UNPINCHED_PEAK_MOMENT,
    )
    return pinched, unpinched
