"""Bending-moment models for the back-to-back bistable tape pair.

Pinching flattens both tapes over a short region, turning each cross section
into a thin rectangle whose bending moment is linear in curvature. The
unpinched pair resists bending with a stiff ramp up to a peak moment, then
relaxes onto the fold-propagation plateau; the back-to-back arrangement makes
that curve odd-symmetric in the bending angle.

``calibrate_unpinched`` fits that curve to measured samples with numpy alone:
the peak and plateau moments come from linear least squares, and the peak and
decay angles from a small Levenberg-Marquardt loop on the exact Jacobian.
"""

from __future__ import annotations

import bisect
import csv
import math

import numpy as np

from .csvtext import BLOCK_FLOATS, BlockText
from .model import DEFAULT_TAPE, TAPE_COUNT, TapeProperties, _Value

#: Reference pair calibration: the bench pair peaks at 0.654 N*m while the
#: pinched joint needs only 0.055 N*m at that same angle. The angle where the
#: peak occurs and the plateau fraction are configuration choices, not
#: measured values.
UNPINCHED_PEAK_MOMENT = 0.654
PINCHED_MOMENT_AT_PEAK = 0.055
DEFAULT_PEAK_ANGLE = math.radians(10.0)
DEFAULT_PROPAGATION_FRACTION = 0.1

MOMENT_CSV_HEADER = "theta_rad,moment_Nm"

# Most samples moment_angle_curve returns, checked before anything is
# allocated, so time and memory stay bounded: at the limit `stiffness --curve`
# takes about 0.5 s longer than at 81 samples and writes 3.9 MB of CSV.
MAX_CURVE_SAMPLES = 100_000


class CalibrationError(ValueError):
    """Moment-curve fit failed or the data cannot constrain the model."""


class FlattenedSection(_Value):
    """Rectangular cross section of a tape flattened by the pinch rollers.

    The flattened width equals the unrolled cross-section arc, so the second
    moment of area is (transverse_radius * subtended_angle) * t^3 / 12.
    """

    __slots__ = ("width", "thickness", "elastic_modulus")

    def __init__(self, width: float, thickness: float, elastic_modulus: float):
        object.__setattr__(self, "width", width)  # m
        object.__setattr__(self, "thickness", thickness)  # m
        object.__setattr__(self, "elastic_modulus", elastic_modulus)  # Pa
        if not (width > 0 and thickness > 0 and elastic_modulus > 0):
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


class PinchJointModel(_Value):
    """Pinched tapes as a torsional spring over the flattened bend region.

    The bend angle distributes over the flattened length, kappa = theta / Lp,
    so the joint moment is TAPE_COUNT * E * I * theta / Lp.
    """

    __slots__ = ("section", "bend_region_length")

    def __init__(self, section: FlattenedSection, bend_region_length: float = 0.01):
        object.__setattr__(self, "section", section)
        object.__setattr__(self, "bend_region_length", bend_region_length)  # m, roller contact
        if not bend_region_length > 0:
            raise ValueError("bend_region_length must be positive")

    @property
    def stiffness(self) -> float:
        """Torsional stiffness k = TAPE_COUNT * E * I / Lp, N*m/rad."""
        return (TAPE_COUNT * self.section.elastic_modulus *
                self.section.second_moment / self.bend_region_length)

    @classmethod
    def calibrated(cls, section: FlattenedSection, reference_angle: float,
                   reference_moment: float) -> "PinchJointModel":
        """Solve the bend-region length so moment(reference_angle) == reference_moment."""
        if not (reference_angle > 0 and reference_moment > 0):
            raise ValueError("reference angle and moment must be positive")
        lp = (TAPE_COUNT * section.elastic_modulus * section.second_moment *
              reference_angle / reference_moment)
        return cls(section=section, bend_region_length=lp)

    def moment(self, theta: float) -> float:
        return self.stiffness * theta


class UnpinchedPairModel(_Value):
    """Odd moment-angle curve of the unpinched back-to-back pair.

    Linear ramp from the origin to (peak_angle, peak_moment), then an
    exponential relaxation onto the propagation plateau with angular scale
    ``decay_angle``. The ramp slope is peak_moment / peak_angle so the curve
    is continuous at the peak, which is its single positive-side maximum.
    """

    __slots__ = ("peak_moment", "peak_angle", "propagation_moment", "decay_angle")

    def __init__(self, peak_moment: float, peak_angle: float, propagation_moment: float,
                 decay_angle: float | None = None):
        object.__setattr__(self, "peak_moment", peak_moment)  # N*m
        object.__setattr__(self, "peak_angle", peak_angle)  # rad
        object.__setattr__(self, "propagation_moment", propagation_moment)  # N*m, plateau
        # rad, relaxation scale; peak_angle when omitted
        object.__setattr__(self, "decay_angle", peak_angle if decay_angle is None else decay_angle)
        if not peak_angle > 0:
            raise ValueError("peak_angle must be positive")
        if not 0.0 < propagation_moment < peak_moment:
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
    """Sample (theta, moment) at n evenly spaced angles; returns shape (n, 2).

    Raises ValueError for fewer than 2 or more than MAX_CURVE_SAMPLES samples.
    """
    if n < 2:
        raise ValueError("need at least 2 samples")
    if n > MAX_CURVE_SAMPLES:
        raise ValueError(f"{n} samples exceed the {MAX_CURVE_SAMPLES} sample limit")
    thetas = np.linspace(theta_min, theta_max, n)
    return np.column_stack([thetas, [model.moment(t) for t in thetas]])


def write_moment_csv(samples, fh) -> None:
    """Write a (theta, moment) table, with the standard header, to the open text file ``fh``."""
    table = np.asarray(samples, dtype=np.float64).reshape(len(samples), 2)
    fh.write(MOMENT_CSV_HEADER + "\n")
    text = BlockText()
    for first in range(0, len(table), BLOCK_FLOATS // 2):
        block = table[first:first + BLOCK_FLOATS // 2]
        fh.write(text.join_cells(text.float_cells(block, ",\n").reshape(len(block), -1)))


def read_moment_csv(path) -> np.ndarray:
    """Read a table written by write_moment_csv; returns shape (n, 2)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != MOMENT_CSV_HEADER.split(","):
            raise ValueError(f"unexpected header {header!r}")
        rows = [(float(theta), float(moment)) for theta, moment in reader]
    return np.array(rows)


class CalibrationResult(_Value):
    """Fitted pair model plus the residual norm of the fit."""

    __slots__ = ("model", "residual_norm")

    def __init__(self, model: UnpinchedPairModel, residual_norm: float):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "residual_norm", residual_norm)  # N*m, root of the squares' sum


# Levenberg-Marquardt settings: damping range, stopping tolerances on the
# relative step and the relative cost decrease, and the iteration cap.
_LM_DAMPING_START = 1e-3
_LM_DAMPING_MIN = 1e-12
_LM_DAMPING_MAX = 1e16
_LM_STEP_TOL = 1e-10
_LM_COST_TOL = 1e-12
_LM_MAX_ITERATIONS = 100


def _damped_step(normal, gradient, damping: float, scale):
    """Cramer's rule for (normal + damping * diag(scale)) step = -gradient; None if singular."""
    if len(gradient) == 1:
        a = normal[0][0] + damping * scale[0]
        return (-gradient[0] / a,) if a else None
    (h11, h12), (_, h22) = normal
    (g1, g2), a, d = gradient, h11 + damping * scale[0], h22 + damping * scale[1]
    det = a * d - h12 * h12
    return ((h12 * g2 - d * g1) / det, (h12 * g1 - a * g2) / det) if det else None


def _levenberg_marquardt(evaluate, u: tuple) -> tuple[tuple, float]:
    """Marquardt's (1963) damped Gauss-Newton loop over one or two plain floats.

    ``evaluate(u)`` returns the cost and a function, called only at accepted points,
    that returns J^T J (a tuple of rows) and J^T r. The damping, scaled by diag(J^T J),
    grows tenfold per rejected trial; a step is accepted only if its cost is finite
    and lower. Stops on a small relative step or gain, a non-finite J^T J or J^T r, a
    retried step already small or no damping up to _LM_DAMPING_MAX helping, or after
    _LM_MAX_ITERATIONS. Returns the last accepted point and its cost.
    """
    cost, normal = evaluate(u)
    damping = _LM_DAMPING_START
    for _ in range(_LM_MAX_ITERATIONS):
        jtj, jtr = normal()
        if not all(map(math.isfinite, (*jtr, *(h for row in jtj for h in row)))):
            break
        scale = [d if d > 0.0 else 1.0 for d in (row[k] for k, row in enumerate(jtj))]
        step_tol, retried = _LM_STEP_TOL * (_LM_STEP_TOL + math.hypot(*u)), False
        while damping <= _LM_DAMPING_MAX:
            step = _damped_step(jtj, jtr, damping, scale)
            if step is not None:
                small_step = math.hypot(*step) <= step_tol
                if small_step and retried:
                    return u, cost
                trial = tuple(x + dx for x, dx in zip(u, step))
                cost_trial, normal_trial = evaluate(trial)
                if cost_trial < cost:  # False for NaN and inf
                    break
            damping *= 10.0
            retried = True
        else:
            break
        small_gain = cost - cost_trial <= _LM_COST_TOL * cost
        u, cost, normal = trial, cost_trial, normal_trial
        damping = max(0.1 * damping, _LM_DAMPING_MIN)
        if small_step or small_gain:
            break
    return u, cost


def _exp(x: float) -> float:
    """math.exp, with inf where the result overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


# Relative size of the 2x2 normal matrix's determinant, against the product of
# its diagonal, at or below which the two basis columns count as parallel: the
# determinant's own rounding error is about twice the machine epsilon.
_PARALLEL_TOL = 4.0 * np.finfo(float).eps


def _solve_normal_2x2(g11: float, g12: float, g22: float, b1: float, b2: float):
    """Least-squares coefficients from the normal equations G c = b.

    G is the Gram matrix of two basis columns. When the columns are parallel
    to working precision, or one or both are zero, the longer column is
    fitted alone. That leaves the same residual, and a zero column gets
    coefficient 0, which is lstsq's minimum-norm answer.
    """
    det = g11 * g22 - g12 * g12
    if det > _PARALLEL_TOL * g11 * g22:
        return (g22 * b1 - g12 * b2) / det, (g11 * b2 - g12 * b1) / det
    if g11 >= g22:
        return (b1 / g11 if g11 else 0.0), 0.0
    return 0.0, b2 / g22


def _moment_solver(angles: np.ndarray, moments: np.ndarray):
    """The separable fit's inner solve for folded samples (angles >= 0).

    Returns ``solve(log_shape) -> (coeffs, residuals, normal)``: at the
    shape's peak and decay angles, exp(log_shape), the least-squares peak and
    plateau moments, the residual of every sample in ascending angle order,
    and a function for J^T J and J^T r of that residual. On the ramp (angle
    <= peak) the peak column is a / peak and the plateau column 0; past it
    they are fall = exp((peak - a) / decay) and rise = 1 - fall. A shape
    whose columns are not finite (a NaN angle, or a zero peak angle over a
    sample at angle 0) is unfit: coeffs is None and the rest is not finite.

    Sorted by angle, every ramp is a prefix, so its sums of a*a and a*m come
    from running totals and only the samples past the peak are evaluated per
    shape. Rows 0 and 1 of ``work`` take their basis columns and row 2 the
    moments, so one product gives all five tail sums of the normal equations.
    """
    order = np.argsort(angles, kind="stable")
    angles, moments = angles[order], moments[order]
    sorted_angles = angles.tolist()
    n, last = len(sorted_angles), sorted_angles[-1]
    # Ramp sums over a / last <= 1, which tiny or huge angles cannot under- or overflow.
    scaled = angles / last
    ramp_aa = [0.0] + np.cumsum(scaled * scaled).tolist()
    ramp_am = [0.0] + np.cumsum(scaled * moments).tolist()

    def solve(log_shape):
        log_peak, log_decay = log_shape
        peak, decay = _exp(log_peak), _exp(log_decay)
        j = bisect.bisect_right(sorted_angles, peak)
        if math.isnan(peak) or (j and peak == 0.0) or (j < n and math.isnan(decay)):
            return None, np.full(n, math.inf), lambda: (((math.nan,) * 2,) * 2, (math.nan,) * 2)
        work = np.zeros((6, n - j))
        fall, rise, exponent = work[0], work[1], work[5]
        work[2] = moments[j:]
        np.subtract(peak, angles[j:], out=exponent)
        if last - peak > decay * 2.0 ** 1000:  # the quotient may overflow to -inf
            with np.errstate(divide="ignore", over="ignore"):
                np.divide(exponent, decay, out=exponent)
        else:
            np.divide(exponent, decay, out=exponent)
        np.exp(exponent, out=fall)
        np.subtract(1.0, fall, out=rise)
        (g11, g12, b1), (_, g22, b2) = (work[:2] @ work[:3].T).tolist()
        # Divided by peak / last twice, as its square underflows for a tiny
        # peak angle; a ramp of angle-0 samples adds nothing.
        ratio = peak / last
        ramp_gram = ramp_aa[j] / ratio / ratio if ramp_aa[j] else 0.0
        if ramp_aa[j]:
            g11 += ramp_gram
            b1 += ramp_am[j] / ratio
        c0, c1 = _solve_normal_2x2(g11, g12, g22, b1, b2)
        # The residual is c0 * column 0 + c1 * column 1 - moments, term by term.
        residual = np.empty(n)
        rho, tail = angles[:j] / peak, residual[j:]
        np.multiply(rho, c0, out=residual[:j])
        np.multiply(fall, c0, out=tail)
        tail += rise * c1
        residual -= moments

        def normal():
            """J^T J and J^T r of the Golub-Pereyra (1973) Jacobian J_k = P D_k c - A G^+ D_k^T r,
            with A the columns, G = A^T A, D_k their ln-peak or ln-decay derivative and P the
            projector off A's span. The first term (Kaufman's 1975 approximation) is orthogonal
            to the second and r to A, so with Dc = [D_k c], B = A^T Dc and W = [D_k^T r],
            J^T J = Dc^T Dc - B^T G^+ B + W^T G^+ W and J^T r = Dc^T r."""
            # Rows 3 and 4 of ``work`` take the ln-peak and negated ln-decay derivatives of fall
            # (0 where it underflows, never 0 * inf) and row 2 r. On the ramp only column 0,
            # a / peak, and its ln-peak derivative, -a / peak, are not 0. So with d = c0 - c1,
            # D_p c is d * row 3 past the peak and -c0 * a / peak on it, and D_d c -d * row 4.
            work[2] = residual[j:]
            past = fall > 0.0
            np.multiply(fall, peak / decay if decay else math.inf, out=work[3], where=past)
            np.multiply(fall, exponent, out=work[4], where=past)
            m = (work[:5] @ work[:5].T).tolist()
            ramp_r = float(rho @ residual[:j])
            d = c0 - c1
            dc = ((c0 * c0 * ramp_gram + d * d * m[3][3], -d * d * m[3][4]),
                  (-d * d * m[3][4], d * d * m[4][4]))
            b = ((d * m[0][3] - c0 * ramp_gram, d * m[1][3]), (-d * m[0][4], -d * m[1][4]))
            w = ((m[3][2] - ramp_r, -m[3][2]), (-m[4][2], m[4][2]))
            gb, gw = ([_solve_normal_2x2(g11, g12, g22, *v) for v in x] for x in (b, w))
            jtj = tuple(tuple(dc[k][i] - b[k][0] * gb[i][0] - b[k][1] * gb[i][1]
                              + w[k][0] * gw[i][0] + w[k][1] * gw[i][1] for i in range(2))
                        for k in range(2))
            return jtj, (d * m[3][2] - c0 * ramp_r, -d * m[4][2])

        return (c0, c1), residual, normal

    return solve


def calibrate_unpinched(samples) -> CalibrationResult:
    """Least-squares fit of the odd pair model to (angle, moment) samples.

    Samples may cover both signs; odd symmetry folds them onto the positive
    half-axis. The fit is separable (variable projection, Golub & Pereyra
    1973): for each candidate shape the two linear coefficients, the peak and
    plateau moments, are solved exactly by linear least squares
    (``_moment_solver``), and the two nonlinear shape parameters, the logs of
    the peak and decay angles, are fitted by a plain-float Levenberg-Marquardt
    loop (``_levenberg_marquardt``) on the exact Jacobian of that projected
    residual. It runs from three decay-angle starts, keeps the fit with the
    lowest cost, and finishes with a 1-D pass over the decay angle.

    Raises CalibrationError for degenerate data: fewer than 4 samples, a
    non-finite sample, all samples at one angle, no sample past the torque
    peak, or a fit that ends at a shape that is not finite and positive, at
    moments without 0 < plateau < peak, or at a peak angle with no sample
    strictly between it and angle 0, beyond rounding of the peak angle (every
    peak angle up to the first sample past it then fits alike).
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

    # Extreme finite samples overflow in the fit; the checks below decide.
    with np.errstate(all="ignore"):
        solve = _moment_solver(angles, moments)

        def evaluate(log_shape):
            _, residual, normal = solve(log_shape)
            return float(residual @ residual), normal

        fits = [_levenberg_marquardt(evaluate, tuple(np.log([peak_guess, decay_guess]).tolist()))
                for decay_guess in (0.5 * peak_guess, peak_guess, 2.0 * peak_guess)]
        log_peak, log_decay = min(fits, key=lambda fit: fit[1])[0]

        # The residual has a kink in the peak angle wherever the peak passes a
        # sample angle, and the optimum often sits on one. The 2-D steps then keep
        # crossing the kink and the decay angle stalls short of its optimum, so a
        # last 1-D pass fits the decay angle with the peak angle held.
        def evaluate_decay(v):
            cost, normal = evaluate((log_peak, v[0]))

            def decay_normal():
                (_, (_, h)), (_, g) = normal()
                return ((h,),), (g,)
            return cost, decay_normal

        (log_decay,), _ = _levenberg_marquardt(evaluate_decay, (log_decay,))
        peak_angle, decay_angle = _exp(log_peak), _exp(log_decay)
        coeffs, residual, _ = solve((log_peak, log_decay))
        residual_norm = float(np.linalg.norm(residual))
    if coeffs is None or not (0.0 < peak_angle < math.inf and 0.0 < decay_angle < math.inf):
        raise CalibrationError("fit converged to a degenerate shape "
                               f"(peak angle={peak_angle:.6g}, decay angle={decay_angle:.6g})")
    peak_moment, propagation_moment = coeffs
    if not (math.isfinite(peak_moment) and math.isfinite(propagation_moment)
            and 0.0 < propagation_moment < peak_moment):
        raise CalibrationError("fit converged to a degenerate model "
                               f"(peak={peak_moment:.6g}, plateau={propagation_moment:.6g})")
    # A fit whose optimum sits on a sample angle's kink lands a few ulps either
    # side of it, so a sample within _LM_STEP_TOL below the peak is at it.
    if not np.any((angles > 0.0) & (angles < peak_angle * (1.0 - _LM_STEP_TOL))):
        raise CalibrationError("no sample inside the ramp; the peak angle is unconstrained")
    model = UnpinchedPairModel(peak_moment=peak_moment, peak_angle=peak_angle,
                               propagation_moment=propagation_moment,
                               decay_angle=decay_angle)
    return CalibrationResult(model=model, residual_norm=residual_norm)


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
