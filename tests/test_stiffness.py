import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tapearm.model import DEFAULT_TAPE
from tapearm.stiffness import (
    MAX_CURVE_SAMPLES,
    CalibrationError,
    FlattenedSection,
    PinchJointModel,
    UnpinchedPairModel,
    _levenberg_marquardt,
    _moment_solver,
    calibrate_unpinched,
    default_models,
    flattened_moment,
    moment_angle_curve,
    peak_ratio,
    read_moment_csv,
    write_moment_csv,
)
from textcheck import assert_same_text

SECTION = FlattenedSection.from_tape(DEFAULT_TAPE)


def test_flattened_moment_reference_value():
    # Independent arithmetic: I = R0 * alpha * t^3 / 12 for the defaults.
    second_moment = 0.014 * 1.75 * (2e-4) ** 3 / 12.0
    assert SECTION.second_moment == pytest.approx(second_moment, rel=1e-12)
    assert second_moment == pytest.approx(1.633e-14, rel=1e-3)
    assert flattened_moment(SECTION, 0.0) == 0.0
    assert flattened_moment(SECTION, 1.0) == pytest.approx(3.27e-3, abs=1e-5)


def test_flattened_moment_linearity():
    rng = np.random.default_rng(11)
    for kappa in rng.uniform(-5.0, 5.0, 100):
        assert flattened_moment(SECTION, 2.0 * kappa) == 2.0 * flattened_moment(SECTION, kappa)
    for k1, k2 in rng.uniform(-5.0, 5.0, (100, 2)):
        combined = flattened_moment(SECTION, k1 + k2)
        separate = flattened_moment(SECTION, k1) + flattened_moment(SECTION, k2)
        # scale the bound by the term magnitudes so near-cancelling pairs do
        # not inflate the relative error
        scale = abs(flattened_moment(SECTION, k1)) + abs(flattened_moment(SECTION, k2))
        assert abs(combined - separate) <= 1e-15 * scale


def test_pinched_joint_moment():
    model = PinchJointModel(SECTION)
    assert model.moment(0.0) == 0.0
    theta = math.radians(12.0)
    doubled = PinchJointModel(SECTION, bend_region_length=2 * model.bend_region_length)
    assert doubled.moment(theta) == pytest.approx(0.5 * model.moment(theta), rel=1e-12)
    assert model.moment(-theta) == -model.moment(theta)


def test_pinched_calibration_hits_anchor():
    pinched, _ = default_models()
    assert pinched.moment(math.radians(10.0)) == pytest.approx(0.055, rel=1e-9)


def test_unpinched_moment_shape():
    _, unpinched = default_models()
    assert unpinched.moment(0.0) == 0.0
    assert unpinched.moment(unpinched.peak_angle) == pytest.approx(0.654)
    thetas = np.linspace(1e-4, math.pi, 200)
    for theta in thetas:
        assert unpinched.moment(-theta) == -unpinched.moment(theta)
    # continuity at the peak
    eps = 1e-12
    before = unpinched.moment(unpinched.peak_angle - eps)
    after = unpinched.moment(unpinched.peak_angle + eps)
    assert before == pytest.approx(after, abs=1e-9)


def test_unpinched_single_maximum_sweep():
    _, unpinched = default_models()
    thetas = np.linspace(1e-6, math.pi, 10_000)
    moments = np.array([unpinched.moment(t) for t in thetas])
    i_peak = int(np.argmax(moments))
    assert np.all(np.diff(moments[: i_peak + 1]) > 0)
    assert np.all(np.diff(moments[i_peak:]) < 0)
    # exactly one sign change overall (at zero)
    signs = np.sign([unpinched.moment(t) for t in np.linspace(-math.pi, math.pi, 1001)])
    nonzero = signs[signs != 0]
    assert np.count_nonzero(np.diff(nonzero)) == 1


def test_pinched_below_unpinched_up_to_peak():
    pinched, unpinched = default_models()
    for theta in np.linspace(1e-6, unpinched.peak_angle, 500):
        assert pinched.moment(theta) < unpinched.moment(theta)


def test_unpinched_model_invariants():
    with pytest.raises(ValueError):
        UnpinchedPairModel(peak_moment=0.5, peak_angle=0.2, propagation_moment=0.6)
    with pytest.raises(ValueError):
        UnpinchedPairModel(peak_moment=0.5, peak_angle=-0.1, propagation_moment=0.05)
    model = UnpinchedPairModel(peak_moment=0.5, peak_angle=0.2, propagation_moment=0.05)
    assert model.decay_angle == model.peak_angle
    assert model.pre_peak_stiffness == pytest.approx(2.5)


def test_peak_ratio():
    pinched, unpinched = default_models()
    ratio = peak_ratio(pinched, unpinched, math.radians(10.0))
    assert ratio == pytest.approx(0.055 / 0.654, abs=1e-3)

    matched = PinchJointModel.calibrated(SECTION, unpinched.peak_angle, unpinched.peak_moment)
    assert peak_ratio(matched, unpinched, unpinched.peak_angle) == pytest.approx(1.0, rel=1e-12)

    halved_region = PinchJointModel(SECTION, bend_region_length=pinched.bend_region_length / 2)
    assert peak_ratio(halved_region, unpinched, math.radians(10.0)) == pytest.approx(
        2 * ratio, rel=1e-12)

    with pytest.raises(ValueError):
        peak_ratio(pinched, unpinched, 0.0)


def test_moment_angle_curve_endpoints():
    _, unpinched = default_models()
    table = moment_angle_curve(unpinched, 0.0, 0.3, 2)
    assert table.shape == (2, 2)
    assert table[0, 0] == 0.0 and table[1, 0] == 0.3
    assert table[0, 1] == 0.0
    with pytest.raises(ValueError):
        moment_angle_curve(unpinched, 0.0, 0.3, 1)
    # refused before anything is allocated
    with pytest.raises(ValueError, match="sample limit"):
        moment_angle_curve(unpinched, 0.0, 0.3, 10**18)
    assert len(moment_angle_curve(unpinched, 0.0, 0.3, MAX_CURVE_SAMPLES)) == MAX_CURVE_SAMPLES


def test_moment_csv_roundtrip(tmp_path):
    _, unpinched = default_models()
    table = moment_angle_curve(unpinched, 0.0, 0.6, 25)
    path = tmp_path / "curve.csv"
    with open(path, "w", newline="") as fh:
        write_moment_csv(table, fh)
    assert path.read_text().splitlines()[0] == "theta_rad,moment_Nm"
    loaded = read_moment_csv(path)
    assert np.array_equal(loaded, table)
    path.write_text("theta_deg,moment_Nm\n0.0,0.0\n")
    with pytest.raises(ValueError, match="unexpected header"):
        read_moment_csv(path)


def test_moment_csv_matches_reference_loop_and_roundtrips(tmp_path):
    # more rows than one block, and values off the kernel's fast path
    _, unpinched = default_models()
    table = moment_angle_curve(unpinched, -0.6, 0.6, 10_001)
    table[:4] = [[0.0, -0.0], [0.5, 1e-9], [-1e300, math.inf], [5e-324, 2.0**-20]]
    path = tmp_path / "curve.csv"
    with open(path, "w", newline="") as fh:
        write_moment_csv(table, fh)
    assert_same_text(path.read_text(), "theta_rad,moment_Nm\n" + "".join(
        f"{theta!r},{moment!r}\n" for theta, moment in table.tolist()))
    assert np.array_equal(read_moment_csv(path), table)


def test_calibration_recovers_known_model(tmp_path):
    truth = UnpinchedPairModel(peak_moment=0.654, peak_angle=math.radians(10.0),
                               propagation_moment=0.0654, decay_angle=math.radians(14.0))
    # go through the CSV export so the whole table pipeline is exercised
    path = tmp_path / "samples.csv"
    with open(path, "w", newline="") as fh:
        write_moment_csv(moment_angle_curve(truth, 0.0, math.radians(45.0), 40), fh)
    result = calibrate_unpinched(read_moment_csv(path))
    fitted = result.model
    assert fitted.peak_moment == pytest.approx(truth.peak_moment, rel=1e-6)
    assert fitted.peak_angle == pytest.approx(truth.peak_angle, rel=1e-6)
    assert fitted.propagation_moment == pytest.approx(truth.propagation_moment, rel=1e-6)
    assert fitted.decay_angle == pytest.approx(truth.decay_angle, rel=1e-6)
    assert result.residual_norm < 1e-9


def test_calibration_fixed_point():
    truth = UnpinchedPairModel(peak_moment=0.7, peak_angle=0.15,
                               propagation_moment=0.09, decay_angle=0.2)
    first = calibrate_unpinched(moment_angle_curve(truth, 0.0, 0.8, 33)).model
    second = calibrate_unpinched(moment_angle_curve(first, 0.0, 0.8, 33)).model
    assert second.peak_moment == pytest.approx(first.peak_moment, rel=1e-6)
    assert second.peak_angle == pytest.approx(first.peak_angle, rel=1e-6)
    assert second.propagation_moment == pytest.approx(first.propagation_moment, rel=1e-6)
    assert second.decay_angle == pytest.approx(first.decay_angle, rel=1e-6)


def test_calibration_with_anchor_points():
    _, unpinched = default_models()
    thetas = list(np.linspace(0.02, 0.6, 24)) + [math.radians(10.0)]
    samples = [(t, unpinched.moment(t)) for t in thetas]
    result = calibrate_unpinched(samples)
    assert result.model.peak_moment == pytest.approx(0.654, rel=0.05)


def test_calibration_folds_negative_angles():
    truth = UnpinchedPairModel(peak_moment=0.4, peak_angle=0.12, propagation_moment=0.05)
    thetas = np.linspace(-0.7, 0.7, 31)
    samples = [(t, truth.moment(t)) for t in thetas]
    fitted = calibrate_unpinched(samples).model
    assert fitted.peak_moment == pytest.approx(truth.peak_moment, rel=1e-6)


def test_calibration_degenerate_data():
    with pytest.raises(CalibrationError):
        calibrate_unpinched([(0.1, 0.2), (0.2, 0.3), (0.3, 0.25)])  # too few
    with pytest.raises(CalibrationError):
        calibrate_unpinched([(0.1, 0.2)] * 5)  # one angle
    ramp_only = [(t, 2.0 * t) for t in np.linspace(0.01, 0.2, 10)]
    with pytest.raises(CalibrationError):
        calibrate_unpinched(ramp_only)  # no post-peak sample
    with pytest.raises(CalibrationError):
        calibrate_unpinched([(0.1, 0.2), (0.2, math.nan), (0.3, 0.1), (0.4, 0.1)])
    with pytest.raises(CalibrationError, match="torque peak at zero angle"):
        calibrate_unpinched([(0, 1), (0.1, 0.5), (0.2, 0.4), (0.3, 0.3)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # One clear peak, then a tail that decays exactly toward -1: the fit
        # is exact, with a negative plateau. This outcome held under 500
        # random 1-ulp perturbations of the samples or of the residuals.
        with pytest.raises(CalibrationError, match="degenerate model"):
            calibrate_unpinched([(0.1, 0.5), (0.2, 1.0), (0.3, 0.0), (0.4, -0.5), (0.5, -0.75)])
        # The tail falls past the peak and then rises again, so no decay fits
        # it better than a drop to the plateau at once: the decay angle
        # underflows to zero, here and under 300 random 1-ulp perturbations
        # of the samples.
        samples = np.array([(0.5, 0.0), (0.6, 1.5), (0.7, -0.25), (0.8, -0.5), (0.9, 0.5)])
        steps = np.random.default_rng(0).integers(0, 3, (300,) + samples.shape)
        for nudged in [samples, *np.nextafter(samples, np.choose(steps, (-math.inf, samples,
                                                                         math.inf)))]:
            with pytest.raises(CalibrationError, match="degenerate shape"):
                calibrate_unpinched(nudged.tolist())


def test_calibration_needs_a_sample_inside_the_ramp():
    # every peak angle in (0, 0.3] fits these noiseless samples alike
    truth = UnpinchedPairModel(0.654, 0.17, 0.0654, 0.2)
    angles = [0.0, *np.linspace(0.3, 1.0, 12)]
    with pytest.raises(CalibrationError, match="no sample inside the ramp"):
        calibrate_unpinched([(a, truth.moment(a)) for a in angles])
    # one sample inside the ramp fixes it
    fitted = calibrate_unpinched([(a, truth.moment(a)) for a in [0.1, *angles]]).model
    assert fitted.peak_angle == pytest.approx(truth.peak_angle, rel=1e-6)


@pytest.mark.parametrize("scale", [1e-300, 1e-100, 1.0, 1e100, 1e300])
def test_calibration_does_not_depend_on_the_angle_unit(scale):
    # Four samples that the model fits exactly, with plateau 11/28 and
    # exp(-scale / decay angle) = 1/15, at any angle unit: the ramp sums of
    # a * a neither underflow for tiny angles nor overflow for huge ones.
    samples = [(scale, 1.0), (2.0 * scale, 2.0), (3.0 * scale, 0.5), (4.0 * scale, 0.4)]
    fitted = calibrate_unpinched(samples).model
    expected = [2.0, 2.0 * scale, 11.0 / 28.0, scale / math.log(15.0)]
    assert _params(fitted) == pytest.approx(np.array(expected), rel=1e-9)


def test_levenberg_marquardt_accepts_only_finite_descent():
    # Undamped Gauss-Newton diverges on arctan from |u| > 1.39; its first
    # step from 3 lands at about -9.5, where this residual is infinite.
    def evaluate(u):
        if abs(u[0]) >= 5.0:
            return math.inf, None
        r, slope = math.atan(u[0]), 1.0 / (1.0 + u[0] * u[0])
        return r * r, lambda: (((slope * slope,),), (slope * r,))

    u, cost = _levenberg_marquardt(evaluate, (3.0,))
    assert abs(u[0]) < 1e-8 and cost < 1e-16


def test_levenberg_marquardt_stops_on_non_finite_jacobian():
    calls = []

    def evaluate(u):
        calls.append(u[0])
        return (u[0] - 2.0) ** 2, lambda: (((math.inf,),), (u[0] - 2.0,))

    start = 1.0 - 1e-9
    u, cost = _levenberg_marquardt(evaluate, (start,))
    assert u == (start,) and cost == (start - 2.0) ** 2 and calls == [start]


def _pair_models(peak, angle, plateau, decay):
    """Random pair models around the bench pair: peak moment and angle are
    0.654 N*m and 10 deg scaled by factors drawn from ``peak`` and ``angle``,
    the plateau a fraction of the peak and the decay angle a multiple of the
    peak angle, each drawn from its (low, high) range."""
    def model(peak_factor, angle_factor, plateau_fraction, decay_factor):
        peak_angle = math.radians(10.0) * angle_factor
        return UnpinchedPairModel(
            peak_moment=0.654 * peak_factor, peak_angle=peak_angle,
            propagation_moment=0.654 * peak_factor * plateau_fraction,
            decay_angle=peak_angle * decay_factor)
    return st.builds(model, st.floats(*peak), st.floats(*angle), st.floats(*plateau),
                     st.floats(*decay))


def _params(model):
    return np.array([model.peak_moment, model.peak_angle, model.propagation_moment,
                     model.decay_angle])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_pair_models(peak=(0.7, 1.3), angle=(0.6, 1.5), plateau=(0.05, 0.3),
                     decay=(0.4, 2.5)))
def test_calibration_recovers_noiseless_models(truth):
    samples = moment_angle_curve(truth, 0.0, math.radians(60.0), 81)
    fitted = calibrate_unpinched(samples).model
    assert _params(fitted) == pytest.approx(_params(truth), rel=1e-6)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_pair_models(peak=(0.9, 1.1), angle=(0.8, 1.2), plateau=(0.08, 0.15),
                     decay=(0.7, 1.5)),
       st.integers(0, 2**32 - 1))
def test_calibration_holds_anchors_under_noise(truth, seed):
    # 2 mN*m of noise on 81 samples over 0-60 deg: the fitted peak, peak angle
    # and plateau stay within 2 %, 5 % and 10 % of the generating model.
    samples = moment_angle_curve(truth, 0.0, math.radians(60.0), 81)
    samples[:, 1] += np.random.default_rng(seed).normal(0.0, 0.002, len(samples))
    fitted = calibrate_unpinched(samples).model
    assert fitted.peak_moment == pytest.approx(truth.peak_moment, rel=0.02)
    assert fitted.peak_angle == pytest.approx(truth.peak_angle, rel=0.05)
    assert fitted.propagation_moment == pytest.approx(truth.propagation_moment, rel=0.10)


def _reference_solve(angles, moments, log_shape):
    """The lstsq kernel calibrate_unpinched replaced: the whole (n, 2) design
    and np.linalg.lstsq at every shape."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        peak_angle, decay_angle = np.exp(log_shape)
        ramp = angles <= peak_angle
        decay = np.exp(np.where(ramp, 0.0, -(angles - peak_angle) / decay_angle))
        design = np.column_stack([np.where(ramp, angles / peak_angle, decay),
                                  np.where(ramp, 0.0, 1.0 - decay)])
    if not np.all(np.isfinite(design)):
        return None, np.full(moments.shape, math.inf)
    coeffs, *_ = np.linalg.lstsq(design, moments, rcond=None)
    return coeffs, design @ coeffs - moments


# A numpy Levenberg-Marquardt loop on a forward-difference Jacobian, with the
# same rules and tolerances, so the reference calibration shares no code with
# calibrate_unpinched's loop.
_REFERENCE_DIFF_STEP = math.sqrt(np.finfo(float).eps)


def _reference_levenberg_marquardt(residuals, u):
    r = residuals(u)
    cost = float(r @ r)
    damping = 1e-3
    for _ in range(100):
        jac = np.empty((r.size, u.size))
        for k in range(u.size):
            shifted = u.copy()
            shifted[k] += _REFERENCE_DIFF_STEP * max(1.0, abs(u[k]))
            jac[:, k] = (residuals(shifted) - r) / (shifted[k] - u[k])
        with np.errstate(over="ignore", invalid="ignore"):
            normal = jac.T @ jac
            gradient = jac.T @ r
        if not (np.all(np.isfinite(normal)) and np.all(np.isfinite(gradient))):
            break
        diagonal = np.diag(normal)
        scale = np.diag(np.where(diagonal > 0.0, diagonal, 1.0))
        while damping <= 1e16:
            step = np.linalg.solve(normal + damping * scale, -gradient)
            trial = u + step
            r_trial = residuals(trial)
            cost_trial = float(r_trial @ r_trial)
            if cost_trial < cost:
                break
            damping *= 10.0
        else:
            break
        small_step = np.linalg.norm(step) <= 1e-10 * (1e-10 + np.linalg.norm(u))
        small_gain = cost - cost_trial <= 1e-12 * cost
        u, r, cost = trial, r_trial, cost_trial
        damping = max(0.1 * damping, 1e-12)
        if small_step or small_gain:
            break
    return u, cost


def _reference_calibration(samples):
    """calibrate_unpinched with the lstsq kernel and the forward-difference
    numpy LM loop: the same checks, starts and 1-D pass."""
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

    def residuals(log_shape):
        return _reference_solve(angles, moments, log_shape)[1]

    fits = [_reference_levenberg_marquardt(residuals, np.log([peak_guess, decay_guess]))
            for decay_guess in (0.5 * peak_guess, peak_guess, 2.0 * peak_guess)]
    log_peak, log_decay = min(fits, key=lambda fit: fit[1])[0]
    (log_decay,), _ = _reference_levenberg_marquardt(
        lambda v: residuals(np.array([log_peak, v[0]])), np.array([log_decay]))
    best = np.array([log_peak, log_decay])
    with np.errstate(over="ignore"):
        peak_angle, decay_angle = np.exp(best).tolist()
    coeffs, residual = _reference_solve(angles, moments, best)
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
    return model, float(np.linalg.norm(residual))


_SAMPLE_ANGLES = np.array([0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.45, 0.6])


@pytest.mark.parametrize("angles", [_SAMPLE_ANGLES, _SAMPLE_ANGLES[1:]],
                         ids=["with-zero-angle", "without-zero-angle"])
@pytest.mark.parametrize("log_peak, log_decay", [
    (math.log(0.12), math.log(0.1)),  # an ordinary shape
    (math.log(0.6), math.log(0.1)),  # the ramp holds every sample: plateau column zero
    (800.0, 0.0),                    # the peak angle overflows: both columns zero
    (-400.0, math.log(0.1)),         # peak * peak underflows, the peak angle does not
    (-800.0, math.log(0.1)),         # the peak angle underflows to zero
    (math.log(0.12), -800.0),        # the decay angle underflows: fall is 0
    (math.log(0.12), -720.0),        # (peak - angle) / decay overflows
    (math.log(0.12), 800.0),         # the decay angle overflows: plateau column zero
    (math.nan, 0.0),
    (math.log(0.12), math.nan),
    (math.log(0.6), math.nan),       # a NaN decay angle with nothing past the peak
])
def test_moment_solver_matches_lstsq_on_degenerate_shapes(angles, log_peak, log_decay):
    _, model = default_models()
    moments = np.array([model.moment(a) for a in angles]) + 0.01 * np.sin(40.0 * angles)
    shape = np.array([log_peak, log_decay])
    coeffs, residual, _ = _moment_solver(angles, moments)(shape)
    expected_coeffs, expected_residual = _reference_solve(angles, moments, shape)
    if expected_coeffs is None:
        assert coeffs is None and np.all(residual == math.inf)
        return
    assert coeffs == pytest.approx(expected_coeffs, rel=1e-9, abs=1e-12)
    assert residual == pytest.approx(expected_residual, rel=1e-9, abs=1e-12)


@st.composite
def _measured_curves(draw):
    """Samples of a random pair model that pin all four parameters: 1-40
    angles inside the ramp and 3-150 past the peak, within four decay angles.
    Some angles repeat, the moments may carry noise, and each sample may be
    mirrored to the negative side; the order is shuffled."""
    truth = draw(_pair_models(peak=(0.7, 1.3), angle=(0.6, 1.5), plateau=(0.05, 0.3),
                              decay=(0.4, 2.5)))
    ramp_count, tail_count = draw(st.integers(1, 40)), draw(st.integers(3, 150))
    repeats = draw(st.integers(0, 200 - ramp_count - tail_count))
    noise = draw(st.sampled_from([0.0, 0.0005, 0.002]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    angles = np.concatenate([
        truth.peak_angle * np.linspace(0.0, 1.0, ramp_count + 1, endpoint=False)[1:],
        truth.peak_angle + truth.decay_angle * np.linspace(0.1, 4.0, tail_count)])
    angles = np.concatenate([angles, rng.choice(angles, repeats)])
    moments = np.array([truth.moment(a) for a in angles]) + rng.normal(0.0, noise, angles.size)
    signs = rng.choice([-1.0, 1.0], angles.size) if draw(st.booleans()) else 1.0
    return rng.permutation(np.column_stack([signs * angles, signs * moments]))


def _outcome(calibrate, samples):
    try:
        return calibrate(samples)
    except CalibrationError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_measured_curves())
def test_calibration_agrees_with_lstsq_reference(samples):
    reference = _outcome(_reference_calibration, samples)
    result = _outcome(calibrate_unpinched, samples)
    if isinstance(reference, str) or isinstance(result, str):
        assert result == reference
        return
    model, residual_norm = reference
    assert _params(result.model) == pytest.approx(_params(model), rel=1e-6)
    assert result.residual_norm <= residual_norm * (1 + 1e-9) + 1e-12


@st.composite
def _shapes_away_from_kinks(draw):
    """Folded samples of a random pair model, with noise, and a log shape near
    the model's. The peak angle is at least 1e-3 rad from every sample angle,
    so the residual is smooth around the shape; one or more samples lie inside
    the ramp and three or more, spread over a decay angle, past the peak, so
    the two basis columns are far from parallel."""
    truth = draw(_pair_models(peak=(0.7, 1.3), angle=(0.6, 1.5), plateau=(0.05, 0.3),
                              decay=(0.4, 2.5)))
    peak = truth.peak_angle * draw(st.floats(0.7, 1.4))
    decay = truth.decay_angle * draw(st.floats(0.7, 1.4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ramp = rng.uniform(0.0, peak - 1e-3, draw(st.integers(1, 20)))
    tail = rng.uniform(peak + 1e-3, peak + 4.0 * decay, draw(st.integers(3, 60)))
    assume(np.ptp(tail) >= decay)
    angles = np.concatenate([[0.0] * draw(st.integers(0, 2)), ramp, tail])
    noise = draw(st.sampled_from([0.0, 0.002, 0.01]))
    moments = np.array([truth.moment(a) for a in angles]) + rng.normal(0.0, noise, angles.size)
    return angles, moments, (math.log(peak), math.log(decay))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_shapes_away_from_kinks())
def test_jacobian_normal_equations_match_finite_differences(case):
    # Central differences, whose error here stays below 1e-8 relative; forward
    # differences at a 1e-8 step reach 1.6e-6 on these curves.
    angles, moments, shape = case
    solve = _moment_solver(angles, moments)
    _, residual, normal = solve(shape)
    step = 1e-5
    columns = []
    for k in range(2):
        up, down = list(shape), list(shape)
        up[k] += step
        down[k] -= step
        columns.append((solve(up)[1] - solve(down)[1]) / (2.0 * step))
    jac = np.column_stack(columns)
    jtj, jtr = normal()
    # Each entry relative to its Cauchy-Schwarz bound; the residual of an
    # exact fit is rounding, about 1e-16 of the moments.
    norms = np.linalg.norm(jac, axis=0)
    assert np.all(np.abs(np.array(jtj) - jac.T @ jac) <= 1e-6 * np.outer(norms, norms))
    size = np.linalg.norm(residual) + 1e-6 * np.linalg.norm(moments)
    assert np.all(np.abs(np.array(jtr) - jac.T @ residual) <= 1e-6 * norms * size)


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)), min_size=4,
                max_size=40))
def test_calibration_returns_a_model_or_raises_calibration_error(samples):
    angles = np.abs([a for a, _ in samples])
    moments = np.array([m if a >= 0 else -m for a, m in samples])
    peak_guess = angles[int(np.argmax(moments))]
    assume(np.any((angles > 0.0) & (angles < peak_guess)))
    try:
        result = calibrate_unpinched(samples)
    except CalibrationError:
        return
    model = result.model
    assert 0.0 < model.propagation_moment < model.peak_moment
    assert 0.0 < model.peak_angle < math.inf and 0.0 < model.decay_angle < math.inf
    assert math.isfinite(result.residual_norm)


def _extreme(sign):
    magnitude = st.one_of(st.floats(1e-300, 1e-200), st.floats(1e-3, 1e3),
                          st.floats(1e200, 1e308), st.sampled_from([1e-300, 1.0, 1e308]))
    return magnitude.map(lambda v: sign * v) if sign else st.one_of(magnitude, magnitude.map(
        lambda v: -v))


@pytest.mark.filterwarnings("error")
@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_extreme(0), _extreme(0)), min_size=4, max_size=12))
@example([(0.1, 1.0), (0.2, 2.0), (1e300, 0.5), (2e300, 0.4)])
@example([(0.1, 1e308), (0.2, 1.7e308), (0.3, 1e308), (0.4, -1e308)])
def test_calibration_on_extreme_samples_returns_a_model_or_raises(samples):
    # numpy warnings are errors here: an overflow inside the fit must end in
    # a model or a CalibrationError, never in a RuntimeWarning
    try:
        result = calibrate_unpinched(samples)
    except CalibrationError:
        return
    assert 0.0 < result.model.propagation_moment < result.model.peak_moment
