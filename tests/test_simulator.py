import io
import math
import os
import resource
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tapearm import simulator
from tapearm.csvtext import BLOCK_FLOATS
from tapearm.model import (
    BOUND_EPS,
    CABLE_RANGE_SLACK,
    DEFAULT_PARAMS,
    CablePair,
    CableRangeError,
    ControlState,
    JointState,
    ManipulatorParams,
    Violation,
    validate_state,
)
from tapearm.planner import ControlProfile, PlanningError, RateCommand, control_from_state
from tapearm.simulator import (
    INITIAL_CONSISTENCY_TOL,
    LOG_COLUMNS,
    LOG_CSV_HEADER,
    MAX_LOG_ROWS,
    Abort,
    CheckResult,
    LogRow,
    LogRows,
    Scenario,
    ScenarioError,
    SimState,
    TrajectoryLog,
    _BLOCK_ROWS,
    _evaluate_rows,
    builtin_scenarios,
    evaluate_check,
    initial_state,
    log_to_csv,
    parse_check,
    run_scenario,
)
from textcheck import assert_same_text
from valuecopy import replace

PARAMS = DEFAULT_PARAMS


# --- reference loop: the per-row simulator the columnar one replaces -------

def _violations_loop(l1, l2, theta, params):
    """The Violations of one state, from the four bound tests written out one by
    one, apart from model's bound table, so that an error there cannot pass both
    sides."""
    violations = []
    if l1 < params.l1_min - BOUND_EPS:
        violations.append(Violation("l1_min", l1, params.l1_min, l1 - params.l1_min))
    if l2 < params.l2_min - BOUND_EPS:
        violations.append(Violation("l2_min", l2, params.l2_min, l2 - params.l2_min))
    total = l1 + l2
    if total > params.max_total_length + BOUND_EPS:
        violations.append(Violation("max_total_length", total, params.max_total_length,
                                    params.max_total_length - total))
    if abs(theta) > params.theta_limit + BOUND_EPS:
        violations.append(Violation("theta_limit", theta, params.theta_limit,
                                    params.theta_limit - abs(theta)))
    return tuple(violations)


def _violation_text_loop(v):
    return f"{v.bound}[value={v.value:.9g} limit={v.limit:.9g} margin={v.margin:.3g}]"


def _evaluate_segment_loop(start, rates, t_rels, datum, params):
    t0, q1_0, q2_0, cL_0, cR_0 = start
    q1_rate, q2_rate, cL_rate, cR_rate = rates
    l1_0, l2_0 = datum
    d = params.cable_offset
    four_d = 4.0 * d
    two_d = 2.0 * d
    ratio_cap = 1.0 + CABLE_RANGE_SLACK
    l1_floor = params.l1_min - BOUND_EPS
    l2_floor = params.l2_min - BOUND_EPS
    total_cap = params.max_total_length + BOUND_EPS
    theta_cap = params.theta_limit + BOUND_EPS
    for t_rel in t_rels:
        q1 = q1_0 + q1_rate * t_rel
        q2 = q2_0 + q2_rate * t_rel
        cL = cL_0 + cL_rate * t_rel
        cR = cR_0 + cR_rate * t_rel
        l1 = q1 + q2 + l1_0
        l2 = -q2 + l2_0
        ratio = (cL - cR) / four_d
        if abs(ratio) > ratio_cap:
            raise CableRangeError(
                f"cable differential {cL - cR:.9g} m is outside the +/-{four_d:.9g} m "
                f"range reachable at offset d={d:.9g} m")
        theta = 2.0 * math.asin(max(-1.0, min(1.0, ratio)))
        total = l1 + l2
        # rows with a non-finite length are left to the segment-end check
        if math.isfinite(l1) and math.isfinite(l2) and (
                l1 < l1_floor or l2 < l2_floor or total > total_cap or abs(theta) > theta_cap):
            violations = _violations_loop(l1, l2, theta, params)
        else:
            violations = ()
        yield LogRow(t0 + t_rel, q1, q2, cL, cR, l1, l2, theta,
                     l2 * math.sin(theta), l1 + l2 * math.cos(theta),
                     abs(cL - (total + two_d * math.sin(0.5 * theta))), violations)


def _check_loop(name, rows, arg):
    if name in ("l1_constant", "bend_point_constant"):
        drift = max(abs(row.l1 - rows[0].l1) for row in rows)
        return drift, f"max |l1 - l1(0)| = {drift:.3g} m"
    if name == "eq3_residual":
        residual = max(row.eq3_residual for row in rows)
        return residual, f"max cable consistency residual = {residual:.3g} m"
    if name == "l1_growth_equals_node_drive":
        growth = rows[-1].l1 - rows[0].l1
        node_drive = rows[-1].q2 - rows[0].q2
        mismatch = abs(growth - node_drive)
        if growth <= 0.0:
            return math.inf, f"l1 did not grow (change {growth:.3g} m)"
        return mismatch, (f"l1 grew {growth:.6g} m vs node drive {node_drive:.6g} m "
                          f"(mismatch {mismatch:.3g} m)")
    if "theta" in name:
        target = arg
        if name == "theta_constant":
            deviation = max(abs(row.theta - target) for row in rows)
            return deviation, f"max |theta - {target:.6g} rad| = {deviation:.3g} rad"
        if name == "final_theta":
            deviation = abs(rows[-1].theta - target)
            return deviation, f"|final theta - {target:.6g} rad| = {deviation:.3g} rad"
        closest = min(abs(row.theta - target) for row in rows)
        return closest, f"closest approach to theta={target:.6g} rad is {closest:.3g} rad"
    x, y = arg
    if name == "target":
        miss = math.hypot(rows[-1].x - x, rows[-1].y - y)
        return miss, f"final pose misses ({x:.6g}, {y:.6g}) m by {miss:.3g} m"
    if name == "visits_target":
        miss = min(math.hypot(row.x - x, row.y - y) for row in rows)
        return miss, f"closest approach to ({x:.6g}, {y:.6g}) m is {miss:.3g} m"
    miss = max(math.hypot(row.x - x, row.y - y) for row in rows)
    return miss, f"max distance from ({x:.6g}, {y:.6g}) m is {miss:.3g} m"


def _evaluate_check_loop(text, rows):
    expect_fail, name, arg, tol, _ = parse_check(text)
    observed, detail = _check_loop(name, rows, arg)
    passed = observed <= tol
    if expect_fail:
        outcome = "failed as expected" if not passed else "unexpectedly passed"
        return CheckResult(text, not passed, observed, tol, f"inner check {outcome}: {detail}")
    return CheckResult(text, passed, observed, tol, detail)


def _first_row_loop(initial, params):
    """The row the per-row simulator logged at t = 0 from ``initial``."""
    start = (0.0, initial.control.q1, initial.control.q2,
             initial.cables.c_L, initial.cables.c_R)
    (row,) = _evaluate_segment_loop(start, (0.0,) * 4, (-0.0,),
                                    (initial.control.l1_0, initial.control.l2_0), params)
    return row


def _run_scenario_loop(scenario):
    """(rows, checks, boundary_indices, abort) as the per-row simulator logged them."""
    params = scenario.params
    initial = scenario.initial
    datum = (initial.control.l1_0, initial.control.l2_0)
    rows = [_first_row_loop(initial, params)]
    boundary_indices = []
    abort = None
    for index, (duration, command) in enumerate(scenario.profile.segments):
        n = round(duration / scenario.dt)
        t_rels = [duration if k == n else k * scenario.dt for k in range(1, n + 1)]
        rates = (command.q1_rate, command.q2_rate, command.cL_rate, command.cR_rate)
        last = rows[-1]
        first = len(rows)
        try:
            for row in _evaluate_segment_loop((last.t, last.q1, last.q2, last.cL, last.cR),
                                              rates, t_rels, datum, params):
                rows.append(row)
        except CableRangeError as exc:
            abort = Abort(last.t + t_rels[len(rows) - first], str(exc))
            break
        end = rows[-1]
        if not all(map(math.isfinite, (end.q1, end.q2, end.cL, end.cR,
                                       end.l1, end.l2, end.x, end.y))):
            raise ScenarioError(f"segment {index} drives the state to non-finite values")
        boundary_indices.append(len(rows) - 1)
    checks = ([_evaluate_check_loop(check, rows) for check in scenario.checks]
              if abort is None else [])
    return rows, checks, boundary_indices, abort


def _log_csv_loop(rows, params, marked):
    """The CSV of ``rows``, naming the violations of each ``marked`` row with
    _violations_loop."""
    lines = [LOG_CSV_HEADER + "\n"]
    for row, mark in zip(rows, marked):
        violations = ";".join(map(_violation_text_loop, _violations_loop(
            row.l1, row.l2, row.theta, params) if mark else ()))
        fields = [repr(value) for value in
                  (row.t, row.q1, row.q2, row.cL, row.cR, row.l1, row.l2,
                   row.theta, row.x, row.y, row.eq3_residual)]
        lines.append(",".join(fields + [violations]) + "\n")
    return "".join(lines)


def _start(l1=0.3, l2=0.5, theta=0.0):
    return initial_state(control_from_state(JointState(l1, l2, theta)), theta, PARAMS)


def _run(state, *segments, dt=0.01, checks=()):
    return run_scenario(Scenario("test", PARAMS, state, ControlProfile(segments), dt, checks))


def test_step_zero_rates_identical_state():
    log = _run(_start(theta=math.radians(10.0)), (1.0, RateCommand()))
    first = log.rows[0]
    assert len(log.rows) == 101
    assert log.final.t == 1.0
    assert replace(log.final, t=first.t) == first


def test_step_growth_only_feeds_l1():
    log = _run(_start(), (1.0, RateCommand(q1_rate=0.05, cL_rate=0.05, cR_rate=0.05)))
    assert log.final.l1 == pytest.approx(0.35, abs=1e-12)
    assert all(row.l2 == 0.5 for row in log.rows)
    assert log.final.t == pytest.approx(1.0, abs=1e-12)


def test_step_stationary_bend_has_no_drift():
    command = RateCommand(q1_rate=-0.05, q2_rate=0.05, cL_rate=-0.05, cR_rate=-0.05)
    log = _run(_start(l2=0.8), (10.0, command))
    assert max(abs(row.l1 - 0.3) for row in log.rows) <= 1e-9
    assert log.final.l2 == pytest.approx(0.3, abs=1e-9)


def test_step_rejects_impossible_cable_differential():
    # the first segment is fine; the second drives the differential past 4d
    # after 0.5 s of its 1 s, which aborts the run and keeps the rows before
    bend = 4.0 * PARAMS.cable_offset
    segments = ((1.0, RateCommand()), (1.0, RateCommand(cL_rate=bend, cR_rate=-bend)))
    log = _run(_start(), *segments, checks=("eq3_residual",))
    assert log.abort.time == 1.51
    assert "cable differential" in log.abort.reason
    assert len(log.rows) == 151 and log.final.t == 1.5
    assert log.boundary_indices == [100]
    assert log.checks == [] and not log.all_passed
    with pytest.raises(ScenarioError):
        Scenario("bad", PARAMS, _start(), ControlProfile(()), dt=0.0)


def test_retract_past_zero_length_records_violations():
    # retracting 1.2 m from a 0.8 m arm drives both cables through zero and
    # negative; the run finishes and logs the length-bound violations
    log = _run(_start(), (12.0, RateCommand(q1_rate=-0.1, cL_rate=-0.1, cR_rate=-0.1)),
               checks=("eq3_residual",))
    assert len(log.rows) == 1201
    assert log.final.cL < 0.0 and log.final.l1 == pytest.approx(-0.9, abs=1e-9)
    assert {v.bound for v in log.final.violations} == {"l1_min"}
    assert log.all_passed
    assert not log.rows[0].violations


def test_check_consistency_fresh_state():
    log = _run(_start(theta=math.radians(20.0)))
    row = log.final
    assert row.eq3_residual <= 1e-12
    assert row.violations == ()
    assert (row.l1, row.l2) == (0.3, 0.5)
    assert row.theta == pytest.approx(math.radians(20.0), abs=1e-12)


def test_check_consistency_corrupted_cable():
    state = _start(theta=math.radians(10.0))
    corrupted = SimState(state.control, CablePair(state.cables.c_L + 1e-3, state.cables.c_R))
    with pytest.raises(ScenarioError, match="inconsistent"):
        _run(corrupted)
    # within the initial tolerance the run proceeds and the check sees it
    drifted = SimState(state.control,
                       CablePair(state.cables.c_L + 4e-10, state.cables.c_R + 4e-10))
    log = _run(drifted, (1.0, RateCommand()), checks=("eq3_residual:1e-10",))
    assert log.checks[0].observed == pytest.approx(4e-10, rel=1e-3)
    assert not log.all_passed


def test_check_consistency_zero_margin_at_limit():
    # theta travels through the cable map and back, so "zero" is a few ulp
    # and stays within the 1e-12 bound slack
    log = _run(_start(theta=PARAMS.theta_limit), (1.0, RateCommand()))
    assert all(row.violations == () for row in log.rows)
    assert log.final.theta == pytest.approx(PARAMS.theta_limit, abs=1e-12)


def test_run_scenario_empty_profile():
    scenario = Scenario("noop", PARAMS, _start(), ControlProfile(()),
                        checks=("l1_constant", "eq3_residual"))
    log = run_scenario(scenario)
    assert len(log.rows) == 1
    assert log.all_passed
    assert [c.check for c in log.checks] == ["l1_constant", "eq3_residual"]


def test_run_scenario_rejects_inconsistent_initial_state():
    state = _start()
    broken = SimState(state.control,
                      CablePair(state.cables.c_L + 0.01, state.cables.c_R + 0.01))
    with pytest.raises(ScenarioError, match="^initial state is inconsistent: cable sum does not "
                                            "match the link lengths$"):
        Scenario("broken", PARAMS, broken, ControlProfile(()))


def test_scenario_rejects_a_clock_that_overflows():
    # each segment is one step, but their sum, the last row's t, is inf
    segments = ((1e308, RateCommand()), (1e308, RateCommand()))
    with pytest.raises(ScenarioError, match="^the segment durations add up to inf s"):
        Scenario("bad", PARAMS, _start(), ControlProfile(segments), dt=1e308)
    # just below the largest float the run logs a finite clock
    log = _run(_start(), (8e307, RateCommand()), (8e307, RateCommand()), dt=8e307)
    assert log.rows.column("t").tolist() == [0.0, 8e307, 1.6e308]


@pytest.mark.filterwarnings("error")
def test_scenario_rejects_fractional_step_counts():
    for segments in (
            ((0.015, RateCommand()),),
            # 1e309 steps: the count overflows to inf
            ((1e307, RateCommand()),),
            # a segment too short for a step would log no row, and its 1 mm of
            # extension would never happen
            ((1e-12, RateCommand(q1_rate=1e9)),),
            ((1e-12, RateCommand(q1_rate=1.0)), (1.0, RateCommand(q1_rate=0.05)),
             (1e-12, RateCommand(cL_rate=0.5)), (1.0, RateCommand(cR_rate=0.01)))):
        with pytest.raises(ScenarioError, match="whole number of dt=0.01 s steps, at least one"):
            Scenario("bad", PARAMS, _start(), ControlProfile(segments), dt=0.01)


@pytest.mark.parametrize("name", ["", ".", "..", "a/b", "../up", "/abs/path",
                                  # and names that are no file name
                                  "a\0b", "a" * 244, "\udc80", "\ud800x",
                                  # and names that are no XML 1.0 text
                                  "a\x01b", "\x1b[31m", "a\ufffeb"])
def test_scenario_rejects_names_that_leave_the_output_directory(name):
    with pytest.raises(ScenarioError, match="scenario name"):
        Scenario(name, PARAMS, _start(), ControlProfile(()))


def test_scenario_rejects_unknown_checks():
    with pytest.raises(ScenarioError, match="unknown check"):
        Scenario("bad", PARAMS, _start(), ControlProfile(()), checks=("no_such_check",))
    with pytest.raises(ScenarioError):
        parse_check("theta_constant")  # missing argument
    with pytest.raises(ScenarioError):
        parse_check("l1_constant:1e-6:extra")


@pytest.mark.parametrize("text, parsed", [
    ("theta_constant:22deg:1e-6", (False, "theta_constant", math.radians(22.0), 1e-6)),
    ("expect_fail:final_theta:-0.5", (True, "final_theta", -0.5, 1e-6)),
    ("target: (0.1, -2) :0.01", (False, "target", (0.1, -2.0), 0.01)),
    ("eq3_residual", (False, "eq3_residual", None, 1e-9)),
])
def test_parse_check_returns_the_parsed_argument(text, parsed):
    assert parse_check(text)[:4] == parsed


_CHECK_NAMES = sorted(simulator._CHECKS)
# the characters of check arguments and tolerances, and a few others
_CHECK_TEXT = st.text(alphabet="(),:.+-_ 0123456789eEinfadegrx\t\u00b2\u0660")


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.one_of(st.text(), _CHECK_TEXT,
                 st.builds(lambda prefix, name, parts: prefix + ":".join([name, *parts]),
                           st.sampled_from(["", "expect_fail:"]),
                           st.sampled_from(_CHECK_NAMES),
                           st.lists(st.one_of(_CHECK_TEXT, st.text()), max_size=3))))
@example("target:(1,2,3)")
@example("final_theta:10grad")
@example("l1_constant:nan")
@example("l1_constant:-1")
@example("eq3_residual:1e400")
@example("target:(nan,1)")
@example("theta_constant:infdeg")
@example("expect_fail:l1_constant:nan")
def test_parse_check_returns_or_raises_a_scenario_error(text):
    try:
        _, _, arg, tol, _ = parse_check(text)
    except ScenarioError:
        return
    assert arg is None or np.isfinite(arg).all(), arg
    assert 0.0 <= tol < math.inf, tol


def test_violations_recorded_not_raised():
    # drive the bend a few degrees past the hinge limit: the run completes
    # and the rows record the violation
    state = _start(l1=0.3, l2=0.5, theta=math.radians(50.0))
    bend_rate = 0.0005
    profile = ControlProfile(((4.0, RateCommand(cL_rate=bend_rate, cR_rate=-bend_rate)),))
    log = run_scenario(Scenario("overbend", PARAMS, state, profile))
    final = log.rows[-1]
    assert abs(final.theta) > PARAMS.theta_limit
    assert any("theta_limit" in str(v) for v in final.violations)
    assert not log.rows[0].violations


def test_length_budget_violation_recorded_not_clamped():
    state = _start(l1=0.9, l2=0.9)
    profile = ControlProfile(((4.0, RateCommand(q1_rate=0.1, cL_rate=0.1, cR_rate=0.1)),))
    log = run_scenario(Scenario("overlong", PARAMS, state, profile))
    final = log.rows[-1]
    assert final.l1 + final.l2 == pytest.approx(2.2, abs=1e-9)
    assert any("max_total_length" in str(v) for v in final.violations)


def test_builtin_scenarios_all_pass():
    for name, scenario in builtin_scenarios().items():
        log = run_scenario(scenario)
        assert log.all_passed, f"{name}: {[c.detail for c in log.checks if not c.passed]}"


_RATE_DEMOS = {"constant-angle-retraction", "stationary-bend", "stationary-bend-uncoordinated"}


# Parameters that put some demos' pose waypoints out of reach, and those
# demos, and the demos whose joint-state waypoints, or whose start or segment
# ends, they put outside a bound.
@pytest.mark.parametrize("overrides, out_of_reach, outside", [
    ({"l1_min": 0.9}, {"reach-two-targets", "multi-config-same-target"}, _RATE_DEMOS),
    ({"max_total_length": 0.5}, {"reach-two-targets", "multi-config-same-target"},
     {"deploy-and-bend", *_RATE_DEMOS}),
    ({"theta_limit": 0.1}, {"reach-two-targets", "multi-config-same-target"},
     {"deploy-and-bend", "constant-angle-retraction"}),
    ({"l2_min": 0.5}, {"multi-config-same-target"}, {"deploy-and-bend", *_RATE_DEMOS}),
])
def test_demo_out_of_reach_raises_a_planning_error_and_the_rest_pass(overrides, out_of_reach,
                                                                      outside):
    params = replace(DEFAULT_PARAMS, **overrides)
    for name, build in simulator.DEMOS.items():
        if name in out_of_reach:
            with pytest.raises(PlanningError, match=f"^demo '{name}': .* m is out of reach"):
                build(params)
        elif name in outside:
            where = (f"demo '{name}': the (start|end of segment 0)" if name in _RATE_DEMOS
                     else r"waypoint \d")
            with pytest.raises(PlanningError, match=f"^{where} is outside the bounds: "):
                build(params)
        else:
            log = run_scenario(build(params))
            assert log.all_passed, f"{name}: {[c.detail for c in log.checks if not c.passed]}"
            assert not log.rows.outside.any(), name


def test_stationary_bend_holds_l1_and_uncoordinated_grows():
    scenarios = builtin_scenarios()
    held = run_scenario(scenarios["stationary-bend"])
    drift = max(abs(r.l1 - held.rows[0].l1) for r in held.rows)
    assert drift <= 1e-6

    grown = run_scenario(scenarios["stationary-bend-uncoordinated"])
    growth = grown.rows[-1].l1 - grown.rows[0].l1
    node_drive = grown.rows[-1].q2 - grown.rows[0].q2
    assert growth == pytest.approx(0.5, abs=1e-9)
    assert abs(growth - node_drive) <= 1e-6


def test_constant_angle_retraction_holds_theta():
    log = run_scenario(builtin_scenarios()["constant-angle-retraction"])
    target = math.radians(22.0)
    assert max(abs(r.theta - target) for r in log.rows) <= 1e-6
    assert max(r.eq3_residual for r in log.rows) <= 1e-9
    assert log.rows[-1].l1 < log.rows[0].l1  # it actually retracted


def test_reach_two_targets_hits_both():
    log = run_scenario(builtin_scenarios()["reach-two-targets"])
    best_first = min(math.hypot(r.x - 0.229, r.y - 0.838) for r in log.rows)
    assert best_first <= 1e-3
    assert math.hypot(log.rows[-1].x - 0.076, log.rows[-1].y - 0.838) <= 1e-3


def test_determinism_bit_identical_logs():
    scenario = builtin_scenarios()["deploy-and-bend"]
    rows_a = run_scenario(scenario).rows
    rows_b = run_scenario(scenario).rows
    assert rows_a == rows_b


def test_log_time_strictly_increasing():
    for scenario in builtin_scenarios().values():
        rows = run_scenario(scenario).rows
        assert all(a.t < b.t for a, b in zip(rows, rows[1:]))


def test_boundary_states_independent_of_dt():
    for name, scenario in builtin_scenarios().items():
        halved = Scenario(scenario.name, scenario.params, scenario.initial,
                          scenario.profile, scenario.dt / 2, scenario.checks)
        log = run_scenario(scenario)
        log_halved = run_scenario(halved)
        for i, j in zip(log.boundary_indices, log_halved.boundary_indices):
            assert log.rows[i] == log_halved.rows[j], name


def test_expect_fail_wrapping():
    rows = run_scenario(builtin_scenarios()["stationary-bend-uncoordinated"]).rows
    wrapped = evaluate_check("expect_fail:l1_constant:1e-6", rows)
    assert wrapped.passed
    plain = evaluate_check("l1_constant:1e-6", rows)
    assert not plain.passed


def test_log_csv_format():
    log = run_scenario(builtin_scenarios()["constant-angle-retraction"])
    fh = io.StringIO()
    log_to_csv(log, fh)
    lines = fh.getvalue().splitlines()
    assert lines[0] == LOG_CSV_HEADER
    assert len(lines) == 1 + len(log.rows)
    first = lines[1].split(",")
    assert len(first) == 12
    assert float(first[0]) == 0.0


def test_explicit_cables_set_the_start_angle():
    control = ControlState(0.0, 0.0, 0.4, 0.4)
    joint = JointState(0.4, 0.4, math.radians(15.0))
    from tapearm.model import cable_lengths
    row = _run(SimState(control, cable_lengths(joint, PARAMS.cable_offset))).final
    assert row.theta == pytest.approx(joint.theta, abs=1e-12)
    assert row.eq3_residual <= 1e-12
    assert row.t == 0.0 and math.copysign(1.0, row.t) == 1.0


def test_scenario_rejects_a_start_without_a_kinematic_state():
    state = _start()
    with pytest.raises(CableRangeError, match="cable differential"):
        Scenario("bad", PARAMS, SimState(state.control, CablePair(0.8, 0.6)),
                 ControlProfile(()))
    # +inf and -inf link lengths, whose sum is NaN
    control = ControlState(1e308, 1e308, 0.0, -1e308)
    with pytest.raises(ValueError, match="JointState.l1 must be finite"):
        Scenario("bad", PARAMS, SimState(control, state.cables), ControlProfile(()))


def test_rows_view_behaves_like_the_row_list():
    log = _run(_start(), (12.0, RateCommand(q1_rate=-0.1, cL_rate=-0.1, cR_rate=-0.1)))
    rows = log.rows
    listed = list(rows)
    assert len(rows) == len(listed) == 1201
    assert rows[-1] == listed[-1] == log.final and rows[-1201] == listed[0]
    assert rows[1:4] == listed[1:4] and rows[::-400] == listed[::-400]
    assert all(isinstance(value, float) for value in list(rows[7]._asdict().values())[:-1])
    with pytest.raises(IndexError):
        rows[1201]
    with pytest.raises(IndexError):
        rows[-1202]
    assert [i for i, row in enumerate(rows) if row.violations] == sorted(rows.violations)
    assert rows == _run(_start(), (12.0, RateCommand(q1_rate=-0.1, cL_rate=-0.1,
                                                      cR_rate=-0.1))).rows
    assert rows != _run(_start(), (12.0, RateCommand(q1_rate=-0.1))).rows
    assert list(rows.column("l1")) == [row.l1 for row in listed]
    with pytest.raises(ValueError, match="read-only"):
        rows.column("l1")[0] = 1.0


def test_scenario_row_budget_is_checked_before_running():
    dt = 0.001
    fits = (round((MAX_LOG_ROWS - 1) * dt, 9), RateCommand())
    Scenario("fits", PARAMS, _start(), ControlProfile((fits,)), dt)
    with pytest.raises(ScenarioError, match="row limit"):
        Scenario("over", PARAMS, _start(), ControlProfile((fits, (dt, RateCommand()))), dt)
    with pytest.raises(ScenarioError, match="row limit"):
        Scenario("huge", PARAMS, _start(), ControlProfile(((1e9, RateCommand()),)), dt)
    # a whole count past int64's range, about 1e302
    with pytest.raises(ScenarioError, match=r"^the profile logs \d{303} rows at dt=0.01 s"):
        Scenario("huge", PARAMS, _start(), ControlProfile(((1e300, RateCommand()),)), 0.01)


def test_scenario_accepts_a_255_byte_file_name():
    Scenario("\u00e9" * 121 + "a", PARAMS, _start(), ControlProfile(()))
    Scenario("a" * 243, PARAMS, _start(), ControlProfile(()))


@pytest.mark.filterwarnings("error")
def test_huge_finite_states_grade_without_numpy_warnings():
    # y reaches 1.7e308, so its distance from y = -1e308 overflows to inf
    command = RateCommand(q1_rate=1.7e306, cL_rate=1.7e306, cR_rate=1.7e306)
    checks = ("target_held:(0,-1e308)", "visits_target:(0,-1e308)")
    log = _run(_start(), (100.0, command), dt=10.0, checks=checks)
    assert [c.observed for c in log.checks] == [math.inf, 1e308 + 0.8]


def test_rates_that_overflow_a_length_reject_the_segment():
    # l1 overflows to inf, which also breaks the length budget: the row gets
    # no violations, and the segment end reports the overflow
    with pytest.raises(ScenarioError, match="segment 0 drives the state to non-finite values"):
        _run(_start(), (1e10, RateCommand(q1_rate=1e300)), dt=1e10)


def test_run_scenario_memory_is_the_log_plus_a_few_blocks():
    # 200k rows in three segments: the log is 17.6 MB, and every temporary is
    # per block of _BLOCK_ROWS rows, so a gather of segment data over the
    # whole run (1.6 MB for one index column) does not fit under the bound
    profile = ControlProfile(((800.0, RateCommand(q1_rate=1e-4)),
                              (800.0, RateCommand(q2_rate=1e-4)),
                              (400.0, RateCommand(cL_rate=1e-6, cR_rate=-1e-6))))
    scenario = Scenario("long", PARAMS, _start(theta=0.2), profile, 0.01)
    tracemalloc.start()
    try:
        log = run_scenario(scenario)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(log.rows) == 200_001 and log.abort is None
    assert peak <= log.rows.values.nbytes + 64 * _BLOCK_ROWS * 8


def test_log_to_csv_memory_is_a_few_blocks():
    # the same 200k rows: every temporary is per block of BLOCK_FLOATS floats,
    # about 4.3 MiB, where one frame over the whole log would take hundreds of MB.
    # The bound is absolute, so that a larger block size has to fit in it too.
    profile = ControlProfile(((800.0, RateCommand(q1_rate=1e-4)),
                              (800.0, RateCommand(q2_rate=1e-4)),
                              (400.0, RateCommand(cL_rate=1e-6, cR_rate=-1e-6))))
    log = run_scenario(Scenario("long", PARAMS, _start(theta=0.2), profile, 0.01))
    with open(os.devnull, "w") as fh:
        tracemalloc.start()
        try:
            log_to_csv(log, fh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak <= 8 * 2**20


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the fault count of a freed and re-used heap is glibc's")
def test_log_to_csv_blocks_do_not_fault_pages_in_again():
    # the same 200k rows: one working set serves every block, where block-sized
    # temporaries that the allocator hands back to the OS fault in again
    profile = ControlProfile(((800.0, RateCommand(q1_rate=1e-4)),
                              (800.0, RateCommand(q2_rate=1e-4)),
                              (400.0, RateCommand(cL_rate=1e-6, cR_rate=-1e-6))))
    log = run_scenario(Scenario("long", PARAMS, _start(theta=0.2), profile, 0.01))
    with open(os.devnull, "w") as fh:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        log_to_csv(log, fh)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 5000


@pytest.mark.parametrize("in_bounds_blocks", [False, True], ids=["marks-in-every-block",
                                                                    "in-bounds-blocks-between"])
def test_log_csv_blocks_of_every_kind_reuse_one_working_set(in_bounds_blocks):
    # block after block of repr-only rows (zeros, residuals below 1e-4, powers of
    # two), fast-path rows, negative rows and wide integers, then a short last
    # block, so each block's cells differ in width from the last one's
    rng = np.random.default_rng(5)
    block = BLOCK_FLOATS // len(LOG_COLUMNS)
    shape = (len(LOG_COLUMNS), block)
    kinds = [
        rng.choice([0.0, -0.0, 0.5, 2.0, 1e-7, -3e-9], shape) * rng.integers(1, 3, shape),
        rng.uniform(1e-4, 10.0, shape),
        -rng.uniform(1e-4, 1.0, shape),
        rng.uniform(1e13, 1e14, shape).round(2),
    ]
    short = rng.uniform(-1.0, 1.0, (shape[0], 37))
    values = np.concatenate(kinds + kinds[::-1] + [short], axis=1)
    # every 97th row is marked outside a bound: its l1 breaks l1_min, and on
    # every other one its theta breaks theta_limit too. With in_bounds_blocks,
    # only the rows of every other full block are, so the violation column
    # switches between text and zero width from block to block, and the short
    # last block is in bounds.
    marked = np.arange(0, values.shape[1], 97)
    if in_bounds_blocks:
        marked = marked[(marked // block % 2 == 0) & (marked < 8 * block)]
        assert np.unique(marked // block).tolist() == [0, 2, 4, 6]
    outside = np.zeros(values.shape[1], bool)
    outside[marked] = True
    values[LOG_COLUMNS.index("l1"), marked] = -0.5
    values[LOG_COLUMNS.index("l2"), marked] = 0.25
    values[LOG_COLUMNS.index("theta"), marked] = np.where(marked % 2, 2.0, 0.1)
    rows = LogRows(values, PARAMS, outside)
    assert [len(rows[row].violations) for row in marked.tolist()] == list(marked % 2 + 1)
    fh = io.StringIO()
    log_to_csv(TrajectoryLog("blocks", rows, [], []), fh)
    assert_same_text(fh.getvalue(), _log_csv_loop(rows, PARAMS, outside))


def _counted_naming(monkeypatch):
    """The number of states that each call of model.validate_states, the one
    function that names a log's violations, names from now on."""
    calls = []
    validate_states = simulator.validate_states

    def counted(l1, l2, theta, params, *text):
        calls.append(len(l1))
        return validate_states(l1, l2, theta, params, *text)

    monkeypatch.setattr(simulator, "validate_states", counted)
    return calls


def _outside_scenario(params=PARAMS):
    """2001 rows, each breaking l1_min, max_total_length and theta_limit."""
    state = JointState(0.05, 2.0, math.radians(60.0))
    retract = RateCommand(q1_rate=-1e-4, cL_rate=-1e-4, cR_rate=-1e-4)
    return Scenario("outside", params,
                    initial_state(control_from_state(state), state.theta, params),
                    ControlProfile(((20.0, retract),)), 0.01, ("eq3_residual",))


def test_run_scenario_derives_violations_only_when_read(monkeypatch):
    # every row breaks l1_min, max_total_length and theta_limit: the run marks
    # them, and the violations are named from the columns when the rows are read
    calls = _counted_naming(monkeypatch)
    log = run_scenario(_outside_scenario())
    assert len(log.rows) == 2001 and log.all_passed
    assert repr(log.rows) == "<LogRows: 2001 rows, 2001 with violations>"
    assert calls == []
    violations = log.rows.violations
    assert calls == [2001]
    assert log.rows[7].violations == violations[7]
    assert calls == [2001, 1]
    assert [[v.bound for v in row] for row in violations.values()] == (
        [["l1_min", "max_total_length", "theta_limit"]] * 2001)


# one check of each name
_EVERY_CHECK = ("l1_constant", "bend_point_constant", "theta_constant:1.05",
                "final_theta:1.05", "theta_visits:1.05", "target:(1.7,0.05)",
                "visits_target:(1.7,0.05)", "target_held:(1.7,0.05)", "eq3_residual",
                "l1_growth_equals_node_drive")


def test_checks_violations_and_csv_build_no_log_row(monkeypatch):
    # they read the log's columns: the same results with row access refused
    log = run_scenario(_outside_scenario())
    assert {parse_check(check)[1] for check in _EVERY_CHECK} == set(simulator._CHECKS)
    checks = [evaluate_check(check, log.rows) for check in _EVERY_CHECK]
    violations = log.rows.violations
    fh = io.StringIO()
    log_to_csv(log, fh)

    def refused(self, index):
        raise AssertionError(f"row {index} read as a LogRow")

    monkeypatch.setattr(LogRows, "__getitem__", refused)
    assert [evaluate_check(check, log.rows) for check in _EVERY_CHECK] == checks
    assert log.rows.violations == violations
    again = io.StringIO()
    log_to_csv(log, again)
    assert again.getvalue() == fh.getvalue()


def test_log_rows_equality_names_no_violations(monkeypatch):
    # equal values and params make equal violations, so == compares only those
    rows, again = run_scenario(_outside_scenario()).rows, run_scenario(_outside_scenario()).rows
    # the same bounds, so the same values and violations, under other params
    heavier = run_scenario(_outside_scenario(replace(PARAMS, node_mass=1.0))).rows
    calls = _counted_naming(monkeypatch)
    assert rows == again and rows != heavier
    assert np.array_equal(rows.values, heavier.values)
    assert calls == []


# --- the columnar log against the reference loop ----------------------------

_ANGLE_CHECKS = ("theta_constant", "final_theta", "theta_visits")
_POINT_CHECKS = ("target", "visits_target", "target_held")
_PLAIN_CHECKS = ("l1_constant", "bend_point_constant", "eq3_residual",
                 "l1_growth_equals_node_drive")


@st.composite
def _checks(draw):
    name = draw(st.sampled_from(_ANGLE_CHECKS + _POINT_CHECKS + _PLAIN_CHECKS))
    if name in _ANGLE_CHECKS:
        name += f":{draw(st.floats(-1.6, 1.6))!r}rad"
    elif name in _POINT_CHECKS:
        name += f":({draw(st.floats(-1.0, 1.0))!r},{draw(st.floats(-0.5, 2.0))!r})"
    tol = draw(st.sampled_from(["", ":1e-9", ":1e-3", ":0.1"]))
    return draw(st.sampled_from(["", "expect_fail:"])) + name + tol


_RATE = st.one_of(st.sampled_from([0.0, 0.05, -0.05]), st.floats(-0.3, 0.3))


@st.composite
def _starts(draw):
    """Parameters, and a start whose left cable may drift off its link lengths."""
    params = replace(
        PARAMS, cable_offset=draw(st.floats(0.005, 0.05)),
        theta_limit=draw(st.floats(0.2, 1.5)), l1_min=draw(st.floats(0.0, 0.3)),
        l2_min=draw(st.floats(0.0, 0.2)), max_total_length=draw(st.floats(0.5, 3.0)))
    q1, q2 = draw(st.floats(-0.3, 0.3)), draw(st.floats(-0.3, 0.3))
    l1, l2 = draw(st.floats(0.1, 1.0)), draw(st.floats(0.1, 1.0))
    control = ControlState(q1, q2, l1 - q1 - q2, l2 + q2)
    start = initial_state(control, draw(st.floats(-1.5, 1.5)), params)
    drift = draw(st.sampled_from([0.0, 0.0, 0.0, 4e-10, 1e-3]))  # 1e-3: inconsistent
    if drift:
        start = SimState(control, CablePair(start.cables.c_L + drift, start.cables.c_R))
    return params, start


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_starts())
def test_scenario_refuses_exactly_the_starts_whose_first_row_drifts(case):
    params, start = case
    drifts = _first_row_loop(start, params).eq3_residual > INITIAL_CONSISTENCY_TOL
    try:
        Scenario("start", params, start, ControlProfile(()))
    except ScenarioError as exc:
        assert drifts and str(exc).startswith("initial state is inconsistent: "), exc
    else:
        assert not drifts


@st.composite
def _scenarios(draw):
    params, start = draw(_starts())
    dt = draw(st.sampled_from([0.001, 0.01, 0.02, 0.05, 0.1, 0.3]))
    legs = draw(st.lists(st.tuples(st.integers(1, 300), _RATE, _RATE, _RATE, _RATE),
                         max_size=3))
    profile = ControlProfile(tuple((steps * dt, RateCommand(*rates))
                                   for steps, *rates in legs))
    checks = tuple(draw(st.lists(_checks(), min_size=1, max_size=4)))
    try:
        return Scenario("random", params, start, profile, dt, checks)
    except ScenarioError:
        assume(False)


def _example(*segments, dt=0.01, checks=("eq3_residual", "visits_target:(0.1,0.7)"), theta=0.2):
    return Scenario("example", PARAMS, _start(theta=theta), ControlProfile(segments), dt, checks)


def _extremes(point):
    return tuple(f"{name}:({point[0]!r},{point[1]!r})"
                 for name in ("visits_target", "target_held", "target"))


_BEND = 4.0 * PARAMS.cable_offset


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(_scenarios())
# retracts past zero length: every late row breaks l1_min
@example(_example((12.0, RateCommand(q1_rate=-0.1, cL_rate=-0.1, cR_rate=-0.1))))
# rows 561-2000 break l1_min, across the CSV writer's 1489-row blocks
@example(_example((20.0, RateCommand(q1_rate=-0.04, cL_rate=-0.04, cR_rate=-0.04))))
# the cable differential leaves the +/-4d range mid-segment
@example(_example((1.0, RateCommand()), (1.0, RateCommand(cL_rate=_BEND, cR_rate=-_BEND))))
# a distance whose last bit math.hypot and np.hypot round differently
@example(_example((0.1, RateCommand()), checks=("visits_target:(0.93,0.504)",
                                                "target_held:(0.93,0.504)")))
# bending at constant lengths keeps the end effector at l2 = 0.5 m from the
# node (0, 0.3): 301 distances tied within an ulp of the extremes
@example(_example((3.0, RateCommand(cL_rate=0.01, cR_rate=-0.01)), checks=_extremes((0.0, 0.3))))
# the straight start sits at (0, 0.8) exactly: a distance of 0, then growing
@example(_example((0.1, RateCommand(q1_rate=0.05, cL_rate=0.05, cR_rate=0.05)),
                  checks=_extremes((0.0, 0.8)), theta=0.0))
# subnormal distances, every row tied
@example(_example((0.1, RateCommand()), checks=_extremes((5e-324, 0.8)), theta=0.0))
@example(_example((0.1, RateCommand()),
                  checks=_extremes((1e-310, 0.8)) + _extremes((-3e-320, 0.8)), theta=0.0))
# the last row's distance overflows to inf among finite ones near 1e308
@example(_example((1.0, RateCommand()), (1.0, RateCommand(q1_rate=1e308)), dt=0.25,
                  checks=_extremes((0.0, -1e308))))
# 3000 + 2500 + 10 steps: blocks span segments, and boundaries fall inside them
@example(_example((30.0, RateCommand(q1_rate=0.001, cL_rate=0.001, cR_rate=0.001)),
                  (25.0, RateCommand(cL_rate=1e-4, cR_rate=-1e-4)),
                  (0.1, RateCommand(q2_rate=-0.01))))
# the cable differential leaves the +/-4d range in the second of three segments
@example(_example((1.0, RateCommand()), (1.0, RateCommand(cL_rate=_BEND, cR_rate=-_BEND)),
                  (1.0, RateCommand())))
def test_columnar_log_matches_reference_loop(scenario):
    # the loop raises ScenarioError at a non-finite segment end, which
    # Scenario must have refused
    rows, checks, boundary_indices, abort = _run_scenario_loop(scenario)
    log = run_scenario(scenario)
    for name in LOG_COLUMNS:
        assert ([value.hex() for value in log.rows.column(name).tolist()]
                == [getattr(row, name).hex() for row in rows]), name
    assert log.rows.violations == {i: row.violations for i, row in enumerate(rows)
                                   if row.violations}
    assert log.boundary_indices == boundary_indices
    assert log.abort == abort and (abort is None or log.abort.time.hex() == abort.time.hex())
    assert ([(c.check, c.passed, c.observed.hex(), c.threshold, c.detail) for c in log.checks]
            == [(c.check, c.passed, c.observed.hex(), c.threshold, c.detail) for c in checks])
    fh = io.StringIO()
    log_to_csv(log, fh)
    assert_same_text(fh.getvalue(), _log_csv_loop(rows, scenario.params,
                                                  [bool(row.violations) for row in rows]))


@pytest.mark.parametrize("segments, dt, segment, aborts", [
    # the rates overflow the state to inf
    (((1e10, RateCommand(q1_rate=1e300)),), 1e10, 0, False),
    (((1e10, RateCommand(cL_rate=1e300, cR_rate=1e300)),), 1e10, 0, False),
    # the first segment overflows the state and the second would abort at once
    (((1e10, RateCommand(q1_rate=1e300)),
      (1e10, RateCommand(cL_rate=1e300, cR_rate=-1e300))), 1e10, 0, False),
    # the run would abort in the first segment, before the second overflows
    (((1.0, RateCommand(cL_rate=_BEND, cR_rate=-_BEND)), (2.0, RateCommand(q1_rate=1e308))),
     0.01, 1, True),
])
def test_scenario_refuses_a_segment_that_overflows_the_state(segments, dt, segment, aborts):
    fields = dict(name="example", params=PARAMS, initial=_start(theta=0.2),
                  profile=ControlProfile(segments), dt=dt, checks=("eq3_residual",))
    message = f"segment {segment} drives the state to non-finite values"
    with pytest.raises(ScenarioError, match=f"^{message}$"):
        Scenario(**fields)
    # the reference loop, which checks each segment's end once the run has
    # finished it, stops at the same segment, or aborts before reaching it
    if aborts:
        assert _run_scenario_loop(SimpleNamespace(**fields))[3] is not None
    else:
        with pytest.raises(ScenarioError, match=f"^{message}$"):
            _run_scenario_loop(SimpleNamespace(**fields))


@st.composite
def _clustered_positions(draw):
    """A point, and end-effector positions around it: on one circle, so that
    their distances tie within a few ulps, at radii from 0 through the
    subnormals to 1000 m, and at times on the point itself."""
    point = tuple(draw(st.sampled_from([0.0, 1e-310, 0.3, -2.5, 1e6]) | st.floats(-10.0, 10.0))
                  for _ in range(2))
    radius = draw(st.sampled_from([0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1e-9,
                                   0.5, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, 300))
    radii = radius * (1.0 + rng.integers(-4, 5, count) * np.finfo(float).eps)
    radii[rng.random(count) < draw(st.sampled_from([0.0, 0.1]))] = 0.0
    angles = rng.uniform(-math.pi, math.pi, count)
    return point, point[0] + radii * np.cos(angles), point[1] + radii * np.sin(angles)


def _pair(x0, y0, x1, y1):
    return (0.0, 0.0), np.array([x0, x1]), np.array([y0, y1])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_clustered_positions())
# two rows whose np.hypot distances are one ulp apart one way and whose
# math.hypot distances are one ulp apart the other way: np.hypot's nearest row
# is math.hypot's farthest, at 0.75 m and in the subnormals
@example(_pair(0.19785054951860886, 0.7234328994835558, 0.6153466851734815, 0.4287755322380329))
@example(_pair(7.250983156931e-311, 6.886453605296e-311, 9.982837192117e-311, 5.85629230555e-312))
def test_distance_checks_are_the_math_hypot_extremes_bit_for_bit(case):
    (px, py), xs, ys = case
    values = np.zeros((len(LOG_COLUMNS), len(xs)))
    values[LOG_COLUMNS.index("x")], values[LOG_COLUMNS.index("y")] = xs, ys
    rows = LogRows(values, PARAMS, np.zeros(len(xs), bool))
    distances = [math.hypot(x - px, y - py) for x, y in zip(xs.tolist(), ys.tolist())]
    for name, expected in (("visits_target", min(distances)), ("target_held", max(distances)),
                           ("target", distances[-1])):
        observed = evaluate_check(f"{name}:({px!r},{py!r})", rows).observed
        assert observed.hex() == expected.hex(), name


# --- violations derived from the log's columns -------------------------------

def _edges(limit):
    """Values on ``limit``, on its BOUND_EPS slack either side, and an ulp off each."""
    values = [limit, limit - BOUND_EPS, limit + BOUND_EPS]
    return values + [math.nextafter(v, way) for v in values for way in (-math.inf, math.inf)]


_ODD_LENGTHS = [0.0, -0.0, math.inf, -math.inf]


@st.composite
def _bound_columns(draw):
    """Parameters, and l1, l2 and theta columns on, near and across their bounds."""
    params = replace(
        PARAMS, theta_limit=draw(st.floats(0.2, math.pi / 2)), l1_min=draw(st.floats(0.0, 1.5)),
        l2_min=draw(st.floats(0.0, 1.5)), max_total_length=draw(st.floats(0.5, 3.0)))
    count = draw(st.integers(1, 12))
    l1 = draw(st.lists(st.one_of(st.sampled_from(_edges(params.l1_min) + _ODD_LENGTHS),
                                 st.floats(-1.0, 3.0)), min_size=count, max_size=count))
    # l2 on its own bounds, or making l1 + l2 meet the length budget's
    l2 = [draw(st.one_of(st.sampled_from(_edges(params.l2_min) + _ODD_LENGTHS),
                         st.sampled_from(_edges(params.max_total_length - a)),
                         st.floats(-1.0, 3.0))) for a in l1]
    limits = [sign * params.theta_limit for sign in (-1.0, 1.0)]
    theta = draw(st.lists(st.one_of(st.sampled_from(_edges(limits[0]) + _edges(limits[1])
                                                    + [0.0, -0.0]),
                                    st.floats(-math.pi, math.pi)),
                          min_size=count, max_size=count))
    return params, l1, l2, theta


def _bound_log(params, l1, l2, theta):
    """The rows the block pass makes at zero rates and t_rel = -0.0, as for a
    run's first row, with (l1, l2) as the datum and the cables set for theta:
    l1 and l2 are logged as given (but -0.0 for l1 as 0.0), theta to a few ulp."""
    zeros = np.full(len(l1), -0.0)
    cL = 4.0 * params.cable_offset * np.sin(0.5 * np.array(theta))
    values, outside = np.empty((len(LOG_COLUMNS), len(l1))), np.empty(len(l1), bool)
    with np.errstate(all="ignore"):
        filled, reason = _evaluate_rows(values, outside, (zeros, zeros, zeros, cL, zeros),
                                        (zeros,) * 4, zeros, (np.array(l1), np.array(l2)),
                                        params)
    assert (filled, reason) == (len(l1), None)
    return LogRows(values, params, outside)


# the bounds of the default parameters, broken in each combination the
# lengths allow, with theta inside and outside its limit
_DEFAULT_COMBINATIONS = [(0.5, 0.5), (0.05, 0.5), (0.5, -0.1), (1.5, 1.0), (0.05, -0.1),
                         (0.05, 2.5), (2.5, -0.1)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_bound_columns())
@example((PARAMS, *zip(*[(l1, l2, theta) for l1, l2 in _DEFAULT_COMBINATIONS
                          for theta in (0.1, -1.2)])))
# both minimum lengths and the budget at once
@example((ManipulatorParams(l1_min=1.5, l2_min=1.0, max_total_length=2.0),
          [1.4, 1.4, 1.6, -0.0], [0.9, 0.9, 1.1, -math.inf], [0.1, 1.6, -0.0, 2.0]))
# -0.0 lengths, infinite lengths (left unmarked) and a NaN angle (whose cables
# log the clamped angle pi)
@example((PARAMS, *zip((-0.0, -0.0, 0.1), (0.5, -0.0, -0.0), (math.inf, 0.5, 0.1),
                       (0.5, -math.inf, 0.1), (-math.inf, math.inf, 0.1), (0.5, 0.5, math.nan))))
# each bound's limit, limit -/+ BOUND_EPS, and one ulp either side of each
@example((PARAMS, *zip(*[(v, 0.5, 0.1) for v in _edges(PARAMS.l1_min)]
                       + [(0.5, v, 0.1) for v in _edges(PARAMS.l2_min)]
                       + [(0.5, v - 0.5, 0.1) for v in _edges(PARAMS.max_total_length)]
                       + [(0.5, 0.5, sign * v) for v in _edges(PARAMS.theta_limit)
                          for sign in (1.0, -1.0)])))
def test_violations_are_validate_states_of_the_logged_columns(columns):
    params = columns[0]
    rows = _bound_log(*columns)
    expected = []
    for l1, l2, theta in zip(*(rows.column(name).tolist() for name in ("l1", "l2", "theta"))):
        finite = math.isfinite(l1) and math.isfinite(l2)
        expected.append(tuple(validate_state(JointState(l1, l2, theta), params))
                        if finite else ())
        assert expected[-1] == (_violations_loop(l1, l2, theta, params) if finite else ())
    assert [row.violations for row in rows] == expected
    assert rows.violations == {i: found for i, found in enumerate(expected) if found}
    assert rows.outside.tolist() == [bool(found) for found in expected]
