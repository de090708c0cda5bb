import dataclasses
import math

import pytest

from tapearm.model import (
    DEFAULT_PARAMS,
    CablePair,
    ControlState,
    JointState,
)
from tapearm.planner import ControlProfile, RateCommand, control_from_state
from tapearm.simulator import (
    LOG_CSV_HEADER,
    Scenario,
    ScenarioError,
    SimState,
    builtin_scenarios,
    evaluate_check,
    initial_state,
    log_to_csv,
    make_state,
    parse_check,
    run_scenario,
)

PARAMS = DEFAULT_PARAMS


def _start(l1=0.3, l2=0.5, theta=0.0):
    return initial_state(control_from_state(JointState(l1, l2, theta)), theta, PARAMS)


def _run(state, *segments, dt=0.01, checks=()):
    return run_scenario(Scenario("test", PARAMS, state, ControlProfile(segments), dt, checks))


def test_step_zero_rates_identical_state():
    log = _run(_start(theta=math.radians(10.0)), (1.0, RateCommand()))
    first = log.rows[0]
    assert len(log.rows) == 101
    assert log.final.t == 1.0
    assert dataclasses.replace(log.final, t=first.t) == first


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
    corrupted = make_state(state.control,
                           CablePair(state.cables.c_L + 1e-3, state.cables.c_R), PARAMS)
    with pytest.raises(ScenarioError, match="inconsistent"):
        _run(corrupted)
    # within the initial tolerance the run proceeds and the check sees it
    drifted = make_state(state.control,
                         CablePair(state.cables.c_L + 4e-10, state.cables.c_R + 4e-10), PARAMS)
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
    broken = SimState(time=0.0, control=state.control,
                      cables=CablePair(state.cables.c_L + 0.01, state.cables.c_R + 0.01),
                      joint=state.joint, pose=state.pose)
    scenario = Scenario("broken", PARAMS, broken, ControlProfile(()))
    with pytest.raises(ScenarioError, match="inconsistent"):
        run_scenario(scenario)


def test_scenario_rejects_fractional_step_counts():
    profile = ControlProfile(((0.015, RateCommand()),))
    with pytest.raises(ScenarioError, match="whole number"):
        Scenario("bad", PARAMS, _start(), profile, dt=0.01)


@pytest.mark.parametrize("name", ["", ".", "..", "a/b", "../up", "/abs/path"])
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


def test_log_csv_format(tmp_path):
    log = run_scenario(builtin_scenarios()["constant-angle-retraction"])
    path = tmp_path / "log.csv"
    log_to_csv(log, path)
    lines = path.read_text().splitlines()
    assert lines[0] == LOG_CSV_HEADER
    assert len(lines) == 1 + len(log.rows)
    first = lines[1].split(",")
    assert len(first) == 12
    assert float(first[0]) == 0.0


def test_make_state_derives_joint_from_cables():
    control = ControlState(0.0, 0.0, 0.4, 0.4)
    joint = JointState(0.4, 0.4, math.radians(15.0))
    from tapearm.model import cable_lengths
    cables = cable_lengths(joint, PARAMS.cable_offset)
    state = make_state(control, cables, PARAMS)
    assert state.joint.theta == pytest.approx(joint.theta, abs=1e-12)
    assert _run(state).final.eq3_residual <= 1e-12
