import contextlib
import errno
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tapearm import simulator, stiffness, workspace
from tapearm.cli import main
from tapearm.model import (
    DEFAULT_PARAMS,
    JointState,
    ManipulatorParams,
    cable_lengths,
    forward_kinematics,
)
from tapearm.serialization import save_params, save_scenario
from tapearm.units import format_angle
from tapearm.simulator import builtin_scenarios
from test_golden import DIGESTS, KEY, _sha256


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def _values(out):
    pairs = {}
    for line in out.splitlines():
        if "=" in line and not line.startswith(("wrote", "PASS", "FAIL")):
            key, _, value = line.partition("=")
            pairs[key] = value
    return pairs


def test_fk_matches_library_byte_for_byte(capsys):
    code, out = _run(capsys, ["fk", "0.432", "0.265", "16.7deg"])
    assert code == 0
    pose = forward_kinematics(JointState(0.432, 0.265, math.radians(16.7)))
    values = _values(out)
    assert values["x_m"] == f"{pose.x:.12g}"
    assert values["y_m"] == f"{pose.y:.12g}"
    assert float(values["x_m"]) == pytest.approx(0.0762, abs=2e-3)


def test_fk_straight(capsys):
    code, out = _run(capsys, ["fk", "0.5", "0.5", "0"])
    assert code == 0
    values = _values(out)
    assert float(values["x_m"]) == 0.0
    assert float(values["y_m"]) == 1.0


def test_fk_invalid_state_exits_nonzero(capsys):
    code, out = _run(capsys, ["fk", "0.5", "0.5", "80deg"])
    assert code == 1
    assert "theta_limit" in out


def test_fk_parse_failure_is_usage_error(capsys):
    code, _ = _run(capsys, ["fk", "0.5", "0.5", "eighty"])
    assert code == 2


def test_argparse_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["fk", "0.5"])
    assert excinfo.value.code == 2


def _joint_lines(l1, l2, theta, unit="deg"):
    pose = forward_kinematics(JointState(l1, l2, theta))
    return f"x_m={pose.x:.12g}\ny_m={pose.y:.12g}\nphi_{unit}={format_angle(pose.phi, unit)}\n"


def _ik_lines(x, y, theta=None):
    if theta is None:
        theta = workspace.min_end_effector_angle((x, y), DEFAULT_PARAMS)
    state = workspace.ik_at_theta((x, y), theta, DEFAULT_PARAMS)
    return (f"l1_m={state.l1:.12g}\nl2_m={state.l2:.12g}\n"
            f"theta_deg={format_angle(state.theta, 'deg')}\n")


def _cable_lines(l1, l2, theta):
    pair = cable_lengths(JointState(l1, l2, theta), DEFAULT_PARAMS.cable_offset)
    return f"cL_m={pair.c_L:.12g}\ncR_m={pair.c_R:.12g}\n"


def _moment_lines(theta=None, kappa=None):
    if kappa is not None:
        section = stiffness.FlattenedSection.from_tape(DEFAULT_PARAMS.tape)
        return f"moment_Nm={stiffness.flattened_moment(section, kappa):.12g}\n"
    _, unpinched = stiffness.default_models(DEFAULT_PARAMS.tape)
    return f"moment_Nm={unpinched.moment(theta):.12g}\n"


@pytest.mark.parametrize("argv, expected", [
    (["fk", "0.432", "0.265", "-16.7deg"],
     lambda: _joint_lines(0.432, 0.265, math.radians(-16.7))),
    (["cables", "0.5", "0.5", "-30deg"], lambda: _cable_lines(0.5, 0.5, math.radians(-30.0))),
    (["ik", "-0.076", "0.686", "--theta", "-10deg"],
     lambda: _ik_lines(-0.076, 0.686, math.radians(-10.0))),
    (["stiffness", "--theta", "-10deg"], lambda: _moment_lines(theta=math.radians(-10.0))),
    (["ik", "-1e-3", "1.0"], lambda: _ik_lines(-1e-3, 1.0)),
    (["stiffness", "--kappa", "-1e-3"], lambda: _moment_lines(kappa=-1e-3)),
    (["--angle-unit", "rad", "fk", "0.4", "0.2", "-.1"],
     lambda: _joint_lines(0.4, 0.2, -0.1, "rad")),
], ids=["fk-angle-suffix", "cables-angle-suffix", "ik-theta-suffix", "stiffness-theta-suffix",
        "ik-exponent", "stiffness-kappa-exponent", "fk-leading-point"])
def test_negative_numbers_with_a_suffix_or_an_exponent_are_values(capsys, argv, expected):
    code, out = _run(capsys, argv)
    assert (code, out) == (0, expected())


def test_an_argument_like_an_unknown_option_is_still_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["fk", "0.4", "0.2", "-x"])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.startswith("usage: tapearm fk")


def test_ik_command(capsys):
    code, out = _run(capsys, ["ik", "0.076", "0.686", "--theta", "10deg"])
    assert code == 0
    values = _values(out)
    assert float(values["l1_m"]) == pytest.approx(0.254, abs=5e-3)
    assert float(values["l2_m"]) == pytest.approx(0.438, abs=5e-3)


def test_ik_defaults_to_minimum_angle(capsys):
    code, out = _run(capsys, ["ik", "0.0", "1.0"])
    assert code == 0
    assert float(_values(out)["theta_deg"]) == 0.0


def test_ik_unreachable(capsys):
    code, out = _run(capsys, ["ik", "0.0", "2.5"])
    assert code == 1
    assert "unreachable" in out


def test_ik_below_l1_min_takes_link_1_slack(capsys):
    code, out = _run(capsys, ["ik", "0", "0.0755"])
    assert code == 0
    assert _values(out) == {"l1_m": "0.0755", "l2_m": "0", "theta_deg": "0"}


@pytest.mark.parametrize("l1_min, l2_min", [(0.076, 0.0), (0.076, 0.0005), (0.0005, 0.0003)])
def test_ik_on_the_midline_prints_no_negative_length(capsys, tmp_path, l1_min, l2_min):
    params = ManipulatorParams(l1_min=l1_min, l2_min=l2_min)
    params_path = tmp_path / "params.json"
    save_params(params, params_path)
    reached = 0
    heights = [l1_min + dy for dy in (-0.0012, -0.001, -0.0007, -0.0005, -1e-12, 0.0,
                                      0.0003, 0.0007, 0.001)]
    for y in map(repr, heights + [-1e-13]):  # l1 = y is within BOUND_EPS of zero
        for argv in (["--", "0", y], ["--", "-0.0", y], ["--", "1e-10", y],
                     ["--theta=-10deg", "--", "0", y]):
            code, out = _run(capsys, ["--params", str(params_path), "ik", *argv])
            values = _values(out)
            if code == 0:
                reached += 1
                assert not values["l1_m"].startswith("-"), (argv, out)
                assert not values["l2_m"].startswith("-"), (argv, out)
            else:
                assert code == 1 and "infeasible" in out
    assert reached >= 20


def test_cables_command(capsys):
    code, out = _run(capsys, ["cables", "0.5", "0.5", "30deg", "--d", "0.02"])
    assert code == 0
    values = _values(out)
    assert float(values["cL_m"]) == pytest.approx(1.010353, abs=1e-6)
    assert float(values["cR_m"]) == pytest.approx(0.989647, abs=1e-6)


def test_theta_from_cables_roundtrip(capsys):
    pair = cable_lengths(JointState(0.5, 0.5, math.radians(30.0)), 0.02)
    code, out = _run(capsys, ["--angle-unit", "rad", "theta-from-cables",
                              f"{pair.c_L!r}", f"{pair.c_R!r}", "--d", "0.02"])
    assert code == 0
    assert float(_values(out)["theta_rad"]) == pytest.approx(math.radians(30.0), abs=1e-9)


def test_theta_from_cables_out_of_range(capsys):
    code, out = _run(capsys, ["theta-from-cables", "1.2", "0.9", "--d", "0.02"])
    assert code == 1
    assert "differential" in out


def test_stiffness_kappa_zero(capsys):
    code, out = _run(capsys, ["stiffness", "--kappa", "0"])
    assert code == 0
    assert float(_values(out)["moment_Nm"]) == 0.0


def test_stiffness_curve_export(capsys, tmp_path):
    code, out = _run(capsys, ["--out", str(tmp_path), "stiffness",
                              "--curve", "0", "40", "21"])
    assert code == 0
    csv_path = tmp_path / "stiffness_unpinched.csv"
    assert csv_path.exists()
    assert csv_path.read_text().splitlines()[0] == "theta_rad,moment_Nm"


def test_workspace_outputs(capsys, tmp_path):
    code, out = _run(capsys, ["--out", str(tmp_path), "workspace",
                              "--resolution", "0.2"])
    assert code == 0
    assert (tmp_path / "workspace.csv").exists()
    assert (tmp_path / "workspace.svg").exists()
    assert "reachable_fraction=" in out


def test_workspace_csv_only(capsys, tmp_path):
    code, _ = _run(capsys, ["--out", str(tmp_path), "--format", "csv",
                            "workspace", "--resolution", "0.2"])
    assert code == 0
    assert (tmp_path / "workspace.csv").exists()
    assert not (tmp_path / "workspace.svg").exists()


def test_workspace_zero_area_warns(capsys, tmp_path):
    code, out = _run(capsys, ["--out", str(tmp_path), "workspace",
                              "--bounds", "0", "0", "0", "2", "--resolution", "0.1"])
    assert code == 0
    assert "warning" in out
    assert (tmp_path / "workspace.csv").read_text().splitlines() == [
        "x_m,y_m,reachable,min_angle_rad"]


def test_demo_pass_and_artifacts(capsys, tmp_path):
    code, out = _run(capsys, ["--out", str(tmp_path), "demo", "stationary-bend"])
    assert code == 0
    assert (tmp_path / "stationary-bend_log.csv").exists()
    assert (tmp_path / "stationary-bend_overlay.svg").exists()
    assert "PASS l1_constant" in out


def test_demo_expected_fail_reported_as_pass(capsys, tmp_path):
    code, out = _run(capsys, ["--out", str(tmp_path), "demo",
                              "stationary-bend-uncoordinated"])
    assert code == 0
    assert "PASS expect_fail:l1_constant" in out


def test_demo_unknown_name_lists_demos(capsys):
    code = main(["demo", "nosuch"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: unknown demo 'nosuch'; available demos: "
                            + ", ".join(builtin_scenarios()) + "\n")


def test_simulate_scenario_file(capsys, tmp_path):
    path = tmp_path / "scenario.json"
    save_scenario(builtin_scenarios()["constant-angle-retraction"], path)
    code, out = _run(capsys, ["--out", str(tmp_path), "simulate", str(path)])
    assert code == 0
    assert "PASS theta_constant" in out


def test_simulate_missing_file_is_io_error(capsys, tmp_path):
    code, _ = _run(capsys, ["simulate", str(tmp_path / "absent.json")])
    assert code == 3


def test_simulate_malformed_scenario_is_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"segments": []}))
    code, _ = _run(capsys, ["simulate", str(path)])
    assert code == 2


def test_params_env_var_honored(capsys, tmp_path, monkeypatch):
    params_path = tmp_path / "params.json"
    save_params(DEFAULT_PARAMS, params_path)
    data = json.loads(params_path.read_text())
    data["cable_offset_m"] = 0.05
    params_path.write_text(json.dumps(data))
    monkeypatch.setenv("TAPEARM_PARAMS", str(params_path))
    code, out = _run(capsys, ["cables", "0.5", "0.5", "30deg"])
    assert code == 0
    expected = cable_lengths(JointState(0.5, 0.5, math.radians(30.0)), 0.05)
    assert float(_values(out)["cL_m"]) == pytest.approx(expected.c_L, abs=1e-12)


def test_params_flag_overrides(capsys, tmp_path):
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps({"theta_limit_rad": math.radians(20.0)}))
    code, out = _run(capsys, ["--params", str(params_path), "fk", "0.5", "0.5", "30deg"])
    assert code == 1
    assert "theta_limit" in out


def test_console_entry_point_smoke():
    result = subprocess.run(
        [sys.executable, "-m", "tapearm", "fk", "0.5", "0.5", "0"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "y_m=1" in result.stdout


def test_cli_import_loads_no_dataclasses():
    # the value types are __slots__ classes: a dataclass generates and compiles
    # its methods when defined, about 0.5 ms a class on every start-up
    result = subprocess.run(
        [sys.executable, "-c", "import tapearm.cli, sys; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; a stray scipy import would add
    # most of a second to every command's start-up.
    result = subprocess.run(
        [sys.executable, "-c", "import tapearm.cli, sys; "
         "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


_SCENARIO = ('{"initial": {"control": {"l1_0_m": 0.3, "l2_0_m": 0.4}}, "dt_s": %s, '
             '"segments": [{"duration_s": %s, "rates": %s}], "checks": %s}')

# the cable differential grows 0.12 m/s past the 0.06 m that d = 15 mm allows
_ABORTING_SCENARIO = _SCENARIO % ("0.01", "1.0", '{"cL": 0.06, "cR": -0.06}', '["l1_constant"]')

_START_CABLES = ('{"initial": {"control": {"l1_0_m": 0.3, "l2_0_m": 0.4}, '
                 '"cables": {"cL_m": %s, "cR_m": %s}}}')

# (case, text of DIR/input.json or None, argv with {dir} expanded, exit code):
# 0 success, 1 failed checks or invalid states, 2 usage or input errors,
# 3 I/O errors
_EXIT_CODE_TABLE = [
    ("success", None, ["fk", "0.5", "0.5", "0"], 0),
    ("invalid-state", None, ["fk", "0.5", "0.5", "80deg"], 1),
    ("failed-check", _SCENARIO % ("0.1", "1.0", '{"q1": 0.01}', '["l1_constant"]'),
     ["simulate", "{dir}/input.json"], 1),
    ("retract-past-zero-length",
     _SCENARIO % ("0.1", "10.0", '{"q1": -0.1, "cL": -0.1, "cR": -0.1}', "[]"),
     ["simulate", "{dir}/input.json"], 0),
    ("mid-run-cable-abort", _ABORTING_SCENARIO, ["simulate", "{dir}/input.json"], 1),
    ("bad-angle", None, ["fk", "0.5", "0.5", "eighty"], 2),
    ("malformed-params", "{", ["--params", "{dir}/input.json", "fk", "0.4", "0.3", "10"], 2),
    ("infinite-duration", _SCENARIO % ("0.01", "1e400", "{}", "[]"),
     ["simulate", "{dir}/input.json"], 2),
    ("infinite-dt", _SCENARIO % ("1e400", "1.0", "{}", "[]"), ["simulate", "{dir}/input.json"], 2),
    # a segment too short for one step would log no row and drop its motion
    ("zero-step-segment", _SCENARIO % ("0.01", "1e-12", '{"q1": 1e9}', "[]"),
     ["simulate", "{dir}/input.json"], 2),
    ("infinite-workspace-bound", None,
     ["workspace", "--bounds", "0", "inf", "0", "1", "--resolution", "0.1"], 2),
    ("workspace-grid-too-large", None, ["workspace", "--resolution", "1e-300"], 2),
    # no cells, under bounds whose height overflows a pixel count
    ("workspace-empty-tall-bounds", None,
     ["workspace", "--bounds", "0", "0", "0", "1e308", "--resolution", "1e305"], 0),
    ("rates-overflow-the-state", _SCENARIO % ("1e10", "1e10", '{"cL": 1e300, "cR": 1e300}', "[]"),
     ["simulate", "{dir}/input.json"], 2),
    ("rates-overflow-a-length", _SCENARIO % ("1e10", "1e10", '{"q1": 1e300}', "[]"),
     ["simulate", "{dir}/input.json"], 2),
    # a non-finite number or angle is a usage error, not an unreachable point
    ("ik-nan-coordinate", None, ["ik", "nan", "1.0"], 2),
    ("ik-infinite-coordinate", None, ["ik", "0.3", "inf"], 2),
    ("ik-nan-angle", None, ["ik", "0.3", "1.0", "--theta", "nan"], 2),
    ("fk-infinite-length", None, ["fk", "inf", "0.5", "0"], 2),
    ("fk-nan-angle", None, ["fk", "0.5", "0.5", "nan"], 2),
    ("cables-nan-offset", None, ["cables", "0.5", "0.5", "0", "--d", "nan"], 2),
    ("theta-from-cables-nan", None, ["theta-from-cables", "nan", "1"], 2),
    ("theta-from-cables-infinite-offset", None, ["theta-from-cables", "1", "1", "--d", "inf"], 2),
    ("theta-from-cables-zero-length", None, ["theta-from-cables", "0", "1"], 2),
    ("theta-from-cables-negative-offset", None, ["theta-from-cables", "1", "1", "--d", "-1"], 2),
    ("demo-unknown-name", None, ["demo", "nosuch"], 2),
    # parameters that put a demo's waypoint out of reach refuse that demo
    # before its run, and leave the other demos to run and pass
    ("demo-target-out-of-reach", '{"l1_min_m": 0.9}',
     ["--params", "{dir}/input.json", "demo", "reach-two-targets"], 2),
    ("demo-sweep-out-of-reach", '{"l2_min_m": 0.5}',
     ["--params", "{dir}/input.json", "demo", "multi-config-same-target"], 2),
    ("demo-in-reach", '{"l2_min_m": 0.5}',
     ["--params", "{dir}/input.json", "demo", "reach-two-targets"], 0),
    # and parameters that put one of its joint-state waypoints outside a bound
    ("demo-waypoint-over-length-budget", '{"max_total_length_m": 0.5}',
     ["--params", "{dir}/input.json", "demo", "deploy-and-bend"], 2),
    ("demo-waypoint-past-hinge-limit", '{"theta_limit_rad": 0.1}',
     ["--params", "{dir}/input.json", "demo", "deploy-and-bend"], 2),
    ("demo-waypoint-under-l2-min", '{"l2_min_m": 0.5}',
     ["--params", "{dir}/input.json", "demo", "deploy-and-bend"], 2),
    ("demo-waypoints-inside", '{"l1_min_m": 0.9}',
     ["--params", "{dir}/input.json", "demo", "deploy-and-bend"], 0),
    # a cable offset too small for the cables to resolve the bend angle is
    # refused with the parameters; at 1e-6 * max_total_length, the demo passes
    ("demo-cable-offset-too-small", '{"cable_offset_m": 1e-15}',
     ["--params", "{dir}/input.json", "demo", "reach-two-targets"], 2),
    ("demo-cable-offset-at-the-bound", '{"cable_offset_m": 2e-6}',
     ["--params", "{dir}/input.json", "demo", "reach-two-targets"], 0),
    # a scenario file carries its own parameters, so simulate reads no --params
    ("simulate-reads-no-params", _SCENARIO % ("0.01", "1.0", "{}", "[]"),
     ["--params", "{dir}/absent.json", "simulate", "{dir}/input.json"], 0),
    ("params-file-missing", None, ["--params", "{dir}/absent.json", "fk", "0.4", "0.3", "10"], 3),
    ("params-path-is-a-directory", None, ["--params", "{dir}", "fk", "0.4", "0.3", "10"], 3),
    ("scenario-file-missing", None, ["simulate", "{dir}/absent.json"], 3),
    # this --out overrides the one the test passes first
    ("output-directory-is-a-file", "{}", ["--out", "{dir}/input.json", "demo", "stationary-bend"], 3),
    ("output-directory-below-a-file", "{}",
     ["--out", "{dir}/input.json/sub", "workspace", "--resolution", "0.1"], 3),
    ("scenario-int-overflow", _SCENARIO % ("1" + "0" * 400, "1.0", "{}", "[]"),
     ["simulate", "{dir}/input.json"], 2),
    ("params-int-overflow", '{"l1_min_m": 1%s}' % ("0" * 400),
     ["--params", "{dir}/input.json", "fk", "0.4", "0.3", "10"], 2),
    ("scenario-nested-too-deep", "[" * 100_000, ["simulate", "{dir}/input.json"], 2),
    ("scenario-not-an-object", "[]", ["simulate", "{dir}/input.json"], 2),
    ("checks-not-an-array", _SCENARIO % ("0.01", "1.0", "{}", '"eq3_residual"'),
     ["simulate", "{dir}/input.json"], 2),
    # the log would land at {dir}/escaped_log.csv, outside {dir}/out
    ("scenario-name-escapes-out",
     '{"name": "../escaped", ' + _SCENARIO[1:] % ("0.01", "1.0", "{}", "[]"),
     ["simulate", "{dir}/input.json"], 2),
    ("params-nan-l1-min", '{"l1_min_m": NaN}',
     ["--params", "{dir}/input.json", "fk", "0.0", "0.4", "10"], 2),
    # 10^12 rows at dt = 1 ms, refused before the log is allocated
    ("scenario-too-many-rows", _SCENARIO % ("0.001", "1e9", "{}", "[]"),
     ["simulate", "{dir}/input.json"], 2),
    # names that would fail only after the run: not a string, NUL, too long
    # for a file name, not UTF-8
    ("scenario-name-not-a-string",
     '{"name": {"a": 1}, ' + _SCENARIO[1:] % ("0.01", "1.0", "{}", "[]"),
     ["simulate", "{dir}/input.json"], 2),
    ("scenario-name-has-nul",
     '{"name": "a\\u0000b", ' + _SCENARIO[1:] % ("0.01", "1.0", "{}", "[]"),
     ["simulate", "{dir}/input.json"], 2),
    # BEL is no XML 1.0 character, so the overlay's title could not hold it
    ("scenario-name-not-xml",
     '{"name": "bend\\u0007", ' + _SCENARIO[1:] % ("0.01", "1.0", "{}", "[]"),
     ["simulate", "{dir}/input.json"], 2),
    ("scenario-name-too-long",
     '{"name": "%s", ' % ("a" * 300) + _SCENARIO[1:] % ("0.01", "1.0", "{}", "[]"),
     ["simulate", "{dir}/input.json"], 2),
    ("scenario-name-not-utf8",
     '{"name": "\\udc80", ' + _SCENARIO[1:] % ("0.01", "1.0", "{}", "[]"),
     ["simulate", "{dir}/input.json"], 2),
    # refused before any sample is allocated
    ("curve-over-sample-limit", None,
     ["stiffness", "--curve", "0", "40", str(stiffness.MAX_CURVE_SAMPLES + 1)], 2),
    # explicit start cables: a differential no bend angle gives, and a sum
    # that does not match the link lengths
    ("start-cables-out-of-range", _START_CABLES % ("0.8", "0.6"),
     ["simulate", "{dir}/input.json"], 2),
    ("start-cables-inconsistent", _START_CABLES % ("0.75", "0.74"),
     ["simulate", "{dir}/input.json"], 2),
    # one step each, but the last row's t, their sum, overflows to inf
    ("scenario-clock-overflows",
     '{"initial": {"control": {"l1_0_m": 0.3, "l2_0_m": 0.4}}, "dt_s": 1e308, "segments": '
     '[{"duration_s": 1e308, "rates": {}}, {"duration_s": 1e308, "rates": {}}]}',
     ["simulate", "{dir}/input.json"], 2),
    ("stiffness-no-option", None, ["stiffness"], 2),
    ("cables-invalid-state", None, ["cables", "0.5", "0.5", "80deg"], 1),
] + [
    # a malformed or non-finite check argument, or a tolerance that is not a
    # finite number >= 0, refused before the run
    (f"check-{check}", _SCENARIO % ("0.01", "1.0", "{}", json.dumps([check])),
     ["simulate", "{dir}/input.json"], 2)
    for check in ("target:(1,2,3)", "target:1,2", "theta_constant:abc", "final_theta:10grad",
                  "l1_constant:abc", "target:(1,2):x", "visits_target:(a,b)",
                  # checks that could never pass, or always would
                  "l1_constant:nan", "l1_constant:-1", "eq3_residual:1e400", "target:(nan,1)",
                  "theta_constant:infdeg", "expect_fail:l1_constant:nan")
] + [
    # parameters that put a rate-command demo's start or a segment's end
    # outside a bound refuse that demo before its run; the hinge limit leaves
    # the unbent stationary bends inside
    (f"demo-{name}-{label}", text, ["--params", "{dir}/input.json", "demo", name],
     0 if label == "past-hinge-limit" and name.startswith("stationary-bend") else 2)
    for name in ("constant-angle-retraction", "stationary-bend", "stationary-bend-uncoordinated")
    for label, text in (("over-length-budget", '{"max_total_length_m": 0.5}'),
                        ("past-hinge-limit", '{"theta_limit_rad": 0.1}'),
                        ("under-l2-min", '{"l2_min_m": 0.5}'),
                        ("under-l1-min", '{"l1_min_m": 0.9}'))
]

# The start of the stderr line of some rows.
_EXIT_STDERR = {
    "curve-over-sample-limit": "error: 100001 samples exceed the 100000 sample limit",
    "demo-unknown-name": "error: unknown demo 'nosuch'; available demos: deploy-and-bend, ",
    "demo-target-out-of-reach": "error: demo 'reach-two-targets': (0.0, 0.6) m is out of "
                                "reach under these parameters\n",
    "demo-sweep-out-of-reach": "error: demo 'multi-config-same-target': (0.076, 0.686) m is "
                               "out of reach under these parameters\n",
    "demo-waypoint-over-length-budget": "error: waypoint 1 is outside the bounds: "
                                        "max_total_length[value=0.68 limit=0.5 margin=-0.18]\n",
    "demo-waypoint-past-hinge-limit": "error: waypoint 3 is outside the bounds: theta_limit["
                                      "value=0.523598776 limit=0.1 margin=-0.424]\n",
    "demo-waypoint-under-l2-min": "error: waypoint 0 is outside the bounds: "
                                  "l2_min[value=0.004 limit=0.5 margin=-0.496]\n",
    "demo-constant-angle-retraction-past-hinge-limit": (
        "error: demo 'constant-angle-retraction': the start is outside the bounds: "
        "theta_limit[value=0.383972435 limit=0.1 margin=-0.284]\n"),
    "demo-stationary-bend-under-l2-min": (
        "error: demo 'stationary-bend': the end of segment 0 is outside the bounds: "
        "l2_min[value=0.1 limit=0.5 margin=-0.4]\n"),
    "demo-cable-offset-too-small": "error: bad parameter file: cable_offset 1e-15 m is below "
                                   "1e-06 * max_total_length: too short for the cables to "
                                   "resolve theta\n",
    "start-cables-out-of-range": "error: bad scenario file: cable differential 0.2 m is "
                                 "outside the +/-0.06 m range",
    "start-cables-inconsistent": "error: bad scenario file: initial state is inconsistent: "
                                 "cable sum does not match the link lengths\n",
    "scenario-clock-overflows": "error: bad scenario file: the segment durations add up to "
                                "inf s",
    "stiffness-no-option": "error: stiffness needs one of --kappa, --theta, --curve\n",
    "zero-step-segment": "error: bad scenario file: segment duration 1e-12 s is not a whole "
                         "number of dt=0.01 s steps, at least one\n",
    **{case: f"error: bad scenario file: check {case[len('check-'):]!r}: "
       for case, *_ in _EXIT_CODE_TABLE if case.startswith("check-")},
}

# The start of the stdout of some rows.
_EXIT_STDOUT = {"cables-invalid-state": "violation: theta_limit"}

# rows that must fail before any run or grid is computed
_NOTHING_COMPUTED = {"output-directory-is-a-file", "output-directory-below-a-file",
                     "zero-step-segment", "start-cables-inconsistent",
                     "scenario-clock-overflows",
                     *(case for case, *_ in _EXIT_CODE_TABLE if case.startswith("check-")),
                     # every demo refused
                     *(case for case, _, argv, expected in _EXIT_CODE_TABLE
                       if argv[-2:-1] == ["demo"] and expected == 2)}


def _forbid_the_run(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("computed before the input and the output directory were checked")
    for module, name in ((simulator, "run_scenario"), (workspace, "compute_grid"),
                         (stiffness, "moment_angle_curve")):
        monkeypatch.setattr(module, name, forbidden)


@pytest.mark.parametrize("case, text, argv, expected", _EXIT_CODE_TABLE,
                         ids=[row[0] for row in _EXIT_CODE_TABLE])
def test_exit_code_taxonomy(capsys, tmp_path, monkeypatch, case, text, argv, expected):
    if case in _NOTHING_COMPUTED:
        _forbid_the_run(monkeypatch)
    if text is not None:
        (tmp_path / "input.json").write_text(text)
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
    code = main(["--out", str(tmp_path / "out")] + argv)
    out, err = capsys.readouterr()
    assert code == expected, err
    assert len(err.splitlines()) == (1 if expected in (2, 3) else 0), err
    assert err.startswith(_EXIT_STDERR.get(case, "")), err
    assert out.startswith(_EXIT_STDOUT.get(case, "")), out
    # nothing is written outside --out, and nothing at all on a usage error
    assert {path.name for path in tmp_path.iterdir()} <= {"input.json", "out"}
    if expected == 2:
        assert not (tmp_path / "out").exists()


def test_simulate_abort_keeps_partial_log(capsys, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(_ABORTING_SCENARIO)
    code, out = _run(capsys, ["--out", str(tmp_path), "simulate", str(path)])
    assert code == 1
    assert "aborted at t=0.51 s: cable differential" in out
    assert "l1_constant" not in out
    lines = (tmp_path / "scenario_log.csv").read_text().splitlines()
    assert len(lines) == 1 + 51 and lines[-1].startswith("0.5,")
    assert (tmp_path / "scenario_overlay.svg").read_text().startswith("<svg")


# The process, `python -m tapearm`, runs cli.run: main, stdout's flush and the
# exit. Its subprocesses inherit this environment, PYTHONPATH included.
def _process(argv, **kwargs):
    return subprocess.run([sys.executable, "-m", "tapearm", *argv], text=True, **kwargs)


def test_the_process_writes_the_golden_bytes(tmp_path):
    recorded = json.loads(DIGESTS.read_text())
    if KEY not in recorded:
        pytest.skip(f"no golden digests recorded for platform key {KEY!r} in {DIGESTS.name}")
    out = tmp_path / "stationary-bend"
    result = _process(["--out", str(out), "demo", "stationary-bend"], capture_output=True)
    assert result.stderr == ""
    stdout = f"exit {result.returncode}\n" + result.stdout.replace(str(tmp_path), "<out>")
    digests = {"stationary-bend/stdout": _sha256(stdout.encode()),
               **{f"stationary-bend/{path.name}": _sha256(path.read_bytes())
                  for path in out.iterdir()}}
    assert digests == {name: digest for name, digest in recorded[KEY].items()
                       if name.startswith("stationary-bend/")}


# one _EXIT_CODE_TABLE row each for exit codes 1, 2 and 3
_PROCESS_ROWS = [row for row in _EXIT_CODE_TABLE
                 if row[0] in ("invalid-state", "bad-angle", "params-file-missing")]


@pytest.mark.parametrize("case, text, argv, expected", _PROCESS_ROWS,
                         ids=[row[0] for row in _PROCESS_ROWS])
def test_the_process_exits_as_main_returns(capsys, tmp_path, case, text, argv, expected):
    if text is not None:
        (tmp_path / "input.json").write_text(text)
    argv = ["--out", str(tmp_path / "out")] + [arg.replace("{dir}", str(tmp_path))
                                               for arg in argv]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == expected
    result = _process(argv, capture_output=True)
    assert (result.returncode, result.stdout, result.stderr) == (code, out, err)


def _environment(unbuffered):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("sink", ["closed-pipe", "dev-full"])
@pytest.mark.parametrize("argv", [["fk", "0.4", "0.3", "10"], ["--help"], ["fk", "--help"]],
                         ids=["fk", "help", "fk-help"])
def test_an_unwritable_stdout_is_an_io_error(sink, unbuffered, argv):
    # block-buffered, the write fails only at the flush after main returns or,
    # for help, after argparse raises SystemExit; unbuffered, argparse would
    # ignore the failed write of its help text
    if sink == "closed-pipe":
        read, stdout = os.pipe()
        os.close(read)
    elif os.path.exists("/dev/full"):
        stdout = os.open("/dev/full", os.O_WRONLY)
    else:
        pytest.skip("no /dev/full on this platform")
    try:
        result = _process(argv, stdout=stdout, stderr=subprocess.PIPE, env=_environment(unbuffered))
    finally:
        os.close(stdout)
    assert result.returncode == 3, result.stderr
    assert len(result.stderr.splitlines()) == 1, result.stderr
    assert result.stderr.startswith("I/O error: "), result.stderr


def test_a_stdout_closed_at_start_is_no_error():
    # with fd 1 closed, sys.stdout is None and print writes nothing
    argv = [sys.executable, "-m", "tapearm", "fk", "0.4", "0.3", "10"]
    script = f"import os; os.close(1); os.execv({argv[0]!r}, {argv!r})"
    result = subprocess.run([sys.executable, "-c", script], stderr=subprocess.PIPE, text=True)
    assert (result.returncode, result.stderr) == (0, "")


def test_the_process_exits_frozen_and_runs_atexit():
    script = ("import atexit, gc, sys; from tapearm import cli; "
              "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0)); "
              "sys.argv[1:] = ['fk', '0.4', '0.3', '10']; cli.run()")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.endswith("phi_deg=10\nfrozen True\n")


def test_main_in_process_leaves_the_gc_unfrozen(capsys, tmp_path):
    before = gc.get_freeze_count()
    assert main(["--out", str(tmp_path), "demo", "stationary-bend"]) == 0
    assert main(["fk", "0.4", "0.3", "10"]) == 0
    assert gc.get_freeze_count() == before


# The commands that write files, each of which checks --out before its work.
_WRITING_COMMANDS = pytest.mark.parametrize("argv", [
    ["demo", "stationary-bend"],
    ["simulate", "{dir}/scenario.json"],
    ["workspace", "--resolution", "0.1"],
    ["stiffness", "--curve", "0", "40", "81"],
], ids=["demo", "simulate", "workspace", "stiffness-curve"])


@_WRITING_COMMANDS
@pytest.mark.parametrize("out", ["{dir}/file", "{dir}/file/sub/deeper"], ids=["file", "below"])
def test_out_below_a_file_fails_before_the_run(capsys, tmp_path, monkeypatch, argv, out):
    save_scenario(builtin_scenarios()["stationary-bend"], tmp_path / "scenario.json")
    (tmp_path / "file").write_text("")
    _forbid_the_run(monkeypatch)
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in ["--out", out] + argv]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"I/O error: [Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: "
                            f"'{tmp_path / 'file'}'\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["file", "scenario.json"]


@pytest.mark.skipif(os.geteuid() == 0,
                    reason="root passes os.access whatever a directory's mode, so none is "
                           "unwritable to it")
@_WRITING_COMMANDS
@pytest.mark.parametrize("out", ["{dir}/locked", "{dir}/locked/sub"], ids=["itself", "below"])
def test_out_in_an_unwritable_directory_fails_before_the_run(capsys, tmp_path, monkeypatch,
                                                             argv, out):
    save_scenario(builtin_scenarios()["stationary-bend"], tmp_path / "scenario.json")
    locked = tmp_path / "locked"
    locked.mkdir(mode=0o500)
    _forbid_the_run(monkeypatch)
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in ["--out", out] + argv]
    try:
        assert main(argv) == 3
    finally:
        locked.chmod(0o700)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"I/O error: [Errno {errno.EACCES}] {os.strerror(errno.EACCES)}: "
                            f"'{locked}'\n")
    assert list(locked.iterdir()) == []


@pytest.mark.parametrize("params_file, other_command_exit", [
    ("absent.json", 3), ("unknown-key.json", 2)])
def test_simulate_reads_no_params_env_var(capsys, tmp_path, monkeypatch, params_file,
                                          other_command_exit):
    (tmp_path / "unknown-key.json").write_text('{"no_such_key": 1}')
    save_scenario(builtin_scenarios()["stationary-bend"], tmp_path / "scenario.json")
    monkeypatch.setenv("TAPEARM_PARAMS", str(tmp_path / params_file))
    assert main(["fk", "0.4", "0.3", "10"]) == other_command_exit  # the file is broken
    capsys.readouterr()
    code, out = _run(capsys, ["--out", str(tmp_path / "out"), "simulate",
                              str(tmp_path / "scenario.json")])
    assert code == 0
    assert "PASS l1_constant" in out


# Tokens for the exit contract: float spellings, most often, each command's
# options and choices, and arbitrary text.
_FLOAT_SPELLINGS = st.one_of(
    st.builds("".join, st.tuples(
        st.sampled_from(["", "-", "+"]),
        st.sampled_from(["0", "1", "7", "0.5", "12.25", ".5", "3.", "1e3", "1E-3", "2e400",
                         "5e-400", "inf", "nan", "Infinity", "-NaN"]),
        st.sampled_from(["", "", "", "deg", "rad", " deg"]))),
    st.floats(-2.0, 2.0).map(repr), st.floats().map(repr))
_OPTIONS = {
    "fk": ["-h"],  # its one option
    "ik": ["--theta"],
    "cables": ["--d"],
    "theta-from-cables": ["--d"],
    "stiffness": ["--kappa", "--theta", "--model", "--curve", "pinched", "unpinched"],
}


@st.composite
def _command_lines(draw):
    # the tokens of up to five words, each a float spelling, an option and a
    # float spelling, or text
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    word = st.one_of(_FLOAT_SPELLINGS.map(lambda value: [value]),
                     st.tuples(st.sampled_from(_OPTIONS[command]), _FLOAT_SPELLINGS).map(list),
                     st.text(max_size=4).map(lambda text: [text]))
    return [command, *sum(draw(st.lists(word, max_size=5)), [])[:5]]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_command_lines())
@example(["fk", "0.5", "0.5", "0", "a\nb"])  # argparse names an unrecognized argument raw
@example(["ik", "1", "1", "\r"])
def test_the_exit_contract_holds_for_any_tokens(argv):
    # exit 0-3 with no traceback; a clean stderr on 0 and 1, and on 2 and 3 a
    # last line that names the error. A warning would reach stderr too.
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        try:
            code = main(["--out", out, *argv])
        except SystemExit as exc:  # argparse's help and usage errors
            code = exc.code
    err = stderr.getvalue() + "".join(map(str, (w.message for w in caught)))
    assert code in (0, 1, 2, 3) and "Traceback" not in err, (code, err)
    if code in (0, 1):
        assert err == "", err
    else:
        assert "error:" in re.split(r"\r\n?|\n", err.rstrip("\n"))[-1], err
