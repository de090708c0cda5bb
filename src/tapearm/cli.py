"""Command-line interface.

Angles on the CLI default to degrees (a deg/rad suffix on any angle argument
overrides, as does --angle-unit); the library itself is radians-only. Exit
codes: 0 success, 1 failed checks or invalid states, 2 usage/parse errors,
3 I/O errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import serialization, simulator, stiffness, svg, workspace
from .model import (
    DEFAULT_PARAMS,
    CablePair,
    ConstraintViolationError,
    CableRangeError,
    JointState,
    cable_lengths,
    forward_kinematics,
    theta_from_cables,
    validate_state,
)
from .units import format_angle, parse_angle

PARAMS_ENV_VAR = "TAPEARM_PARAMS"

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_IO = 3


class _UsageError(Exception):
    pass


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tapearm",
        description="Model, plan and simulate the pinched-tape planar manipulator.")
    parser.add_argument("--params", metavar="FILE",
                        help=f"JSON parameter file (default: ${PARAMS_ENV_VAR} if set)")
    parser.add_argument("--out", metavar="DIR", default=".",
                        help="output directory for generated files (default: .)")
    parser.add_argument("--format", choices=("csv", "svg", "both"), default="both",
                        help="which file outputs to write (default: both)")
    parser.add_argument("--angle-unit", choices=("deg", "rad"), default="deg",
                        help="unit for bare angle arguments and printed angles")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fk", help="forward kinematics of a joint state")
    p.add_argument("l1", type=float)
    p.add_argument("l2", type=float)
    p.add_argument("theta")

    p = sub.add_parser("ik", help="inverse kinematics for a planar point")
    p.add_argument("x", type=float)
    p.add_argument("y", type=float)
    p.add_argument("--theta", help="bend angle (default: minimum feasible angle)")

    p = sub.add_parser("cables", help="cable lengths for a joint state")
    p.add_argument("l1", type=float)
    p.add_argument("l2", type=float)
    p.add_argument("theta")
    p.add_argument("--d", type=float, help="cable offset in m (default from params)")

    p = sub.add_parser("theta-from-cables", help="bend angle from cable lengths")
    p.add_argument("cL", type=float)
    p.add_argument("cR", type=float)
    p.add_argument("--d", type=float, help="cable offset in m (default from params)")

    p = sub.add_parser("workspace", help="compute the reachability grid")
    p.add_argument("--bounds", nargs=4, type=float, metavar=("XMIN", "XMAX", "YMIN", "YMAX"),
                   default=[-2.0, 2.0, 0.0, 2.0])
    p.add_argument("--resolution", type=float, default=0.05, help="cell size in m")

    p = sub.add_parser("stiffness", help="bending-moment model queries")
    p.add_argument("--kappa", type=float, help="flattened-tape curvature in 1/m")
    p.add_argument("--theta", help="bend angle for the joint models")
    p.add_argument("--model", choices=("pinched", "unpinched"), default="unpinched")
    p.add_argument("--curve", nargs=3, metavar=("MIN", "MAX", "N"),
                   help="export a moment-angle table over [MIN, MAX] with N samples")

    p = sub.add_parser("simulate", help="run a scenario JSON file")
    p.add_argument("scenario", metavar="SCENARIO.json")

    p = sub.add_parser("demo", help="run a built-in demonstration scenario")
    p.add_argument("name", nargs="?", default="")

    return parser


def _load_params(args):
    path = args.params or os.environ.get(PARAMS_ENV_VAR)
    if not path:
        return DEFAULT_PARAMS
    try:
        return serialization.load_params(path)
    except ValueError as exc:
        raise _UsageError(f"bad parameter file: {exc}") from exc


def _parse_cli_angle(text, args) -> float:
    try:
        angle = parse_angle(text, default_unit=args.angle_unit)
    except ValueError as exc:
        raise _UsageError(f"bad angle {text!r}: {exc}") from exc
    if not math.isfinite(angle):
        raise _UsageError(f"bad angle {text!r}: must be finite")
    return angle


def _print_violations(violations) -> None:
    for violation in violations:
        print(f"violation: {violation}")


def _out_dir(args) -> Path:
    directory = Path(args.out)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def cmd_fk(args, params) -> int:
    state = JointState(args.l1, args.l2, _parse_cli_angle(args.theta, args))
    violations = validate_state(state, params)
    if violations:
        _print_violations(violations)
        return EXIT_CHECK
    pose = forward_kinematics(state)
    print(f"x_m={_fmt(pose.x)}")
    print(f"y_m={_fmt(pose.y)}")
    print(f"phi_{args.angle_unit}={format_angle(pose.phi, args.angle_unit)}")
    return EXIT_OK


def cmd_ik(args, params) -> int:
    point = (args.x, args.y)
    if args.theta is not None:
        theta = _parse_cli_angle(args.theta, args)
    else:
        theta = workspace.min_end_effector_angle(point, params)
        if theta is None:
            print(f"infeasible: ({_fmt(args.x)}, {_fmt(args.y)}) m is unreachable")
            return EXIT_CHECK
    state = workspace.ik_at_theta(point, theta, params)
    if state is None:
        print(f"infeasible: ({_fmt(args.x)}, {_fmt(args.y)}) m is not reachable "
              f"at theta={format_angle(theta, args.angle_unit)} {args.angle_unit}")
        return EXIT_CHECK
    print(f"l1_m={_fmt(state.l1)}")
    print(f"l2_m={_fmt(state.l2)}")
    print(f"theta_{args.angle_unit}={format_angle(state.theta, args.angle_unit)}")
    return EXIT_OK


def cmd_cables(args, params) -> int:
    state = JointState(args.l1, args.l2, _parse_cli_angle(args.theta, args))
    violations = validate_state(state, params)
    if violations:
        _print_violations(violations)
        return EXIT_CHECK
    pair = cable_lengths(state, args.d if args.d is not None else params.cable_offset)
    print(f"cL_m={_fmt(pair.c_L)}")
    print(f"cR_m={_fmt(pair.c_R)}")
    return EXIT_OK


def cmd_theta_from_cables(args, params) -> int:
    d = args.d if args.d is not None else params.cable_offset
    try:
        theta = theta_from_cables(CablePair(args.cL, args.cR), d)
    except CableRangeError as exc:
        print(f"error: {exc}")
        return EXIT_CHECK
    print(f"theta_{args.angle_unit}={format_angle(theta, args.angle_unit)}")
    return EXIT_OK


def cmd_workspace(args, params) -> int:
    grid = workspace.compute_grid(params, tuple(args.bounds), args.resolution)
    directory = _out_dir(args)
    if grid.reachable.size == 0:
        print("warning: bounds enclose no grid cells; outputs are empty")
    if args.format in ("csv", "both"):
        csv_path = directory / "workspace.csv"
        workspace.grid_to_csv(grid, csv_path)
        print(f"wrote {csv_path}")
    if args.format in ("svg", "both"):
        svg_path = directory / "workspace.svg"
        svg_path.write_text(svg.workspace_svg(grid))
        print(f"wrote {svg_path}")
    print(f"cells={grid.reachable.size}")
    print(f"reachable_fraction={_fmt(grid.reachable_fraction)}")
    return EXIT_OK


def cmd_stiffness(args, params) -> int:
    section = stiffness.FlattenedSection.from_tape(params.tape)
    pinched, unpinched = stiffness.default_models(params.tape)
    model = pinched if args.model == "pinched" else unpinched
    did_something = False
    if args.kappa is not None:
        print(f"moment_Nm={_fmt(stiffness.flattened_moment(section, args.kappa))}")
        did_something = True
    if args.theta is not None:
        theta = _parse_cli_angle(args.theta, args)
        print(f"moment_Nm={_fmt(model.moment(theta))}")
        did_something = True
    if args.curve is not None:
        lo = _parse_cli_angle(args.curve[0], args)
        hi = _parse_cli_angle(args.curve[1], args)
        n = int(args.curve[2])
        samples = stiffness.moment_angle_curve(model, lo, hi, n)
        path = _out_dir(args) / f"stiffness_{args.model}.csv"
        stiffness.write_moment_csv(path, samples)
        print(f"wrote {path}")
        did_something = True
    if not did_something:
        raise _UsageError("stiffness needs one of --kappa, --theta, --curve")
    return EXIT_OK


def _run_and_report(scenario, args) -> int:
    log = simulator.run_scenario(scenario)
    directory = _out_dir(args)
    if args.format in ("csv", "both"):
        csv_path = directory / f"{scenario.name}_log.csv"
        simulator.log_to_csv(log, csv_path)
        print(f"wrote {csv_path}")
    if args.format in ("svg", "both"):
        svg_path = directory / f"{scenario.name}_overlay.svg"
        svg_path.write_text(svg.overlay_svg(log, title=scenario.name))
        print(f"wrote {svg_path}")
    if log.abort is not None:
        print(f"aborted at t={log.abort.time:.9g} s: {log.abort.reason}")
    for result in log.checks:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.check} observed={result.observed:.6g} "
              f"threshold={result.threshold:.6g} ({result.detail})")
    return EXIT_OK if log.all_passed else EXIT_CHECK


def cmd_simulate(args, params) -> int:
    del params  # scenario files carry their own parameters
    try:
        scenario = serialization.load_scenario(args.scenario)
    except ValueError as exc:
        raise _UsageError(f"bad scenario file: {exc}") from exc
    return _run_and_report(scenario, args)


def cmd_demo(args, params) -> int:
    scenarios = simulator.builtin_scenarios(params)
    if args.name not in scenarios:
        print(f"unknown demo {args.name!r}; available demos:")
        for name in scenarios:
            print(f"  {name}")
        return EXIT_USAGE
    return _run_and_report(scenarios[args.name], args)


_COMMANDS = {
    "fk": cmd_fk,
    "ik": cmd_ik,
    "cables": cmd_cables,
    "theta-from-cables": cmd_theta_from_cables,
    "workspace": cmd_workspace,
    "stiffness": cmd_stiffness,
    "simulate": cmd_simulate,
    "demo": cmd_demo,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # argparse's float() accepts "nan" and "inf"
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise _UsageError(f"argument {name} must be a finite number, got {value}")
        return _COMMANDS[args.command](args, _load_params(args))
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ConstraintViolationError as exc:
        print(f"constraint violation: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
