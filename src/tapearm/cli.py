"""Command-line interface.

Angles on the CLI default to degrees (a deg/rad suffix on any angle argument
overrides, as does --angle-unit); the library itself is radians-only. Exit
codes: 0 success, 1 failed checks or invalid states, 2 usage/parse errors,
3 I/O errors.
"""

from __future__ import annotations

import argparse
import errno
import gc
import math
import os
import re
import sys
from pathlib import Path

from . import serialization, simulator, stiffness, svg, workspace
from .model import (
    DEFAULT_PARAMS,
    CablePair,
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


def _fmt(value: float) -> str:
    return f"{value:.12g}"


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that a help text that cannot be written to
    stdout raises the write's OSError, which argparse ignores."""

    def print_help(self, file=None):
        file = sys.stdout if file is None else file
        if file is not None:  # None when fd 1 was closed at start, as for print
            file.write(self.format_help())

    def error(self, message):
        # one line, though argparse names unrecognized arguments as they are
        super().error(message.replace("\r", "\\r").replace("\n", "\\n"))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tapearm",
        description="Model, plan and simulate the pinched-tape planar manipulator.")
    parser.add_argument("--params", metavar="FILE",
                        help=f"JSON parameter file (default: ${PARAMS_ENV_VAR} if set); "
                             "simulate reads none")
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

    # argparse reads an argument that starts with "-" as an option unless it is
    # a plain decimal like "-1.5"; read "-16.7deg", "-1e-3" and "-.5" as values
    # too, since no tapearm option starts with a digit.
    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


def _load_params(args):
    path = args.params or os.environ.get(PARAMS_ENV_VAR)
    if not path:
        return DEFAULT_PARAMS
    try:
        return serialization.load_params(path)
    except ValueError as exc:
        raise ValueError(f"bad parameter file: {exc}") from exc


def _parse_cli_angle(text, args) -> float:
    try:
        angle = parse_angle(text, default_unit=args.angle_unit)
    except ValueError as exc:
        raise ValueError(f"bad angle {text!r}: {exc}") from exc
    if not math.isfinite(angle):
        raise ValueError(f"bad angle {text!r}: must be finite")
    return angle


def _print_violations(violations) -> None:
    for violation in violations:
        print(f"violation: {violation}")


def _check_out(args) -> None:
    """Fail before any work if --out cannot become a directory, because its
    nearest existing ancestor is not one, or is one this process cannot write
    to and enter. Creates nothing."""
    path = Path(args.out).absolute()
    while not path.exists():
        path = path.parent
    if not path.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(path))
    if not os.access(path, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))


def _write_outputs(args, table, figure=None) -> None:
    """Write the outputs that --format selects into --out, creating it.

    ``table`` (CSV) and ``figure`` (SVG) are (file name, renderer) pairs; a
    renderer writes to an open text file. A table with no figure is written
    under every --format. Each path is printed once its file is closed.
    """
    outputs = {"csv": [table], "svg": [figure], "both": [table, figure]}[args.format]
    if figure is None:
        outputs = [table]
    directory = Path(args.out)
    directory.mkdir(parents=True, exist_ok=True)
    for name, render in outputs:
        path = directory / name
        with open(path, "w", newline="") as fh:
            render(fh)
        print(f"wrote {path}")


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
    _check_out(args)
    grid = workspace.compute_grid(params, tuple(args.bounds), args.resolution)
    if grid.reachable.size == 0:
        print("warning: bounds enclose no grid cells; outputs are empty")
    _write_outputs(args, ("workspace.csv", lambda fh: workspace.grid_to_csv(grid, fh)),
                   ("workspace.svg", lambda fh: svg.workspace_svg(grid, fh)))
    print(f"cells={grid.reachable.size}")
    print(f"reachable_fraction={_fmt(grid.reachable_fraction)}")
    return EXIT_OK


def cmd_stiffness(args, params) -> int:
    if args.kappa is None and args.theta is None and args.curve is None:
        raise ValueError("stiffness needs one of --kappa, --theta, --curve")
    if args.curve is not None:
        _check_out(args)
    section = stiffness.FlattenedSection.from_tape(params.tape)
    pinched, unpinched = stiffness.default_models(params.tape)
    model = pinched if args.model == "pinched" else unpinched
    if args.kappa is not None:
        print(f"moment_Nm={_fmt(stiffness.flattened_moment(section, args.kappa))}")
    if args.theta is not None:
        theta = _parse_cli_angle(args.theta, args)
        print(f"moment_Nm={_fmt(model.moment(theta))}")
    if args.curve is not None:
        lo = _parse_cli_angle(args.curve[0], args)
        hi = _parse_cli_angle(args.curve[1], args)
        n = int(args.curve[2])
        samples = stiffness.moment_angle_curve(model, lo, hi, n)
        _write_outputs(args, (f"stiffness_{args.model}.csv",
                              lambda fh: stiffness.write_moment_csv(samples, fh)))
    return EXIT_OK


def _run_and_report(scenario, args) -> int:
    log = simulator.run_scenario(scenario)
    _write_outputs(args, (f"{scenario.name}_log.csv", lambda fh: simulator.log_to_csv(log, fh)),
                   (f"{scenario.name}_overlay.svg",
                    lambda fh: svg.overlay_svg(log, fh)))
    if log.abort is not None:
        print(f"aborted at t={log.abort.time:.9g} s: {log.abort.reason}")
    for result in log.checks:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.check} observed={result.observed:.6g} "
              f"threshold={result.threshold:.6g} ({result.detail})")
    return EXIT_OK if log.all_passed else EXIT_CHECK


def cmd_simulate(args, params) -> int:
    del params  # None: a scenario file carries its own parameters
    _check_out(args)
    try:
        scenario = serialization.load_scenario(args.scenario)
    except ValueError as exc:
        raise ValueError(f"bad scenario file: {exc}") from exc
    return _run_and_report(scenario, args)


def cmd_demo(args, params) -> int:
    _check_out(args)
    build = simulator.DEMOS.get(args.name)
    if build is None:
        raise ValueError(f"unknown demo {args.name!r}; "
                         f"available demos: {', '.join(simulator.DEMOS)}")
    return _run_and_report(build(params), args)


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
    try:
        args = _build_parser().parse_args(argv)
        # argparse's float() accepts "nan" and "inf"
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"argument {name} must be a finite number, got {value}")
        params = None if args.command == "simulate" else _load_params(args)
        return _COMMANDS[args.command](args, params)
    except OSError as exc:
        return _report(f"I/O error: {exc}", EXIT_IO)
    except ValueError as exc:
        return _report(f"error: {exc}", EXIT_USAGE)


def _report(message, code) -> int:
    """Print ``message`` to stderr and return ``code``. A stderr that cannot be
    written drops it, and fd 2 goes to os.devnull, so no later flush fails."""
    try:
        print(message, file=sys.stderr)
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), 2)
    return code


def run():
    """The ``tapearm`` process: ``main``, whose code or SystemExit (argparse's
    help and usage errors) it keeps, then stdout's flush, whose failure is an
    I/O error (fd 1 then goes to os.devnull, so the exit's flush cannot fail
    again), then gc.freeze, so the shutdown collections skip every object."""
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    try:
        if sys.stdout is not None:  # None when fd 1 was closed at start
            sys.stdout.flush()
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = _report(f"I/O error: {exc}", EXIT_IO)
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
