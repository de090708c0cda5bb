"""Pinched bistable-tape planar manipulator toolkit.

Models a 3-DOF arm built from two back-to-back bistable tapes: the tapes
spool out of a base (prismatic link 1), a roller node pinches them flat to
create a movable revolute joint, and link 2 continues to the tip. Two
steering cables set the bend angle.

Modules:

- model: value types, closed-form kinematic maps, mass/extension bookkeeping
- stiffness: pinched and unpinched bending-moment models plus calibration
- workspace: inverse kinematics at a given angle, reachability and
  minimum end-effector-angle analysis
- planner: configuration enumeration, rate coordination, trajectory planning
- simulator: quasi-static scenario execution with named checks
- serialization: JSON codec for parameter and scenario files
- svg: workspace heat maps and configuration overlays
- cli: the ``tapearm`` command-line front end

Quick start::

    from tapearm import DEFAULT_PARAMS, JointState, forward_kinematics
    pose = forward_kinematics(JointState(0.432, 0.265, 0.2915), DEFAULT_PARAMS)
"""

from .model import (
    DEFAULT_PARAMS,
    DEFAULT_TAPE,
    CablePair,
    CableRangeError,
    ConstraintViolationError,
    ControlState,
    JointState,
    ManipulatorParams,
    MassBudget,
    Pose,
    TapeProperties,
    Violation,
    cable_lengths,
    extension_ratio,
    forward_kinematics,
    link_lengths,
    mass_budget,
    theta_from_cables,
    validate_state,
)
from .planner import (
    ControlProfile,
    PlanningError,
    RateCommand,
    SpeedLimits,
    controls_between,
    ik_enumerate,
    plan_trajectory,
    stationary_bend_rates,
)
from .simulator import (
    Scenario,
    ScenarioError,
    SimState,
    TrajectoryLog,
    builtin_scenarios,
    run_scenario,
)
from .stiffness import (
    CalibrationError,
    FlattenedSection,
    PinchJointModel,
    UnpinchedPairModel,
    calibrate_unpinched,
    default_models,
    flattened_moment,
    moment_angle_curve,
    peak_ratio,
)
from .workspace import (
    AngleInterval,
    WorkspaceGrid,
    compute_grid,
    feasible_theta_interval,
    ik_at_theta,
    min_end_effector_angle,
    sweep_feasible_intervals,
)

__all__ = [
    # model
    "DEFAULT_PARAMS", "DEFAULT_TAPE", "CablePair", "CableRangeError",
    "ConstraintViolationError", "ControlState", "JointState",
    "ManipulatorParams", "MassBudget", "Pose", "TapeProperties", "Violation",
    "cable_lengths", "extension_ratio", "forward_kinematics",
    "link_lengths", "mass_budget", "theta_from_cables", "validate_state",
    # planner
    "ControlProfile", "PlanningError", "RateCommand", "SpeedLimits",
    "controls_between", "ik_enumerate", "plan_trajectory",
    "stationary_bend_rates",
    # simulator
    "Scenario", "ScenarioError", "SimState", "TrajectoryLog",
    "builtin_scenarios", "run_scenario",
    # stiffness
    "CalibrationError", "FlattenedSection", "PinchJointModel",
    "UnpinchedPairModel", "calibrate_unpinched", "default_models",
    "flattened_moment", "moment_angle_curve", "peak_ratio",
    # workspace
    "AngleInterval", "WorkspaceGrid", "compute_grid",
    "feasible_theta_interval", "ik_at_theta", "min_end_effector_angle",
    "sweep_feasible_intervals",
]
