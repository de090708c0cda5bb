"""The value types of every module, one sample instance each: equality, hash,
repr, immutability, construction and copies."""

import copy
import inspect
import pickle

import pytest

from tapearm.model import (
    DEFAULT_PARAMS,
    DEFAULT_TAPE,
    CablePair,
    ControlState,
    JointState,
    Pose,
    Violation,
    mass_budget,
)
from tapearm.planner import ControlProfile, RateCommand, SpeedLimits
from tapearm.simulator import Abort, SimState, builtin_scenarios, run_scenario
from tapearm.stiffness import (
    CalibrationResult,
    FlattenedSection,
    UnpinchedPairModel,
    default_models,
)
from tapearm.workspace import AngleInterval, compute_grid

_SCENARIO = builtin_scenarios()["stationary-bend"]
_LOG = run_scenario(_SCENARIO)
_PAIR = UnpinchedPairModel(0.654, 0.17, 0.07)

_VALUES = [
    Violation("l1_min", 0.05, 0.076, -0.026),
    DEFAULT_TAPE,
    DEFAULT_PARAMS,
    JointState(0.3, 0.4, 0.2),
    ControlState(0.0, 0.1, 0.3, 0.4),
    Pose(0.08, 0.69, 0.2),
    CablePair(0.71, 0.69),
    mass_budget(DEFAULT_PARAMS, 1.0),
    SpeedLimits(),
    RateCommand(q1_rate=0.01),
    ControlProfile(((1.0, RateCommand()),)),
    _SCENARIO.initial,
    _SCENARIO,
    _LOG.final,
    _LOG.checks[0],
    Abort(0.51, "cable differential out of range"),
    _LOG.rows,
    _LOG,
    FlattenedSection.from_tape(DEFAULT_TAPE),
    default_models()[0],
    _PAIR,
    CalibrationResult(_PAIR, 0.01),
    AngleInterval(0.1, 0.2),
    compute_grid(DEFAULT_PARAMS, (-0.2, 0.2, 0.0, 0.4), 0.1),
]

# The types with a list or an array field, and so no hash; nor has LogRows,
# which has its own equality and repr.
_UNHASHABLE = {"TrajectoryLog", "WorkspaceGrid", "LogRows"}


def _fields(value) -> dict:
    """Each field's value by name, in the order of the constructor's parameters."""
    return {name: getattr(value, name) for name in inspect.signature(type(value)).parameters}


def test_every_value_type_has_one_sample():
    assert len({type(value) for value in _VALUES}) == len(_VALUES) == 24


@pytest.mark.parametrize("value", _VALUES, ids=[type(value).__name__ for value in _VALUES])
def test_value_type_behaves_as_a_dataclass(value):
    cls, fields = type(value), _fields(value)
    by_keyword, by_position = cls(**fields), cls(*fields.values())
    assert by_keyword == value == by_position and not by_keyword != value
    assert value != tuple(fields.values()) and value.__eq__(object()) is NotImplemented
    if cls.__name__ in _UNHASHABLE:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(by_keyword) == hash(value) == hash(by_position)
    if cls.__name__ == "LogRows":
        assert repr(value) == "<LogRows: 1001 rows, 0 with violations>"
    else:
        text = ", ".join(f"{name}={field!r}" for name, field in fields.items())
        assert repr(value) == f"{cls.__name__}({text})"
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) is fields[name]
    assert copy.copy(value) == value
    restored = pickle.loads(pickle.dumps(value))
    assert type(restored) is cls and repr(restored) == repr(value)


def test_value_type_reprs_and_tuples():
    assert repr(JointState(1.0, 2.0, 3.0)) == "JointState(l1=1.0, l2=2.0, theta=3.0)"
    assert repr(SimState(ControlState(0.0, 0.0, 0.3, 0.6), CablePair(0.9, 0.9))) == (
        "SimState(control=ControlState(q1=0.0, q2=0.0, l1_0=0.3, l2_0=0.6), "
        "cables=CablePair(c_L=0.9, c_R=0.9))")
    assert JointState(1.0, 2.0, 3.0) != (1.0, 2.0, 3.0)
    assert Pose(1.0, 2.0, 3.0) != JointState(1.0, 2.0, 3.0)


@pytest.mark.parametrize("value", _VALUES, ids=[type(value).__name__ for value in _VALUES])
def test_value_type_instances_have_no_dict(value):
    # fields live in __slots__: no per-instance dict, and no stray attributes
    assert not hasattr(value, "__dict__")
