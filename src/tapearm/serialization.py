"""JSON codec for parameter and scenario files.

Keys carry unit suffixes (_m, _rad, _s, _pa, _kg, ...) so files are
unambiguous; rates inside profile segments use the bare actuator names
q1/q2/cL/cR, all in m/s.

Each value type a file holds has one key table mapping its JSON keys, in
file order, to its fields: ``_TAPE``, ``_PARAMS``, ``_CONTROL``,
``_CABLES`` and ``_RATES``. ``_encode`` writes a value through its table and
``_fields`` reads it back: the value must be a JSON object, unknown keys are
rejected so typos fail loudly, a missing key takes its default or is
reported missing, and every number goes through ``float()``. A malformed
file raises ScenarioError of the form ``<key> in <context>: ...``,
``missing key ... in <context>`` or ``unknown key(s) ... in <context>``; a
value its type rejects raises that type's ValueError. Apart from OSError
when reading the file, every failure is a ValueError.

Scenario files look like::

    {
      "name": "retract",
      "params": { ... optional overrides of the defaults ... },
      "initial": {"control": {"q1_m": 0, "q2_m": 0, "l1_0_m": 0.3, "l2_0_m": 0.4},
                  "theta_rad": 0.38397},
      "dt_s": 0.01,
      "segments": [{"duration_s": 11.0,
                    "rates": {"q1": -0.02, "cL": -0.02, "cR": -0.02}}],
      "checks": ["theta_constant:22deg:1e-6", "eq3_residual:1e-9"]
    }

``initial`` takes either ``theta_rad`` (cables derived, always consistent) or
an explicit ``cables`` object {"cL_m": ..., "cR_m": ...}.
"""

from __future__ import annotations

import json

from .model import (
    DEFAULT_PARAMS,
    DEFAULT_TAPE,
    CablePair,
    ControlState,
    ManipulatorParams,
    TapeProperties,
)
from .planner import ControlProfile, RateCommand
from .simulator import Scenario, ScenarioError, SimState, initial_state

_TAPE = {
    "elastic_modulus_pa": "elastic_modulus",
    "thickness_m": "thickness",
    "transverse_radius_m": "transverse_radius",
    "subtended_angle_rad": "subtended_angle",
    "linear_density_kg_per_m": "linear_density",
    "total_tape_length_m": "total_tape_length",
}
_PARAMS = {
    "cable_offset_m": "cable_offset",
    "theta_limit_rad": "theta_limit",
    "l1_min_m": "l1_min",
    "l2_min_m": "l2_min",
    "max_total_length_m": "max_total_length",
    "base_mass_kg": "base_mass",
    "node_mass_kg": "node_mass",
}
_CONTROL = {"q1_m": "q1", "q2_m": "q2", "l1_0_m": "l1_0", "l2_0_m": "l2_0"}
_CABLES = {"cL_m": "c_L", "cR_m": "c_R"}
_RATES = {"q1": "q1_rate", "q2": "q2_rate", "cL": "cL_rate", "cR": "cR_rate"}


def _encode(obj, table: dict) -> dict:
    return {key: getattr(obj, name) for key, name in table.items()}


def _object(data, allowed, context: str) -> dict:
    """``data`` itself, once it is a JSON object whose keys are all allowed."""
    if not isinstance(data, dict):
        raise ScenarioError(f"{context}: expected a JSON object, got {type(data).__name__}")
    unknown = set(data) - set(allowed)
    if unknown:
        raise ScenarioError(f"unknown key(s) {sorted(unknown)} in {context}; "
                            f"allowed: {sorted(allowed)}")
    return data


def _get(data: dict, key: str, context: str):
    if key not in data:
        raise ScenarioError(f"missing key {key!r} in {context}")
    return data[key]


def _number(value, key: str, context: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{key} in {context}: {exc}") from None


def _fields(data, table: dict, context: str, defaults: dict, other=()) -> dict:
    """Field values read through ``table`` from the JSON object ``data``.

    A key absent from ``data`` takes the field's value in ``defaults`` and is
    reported missing when the field has none. Keys in ``other`` are allowed
    and left to the caller.
    """
    _object(data, [*table, *other], context)
    fields = {}
    for key, name in table.items():
        if key not in data and name in defaults:
            fields[name] = defaults[name]
        else:
            fields[name] = _number(_get(data, key, context), key, context)
    return fields


def _array(data: dict, key: str, item_type, items: str) -> list:
    """``data[key]``, an empty list if absent: a JSON array of ``item_type`` values."""
    value = data.get(key, [])
    if not (isinstance(value, list) and all(isinstance(item, item_type) for item in value)):
        raise ScenarioError(f"{key} in scenario: expected a JSON array of {items}")
    return value


def params_to_dict(params: ManipulatorParams) -> dict:
    return {"tape": _encode(params.tape, _TAPE), **_encode(params, _PARAMS)}


def params_from_dict(data) -> ManipulatorParams:
    """Build parameters from a (possibly partial) dict; defaults fill gaps."""
    fields = _fields(data, _PARAMS, "params", DEFAULT_PARAMS._asdict(), other=("tape",))
    tape = _fields(data.get("tape", {}), _TAPE, "tape", DEFAULT_TAPE._asdict())
    return ManipulatorParams(tape=TapeProperties(**tape), **fields)


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "name": scenario.name,
        "params": params_to_dict(scenario.params),
        "initial": {
            "control": _encode(scenario.initial.control, _CONTROL),
            "cables": _encode(scenario.initial.cables, _CABLES),
        },
        "dt_s": scenario.dt,
        "segments": [{"duration_s": duration, "rates": _encode(command, _RATES)}
                     for duration, command in scenario.profile.segments],
        "checks": list(scenario.checks),
    }


def scenario_from_dict(data) -> Scenario:
    _object(data, ("name", "params", "initial", "dt_s", "segments", "checks"), "scenario")
    params = params_from_dict(data.get("params", {}))
    initial = _object(_get(data, "initial", "scenario"), ("control", "theta_rad", "cables"),
                      "initial")
    control = ControlState(**_fields(_get(initial, "control", "initial"), _CONTROL,
                                     "control state", {"q1": 0.0, "q2": 0.0}))
    if "cables" in initial:
        if "theta_rad" in initial:
            raise ScenarioError("theta_rad and cables in initial: give one or the other, "
                                "not both")
        state = SimState(control, CablePair(**_fields(initial["cables"], _CABLES, "cables", {})))
    else:
        theta = _number(initial.get("theta_rad", 0.0), "theta_rad", "initial")
        state = initial_state(control, theta, params)
    segments = []
    rate_defaults = RateCommand()._asdict()
    for entry in _array(data, "segments", dict, "objects"):
        _object(entry, ("duration_s", "rates"), "segment")
        duration = _number(_get(entry, "duration_s", "segment"), "duration_s", "segment")
        rates = _fields(entry.get("rates", {}), _RATES, "rates", rate_defaults)
        segments.append((duration, RateCommand(**rates)))
    name = data.get("name", "scenario")
    if not isinstance(name, str):
        raise ScenarioError(f"name in scenario: expected a JSON string, got "
                            f"{type(name).__name__}")
    return Scenario(
        name=name,
        params=params,
        initial=state,
        profile=ControlProfile(tuple(segments)),
        dt=_number(data.get("dt_s", 0.01), "dt_s", "scenario"),
        checks=tuple(_array(data, "checks", str, "strings")),
    )


def _read_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ScenarioError(f"{path}: JSON nested too deeply") from None


def save_scenario(scenario: Scenario, path) -> None:
    # One write of the whole document: json.dump writes each token separately.
    with open(path, "w") as fh:
        fh.write(json.dumps(scenario_to_dict(scenario), indent=2) + "\n")


def load_scenario(path) -> Scenario:
    return scenario_from_dict(_read_json(path))


def save_params(params: ManipulatorParams, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(params_to_dict(params), indent=2) + "\n")


def load_params(path) -> ManipulatorParams:
    return params_from_dict(_read_json(path))
