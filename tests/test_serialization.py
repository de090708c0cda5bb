import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tapearm.model import DEFAULT_PARAMS, JointState, ManipulatorParams, theta_from_cables
from tapearm.serialization import (
    load_params,
    load_scenario,
    params_from_dict,
    params_to_dict,
    save_params,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from tapearm.simulator import ScenarioError, builtin_scenarios, run_scenario


def test_params_dict_roundtrip():
    params = ManipulatorParams(cable_offset=0.02, theta_limit=math.radians(45.0))
    assert params_from_dict(params_to_dict(params)) == params


def test_params_partial_dict_uses_defaults():
    params = params_from_dict({"cable_offset_m": 0.02})
    assert params.cable_offset == 0.02
    assert params.theta_limit == DEFAULT_PARAMS.theta_limit
    assert params.tape == DEFAULT_PARAMS.tape


def test_params_rejects_unknown_keys():
    with pytest.raises(ScenarioError, match="unknown key"):
        params_from_dict({"cable_offset": 0.02})
    with pytest.raises(ScenarioError, match="unknown key"):
        params_from_dict({"tape": {"thickness": 1e-4}})


def test_params_file_roundtrip(tmp_path):
    path = tmp_path / "params.json"
    params = ManipulatorParams(l2_min=0.01)
    save_params(params, path)
    assert load_params(path) == params


def test_saved_files_are_the_indented_json_document(tmp_path):
    # One write of json.dumps(..., indent=2) plus a newline: the bytes that
    # json.dump's many small writes produced.
    params = ManipulatorParams(l2_min=0.01)
    documents = [(save_params, params, params_to_dict(params))]
    documents += [(save_scenario, scenario, scenario_to_dict(scenario))
                  for scenario in builtin_scenarios().values()]
    for save, obj, document in documents:
        path = tmp_path / "saved.json"
        save(obj, path)
        streamed = io.StringIO()
        json.dump(document, streamed, indent=2)
        assert path.read_text() == json.dumps(document, indent=2) + "\n"
        assert path.read_text() == streamed.getvalue() + "\n"


def test_scenario_dict_roundtrip_runs_identically():
    scenario = builtin_scenarios()["constant-angle-retraction"]
    restored = scenario_from_dict(scenario_to_dict(scenario))
    assert run_scenario(restored).rows == run_scenario(scenario).rows


def test_scenario_file_roundtrip(tmp_path):
    scenario = builtin_scenarios()["stationary-bend"]
    path = tmp_path / "scenario.json"
    save_scenario(scenario, path)
    loaded = load_scenario(path)
    assert loaded == scenario
    assert run_scenario(loaded).all_passed


def test_scenario_from_minimal_dict():
    scenario = scenario_from_dict({
        "initial": {"control": {"l1_0_m": 0.3, "l2_0_m": 0.4}, "theta_rad": 0.1},
        "segments": [{"duration_s": 1.0, "rates": {"q1": 0.05, "cL": 0.05, "cR": 0.05}}],
        "checks": ["eq3_residual"],
    })
    assert scenario.dt == 0.01
    assert scenario.params == DEFAULT_PARAMS
    log = run_scenario(scenario)
    assert log.all_passed
    assert log.rows[-1].l1 == pytest.approx(0.35, abs=1e-9)


def test_scenario_initial_from_explicit_cables():
    state = JointState(0.3, 0.4, math.radians(5.0))
    from tapearm.model import cable_lengths
    cables = cable_lengths(state, DEFAULT_PARAMS.cable_offset)
    scenario = scenario_from_dict({
        "initial": {"control": {"l1_0_m": 0.3, "l2_0_m": 0.4},
                    "cables": {"cL_m": cables.c_L, "cR_m": cables.c_R}},
        "segments": [],
    })
    assert scenario.initial.cables == cables
    assert (theta_from_cables(scenario.initial.cables, DEFAULT_PARAMS.cable_offset)
            == pytest.approx(state.theta, abs=1e-12))


def test_scenario_rejects_malformed_input():
    with pytest.raises(ScenarioError):
        scenario_from_dict({"segments": []})  # no initial
    with pytest.raises(ScenarioError, match="unknown key"):
        scenario_from_dict({
            "initial": {"control": {"l1_0_m": 0.3, "l2_0_m": 0.4}},
            "segmentz": [],
        })
    with pytest.raises(ScenarioError, match="unknown key"):
        scenario_from_dict({
            "initial": {"control": {"l1_0_m": 0.3, "l2_0_m": 0.4}},
            "segments": [{"duration_s": 1.0, "rates": {"q5": 0.1}}],
        })


def test_scenario_json_is_plain_data(tmp_path):
    scenario = builtin_scenarios()["deploy-and-bend"]
    path = tmp_path / "scenario.json"
    save_scenario(scenario, path)
    data = json.loads(path.read_text())
    assert set(data) == {"name", "params", "initial", "dt_s", "segments", "checks"}
    assert data["segments"][0].keys() == {"duration_s", "rates"}
    assert set(data["segments"][0]["rates"]) == {"q1", "q2", "cL", "cR"}


_INITIAL = {"control": {"l1_0_m": 0.3, "l2_0_m": 0.4}}


@pytest.mark.parametrize("data, message", [
    ([], "scenario: expected a JSON object, got list"),
    ({"segments": []}, "missing key 'initial' in scenario"),
    ({"initial": {}}, "missing key 'control' in initial"),
    ({"initial": {"control": {"l1_0_m": 0.3}}}, "missing key 'l2_0_m' in control state"),
    ({"initial": {"control": {"l1_0_m": 0.3, "l2_0_m": None}}},
     "l2_0_m in control state: float[(][)] argument must be"),
    ({"initial": _INITIAL, "dt_s": 10 ** 400}, "dt_s in scenario: int too large"),
    ({"initial": _INITIAL, "params": {"tape": {"thickness_m": "thin"}}},
     "thickness_m in tape: could not convert"),
    ({"initial": _INITIAL, "segments": {}}, "segments in scenario: expected a JSON array"),
    ({"initial": _INITIAL, "segments": [[]]}, "segments in scenario: expected a JSON array"),
    ({"initial": _INITIAL, "segments": [{"rates": {}}]}, "missing key 'duration_s' in segment"),
    ({"initial": _INITIAL, "segments": [{"duration_s": 1.0, "rates": []}]},
     "rates: expected a JSON object, got list"),
    # a string used to be parsed one character at a time ("unknown check 'e'")
    ({"initial": _INITIAL, "checks": "eq3_residual"},
     "checks in scenario: expected a JSON array of strings"),
    ({"initial": _INITIAL, "checks": [1]}, "checks in scenario: expected a JSON array of strings"),
    # theta_rad beside explicit cables used to be ignored: this loaded as theta 0
    ({"initial": {**_INITIAL, "theta_rad": 1.0, "cables": {"cL_m": 0.7, "cR_m": 0.7}}},
     "theta_rad and cables in initial: give one or the other"),
])
def test_scenario_errors_name_the_key_and_its_object(data, message):
    with pytest.raises(ScenarioError, match=message):
        scenario_from_dict(data)


def test_numbers_go_through_float():
    scenario = scenario_from_dict({
        "initial": {"control": {"q1_m": False, "l1_0_m": "0.3", "l2_0_m": 0.4}},
        "dt_s": "0.01",
        "segments": [{"duration_s": 1, "rates": {"q1": True}}],
    })
    assert scenario.dt == 0.01
    assert scenario.initial.control.l1_0 == 0.3
    assert scenario.profile.segments[0][1].q1_rate == 1.0


def test_load_rejects_deeply_nested_json(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    with pytest.raises(ScenarioError, match="nested too deeply"):
        load_scenario(path)
    with pytest.raises(ScenarioError, match="nested too deeply"):
        load_params(path)


# --- the codec contract: any JSON value loads or raises ValueError ----------

# every numeric key with a typical value
_TYPICAL = {
    "tape": {"elastic_modulus_pa": 200e9, "thickness_m": 2e-4, "transverse_radius_m": 0.014,
             "subtended_angle_rad": 1.75, "linear_density_kg_per_m": 0.0253,
             "total_tape_length_m": 7.62},
    "params": {"cable_offset_m": 0.015, "theta_limit_rad": 0.96, "l1_min_m": 0.076,
               "l2_min_m": 0.01, "max_total_length_m": 2.0, "base_mass_kg": 0.372,
               "node_mass_kg": 0.163},
    "control": {"q1_m": 0.01, "q2_m": -0.01, "l1_0_m": 0.3, "l2_0_m": 0.4},
    "initial": {"theta_rad": 0.1},
    "cables": {"cL_m": 0.7, "cR_m": 0.69},
    "rates": {"q1": 0.01, "q2": -0.01, "cL": 0.01, "cR": 0.005},
    "segment": {"duration_s": 1.0},
    "scenario": {"dt_s": 0.01},
}
_KEYS = sorted({key for values in _TYPICAL.values() for key in values}
               | {"tape", "name", "params", "initial", "control", "cables", "segments",
                  "rates", "checks"})

_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.just(10 ** 400), st.just(-10 ** 400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6), st.sampled_from(["0.01", "1e400", "nan", "-inf", "/", ".."]))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.one_of(st.sampled_from(_KEYS), st.text(max_size=3)),
                                            inner, max_size=5)),
    max_leaves=20)
_CHECKS = st.sampled_from(["eq3_residual", "l1_constant:1e-6", "theta_constant:22deg",
                           "target:(0.1,0.7)", "expect_fail:final_theta:0.1:1e400",
                           "visits_target:(1e400,nan)", "theta_visits:x"])


def _near(value: float):
    """Mostly ``value`` itself, else a variant float() accepts or a bound rejects."""
    return st.one_of(st.just(value),
                     st.sampled_from([2 * value, value / 2, str(value), True, 0, -value]))


def _documents(value):
    """(params, scenario) document strategies; ``value`` wraps every typical value."""

    def obj(kind, required=(), **nested):
        fields = {**{key: _near(v) for key, v in _TYPICAL[kind].items()}, **nested}
        return st.fixed_dictionaries(
            {key: value(fields.pop(key)) for key in required},
            optional={key: value(strategy) for key, strategy in fields.items()})

    params = obj("params", tape=obj("tape"))
    scenario = obj(
        "scenario", required=("initial",),
        name=st.one_of(st.sampled_from(["demo", "../up", ""]), st.text(max_size=4)),
        params=params,
        initial=obj("initial", required=("control",),
                    control=obj("control", required=("l1_0_m", "l2_0_m")),
                    cables=obj("cables", required=("cL_m", "cR_m"))),
        segments=st.lists(obj("segment", required=("duration_s",), rates=obj("rates")),
                          max_size=3),
        checks=st.lists(st.one_of(_CHECKS, st.text(max_size=8)), max_size=3))
    return params, scenario


# plausible documents, the same with any value replaced by arbitrary JSON, and
# arbitrary JSON
_CLEAN = _documents(lambda strategy: strategy)
_DIRTY = _documents(lambda strategy: st.one_of(strategy, _JSON))
_PARAMS_DOCS = st.one_of(_CLEAN[0], _DIRTY[0], _JSON)
_SCENARIO_DOCS = st.one_of(_CLEAN[1], _DIRTY[1], _JSON)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_SCENARIO_DOCS)
def test_scenario_from_any_json_loads_or_raises_value_error(data):
    try:
        scenario = scenario_from_dict(data)
    except ValueError:
        return
    assert scenario_from_dict(scenario_to_dict(scenario)) == scenario


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_PARAMS_DOCS)
def test_params_from_any_json_loads_or_raises_value_error(data):
    try:
        params = params_from_dict(data)
    except ValueError:
        return
    assert params_from_dict(params_to_dict(params)) == params
