"""Per-layer metrics computed from the spans of a traced run.

Every metric here is either a number or "not observed" with the reason; a
span that never fired is never reported as zero time, so a refactor that
moves or renames a traced function shows up instead of making its layer look
free. The subset that every workload observes is declared under
``per_layer`` in BENCHMARK.json; the last output line of a traced run
carries those.
"""

from __future__ import annotations

from tracing import LAYERS


class NotObserved(Exception):
    """The metric's span or counter never fired on this workload."""


class LayerView:
    """Span summary of the traced operations of one run, per operation."""

    def __init__(self, summary: dict, ops: int):
        self.summary = summary
        self.ops = ops

    def span(self, name: str) -> dict:
        stats = self.summary["spans"].get(name)
        if stats is None or stats["calls"] == 0:
            raise NotObserved(f"no {name} span fired on this workload")
        return stats

    def count(self, name: str, key: str) -> int:
        error = self.summary["counter_errors"].get(f"{name}.{key}")
        if error is not None:
            raise NotObserved(f"counter {name}.{key} failed: {error}")
        value = self.summary["counts"].get(name, {}).get(key)
        if value is None:
            raise NotObserved(f"no {name} span fired on this workload")
        return value

    def incl_per_call(self, name: str) -> float:
        stats = self.span(name)
        return stats["incl_ns"] / stats["calls"]

    def per_unit(self, name: str, kind: str, unit_span: str, key: str) -> float:
        units = self.count(unit_span, key)
        if units == 0:
            raise NotObserved(f"{unit_span} did no {key} on this workload")
        return self.span(name)[kind] / units

    def layer_self_s(self, layer: str) -> float:
        total = sum(s["self_ns"] for n, s in self.summary["spans"].items()
                    if n.partition(".")[0] == layer)
        if total == 0:
            raise NotObserved(f"no {layer} span fired on this workload")
        return total * 1e-9 / self.ops

    def call_spans(self) -> dict:
        """Spans of traced function calls: layer spans other than imports and start-up."""
        return {n: s for n, s in self.summary["spans"].items()
                if n.partition(".")[0] in LAYERS
                and n.rpartition(".")[2] not in ("import", "startup")}

    def call_self_s(self) -> float:
        """Self seconds per operation of traced function calls."""
        return sum(s["self_ns"] for s in self.call_spans().values()) * 1e-9 / self.ops


def _per_layer_definitions(view: LayerView, extra: dict) -> list:
    """(name, unit, thunk) for every per-layer metric the benchmark reports."""
    def extra_value(key, reason):
        def thunk():
            if extra.get(key) is None:
                raise NotObserved(reason)
            return extra[key]
        return thunk

    def points():
        if view.summary["points"] == 0:
            raise NotObserved("no workspace.feasible_theta_interval span fired on this workload")
        return view.summary["points"] / view.ops

    def fallbacks():
        points()
        return view.summary["fallbacks"] / view.ops

    def per_op_count(name, key):
        return lambda: view.count(name, key) / view.ops

    us, ms = 1e-3, 1e-6
    return [
        ("cli.import_s", "s", extra_value("import_cli_s", "tapearm.cli not in -X importtime")),
        ("cli.import_numpy_s", "s", extra_value("import_numpy_s", "numpy is not imported")),
        ("cli.import_scipy_s", "s", extra_value("import_scipy_s", "scipy is not imported")),
        ("cli.main_self_s", "s", lambda: view.span("cli.main")["self_ns"] * 1e-9
         / view.span("cli.main")["calls"]),
        ("workspace.compute_grid_self_us_per_cell", "us",
         lambda: view.per_unit("workspace.compute_grid", "self_ns",
                               "workspace.compute_grid", "cells") * us),
        ("workspace.min_end_effector_angle_us", "us",
         lambda: view.incl_per_call("workspace.min_end_effector_angle") * us),
        ("workspace.grid_to_csv_us_per_row", "us",
         lambda: view.per_unit("workspace.grid_to_csv", "incl_ns",
                               "workspace.grid_to_csv", "rows") * us),
        ("workspace.sweep_fallbacks", "count", fallbacks),
        ("workspace.points_queried", "count", points),
        ("workspace.reachable_fraction", "1",
         extra_value("reachable_fraction", "workload renders no workspace grid")),
        ("svg.workspace_svg_self_us_per_cell", "us",
         lambda: view.per_unit("svg.workspace_svg", "self_ns", "svg.workspace_svg", "cells") * us),
        ("svg.marching_squares_us_per_cell", "us",
         lambda: view.per_unit("svg.marching_squares", "incl_ns",
                               "svg.workspace_svg", "cells") * us),
        ("svg.contour_segments", "count", per_op_count("svg.marching_squares", "segments")),
        ("svg.overlay_svg_ms", "ms", lambda: view.incl_per_call("svg.overlay_svg") * ms),
        ("simulator.run_scenario_self_us_per_row", "us",
         lambda: view.per_unit("simulator.run_scenario", "self_ns",
                               "simulator.run_scenario", "rows") * us),
        ("simulator.evaluate_check_us_per_row", "us",
         lambda: view.per_unit("simulator.evaluate_check", "incl_ns",
                               "simulator.run_scenario", "rows") * us),
        ("simulator.log_to_csv_us_per_row", "us",
         lambda: view.per_unit("simulator.log_to_csv", "incl_ns",
                               "simulator.log_to_csv", "rows") * us),
        ("simulator.builtin_scenarios_ms", "ms",
         lambda: view.incl_per_call("simulator.builtin_scenarios") * ms),
        ("simulator.violation_rows", "count",
         per_op_count("simulator.run_scenario", "violation_rows")),
        ("model.forward_kinematics_us", "us",
         lambda: view.incl_per_call("model.forward_kinematics") * us),
        ("model.validate_state_us", "us", lambda: view.incl_per_call("model.validate_state") * us),
        ("model.theta_from_cables_us", "us",
         lambda: view.incl_per_call("model.theta_from_cables") * us),
        ("planner.plan_trajectory_us_per_leg", "us",
         lambda: view.per_unit("planner.plan_trajectory", "incl_ns",
                               "planner.plan_trajectory", "legs") * us),
        ("planner.ik_enumerate_us_per_config", "us",
         lambda: view.per_unit("planner.ik_enumerate", "incl_ns",
                               "planner.ik_enumerate", "configs") * us),
        ("stiffness.calibrate_unpinched_ms_per_fit", "ms",
         lambda: view.incl_per_call("stiffness.calibrate_unpinched") * ms),
        ("stiffness.calibration_ok_ratio", "1",
         extra_value("calibration_ok_ratio", "workload runs no calibration")),
        ("stiffness.moment_angle_curve_us_per_sample", "us",
         lambda: view.per_unit("stiffness.moment_angle_curve", "incl_ns",
                               "stiffness.moment_angle_curve", "samples") * us),
        ("serialization.load_scenario_us_per_segment", "us",
         lambda: view.per_unit("serialization.load_scenario", "incl_ns",
                               "serialization.load_scenario", "segments") * us),
        ("serialization.scenario_roundtrip_us_per_segment", "us",
         lambda: (view.span("serialization.scenario_to_dict")["incl_ns"]
                  + view.span("serialization.scenario_from_dict")["incl_ns"])
         / view.count("serialization.scenario_to_dict", "segments") * us),
        *((f"{layer}.self_s", "s", (lambda layer=layer: view.layer_self_s(layer)))
          for layer in LAYERS),
        ("trace.overhead_s", "s", extra_value("overhead_s", "no untraced operation to compare")),
        ("trace.remainder_s", "s", extra_value("remainder_s", "no untraced operation to compare")),
        ("trace.spans", "count", lambda: view.summary["total_spans"] / view.ops),
        ("trace.layers_observed", "count",
         lambda: len({n.partition(".")[0] for n in view.call_spans()})),
    ]


def per_layer_metrics(view: LayerView, extra: dict) -> dict:
    """{name: {"value", "unit"} or {"not_observed": reason, "unit"}}."""
    metrics = {}
    for name, unit, thunk in _per_layer_definitions(view, extra):
        try:
            metrics[name] = {"value": thunk(), "unit": unit}
        except NotObserved as exc:
            metrics[name] = {"not_observed": str(exc), "unit": unit}
    return metrics
