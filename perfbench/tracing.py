"""Span tracer for the tapearm modules and the analysis of what it records.

A traced child process installs a :class:`Tracer`, which replaces every public
tapearm function at each place it is looked up (module globals, the package
namespace, ``from``-imported names and module-level dispatch dicts) with a
wrapper that records a span: name, parent span, start and end. A traced
process runs one operation, so the spans of one dump share their request.
Module imports are recorded as spans too, so each layer's self time includes
the import cost it brings. Spans stay in memory and are written once, at the
end of the process, by :meth:`Tracer.dump`.

The parent process reads the dump with :func:`load_spans` and aggregates it
with :func:`summarize`: self time (duration minus the part covered by direct
child spans), inclusive time, call counts and work counters per span name.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import json
import sys
import time
import types
from array import array

#: The tapearm modules the benchmark reports on, one layer each.
LAYERS = ("cli", "model", "stiffness", "workspace", "planner", "simulator",
          "serialization", "svg")

# Work counters taken from a traced call's arguments or result, after its span
# has closed. Each maps a span name to {counter: fn(result, args)}.
COUNTERS = {
    "workspace.compute_grid": {"cells": lambda r, a: r.reachable.size},
    "workspace.grid_to_csv": {"rows": lambda r, a: a[0].reachable.size},
    "svg.workspace_svg": {"cells": lambda r, a: a[0].reachable.size},
    "svg.marching_squares": {"segments": lambda r, a: sum(len(c) - 1 for c in r)},
    "simulator.run_scenario": {
        "rows": lambda r, a: len(r.rows),
        "violation_rows": lambda r, a: sum(1 for row in r.rows if row.violations),
    },
    "simulator.log_to_csv": {"rows": lambda r, a: len(a[0].rows)},
    "planner.plan_trajectory": {"legs": lambda r, a: len(r.segments)},
    "planner.ik_enumerate": {"configs": lambda r, a: len(r)},
    "stiffness.moment_angle_curve": {"samples": lambda r, a: len(r)},
    "serialization.load_scenario": {"segments": lambda r, a: len(r.profile.segments)},
    "serialization.scenario_to_dict": {"segments": lambda r, a: len(a[0].profile.segments)},
}


def layer_of(module_name: str) -> str | None:
    """Layer of a tapearm module name; the package itself counts as ``cli``."""
    if module_name == "tapearm":
        return "cli"
    head, _, tail = module_name.partition(".")
    if head == "tapearm" and tail in LAYERS:
        return tail
    return None


class Tracer:
    """Records spans into flat arrays; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, dict[str, int]] = {}
        self.counter_errors: dict[str, str] = {}
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str, start_ns: int | None = None) -> int:
        index = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter_ns() if start_ns is None else start_ns)
        self.end.append(0)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """Add a closed span that started before tracing could (process start)."""
        self.close(self.open(name, start_ns))
        self.end[-1] = end_ns

    def count(self, name: str, counters: dict, result, args) -> None:
        totals = self.counts.setdefault(name, {})
        for key, fn in counters.items():
            try:
                totals[key] = totals.get(key, 0) + int(fn(result, args))
            except (AttributeError, TypeError, IndexError, KeyError) as exc:
                # A refactor changed the shape this counter reads; report the
                # counter as not observed instead of crashing the run.
                self.counter_errors[f"{name}.{key}"] = f"{type(exc).__name__}: {exc}"

    def wrap(self, name: str, fn):
        counters = COUNTERS.get(name)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(index)
            if counters:
                self.count(name, counters, result, args)
            return result

        return traced

    def dump(self, path) -> None:
        # numpy is imported here, not at the top: a traced child imports this
        # module before tapearm, and numpy's import belongs to the layer that
        # first pulls it in.
        import numpy as np
        meta = {"names": self.names, "counts": self.counts,
                "counter_errors": self.counter_errors}
        with open(path, "wb") as fh:
            np.savez(fh, meta=np.array(json.dumps(meta)),
                     name=np.frombuffer(self.name, dtype=np.int32),
                     parent=np.frombuffer(self.parent, dtype=np.int32),
                     start=np.frombuffer(self.start, dtype=np.int64),
                     end=np.frombuffer(self.end, dtype=np.int64))


class _TimedLoader(importlib.abc.Loader):
    """Delegating loader that records module execution as an import span."""

    def __init__(self, loader, tracer: Tracer, span: str):
        self._loader = loader
        self._tracer = tracer
        self._span = span

    def create_module(self, spec):
        return self._loader.create_module(spec)

    def exec_module(self, module):
        index = self._tracer.open(self._span)
        try:
            self._loader.exec_module(module)
        finally:
            self._tracer.close(index)


class ImportTimer(importlib.abc.MetaPathFinder):
    """Meta-path finder that times the import of each tapearm module."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def find_spec(self, fullname, path, target=None):
        layer = layer_of(fullname)
        if layer is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is not None and spec.loader is not None:
            spec.loader = _TimedLoader(spec.loader, self._tracer, f"{layer}.import")
        return spec


def install(tracer: Tracer) -> None:
    """Wrap every public tapearm function wherever a loaded module refers to it."""
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and layer_of(n) is not None]
    wrappers: dict = {}

    def traced(value):
        if not isinstance(value, types.FunctionType) or value.__name__.startswith("_"):
            return None
        layer = layer_of(value.__module__)
        if layer is None:
            return None
        if value not in wrappers:
            wrappers[value] = tracer.wrap(f"{layer}.{value.__name__}", value)
        return wrappers[value]

    for module in modules:
        for attr, value in list(vars(module).items()):
            if attr.startswith("__"):
                continue
            replacement = traced(value)
            if replacement is not None:
                setattr(module, attr, replacement)
            elif isinstance(value, dict):
                # Dispatch tables such as cli._COMMANDS hold the functions
                # themselves, so they are a lookup site too.
                for key, item in list(value.items()):
                    replacement = traced(item)
                    if replacement is not None:
                        value[key] = replacement


# --- analysis (parent side) ------------------------------------------------

def load_spans(path) -> dict:
    import numpy as np
    with np.load(path, allow_pickle=False) as data:
        dump = {key: data[key] for key in ("name", "parent", "start", "end")}
        dump.update(json.loads(str(data["meta"])))
    return dump


def summarize(dumps) -> dict:
    """Aggregate span dumps into per-name statistics.

    Returns {"spans": {name: {"calls", "self_ns", "incl_ns"}}, "counts",
    "counter_errors", "total_spans", "points" (feasible_theta_interval spans)
    and "fallbacks" (sweep_feasible_intervals spans whose parent is one)}.
    """
    import numpy as np
    stats: dict = {}
    counts: dict = {}
    errors: dict = {}
    total_spans = fallbacks = points = 0
    for dump in dumps:
        names = dump["names"]
        name_of, parent = dump["name"], dump["parent"]
        duration = (dump["end"] - dump["start"]).astype(np.float64)
        n = len(duration)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested], minlength=n)
        own = duration - child
        k = len(names)
        calls = np.bincount(name_of, minlength=k)
        incl = np.bincount(name_of, weights=duration, minlength=k)
        self_ns = np.bincount(name_of, weights=own, minlength=k)
        for nid, name in enumerate(names):
            entry = stats.setdefault(name, {"calls": 0, "self_ns": 0.0, "incl_ns": 0.0})
            entry["calls"] += int(calls[nid])
            entry["incl_ns"] += float(incl[nid])
            entry["self_ns"] += float(self_ns[nid])
        total_spans += n
        if "workspace.feasible_theta_interval" in names:
            interval_id = names.index("workspace.feasible_theta_interval")
            points += int(calls[interval_id])
            if "workspace.sweep_feasible_intervals" in names:
                sweep = name_of == names.index("workspace.sweep_feasible_intervals")
                parents = parent[sweep]
                parents = parents[parents >= 0]
                fallbacks += int(np.count_nonzero(name_of[parents] == interval_id))
        for name, totals in dump["counts"].items():
            into = counts.setdefault(name, {})
            for key, value in totals.items():
                into[key] = into.get(key, 0) + value
        errors.update(dump["counter_errors"])
    return {"spans": stats, "counts": counts, "counter_errors": errors,
            "total_spans": total_spans, "fallbacks": fallbacks, "points": points}


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds of ``tapearm.cli``, numpy and scipy from -X importtime.

    numpy and scipy are the outermost entries of each package (a scipy module
    imported from inside another scipy module is already counted).
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # header line
        stripped = name.lstrip(" ")
        entries.append((len(name) - len(stripped), stripped, int(cumulative) * 1e-6))
    totals = {"cli": 0.0, "numpy": 0.0, "scipy": 0.0}
    # Children precede their parent; walking backwards keeps the ancestors of
    # the current entry on the stack.
    stack: list[tuple[int, str]] = []
    for indent, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= indent:
            stack.pop()
        package = name.partition(".")[0]
        key = "cli" if name == "tapearm.cli" else package
        if key in totals and not any(a.partition(".")[0] == package for _, a in stack):
            totals[key] += cumulative
        stack.append((indent, name))
    return totals
