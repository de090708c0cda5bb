"""End-to-end and per-layer benchmark of the tapearm CLI and library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is this file's parent directory, and
the program is run from its ``src/`` tree. Workloads (workloads.py, and
BENCHMARK.json for why each was chosen): workspace-map, scenario-replay,
cli-burst, api-batch.

Operations run as child processes one after another (a closed loop with one
client, at most one child at a time) until their wall times add up to
``--seconds``. Every output is checked outside the timed region.

``--trace 0`` reports the end-to-end metrics: set-up time (median of fresh
``import tapearm.cli`` runs), median and tail wall time per operation, the
median wall over that of a fixed reference job run in between (steady where
the machine's speed drifts), throughput, the children's peak RSS (``wait4``)
and output bytes.
``--trace 1`` alternates untraced and traced operations; a traced operation
runs in ``child.py`` with every public tapearm function wrapped in spans, and
reports per-layer metrics (layers.py) plus the tracing overhead.

Human-readable lines come first; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. The full report, with
machine facts and every per-layer metric (or why it was not observed), is
also written to ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
TRACE_SETUP_REPEATS = 3
STATISTIC = "median"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd, stdout_path: Path, stderr_path: Path, spawn_ns: int | None = None):
    """Run one child to completion; returns (exit code, wall s, peak RSS MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter_ns() if spawn_ns is None else spawn_ns
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = (time.perf_counter_ns() - start) * 1e-9
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


SIDE_RUNS = {
    "import": ["-c", "import tapearm.cli"],
    "importtime": ["-X", "importtime", "-c", "import tapearm.cli"],
    # A fixed job that runs no tapearm code. Its wall time tracks the
    # machine's speed, which on a shared two-core host drifts by 10-25 % over
    # minutes; wall_ref_ratio divides operation walls by it.
    "reference": ["-c", "import numpy, scipy.optimize"],
}


class SideRuns:
    """Short fixed processes spread evenly over the measuring window.

    ``import`` runs (fresh ``import tapearm.cli``) give ``setup_s``,
    ``importtime`` runs the import break-down of a traced run, ``reference``
    runs the machine speed. Spreading them over the window exposes them to
    the same machine conditions as the operations.
    """

    def __init__(self, scratch: Path, kinds: list):
        self.scratch = scratch
        self.pending = list(kinds)  # in running order
        self.total = len(self.pending)
        self.walls: dict[str, list] = {kind: [] for kind in SIDE_RUNS}
        self.importtime: list[str] = []

    @property
    def finished(self) -> bool:
        return not self.pending

    def run(self, kind: str) -> float:
        out, err = self.scratch / "side.out", self.scratch / "side.err"
        code, wall, _ = run_child([sys.executable, *SIDE_RUNS[kind]], out, err)
        if code != 0:
            raise SystemExit(f"{kind} run failed: {err.read_text()}")
        self.walls[kind].append(wall)
        if kind == "importtime":
            self.importtime.append(err.read_text())
        return wall

    def run_due(self, spent: float, seconds: float) -> float:
        """Run the side runs whose share of the window has passed; returns their wall."""
        start = spent
        while self.pending and spent >= (self.total - len(self.pending)) * seconds / self.total:
            spent += self.run(self.pending.pop(0))
        return spent - start


def tail(samples: list) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it.

    Below 20 samples no percentile at or above the median has ten beyond it,
    so the maximum is reported instead and labelled as such.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 20:
        return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n} (10 beyond)"
    return ordered[-1], f"max of {n} (fewer than 20 samples)"


def machine_facts(seed: int, repeats: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "not installed"
    commit = "unknown (not a git checkout)"
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(), **versions,
            "commit": commit, "seed": seed, "repeats": repeats, "statistic": STATISTIC,
            "src_lines": src_lines}


class Runner:
    """Runs a workload's operations as children and checks their outputs."""

    def __init__(self, workload, scratch: Path):
        self.workload = workload
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def run(self, op, traced: bool):
        """Run one operation; returns (OpResult, spans path or None)."""
        from workloads import OpResult
        tag = f"op{self.attempted + 1}"
        out_dir = self.scratch / tag
        out_dir.mkdir()
        spec = {"argv": ["--out", str(out_dir), *op.argv]} if op.argv is not None \
            else {"batch": self.workload.spec}
        spec_path = self.scratch / ("batch.json" if op.argv is None else f"{tag}.json")
        if traced or op.argv is None and not spec_path.exists():
            spec_path.write_text(json.dumps(spec))
        result_path = self.scratch / f"{tag}.result.json"
        spans = self.scratch / f"{tag}.spans.npz" if traced else None
        child = [sys.executable, str(HERE / "child.py")]
        spawn = time.perf_counter_ns()
        if traced:
            cmd = [*child, "trace", str(spec_path), str(result_path), str(out_dir),
                   str(spans), str(spawn)]
        elif op.argv is None:
            cmd = [*child, "batch", str(spec_path), str(result_path), str(out_dir)]
        else:
            cmd = [sys.executable, "-m", "tapearm", *spec["argv"]]
        stdout, stderr = self.scratch / f"{tag}.stdout", self.scratch / f"{tag}.stderr"
        code, wall, rss = run_child(cmd, stdout, stderr, spawn)
        batch = json.loads(result_path.read_text()) if result_path.exists() else None
        output_bytes = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
        result = OpResult(code, wall, rss, stdout.read_text(), stderr.read_text(),
                          out_dir, output_bytes, batch)
        problems = op.check(result)
        if traced and (spans is None or not spans.exists()):
            problems.append(f"{op.label}: traced child wrote no spans")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.mismatches.extend(problems)
        shutil.rmtree(out_dir)
        for path in (stdout, stderr, result_path):
            path.unlink(missing_ok=True)
        return result, spans

    def op_wall(self, result) -> float:
        """The operation's timed wall: the whole child, or the batch after import."""
        if self.workload.wall_includes_startup or result.batch is None:
            return result.wall_s
        return result.batch["batch_s"]


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Run operations for ``seconds``; each metric is a median per kind of operation.

    cli-burst cycles through six commands, and a run ends part-way through a
    cycle, so medians are taken per command and then averaged over the
    commands; the mix of a run then does not move the figures.
    """
    ops = runner.workload.ops()
    side = SideRuns(runner.scratch, ["import", "reference"] * SETUP_REPEATS)
    samples = {op.label: [] for op in ops}
    walls = []
    spent = 0.0
    while spent < seconds or len(walls) < len(ops) or not side.finished:
        spent += side.run_due(spent, seconds)
        op = ops[len(walls) % len(ops)]
        result, _ = runner.run(op, traced=False)
        spent += result.wall_s
        walls.append(runner.op_wall(result))
        samples[op.label].append((walls[-1], op.units / walls[-1], result.maxrss_mb,
                                  result.output_bytes))
    setup = side.walls["import"]
    reference = statistics.median(side.walls["reference"])

    def per_kind(column):
        return statistics.mean(statistics.median(s[column] for s in kind)
                               for kind in samples.values())

    tail_value, tail_note = tail(walls)
    unit = runner.workload.unit
    kinds = f"median per operation kind, mean over {len(samples)} kinds"
    metrics = {
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} fresh `import tapearm.cli`"),
        "wall_s": (per_kind(0), "s", f"{kinds}; {len(walls)} operations"),
        "wall_ref_ratio": (per_kind(0) / reference, "1",
                           f"wall_s over the median {reference:.4g} s of "
                           f"{len(side.walls['reference'])} runs of a fixed reference job"),
        "wall_tail_s": (tail_value, "s", tail_note),
        "throughput_per_s": (per_kind(1), "1/s", f"{unit}_per_s: {unit} / wall, {kinds}"),
        "peak_rss_mb": (per_kind(2), "MB", f"children's ru_maxrss, {kinds}"),
        "output_bytes": (per_kind(3), "bytes", f"bytes written, {kinds}"),
    }
    facts = {"operations": len(walls), "setup_runs": len(setup), "walls_s": walls,
             "reference_walls_s": side.walls["reference"]}
    return metrics, facts


def per_layer(runner: Runner, seconds: float) -> tuple[dict, dict]:
    from layers import LayerView, per_layer_metrics
    from tracing import load_spans, parse_importtime, summarize
    ops = runner.workload.ops()
    side = SideRuns(runner.scratch, ["import", "importtime"] * TRACE_SETUP_REPEATS)
    plain, traced, dumps = [], [], []
    spent = 0.0
    while spent < seconds or len(traced) < len(ops) or not side.finished:
        spent += side.run_due(spent, seconds)
        op = ops[len(traced) % len(ops)]
        result, _ = runner.run(op, traced=False)
        plain.append(runner.op_wall(result))
        spent += result.wall_s
        result, spans = runner.run(op, traced=True)
        traced.append(runner.op_wall(result))
        spent += result.wall_s
        if spans is not None and spans.exists():
            dumps.append(load_spans(spans))
            spans.unlink()
    view = LayerView(summarize(dumps), len(traced))
    breakdown = [parse_importtime(text) for text in side.importtime]
    wall = statistics.median(plain)
    setup = side.walls["import"]
    setup_s = statistics.median(setup) if runner.workload.wall_includes_startup else 0.0
    extra = {
        "import_cli_s": statistics.median(i["cli"] for i in breakdown),
        "import_numpy_s": statistics.median(i["numpy"] for i in breakdown) or None,
        "import_scipy_s": statistics.median(i["scipy"] for i in breakdown) or None,
        "overhead_s": statistics.median(traced) - wall,
        "remainder_s": wall - setup_s - view.call_self_s(),
        **runner.workload.extra(),
    }
    metrics = per_layer_metrics(view, extra)
    facts = {"operations": len(traced), "setup_runs": len(setup),
             "untraced_wall_s": wall,
             "traced_wall_s": statistics.median(traced), "setup_s": setup_s,
             "traced_call_self_s": view.call_self_s(),
             "spans_by_name": view.summary["spans"],
             "layers_expected": list(runner.workload.layers),
             "layers_called": sorted({n.partition(".")[0] for n in view.call_spans()})}
    return metrics, facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor in (0, 1]; below 1 only for the smoke test")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the running child is killed and the
    # scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "tapearm" / "__init__.py").is_file():
        print(f"error: no tapearm sources under {SRC}", file=sys.stderr)
        return 2
    if not 0.0 < args.scale <= 1.0:
        parser.error("--scale must lie in (0, 1]")
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    scratch = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.scale, scratch)
        SideRuns(scratch, []).run("import")  # warm-up: bytecode caches, page cache
        runner = Runner(workload, scratch)
        measure = per_layer if args.trace else end_to_end
        metrics, facts = measure(runner, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    report = {"workload": args.workload, "trace": args.trace,
              "machine": machine_facts(args.seed, {
                  "setup": facts["setup_runs"], "operations": facts["operations"]}),
              "attempted": runner.attempted, "failed": runner.failed,
              "fail_ratio": runner.failed / runner.attempted,
              "mismatches": runner.mismatches, "facts": facts}
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"operations={runner.attempted} statistic={STATISTIC}")
    for key, value in report["machine"].items():
        print(f"  {key}: {value}")
    for line in runner.mismatches:
        print(f"MISMATCH {line}")
    print(f"fail_ratio = {runner.failed}/{runner.attempted} = {report['fail_ratio']:.6g}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        report["per_layer"] = metrics
        for name, entry in metrics.items():
            if "value" in entry:
                print(f"{name} = {entry['value']:.6g} {entry['unit']}")
            else:
                print(f"{name} = not observed ({entry['not_observed']})")
        missing = [layer for layer in workload.layers if layer not in facts["layers_called"]]
        if missing:
            print(f"WARNING no function span fired in expected layers {missing}")
        values = {name: (entry.get("value"), entry["unit"]) for name, entry in metrics.items()}
    else:
        report["end_to_end"] = {k: {"value": v, "unit": u, "note": note}
                                for k, (v, u, note) in metrics.items()}
        for name, (value, unit, note) in metrics.items():
            label = f"{workload.unit}_per_s" if name == "throughput_per_s" else name
            print(f"{label} = {value:.6g} {unit}  ({note})")
        values = {name: (value, unit) for name, (value, unit, _) in metrics.items()}
    driver = {}
    for entry in declared["per_layer" if args.trace else "end_to_end"]:
        value, unit = values.get(entry["name"], (None, None))
        if value is None or unit != entry["unit"]:
            print(f"error: declared metric {entry['name']} [{entry['unit']}] was not measured "
                  f"on this workload", file=sys.stderr)
            return 1
        driver[entry["name"]] = {"value": value, "unit": unit}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": driver}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
