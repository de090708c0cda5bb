"""Child process of the benchmark: one operation in a fresh interpreter.

    python child.py batch SPEC.json RESULT.json OUT_DIR
    python child.py trace SPEC.json RESULT.json OUT_DIR SPANS.npz SPAWN_NS

``batch`` imports tapearm, runs the seeded library batch described in SPEC
and writes its results, with the batch time measured after the import, to
RESULT. ``trace`` first installs the span tracer, then runs the operation in
SPEC in-process: a ``tapearm`` command line (``{"argv": [...]}``) through
``tapearm.cli.main``, or the same library batch (``{"batch": {...}}``). The
spans are written to SPANS when the operation has finished; SPAWN_NS is the
parent's ``perf_counter_ns`` just before it started this process, so
interpreter start-up is recorded too.
"""

import time

T_START = time.perf_counter_ns()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def run_batch(spec: dict, out_dir: Path) -> dict:
    """The api-batch workload: scalar library calls and many short runs."""
    import tapearm as ta
    from tapearm import planner, serialization, simulator

    params = ta.DEFAULT_PARAMS
    started = time.perf_counter()

    roundtrip = []
    for l1, l2, theta in spec["roundtrip"]:
        pose = ta.forward_kinematics(ta.JointState(l1, l2, theta), params)
        back = ta.ik_at_theta((pose.x, pose.y), pose.phi, params)
        roundtrip.append(None if back is None else max(abs(back.l1 - l1), abs(back.l2 - l2)))

    angles = [ta.min_end_effector_angle((x, y), params) for x, y in spec["points"]]

    enumerated = [[(s.l1, s.l2, s.theta)
                   for s in ta.ik_enumerate((x, y), params, spec["enumerate_count"])]
                  for x, y in spec["enumerate"]]

    fits = []
    for samples in spec["curves"]:
        try:
            model = ta.calibrate_unpinched(samples).model
        except ta.CalibrationError as exc:
            fits.append(str(exc))
            continue
        fits.append([model.peak_moment, model.peak_angle,
                     model.propagation_moment, model.decay_angle])

    runs = []
    pairs = []
    for index, entry in enumerate(spec["scenarios"]):
        waypoints = [ta.JointState(*w) for w in entry["waypoints"]]
        profile = ta.plan_trajectory(waypoints, params, dt=entry["dt"])
        first = waypoints[0]
        scenario = ta.Scenario(
            f"batch-{index}", params,
            simulator.initial_state(planner.control_from_state(first), first.theta, params),
            profile, entry["dt"], tuple(entry["checks"]))
        path = out_dir / f"scenario-{index}.json"
        serialization.save_scenario(scenario, path)
        loaded = serialization.load_scenario(path)
        log = ta.run_scenario(loaded)
        pairs.append((scenario, loaded))
        runs.append({"rows": len(log.rows),
                     "failed_checks": [c.check for c in log.checks if not c.passed],
                     "final": [log.final.x, log.final.y, log.final.theta]})

    batch_s = time.perf_counter() - started
    for run, (scenario, loaded) in zip(runs, pairs):
        run["roundtrip_equal"] = scenario == loaded
    return {"batch_s": batch_s, "roundtrip": roundtrip, "angles": angles,
            "enumerated": enumerated, "fits": fits, "scenarios": runs}


def main(argv) -> int:
    mode, spec_path, result_path, out_dir = argv[:4]
    spec = json.loads(Path(spec_path).read_text())
    out_dir = Path(out_dir)
    if mode == "batch":
        Path(result_path).write_text(json.dumps(run_batch(spec["batch"], out_dir)))
        return 0

    from tracing import ImportTimer, Tracer, install

    tracer = Tracer()
    tracer.record("cli.startup", int(argv[5]), T_START)
    tracer.record("trace.harness", T_START, time.perf_counter_ns())
    timer = ImportTimer(tracer)
    sys.meta_path.insert(0, timer)
    if "argv" in spec:
        import tapearm.cli
    else:
        import tapearm.serialization  # noqa: F401
    sys.meta_path.remove(timer)
    index = tracer.open("trace.install")
    install(tracer)
    tracer.close(index)
    if "argv" in spec:
        code = tapearm.cli.main(spec["argv"])
    else:
        code = 0
        result = run_batch(spec["batch"], out_dir)
        index = tracer.open("trace.write")
        Path(result_path).write_text(json.dumps(result))
        tracer.close(index)
    sys.stdout.flush()
    tracer.dump(argv[4])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
