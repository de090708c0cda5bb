"""Golden sha256 digests of the bundled demos' outputs at the default
parameters, of ``tapearm simulate`` on the replay-style scenario file
``golden/replay.json`` (2988 rows; three visits_target checks, a target_held
and a target), of two workspace grids (the default 80 000 cells, and 400 000
cells of which about 3 % are reachable), of the default moment-angle curve,
of the CSV of a log whose every row breaks three bounds, and of the stdout of
README's scalar commands (fk, ik, cables, theta-from-cables, stiffness), each
one that takes an angle also with the angle negated, and one fk under
``--angle-unit rad``.

A digest holds exact bytes, and float text and libm results may differ from
one platform to the next, so each platform has its own digests, keyed by
``sys.platform``, ``platform.machine()`` and ``platform.libc_ver()``. On a
platform with none recorded the test skips and names its key. To record this
platform's digests, or to update them after an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import pytest

from tapearm.cli import main
from tapearm.simulator import DEMOS, log_to_csv, run_scenario
from test_simulator import _outside_scenario

DIGESTS = Path(__file__).parent / "golden" / "digests.json"
REPLAY = Path(__file__).parent / "golden" / "replay.json"
KEY = "-".join((sys.platform, platform.machine(), *platform.libc_ver()))


# README's scalar examples, by digest name; a negated angle mirrors the pose,
# so ik's negated variant mirrors its point too
_SCALAR_COMMANDS = {
    "fk": ["fk", "0.432", "0.265", "16.7deg"],
    "fk-negated": ["fk", "0.432", "0.265", "-16.7deg"],
    "fk-rad": ["--angle-unit", "rad", "fk", "0.432", "0.265", "0.29"],
    "ik-theta": ["ik", "0.076", "0.686", "--theta", "10deg"],
    "ik-theta-negated": ["ik", "-0.076", "0.686", "--theta", "-10deg"],
    "ik-min-angle": ["ik", "0.3", "1.0"],
    "cables": ["cables", "0.5", "0.5", "30deg", "--d", "0.02"],
    "cables-negated": ["cables", "0.5", "0.5", "-30deg", "--d", "0.02"],
    "theta-from-cables": ["theta-from-cables", "1.0104", "0.9896", "--d", "0.02"],
    "theta-from-cables-negated": ["theta-from-cables", "0.9896", "1.0104", "--d", "0.02"],
    "stiffness-kappa": ["stiffness", "--kappa", "1.2"],
    "stiffness-theta-pinched": ["stiffness", "--theta", "10deg", "--model", "pinched"],
    "stiffness-theta-pinched-negated": ["stiffness", "--theta", "-10deg", "--model", "pinched"],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def current_digests(work: Path) -> dict:
    """The digest of each output, by name: each command's exit code and
    stdout (with ``work`` as <out>) and each file it writes under ``work``,
    and the all-violations log's CSV."""
    digests = {}
    commands = {name: ["demo", name] for name in DEMOS}
    commands["simulate-replay"] = ["simulate", str(REPLAY)]
    commands["workspace"] = ["workspace", "--resolution", "0.01"]
    commands["workspace-sparse"] = ["workspace", "--bounds", "-20", "20", "0", "1",
                                    "--resolution", "0.01"]
    commands["stiffness-curve"] = ["stiffness", "--curve", "0", "40", "81"]
    commands.update(_SCALAR_COMMANDS)
    for name, command in commands.items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["--out", str(work / name), *command])
        text = f"exit {code}\n" + stdout.getvalue().replace(str(work), "<out>")
        digests[f"{name}/stdout"] = _sha256(text.encode())
        for path in sorted((work / name).glob("*")):  # none for a scalar command
            digests[f"{name}/{path.name}"] = _sha256(path.read_bytes())
    log = run_scenario(_outside_scenario())
    assert log.rows.outside.all()
    csv = io.StringIO()
    log_to_csv(log, csv)
    digests["outside_log.csv"] = _sha256(csv.getvalue().encode())
    return digests


def test_outputs_keep_their_golden_digests(tmp_path):
    recorded = json.loads(DIGESTS.read_text())
    if KEY not in recorded:
        pytest.skip(f"no golden digests recorded for platform key {KEY!r} in {DIGESTS.name}")
    digests = current_digests(tmp_path)
    assert sorted(digests) == sorted(recorded[KEY])
    changed = [name for name in digests if digests[name] != recorded[KEY][name]]
    assert not changed, f"outputs whose bytes changed: {changed}"


if __name__ == "__main__":
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    with tempfile.TemporaryDirectory() as work:
        recorded[KEY] = current_digests(Path(work))
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(recorded[KEY])} digests for {KEY} to {DIGESTS}")
