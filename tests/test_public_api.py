"""Every name ``crtrack`` exports resolves, so a stale entry in
``__all__`` fails here rather than at a user's ``from crtrack import *``;
and importing and running crtrack loads no scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import crtrack


def test_every_exported_name_resolves():
    missing = [name for name in crtrack.__all__ if not hasattr(crtrack, name)]
    assert missing == []


# Tracks a tiny sequence through the library and through `crtrack bench`
# with the combinatorial resampler, then lists the scipy modules loaded.
TRACK_WITHOUT_SCIPY = """
import json, sys
from pathlib import Path
import crtrack
from crtrack.cli import main
from crtrack.harness import SequenceSpec, simulate_sequence

fields = dict(arm_count=2, arm_length=1, frame_count=3, width=48, height=40,
              part_length=8.0, part_width=4.0)
model, frames, truth = simulate_sequence(SequenceSpec(**fields))
cfg = crtrack.TrackerConfig(particle_count=8, resampler="combinatorial")
assert crtrack.track_sequence(frames, truth[0], model, cfg, truth=truth).resample_invocations > 0
out = Path(sys.argv[1])
config = {"objects": [fields], "resamplers": ["combinatorial"], "particles": [6], "runs": 1}
(out / "bench.json").write_text(json.dumps(config))
assert main(["bench", "--config", str(out / "bench.json"), "--out", str(out / "r.csv")]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_tracking_runs_without_scipy(tmp_path):
    """scipy is a test and benchmark dependency only: tracking and the CLI
    never import it."""
    src = Path(crtrack.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", TRACK_WITHOUT_SCIPY, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(done.stdout.splitlines()[-1]) == []
