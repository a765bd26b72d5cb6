"""The benchmark's inputs are pinned: ``perfbench/run.py --digests``
recomputes the input digest of every workload at the recorded seeds, and
they must equal ``input_digests`` in ``perfbench/seeds.json``.

A change to generation, to ``mode`` or to a ``FitConfig`` default (the
cross-table digest hashes ``repr(BenchConfig)``) fails here rather than
only at the benchmark's own gate.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_input_digests_match_seeds_json():
    done = subprocess.run(
        [sys.executable, "-B", "perfbench/run.py", "--digests"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    recorded = json.loads((ROOT / "perfbench" / "seeds.json").read_text(encoding="utf-8"))
    assert json.loads(done.stdout) == recorded["input_digests"]
