"""Set-up probe, run in a fresh interpreter by run.py: import unifit, then
make one fit per family, the first fits paying any lazy initialization.

run.py passes its ``time.perf_counter()`` reading from just before the
spawn (a system-wide monotonic clock on Linux) and puts ``src`` on the
PYTHONPATH.  The probe prints one JSON line: the set-up time from that
reading to the end of the last fit, and the times of reference work run
right after it in this same process, which scale the set-up time to
reference speed.
"""

import json
import sys
import time

from unifit import KIND_ORDER, CurveModel, FitConfig, ModelKind, ShapeParams, fit, sample_series

series = sample_series(CurveModel(ShapeParams(ModelKind.MAXENT, (0.3, 0.5)), 1.0), 101)
for kind in KIND_ORDER:
    fit(series, kind, FitConfig(seed=0))
setup_s = time.perf_counter() - float(sys.argv[1])

from calibrate import Reference  # noqa: E402  (after the timed set-up)

ref = Reference()
for _ in range(int(sys.argv[2])):
    ref.sample()
print(json.dumps({"setup_s": setup_s, "reference_samples_s": ref.samples}))
