"""Every span a benchmark workload expects is still called by the library.

The traced benchmark run (`ctxbench/run.py --trace 1`) fails when a span
in a workload's `expected_spans` records no call, for example when a
refactor stops calling `RangeMaxTable.pool_boxes` or hides `roi_align`
from the tracer behind a dispatch table built at import.  This test runs
each workload's own set-up and one round at toy size under the tracer,
each in a fresh process because the tracer patches the library in place.
It reads `ctxbench/` and changes nothing there.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Attributes set on the workload instance to shrink it.
TOY = {
    "ctxmine-pool-d256": {"D": 8},
    "train-align-d64": {"D": 4},
    "synth-train": {"n_scenes": 8, "epochs": 2},
}

SCRIPT = """
import json, sys
from pathlib import Path
root, name, toy, workdir = sys.argv[1], sys.argv[2], json.loads(sys.argv[3]), sys.argv[4]
sys.path[:0] = [root + "/src", root + "/ctxbench"]
import roictx, tracing, workloads
wl = workloads.WORKLOADS[name]
for attr, value in toy.items():
    setattr(wl, attr, value)
inputs = wl.make_inputs(7, Path(workdir))
tracer = tracing.Tracer()
tracing.install(roictx, tracer)
wl.run_round(inputs, wl.setup(inputs))
print(json.dumps({s: tracer.stats[s].calls if s in tracer.stats else 0
                  for s in wl.expected_spans}))
"""


def test_toy_sizes_cover_every_workload():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        names = {w["name"] for w in json.load(fh)["workloads"]}
    assert set(TOY) == names


@pytest.mark.parametrize("name", sorted(TOY))
def test_expected_spans_record_calls(tmp_path, name):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT), name, json.dumps(TOY[name]),
         str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout.strip().splitlines()[-1])
    assert calls, "workload lists no expected spans"
    assert [s for s, n in calls.items() if n == 0] == []
