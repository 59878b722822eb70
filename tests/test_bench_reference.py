"""The benchmark's reference pool rule agrees with the library's on the
benchmark's own inputs.

`ctxbench/checks.py` fails a map workload when a mined cell's pool size
or selected box differs from `ctxbench/reference.py`'s `candidate_pool`,
which restates the pool rule on corner coordinates.  The library decides
the IoU bound exactly and the edge bounds on a cell's sides, so the two
rules can differ on other cells: on a 40x40 map the cell (10, 10, 11, 11)
gets 109 candidates from the reference and 188 from the library.  This
test builds the two map workloads' inputs at a few seeds and compares
every cell's pool, box for box.  It reads `ctxbench/` and changes nothing
there.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from roictx.geometry import Box
from roictx.mining import DIRECTIONS, build_layout, candidate_pool_for_cell

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench():
    """ctxbench's reference and workloads modules."""
    sys.path.insert(0, str(ROOT / "ctxbench"))
    try:
        import reference
        import workloads
    finally:
        sys.path.remove(str(ROOT / "ctxbench"))
    return reference, workloads


@pytest.mark.parametrize("seed", [0, 1, 6000, 9300])
@pytest.mark.parametrize("name", ["ctxmine-pool-d256", "train-align-d64"])
def test_pools_equal_the_reference(bench, tmp_path, name, seed):
    ref, workloads = bench
    wl = workloads.WORKLOADS[name]
    inputs = wl.make_inputs(seed, tmp_path)
    bounds = (float(wl.W), float(wl.H))
    layout = build_layout(np.array(inputs.rois, dtype=np.float64))
    fallbacks = 0
    for roi, cells in zip(inputs.rois, layout):
        for direction, row in zip(DIRECTIONS, cells.tolist()):
            cell, anchor = ref.cell_geometry(tuple(roi), direction)
            assert cell == tuple(row)
            want = ref.candidate_pool(cell, anchor, *bounds)
            got = candidate_pool_for_cell(Box(*cell), inputs.config.grid,
                                          bounds)
            if want is None:
                fallbacks += 1
                assert got is None
            else:
                assert [(b.x1, b.y1, b.x2, b.y2) for b in got] == want
    # the pool workload's border object loses three cells per proposal
    assert fallbacks == (12 if name == "ctxmine-pool-d256" else 0)
