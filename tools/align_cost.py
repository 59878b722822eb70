"""Median per-call times of roi_align, roi_align_backward and the align
and pool filters of the miner.

    python tools/align_cost.py [--src DIR] [--repeats N]

Imports the `roictx` package under DIR (by default the `src/` next to
this directory) and times one box per shape on a seeded float32 map, at
7 x 7 bins and 2 samples per bin, in two layouts: pixel-major
(F.transpose(1, 2, 0) C-contiguous, the miner's copy) and D-major.  The
backward adds into an out= map, as the miner's backward pass calls it.
Every numeric library runs on one thread, as in the benchmark.
Shapes: the benchmark's fixed ones, D=64 at 50x50 with a 6 px box and
D=256 at 38x38 with a 9 px box, and whole-map boxes, D=256 at 38x38 and
at 200x200 and D=512 at 64x64.  Each line gives the shape, the layout
and the median microseconds per call of the forward and of the
backward, over N timed calls after 3 untimed ones.  A line then times
the 16 boxes that mining two 6 px RoIs keeps on a D=64 50x50 map, as a
round of the benchmark's train-align-d64 does: a loop of roi_align
calls against one call of the miner's batched _roi_align_many
(pixel-major; "-" on a tree without it).

The filter lines time the miner's align filter on one chunk, at shapes
off the benchmark: a lone 40 px RoI, 2 RoIs of 24 px and 16 spread RoIs
of 8 px on a D=64 100x100 map, 16 clustered RoIs of 9 px on a D=256
38x38 map and 4 RoIs of 12 px on a D=1024 50x75 map.  A call builds a
ContextMiner and runs its filter, ContextMiner._bounds, on the chunk's
candidates with the arguments mine_many passes it, so the G and A
planes are in the time whether a tree builds them per miner or per
chunk.  Each line gives the candidates, the filter's groups ("-" on a
tree without them) and the median microseconds.

The pool filter lines time the same call on the pool backbone, where
the miner's range-max table builds its levels inside the call: the 16
clustered RoIs of 9 px on a D=256 38x38 map above, and 32 RoIs of 12 px
on a post-ReLU D=1024 50x75 map, two chunks of mine_many, so a call
there builds one miner and runs the filter on each chunk.  Each pool
line gives the candidates and the median microseconds.  Every filter
line, align and pool, ends with the tracemalloc peak of one more call
in MiB, made untimed after the timed ones.

Every median is host-normalised, as the benchmark's times are.  The
calls are timed in blocks of BLOCK, with the `interp` kernel of
`ctxbench/hostspeed.py` timed before and after each block; each call's
time is divided by the mean of its block's two kernel times and
multiplied by the kernel's quiet reference time `REF_S["interp"]`, and
the median is taken over all calls.  The figures are thus microseconds
on the reference machine at quiet speed, so runs on two source trees,
minutes apart on a shared host, can be compared, and a burst of load
on the host moves only the blocks it overlaps.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import tracemalloc
from pathlib import Path

# Before numpy loads: one thread per numeric library, as the benchmark
# runs, so the filter's BLAS products are timed as a round runs them.
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "ctxbench"))

import hostspeed  # noqa: E402

# (label, D, H, W, box as x1, y1, x2, y2)
SHAPES = [("fixed", 64, 50, 50, (20.3, 17.6, 26.3, 23.6)),
          ("fixed", 256, 38, 38, (12.7, 14.2, 21.7, 23.2)),
          ("whole", 256, 38, 38, (0.0, 0.0, 38.0, 38.0)),
          ("whole", 256, 200, 200, (0.0, 0.0, 200.0, 200.0)),
          ("whole", 512, 64, 64, (0.0, 0.0, 64.0, 64.0))]
# (label, D, H, W, RoI side, RoI centres as (cx, cy))
FILTER_SHAPES = [
    ("lone 40px", 64, 100, 100, 40.0, [(50.3, 49.6)]),
    ("2 of 24px", 64, 100, 100, 24.0, [(30.2, 35.4), (68.9, 62.1)]),
    ("16 spread 8px", 64, 100, 100, 8.0,
     [(14.0 + 24.0 * i + 0.3 * j, 14.0 + 24.0 * j + 0.2 * i)
      for j in range(4) for i in range(4)]),
    ("16 clustered 9px", 256, 38, 38, 9.0,
     [(17.0 + 1.3 * (k % 4) + 0.1 * k, 17.5 + 1.1 * (k // 4) - 0.07 * k)
      for k in range(16)]),
    ("4 of 12px", 1024, 50, 75, 12.0,
     [(20.5, 17.25), (52.75, 18.5), (21.0, 33.5), (54.25, 32.75)])]
# (label, D, H, W, RoI side, RoI centres, post-ReLU map)
POOL_FILTER_SHAPES = [
    ("16 clustered 9px", 256, 38, 38, 9.0, FILTER_SHAPES[3][5], False),
    ("32 of 12px post-ReLU", 1024, 50, 75, 12.0,
     [(18.0 + 5.5 * i + 0.15 * j, 18.0 + 4.5 * j + 0.1 * i)
      for j in range(4) for i in range(8)], True)]
BINS, SAMPLES = 7, 2
BLOCK = 10


def median_us(call, repeats: int) -> float:
    """The host-normalised median microseconds of call (see above)."""
    for _ in range(3):
        call()
    times = []
    for start in range(0, repeats, BLOCK):
        before = hostspeed.sample("interp")
        block = []
        for _ in range(min(BLOCK, repeats - start)):
            t0 = time.perf_counter_ns()
            call()
            block.append(time.perf_counter_ns() - t0)
        scale = (hostspeed.REF_S["interp"] * 2
                 / (before + hostspeed.sample("interp")))
        times += [t * scale for t in block]
    return float(np.median(times)) / 1e3


def filter_call(mining, F, scorer, config, rois):
    """(candidates, groups, call): call builds a miner on F and runs its
    filter with the arguments mine_many gives it on rois, once per
    chunk."""
    seen = []
    real = mining.ContextMiner._bounds

    def capture(self, *args):
        seen.append(args)
        return real(self, *args)

    mining.ContextMiner._bounds = capture
    try:
        mining.mine_many(F, rois, scorer, config)
    finally:
        mining.ContextMiner._bounds = real

    def call():
        miner = mining.ContextMiner(F, scorer, config)
        for args in seen:
            miner._bounds(*args)

    groups = "-" if len(seen[0]) < 2 else sum(len(a[1]) for a in seen)
    return sum(a[0].shape[0] for a in seen), groups, call


def peak_mib(call) -> float:
    """The tracemalloc peak of one call, in MiB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory holding the roictx package")
    ap.add_argument("--repeats", type=int, default=101,
                    help="timed calls per shape, layout and pass")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src))
    from roictx import mining, roi_ops
    from roictx.geometry import Box
    from roictx.roi_ops import roi_align, roi_align_backward

    many = getattr(roi_ops, "_roi_align_many", None)
    rng = np.random.default_rng(20261020)
    print(f"{'shape':<24} {'layout':<12} {'forward_us':>11} {'backward_us':>12}")
    for label, D, H, W, box in SHAPES:
        F = rng.normal(0.0, 1.0, (D, H, W)).astype(np.float32)
        g = rng.normal(0.0, 1.0, (D, BINS, BINS)).astype(np.float32)
        out = np.zeros((D, H, W), dtype=np.float32)
        r = Box(*box)
        pixel = F.transpose(1, 2, 0).copy().transpose(2, 0, 1)
        for layout, G in (("pixel-major", pixel), ("D-major", F)):
            m = roi_align(G, r, BINS, BINS, SAMPLES)
            fwd = median_us(lambda: roi_align(G, r, BINS, BINS, SAMPLES),
                            args.repeats)
            bwd = median_us(lambda: roi_align_backward(g, m, F.shape, out=out),
                            args.repeats)
            print(f"{label} D={D} {H}x{W}".ljust(24)
                  + f" {layout:<12} {fwd:>11.1f} {bwd:>12.1f}")

    # a smoothed map, scorer and two RoIs like train-align-d64's
    F = rng.normal(0.0, 1.0, (64, 50, 50))
    F = ((F + np.roll(F, 1, axis=1) + np.roll(F, 1, axis=2)) / 3.0).astype(
        np.float32)
    scorer = mining.ContextScorer(
        rng.normal(0.0, 1.0, 64 * BINS * BINS).astype(np.float32), 0.5)
    config = mining.MiningConfig(ph=BINS, pw=BINS, backbone="align",
                                 samples_per_bin=SAMPLES)
    rois = [Box(10.0, 10.25, 16.0, 16.25), Box(33.875, 22.0, 39.875, 28.0)]
    boxes = [rec.box for m in mining.mine_many(F, rois, scorer, config)
             for rec in m.selected if not rec.fallback]
    pixel = F.transpose(1, 2, 0).copy().transpose(2, 0, 1)
    loop = median_us(lambda: [roi_align(pixel, b, BINS, BINS, SAMPLES)
                              for b in boxes], args.repeats)
    batched = "-"
    if many is not None:
        us = median_us(lambda: many(pixel, boxes, BINS, BINS, SAMPLES),
                       args.repeats)
        batched = f"{us:.1f}"
    print(f"kept {len(boxes)} D=64 50x50".ljust(24)
          + f" {'pixel-major':<12} loop_us {loop:.1f} batched_us {batched}")

    for label, D, H, W, side, centres in FILTER_SHAPES:
        F = rng.normal(0.0, 1.0, (D, H, W)).astype(np.float32)
        scorer = mining.ContextScorer(
            rng.normal(0.0, 1.0, D * BINS * BINS).astype(np.float32), 0.5)
        rois = [Box(cx - side / 2, cy - side / 2, cx + side / 2,
                    cy + side / 2) for cx, cy in centres]
        n, groups, call = filter_call(mining, F, scorer, config, rois)
        us = median_us(call, args.repeats)
        print(f"filter {label} D={D} {H}x{W}".ljust(36)
              + f" candidates {n} groups {groups} filter_us {us:.1f}"
              + f" peak_mib {peak_mib(call):.1f}")

    pool = mining.MiningConfig(ph=BINS, pw=BINS, backbone="pool")
    for label, D, H, W, side, centres, relu in POOL_FILTER_SHAPES:
        F = rng.normal(0.0, 1.0, (D, H, W)).astype(np.float32)
        if relu:
            F = np.maximum(F, 0.0)
        scorer = mining.ContextScorer(
            rng.normal(0.0, 1.0, D * BINS * BINS).astype(np.float32), 0.5)
        rois = [Box(cx - side / 2, cy - side / 2, cx + side / 2,
                    cy + side / 2) for cx, cy in centres]
        n, _, call = filter_call(mining, F, scorer, pool, rois)
        us = median_us(call, args.repeats)
        print(f"pool filter {label} D={D} {H}x{W}".ljust(48)
              + f" candidates {n} filter_us {us:.1f}"
              + f" peak_mib {peak_mib(call):.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
