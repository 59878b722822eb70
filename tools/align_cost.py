"""Median per-call times of roi_align and roi_align_backward.

    python tools/align_cost.py [--src DIR] [--repeats N]

Imports the `roictx` package under DIR (by default the `src/` next to
this directory) and times one box per shape on a seeded float32 map, at
7 x 7 bins and 2 samples per bin, in both layouts roi_align gathers
differently: pixel-major (F.transpose(1, 2, 0) C-contiguous, the miner's
copy) and D-major.  The backward adds into an out= map, as the miner's
backward pass calls it.  Shapes: the benchmark's fixed ones, D=64 at
50x50 with a 6 px box and D=256 at 38x38 with a 9 px box, and whole-map
boxes, D=256 at 38x38 and at 200x200 and D=512 at 64x64.  Each line
gives the shape, the layout and the median microseconds per call of the
forward, of the miner's batched _roi_align_many on that one box ("-" on
a tree without it) and of the backward, over N timed calls after 3
untimed ones.  A last line times the 16 boxes that mining two 6 px RoIs keeps on a D=64
50x50 map, as a round of the benchmark's train-align-d64 does: a loop of
roi_align calls against one call of the miner's batched _roi_align_many
(pixel-major; "-" on a tree without it).  Run it on two source trees to
compare them.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# (label, D, H, W, box as x1, y1, x2, y2)
SHAPES = [("fixed", 64, 50, 50, (20.3, 17.6, 26.3, 23.6)),
          ("fixed", 256, 38, 38, (12.7, 14.2, 21.7, 23.2)),
          ("whole", 256, 38, 38, (0.0, 0.0, 38.0, 38.0)),
          ("whole", 256, 200, 200, (0.0, 0.0, 200.0, 200.0)),
          ("whole", 512, 64, 64, (0.0, 0.0, 64.0, 64.0))]
BINS, SAMPLES = 7, 2


def median_us(call, repeats: int) -> float:
    for _ in range(3):
        call()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        call()
        times.append(time.perf_counter_ns() - t0)
    return float(np.median(times)) / 1e3


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
    print(f"{'shape':<24} {'layout':<12} {'forward_us':>11} {'one_batched_us':>15}"
          f" {'backward_us':>12}")
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
            one = "-"
            if many is not None:
                us = median_us(lambda: many(G, [r], BINS, BINS, SAMPLES),
                               args.repeats)
                one = f"{us:.1f}"
            bwd = median_us(lambda: roi_align_backward(g, m, F.shape, out=out),
                            args.repeats)
            print(f"{label} D={D} {H}x{W}".ljust(24)
                  + f" {layout:<12} {fwd:>11.1f} {one:>15} {bwd:>12.1f}")

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
    return 0


if __name__ == "__main__":
    sys.exit(main())
