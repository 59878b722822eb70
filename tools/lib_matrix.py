"""Bit-identity matrix of the roictx mining library: one digest per output.

    python tools/lib_matrix.py [--src DIR] [--out digests.json]

Imports the `roictx` package under DIR (by default the `src/` next to
this directory), mines seeded maps through the library and writes one
JSON object mapping each output's name to the sha256 of its bytes.  Run
it on two source trees and diff the two files: a change that keeps every
library output bit-identical gives no diff.  It is the library-level
twin of tools/cli_matrix.py, and it reads what the command line never
prints: the routing records of the kept maps and the backward pass.

The maps, each D=4 at 40x40 and mined on both backbones:
  - f32: float32 noise;
  - ties: float32 values in {-1, -0.0, +0.0, 1}, whose zero maxima and
    ties RoI pooling and the range-max table break by different rules;
  - pad: float32 noise whose left quarter is zero, like letterbox
    padding, so whole pools tie;
  - f64: float64 noise.

Per map and backbone, over six interior, border and overhanging RoIs:
  - mine_many and mine_context features;
  - each cell's (index, score, pool_size) and box;
  - the object and kept maps, with argmax (read only after all mining of
    the map) or samples;
  - fixed_context_variant for every variant;
  - mine_context_backward's map and scorer gradients for a seeded
    upstream gradient.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

D, H, W = 4, 40, 40
# x1,y1,x2,y2 as fractions of the map: interior, border and overhanging.
ROI_FRACS = [(0.26, 0.28, 0.47, 0.49), (0.01, 0.03, 0.18, 0.23),
             (0.75, 0.71, 0.99, 0.98), (0.38, 0.12, 0.63, 0.30),
             (0.08, 0.50, 0.32, 0.69), (-0.05, 0.40, 0.15, 0.62)]
MAPS = ("f32", "ties", "pad", "f64")


def import_lib(src: Path):
    sys.path.insert(0, str(src))
    import roictx
    got = Path(roictx.__file__).resolve().parent
    if got != (src / "roictx").resolve():
        raise SystemExit(f"imported roictx from {got}, not {src}")
    return roictx


def make_map(kind: str, rng) -> np.ndarray:
    if kind == "ties":
        return rng.choice(np.float32([-1.0, -0.0, 0.0, 1.0]), (D, H, W))
    F = rng.normal(0.0, 1.0, (D, H, W))
    if kind == "pad":
        F[:, :, :W // 4] = 0.0
    return F if kind == "f64" else F.astype(np.float32)


def digest(*parts) -> str:
    """sha256 over arrays (dtype, shape and bytes) and JSON-able values."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part).encode())
    return h.hexdigest()


def run_case(roictx, kind: str, backbone: str, seed: int) -> dict:
    """Digests of one map mined on one backbone."""
    from roictx.geometry import Box
    mining = roictx.mining
    rng = np.random.default_rng(seed)
    F = make_map(kind, rng)
    config = mining.MiningConfig(backbone=backbone)
    n = D * config.ph * config.pw
    scorer = mining.ContextScorer(rng.normal(0.0, 1.0, n).astype(np.float32),
                                  float(rng.normal()))
    rois = [Box(fx1 * W, fy1 * H, fx2 * W, fy2 * H)
            for fx1, fy1, fx2, fy2 in ROI_FRACS]
    many = mining.mine_many(F, rois, scorer, config)
    single = [mining.mine_context(F, r, scorer, config) for r in rois]
    upstream = rng.normal(0.0, 1.0, (len(rois), 9 * D, config.ph, config.pw))

    name = f"{kind}-{backbone}"
    out = {
        f"{name}-mine_many": digest(*(m.feature for m in many)),
        f"{name}-mine_context": digest(*(m.feature for m in single)),
        f"{name}-records": digest([
            [(rec.index, rec.score, rec.pool_size,
              None if rec.box is None else
              [rec.box.x1, rec.box.y1, rec.box.x2, rec.box.y2])
             for rec in m.selected] for m in many]),
    }
    maps = [m for mined in many for m in [mined.object_map] + [
        rec.roi_map for rec in mined.selected if not rec.fallback]]
    routing = "argmax" if backbone == "pool" else "samples"
    out[f"{name}-kept-data"] = digest(*(m.data for m in maps))
    out[f"{name}-kept-{routing}"] = digest(*(getattr(m, routing) for m in maps))
    for variant in mining.VARIANTS:
        out[f"{name}-variant-{variant}"] = digest(*(
            mining.fixed_context_variant(F, r, variant, config) for r in rois))
    grads = []
    for mined, g in zip(many, upstream.astype(np.float32)):
        grad_F, (grad_w, grad_b) = mining.mine_context_backward(
            g, mined, F.shape, scorer)
        grads += [grad_F, grad_w, np.float64(grad_b)]
    out[f"{name}-backward"] = digest(*grads)
    return out


def run_matrix(src: Path) -> dict:
    roictx = import_lib(src)
    digests = {}
    for k, kind in enumerate(MAPS):
        for backbone in ("pool", "align"):
            digests.update(run_case(roictx, kind, backbone, 20261019 + k))
    return digests


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory holding the roictx package")
    ap.add_argument("--out", help="JSON output path; standard output if absent")
    args = ap.parse_args(argv)
    text = json.dumps(run_matrix(args.src), indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
