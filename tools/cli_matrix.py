"""Byte-identity matrix of the roictx command line: 57 output files.

    python tools/cli_matrix.py [--src DIR] [--out digests.json]

Runs the CLI in this process, from the `roictx` package under DIR (by
default the `src/` next to this directory), on seeded inputs in a
temporary directory, and writes one JSON object mapping each output
file's name to its sha256.  Run it on two source trees and diff the two
files: a change that keeps every CLI output byte-identical gives no diff.

The matrix:
  - ctxmine, FTEN output plus --report, on D=4, 64 and 256 maps, both
    backbones, with a random scorer and with the default zero scorer
    (24 files);
  - ctxmine, FTEN output plus --report, pool backbone, random scorer, on
    a D=4 map of values in {-1, -0.0, +0.0, 1}, whose ties RoI pooling
    and the range-max table break by different rules (2);
  - the same on a D=4 map whose left quarter is zero, like letterbox
    padding: whole pools tie there and pass the filter together (2);
  - variant, all five layouts on both backbones (10);
  - roipool and roialign (2);
  - synth-demo for none, neigh8 and mining at 80 scenes and 10 epochs (3);
  - gradcheck for all four operators (4);
  - enumerate on one border cell (1);
  - nms on scored random boxes, and anchors on a 3x4 grid (2);
  - attack, all four kinds on one image with three boxes (4);
  - attack --manifest, two entries of that image (2);
  - synth-demo for mining at lr 1.0, where the scorer takes large steps (1).

Every subcommand runs.  Inputs added later are drawn after the earlier
ones, so adding a case leaves the digests of the earlier ones unchanged.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# D -> (H, W) of the mined maps: the benchmark's two shapes plus a tiny one.
MAPS = {4: (40, 40), 64: (50, 50), 256: (38, 38)}
# x1,y1,x2,y2 as fractions of the map: interior, border and overhanging.
ROI_FRACS = [(0.26, 0.28, 0.47, 0.49), (0.01, 0.03, 0.18, 0.23),
             (0.75, 0.71, 0.99, 0.98), (0.38, 0.12, 0.63, 0.30),
             (0.08, 0.50, 0.32, 0.69), (-0.05, 0.40, 0.15, 0.62)]


def import_cli(src: Path):
    sys.path.insert(0, str(src))
    import roictx.cli
    got = Path(roictx.cli.__file__).resolve().parent
    if got != (src / "roictx").resolve():
        raise SystemExit(f"imported roictx from {got}, not {src}")
    return roictx.cli


def write_inputs(tmp: Path, save_ften) -> None:
    rng = np.random.default_rng(20261018)
    for d, (h, w) in MAPS.items():
        save_ften(tmp / f"F{d}.ften",
                  rng.normal(0.0, 1.0, (d, h, w)).astype(np.float32))
        save_ften(tmp / f"scorer{d}.ften",
                  rng.normal(0.0, 1.0, d * 49 + 1).astype(np.float32))
        with open(tmp / f"rois{d}.csv", "w", encoding="utf-8") as fh:
            for fx1, fy1, fx2, fy2 in ROI_FRACS:
                box = (fx1 * w, fy1 * h, fx2 * w, fy2 * h)
                fh.write(",".join(repr(round(v, 3)) for v in box) + "\n")
    h, w = MAPS[4]
    save_ften(tmp / "F4ties.ften",
              rng.choice(np.float32([-1.0, -0.0, 0.0, 1.0]), (4, h, w)))
    padded = rng.normal(0.0, 1.0, (4, h, w)).astype(np.float32)
    padded[:, :, :w // 4] = 0.0
    save_ften(tmp / "F4pad.ften", padded)
    with open(tmp / "scored.csv", "w", encoding="utf-8") as fh:
        for x1, y1, bw, bh, score in rng.uniform(0.0, 1.0, (30, 5)).tolist():
            box = (16 * x1, 16 * y1, 16 * x1 + 2 + 8 * bw, 16 * y1 + 2 + 8 * bh)
            fh.write(",".join(repr(round(v, 3)) for v in box + (score,)) + "\n")
    save_ften(tmp / "image.ften",
              rng.normal(0.0, 1.0, (3, 24, 32)).astype(np.float32))
    save_ften(tmp / "patch.ften",
              rng.normal(0.0, 1.0, (3, 5, 7)).astype(np.float32))
    with open(tmp / "gt.csv", "w", encoding="utf-8") as fh:
        fh.write("2.0,3.0,12.0,11.0\n17.5,6.25,29.0,20.75\n-3.0,15.0,7.0,26.0\n")
    entry = {"in": str(tmp / "image.ften"), "boxes": str(tmp / "gt.csv")}
    with open(tmp / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump([dict(entry, out=str(tmp / f"attack-manifest-{i}.ften"))
                   for i in range(2)], fh)


def commands(tmp: Path):
    """(output files, argv) of every run of the matrix."""
    def io_args(d, out):
        return ["--features", str(tmp / f"F{d}.ften"),
                "--rois", str(tmp / f"rois{d}.csv"), "--out", str(tmp / out)]

    for d in MAPS:
        for backbone in ("pool", "align"):
            for scorer in ("scorer", "zeros"):
                name = f"ctxmine-d{d}-{backbone}-{scorer}"
                argv = (["ctxmine", "--backbone", backbone,
                         "--report", str(tmp / f"{name}.json")]
                        + io_args(d, f"{name}.ften"))
                if scorer == "scorer":
                    argv += ["--scorer", str(tmp / f"scorer{d}.ften")]
                yield [f"{name}.ften", f"{name}.json"], argv
    for special in ("ties", "pad"):
        name = f"ctxmine-d4{special}-pool-scorer"
        yield [f"{name}.ften", f"{name}.json"], [
            "ctxmine", "--backbone", "pool",
            "--report", str(tmp / f"{name}.json"),
            "--scorer", str(tmp / "scorer4.ften"),
            "--features", str(tmp / f"F4{special}.ften"),
            "--rois", str(tmp / "rois4.csv"), "--out", str(tmp / f"{name}.ften")]
    for variant in ("none", "local", "global", "neigh4", "neigh8"):
        for backbone in ("pool", "align"):
            name = f"variant-{variant}-{backbone}.ften"
            yield [name], (["variant", "--variant", variant,
                            "--backbone", backbone] + io_args(64, name))
    for op in ("roipool", "roialign"):
        name = f"{op}.ften"
        yield [name], [op] + io_args(64, name)
    for variant in ("none", "neigh8", "mining"):
        name = f"synth-demo-{variant}.json"
        yield [name], ["synth-demo", "--variant", variant, "--seed", "3",
                       "--scenes", "80", "--epochs", "10",
                       "--out", str(tmp / name)]
    for op in ("roipool", "roialign", "ctxmine", "loss"):
        name = f"gradcheck-{op}.json"
        yield [name], ["gradcheck", "--op", op, "--seed", "5",
                       "--out", str(tmp / name)]
    yield ["enumerate.csv"], ["enumerate", "--cell", "-6", "3.5", "10", "17",
                              "--bounds", "40,40",
                              "--out", str(tmp / "enumerate.csv")]
    yield ["nms.csv"], ["nms", "--boxes", str(tmp / "scored.csv"),
                        "--iou-threshold", "0.3", "--out", str(tmp / "nms.csv")]
    yield ["anchors.csv"], ["anchors", "--height", "3", "--width", "4",
                            "--scales", "8,16", "--ratios", "0.5,1,2",
                            "--stride", "8", "--out", str(tmp / "anchors.csv")]
    for kind in ("black", "flip", "random", "adversarial"):
        name = f"attack-{kind}.ften"
        yield [name], ["attack", "--kind", kind, "--seed", "11",
                       "--in", str(tmp / "image.ften"),
                       "--boxes", str(tmp / "gt.csv"),
                       "--patch", str(tmp / "patch.ften"),
                       "--out", str(tmp / name)]
    yield ["attack-manifest-0.ften", "attack-manifest-1.ften"], [
        "attack", "--kind", "random", "--seed", "11",
        "--manifest", str(tmp / "manifest.json")]
    yield ["synth-demo-mining-lr1.json"], [
        "synth-demo", "--variant", "mining", "--seed", "7", "--scenes", "80",
        "--epochs", "10", "--lr", "1.0",
        "--out", str(tmp / "synth-demo-mining-lr1.json")]


def run_matrix(src: Path) -> dict:
    cli = import_cli(src)
    from roictx.tensor import save_ften

    digests = {}
    with tempfile.TemporaryDirectory() as td:
        tmp = Path(td)
        write_inputs(tmp, save_ften)
        for outputs, argv in commands(tmp):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise SystemExit(f"exit {code}: roictx {' '.join(argv)}")
            for name in outputs:
                digests[name] = hashlib.sha256(
                    (tmp / name).read_bytes()).hexdigest()
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
