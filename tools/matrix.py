"""Bit-identity matrix of roictx: 59 CLI outputs and 134 library digests.

    python tools/matrix.py [--src DIR] [--out digests.json]

Imports the `roictx` package under DIR (by default the `src/` next to
this directory), runs it on seeded inputs and writes one JSON object
mapping each output's name to its sha256.  Run it on two source trees
and diff the two files: a change that keeps every output bit-identical
gives no diff.  CLI names are output file names (ending in .ften, .json
or .csv); library names read <map>-<backbone>-<output>.

The CLI half runs the command line in this process, in a temporary
directory, and digests each output file's bytes:
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
  - gradcheck for all three operators (3);
  - enumerate on one border cell (1);
  - attack, all four kinds on one image with three boxes (4);
  - attack --manifest, two entries of that image (2);
  - synth-demo for mining at lr 1.0, where the scorer takes large steps (1);
  - enumerate on an interior cell, on a cell overhanging a corner, with
    non-default --min-iou and --short-edge-frac, and without --bounds (4);
  - enumerate on the unit square at the origin without --bounds: 188
    candidates when the edge bounds are read on the cell's sides, 109
    when read on corner differences (1).
Every subcommand runs.  Inputs added later are drawn after the earlier
ones, so adding a case leaves the digests of the earlier ones unchanged.

The library half reads what the command line never prints: the routing
records of the kept maps and the backward pass.  Its maps, each D=4 at
40x40 and mined on both backbones, are KINDS: f32 (float32 noise), ties
and pad (float32, as the CLI's two D=4 maps above) and f64 (float64
noise).  Per map and backbone, over the RoIs of ROI_FRACS, it digests
(dtype, shape and bytes of arrays, JSON of values):
  - mine_many and mine_context features;
  - each cell's (index, score, pool_size) and box;
  - the object and kept maps, with argmax (read only after all mining of
    the map) or samples;
  - fixed_context_variant for every variant;
  - mine_context_backward's map and scorer gradients for a seeded
    upstream gradient.
Then, after every map and backbone above (layout_case), for the f32 and
f64 maps:
  - roi_align's data and samples at samples_per_bin=3 on a pixel-major
    copy of the map, the layout the miner reads;
  - roi_align_backward of those maps, and align mine_context_backward,
    for an upstream gradient of +-1e-45 values, whose tiny sums cast to
    signed float32 zeros.
Last (chunk_case), mine_many over CHUNK_ROIS RoIs of one f32 map, on both
backbones: its features and each cell's (index, score, pool_size) (4).
Border RoIs hold fewer candidates than the grid's bound, so chunks of a
fixed number of RoIs and chunks packed up to CANDIDATE_BUDGET candidates
split the list at different places.
After it (relu_case), the outputs of lib_case on a post-ReLU f32 map,
max(N(0, 1), 0), on both backbones (22): zero maxima are common there, and
the pool miner keeps the rows holding them without pooling them again.
Last (align_contract_case), roi_align's data and roi_align_backward's
map, standalone and with out=, at 1-4 samples per bin on 1e30-magnitude
and subnormal f32 maps, for a whole-map and an overhanging box (12):
outputs that roi_align's precision contract bounds, not pins.
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

# D -> (H, W) of the CLI's mined maps: the benchmark's two shapes plus a
# tiny one, the library half's shape.
MAPS = {4: (40, 40), 64: (50, 50), 256: (38, 38)}
# x1,y1,x2,y2 as fractions of the map: interior, border and overhanging.
ROI_FRACS = [(0.26, 0.28, 0.47, 0.49), (0.01, 0.03, 0.18, 0.23),
             (0.75, 0.71, 0.99, 0.98), (0.38, 0.12, 0.63, 0.30),
             (0.08, 0.50, 0.32, 0.69), (-0.05, 0.40, 0.15, 0.62)]
KINDS = ("f32", "ties", "pad", "f64")
D, (H, W) = 4, MAPS[4]
CHUNK_ROIS = 48


def import_roictx(src: Path) -> None:
    """Import roictx, and its CLI, from src, and nowhere else."""
    sys.path.insert(0, str(src))
    import roictx.cli
    got = Path(roictx.__file__).resolve().parent
    if got != (src / "roictx").resolve():
        raise SystemExit(f"imported roictx from {got}, not {src}")


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
    save_ften(tmp / "F4ties.ften",
              rng.choice(np.float32([-1.0, -0.0, 0.0, 1.0]), (D, H, W)))
    padded = rng.normal(0.0, 1.0, (D, H, W)).astype(np.float32)
    padded[:, :, :W // 4] = 0.0
    save_ften(tmp / "F4pad.ften", padded)
    # drawn but unused, so every input drawn after it, and its digest,
    # stays comparable with older versions of this matrix
    rng.uniform(0.0, 1.0, (30, 5))
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
    """(output files, argv) of every CLI run of the matrix."""
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
    for op in ("roipool", "roialign", "ctxmine"):
        name = f"gradcheck-{op}.json"
        yield [name], ["gradcheck", "--op", op, "--seed", "5",
                       "--out", str(tmp / name)]
    yield ["enumerate.csv"], ["enumerate", "--cell", "-6", "3.5", "10", "17",
                              "--bounds", "40,40",
                              "--out", str(tmp / "enumerate.csv")]
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
    bounded = ["--bounds", "40,40"]
    for name, extra in (
            ("interior", ["--cell", "12.5,10.25,22.75,18.5"] + bounded),
            ("corner", ["--cell", "33.5", "34.25", "43.75", "42.5"] + bounded),
            ("options", ["--cell=-3.5,8.0,9.0,16.5", "--min-iou", "0.25",
                         "--short-edge-frac", "0.5"] + bounded),
            ("unbounded", ["--cell=-6.5,-2.25,4.75,7.0"])):
        out = f"enumerate-{name}.csv"
        yield [out], ["enumerate"] + extra + ["--out", str(tmp / out)]
    yield ["enumerate-unit.csv"], ["enumerate", "--cell", "0", "0", "1", "1",
                                   "--out", str(tmp / "enumerate-unit.csv")]


def cli_digests() -> dict:
    """sha256 of every CLI output file, by file name."""
    from roictx import cli
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


def make_map(kind: str, rng) -> np.ndarray:
    if kind == "ties":
        return rng.choice(np.float32([-1.0, -0.0, 0.0, 1.0]), (D, H, W))
    F = rng.normal(0.0, 1.0, (D, H, W))
    if kind == "pad":
        F[:, :, :W // 4] = 0.0
    if kind == "relu":
        F = np.maximum(F, 0.0)
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


def lib_case(kind: str, backbone: str, seed: int) -> dict:
    """Library digests of one map mined on one backbone."""
    from roictx import mining
    from roictx.geometry import Box
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


def layout_case(kind: str, seed: int) -> dict:
    """roi_align on a pixel-major copy of one map, and align backward
    passes of an upstream gradient of +-1e-45 values."""
    from roictx import mining, roi_ops
    from roictx.geometry import Box
    F = make_map(kind, np.random.default_rng(seed))
    pixel = F.transpose(1, 2, 0).copy().transpose(2, 0, 1)
    rng = np.random.default_rng([seed, 23])
    rois = [Box(fx1 * W, fy1 * H, fx2 * W, fy2 * H)
            for fx1, fy1, fx2, fy2 in ROI_FRACS]
    maps = [roi_ops.roi_align(pixel, r, 7, 7, 3) for r in rois]
    tiny = np.float32([-1e-45, 1e-45])
    roi_grads = [roi_ops.roi_align_backward(rng.choice(tiny, m.data.shape),
                                            m, F.shape) for m in maps]
    config = mining.MiningConfig(backbone="align")
    scorer = mining.ContextScorer(
        rng.normal(0.0, 1.0, D * 49).astype(np.float32), float(rng.normal()))
    grads = []
    for mined in mining.mine_many(F, rois, scorer, config):
        grad_F, (grad_w, grad_b) = mining.mine_context_backward(
            rng.choice(tiny, mined.feature.shape), mined, F.shape, scorer)
        grads += [grad_F, grad_w, np.float64(grad_b)]
    name = f"{kind}-align"
    return {f"{name}-pixel-major-data": digest(*(m.data for m in maps)),
            f"{name}-pixel-major-samples": digest(*(m.samples for m in maps)),
            f"{name}-tiny-roi-backward": digest(*roi_grads),
            f"{name}-tiny-mined-backward": digest(*grads)}


def chunk_inputs(seed: int):
    """The f32 map and the CHUNK_ROIS RoIs, 3 to 8 pixels a side anywhere
    on it, of chunk_case."""
    from roictx.geometry import Box
    rng = np.random.default_rng(seed)
    F = make_map("f32", rng)
    x1, y1 = rng.uniform(0.0, W - 3.0, (2, CHUNK_ROIS))
    w, h = rng.uniform(3.0, 8.0, (2, CHUNK_ROIS))
    rois = [Box(*map(float, box)) for box in zip(x1, y1, x1 + w, y1 + h)]
    return F, rois, rng


def chunk_case(seed: int) -> dict:
    """mine_many's features and records over many chunks of RoIs."""
    from roictx import mining
    F, rois, rng = chunk_inputs(seed)
    out = {}
    for backbone in ("pool", "align"):
        config = mining.MiningConfig(backbone=backbone)
        scorer = mining.ContextScorer(
            rng.normal(0.0, 1.0, D * config.ph * config.pw).astype(np.float32),
            float(rng.normal()))
        many = mining.mine_many(F, rois, scorer, config)
        out[f"chunks-{backbone}-mine_many"] = digest(*(m.feature for m in many))
        out[f"chunks-{backbone}-records"] = digest([
            [(rec.index, rec.score, rec.pool_size) for rec in m.selected]
            for m in many])
    return out


def relu_case(seed: int) -> dict:
    """lib_case's digests of a post-ReLU map, on both backbones."""
    return {**lib_case("relu", "pool", seed), **lib_case("relu", "align", seed)}


def align_contract_case(seed: int) -> dict:
    """roi_align's data, and roi_align_backward's map standalone and added
    with out= into a map of signed zeros and ones, on a 1e30-magnitude and
    a subnormal f32 map, for a whole-map and an overhanging box at 1-4
    samples per bin (12)."""
    from roictx import roi_ops
    from roictx.geometry import Box
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, 1.0, (2, D, H, W))
    maps = {"1e30": (noise[0] * 1e30).astype(np.float32),
            "subnormal": (noise[1] * 2.0 ** -135).astype(np.float32)}
    boxes = {"whole": Box(0.0, 0.0, W, H),
             "overhanging": Box(-6.5, 31.2, 12.3, 47.9)}
    out = {}
    for kind, F in maps.items():
        for where, r in boxes.items():
            data, alone, added = [], [], []
            for s in (1, 2, 3, 4):
                m = roi_ops.roi_align(F, r, 7, 7, s)
                g = rng.normal(0.0, 1.0, m.data.shape).astype(np.float32)
                into = rng.choice(np.float32([-0.0, 0.0, 1.0]), F.shape)
                data.append(m.data)
                alone.append(roi_ops.roi_align_backward(g, m, F.shape))
                added.append(roi_ops.roi_align_backward(g, m, F.shape,
                                                        out=into))
            name = f"contract-{kind}-{where}"
            out[f"{name}-data"] = digest(*data)
            out[f"{name}-backward"] = digest(*alone)
            out[f"{name}-backward-out"] = digest(*added)
    return out


def lib_digests() -> dict:
    """Every library digest but chunk_case's and relu_case's, by
    <map>-<backbone>-<output> name."""
    digests = {}
    for k, kind in enumerate(KINDS):
        for backbone in ("pool", "align"):
            digests.update(lib_case(kind, backbone, 20261019 + k))
    for kind in ("f32", "f64"):
        digests.update(layout_case(kind, 20261019 + KINDS.index(kind)))
    return digests


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory holding the roictx package")
    ap.add_argument("--out", help="JSON output path; standard output if absent")
    args = ap.parse_args(argv)
    import_roictx(args.src)
    digests = {**cli_digests(), **lib_digests(), **chunk_case(20261025),
               **relu_case(20261026), **align_contract_case(20261027)}
    text = json.dumps(digests, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
