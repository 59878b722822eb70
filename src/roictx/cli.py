"""Command-line front end.

Three file formats total: FTEN for tensors, the RoI CSV for box lists,
and JSON for structured reports.  Identical invocations on identical
inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from . import attacks, gradcheck as gc, mining, synth
from .errors import FormatError, RoictxError, ShapeError
from .geometry import Box, load_roi_csv, save_roi_csv
from .tensor import load_ften, save_ften


def _boxes(path) -> list[Box]:
    return [row[0] for row in load_roi_csv(path)]


def _parse_floats(text, n, what):
    parts = [p for p in text.split(",") if p != ""]
    if len(parts) != n:
        raise FormatError(f"{what} needs {n} comma-separated values, got {len(parts)}")
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise FormatError(f"{what}: non-numeric value in {text!r}") from exc
    if not np.isfinite(vals).all():
        raise FormatError(f"{what}: non-finite value in {text!r}")
    return vals


def _finite_float(text: str) -> float:
    """argparse type of the float options: nan and inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"non-finite value: {text!r}")
    return value


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_scorer(path, d, ph, pw) -> mining.ContextScorer:
    """Scorer vector format: rank-1 FTEN of length D*ph*pw + 1, bias last."""
    if path is None:
        return mining.ContextScorer.zeros(d, ph, pw)
    vec = load_ften(path)
    if vec.ndim != 1 or vec.shape[0] != d * ph * pw + 1:
        raise ShapeError(
            f"scorer vector must have length D*ph*pw+1 = {d * ph * pw + 1}, "
            f"got shape {vec.shape}")
    return mining.ContextScorer(vec[:-1].copy(), float(vec[-1]))


def _config(args, **extra) -> mining.MiningConfig:
    return mining.MiningConfig(ph=args.ph, pw=args.pw, backbone=args.backbone,
                               samples_per_bin=args.samples, **extra)


def _cmd_roi_op(args) -> int:
    F = load_ften(args.features)
    mining._require_finite(F)
    config = _config(args)
    maps = [mining.roi_map(F, r, config).data for r in _boxes(args.rois)]
    save_ften(args.out, np.stack(maps))
    return 0


def _cmd_ctxmine(args) -> int:
    config = _config(args)
    F = load_ften(args.features)
    boxes = _boxes(args.rois)
    scorer = _load_scorer(args.scorer, F.shape[0], args.ph, args.pw)
    mined = mining.mine_many(F, boxes, scorer, config)
    save_ften(args.out, np.stack([m.feature for m in mined]))
    if args.report:
        _write_json(args.report, [mining.mined_to_record(m) for m in mined])
    return 0


def _cmd_variant(args) -> int:
    config = _config(args, local_scale=args.local_scale)
    F = load_ften(args.features)
    feats = [mining.fixed_context_variant(F, r, args.variant, config)
             for r in _boxes(args.rois)]
    save_ften(args.out, np.stack(feats))
    return 0


def _cmd_enumerate(args) -> int:
    cell = Box(*_parse_floats(",".join(args.cell), 4, "--cell"))
    bounds = (None if args.bounds is None
              else tuple(_parse_floats(args.bounds, 2, "--bounds")))
    grid = mining.CandidateGridSpec(anchor_iou_min=args.min_iou,
                                    short_edge_frac=args.short_edge_frac)
    pool = mining.candidate_pool_for_cell(cell, grid, bounds)
    if pool is None:
        print("error: cell anchor falls outside the bounds (empty pool)",
              file=sys.stderr)
        return 1
    save_roi_csv(args.out, pool)
    print(f"pool_size={len(pool)}")
    return 0


def _check_manifest(path, entries) -> None:
    """Every entry must be an object naming its in, boxes and out files,
    each a string: a number would name a file descriptor."""
    if not isinstance(entries, list):
        raise FormatError(f"{path}: manifest must be a JSON list of "
                          f"{{in, boxes, out}} objects")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise FormatError(f"{path}: entry {i} is not a JSON object")
        bad = [k for k in ("in", "boxes", "out")
               if not isinstance(entry.get(k), str)]
        if bad:
            raise FormatError(f"{path}: entry {i} lacks a string "
                              f"{', '.join(bad)}")


def _cmd_attack(args) -> int:
    patch = load_ften(args.patch) if args.patch else None
    if args.manifest:
        with open(args.manifest, "r", encoding="utf-8") as fh:
            entries = json.load(fh)
        _check_manifest(args.manifest, entries)
        root = attacks.SplitMix64(args.seed)
        for i, entry in enumerate(entries):
            image = load_ften(entry["in"])
            boxes = _boxes(entry["boxes"])
            seed_i = root.split(i).next_u64()
            save_ften(entry["out"],
                      attacks.apply_patches(image, boxes, args.kind, seed_i, patch))
        return 0
    if not (args.infile and args.out and args.boxes):
        raise FormatError("attack needs --in/--boxes/--out (or --manifest)")
    image = load_ften(args.infile)
    boxes = _boxes(args.boxes)
    save_ften(args.out,
              attacks.apply_patches(image, boxes, args.kind, args.seed, patch))
    return 0


def _gradcheck_instance(op: str, seed: int):
    """Seeded random instance of one differentiable operator: returns
    (f, x, analytic_grad), f giving a weighted sum of the operator's
    output and the routing record of that forward (see gradcheck)."""
    rng = np.random.default_rng([seed, 0x6d5a])
    if op in ("roipool", "roialign"):
        pool = op == "roipool"
        F = rng.normal(0.0, 3.0, (2, 12, 12)).astype(np.float32)
        r = Box(1.3, 2.1, 9.6, 10.2) if pool else Box(1.7, 0.9, 10.4, 9.8)
        config = mining.MiningConfig(ph=5, pw=5,
                                     backbone="pool" if pool else "align")
        w = rng.normal(0.0, 1.0, (2, 5, 5)).astype(np.float32)
        grad = mining._backward_one(w, mining.roi_map(F, r, config), F.shape)

        def f(x):
            m = mining.roi_map(x, r, config)
            return (float((w.astype(np.float64) * m.data).sum()),
                    m.argmax.tobytes() if pool else None)

        return f, F, grad
    if op == "ctxmine":
        F = rng.normal(0.0, 3.0, (2, 24, 24)).astype(np.float32)
        r = Box(9.2, 8.7, 14.9, 15.3)
        config = mining.MiningConfig(ph=3, pw=3)
        scorer = mining.ContextScorer(
            rng.normal(0.0, 1.0, 2 * 9).astype(np.float32), 0.1)
        w = rng.normal(0.0, 1.0, (18, 3, 3)).astype(np.float32)
        mined = mining.mine_context(F, r, scorer, config)
        grad, _ = mining.mine_context_backward(w, mined, F.shape, scorer)

        def f(x):
            m = mining.mine_context(x, r, scorer, config)
            maps = mining._block_maps(m.object_map, m.selected)
            return (float((w.astype(np.float64) * m.feature).sum()),
                    ([rec.index for rec in m.selected],
                     [b.argmax.tobytes() for b in maps]))

        return f, F, grad
    raise FormatError(f"unknown gradcheck op {op!r}")


def _cmd_gradcheck(args) -> int:
    f, x, grad = _gradcheck_instance(args.op, args.seed)
    report = gc.check(f, x, grad, h=args.h, probes=args.probes,
                      seed=args.seed)
    _write_json(args.out, asdict(report) | {"op": args.op, "seed": args.seed})
    return 0


def _cmd_synth_demo(args) -> int:
    scenes = synth.generate(args.seed, args.scenes)
    result = synth.train_head(scenes, args.variant, epochs=args.epochs,
                              lr=args.lr, seed=args.seed)
    _write_json(args.out, {
        "variant": args.variant,
        "seed": args.seed,
        "scenes": args.scenes,
        "epochs": args.epochs,
        "lr": args.lr,
        "accuracy": result.accuracy,
        "overlap_rate": result.overlap_rate,
        "loss_trace": result.trace,
    })
    return 0


def _add_io(sp):
    sp.add_argument("--features", required=True, help="input FTEN feature map")
    sp.add_argument("--rois", required=True, help="RoI CSV file")
    sp.add_argument("--out", required=True, help="output FTEN path")
    sp.add_argument("--ph", type=int, default=7)
    sp.add_argument("--pw", type=int, default=7)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roictx",
        description="Context-mining RoI operators: pooling, mining, attacks, "
                    "and the synthetic demo.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("roipool", help="max-pool RoIs to fixed grids")
    _add_io(sp)
    sp.set_defaults(func=_cmd_roi_op, backbone="pool", samples=2)

    sp = sub.add_parser("roialign", help="bilinear-sample RoIs to fixed grids")
    _add_io(sp)
    sp.add_argument("--samples", type=int, default=2)
    sp.set_defaults(func=_cmd_roi_op, backbone="align")

    sp = sub.add_parser("ctxmine", help="mine 8 surrounding context RoIs per RoI")
    _add_io(sp)
    sp.add_argument("--scorer", help="FTEN scorer vector (D*ph*pw weights + bias);"
                                     " defaults to zeros, which selects every"
                                     " cell's anchor by the tie rule")
    sp.add_argument("--backbone", choices=("pool", "align"), default="pool")
    sp.add_argument("--samples", type=int, default=2)
    sp.add_argument("--report", help="optional JSON selection report")
    sp.set_defaults(func=_cmd_ctxmine)

    sp = sub.add_parser("variant", help="fixed context layouts for comparison")
    _add_io(sp)
    sp.add_argument("--variant", choices=mining.VARIANTS, required=True)
    sp.add_argument("--backbone", choices=("pool", "align"), default="pool")
    sp.add_argument("--samples", type=int, default=2)
    sp.add_argument("--local-scale", type=_finite_float, default=1.5)
    sp.set_defaults(func=_cmd_variant)

    sp = sub.add_parser("enumerate", help="list one cell's candidate pool")
    sp.add_argument("--cell", required=True, nargs="+",
                    help="x1,y1,x2,y2 or x1 y1 x2 y2; a comma list that"
                         " starts with '-' needs the --cell=-20,-20,-10,-12"
                         " form")
    sp.add_argument("--bounds", help="map bounds W,H (candidates clipped)")
    sp.add_argument("--min-iou", type=_finite_float, default=0.3)
    sp.add_argument("--short-edge-frac", type=_finite_float, default=1.0 / 3.0)
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.set_defaults(func=_cmd_enumerate)

    sp = sub.add_parser("attack", help="apply center patches to images")
    sp.add_argument("--kind", choices=attacks.KINDS, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--boxes", help="RoI CSV of ground-truth boxes")
    sp.add_argument("--in", dest="infile", help="input FTEN image")
    sp.add_argument("--out", help="output FTEN image")
    sp.add_argument("--patch", help="FTEN patch tensor for kind=adversarial")
    sp.add_argument("--manifest", help="JSON list of {in, boxes, out} entries")
    sp.set_defaults(func=_cmd_attack)

    sp = sub.add_parser("gradcheck", help="finite-difference check an operator")
    sp.add_argument("--op", choices=("roipool", "roialign", "ctxmine"),
                    required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--h", type=_finite_float, default=1e-2)
    sp.add_argument("--probes", type=int, default=150)
    sp.add_argument("--out", required=True, help="JSON report path")
    sp.set_defaults(func=_cmd_gradcheck)

    sp = sub.add_parser("synth-demo", help="train on the synthetic context task")
    sp.add_argument("--variant", choices=synth.TRAIN_VARIANTS, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--epochs", type=int, default=30)
    sp.add_argument("--scenes", type=int, default=300)
    sp.add_argument("--lr", type=_finite_float, default=0.05)
    sp.add_argument("--out", required=True, help="JSON report path")
    sp.set_defaults(func=_cmd_synth_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RoictxError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
