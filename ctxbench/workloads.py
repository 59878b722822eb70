"""The three workloads: seeded inputs, set-up, and one round of work.

Every round of a workload repeats the same operations on the same
inputs, so two runs of one seed differ only in how many rounds fit in
the measured time.  Library calls go through module attributes at call
time (`roictx.mining.mine_many`, not a name bound at import), so the
traced run sees them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import roictx

import checks


def save_ften(path, arr) -> None:
    """FTEN v1: an ASCII header line, then little-endian float32 data."""
    arr = np.ascontiguousarray(arr, dtype="<f4")
    header = f"FTEN {arr.ndim} " + " ".join(str(d) for d in arr.shape) + "\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(arr.tobytes())


def save_boxes(path, boxes) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for box in boxes:
            fh.write(",".join(repr(float(v)) for v in box) + "\n")


def _proposals(rng, centre, n, along=None):
    """n proposals around one object centre, as RPN proposals cluster: the
    centre moved by N(0, 0.45 px) (5% of a 9 px object), along one axis
    only when `along` is 0 (x) or 1 (y), then rounded to 1/8 px; width
    and height each one of 8.25, 9 and 9.75 px.  With these sizes and
    steps every proposal's candidate arithmetic is exact, so the pool
    sizes do not move from seed to seed."""
    out = []
    for _ in range(n):
        shift = rng.normal(0.0, 0.45, size=2)
        if along is not None:
            shift[1 - along] = 0.0
        cx, cy = (np.round((np.asarray(centre) + shift) * 8.0) / 8.0).tolist()
        bw, bh = (float(v) for v in rng.choice(PROPOSAL_SIZES, size=2))
        out.append((cx - 0.5 * bw, cy - 0.5 * bh, cx + 0.5 * bw, cy + 0.5 * bh))
    return out


PROPOSAL_SIZES = (8.25, 9.0, 9.75)


@dataclass
class MapInputs:
    ften: str
    rois_csv: str
    scorer: object
    config: object
    rois: list                 # the boxes as written, for the checks
    upstream: list | None = None


@dataclass
class MapState:
    F: np.ndarray
    rois: list


class _MapWorkload:
    """Shared set-up of the two workloads that mine RoIs on one map."""

    def setup(self, inputs: MapInputs) -> MapState:
        """Read the map and the RoIs, then mine one warm-up RoI."""
        F = roictx.tensor.load_ften(inputs.ften)
        rois = [row[0] for row in roictx.geometry.load_roi_csv(inputs.rois_csv)]
        roictx.mining.mine_context(F, rois[0], inputs.scorer, inputs.config)
        return MapState(F, rois)

    @staticmethod
    def _scorer(rng, d, ph, pw):
        weights = rng.standard_normal(d * ph * pw).astype(np.float32)
        return roictx.mining.ContextScorer(weights, float(rng.normal()))


class PoolD256(_MapWorkload):
    name = "ctxmine-pool-d256"
    kernel = "memory"
    D, H, W = 256, 38, 38
    n_objects, rois_per_object = 4, 4
    ops_per_round = n_objects * rois_per_object
    expected_spans = (
        "tensor.load_ften", "geometry.load_roi_csv", "mining.mine_many",
        "mining.mine_context", "mining.ContextMiner.mine", "mining.build_layout",
        "mining.enumerate", "mining.ContextScorer.score_flat",
        "roi_ops.RangeMaxTable.build", "roi_ops.RangeMaxTable.pool_xyxy",
        "roi_ops.RangeMaxTable.query", "roi_ops.roi_pool",
        "tensor.concat_channels")

    def make_inputs(self, seed, workdir) -> MapInputs:
        """A noisy D=256 map with four overlapping 9 px objects near its
        centre; object 0 sits 0.25-0.5 px from a seeded border, and its
        proposals move along that border only, so each loses three
        context cells.  Proposals cluster around the objects
        (`_proposals`), and every round has the same candidate count
        whatever the seed."""
        rng = np.random.default_rng([seed, 0x9001])
        D, H, W = self.D, self.H, self.W
        F = (0.5 * rng.standard_normal((D, H, W))).astype(np.float32)
        s = 9.0
        rois = []
        for k in range(self.n_objects):
            cx, cy = rng.uniform(16.5, 21.5, size=2)
            along = None
            if k == 0:
                side = int(rng.integers(4))
                gap = rng.uniform(0.25, 0.5)
                if side == 0:
                    cx = gap + 0.5 * s
                elif side == 1:
                    cx = W - gap - 0.5 * s
                elif side == 2:
                    cy = gap + 0.5 * s
                else:
                    cy = H - gap - 0.5 * s
                along = 1 if side < 2 else 0
            x1, y1 = cx - 0.5 * s, cy - 0.5 * s
            ya, yb = int(np.floor(y1)), int(np.ceil(y1 + s))
            xa, xb = int(np.floor(x1)), int(np.ceil(x1 + s))
            F[:, ya:yb, xa:xb] += rng.standard_normal((D, 1, 1)).astype(np.float32)
            rois.extend(_proposals(rng, (cx, cy), self.rois_per_object, along))
        config = roictx.mining.MiningConfig(ph=7, pw=7, backbone="pool")
        scorer = self._scorer(rng, D, 7, 7)
        ften, csv = str(workdir / "map.ften"), str(workdir / "rois.csv")
        save_ften(ften, F)
        save_boxes(csv, rois)
        return MapInputs(ften, csv, scorer, config, rois)

    def run_round(self, inputs, state):
        return roictx.mining.mine_many(state.F, state.rois, inputs.scorer,
                                       inputs.config)

    @staticmethod
    def fingerprint(out):
        return [[(rec.index, rec.score) for rec in m.selected] for m in out]

    def check(self, inputs, state, out):
        return checks.check_pool(state.F, inputs.rois, state.rois, out,
                                 inputs.scorer, self.ops_per_round)


class AlignD64(_MapWorkload):
    name = "train-align-d64"
    kernel = "interp"
    D, H, W = 64, 50, 50
    n_rois = 2
    ops_per_round = n_rois
    expected_spans = (
        "tensor.load_ften", "geometry.load_roi_csv", "mining.mine_many",
        "mining.mine_context", "mining.ContextMiner.mine", "mining.build_layout",
        "mining.enumerate", "mining.ContextScorer.score_flat",
        "roi_ops.roi_align", "mining.mine_context_backward",
        "roi_ops.roi_align_backward", "tensor.concat_channels")

    def make_inputs(self, seed, workdir) -> MapInputs:
        """A smooth D=64 map and 2 RoIs of 6x6 px on 2 of the 9 points of a
        3x3 lattice, so they do not overlap and every context grid stays
        inside the map.  Positions move in 1/8 px steps: with these sizes
        the candidate arithmetic is exact, so every cell keeps the same
        pool and a round costs the same whatever the seed."""
        rng = np.random.default_rng([seed, 0xa119])
        D, H, W = self.D, self.H, self.W
        F = rng.standard_normal((D, H, W))
        F = (F + np.roll(F, 1, axis=1) + np.roll(F, 1, axis=2)) / 3.0
        F = F.astype(np.float32)
        lattice = [(cx, cy) for cy in (13.0, 25.0, 37.0) for cx in (13.0, 25.0, 37.0)]
        keep = rng.permutation(len(lattice))[:self.n_rois]
        rois = []
        for k in sorted(keep):
            cx, cy = lattice[k] + rng.integers(-8, 9, size=2) / 8.0
            rois.append((cx - 3.0, cy - 3.0, cx + 3.0, cy + 3.0))
        config = roictx.mining.MiningConfig(ph=7, pw=7, backbone="align",
                                            samples_per_bin=2)
        scorer = self._scorer(rng, D, 7, 7)
        upstream = [rng.standard_normal((9 * D, 7, 7)).astype(np.float32)
                    for _ in rois]
        ften, csv = str(workdir / "map.ften"), str(workdir / "rois.csv")
        save_ften(ften, F)
        save_boxes(csv, rois)
        return MapInputs(ften, csv, scorer, config, rois, upstream)

    def run_round(self, inputs, state):
        """Forward through mine_many, then backward for each RoI."""
        mining = roictx.mining
        mined = mining.mine_many(state.F, state.rois, inputs.scorer,
                                 inputs.config)
        grads = [mining.mine_context_backward(g, m, state.F.shape,
                                              inputs.scorer, 1.0)
                 for g, m in zip(inputs.upstream, mined)]
        return mined, grads

    @staticmethod
    def fingerprint(out):
        mined, grads = out
        return ([[(rec.index, rec.score) for rec in m.selected] for m in mined],
                [grad_b for _, (_, grad_b) in grads])

    def check(self, inputs, state, out):
        mined, grads = out
        return checks.check_align(state.F, inputs.rois, state.rois, mined,
                                  grads, inputs.upstream, inputs.scorer,
                                  self.ops_per_round)


@dataclass
class SynthInputs:
    seed: int


class SynthTrain:
    name = "synth-train"
    kernel = "interp"
    n_scenes, epochs, lr = 80, 30, 0.05
    # train_head holds out round(n * 0.25) scenes and takes one SGD step
    # per training scene per epoch.
    n_train = n_scenes - max(1, round(n_scenes * 0.25))
    ops_per_round = n_train * epochs
    expected_spans = (
        "synth.generate", "synth.train_head", "mining.build_layout",
        "mining.enumerate", "mining.ContextScorer.score_flat",
        "roi_ops.RangeMaxTable.build", "roi_ops.RangeMaxTable.pool_boxes",
        "roi_ops.RangeMaxTable.pool_xyxy", "roi_ops.RangeMaxTable.query",
        "roi_ops.roi_pool", "losses.softmax", "geometry.iou")

    def make_inputs(self, seed, workdir) -> SynthInputs:
        return SynthInputs(seed)

    def setup(self, inputs):
        """Generate the scenes; the inputs are the seed alone."""
        return roictx.synth.generate(inputs.seed, self.n_scenes)

    def run_round(self, inputs, scenes):
        return roictx.synth.train_head(scenes, "mining", epochs=self.epochs,
                                       lr=self.lr, seed=inputs.seed)

    @staticmethod
    def fingerprint(out):
        return (out.accuracy, list(out.trace), out.overlap_rate)

    def check(self, inputs, scenes, out):
        return checks.check_synth(scenes, out, self.n_scenes, self.epochs)


WORKLOADS = {w.name: w for w in (PoolD256(), AlignD64(), SynthTrain())}
