"""Synthetic context-discrimination task.

Scenes are built so the object RoI's interior carries no class signal at
all: both classes draw it from one shared noise distribution.  The class
is encoded only by a small constant-valued blob written into channel 0
(class 0) or channel 1 (class 1) at a random sub-position of one random
surrounding cell.  A linear head (and, for the mining variant, the
shared context scorer) is trained by plain SGD on the classification
loss.  The blob is much smaller than a cell, so that whole-cell pooling
dilutes it while a mined candidate box could cover it.  That is the
design intent only: whether learned mining localizes the blob, and beats
the fixed layouts, is an open experiment (ROADMAP item 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBoxError, TrainingError
from .geometry import Box, iou
from .losses import softmax
from .mining import CandidateGridSpec, ContextScorer, MiningConfig, \
    DIRECTIONS, _box_at, _chunk_pools, _chunk_size, _first_max, _xyxy, \
    build_layout, fixed_context_variant, roi_map, scorer_gradient
from .roi_ops import RangeMaxTable

TRAIN_VARIANTS = ("none", "neigh8", "mining")


@dataclass(frozen=True)
class SynthConfig:
    """Geometry and signal levels of the synthetic task.

    The object box is placed so the whole 3x3 cell grid stays inside the
    map (no boundary fallback in the demo).  A grid that cannot fit, or a
    blob larger than a cell, raises DegenerateBoxError.
    """

    channels: int = 2
    map_size: int = 48
    object_size: float = 12.0
    blob_size: float = 4.0
    blob_value: float = 2.0
    background_sigma: float = 0.3
    object_sigma: float = 0.5
    ph: int = 5
    pw: int = 5
    holdout_frac: float = 0.25
    lambda_ctx: float = 1.0
    grid: CandidateGridSpec = field(default_factory=lambda: CandidateGridSpec(
        size_fracs=(1.0 / 3.0, 0.5, 2.0 / 3.0)))

    def __post_init__(self):
        obj = self.object_size
        if not self.blob_size <= obj <= self.map_size - 2.0 * obj:
            raise DegenerateBoxError(
                "need blob_size <= object_size <= map_size - 2 * object_size, "
                f"got {self.blob_size}, {obj}, {self.map_size}")

    def mining_config(self) -> MiningConfig:
        return MiningConfig(ph=self.ph, pw=self.pw, backbone="pool",
                            grid=self.grid)


DEFAULT_SYNTH = SynthConfig()


@dataclass
class SynthScene:
    feature: np.ndarray
    object_roi: Box
    label: int
    blob_direction: str
    blob_box: Box


def generate(seed: int, n: int, config: SynthConfig = DEFAULT_SYNTH) -> list[SynthScene]:
    """Deterministic, class-balanced (within one) scene list."""
    if n < 1:
        raise ValueError(f"need n >= 1 scenes, got {n}")
    master = np.random.default_rng([seed, 0x5ce9e5])
    labels = np.arange(n) % 2
    master.shuffle(labels)
    return [_make_scene(int(labels[i]), seed, i, config) for i in range(n)]


def _make_scene(label: int, seed: int, index: int, cfg: SynthConfig) -> SynthScene:
    rng = np.random.default_rng([seed, index, 0x1c3])
    size = cfg.map_size
    obj = cfg.object_size
    F = rng.normal(0.0, cfg.background_sigma,
                   (cfg.channels, size, size)).astype(np.float32)

    lo, hi = obj, size - 2.0 * obj
    x1 = float(rng.uniform(lo, hi))
    y1 = float(rng.uniform(lo, hi))
    object_roi = Box(x1, y1, x1 + obj, y1 + obj)

    iy0, iy1 = int(round(y1)), int(round(y1 + obj))
    ix0, ix1 = int(round(x1)), int(round(x1 + obj))
    F[:, iy0:iy1, ix0:ix1] = rng.normal(
        0.0, cfg.object_sigma, (cfg.channels, iy1 - iy0, ix1 - ix0))

    k = rng.integers(0, len(DIRECTIONS))
    cx1, cy1, cx2, cy2 = build_layout(_xyxy([object_roi]))[0, k].tolist()
    bs = cfg.blob_size
    bx = float(rng.uniform(cx1, cx2 - bs))
    by = float(rng.uniform(cy1, cy2 - bs))
    blob = Box(bx, by, bx + bs, by + bs)
    by0, by1 = int(round(by)), int(round(by + bs))
    bx0, bx1 = int(round(bx)), int(round(bx + bs))
    F[label, by0:by1, bx0:bx1] = cfg.blob_value
    return SynthScene(F, object_roi, label, DIRECTIONS[k], blob)


@dataclass
class TrainResult:
    accuracy: float
    trace: list[float]
    overlap_rate: float | None
    head_w: np.ndarray
    head_b: np.ndarray
    scorer: ContextScorer | None


class _MiningFeatures:
    """Per-scene candidate matrix, pooled once and reused every epoch.

    Candidate pools do not depend on the scorer.  of_scenes enumerates
    scenes in mine_many's chunks, so temporaries stay bounded, and gives
    each scene its own pools bit for bit: boxes holds its 8 cells' pools,
    cell c's from starts[c] in DIRECTIONS order (no cell falls back).
    One RangeMaxTable.pool_boxes call per scene pools them into flats.
    Each step only scores flats and picks each cell's first maximum.
    """

    def __init__(self, scene: SynthScene, cfg: SynthConfig,
                 boxes: np.ndarray, counts: np.ndarray):
        mc = cfg.mining_config()
        self.object_flat = roi_map(scene.feature, scene.object_roi,
                                   mc).data.reshape(-1)
        self.starts = np.cumsum(counts) - counts
        self.boxes = boxes
        self.flats = RangeMaxTable(scene.feature).pool_boxes(
            boxes, mc.ph, mc.pw).reshape(len(boxes), -1)

    @classmethod
    def of_scenes(cls, scenes, cfg: SynthConfig) -> list:
        """The features of each scene of a sequence, in order."""
        out, size, step = [], (cfg.map_size,) * 2, _chunk_size(cfg.grid)
        for chunk in (scenes[i:i + step] for i in range(0, len(scenes), step)):
            rois = [s.object_roi for s in chunk]
            boxes, counts = _chunk_pools(rois, cfg.grid, size)
            rows = np.split(boxes, np.cumsum(counts.sum(axis=1))[:-1])
            out += map(cls, chunk, [cfg] * len(chunk), rows, counts)
        return out

    def select(self, scorer: ContextScorer) -> np.ndarray:
        """Row of flats selected in each cell under the current scorer."""
        return _first_max(scorer.score_flat(self.flats), self.starts)

    def feature(self, picked: np.ndarray) -> np.ndarray:
        rows = self.flats.take(picked, axis=0).reshape(-1)
        return np.concatenate([self.object_flat, rows]).astype(np.float64)


def train_head(scenes, variant: str, epochs: int = 30, lr: float = 0.05,
               seed: int = 0, config: SynthConfig = DEFAULT_SYNTH) -> TrainResult:
    """Train a linear classifier (plus the context scorer for the mining
    variant) by per-sample SGD on the classification loss.

    Returns held-out accuracy, the per-epoch mean training loss trace,
    and for the mining variant the fraction of held-out scenes whose
    selected box in the blob's cell overlaps the blob.  An unknown
    variant, no scenes or fewer than one epoch raise ValueError.
    """
    if variant not in TRAIN_VARIANTS:
        raise ValueError(
            f"unknown variant {variant!r}, expected one of {TRAIN_VARIANTS}")
    if not scenes:
        raise ValueError("need at least one scene")
    if epochs < 1:
        raise ValueError(f"need epochs >= 1, got {epochs}")
    rng = np.random.default_rng([seed, 0xeffec7])
    order = rng.permutation(len(scenes))
    n_test = max(1, int(round(len(scenes) * config.holdout_frac)))
    test_idx = order[:n_test]
    train_idx = order[n_test:]
    if len(train_idx) == 0:
        raise ValueError("holdout leaves no training scenes")

    mining = variant == "mining"
    mc = config.mining_config()
    block = config.channels * mc.ph * mc.pw
    if mining:
        feats = _MiningFeatures.of_scenes(scenes, config)
        dim = 9 * block
        scorer = ContextScorer.zeros(config.channels, mc.ph, mc.pw)
    else:
        fixed = [fixed_context_variant(s.feature, s.object_roi, variant,
                                       mc).reshape(-1).astype(np.float64)
                 for s in scenes]
        dim = fixed[0].shape[0]
        scorer = None

    def scene_feature(i):
        """Scene i's feature and, when mining, its selected rows of flats."""
        if not mining:
            return fixed[i], None
        picked = feats[i].select(scorer)
        return feats[i].feature(picked), picked

    head_w = np.zeros((2, dim), dtype=np.float64)
    head_b = np.zeros(2, dtype=np.float64)
    trace = []
    for epoch in range(epochs):
        rng.shuffle(train_idx)
        total = 0.0
        for i in train_idx:
            scene = scenes[int(i)]
            f, picked = scene_feature(i)
            p = softmax(head_w @ f + head_b)
            loss = -np.log(max(p[scene.label], 1e-300))
            total += float(loss)
            g = p.copy()
            g[scene.label] -= 1.0
            if mining:
                g_blocks = (head_w[:, block:].reshape(2, -1, block)
                            .transpose(1, 2, 0) @ g)
                # f's picked rows are the selected flats, cast exactly
                grad_w, grad_b = scorer_gradient(
                    g_blocks, f[block:].reshape(-1, block), config.lambda_ctx)
                with np.errstate(over="ignore", invalid="ignore"):
                    scorer.weights = (scorer.weights.astype(np.float64)
                                      - lr * grad_w).astype(np.float32)
                    scorer.bias = float(scorer.bias - lr * grad_b)
                    finite = (np.isfinite(scorer.weights).all()
                              and np.isfinite(np.float32(scorer.bias)))
                if not finite:
                    raise TrainingError(f"training diverged at epoch {epoch}: "
                                        "scorer not finite in float32")
            head_w -= lr * np.outer(g, f)
            head_b -= lr * g
        mean_loss = total / len(train_idx)
        if not np.isfinite(mean_loss):
            raise TrainingError(
                f"training diverged at epoch {epoch}: loss={mean_loss}")
        trace.append(mean_loss)

    correct = 0
    overlaps = 0
    for i in test_idx:
        scene = scenes[int(i)]
        f, picked = scene_feature(i)
        if mining:
            box = _box_at(feats[i].boxes,
                          picked[DIRECTIONS.index(scene.blob_direction)])
            overlaps += iou(box, scene.blob_box) > 0.0
        pred = int(np.argmax(head_w @ f + head_b))
        correct += pred == scene.label
    accuracy = correct / len(test_idx)
    overlap_rate = overlaps / len(test_idx) if mining else None
    return TrainResult(accuracy, trace, overlap_rate, head_w, head_b, scorer)
