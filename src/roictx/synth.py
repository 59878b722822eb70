"""Synthetic context-discrimination task.

Scenes are built so the object RoI's interior carries no class signal at
all: both classes draw it from one shared noise distribution.  The class
is encoded only by a small constant-valued blob written into channel 0
(class 0) or channel 1 (class 1) at a random sub-position of one random
surrounding cell.  A linear head (and, for the mining variant, the
shared context scorer) is trained by plain SGD on the classification
loss; with the blob much smaller than a cell, whole-cell pooling
dilutes it while mining can localize it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingError
from .geometry import Box, iou
from .losses import softmax
from .mining import CandidateGridSpec, ContextScorer, MiningConfig, \
    DIRECTIONS, build_layout, candidate_pool_for_cell, \
    fixed_context_variant, roi_map, scorer_gradient
from .roi_ops import RangeMaxTable

TRAIN_VARIANTS = ("none", "neigh8", "mining")


@dataclass(frozen=True)
class SynthConfig:
    """Geometry and signal levels of the synthetic task.

    The object box is placed so the whole 3x3 cell grid stays inside the
    map (no boundary fallback in the demo).  Training with the default
    sizes is stable for lr <= 0.2; the demo default is 0.05.
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
    scenes = []
    for i in range(n):
        scenes.append(_make_scene(int(labels[i]), seed, i, config))
    return scenes


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

    direction = DIRECTIONS[rng.integers(0, len(DIRECTIONS))]
    cell = build_layout(object_roi).cells[direction]
    bs = cfg.blob_size
    bx = float(rng.uniform(cell.x1, cell.x2 - bs))
    by = float(rng.uniform(cell.y1, cell.y2 - bs))
    blob = Box(bx, by, bx + bs, by + bs)
    by0, by1 = int(round(by)), int(round(by + bs))
    bx0, bx1 = int(round(bx)), int(round(bx + bs))
    F[label, by0:by1, bx0:bx1] = cfg.blob_value
    return SynthScene(F, object_roi, label, direction, blob)


@dataclass
class TrainResult:
    accuracy: float
    trace: list[float]
    overlap_rate: float | None
    head_w: np.ndarray
    head_b: np.ndarray
    scorer: ContextScorer | None


class _MiningFeatures:
    """Per-scene candidate features, pooled once and reused every epoch.

    Candidate pools do not depend on the scorer, so only the scores and
    the argmax selection move during training.
    """

    def __init__(self, scene: SynthScene, cfg: SynthConfig):
        mc = cfg.mining_config()
        table = RangeMaxTable(scene.feature)
        self.object_flat = roi_map(scene.feature, scene.object_roi,
                                   mc).data.reshape(-1)
        layout = build_layout(scene.object_roi)
        size = cfg.map_size
        self.cells = []
        for direction in DIRECTIONS:
            boxes = candidate_pool_for_cell(layout.cells[direction], mc.grid,
                                            (size, size))
            flats = table.pool_boxes(boxes, mc.ph, mc.pw)
            self.cells.append((boxes, flats.reshape(len(boxes), -1)))

    def select(self, scorer: ContextScorer):
        """Argmax candidate per cell under the current scorer."""
        picks = []
        for boxes, flats in self.cells:
            idx = int(np.argmax(scorer.score_flat(flats)))
            picks.append((idx, boxes[idx], flats[idx]))
        return picks

    def feature(self, picks) -> np.ndarray:
        return np.concatenate([self.object_flat] + [p[2] for p in picks])


def train_head(scenes, variant: str, epochs: int = 30, lr: float = 0.05,
               seed: int = 0, config: SynthConfig = DEFAULT_SYNTH) -> TrainResult:
    """Train a linear classifier (plus the context scorer for the mining
    variant) by per-sample SGD on the classification loss.

    Returns held-out accuracy, the per-epoch mean training loss trace,
    and for the mining variant the fraction of held-out scenes whose
    selected box in the blob's cell overlaps the blob.
    """
    if variant not in TRAIN_VARIANTS:
        raise ValueError(
            f"unknown variant {variant!r}, expected one of {TRAIN_VARIANTS}")
    if not scenes:
        raise ValueError("need at least one scene")
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
        feats = {int(i): _MiningFeatures(scenes[int(i)], config)
                 for i in np.concatenate([train_idx, test_idx])}
        dim = 9 * block
        scorer = ContextScorer.zeros(config.channels, mc.ph, mc.pw)
    else:
        cache = {int(i): fixed_context_variant(scenes[int(i)].feature,
                                               scenes[int(i)].object_roi,
                                               variant, mc).reshape(-1)
                 for i in np.concatenate([train_idx, test_idx])}
        dim = cache[int(train_idx[0])].shape[0]
        scorer = None

    head_w = np.zeros((2, dim), dtype=np.float64)
    head_b = np.zeros(2, dtype=np.float64)
    trace = []
    for _epoch in range(epochs):
        rng.shuffle(train_idx)
        total = 0.0
        for i in train_idx:
            scene = scenes[int(i)]
            if mining:
                mf = feats[int(i)]
                picks = mf.select(scorer)
                f = mf.feature(picks).astype(np.float64)
            else:
                f = cache[int(i)].astype(np.float64)
            logits = head_w @ f + head_b
            p = softmax(logits)
            loss = -np.log(max(p[scene.label], 1e-300))
            total += float(loss)
            g = p.copy()
            g[scene.label] -= 1.0
            if mining:
                g_blocks = [head_w[:, (c + 1) * block:(c + 2) * block].T @ g
                            for c in range(len(picks))]
                grad_w, grad_b = scorer_gradient(
                    scorer, g_blocks, [p[2] for p in picks], config.lambda_ctx)
                scorer.weights = (scorer.weights.astype(np.float64)
                                  - lr * grad_w).astype(np.float32)
                scorer.bias = float(scorer.bias - lr * grad_b)
            head_w -= lr * np.outer(g, f)
            head_b -= lr * g
        mean_loss = total / len(train_idx)
        if not np.isfinite(mean_loss):
            raise TrainingError(
                f"training diverged at epoch {_epoch}: loss={mean_loss}")
        trace.append(mean_loss)

    correct = 0
    overlaps = 0
    for i in test_idx:
        scene = scenes[int(i)]
        if mining:
            mf = feats[int(i)]
            picks = mf.select(scorer)
            f = mf.feature(picks).astype(np.float64)
            cell_i = DIRECTIONS.index(scene.blob_direction)
            if iou(picks[cell_i][1], scene.blob_box) > 0.0:
                overlaps += 1
        else:
            f = cache[int(i)].astype(np.float64)
        pred = int(np.argmax(head_w @ f + head_b))
        correct += pred == scene.label
    accuracy = correct / len(test_idx)
    overlap_rate = overlaps / len(test_idx) if mining else None
    return TrainResult(accuracy, trace, overlap_rate, head_w, head_b, scorer)
