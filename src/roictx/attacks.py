"""Patch occlusions applied at object centers.

The patch region of a ground-truth box shares its center and has half
its width and height.  Four patch kinds write into that region: black
(zeros), flip (the region's own content mirrored along a seeded random
axis), random (content copied from a seeded equal-size region fully
outside the box, falling back to black when none fits), and adversarial
(a supplied patch tensor, nearest-neighbor resized).  Pixels outside the
region are never touched.

All random choices come from splitmix64, a 64-bit splittable generator
pinned here so attacked datasets stay bit-identical across library
versions:

    state += 0x9E3779B97F4A7C15
    z = state; z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateBoxError, ShapeError
from .geometry import Box, iou

KINDS = ("black", "flip", "random", "adversarial")
FLIP_AXES = ("horizontal", "vertical", "both")
# Seeded source windows a random patch tries before falling back to black.
SOURCE_ATTEMPTS = 100

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit generator; see the module docstring."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection (no modulo bias)."""
        if n <= 0:
            raise ValueError(f"need n > 0, got {n}")
        limit = _MASK64 - (_MASK64 + 1) % n
        while True:
            v = self.next_u64()
            if v <= limit:
                return v % n

    def split(self, index: int) -> "SplitMix64":
        """Independent child stream for item `index`."""
        child = SplitMix64(self._state ^ (0xA0761D6478BD642F * (index + 1) & _MASK64))
        child.next_u64()
        return child


def patch_region(gt: Box) -> Box:
    """Centered box with half the width and height of gt."""
    if gt.area <= 0.0:
        raise DegenerateBoxError(f"ground-truth box has no area: {gt}")
    return Box.from_center(gt.cx, gt.cy, 0.5 * gt.w, 0.5 * gt.h)


def region_pixel_window(region: Box, height: int, width: int):
    """Integer pixel window (y0, y1, x0, x1) of a continuous region,
    rounding each edge to the nearest integer and clipping to the image."""
    x0 = max(0, min(width, int(math.floor(region.x1 + 0.5))))
    x1 = max(0, min(width, int(math.floor(region.x2 + 0.5))))
    y0 = max(0, min(height, int(math.floor(region.y1 + 0.5))))
    y1 = max(0, min(height, int(math.floor(region.y2 + 0.5))))
    return y0, y1, x0, x1


def _nearest_resize(patch: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    c, h, w = patch.shape
    ys = np.minimum((np.arange(out_h) * h) // out_h, h - 1)
    xs = np.minimum((np.arange(out_w) * w) // out_w, w - 1)
    return patch[:, ys[:, None], xs[None, :]]


def _random_source(rng: SplitMix64, gt: Box, ph: int, pw: int,
                   height: int, width: int):
    """Seeded top-left of an equal-size source window fully outside gt."""
    max_y = height - ph
    max_x = width - pw
    if max_y < 0 or max_x < 0:
        return None
    for _ in range(SOURCE_ATTEMPTS):
        sy = rng.below(max_y + 1)
        sx = rng.below(max_x + 1)
        src = Box(float(sx), float(sy), float(sx + pw), float(sy + ph))
        if iou(src, gt) == 0.0:
            return sy, sx
    return None


def apply_patch(image: np.ndarray, gt: Box, kind: str, rng_seed: int,
                patch: np.ndarray | None = None) -> np.ndarray:
    """Return a copy of the image with the center patch applied.

    image is C x H x W float32.  For kind="adversarial" a C x h x w patch
    (h, w >= 1) is required and resized to the region by nearest neighbor.
    Identical arguments give bit-identical results.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown patch kind {kind!r}, expected one of {KINDS}")
    if image.ndim != 3:
        raise ShapeError(f"image must be rank 3 (C,H,W), got {image.shape}")
    c, height, width = image.shape
    region = patch_region(gt)
    y0, y1, x0, x1 = region_pixel_window(region, height, width)
    out = np.array(image, dtype=np.float32, copy=True)
    if y1 <= y0 or x1 <= x0:
        if not (region.x2 > 0 and region.x1 < width
                and region.y2 > 0 and region.y1 < height):
            raise DegenerateBoxError(
                f"patch region {region} does not intersect the {width}x{height} image")
        return out

    rng = SplitMix64(rng_seed)
    if kind == "black":
        out[:, y0:y1, x0:x1] = 0.0
    elif kind == "flip":
        axis = FLIP_AXES[rng.below(3)]
        window = image[:, y0:y1, x0:x1]
        if axis in ("horizontal", "both"):
            window = window[:, :, ::-1]
        if axis in ("vertical", "both"):
            window = window[:, ::-1, :]
        out[:, y0:y1, x0:x1] = window
    elif kind == "random":
        found = _random_source(rng, gt, y1 - y0, x1 - x0, height, width)
        if found is None:
            out[:, y0:y1, x0:x1] = 0.0
        else:
            sy, sx = found
            out[:, y0:y1, x0:x1] = image[:, sy:sy + (y1 - y0), sx:sx + (x1 - x0)]
    else:
        if patch is None:
            raise ValueError("kind='adversarial' requires a patch tensor")
        if patch.ndim != 3 or patch.shape[0] != c or 0 in patch.shape[1:]:
            raise ShapeError(f"patch shape {patch.shape} incompatible with "
                             f"image {image.shape}")
        out[:, y0:y1, x0:x1] = _nearest_resize(
            np.asarray(patch, dtype=np.float32), y1 - y0, x1 - x0)
    return out


def apply_patches(image: np.ndarray, boxes, kind: str, rng_seed: int,
                  patch: np.ndarray | None = None) -> np.ndarray:
    """Apply one patch per ground-truth box, each with an independent
    child stream split from rng_seed by box index."""
    out = image
    root = SplitMix64(rng_seed)
    for i, gt in enumerate(boxes):
        out = apply_patch(out, gt, kind, root.split(i).next_u64(), patch)
    return out
