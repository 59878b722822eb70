"""Brute-force self-checks of the reference computations on tiny maps.

Each check restates a reference in the most literal form (per-pixel
membership, a tent-kernel sum, scalar loops) and compares.  The names
avoid pytest's `test_*` pattern on purpose: these checks guard the
benchmark, not the library, and run at the start of every benchmark run
or alone with

    python3 ctxbench/selfcheck.py
"""

from __future__ import annotations

import math
import sys

import numpy as np

import reference as ref


def _brute_max_pool(F, box, ph, pw):
    """Pixel (y, x) belongs to bin (i, j) when its unit square overlaps
    the bin's continuous interval on both axes."""
    D, H, W = F.shape
    x1, y1, x2, y2 = ref.clip_box(box, float(W), float(H))
    out = np.zeros((D, ph, pw), dtype=np.float32)
    for i in range(ph):
        ys = y1 + (i * (y2 - y1)) / ph
        ye = y1 + ((i + 1) * (y2 - y1)) / ph
        for j in range(pw):
            xs = x1 + (j * (x2 - x1)) / pw
            xe = x1 + ((j + 1) * (x2 - x1)) / pw
            members = [(y, x) for y in range(H) for x in range(W)
                       if y < ye and y + 1 > ys and x < xe and x + 1 > xs]
            for d in range(D):
                if members:
                    out[d, i, j] = max(F[d, y, x] for y, x in members)
    return out


def _brute_align(F, box, ph, pw, s):
    """Each sample is a tent-kernel sum over every pixel of the map."""
    D, H, W = F.shape
    F = F.astype(np.float64)
    x1, y1, x2, y2 = box
    out = np.zeros((D, ph, pw))
    for i in range(ph):
        for j in range(pw):
            for a in range(s):
                for b in range(s):
                    y = y1 + (i + (a + 0.5) / s) * (y2 - y1) / ph
                    x = x1 + (j + (b + 0.5) / s) * (x2 - x1) / pw
                    y = min(max(y, 0.0), H - 1.0)
                    x = min(max(x, 0.0), W - 1.0)
                    for p in range(H):
                        for q in range(W):
                            k = max(0.0, 1.0 - abs(y - p)) * max(0.0, 1.0 - abs(x - q))
                            if k:
                                out[:, i, j] += k * F[:, p, q]
    return out / (s * s)


def _brute_pool_members(cell, anchor, width, height):
    """Array restatement of the pool filter over the whole raw grid."""
    cw = cell[2] - cell[0]
    ch = cell[3] - cell[1]

    def ok(b, a):
        w, h = b[2] - b[0], b[3] - b[1]
        iw = np.minimum(b[2], a[2]) - np.maximum(b[0], a[0])
        ih = np.minimum(b[3], a[3]) - np.maximum(b[1], a[1])
        inter = np.where((iw > 0) & (ih > 0), iw * ih, 0.0)
        union = w * h + (a[2] - a[0]) * (a[3] - a[1]) - inter
        iou = np.where(union > 0, inter / np.where(union > 0, union, 1.0), 0.0)
        return ((np.minimum(w, h) >= ref.SHORT_EDGE_FRAC * min(cw, ch))
                & (np.maximum(w, h) <= max(cw, ch))
                & (iou >= ref.ANCHOR_IOU_MIN))

    sa = ref.clip_box(anchor, width, height)
    saw, sah = sa[2] - sa[0], sa[3] - sa[1]
    if saw * sah <= 0.0 or min(saw, sah) < ref.SHORT_EDGE_FRAC * min(cw, ch):
        return None
    oy, ox, sh, sw = np.meshgrid(ref.GRID_OFFSETS, ref.GRID_OFFSETS,
                                 ref.GRID_SIZES, ref.GRID_SIZES, indexing="ij")
    cx = (cell[0] + 0.5 * cw) + ox.ravel() * cw
    cy = (cell[1] + 0.5 * ch) + oy.ravel() * ch
    w = sw.ravel() * cw
    h = sh.ravel() * ch
    raw = (cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h)
    lims = (width, height, width, height)
    clipped = tuple(np.clip(v, 0.0, lim) for v, lim in zip(raw, lims))
    keep = ok(raw, anchor) & (clipped[2] > clipped[0]) & (clipped[3] > clipped[1])
    keep &= ok(clipped, sa)
    rows = np.stack(clipped, axis=1)[keep]
    return [sa] + [tuple(float(v) for v in row) for row in rows]


def check_max_pool_reference():
    rng = np.random.default_rng(11)
    F = rng.standard_normal((2, 6, 7)).astype(np.float32)
    boxes = [(0.0, 0.0, 7.0, 6.0), (1.3, 0.7, 4.9, 5.2), (-2.0, 3.5, 2.5, 9.0),
             (5.5, 4.5, 6.25, 5.75), (2.0, 1.0, 2.4, 1.4)]
    for box in boxes:
        for ph, pw in ((1, 1), (2, 3), (3, 3), (4, 5)):
            got = ref.max_pool(F, box, ph, pw)
            want = _brute_max_pool(F, box, ph, pw)
            if not np.array_equal(got, want):
                raise AssertionError(f"max_pool disagrees on {box} {ph}x{pw}")


def check_align_reference():
    rng = np.random.default_rng(12)
    F = rng.standard_normal((2, 5, 6)).astype(np.float32)
    boxes = [(0.0, 0.0, 6.0, 5.0), (1.2, 0.4, 3.9, 4.7), (-1.5, -2.0, 2.0, 1.5),
             (4.1, 3.3, 7.5, 6.6)]
    for box in boxes:
        for ph, pw, s in ((1, 1, 1), (2, 3, 2), (3, 2, 3)):
            got = ref.align(F, box, ph, pw, s)
            want = _brute_align(F, box, ph, pw, s)
            if not np.allclose(got, want, rtol=1e-12, atol=1e-12):
                raise AssertionError(f"align disagrees on {box} {ph}x{pw}x{s}")


def check_candidate_reference():
    rois = [(10.0, 10.0, 22.0, 19.0), (0.5, 2.0, 9.5, 14.0),
            (27.3, 28.1, 39.0, 39.5), (13.25, 0.0, 17.75, 6.5)]
    fallbacks = 0
    for roi in rois:
        for direction in ref.DIRECTIONS:
            cell, anchor = ref.cell_geometry(roi, direction)
            got = ref.candidate_pool(cell, anchor, 40.0, 40.0)
            want = _brute_pool_members(cell, anchor, 40.0, 40.0)
            if got != want:
                raise AssertionError(f"candidate pool disagrees, {roi} {direction}")
            if got is None:
                fallbacks += 1
                continue
            for box in got:
                if not ref.meets_constraints(box, cell, ref.clip_box(anchor, 40.0, 40.0)):
                    raise AssertionError(f"pool member {box} breaks a constraint")
    if fallbacks == 0:
        raise AssertionError("the border RoIs should lose some anchors")
    cell, anchor = ref.cell_geometry((10.0, 10.0, 22.0, 19.0), "top")
    if not math.isclose(anchor[2] - anchor[0], 6.0):
        raise AssertionError("anchor must be half the cell width")


CHECKS = (check_max_pool_reference, check_align_reference,
          check_candidate_reference)


def run_all():
    for check in CHECKS:
        check()


if __name__ == "__main__":
    run_all()
    print(f"{len(CHECKS)} reference self-checks passed", file=sys.stderr)
