"""Reference computations the benchmark checks `roictx` outputs against.

Nothing here imports `roictx`: each function restates the documented
arithmetic on plain tuples and numpy arrays.

- `max_pool`: RoI max-pooling with floor/ceil integer bins and `np.max`.
- `align`: bilinear RoIAlign with clamped sample points, in float64.
- `cell_geometry` / `candidate_pool`: the 3x3 context grid and the raw
  5x5x4x4 candidate grid filtered by the short-edge, long-edge and
  anchor-IoU constraints.

Boxes are (x1, y1, x2, y2) tuples of floats.
"""

from __future__ import annotations

import math

import numpy as np

DIRECTIONS = ("left-top", "top", "right-top", "left", "right",
              "left-bottom", "bottom", "right-bottom")
OFFSETS = {"left-top": (-1, -1), "top": (0, -1), "right-top": (1, -1),
           "left": (-1, 0), "right": (1, 0),
           "left-bottom": (-1, 1), "bottom": (0, 1), "right-bottom": (1, 1)}

# The default candidate grid: centre offsets and sizes as fractions of the
# cell, and the three pool constraints.
GRID_OFFSETS = (-0.25, -0.125, 0.0, 0.125, 0.25)
GRID_SIZES = (1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0)
ANCHOR_IOU_MIN = 0.3
SHORT_EDGE_FRAC = 1.0 / 3.0


def clip_box(box, width, height):
    """Clip to [0, width] x [0, height]; may return a zero-area box."""
    x1 = min(max(box[0], 0.0), width)
    y1 = min(max(box[1], 0.0), height)
    x2 = min(max(box[2], 0.0), width)
    y2 = min(max(box[3], 0.0), height)
    return (x1, y1, max(x1, x2), max(y1, y2))


def _bin_range(lo, extent, i, bins, limit):
    start = lo + (i * extent) / bins
    end = lo + ((i + 1) * extent) / bins
    return max(math.floor(start), 0), min(math.ceil(end), limit)


def max_pool(F, box, ph, pw):
    """Max-pool the clipped box onto a ph x pw grid; empty bins give 0."""
    D, H, W = F.shape
    x1, y1, x2, y2 = clip_box(box, float(W), float(H))
    if x2 - x1 <= 0.0 or y2 - y1 <= 0.0:
        raise ValueError(f"box {box} has no area inside the {W}x{H} map")
    out = np.zeros((D, ph, pw), dtype=np.float32)
    for i in range(ph):
        ya, yb = _bin_range(y1, y2 - y1, i, ph, H)
        for j in range(pw):
            xa, xb = _bin_range(x1, x2 - x1, j, pw, W)
            if ya < yb and xa < xb:
                out[:, i, j] = np.max(F[:, ya:yb, xa:xb], axis=(1, 2))
    return out


def align_points(box, ph, pw, s, H, W):
    """Clamped sample rows and columns: ys is (ph, s), xs is (pw, s)."""
    x1, y1, x2, y2 = box
    frac = (np.arange(s) + 0.5) / s
    ys = y1 + (np.arange(ph)[:, None] + frac[None, :]) * ((y2 - y1) / ph)
    xs = x1 + (np.arange(pw)[:, None] + frac[None, :]) * ((x2 - x1) / pw)
    return np.clip(ys, 0.0, H - 1.0), np.clip(xs, 0.0, W - 1.0)


def _interp_matrix(points, n):
    """(len(points), n) matrix of 1-D linear interpolation weights."""
    lo = np.floor(points).astype(np.int64)
    hi = np.minimum(lo + 1, n - 1)
    frac = points - lo
    m = np.zeros((points.size, n))
    rows = np.arange(points.size)
    np.add.at(m, (rows, lo), 1.0 - frac)
    np.add.at(m, (rows, hi), frac)
    return m


def align(F, box, ph, pw, s=2):
    """Bilinear RoIAlign in float64: the mean of s x s clamped samples per
    bin.  Bins follow the unclipped box."""
    D, H, W = F.shape
    ys, xs = align_points(box, ph, pw, s, H, W)
    my = _interp_matrix(ys.reshape(-1), H).reshape(ph, s, H)
    mx = _interp_matrix(xs.reshape(-1), W).reshape(pw, s, W)
    # Bilinear weights factor into row and column weights; averaging the
    # s x s samples of a bin averages each factor over its s points.
    wy = my.mean(axis=1)
    wx = mx.mean(axis=1)
    return np.einsum("ih,dhw,jw->dij", wy, F.astype(np.float64), wx)


def cell_geometry(roi, direction):
    """(cell, anchor) boxes of one surrounding cell of the 3x3 grid.

    Each cell has the RoI's size and sits one RoI width/height away; its
    anchor is centred in it with half its width and height.
    """
    x1, y1, x2, y2 = roi
    w = x2 - x1
    h = y2 - y1
    mx, my = OFFSETS[direction]
    cx = (x1 + 0.5 * w) + mx * w
    cy = (y1 + 0.5 * h) + my * h
    cell = (cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h)
    cw = cell[2] - cell[0]
    ch = cell[3] - cell[1]
    acx = cell[0] + 0.5 * cw
    acy = cell[1] + 0.5 * ch
    aw = 0.5 * cw
    ah = 0.5 * ch
    anchor = (acx - 0.5 * aw, acy - 0.5 * ah, acx + 0.5 * aw, acy + 0.5 * ah)
    return cell, anchor


def anchor_lost(cell, clipped_anchor):
    """True when the clipped anchor has no area or its short edge falls
    below the floor; the cell then falls back to the object map."""
    cw = cell[2] - cell[0]
    ch = cell[3] - cell[1]
    aw = clipped_anchor[2] - clipped_anchor[0]
    ah = clipped_anchor[3] - clipped_anchor[1]
    return aw * ah <= 0.0 or min(aw, ah) < SHORT_EDGE_FRAC * min(cw, ch)


def meets_constraints(box, cell, anchor):
    """The three pool constraints, on corner coordinates."""
    cw = cell[2] - cell[0]
    ch = cell[3] - cell[1]
    w = box[2] - box[0]
    h = box[3] - box[1]
    if min(w, h) < SHORT_EDGE_FRAC * min(cw, ch):
        return False
    if max(w, h) > max(cw, ch):
        return False
    iw = min(box[2], anchor[2]) - max(box[0], anchor[0])
    ih = min(box[3], anchor[3]) - max(box[1], anchor[1])
    inter = iw * ih if iw > 0 and ih > 0 else 0.0
    union = w * h + (anchor[2] - anchor[0]) * (anchor[3] - anchor[1]) - inter
    iou = inter / union if union > 0 else 0.0
    return iou >= ANCHOR_IOU_MIN


def raw_grid(cell):
    """The 400 raw candidates of a cell in nested (oy, ox, sh, sw) order."""
    cw = cell[2] - cell[0]
    ch = cell[3] - cell[1]
    ccx = cell[0] + 0.5 * cw
    ccy = cell[1] + 0.5 * ch
    out = []
    for oy in GRID_OFFSETS:
        for ox in GRID_OFFSETS:
            for sh in GRID_SIZES:
                for sw in GRID_SIZES:
                    cx = ccx + ox * cw
                    cy = ccy + oy * ch
                    w = sw * cw
                    h = sh * ch
                    out.append((cx - 0.5 * w, cy - 0.5 * h,
                                cx + 0.5 * w, cy + 0.5 * h))
    return out


def candidate_pool(cell, anchor, width, height):
    """The stored pool of one cell, clipped anchor first, or None when the
    anchor is lost to the map border.

    A raw candidate is kept when it meets the constraints against the raw
    anchor and, once clipped to the map, still has area and meets them
    against the clipped anchor.
    """
    stored_anchor = clip_box(anchor, width, height)
    if anchor_lost(cell, stored_anchor):
        return None
    pool = [stored_anchor]
    for cand in raw_grid(cell):
        if not meets_constraints(cand, cell, anchor):
            continue
        clipped = (min(max(cand[0], 0.0), width), min(max(cand[1], 0.0), height),
                   min(max(cand[2], 0.0), width), min(max(cand[3], 0.0), height))
        if clipped[2] - clipped[0] <= 0.0 or clipped[3] - clipped[1] <= 0.0:
            continue
        if meets_constraints(clipped, cell, stored_anchor):
            pool.append(clipped)
    return pool
