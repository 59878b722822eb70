"""Box arithmetic on continuous feature-map coordinates.

Boxes are axis-aligned (x1, y1, x2, y2) corner rectangles with no +1 pixel
convention.  Provides IoU, clipping, greedy NMS, translation-invariant
anchor generation, the RoI CSV format, and the (tx, ty, tw, th) target
record the regression loss reads.  There is no regression encoding and no
label assignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FormatError


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle; x2 >= x1 and y2 >= y1."""

    x1: float
    y1: float
    x2: float
    y2: float

    @property
    def w(self) -> float:
        return self.x2 - self.x1

    @property
    def h(self) -> float:
        return self.y2 - self.y1

    @property
    def cx(self) -> float:
        return self.x1 + 0.5 * self.w

    @property
    def cy(self) -> float:
        return self.y1 + 0.5 * self.h

    @property
    def area(self) -> float:
        return self.w * self.h

    @staticmethod
    def from_center(cx: float, cy: float, w: float, h: float) -> "Box":
        return Box(cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h)

    def shifted(self, dx: float, dy: float) -> "Box":
        return Box(self.x1 + dx, self.y1 + dy, self.x2 + dx, self.y2 + dy)

    def scaled_about_center(self, factor: float) -> "Box":
        return Box.from_center(self.cx, self.cy, self.w * factor, self.h * factor)

    def clip(self, width: float, height: float) -> "Box":
        """Clip to [0, width] x [0, height]; may return a zero-area box."""
        x1 = min(max(self.x1, 0.0), width)
        y1 = min(max(self.y1, 0.0), height)
        x2 = min(max(self.x2, 0.0), width)
        y2 = min(max(self.y2, 0.0), height)
        return Box(x1, y1, max(x1, x2), max(y1, y2))


@dataclass(frozen=True)
class RegressionTarget:
    """Dimensionless (tx, ty, tw, th) offsets of a box w.r.t. a reference."""

    tx: float
    ty: float
    tw: float
    th: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.tx, self.ty, self.tw, self.th)


def iou(a: Box, b: Box) -> float:
    """Intersection area over union area; 0 when the union is empty."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def nms(boxes_scores, iou_threshold: float) -> list[int]:
    """Greedy non-maximum suppression.

    Args:
        boxes_scores: sequence of (Box, score) pairs.
        iou_threshold: suppress a candidate whose IoU with any kept box
            exceeds this value; must lie in (0, 1].

    Returns:
        Indices of kept boxes in descending score order.  Score ties break
        toward the lower original index.
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    order = sorted(range(len(boxes_scores)),
                   key=lambda i: (-boxes_scores[i][1], i))
    kept: list[int] = []
    for i in order:
        box = boxes_scores[i][0]
        if all(iou(box, boxes_scores[j][0]) <= iou_threshold for j in kept):
            kept.append(i)
    return kept


def generate_anchors(feature_h: int, feature_w: int, scales, ratios,
                     stride: float) -> list[Box]:
    """Tile k = |scales| * |ratios| anchors over an H x W feature grid.

    The anchor for (scale s, ratio a) has area s^2 and height/width ratio a,
    centered at (j*stride, i*stride) for grid position (i, j).  Output order
    is position-major (rows, then columns), then scale-major, ratio-minor,
    so anchors at (i, j) are exactly the (0, 0) anchors shifted by
    (j*stride, i*stride).
    """
    if feature_h < 1 or feature_w < 1:
        raise ValueError("feature extents must be positive")
    base = []
    for s in scales:
        if s <= 0:
            raise ValueError("scales must be positive")
        for a in ratios:
            if a <= 0:
                raise ValueError("ratios must be positive")
            w = s * math.sqrt(1.0 / a)
            h = s * math.sqrt(a)
            base.append(Box.from_center(0.0, 0.0, w, h))
    anchors = []
    for i in range(feature_h):
        for j in range(feature_w):
            dx, dy = j * stride, i * stride
            anchors.extend(b.shifted(dx, dy) for b in base)
    return anchors


def _fmt(v: float) -> str:
    return repr(float(v))


def save_roi_csv(path, rows) -> None:
    """Write RoI list lines `x1,y1,x2,y2[,score[,class]]`.

    Each row is a Box, (Box, score), or (Box, score, class).
    """
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            if isinstance(row, Box):
                fields = [row.x1, row.y1, row.x2, row.y2]
                extra = []
            else:
                box = row[0]
                fields = [box.x1, box.y1, box.x2, box.y2]
                extra = list(row[1:])
            cells = [_fmt(v) for v in fields]
            for i, v in enumerate(extra):
                cells.append(str(int(v)) if i == 1 else _fmt(v))
            fh.write(",".join(cells) + "\n")


def load_roi_csv(path) -> list[tuple]:
    """Read RoI list lines; '#' comments and blank lines are skipped.

    Returns tuples (Box,), (Box, score), or (Box, score, class) per line.
    """
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) not in (4, 5, 6):
                raise FormatError(
                    f"{path}:{lineno}: expected 4-6 comma-separated fields, "
                    f"got {len(parts)}")
            try:
                vals = [float(p) for p in parts]
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: non-numeric field") from exc
            if not all(math.isfinite(v) for v in vals):
                raise FormatError(f"{path}:{lineno}: non-finite field")
            box = Box(*vals[:4])
            if box.x2 < box.x1 or box.y2 < box.y1:
                raise FormatError(f"{path}:{lineno}: inverted box {box}")
            if len(vals) == 4:
                out.append((box,))
            elif len(vals) == 5:
                out.append((box, vals[4]))
            else:
                out.append((box, vals[4], int(vals[5])))
    return out
