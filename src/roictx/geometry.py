"""Box arithmetic on continuous feature-map coordinates.

Boxes are axis-aligned (x1, y1, x2, y2) corner rectangles with no +1 pixel
convention.  Provides IoU, clipping and the RoI CSV format.
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

    def scaled_about_center(self, factor: float) -> "Box":
        return Box.from_center(self.cx, self.cy, self.w * factor, self.h * factor)

    def clip(self, width: float, height: float) -> "Box":
        """Clip to [0, width] x [0, height]; may return a zero-area box."""
        x1 = min(max(self.x1, 0.0), width)
        y1 = min(max(self.y1, 0.0), height)
        x2 = min(max(self.x2, 0.0), width)
        y2 = min(max(self.y2, 0.0), height)
        return Box(x1, y1, max(x1, x2), max(y1, y2))


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


def save_roi_csv(path, boxes) -> None:
    """Write one `x1,y1,x2,y2` line per Box, each float in its shortest
    round-tripping form."""
    with open(path, "w", encoding="utf-8") as fh:
        for b in boxes:
            fh.write(",".join(repr(float(v)) for v in (b.x1, b.y1, b.x2, b.y2))
                     + "\n")


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
