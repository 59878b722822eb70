import math

import numpy as np
import pytest

from roictx.errors import FormatError
from roictx.geometry import Box, iou, load_roi_csv, save_roi_csv


def random_box(rng, lo=0.0, hi=50.0, min_size=0.5):
    x1 = rng.uniform(lo, hi - min_size)
    y1 = rng.uniform(lo, hi - min_size)
    w = rng.uniform(min_size, hi - x1)
    h = rng.uniform(min_size, hi - y1)
    return Box(x1, y1, x1 + w, y1 + h)


# -- independent oracles ---------------------------------------------------

def iou_oracle(a, b):
    """Area arithmetic written out longhand."""
    ix1, iy1 = max(a.x1, b.x1), max(a.y1, b.y1)
    ix2, iy2 = min(a.x2, b.x2), min(a.y2, b.y2)
    if ix2 <= ix1 or iy2 <= iy1:
        return 0.0
    inter = (ix2 - ix1) * (iy2 - iy1)
    area_a = (a.x2 - a.x1) * (a.y2 - a.y1)
    area_b = (b.x2 - b.x1) * (b.y2 - b.y1)
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


class TestIoU:
    def test_identical_boxes(self):
        b = Box(2.0, 3.0, 10.0, 12.0)
        assert iou(b, b) == 1.0

    def test_disjoint_boxes(self):
        assert iou(Box(0, 0, 1, 1), Box(5, 5, 6, 6)) == 0.0

    def test_closed_form_third(self):
        # overlap 50, union 150
        assert iou(Box(0, 0, 10, 10), Box(5, 0, 15, 10)) == pytest.approx(1 / 3)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a, b = random_box(rng), random_box(rng)
            v = iou(a, b)
            assert v == iou(b, a)
            assert 0.0 <= v <= 1.0
            assert v == pytest.approx(iou_oracle(a, b), abs=1e-12)

    def test_degenerate_box_gives_zero(self):
        assert iou(Box(1, 1, 1, 5), Box(0, 0, 2, 2)) == 0.0


class TestRoiCsv:
    def test_roundtrip_all_field_counts(self, tmp_path):
        path = tmp_path / "rois.csv"
        path.write_text("1.5,2.25,7.125,9.0\n0.1,0.2,3.3,4.4,0.75\n"
                        "10.0,11.0,12.0,13.0,0.5,7\n", encoding="utf-8")
        rows = load_roi_csv(path)
        assert rows == [
            (Box(1.5, 2.25, 7.125, 9.0),),
            (Box(0.1, 0.2, 3.3, 4.4), 0.75),
            (Box(10.0, 11.0, 12.0, 13.0), 0.5, 7),
        ]
        save_roi_csv(path, [row[0] for row in rows])
        assert load_roi_csv(path) == [row[:1] for row in rows]

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "rois.csv"
        path.write_text("# header\n\n1,2,3,4  # inline\n", encoding="utf-8")
        assert load_roi_csv(path) == [(Box(1, 2, 3, 4),)]

    def test_bad_field_count_rejected(self, tmp_path):
        path = tmp_path / "rois.csv"
        path.write_text("1,2,3\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_roi_csv(path)

    def test_inverted_box_rejected(self, tmp_path):
        path = tmp_path / "rois.csv"
        path.write_text("5,0,1,4\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_roi_csv(path)

    @pytest.mark.parametrize("line", ["nan,1,5,5", "1,1,inf,5", "-inf,1,5,5",
                                      "1,1,5,5,nan", "1,1,5,5,0.5,inf"])
    def test_non_finite_field_rejected(self, tmp_path, line):
        path = tmp_path / "rois.csv"
        path.write_text(f"1,1,5,5\n{line}\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"rois\.csv:2: non-finite field"):
            load_roi_csv(path)

    def test_written_floats_are_exact(self, tmp_path):
        b = Box(math.pi, math.e, 10.0 + math.sqrt(2), 11.0)
        path = tmp_path / "rois.csv"
        save_roi_csv(path, [b])
        assert load_roi_csv(path) == [(b,)]
