import math

import numpy as np
import pytest

from roictx.errors import FormatError
from roictx.geometry import Box, generate_anchors, iou, load_roi_csv, nms, \
    save_roi_csv


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


def nms_oracle(boxes_scores, threshold):
    """O(n^2) greedy suppression, re-derived from the definition."""
    remaining = sorted(range(len(boxes_scores)),
                       key=lambda i: (-boxes_scores[i][1], i))
    kept = []
    while remaining:
        best = remaining.pop(0)
        kept.append(best)
        remaining = [i for i in remaining
                     if iou_oracle(boxes_scores[i][0], boxes_scores[best][0])
                     <= threshold]
    return kept


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


class TestNms:
    def test_single_box_kept(self):
        assert nms([(Box(0, 0, 1, 1), 0.3)], 0.5) == [0]

    def test_duplicate_suppressed(self):
        b = Box(0, 0, 4, 4)
        assert nms([(b, 0.9), (b, 0.8)], 0.5) == [0]

    def test_empty_input(self):
        assert nms([], 0.5) == []

    def test_score_tie_breaks_to_lower_index(self):
        items = [(Box(0, 0, 4, 4), 0.7), (Box(0.1, 0, 4.1, 4), 0.7)]
        assert nms(items, 0.5) == [0]

    def test_matches_oracle_on_random_sets(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(1, 51))
            items = [(random_box(rng, hi=20.0), float(rng.uniform(0, 1)))
                     for _ in range(n)]
            thr = float(rng.uniform(0.2, 0.8))
            assert nms(items, thr) == nms_oracle(items, thr)

    def test_kept_boxes_form_antichain(self):
        rng = np.random.default_rng(29)
        items = [(random_box(rng, hi=15.0), float(rng.uniform(0, 1)))
                 for _ in range(80)]
        kept = nms(items, 0.4)
        for a in kept:
            for b in kept:
                if a != b:
                    assert iou(items[a][0], items[b][0]) <= 0.4

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            nms([(Box(0, 0, 1, 1), 0.5)], 0.0)


class TestGenerateAnchors:
    def test_single_position_gives_k_anchors(self):
        anchors = generate_anchors(1, 1, (8, 16, 32), (0.5, 1.0, 2.0), 16.0)
        assert len(anchors) == 9

    def test_count_is_k_h_w(self):
        anchors = generate_anchors(2, 3, (8, 16, 32), (0.5, 1.0, 2.0), 16.0)
        assert len(anchors) == 9 * 2 * 3

    def test_translation_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            fh, fw = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            stride = float(rng.uniform(4, 32))
            scales = tuple(rng.uniform(4, 64, 3))
            ratios = tuple(rng.uniform(0.3, 3.0, 3))
            anchors = generate_anchors(fh, fw, scales, ratios, stride)
            k = 9
            base = anchors[:k]
            for i in range(fh):
                for j in range(fw):
                    block = anchors[(i * fw + j) * k:(i * fw + j + 1) * k]
                    for a, b in zip(base, block):
                        assert b.x1 == pytest.approx(a.x1 + j * stride)
                        assert b.y1 == pytest.approx(a.y1 + i * stride)
                        assert b.x2 == pytest.approx(a.x2 + j * stride)
                        assert b.y2 == pytest.approx(a.y2 + i * stride)

    def test_scale_and_ratio_shape(self):
        (a,) = generate_anchors(1, 1, (16,), (2.0,), 1.0)
        assert a.area == pytest.approx(256.0)
        assert a.h / a.w == pytest.approx(2.0)


class TestRoiCsv:
    def test_roundtrip_all_field_counts(self, tmp_path):
        rows = [
            (Box(1.5, 2.25, 7.125, 9.0),),
            (Box(0.1, 0.2, 3.3, 4.4), 0.75),
            (Box(10.0, 11.0, 12.0, 13.0), 0.5, 7),
        ]
        path = tmp_path / "rois.csv"
        save_roi_csv(path, rows)
        back = load_roi_csv(path)
        assert back == rows

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
