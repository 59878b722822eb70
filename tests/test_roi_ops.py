import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from roictx import roi_ops
from roictx.errors import DegenerateBoxError, ShapeError
from roictx.geometry import Box
from roictx.gradcheck import check
from roictx.roi_ops import EMPTY_BIN, RangeMaxTable, bin_edges, \
    roi_align, roi_align_backward, roi_align_bin_sums, roi_pool, \
    roi_pool_backward


def random_roi(rng, width, height, min_size=1.0, max_size=None):
    """Random box overhanging the map by up to 3 on each side, but always
    with positive area inside it."""
    x1 = rng.uniform(-3.0, width - min_size)
    y1 = rng.uniform(-3.0, height - min_size)
    hi_w = (width + 3.0 - x1) if max_size is None else max_size
    hi_h = (height + 3.0 - y1) if max_size is None else max_size
    w = rng.uniform(min_size, max(hi_w, min_size + 1e-6))
    h = rng.uniform(min_size, max(hi_h, min_size + 1e-6))
    x2 = max(x1 + w, 0.5)
    y2 = max(y1 + h, 0.5)
    return Box(x1, y1, x2, y2)


def pool_oracle(F, r, ph, pw):
    """Per-bin max re-derived point by point: clip the box, split each
    axis proportionally, floor/ceil to integers, scan every cell in
    row-major order.  Returns (data, argmax): a NaN beats every number
    and the first NaN stays, otherwise only a strictly greater value
    replaces the best, so -0.0 and +0.0 tie and the first of equal
    maxima wins."""
    D, H, W = F.shape
    x1 = min(max(r.x1, 0.0), float(W))
    y1 = min(max(r.y1, 0.0), float(H))
    x2 = min(max(r.x2, 0.0), float(W))
    y2 = min(max(r.y2, 0.0), float(H))
    hh, ww = y2 - y1, x2 - x1
    out = np.zeros((D, ph, pw), dtype=np.float32)
    arg = np.full((D, ph, pw), EMPTY_BIN, dtype=np.int64)
    for d in range(D):
        for i in range(ph):
            ys = max(0, math.floor(y1 + (i * hh) / ph))
            ye = min(H, math.ceil(y1 + ((i + 1) * hh) / ph))
            for j in range(pw):
                xs = max(0, math.floor(x1 + (j * ww) / pw))
                xe = min(W, math.ceil(x1 + ((j + 1) * ww) / pw))
                best = None
                for y in range(ys, ye):
                    for x in range(xs, xe):
                        v = F[d, y, x]
                        if best is None or (not math.isnan(best) and (
                                math.isnan(v) or v > best)):
                            best = v
                            arg[d, i, j] = y * W + x
                out[d, i, j] = 0.0 if best is None else best
    return out, arg


POOL_CASE_KINDS = ("ints", "signed-zeros", "nan-inf", "float64", "whole-map",
                   "empty-bins", "many-slots")


def layouts(F):
    """F in both memory layouts roi_pool gathers differently: D-major as
    given, and a pixel-major copy, laid out like the miner's copy."""
    pixel = np.ascontiguousarray(F.transpose(1, 2, 0)).transpose(2, 0, 1)
    assert F.flags.c_contiguous and pixel.transpose(1, 2, 0).flags.c_contiguous
    return F, pixel


def non_finite_boxes(bad):
    """Box(1, 1, 5, 5) with each corner coordinate in turn set to bad."""
    for corner in range(4):
        xyxy = [1.0, 1.0, 5.0, 5.0]
        xyxy[corner] = bad
        yield Box(*xyxy)


class TestRoiPoolForward:
    def test_constant_map_pools_to_constant(self):
        F = np.full((2, 10, 10), 3.25, dtype=np.float32)
        m = roi_pool(F, Box(1.2, 2.3, 8.6, 9.1), 7, 7)
        assert np.all(m.data == 3.25)

    def test_single_peak_1x1_grid(self):
        F = np.zeros((1, 16, 16), dtype=np.float32)
        F[0, 9, 4] = 5.0
        m = roi_pool(F, Box(2.0, 6.0, 8.0, 12.0), 1, 1)
        assert m.data[0, 0, 0] == 5.0
        assert m.argmax[0, 0, 0] == 9 * 16 + 4

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            D = int(rng.integers(1, 4))
            H = int(rng.integers(6, 20))
            W = int(rng.integers(6, 20))
            F = rng.normal(0, 2, (D, H, W)).astype(np.float32)
            r = random_roi(rng, W, H)
            ph = int(rng.integers(1, 8))
            pw = int(rng.integers(1, 8))
            data, arg = pool_oracle(F, r, ph, pw)
            for G in layouts(F):
                got = roi_pool(G, r, ph, pw)
                assert np.array_equal(got.data, data)
                assert np.array_equal(got.argmax, arg)

    @staticmethod
    def _bit_identity_case(rng, kind):
        D = int(rng.integers(1, 4))
        H, W = int(rng.integers(4, 20)), int(rng.integers(4, 20))
        ph, pw = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        r = random_roi(rng, W, H)
        if kind == "ints":
            F = rng.integers(-1, 2, (D, H, W)).astype(np.float32)
        elif kind == "signed-zeros":
            F = rng.choice(np.array([0.0, -0.0], dtype=np.float32), (D, H, W))
        elif kind == "nan-inf":
            F = rng.normal(0, 1, (D, H, W)).astype(np.float32)
            u = rng.random((D, H, W))
            F[u < 0.25] = -np.inf
            # quiet NaNs with distinct payloads, to see which one is kept
            nan = u > 0.85
            F.view(np.uint32)[nan] = 0x7FC00000 + rng.integers(
                1, 1 << 16, int(nan.sum())).astype(np.uint32)
        elif kind == "float64":
            F = rng.normal(0, 1, (D, H, W)) * 10.0 ** rng.integers(-40, 40)
        elif kind == "whole-map":
            H, W = int(rng.integers(16, 25)), int(rng.integers(16, 25))
            F = rng.integers(0, 3, (D, H, W)).astype(np.float32)
            ph, pw = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            r = Box(0.0, 0.0, float(W), float(H))
        elif kind == "empty-bins":  # a box one ulp tall at an integer y1
            F = rng.normal(0, 1, (D, H, W)).astype(np.float32)
            y1 = float(rng.integers(1, H))
            x1 = float(rng.uniform(0.0, W - 2.0))
            ph = int(rng.integers(2, 8))
            r = Box(x1, y1, x1 + 1.5, float(np.nextafter(y1, np.inf)))
        else:  # "many-slots": one bin over a whole map of 256 to 576 slots
            H, W = int(rng.integers(16, 25)), int(rng.integers(16, 25))
            F = rng.choice(np.float32([-1.0, -0.0, 0.0]), (D, H, W))
            if rng.random() < 0.5:
                nan = rng.random((D, H, W)) < 0.01
                F.view(np.uint32)[nan] = 0x7FC00000 + rng.integers(
                    1, 1 << 16, int(nan.sum())).astype(np.uint32)
            ph = pw = 1
            r = Box(0.0, 0.0, float(W), float(H))
        return F, r, ph, pw

    @pytest.mark.parametrize("kind", POOL_CASE_KINDS)
    def test_bit_identical_to_oracle(self, kind):
        """Both layouts of every map; "many-slots" needs a slot rank wider
        than 8 bits in the pixel-major reduction."""
        rng = np.random.default_rng(90 + POOL_CASE_KINDS.index(kind))
        empty = 0
        for _ in range(40):
            F, r, ph, pw = self._bit_identity_case(rng, kind)
            data, arg = pool_oracle(F, r, ph, pw)
            for G in layouts(F):
                got = roi_pool(G, r, ph, pw)
                assert got.data.dtype == np.float32
                assert got.data.tobytes() == data.tobytes()
                assert np.array_equal(got.argmax, arg)
            empty += int((arg == EMPTY_BIN).any())
        assert (empty == 40) if kind == "empty-bins" else (empty == 0)

    def test_output_within_clipped_roi_range(self):
        rng = np.random.default_rng(19)
        F = rng.normal(0, 1, (1, 16, 16)).astype(np.float32)
        r = Box(3.4, 2.2, 12.8, 13.9)
        m = roi_pool(F, r, 7, 7)
        region = F[0, 2:14, 3:13]
        assert m.data.max() <= region.max()
        assert m.data.min() >= region.min()

    def test_far_away_content_irrelevant(self):
        rng = np.random.default_rng(21)
        F = rng.normal(0, 1, (2, 20, 20)).astype(np.float32)
        r = Box(4.0, 5.0, 11.0, 12.0)
        m1 = roi_pool(F, r, 5, 5)
        F2 = F.copy()
        F2[:, 15:, :] = rng.normal(0, 9, (2, 5, 20)).astype(np.float32)
        F2[:, :, 15:] = rng.normal(0, 9, (2, 20, 5)).astype(np.float32)
        m2 = roi_pool(F2, r, 5, 5)
        assert np.array_equal(m1.data, m2.data)

    def test_roi_outside_map_rejected(self):
        F = np.zeros((1, 8, 8), dtype=np.float32)
        with pytest.raises(DegenerateBoxError):
            roi_pool(F, Box(10.0, 10.0, 14.0, 14.0), 2, 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_roi_rejected(self, bad):
        F = np.zeros((1, 8, 8), dtype=np.float32)
        for box in non_finite_boxes(bad):
            with pytest.raises(DegenerateBoxError):
                roi_pool(F, box, 2, 2)

    def test_argmax_points_inside_clipped_roi(self):
        rng = np.random.default_rng(27)
        F = rng.normal(0, 1, (2, 16, 16)).astype(np.float32)
        r = Box(-2.0, 3.5, 9.2, 18.0)
        m = roi_pool(F, r, 7, 7)
        c = r.clip(16, 16)
        for a in m.argmax.reshape(-1):
            y, x = divmod(int(a), 16)
            assert math.floor(c.y1) <= y < math.ceil(c.y2)
            assert math.floor(c.x1) <= x < math.ceil(c.x2)


class TestRoiPoolBackward:
    def test_ones_route_to_argmaxes(self):
        # strictly increasing map => bins have distinct argmaxes
        F = np.arange(100, dtype=np.float32).reshape(1, 10, 10)
        m = roi_pool(F, Box(1.0, 1.0, 9.0, 9.0), 4, 4)
        g = roi_pool_backward(np.ones((1, 4, 4), dtype=np.float32), m,
                              (1, 10, 10))
        assert g.sum() == 16.0
        assert ((g == 0) | (g == 1)).all()

    def test_shape_mismatch_rejected(self):
        F = np.zeros((1, 8, 8), dtype=np.float32)
        m = roi_pool(F, Box(0, 0, 8, 8), 2, 2)
        with pytest.raises(ShapeError):
            roi_pool_backward(np.zeros((1, 3, 3), dtype=np.float32), m, (1, 8, 8))

    def test_repeated_argmax_accumulates(self):
        F = np.zeros((1, 8, 8), dtype=np.float32)
        F[0, 2, 2] = 9.0  # every bin containing (2,2) picks it
        m = roi_pool(F, Box(1.9, 1.9, 2.6, 2.6), 2, 2)
        g = roi_pool_backward(np.ones((1, 2, 2), dtype=np.float32), m, (1, 8, 8))
        assert g[0, 2, 2] == 4.0

    def test_gradcheck(self):
        rng = np.random.default_rng(33)
        F = rng.normal(0, 3, (2, 12, 12)).astype(np.float32)
        r = Box(1.3, 2.1, 9.6, 10.2)
        w = rng.normal(0, 1, (2, 5, 5)).astype(np.float32)
        analytic = roi_pool_backward(w, roi_pool(F, r, 5, 5), F.shape)

        def f(x):
            m = roi_pool(x, r, 5, 5)
            return (float((w.astype(np.float64) * m.data).sum()),
                    m.argmax.tobytes())

        report = check(f, F, analytic, h=1e-2, probes=150)
        assert report.max_rel_error <= 1e-3
        assert report.skipped <= report.probed * 0.05


def align_oracle(F, r, ph, pw, samples):
    """Bilinear sampling re-derived scalar by scalar."""
    D, H, W = F.shape
    out = np.zeros((D, ph, pw), dtype=np.float64)
    for i in range(ph):
        for j in range(pw):
            acc = np.zeros(D)
            for si in range(samples):
                for sj in range(samples):
                    y = r.y1 + (i + (si + 0.5) / samples) * r.h / ph
                    x = r.x1 + (j + (sj + 0.5) / samples) * r.w / pw
                    y = min(max(y, 0.0), H - 1.0)
                    x = min(max(x, 0.0), W - 1.0)
                    y0, x0 = int(math.floor(y)), int(math.floor(x))
                    y0, x0 = min(y0, H - 1), min(x0, W - 1)
                    y1, x1 = min(y0 + 1, H - 1), min(x0 + 1, W - 1)
                    ly, lx = y - y0, x - x0
                    for d in range(D):
                        acc[d] += ((1 - ly) * (1 - lx) * F[d, y0, x0]
                                   + (1 - ly) * lx * F[d, y0, x1]
                                   + ly * (1 - lx) * F[d, y1, x0]
                                   + ly * lx * F[d, y1, x1])
            out[:, i, j] = acc / (samples * samples)
    return out.astype(np.float32)


def smooth_map(rng, d, h, w, wavelength=96.0):
    """Low-frequency surface: bilinear sampling converges fast on it."""
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    F = np.zeros((d, h, w))
    for c in range(d):
        a, b = rng.uniform(-1, 1, 2)
        F[c] = (a * np.cos(2 * np.pi * xx / wavelength + b)
                + b * np.sin(2 * np.pi * yy / wavelength + a))
    return F.astype(np.float32)


class TestRoiAlignForward:
    def test_constant_map(self):
        F = np.full((3, 9, 9), -1.5, dtype=np.float32)
        m = roi_align(F, Box(0.7, 1.1, 7.9, 8.2), 7, 7, 2)
        assert np.allclose(m.data, -1.5, atol=1e-6)

    def test_linear_ramp_gives_bin_centroids(self):
        # F(d, y, x) = x; interpolation reproduces affine functions, so a
        # bin's value is the x of its sample centroid = the bin center.
        W = 16
        F = np.tile(np.arange(W, dtype=np.float32), (1, W, 1))
        r = Box(2.0, 2.0, 12.0, 12.0)
        m = roi_align(F, r, 5, 5, 2)
        bw = r.w / 5
        for j in range(5):
            center = r.x1 + (j + 0.5) * bw
            assert m.data[0, :, j] == pytest.approx(center, abs=1e-5)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            D = int(rng.integers(1, 3))
            H = int(rng.integers(8, 16))
            W = int(rng.integers(8, 16))
            F = rng.normal(0, 2, (D, H, W)).astype(np.float32)
            r = random_roi(rng, W, H)
            m = roi_align(F, r, 3, 4, 2)
            assert np.allclose(m.data, align_oracle(F, r, 3, 4, 2), atol=1e-5)

    def test_dense_oversampling_convergence(self):
        rng = np.random.default_rng(39)
        for _ in range(10):
            F = smooth_map(rng, 2, 24, 24)
            r = random_roi(rng, 24, 24, min_size=4.0, max_size=12.0)
            got = roi_align(F, r, 7, 7, 2).data
            ref = roi_align(F, r, 7, 7, 16).data
            assert np.abs(got - ref).max() <= 1e-3

    def test_error_decreases_with_samples(self):
        rng = np.random.default_rng(43)
        F = smooth_map(rng, 1, 24, 24)
        r = Box(3.3, 4.1, 18.7, 19.2)
        ref = roi_align(F, r, 7, 7, 32).data
        errs = [np.abs(roi_align(F, r, 7, 7, s).data - ref).max()
                for s in (1, 2, 4, 8)]
        assert errs == sorted(errs, reverse=True)

    def test_boundary_samples_clamped_no_nan(self):
        F = np.random.default_rng(47).normal(0, 1, (1, 8, 8)).astype(np.float32)
        m = roi_align(F, Box(-4.0, -4.0, 6.0, 6.0), 5, 5, 2)
        assert np.isfinite(m.data).all()

    def test_fully_outside_rejected(self):
        F = np.zeros((1, 8, 8), dtype=np.float32)
        with pytest.raises(DegenerateBoxError):
            roi_align(F, Box(20, 20, 30, 30), 2, 2, 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_roi_rejected(self, bad):
        F = np.zeros((1, 8, 8), dtype=np.float32)
        for box in non_finite_boxes(bad):
            with pytest.raises(DegenerateBoxError):
                roi_align(F, box, 2, 2, 2)

    @pytest.mark.parametrize("wide, near", [
        (Box(-2.61e307, 0.0, 9e305, 5.0), Box(-2.0, 0.0, 0.05, 5.0)),
        (Box(0.0, 0.0, 5e307, 5e307), Box(9.5, 9.5, 10.0, 10.0))],
        ids=["left", "corner"])
    def test_overflowing_sample_grid_clamps_right(self, wide, near):
        """(bin + offset) * extent overflows float64 on these RoIs; every
        true sample coordinate of `wide` clamps where `near`'s do (x = 0
        on the left, y = x = 9 in the corner), and no warning escapes."""
        F = np.random.default_rng(53).normal(0, 1, (3, 10, 10)).astype(np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = roi_align(F, wide, 7, 7, 2)
        want = roi_align(F, near, 7, 7, 2)
        assert np.array_equal(got.samples, want.samples)
        assert got.data.tobytes() == want.data.tobytes()


def bin_sums_oracle(planes, r, s):
    """roi_align_bin_sums of one box re-derived scalar by scalar in
    float64: per column, the sum over bins (i, j) of the mean bilinear
    sample of planes[c, i, j], as align_oracle samples.  Returns the sums
    and the same sums over |planes|, the scale of their rounding."""
    C, ph, pw, H, W = planes.shape
    out = np.zeros((2, C))
    for i in range(ph):
        for j in range(pw):
            for si in range(s):
                for sj in range(s):
                    y = r.y1 + (i + (si + 0.5) / s) * r.h / ph
                    x = r.x1 + (j + (sj + 0.5) / s) * r.w / pw
                    y = min(max(y, 0.0), H - 1.0)
                    x = min(max(x, 0.0), W - 1.0)
                    y0, x0 = int(math.floor(y)), int(math.floor(x))
                    y1, x1 = min(y0 + 1, H - 1), min(x0 + 1, W - 1)
                    ly, lx = y - y0, x - x0
                    for k, plane in enumerate((planes, np.abs(planes))):
                        p = plane[:, i, j]
                        out[k] += ((1 - ly) * (1 - lx) * p[:, y0, x0]
                                   + (1 - ly) * lx * p[:, y0, x1]
                                   + ly * (1 - lx) * p[:, y1, x0]
                                   + ly * lx * p[:, y1, x1]) / (s * s)
    return out


def bin_sum_boxes(rng, W, H):
    """Random boxes; boxes whose samples clamp at the left, top, right and
    bottom border, a whole-map box and one past every border; and boxes
    that share an x span or a y span with another."""
    boxes = [random_roi(rng, W, H) for _ in range(8)]
    boxes += [Box(-2.0, 3.0, 4.5, 9.0), Box(3.0, -2.5, 9.0, 4.0),
              Box(W - 4.5, 3.0, W + 2.0, 9.0), Box(3.0, H - 4.0, 9.0, H + 2.5),
              Box(0.0, 0.0, W, H), Box(-3.0, -3.0, W + 3.0, H + 3.0)]
    boxes += [Box(a.x1, b.y1, a.x2, b.y2)
              for a, b in zip(boxes[:7], boxes[7:14])]
    return boxes


def as_xyxy(boxes):
    return np.array([[b.x1, b.y1, b.x2, b.y2] for b in boxes])


class TestRoiAlignBinSums:
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_matches_scalar_oracle(self, s):
        """Every box, clamped samples included, sums to the scalar
        re-derivation up to float64 rounding of the sums over |planes|."""
        rng = np.random.default_rng(57 + s)
        C, ph, pw, H, W = 2, 3, 4, 17, 19
        planes = (rng.normal(0, 1, (C, ph, pw, H, W))
                  * 10.0 ** rng.integers(-3, 4, (C, ph, pw, H, W)))
        boxes = bin_sum_boxes(rng, W, H)
        got = roi_align_bin_sums(planes, as_xyxy(boxes), s)
        assert got.shape == (len(boxes), C)
        for row, box in zip(got, boxes):
            want, scale = bin_sums_oracle(planes, box, s)
            assert np.all(np.abs(row - want) <= 1e-13 * scale)

    def test_linear_scores_of_every_box(self):
        """planes[c, i, j] = sum_d w[d, i, j] F[d] gives <w, roi_align(F,
        box)> for every box, in float64 up to rounding; a negated column
        gives the negated sums exactly."""
        rng = np.random.default_rng(47)
        D, H, W, ph, pw = 4, 17, 19, 3, 4
        F = rng.normal(0, 1, (D, H, W)).astype(np.float32)
        w = rng.normal(0, 1, (D, ph, pw))
        G = np.einsum("dij,dyx->ijyx", w, F.astype(np.float64))
        boxes = bin_sum_boxes(rng, W, H)
        for s in (1, 2, 3):
            got = roi_align_bin_sums(np.stack([G, -G]), as_xyxy(boxes), s)
            want = [float((w * roi_align(F, b, ph, pw, s).data).sum())
                    for b in boxes]
            assert got.shape == (len(boxes), 2)
            assert np.allclose(got[:, 0], want, rtol=1e-6, atol=1e-6)
            assert np.array_equal(got[:, 1], -got[:, 0])

    def test_blocks_of_boxes_and_keys(self, monkeypatch):
        """Stepping through boxes and keys three at a time gives the sums
        of one step, up to rounding."""
        rng = np.random.default_rng(61)
        planes = rng.normal(0, 1, (2, 2, 3, 13, 11))
        xyxy = as_xyxy(bin_sum_boxes(rng, 11, 13) * 2)
        whole = roi_align_bin_sums(planes, xyxy, 2)
        monkeypatch.setattr(roi_ops, "ALIGN_SUM_BLOCK", 3)
        stepped = roi_align_bin_sums(planes, xyxy, 2)
        scale = roi_align_bin_sums(np.abs(planes), xyxy, 2)
        assert np.all(np.abs(stepped - whole) <= 1e-13 * scale)

    def test_no_boxes(self):
        planes = np.zeros((2, 3, 2, 5, 6))
        assert roi_align_bin_sums(planes, np.zeros((0, 4)), 2).shape == (0, 2)

    def test_planes_rank_checked(self):
        with pytest.raises(ShapeError):
            roi_align_bin_sums(np.zeros((3, 2, 5, 6)), np.zeros((1, 4)), 2)


class TestRoiAlignBackward:
    def test_gradient_mass_preserved_for_interior_roi(self):
        F = np.zeros((2, 20, 20), dtype=np.float32)
        m = roi_align(F, Box(4.2, 5.1, 14.3, 15.2), 7, 7, 2)
        g = roi_align_backward(np.ones((2, 7, 7), dtype=np.float32), m,
                               (2, 20, 20))
        # weights sum to 1 per sample, averaged per bin => mass = ph*pw
        assert g[0].sum() == pytest.approx(49.0, rel=1e-5)
        assert g[1].sum() == pytest.approx(49.0, rel=1e-5)

    def test_gradcheck(self):
        rng = np.random.default_rng(51)
        F = rng.normal(0, 3, (2, 12, 12)).astype(np.float32)
        r = Box(1.7, 0.9, 10.4, 9.8)
        w = rng.normal(0, 1, (2, 5, 5)).astype(np.float32)
        analytic = roi_align_backward(w, roi_align(F, r, 5, 5, 2), F.shape)

        def f(x):
            return float((w.astype(np.float64)
                          * roi_align(x, r, 5, 5, 2).data).sum()), None

        report = check(f, F, analytic, h=1e-2, probes=150)
        assert report.max_rel_error <= 1e-3

    def test_bit_identical_to_add_at_accumulation(self):
        """The documented summation: per corner, np.add.at in C order over
        (D, samples), starting from zero, over the whole map.  Random RoIs,
        RoIs clamped at the left, top, right and bottom border, and
        whole-map RoIs, whose windows reach every border."""
        rng = np.random.default_rng(53)
        clamped = [Box(-3.0, 2.0, 4.0, 8.0), Box(2.0, -3.0, 8.0, 4.0),
                   Box(9.0, 2.0, 16.0, 8.0), Box(2.0, 7.0, 8.0, 14.0),
                   Box(0.0, 0.0, 13.0, 11.0), Box(-4.0, -4.0, 17.0, 15.0)]
        for k in range(20 + len(clamped)):
            F = rng.normal(0, 1, (3, 11, 13)).astype(np.float32)
            r = random_roi(rng, 13, 11) if k < 20 else clamped[k - 20]
            m = roi_align(F, r, 4, 3, 2)
            g = (rng.normal(0, 1, (3, 4, 3))
                 * 10.0 ** rng.integers(-4, 5, (3, 4, 3))).astype(np.float32)
            y, x = m.samples.reshape(-1, 2).T
            y0 = np.minimum(np.floor(y).astype(np.int64), 10)
            x0 = np.minimum(np.floor(x).astype(np.int64), 12)
            y1, x1 = np.minimum(y0 + 1, 10), np.minimum(x0 + 1, 12)
            ly, lx = y - y0, x - x0
            corners = [(y0, x0, (1 - ly) * (1 - lx)), (y0, x1, (1 - ly) * lx),
                       (y1, x0, ly * (1 - lx)), (y1, x1, ly * lx)]
            per_sample = np.repeat(g.reshape(3, 12).astype(np.float64) / 4, 4, axis=1)
            want = np.zeros((3, 11, 13))
            for cy, cx, wgt in corners:
                np.add.at(want, (slice(None), cy, cx), per_sample * wgt[None, :])
            got = roi_align_backward(g, m, F.shape)
            assert got.tobytes() == want.astype(np.float32).tobytes()

    def test_shape_mismatch_rejected(self):
        F = np.zeros((1, 8, 8), dtype=np.float32)
        m = roi_align(F, Box(0, 0, 8, 8), 2, 2, 2)
        with pytest.raises(ShapeError):
            roi_align_backward(np.zeros((2, 2, 2), dtype=np.float32), m, (1, 8, 8))

    @pytest.mark.parametrize("out", [np.zeros((1, 8, 9), dtype=np.float32),
                                     np.zeros((1, 8, 8))],
                             ids=["shape", "dtype"])
    def test_bad_out_rejected(self, out):
        """out must be the float32 D x H x W map; it is left untouched."""
        m = roi_align(np.ones((1, 8, 8), dtype=np.float32),
                      Box(1, 1, 7, 7), 2, 2, 2)
        with pytest.raises(ShapeError, match="out must be float32"):
            roi_align_backward(np.ones((1, 2, 2), dtype=np.float32), m,
                               (1, 8, 8), out=out)
        assert not out.any()


ALIGN_LAYOUT_KINDS = ("float32", "float64", "subnormal", "signed-zeros",
                      "constant")


def align_layout_map(rng, kind):
    """A D x 11 x 13 map of one ALIGN_LAYOUT_KINDS kind, D >= 2 so its
    two layouts differ."""
    shape = (int(rng.integers(2, 6)), 11, 13)
    if kind == "signed-zeros":
        return rng.choice(np.float32([-1.0, -0.0, 0.0, 1.0]), shape)
    if kind == "constant":
        return np.full(shape, rng.normal(), dtype=np.float32)
    F = rng.normal(0, 1, shape)
    if kind == "subnormal":  # float32 values below 2^-126
        return (F * 2.0 ** -135).astype(np.float32)
    return F if kind == "float64" else F.astype(np.float32)


ALIGN_CLAMPED = [Box(-3.0, 2.0, 4.0, 8.0), Box(2.0, -3.0, 8.0, 4.0),
                 Box(9.0, 2.0, 16.0, 8.0), Box(2.0, 7.0, 8.0, 14.0),
                 Box(-4.0, -4.0, 17.0, 15.0)]


class TestRoiAlignLayouts:
    """roi_align gives the same bits on a D-major map and its pixel-major
    copy, and roi_align_backward(out=) adds into out what the standalone
    pass returns."""

    @pytest.mark.parametrize("kind", ALIGN_LAYOUT_KINDS)
    def test_layouts_give_the_same_bits(self, kind):
        """1-4 samples per bin (a mean over 9 or 16 samples sums pairwise
        only on a contiguous axis), random and border-clamped boxes."""
        rng = np.random.default_rng([97, ALIGN_LAYOUT_KINDS.index(kind)])
        for k in range(40):
            F = align_layout_map(rng, kind)
            r = (random_roi(rng, 13, 11) if k < 30
                 else ALIGN_CLAMPED[k % len(ALIGN_CLAMPED)])
            ph, pw = (int(v) for v in rng.integers(1, 6, 2))
            s = k % 4 + 1
            want = roi_align(F, r, ph, pw, s)
            got = roi_align(layouts(F)[1], r, ph, pw, s)
            assert got.data.tobytes() == want.data.tobytes()
            assert got.samples.tobytes() == want.samples.tobytes()

    def test_sixteen_sample_mean_is_taken_on_a_contiguous_axis(self):
        """One bin of Box(0, 0, 8, 8) at 4 x 4 samples reads the map at
        (1, 3, 5, 7)^2 with weight 1.  These 16 values sum to just above
        16 * (1 + 2^-24) in numpy's pairwise order on a contiguous axis,
        and to that float32 midpoint sequentially (as a mean over the
        transposed layout sums them), so the cast rounds them apart."""
        e = [-2.0 ** -50, 2.0 ** -50, 2.0 ** -49, 0.0, 16.0, 2.0 ** -20]
        values = np.array([e[i] for i in (0, 1, 4, 0, 2, 0, 3, 3, 2, 1, 1, 0,
                                          5, 2, 1, 1)])
        F = np.zeros((2, 9, 9))
        F[:, 1::2, 1::2] = values.reshape(4, 4) * np.array([1.0, -1.0])[
            :, None, None]
        want = np.float32(values.reshape(1, 16).mean(axis=1)) * np.float32(
            [1.0, -1.0])
        assert want[0] == np.float32(1.0 + 2.0 ** -23)
        for G in layouts(F):
            got = roi_align(G, Box(0.0, 0.0, 8.0, 8.0), 1, 1, 4)
            assert got.data.reshape(-1).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ALIGN_LAYOUT_KINDS)
    def test_backward_out_adds_the_standalone_pass(self, kind):
        """out holding random values and zeros of both signs inside the
        window; tiny gradients whose sums cast to -0.0 too."""
        rng = np.random.default_rng([98, ALIGN_LAYOUT_KINDS.index(kind)])
        for k in range(30):
            F = align_layout_map(rng, kind)
            r = (random_roi(rng, 13, 11) if k < 20
                 else ALIGN_CLAMPED[k % len(ALIGN_CLAMPED)])
            m = roi_align(layouts(F)[k % 2], r, 3, 4, k % 4 + 1)
            g = rng.normal(0, 1, m.data.shape).astype(np.float32)
            if k % 3 == 0:
                g = rng.choice(np.float32([-1e-45, 1e-45]), g.shape)
            alone = roi_align_backward(g, m, F.shape)
            o = rng.normal(0, 1, F.shape).astype(np.float32)
            o[rng.random(F.shape) < 0.2] = 0.0
            y, x = np.floor(m.samples.reshape(-1, 2).T).astype(int)
            window = np.zeros(F.shape, dtype=bool)
            window[:, y.min():y.max() + 2, x.min():x.max() + 2] = True
            o[window & (rng.random(F.shape) < 0.3)] = -0.0
            want = o + alone
            assert roi_align_backward(g, m, F.shape, out=o) is o
            assert o.tobytes() == want.tobytes()

    def test_tiny_negative_gradient_keeps_negative_zeros(self):
        """A -1e-45 gradient sums to tiny negatives over the 6 x 6 window,
        each cast to -0.0, which the standalone pass keeps."""
        m = roi_align(np.zeros((1, 8, 8), dtype=np.float32),
                      Box(1.3, 1.3, 5.7, 5.7), 2, 2, 2)
        g = roi_align_backward(np.full((1, 2, 2), -1e-45, dtype=np.float32),
                               m, (1, 8, 8))
        assert not g.any()
        assert int(np.signbit(g).sum()) == 36


# (lo, hi) spans of one axis of a 13-long map: -0.0 corners (the last
# gives -0.0 coordinates, which the clamp keeps), clamped at the low, the
# high and both borders, and wide enough (>= 2.5e307) for the halves rule
ALIGN_AXES = [(-0.0, 5.5), (-0.0, 5e-324), (-0.0, -5e-324), (-3.0, 4.0),
              (9.0, 16.0), (-4.0, 17.0), (2.0, 7.25), (1.3, 1.3 + 2.0 ** -40),
              (-2.61e307, 9e305), (0.0, 5e307), (-1e308, 1e308)]


class TestAlignTaps:
    """roi_align computes each axis's sample coordinates on Python floats
    and keeps the corner taps it read on the map for roi_align_backward:
    both give the bits of the array path they replace."""

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_scalar_axis_coords_match_array_path(self, s):
        wide = negative_zero = 0
        for lo, hi in ALIGN_AXES:
            for bins in (1, 3, 7):
                want = roi_ops._align_axis_coords(
                    np.array([lo]), np.array([hi]), bins, s, 13).reshape(-1)
                got = roi_ops._box_axis_coords(lo, hi, bins, s, 13)
                assert got.tobytes() == want.tobytes()
                wide += not math.isfinite((bins - 0.5 / s) * (hi - lo))
                negative_zero += bool(np.signbit(got[got == 0.0]).any())
        assert wide >= 4 and negative_zero >= 1

    def test_scalar_axis_coords_on_clamped_boxes(self):
        """Every ALIGN_CLAMPED box, on both axes, at 1 to 7 bins."""
        for s in (1, 2, 3, 4):
            for r in ALIGN_CLAMPED:
                for (lo, hi), limit in (((r.x1, r.x2), 13), ((r.y1, r.y2), 11)):
                    for bins in range(1, 8):
                        want = roi_ops._align_axis_coords(
                            np.array([lo], dtype=np.float64),
                            np.array([hi], dtype=np.float64), bins, s, limit)
                        got = roi_ops._box_axis_coords(lo, hi, bins, s, limit)
                        assert got.tobytes() == want.reshape(-1).tobytes()

    @pytest.mark.parametrize("kind", ALIGN_LAYOUT_KINDS)
    def test_backward_from_taps_equals_backward_from_samples(
            self, kind, monkeypatch):
        """A map carrying roi_align's taps and the same map with samples
        alone give the same gradient bytes, standalone and added into out;
        only the latter computes taps."""
        rng = np.random.default_rng([99, ALIGN_LAYOUT_KINDS.index(kind)])
        calls = []
        real = roi_ops._bilinear_corners

        def counting(*args):
            calls.append(args[0].shape)
            return real(*args)

        for k in range(25):
            F = align_layout_map(rng, kind)
            r = (random_roi(rng, 13, 11) if k < 20
                 else ALIGN_CLAMPED[k % len(ALIGN_CLAMPED)])
            m = roi_align(layouts(F)[k % 2], r, 3, 4, k % 4 + 1)
            bare = roi_ops.RoIMap(m.data, r, m.map_hw, samples=m.samples)
            assert m.taps is not None and bare.taps is None
            g = rng.normal(0, 1, m.data.shape).astype(np.float32)
            if k % 3 == 0:
                g = rng.choice(np.float32([-1e-45, 1e-45]), g.shape)
            o = rng.normal(0, 1, F.shape).astype(np.float32)
            o[rng.random(F.shape) < 0.3] = -0.0
            o_bare = o.copy()
            monkeypatch.setattr(roi_ops, "_bilinear_corners", counting)
            got = [roi_align_backward(g, m, F.shape),
                   roi_align_backward(g, m, F.shape, out=o)]
            assert calls == []
            want = [roi_align_backward(g, bare, F.shape),
                    roi_align_backward(g, bare, F.shape, out=o_bare)]
            assert len(calls) == 2
            calls.clear()
            monkeypatch.undo()
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()

    def test_four_sample_mean_sums_in_order(self):
        """One bin of Box(0, 0, 8, 8) at 2 x 2 samples reads the map at
        (2, 6)^2 with weight 1.  In order, 1e16 + 1 - 1e16 + 1e-16 sums to
        1e-16, as np.mean sums 4 elements; pairwise or in reverse it sums
        to 0.  The strided mean of either layout must give np.mean's."""
        values = np.array([1e16, 1.0, -1e16, 1e-16])
        F = np.zeros((2, 9, 9))
        F[:, 2::4, 2::4] = values.reshape(2, 2) * np.array([1.0, -1.0])[
            :, None, None]
        want = np.float32(values.reshape(1, 4).mean(axis=1)) * np.float32(
            [1.0, -1.0])
        assert want[0] == np.float32(2.5e-17)
        for G in layouts(F):
            got = roi_align(G, Box(0.0, 0.0, 8.0, 8.0), 1, 1, 2)
            assert got.data.reshape(-1).tobytes() == want.tobytes()


def query_maps():
    """(F, rects) for the maps of the query tests: level counts and extents
    at and next to powers of two, and negative data, so a read of a cell
    the build never wrote (a zero) shows; rects is every rectangle."""
    rng = np.random.default_rng(53)
    for H, W in [(1, 1), (1, 5), (5, 1), (2, 2), (3, 7), (8, 8),
                 (9, 17), (16, 15), (33, 4)]:
        normal = rng.normal(0, 1, (3, H, W)).astype(np.float32)
        ints = rng.integers(-3, 2, (3, H, W)).astype(np.float32)
        signed = rng.choice(np.float32([-1.0, -0.0, 0.0, 1.0]), (3, H, W))
        rects = np.array([(y0, y1, x0, x1)
                          for y0 in range(H) for y1 in range(y0 + 1, H + 1)
                          for x0 in range(W) for x1 in range(x0 + 1, W + 1)])
        for F in (normal, ints, signed):
            yield F, rects


def assert_direct_max(F, rects, got):
    want = np.stack([F[:, y0:y1, x0:x1].max(axis=(1, 2))
                     for y0, y1, x0, x1 in rects])
    assert np.array_equal(got, want)
    # np.max may keep the other zero of a -0.0 / +0.0 tie
    if not (np.signbit(F) & (F == 0)).any():
        assert got.tobytes() == want.tobytes()


class TestRangeMaxTable:
    def test_query_matches_direct_max(self):
        """Every rectangle of each map in one query."""
        for F, rects in query_maps():
            assert_direct_max(F, rects, RangeMaxTable(F).query(*rects.T))

    def test_levels_built_on_demand(self):
        """Queries that need a taller level, then a wider one, then both:
        each grows the table only as far as it needs and answers as the
        direct max."""
        for F, rects in query_maps():
            _, H, W = F.shape
            h, w = rects[:, 1] - rects[:, 0], rects[:, 3] - rects[:, 2]
            table = RangeMaxTable(F)
            shapes = [table._levels.shape[:2]]
            for part in ((w == 1) & (h <= max(1, H // 2)),
                         (h == 1) & (w <= max(1, W // 2)),
                         np.ones(len(rects), dtype=bool)):
                assert_direct_max(F, rects[part], table.query(*rects[part].T))
                shapes.append(table._levels.shape[:2])
            assert shapes[-1] == (H.bit_length(), W.bit_length())
            if H >= 4 and W >= 4:
                (a0, b0), (a1, b1), (a2, b2), (a3, b3) = shapes
                assert (a0, b0) == (1, 1)
                assert a1 > a0 and b1 == b0
                assert a2 == a1 and b2 > b1
                assert a3 > a2 and b3 > b2

    def test_empty_query_builds_nothing(self):
        F = np.random.default_rng(54).normal(0, 1, (5, 9, 17)).astype(np.float32)
        table = RangeMaxTable(F)
        none = np.zeros(0, dtype=np.int64)
        got = table.query(none, none, none, none)
        assert got.shape == (0, 5) and got.dtype == np.float32
        assert table._levels.shape[:2] == (1, 1)

    def test_level0_is_the_map_pixel_major(self):
        """Level (0, 0) holds the map's float32 values, H x W x D, and a
        query that grows the table copies it into the new block: the
        outgrown block is freed."""
        F = np.random.default_rng(55).normal(0, 1, (4, 9, 11))
        table = RangeMaxTable(F)
        want = F.astype(np.float32).transpose(1, 2, 0).tobytes()
        assert table._levels[0, 0].flags.c_contiguous
        assert table._levels[0, 0].tobytes() == want
        outgrown = weakref.ref(table._levels)
        table.query([0], [9], [0], [11])
        assert outgrown() is None
        assert table._levels[0, 0].tobytes() == want

    def test_build_allocates_level0_only(self):
        """At D=512 64x64 the full table is 7x7 levels of 8 MiB (392 MiB);
        the build allocates level 0, and a query of 3x3 rectangles keeps
        at most 3 more levels, with the outgrown level 0 alive only while
        it is copied."""
        level = 512 * 64 * 64 * 4
        F = np.random.default_rng(56).normal(0, 1, (512, 64, 64)).astype(
            np.float32)
        y0 = np.arange(0, 61, 3)
        tracemalloc.start()
        try:
            table = RangeMaxTable(F)
            built, build_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            out = table.query(y0, y0 + 3, y0, y0 + 3)
            after, query_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        slack = 1 << 20
        assert level <= built and build_peak <= level + slack
        assert table._levels.shape[:2] == (2, 2)
        assert after - built <= 3 * level + out.nbytes + slack
        assert query_peak <= 5 * level + slack

    def test_one_channel_rows(self):
        """At D=1 each gathered row is one 4-byte float: query gives the
        direct max and pool_boxes roi_pool's maps, byte for byte."""
        rng = np.random.default_rng(58)
        for H, W in [(1, 1), (1, 6), (7, 1), (9, 17), (16, 15)]:
            rects = np.array([(y0, y1, x0, x1)
                              for y0 in range(H) for y1 in range(y0 + 1, H + 1)
                              for x0 in range(W) for x1 in range(x0 + 1, W + 1)])
            for F in (rng.normal(0, 1, (1, H, W)).astype(np.float32),
                      rng.integers(-3, 2, (1, H, W)).astype(np.float32)):
                got = RangeMaxTable(F).query(*rects.T)
                want = np.stack([F[:, y0:y1, x0:x1].max(axis=(1, 2))
                                 for y0, y1, x0, x1 in rects])
                assert got.shape == (len(rects), 1)
                assert got.tobytes() == want.tobytes()
        F = rng.normal(0, 1, (1, 23, 19)).astype(np.float32)
        boxes = [random_roi(rng, 19, 23, min_size=1.0).clip(19, 23)
                 for _ in range(60)]
        got = RangeMaxTable(F).pool_boxes(as_xyxy(boxes), 5, 4)
        want = np.stack([roi_pool(F, b, 5, 4).data for b in boxes])
        assert got.shape == (60, 1, 5, 4)
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_pool_boxes_bit_equals_roi_pool(self):
        rng = np.random.default_rng(59)
        F = rng.normal(0, 1, (4, 32, 32)).astype(np.float32)
        table = RangeMaxTable(F)
        boxes = [random_roi(rng, 32, 32, min_size=2.0).clip(32, 32)
                 for _ in range(50)]
        batch = table.pool_boxes(as_xyxy(boxes), 7, 7)
        for k, b in enumerate(boxes):
            assert np.array_equal(batch[k], roi_pool(F, b, 7, 7).data)

    def test_pool_boxes_equals_roi_pool_on_signed_zeros(self):
        """Equal in value; the sign of a zero maximum may differ."""
        rng = np.random.default_rng(67)
        F = rng.choice(np.float32([-1.0, -0.0, 0.0, 1.0]), (2, 6, 7))
        boxes = [random_roi(rng, 7, 6, min_size=1.0).clip(7, 6)
                 for _ in range(50)]
        batch = RangeMaxTable(F).pool_boxes(as_xyxy(boxes), 3, 2)
        want = np.stack([roi_pool(F, b, 3, 2).data for b in boxes])
        assert np.array_equal(batch, want)
        assert (want == 0).any()

    def test_empty_rectangles_give_zeros(self):
        """A bin narrower than its coordinates' rounding is empty; the
        table pools it to zeros, as roi_pool does, and the other bins
        as before."""
        F = np.random.default_rng(61).normal(0, 1, (2, 12, 12)).astype(np.float32)
        table = RangeMaxTable(F)
        rects = np.array([[3, 3, 2, 5], [2, 5, 4, 4], [12, 12, 12, 12],
                          [2, 5, 4, 7]])
        out = table.query(*rects.T)
        assert not out[:3].any()
        assert np.array_equal(out[3], F[:, 2:5, 4:7].max(axis=(1, 2)))
        x2 = np.nextafter(np.nextafter(3.0, 4.0), 4.0)
        box = Box(3.0, 2.0, x2, 9.0)
        assert (bin_edges(3.0, x2 - 3.0, 7, 12)[1] == 3).any()
        assert np.array_equal(table.pool_boxes(as_xyxy([box]), 7, 7)[0],
                              roi_pool(F, box, 7, 7).data)

    def test_empty_bins_are_positive_zeros_on_both_paths(self):
        """roi_pool's empty bins and the table's empty rectangles are both
        +0.0, so an empty bin never tells the paths apart, even on a map
        of negatives and -0.0."""
        F = -np.abs(np.random.default_rng(63).normal(0, 1, (2, 12, 12)))
        F = F.astype(np.float32)
        F[:, ::3, ::3] = -0.0
        x2 = np.nextafter(np.nextafter(3.0, 4.0), 4.0)
        box = Box(3.0, 3.0, x2, 9.0)
        pooled = roi_pool(F, box, 7, 7)
        empty = pooled.argmax == EMPTY_BIN
        assert empty.any() and not np.signbit(pooled.data[empty]).any()
        V, ids = RangeMaxTable(F).pool_xyxy(as_xyxy([box]), 7, 7)
        rows = np.take(V, ids[0], axis=0).T.reshape(2, 7, 7)
        assert rows[empty].tobytes() == pooled.data[empty].tobytes()

    def test_holds_negative_zero_reads_level_zero(self):
        """True exactly when the map cast to float32 holds a -0.0: a
        float64 value too small for float32 casts to a zero of its sign."""
        rng = np.random.default_rng(67)
        gauss = rng.normal(0, 1, (3, 9, 11))
        relu = np.maximum(gauss, 0.0)
        one = relu.astype(np.float32)
        one[1, 4, 5] = -0.0
        tiny = relu.copy()
        tiny[2, 0, 0] = -1e-50
        for F, want in ((gauss.astype(np.float32), False),
                        (relu.astype(np.float32), False), (relu, False),
                        (one, True), (tiny, True), (-tiny * 1e-300, True),
                        (np.zeros((1, 2, 2), dtype=np.float32), False)):
            assert RangeMaxTable(F).holds_negative_zero() is want

    def test_pool_boxes_equals_pool_xyxy_rows(self):
        """pool_xyxy gives one row of V per distinct bin rectangle, and
        pool_boxes expands V[ids] to (K, D, ph, pw)."""
        rng = np.random.default_rng(61)
        F = rng.normal(0, 1, (5, 29, 31)).astype(np.float32)
        table = RangeMaxTable(F)
        boxes = [random_roi(rng, 31, 29, min_size=2.0).clip(31, 29)
                 for _ in range(40)]
        # repeat boxes so that many bins share a rectangle
        boxes += boxes[:10]
        xyxy = as_xyxy(boxes)
        V, ids = table.pool_xyxy(xyxy, 6, 4)
        assert ids.shape == (50, 24) and V.shape[1] == 5
        ys, ye = bin_edges(xyxy[:, 1], xyxy[:, 3] - xyxy[:, 1], 6, 29)
        xs, xe = bin_edges(xyxy[:, 0], xyxy[:, 2] - xyxy[:, 0], 4, 31)
        rects = [(ys[k, i], ye[k, i], xs[k, j], xe[k, j])
                 for k in range(50) for i in range(6) for j in range(4)]
        # a row per distinct rectangle, each holding that rectangle's maxima
        row_of = dict(zip(rects, ids.reshape(-1).tolist()))
        assert sorted(row_of.values()) == list(range(len(V)))
        assert len(V) < 50 * 24
        for (y0, y1, x0, x1), row in row_of.items():
            assert np.array_equal(V[row], F[:, y0:y1, x0:x1].max(axis=(1, 2)))
        assert all(row_of[rect] == row for rect, row
                   in zip(rects, ids.reshape(-1).tolist()))
        got = table.pool_boxes(xyxy, 6, 4)
        want = V[ids].reshape(50, 6, 4, 5).transpose(0, 3, 1, 2)
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    @staticmethod
    def _unique_codes_oracle(table, xyxy, ph, pw):
        """pool_xyxy as one np.unique over a mixed-radix code per bin
        rectangle, its (y0, y1, x0, x1) read as digits."""
        _, H, W = table.dims
        ys, ye = bin_edges(xyxy[:, 1], xyxy[:, 3] - xyxy[:, 1], ph, H)
        xs, xe = bin_edges(xyxy[:, 0], xyxy[:, 2] - xyxy[:, 0], pw, W)
        code = ((ys * (H + 1) + ye)[:, :, None] * (W + 1)
                + xs[:, None, :]) * (W + 1) + xe[:, None, :]
        rects, ids = np.unique(code, return_inverse=True)
        rects, x1 = np.divmod(rects, W + 1)
        rects, x0 = np.divmod(rects, W + 1)
        y0, y1 = np.divmod(rects, H + 1)
        return table.query(y0, y1, x0, x1), ids.reshape(len(xyxy), ph * pw)

    @pytest.mark.parametrize("H, W", [(1, 37), (37, 1), (23, 23)])
    def test_pool_xyxy_equals_unique_codes_oracle(self, H, W):
        """Rows of V in the order of the sorted bin codes, so V and ids
        are bit-identical to the oracle's; few boxes and many, so both the
        sorting and the table-marking dedupe run."""
        rng = np.random.default_rng(71 + H)
        F = rng.normal(0, 1, (3, H, W)).astype(np.float32)
        table = RangeMaxTable(F)

        def edges(n, limit):
            lo = rng.uniform(0.0, limit - 0.25, n)
            hi = lo + rng.uniform(0.25, limit, n)
            # a third of the boxes start or end on the map border
            lo[rng.random(n) < 0.3] = 0.0
            hi[rng.random(n) < 0.3] = limit
            return lo, np.minimum(hi, limit)

        for n in (1, 3, 40, 600):
            x1, x2 = edges(n, W)
            y1, y2 = edges(n, H)
            xyxy = np.stack([x1, y1, x2, y2], axis=1)
            for ph, pw in ((1, 1), (3, 2), (7, 7)):
                V, ids = table.pool_xyxy(xyxy, ph, pw)
                want_V, want_ids = self._unique_codes_oracle(table, xyxy,
                                                             ph, pw)
                assert V.tobytes() == want_V.tobytes()
                assert np.array_equal(ids, want_ids)
