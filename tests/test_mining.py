import tracemalloc
import weakref

import numpy as np
import pytest

from roictx import mining
from roictx.errors import DegenerateBoxError, NumericError, ShapeError
from roictx.geometry import Box, iou
from roictx.gradcheck import check
from roictx.mining import CandidateGridSpec, ContextScorer, DIRECTIONS, \
    ContextMiner, MiningConfig, build_layout, candidate_pool_for_cell, \
    fixed_context_variant, mine_context, mine_context_backward, mine_many, \
    mined_to_record, selection_indices
from roictx.roi_ops import RangeMaxTable, roi_align, roi_pool


def interior_roi(rng, size, lo_frac=0.34, hi_frac=0.66, min_wh=3.0, max_wh=10.0):
    """Object RoI whose whole 3x3 cell grid stays inside a size x size map."""
    w = rng.uniform(min_wh, max_wh)
    h = rng.uniform(min_wh, max_wh)
    x1 = rng.uniform(w, size - 2 * w)
    y1 = rng.uniform(h, size - 2 * h)
    return Box(float(x1), float(y1), float(x1 + w), float(y1 + h))


def pool_oracle_for_cell(cell, grid, bounds):
    """Independent re-derivation of the pool pipeline: nested loops in the
    documented (oy, ox, sh, sw) order, scalar arithmetic, all edge lengths
    measured from corner coordinates."""
    cw = cell.x2 - cell.x1
    ch = cell.y2 - cell.y1
    if cw <= 0 or ch <= 0:
        return None
    ccx = cell.x1 + 0.5 * cw
    ccy = cell.y1 + 0.5 * ch
    anchor = Box(ccx - 0.5 * (0.5 * cw), ccy - 0.5 * (0.5 * ch),
                 ccx + 0.5 * (0.5 * cw), ccy + 0.5 * (0.5 * ch))

    def ok(b, ref):
        w, h = b.x2 - b.x1, b.y2 - b.y1
        if min(w, h) < grid.short_edge_frac * min(cw, ch):
            return False
        if max(w, h) > max(cw, ch):
            return False
        return iou(b, ref) >= grid.anchor_iou_min

    stored_anchor = anchor
    if bounds is not None:
        width, height = bounds
        stored_anchor = anchor.clip(width, height)
        if stored_anchor.area <= 0.0 or (min(stored_anchor.w, stored_anchor.h)
                                         < grid.short_edge_frac * min(cw, ch)):
            return None

    kept = []
    for oy in grid.offset_fracs:
        for ox in grid.offset_fracs:
            for sh in grid.size_fracs:
                for sw in grid.size_fracs:
                    w = sw * cw
                    h = sh * ch
                    cx = ccx + ox * cw
                    cy = ccy + oy * ch
                    b = Box(cx - 0.5 * w, cy - 0.5 * h,
                            cx + 0.5 * w, cy + 0.5 * h)
                    if not ok(b, anchor):
                        continue
                    if bounds is not None:
                        width, height = bounds
                        b = Box(min(max(b.x1, 0.0), width),
                                min(max(b.y1, 0.0), height),
                                min(max(b.x2, 0.0), width),
                                min(max(b.y2, 0.0), height))
                        if (b.x2 - b.x1) <= 0.0 or (b.y2 - b.y1) <= 0.0:
                            continue
                        if not ok(b, stored_anchor):
                            continue
                    kept.append(b)
    if grid.include_anchor:
        return [stored_anchor] + kept
    return kept or None


class TestBuildLayout:
    def test_right_cell_and_anchor_arithmetic(self):
        layout = build_layout(Box(10, 10, 20, 20))
        assert layout.cells["right"] == Box(20, 10, 30, 20)
        pool = candidate_pool_for_cell(layout.cells["right"],
                                       CandidateGridSpec(), None)
        assert pool[0] == Box(22.5, 12.5, 27.5, 17.5)

    def test_unit_square_left_top_cell(self):
        layout = build_layout(Box(0, 0, 1, 1))
        assert layout.cells["left-top"] == Box(-1, -1, 0, 0)

    def test_all_cells_share_object_shape(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x1, y1 = rng.uniform(0, 30, 2)
            w, h = rng.uniform(0.5, 12, 2)
            layout = build_layout(Box(x1, y1, x1 + w, y1 + h))
            for d in DIRECTIONS:
                cell = layout.cells[d]
                assert cell.w == pytest.approx(w, rel=1e-12)
                assert cell.h == pytest.approx(h, rel=1e-12)

    def test_cell_centers_displaced_by_object_size(self):
        r = Box(5.0, 7.0, 11.0, 15.0)
        layout = build_layout(r)
        assert layout.cells["top"].cx == pytest.approx(r.cx)
        assert layout.cells["top"].cy == pytest.approx(r.cy - r.h)
        assert layout.cells["left-bottom"].cx == pytest.approx(r.cx - r.w)
        assert layout.cells["left-bottom"].cy == pytest.approx(r.cy + r.h)

    def test_degenerate_roi_rejected(self):
        with pytest.raises(DegenerateBoxError):
            build_layout(Box(3, 3, 3, 8))


class TestCandidatePool:
    def test_default_grid_has_400_raw_candidates(self):
        grid = CandidateGridSpec()
        assert (len(grid.offset_fracs) * len(grid.size_fracs)) ** 2 == 400
        assert all(a.size == 400 for a in mining._grid_combos(grid))

    def test_matches_brute_force_oracle_interior(self):
        grid = CandidateGridSpec()
        pool = candidate_pool_for_cell(Box(20, 20, 30, 28), grid, (64, 64))
        want = pool_oracle_for_cell(Box(20, 20, 30, 28), grid, (64, 64))
        assert pool == want
        assert pool[0] == Box(22.5, 22.0, 27.5, 26.0)

    def test_matches_brute_force_oracle_random_cells(self):
        rng = np.random.default_rng(13)
        grid = CandidateGridSpec()
        for _ in range(100):
            w = rng.uniform(2.0, 20.0)
            h = rng.uniform(2.0, 20.0)
            x1 = rng.uniform(-10.0, 60.0)
            y1 = rng.uniform(-10.0, 60.0)
            cell = Box(x1, y1, x1 + w, y1 + h)
            pool = candidate_pool_for_cell(cell, grid, (64.0, 64.0))
            want = pool_oracle_for_cell(cell, grid, (64.0, 64.0))
            if pool is None:
                assert want is None
            else:
                assert pool == want

    def test_interior_survivors_satisfy_iou_constraint(self):
        pool = candidate_pool_for_cell(Box(20, 20, 30, 28),
                                       CandidateGridSpec(), (64, 64))
        anchor = pool[0]
        for b in pool[1:]:
            assert iou(b, anchor) >= 0.3

    def test_anchor_is_half_cell_centered(self):
        pool = candidate_pool_for_cell(Box(0, 0, 8, 4), CandidateGridSpec(),
                                       None)
        assert pool[0] == Box(2, 1, 6, 3)

    def test_anchor_fully_outside_gives_fallback(self):
        cell = Box(-20, -20, -10, -12)
        assert candidate_pool_for_cell(cell, CandidateGridSpec(), (64, 64)) is None

    def test_anchor_clipped_to_sliver_gives_fallback(self):
        # anchor occupies the center half; clipping it to a sliver thinner
        # than a third of the cell's short edge empties the pool
        cell = Box(-9.2, 10.0, 0.8, 20.0)
        assert candidate_pool_for_cell(cell, CandidateGridSpec(), (64, 64)) is None

    def test_singleton_grid_without_anchor_pins_full_cell(self):
        grid = CandidateGridSpec(offset_fracs=(0.0,), size_fracs=(1.0,),
                                 anchor_iou_min=0.0, include_anchor=False)
        cell = Box(12.0, 8.0, 20.0, 14.0)
        pool = candidate_pool_for_cell(cell, grid, (64, 64))
        assert len(pool) == 1
        got = pool[0]
        for a, b in zip((got.x1, got.y1, got.x2, got.y2),
                        (cell.x1, cell.y1, cell.x2, cell.y2)):
            assert a == pytest.approx(b, abs=1e-12)


class TestScoreCandidates:
    def _setup(self, seed=17):
        rng = np.random.default_rng(seed)
        F = rng.normal(0, 1, (3, 32, 32)).astype(np.float32)
        cell = Box(10.0, 12.0, 18.0, 19.0)
        pool = candidate_pool_for_cell(cell, CandidateGridSpec(), (32, 32))
        flats = np.stack([roi_pool(F, b, 5, 5).data.reshape(-1) for b in pool])
        return rng, flats

    def test_zero_scorer_gives_zero_scores(self):
        _, flats = self._setup()
        scores = ContextScorer.zeros(3, 5, 5).score_flat(flats)
        assert scores.shape == (flats.shape[0],)
        assert all(s == 0.0 for s in scores)

    def test_one_hot_weights_pick_out_one_element(self):
        _, flats = self._setup()
        w = np.zeros(3 * 5 * 5, dtype=np.float32)
        w[31] = 1.0
        scores = ContextScorer(w, 0.0).score_flat(flats)
        for s, flat in zip(scores, flats):
            assert s == pytest.approx(float(flat[31]), rel=1e-12)

    def test_lone_row_scores_as_in_matrix(self):
        """D*ph*pw = 12544 exceeds einsum's 8192-element buffer."""
        rng = np.random.default_rng(41)
        X = rng.normal(0, 1, (12, 256 * 49)).astype(np.float32)
        scorer = ContextScorer(rng.normal(0, 1, 256 * 49).astype(np.float32), 0.3)
        whole = scorer.score_flat(X)
        for k in range(X.shape[0]):
            assert scorer.score_flat(X[k:k + 1])[0] == whole[k]
            assert scorer.score_flat(X[k:k + 2])[0] == whole[k]

    def test_matches_matvec_oracle(self):
        rng, flats = self._setup()
        w = rng.normal(0, 1, 3 * 5 * 5).astype(np.float32)
        scores = ContextScorer(w, 0.25).score_flat(flats)
        want = flats.astype(np.float64) @ w.astype(np.float64) + 0.25
        assert np.allclose(scores, want, rtol=1e-10, atol=1e-12)


class TestFirstMax:
    """The one segment first-max rule of the engine and the synthetic
    trainer, against np.argmax on each segment."""

    FIXED = [[-0.0, 0.0], [0.0, -0.0], [1.0, -0.0, 0.0], [-np.inf] * 3,
             [np.inf], [3.0], [1.0, np.inf, np.inf, -np.inf], [2.0] * 4]

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_segment_argmax(self, seed):
        rng = np.random.default_rng(seed)
        pool = np.array([-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf])
        segs = self.FIXED + [rng.choice(pool, n) for n in rng.integers(1, 7, 40)]
        segs = [np.asarray(segs[k], dtype=np.float64)
                for k in rng.permutation(len(segs))]
        starts = np.cumsum([0] + [len(s) for s in segs[:-1]])
        want = starts + np.array([np.argmax(s) for s in segs])
        got = mining._first_max(np.concatenate(segs), starts)
        assert np.array_equal(got, want)


class TestMineContext:
    def test_zero_scorer_selects_anchor_by_tie_rule(self):
        rng = np.random.default_rng(19)
        F = rng.normal(0, 1, (2, 48, 48)).astype(np.float32)
        r = interior_roi(rng, 48)
        mined = mine_context(F, r, ContextScorer.zeros(2, 7, 7))
        assert selection_indices(mined) == (0,) * 8

    @pytest.mark.parametrize("backbone", ["pool", "align"])
    def test_zero_scorer_rescores_one_row_per_cell(self, backbone,
                                                   monkeypatch):
        """Every candidate ties at zero with zero slack: one row per cell
        is scored exactly, not the whole pool, in one call per RoI."""
        rng = np.random.default_rng(59)
        F = rng.normal(0, 1, (3, 40, 40)).astype(np.float32)
        config = MiningConfig(ph=5, pw=5, backbone=backbone)
        rows = []
        real = ContextScorer.score_flat

        def counting(self, flat_feats):
            rows.append(flat_feats.shape[0])
            return real(self, flat_feats)

        monkeypatch.setattr(ContextScorer, "score_flat", counting)
        for r in (interior_roi(rng, 40), Box(0.5, 1.0, 7.0, 9.0)):
            rows.clear()
            mined = mine_context(F, r, ContextScorer.zeros(3, 5, 5), config)
            kept = [rec for rec in mined.selected if not rec.fallback]
            assert rows == [len(kept)]
            assert ([(rec.index, rec.score) for rec in kept]
                    == [(0, 0.0)] * len(kept))

    def test_feature_shape_is_9d(self):
        rng = np.random.default_rng(23)
        F = rng.normal(0, 1, (4, 64, 64)).astype(np.float32)
        r = interior_roi(rng, 64)
        mined = mine_context(F, r, ContextScorer.zeros(4, 7, 7))
        assert mined.feature.shape == (36, 7, 7)

    def test_block0_bit_identical_to_object_pool(self):
        rng = np.random.default_rng(29)
        F = rng.normal(0, 1, (3, 48, 48)).astype(np.float32)
        r = interior_roi(rng, 48)
        scorer = ContextScorer(rng.normal(0, 1, 3 * 49).astype(np.float32), 0.1)
        mined = mine_context(F, r, scorer)
        assert np.array_equal(mined.feature[:3], roi_pool(F, r, 7, 7).data)

    def test_selection_matches_rescoring_oracle(self):
        rng = np.random.default_rng(31)
        config = MiningConfig(ph=5, pw=5)
        for _ in range(20):
            F = rng.normal(0, 1, (2, 48, 48)).astype(np.float32)
            r = interior_roi(rng, 48)
            scorer = ContextScorer(rng.normal(0, 1, 50).astype(np.float32),
                                   float(rng.normal()))
            mined = mine_context(F, r, scorer, config)
            layout = build_layout(r)
            for rec in mined.selected:
                pool_boxes = pool_oracle_for_cell(layout.cells[rec.direction],
                                                  config.grid, (48.0, 48.0))
                flats = np.stack([roi_pool(F, b, 5, 5).data.reshape(-1)
                                  for b in pool_boxes]).astype(np.float64)
                scores = flats @ scorer.weights.astype(np.float64) + scorer.bias
                assert rec.index == int(np.argmax(scores))
                assert rec.box == pool_boxes[rec.index]
                assert rec.score == pytest.approx(float(scores[rec.index]),
                                                  rel=1e-9, abs=1e-9)

    def test_scaling_scorer_keeps_selections(self):
        rng = np.random.default_rng(37)
        F = rng.normal(0, 1, (2, 48, 48)).astype(np.float32)
        scorer = ContextScorer(rng.normal(0, 1, 2 * 49).astype(np.float32), 0.4)
        for _ in range(25):
            r = interior_roi(rng, 48)
            base = selection_indices(mine_context(F, r, scorer))
            for lam in (0.5, 3.0):
                scaled = ContextScorer(scorer.weights * np.float32(lam),
                                       scorer.bias * lam)
                got = selection_indices(mine_context(F, r, scaled))
                assert got == base

    def test_mined_boxes_reverify_pool_constraints(self):
        rng = np.random.default_rng(41)
        F = rng.normal(0, 1, (2, 40, 40)).astype(np.float32)
        scorer = ContextScorer(rng.normal(0, 1, 2 * 49).astype(np.float32), 0.0)
        grid = CandidateGridSpec()
        for _ in range(50):
            # anywhere in the map: cells may stick out and get clipped
            x1 = rng.uniform(0, 32)
            y1 = rng.uniform(0, 32)
            r = Box(x1, y1, x1 + rng.uniform(2, 8), y1 + rng.uniform(2, 8))
            mined = mine_context(F, r, scorer)
            layout = build_layout(r)
            for rec in mined.selected:
                if rec.fallback:
                    continue
                cell = layout.cells[rec.direction]
                anchor = Box.from_center(cell.cx, cell.cy, 0.5 * cell.w,
                                         0.5 * cell.h).clip(40, 40)
                b = rec.box
                assert min(b.w, b.h) >= grid.short_edge_frac * min(cell.w, cell.h)
                assert max(b.w, b.h) <= max(cell.w, cell.h)
                assert iou(b, anchor) >= grid.anchor_iou_min

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(43)
        F = rng.normal(0, 1, (2, 48, 48)).astype(np.float32)
        r = interior_roi(rng, 48)
        scorer = ContextScorer(rng.normal(0, 1, 2 * 49).astype(np.float32), 0.2)
        a = mine_context(F, r, scorer)
        b = mine_context(F, r, scorer)
        assert a.feature.tobytes() == b.feature.tobytes()
        assert selection_indices(a) == selection_indices(b)

    def test_mine_many_equals_mine_context_per_roi(self):
        rng = np.random.default_rng(47)
        F = rng.normal(0, 1, (2, 48, 48)).astype(np.float32)
        rois = [interior_roi(rng, 48) for _ in range(12)]
        scorer = ContextScorer(rng.normal(0, 1, 2 * 49).astype(np.float32), 0.2)
        many = mine_many(F, rois, scorer)
        assert len(many) == len(rois)
        for r, a in zip(rois, many):
            b = mine_context(F, r, scorer)
            assert a.feature.tobytes() == b.feature.tobytes()
            assert ([(rec.index, rec.score) for rec in a.selected]
                    == [(rec.index, rec.score) for rec in b.selected])
            assert ([rec.box for rec in a.selected]
                    == [rec.box for rec in b.selected])

    def test_corner_object_falls_back_to_object_map(self):
        rng = np.random.default_rng(53)
        F = rng.normal(0, 1, (2, 32, 32)).astype(np.float32)
        r = Box(0.0, 0.0, 6.0, 6.0)  # left/top cells are fully outside
        mined = mine_context(F, r, ContextScorer.zeros(2, 7, 7))
        by_dir = {rec.direction: rec for rec in mined.selected}
        assert by_dir["left-top"].fallback
        assert by_dir["top"].fallback
        assert by_dir["left"].fallback
        assert not by_dir["right"].fallback
        i = DIRECTIONS.index("left-top") + 1
        assert np.array_equal(mined.feature[2 * i:2 * i + 2], mined.feature[:2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_map_rejected(self, bad):
        F = np.random.default_rng(7).normal(0, 1, (4, 20, 20)).astype(np.float32)
        F[2, 11, 3] = bad
        r = Box(7.0, 7.0, 12.0, 12.0)
        scorer = ContextScorer.zeros(4, 7, 7)
        with pytest.raises(NumericError):
            mine_context(F, r, scorer)
        with pytest.raises(NumericError):
            mine_many(F, [r, r], scorer)
        with pytest.raises(NumericError):
            ContextMiner(F, scorer, MiningConfig(backbone="align"))

    @pytest.mark.parametrize("backbone", ["pool", "align"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["weights", "bias"])
    def test_non_finite_scorer_rejected(self, where, bad, backbone):
        F = np.random.default_rng(7).normal(0, 1, (2, 20, 20)).astype(np.float32)
        scorer = ContextScorer(np.ones(2 * 49, dtype=np.float32), 0.5)
        if where == "weights":
            scorer.weights[37] = bad
        else:
            scorer.bias = float(bad)
        config = MiningConfig(backbone=backbone)
        r = Box(7.0, 7.0, 12.0, 12.0)
        with pytest.raises(NumericError, match="scorer"):
            mine_context(F, r, scorer, config)
        with pytest.raises(NumericError, match="scorer"):
            mine_many(F, [r, r], scorer, config)

    def test_degenerate_roi_rejected(self):
        F = np.zeros((1, 16, 16), dtype=np.float32)
        with pytest.raises(DegenerateBoxError):
            mine_context(F, Box(40, 40, 44, 44), ContextScorer.zeros(1, 7, 7))

    @pytest.mark.parametrize("backbone", ["pool", "align"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_roi_rejected(self, bad, backbone):
        F = np.random.default_rng(7).normal(0, 1, (2, 20, 20)).astype(np.float32)
        scorer = ContextScorer.zeros(2, 7, 7)
        config = MiningConfig(backbone=backbone)
        for corner in range(4):
            xyxy = [7.0, 7.0, 12.0, 12.0]
            xyxy[corner] = float(bad)
            with pytest.raises(DegenerateBoxError):
                mine_context(F, Box(*xyxy), scorer, config)

    def test_align_backbone_runs(self):
        rng = np.random.default_rng(59)
        F = rng.normal(0, 1, (2, 48, 48)).astype(np.float32)
        r = interior_roi(rng, 48)
        config = MiningConfig(ph=3, pw=3, backbone="align",
                              grid=CandidateGridSpec(offset_fracs=(-0.25, 0.0, 0.25),
                                                     size_fracs=(0.5, 1.0)))
        mined = mine_context(F, r, ContextScorer.zeros(2, 3, 3), config)
        assert mined.feature.shape == (18, 3, 3)
        assert mined.object_map.samples is not None

    def test_record_summary_fields(self):
        rng = np.random.default_rng(61)
        F = rng.normal(0, 1, (2, 48, 48)).astype(np.float32)
        r = interior_roi(rng, 48)
        rec = mined_to_record(mine_context(F, r, ContextScorer.zeros(2, 7, 7)))
        assert rec["object"] == [r.x1, r.y1, r.x2, r.y2]
        assert set(rec["cells"]) == set(DIRECTIONS)
        for cell in rec["cells"].values():
            assert cell["pool_size"] > 0
            assert cell["fallback"] is False


def assert_same_mined(a, b):
    """Bit-identical features, selection records and maps, routing
    records (pool argmax, align samples) included."""
    assert a.feature.tobytes() == b.feature.tobytes()
    assert ([(r.direction, r.index, r.score, r.pool_size, r.box)
             for r in a.selected]
            == [(r.direction, r.index, r.score, r.pool_size, r.box)
                for r in b.selected])
    pairs = [(a.object_map, b.object_map)] + [
        (ra.roi_map, rb.roi_map) for ra, rb in zip(a.selected, b.selected)
        if not ra.fallback]
    for ma, mb in pairs:
        assert ma.data.tobytes() == mb.data.tobytes()
        routing = "argmax" if ma.argmax is not None else "samples"
        assert (getattr(ma, routing).tobytes()
                == getattr(mb, routing).tobytes())


class TestMineMany:
    """mine_many mines its RoIs in chunks of up to CANDIDATE_BUDGET
    candidates; each RoI must come out bit-identical to mine_context on
    that RoI alone, whatever chunk it lands in."""

    def _case(self, backbone, n_rois, seed=191):
        rng = np.random.default_rng(seed)
        F = rng.normal(0, 1, (2, 40, 40)).astype(np.float32)
        scorer = ContextScorer(rng.normal(0, 1, 2 * 25).astype(np.float32),
                               0.3)
        config = MiningConfig(ph=5, pw=5, backbone=backbone)
        rois = [interior_roi(rng, 40) for _ in range(n_rois)]
        rois[1] = Box(0.5, 1.0, 7.0, 9.0)        # some cells fall back
        rois[-2] = Box(0.0, 0.0, 40.0, 40.0)     # every cell falls back
        rois[-1] = Box(33.0, 30.5, 39.5, 39.0)   # at the bottom-right corner
        return F, scorer, config, rois

    def _check(self, F, rois, scorer, config, monkeypatch):
        """mine_many against mine_context per RoI; returns the number of
        chunks mine_many filtered, one _bounds call each."""
        calls = []
        real = ContextMiner._bounds

        def counting(self, xyxy):
            calls.append(xyxy.shape[0])
            return real(self, xyxy)

        monkeypatch.setattr(ContextMiner, "_bounds", counting)
        many = mine_many(F, rois, scorer, config)
        monkeypatch.undo()
        assert len(many) == len(rois)
        for r, a in zip(rois, many):
            assert_same_mined(a, mine_context(F, r, scorer, config))
        return len(calls)

    @staticmethod
    def _candidates(F, rois, config):
        _, H, W = F.shape
        pools = [mining._candidate_arrays(cell, config.grid, (W, H))
                 for r in rois for cell in build_layout(r).cells.values()]
        return [0 if p is None else p.shape[0] for p in pools]

    @pytest.mark.parametrize("backbone", ["pool", "align"])
    def test_more_candidates_than_one_budget(self, backbone, monkeypatch):
        F, scorer, config, rois = self._case(backbone, 30)
        count = sum(self._candidates(F, rois, config))
        assert count > mining.CANDIDATE_BUDGET
        assert self._check(F, rois, scorer, config, monkeypatch) == 2

    @pytest.mark.parametrize("backbone", ["pool", "align"])
    def test_small_budget_many_chunks(self, backbone, monkeypatch):
        """A budget below one interior RoI's candidates: such a RoI is a
        chunk of its own, and border RoIs share chunks."""
        F, scorer, config, rois = self._case(backbone, 9)
        rois[4:4] = [Box(0.5, 30.0, 6.0, 39.5), Box(34.0, 0.5, 39.5, 6.0)]
        monkeypatch.setattr(mining, "CANDIDATE_BUDGET", 1000)
        per_roi = [sum(self._candidates(F, [r], config)) for r in rois]
        assert max(per_roi) > 1000 and per_roi.count(0) == 1
        chunks = self._check(F, rois, scorer, config, monkeypatch)
        assert 2 <= chunks < sum(n > 0 for n in per_roi)

    @pytest.mark.parametrize("backbone", ["pool", "align"])
    def test_rescoring_bounded_when_every_candidate_ties(self, backbone,
                                                         monkeypatch):
        """A constant map ties every candidate, so whole pools pass the
        filter: score_flat sees at most SLICE rows at a time however many
        the chunk rescores."""
        F = np.full((2, 40, 40), 1.0 / 3.0, dtype=np.float32)
        scorer = ContextScorer(
            np.random.default_rng(193).normal(0, 1, 50).astype(np.float32),
            0.5)
        config = MiningConfig(ph=5, pw=5, backbone=backbone)
        rois = [Box(13.0, 14.0, 20.0, 21.5), Box(13.5, 14.0, 20.5, 21.5)]
        rows = []
        real = ContextScorer.score_flat

        def counting(self, flat_feats):
            rows.append(flat_feats.shape[0])
            return real(self, flat_feats)

        monkeypatch.setattr(ContextScorer, "score_flat", counting)
        many = mine_many(F, rois, scorer, config)
        monkeypatch.undo()
        assert sum(rows) == sum(self._candidates(F, rois, config))
        assert max(rows) == mining.SLICE
        for r, a in zip(rois, many):
            assert_same_mined(a, mine_context(F, r, scorer, config))
            assert selection_indices(a) == (0,) * 8

    @pytest.mark.parametrize("backbone", ["pool", "align"])
    def test_all_fallback_roi_alone(self, backbone, monkeypatch):
        F, scorer, config, _ = self._case(backbone, 3)
        assert self._check(F, [Box(0.0, 0.0, 40.0, 40.0)], scorer, config,
                           monkeypatch) == 0

    @pytest.mark.parametrize("backbone", ["pool", "align"])
    def test_empty_list(self, backbone):
        F, scorer, config, _ = self._case(backbone, 3)
        assert mine_many(F, [], scorer, config) == []

    @pytest.mark.parametrize("backbone", ["pool", "align"])
    def test_generator_input(self, backbone):
        F, scorer, config, rois = self._case(backbone, 6)
        many = mine_many(F, (r for r in rois), scorer, config)
        assert len(many) == len(rois)
        for r, a in zip(rois, many):
            assert_same_mined(a, mine_context(F, r, scorer, config))


    def test_full_align_chunk_filter_memory(self):
        """A chunk of nearly CANDIDATE_BUDGET align candidates on a 50x50
        map at 7x7 bins: the filter peaks below 112 bytes per candidate.
        Its (K, 2) bin sums, per-candidate geometry indices and their
        dedupe take most of that; the keys and taps of a block of
        roi_ops.ALIGN_SUM_BLOCK candidates take a fixed share."""
        rng = np.random.default_rng(211)
        F = rng.normal(0, 1, (2, 50, 50)).astype(np.float32)
        scorer = ContextScorer(rng.normal(0, 1, 98).astype(np.float32), 0.1)
        miner = ContextMiner(F, scorer, MiningConfig(ph=7, pw=7,
                                                     backbone="align"))
        pools = []
        while True:
            r = interior_roi(rng, 50, min_wh=4.0, max_wh=8.0)
            cells = [xyxy for xyxy in miner._enumerate(r)[1]
                     if xyxy is not None]
            if sum(map(len, pools + cells)) > mining.CANDIDATE_BUDGET:
                break
            pools += cells
        xyxy = np.concatenate(pools)
        assert xyxy.shape[0] > 0.95 * mining.CANDIDATE_BUDGET
        tracemalloc.start()
        try:
            miner._bounds(xyxy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 112 * xyxy.shape[0]


class TestAlignSelection:
    """The align backbone scores only the candidates whose exact score can
    reach the pool's maximum; selections and scores must still equal
    scoring every candidate through roi_align and score_flat."""

    CONFIG = MiningConfig(ph=5, pw=5, backbone="align")

    def _exhaustive_scores(self, F, cell, scorer, cfg=CONFIG):
        _, H, W = F.shape
        pool = pool_oracle_for_cell(cell, cfg.grid, (float(W), float(H)))
        if pool is None:
            return None, None
        flats = np.stack([roi_align(F, b, cfg.ph, cfg.pw,
                                    cfg.samples_per_bin).data.reshape(-1)
                          for b in pool])
        return pool, scorer.score_flat(flats)

    def _check_oracle(self, F, r, scorer, cfg=CONFIG):
        mined = mine_context(F, r, scorer, cfg)
        layout = build_layout(r)
        for rec in mined.selected:
            pool, scores = self._exhaustive_scores(F, layout.cells[rec.direction],
                                                   scorer, cfg)
            if pool is None:
                assert rec.fallback
                continue
            assert rec.index == int(np.argmax(scores))
            assert rec.box == pool[rec.index]
            assert rec.score == float(scores[rec.index])
            want = roi_align(F, rec.box, cfg.ph, cfg.pw, cfg.samples_per_bin)
            assert np.array_equal(rec.roi_map.data, want.data)
        return mined

    def test_selection_matches_rescoring_oracle(self):
        rng = np.random.default_rng(97)
        for _ in range(4):
            F = rng.normal(0, 1, (3, 40, 40)).astype(np.float32)
            scorer = ContextScorer(rng.normal(0, 1, 75).astype(np.float32),
                                   float(rng.normal()))
            self._check_oracle(F, interior_roi(rng, 40), scorer)

    def test_rows_longer_than_einsum_buffer(self):
        """D*ph*pw = 8232 > 8192: a lone exactly-scored row must still get
        the score its row in the whole pool's matrix gets."""
        rng = np.random.default_rng(113)
        F = rng.normal(0, 1, (168, 30, 30)).astype(np.float32)
        scorer = ContextScorer(rng.normal(0, 1, 168 * 49).astype(np.float32), 0.2)
        config = MiningConfig(ph=7, pw=7, backbone="align")
        self._check_oracle(F, Box(11.0, 12.0, 17.5, 18.0), scorer, config)

    def test_constant_map_ties_pick_first_candidate(self):
        rng = np.random.default_rng(101)
        # 1/3 has a full mantissa: bilinear weights move the float64 sums
        # of different candidates apart by an ulp or so, but every map
        # rounds to the same float32 values, so the exact scores all tie
        F = np.full((3, 40, 40), 1.0 / 3.0, dtype=np.float32)
        scorer = ContextScorer(rng.normal(0, 1, 75).astype(np.float32), 0.5)
        mined = self._check_oracle(F, interior_roi(rng, 40), scorer)
        assert [rec.index for rec in mined.selected] == [0] * 8

    def test_near_constant_map_near_ties_resolved_exactly(self):
        """Scores a few float32 ulps apart: many candidates pass the filter
        and the exact scores, not the approximate ones, pick among them."""
        rng = np.random.default_rng(127)
        ulp = np.spacing(np.float32(1.0 / 3.0))
        F = (np.float32(1.0 / 3.0)
             + ulp * rng.integers(-3, 4, (3, 40, 40))).astype(np.float32)
        scorer = ContextScorer(rng.normal(0, 1, 75).astype(np.float32), 0.5)
        mined = self._check_oracle(F, interior_roi(rng, 40), scorer)
        assert any(rec.index != 0 for rec in mined.selected)

    def test_zero_scorer_ties_pick_first_candidate(self):
        rng = np.random.default_rng(103)
        F = rng.normal(0, 1, (3, 40, 40)).astype(np.float32)
        mined = self._check_oracle(F, interior_roi(rng, 40),
                                   ContextScorer.zeros(3, 5, 5))
        assert [rec.index for rec in mined.selected] == [0] * 8
        assert [rec.score for rec in mined.selected] == [0.0] * 8

    def test_large_magnitude_border_roi_with_fallbacks(self):
        rng = np.random.default_rng(107)
        F = (1e4 * rng.normal(0, 1, (3, 40, 40))).astype(np.float32)
        scorer = ContextScorer(rng.normal(0, 1, 75).astype(np.float32), -2.0)
        mined = self._check_oracle(F, Box(0.5, 1.0, 7.0, 9.0), scorer)
        assert 0 < sum(rec.fallback for rec in mined.selected) < 8

    # RoIs 4 px from the left, top, right and bottom border: the cells on
    # that side straddle it, so their pools hold clipped candidates
    BORDER_ROIS = (Box(4.0, 16.0, 10.5, 22.5), Box(16.0, 4.0, 22.5, 10.5),
                   Box(29.5, 16.0, 36.0, 22.5), Box(16.0, 29.5, 22.5, 36.0))

    @pytest.mark.parametrize("kind", ["int-ties", "constant", "1e30",
                                      "subnormal"])
    def test_map_kinds_match_exhaustive_scoring(self, kind):
        """Each map kind, with an interior RoI and one RoI against each
        border: selections, scores and maps equal exhaustive roi_align and
        score_flat scoring.  int-ties has 8x8 blocks of equal integers and
        an integer scorer, so candidates within a block tie exactly."""
        rng = np.random.default_rng(131)
        scorer = ContextScorer(rng.normal(0, 1, 75).astype(np.float32), 0.25)
        if kind == "int-ties":
            F = np.kron(rng.integers(-1, 2, (3, 5, 5)), np.ones((8, 8)))
            scorer = ContextScorer(
                rng.integers(-1, 2, 75).astype(np.float32), 1.0)
        elif kind == "constant":
            F = np.full((3, 40, 40), -2.5)
        elif kind == "1e30":
            F = 1e30 * rng.normal(0, 1, (3, 40, 40))
        else:
            F = 1e-41 * rng.normal(0, 1, (3, 40, 40))
        F = F.astype(np.float32)
        if kind == "subnormal":
            assert (np.abs(F) < np.finfo(np.float32).tiny).all() and F.any()
        for r in (interior_roi(rng, 40),) + self.BORDER_ROIS:
            mined = self._check_oracle(F, r, scorer)
            assert not any(rec.fallback for rec in mined.selected)
        for r in self.BORDER_ROIS:
            pools = [pool_oracle_for_cell(cell, self.CONFIG.grid, (40.0, 40.0))
                     for cell in build_layout(r).cells.values()]
            assert any(min(b.x1, b.y1) == 0.0 or max(b.x2, b.y2) == 40.0
                       for pool in pools for b in pool)

    def test_roi_align_calls_bounded_by_near_ties(self, monkeypatch):
        """1 object map plus one map per cell, plus one per near-tie: a
        fall-back to scoring every candidate would make hundreds."""
        rng = np.random.default_rng(109)
        F = rng.normal(0, 1, (3, 40, 40)).astype(np.float32)
        scorer = ContextScorer(rng.normal(0, 1, 75).astype(np.float32), 0.1)
        w_abs = np.abs(scorer.weights.astype(np.float64))
        rois = [interior_roi(rng, 40) for _ in range(3)]
        near_ties = []
        for r in rois:
            ties = 0
            for cell in build_layout(r).cells.values():
                pool, scores = self._exhaustive_scores(F, cell, scorer)
                top = scores.max()
                ties += int(np.sum(scores >= top - 1e-4 * w_abs.sum())) - 1
            near_ties.append(ties)
        miner = ContextMiner(F, scorer, self.CONFIG)
        calls = []
        real = mining.roi_align

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(mining, "roi_align", counting)
        for r, ties in zip(rois, near_ties):
            calls.clear()
            miner.mine(r)
            assert len(calls) <= 1 + 8 + ties
        # a random scorer leaves no near-tie: exactly the 9 kept maps
        assert near_ties == [0] * len(rois)
        assert len(calls) == 9


class TestPoolSelection:
    """The pool backbone scores only the candidates whose exact score can
    reach the pool's maximum; selections, scores and maps must still equal
    max-pooling every candidate through roi_pool and scoring the whole
    pool with score_flat."""

    CONFIG = MiningConfig(ph=5, pw=5, backbone="pool")

    def _exhaustive_scores(self, F, cell, scorer, cfg=CONFIG):
        _, H, W = F.shape
        pool = pool_oracle_for_cell(cell, cfg.grid, (float(W), float(H)))
        if pool is None:
            return None, None
        flats = np.stack([roi_pool(F, b, cfg.ph, cfg.pw).data.reshape(-1)
                          for b in pool])
        return pool, scorer.score_flat(flats)

    def _check_oracle(self, F, r, scorer, cfg=CONFIG):
        mined = mine_context(F, r, scorer, cfg)
        layout = build_layout(r)
        for rec in mined.selected:
            pool, scores = self._exhaustive_scores(F, layout.cells[rec.direction],
                                                   scorer, cfg)
            if pool is None:
                assert rec.fallback
                continue
            assert rec.index == int(np.argmax(scores))
            assert rec.box == pool[rec.index]
            assert rec.score == float(scores[rec.index])
            want = roi_pool(F, rec.box, cfg.ph, cfg.pw)
            assert np.array_equal(rec.roi_map.data, want.data)
            assert np.array_equal(rec.roi_map.argmax, want.argmax)
        return mined

    def _score_rows(self, monkeypatch):
        """Rows passed to ContextScorer.score_flat, one entry per call."""
        rows = []
        real = ContextScorer.score_flat

        def counting(self, flat_feats):
            rows.append(flat_feats.shape[0])
            return real(self, flat_feats)

        monkeypatch.setattr(ContextScorer, "score_flat", counting)
        return rows

    def test_selection_matches_rescoring_oracle(self):
        rng = np.random.default_rng(131)
        for _ in range(4):
            F = rng.normal(0, 1, (3, 40, 40)).astype(np.float32)
            scorer = ContextScorer(rng.normal(0, 1, 75).astype(np.float32),
                                   float(rng.normal()))
            self._check_oracle(F, interior_roi(rng, 40), scorer)

    def test_rows_longer_than_einsum_buffer(self):
        """D*ph*pw = 8232 > 8192: a lone exactly-scored row must still get
        the score its row in the whole pool's matrix gets."""
        rng = np.random.default_rng(137)
        F = rng.normal(0, 1, (168, 30, 30)).astype(np.float32)
        scorer = ContextScorer(rng.normal(0, 1, 168 * 49).astype(np.float32), 0.2)
        config = MiningConfig(ph=7, pw=7, backbone="pool")
        self._check_oracle(F, Box(11.0, 12.0, 17.5, 18.0), scorer, config)

    def test_constant_map_ties_pick_first_candidate(self):
        rng = np.random.default_rng(139)
        F = np.full((3, 40, 40), 1.0 / 3.0, dtype=np.float32)
        scorer = ContextScorer(rng.normal(0, 1, 75).astype(np.float32), 0.5)
        mined = self._check_oracle(F, interior_roi(rng, 40), scorer)
        assert [rec.index for rec in mined.selected] == [0] * 8

    def test_near_constant_map_near_ties_resolved_exactly(self, monkeypatch):
        """Scores a few float32 ulps apart: many candidates pass the filter
        and the exact scores, not the approximate ones, pick among them."""
        rng = np.random.default_rng(149)
        # pooled maxima are exact, so near ties need contributions within
        # the filter's bound: channel 0 is constant, and channels 1 and 2
        # move each score by a few float64 ulps at most
        F = np.full((3, 40, 40), 1.0 / 3.0, dtype=np.float32)
        F[1:] = 2.0 ** -52 * rng.integers(-3, 4, (2, 40, 40))
        scorer = ContextScorer(rng.normal(0, 1, 75).astype(np.float32), 0.5)
        r = interior_roi(rng, 40)
        rows = self._score_rows(monkeypatch)
        mine_context(F, r, scorer, self.CONFIG)
        assert sum(rows) > 8 * 8
        monkeypatch.undo()
        mined = self._check_oracle(F, r, scorer)
        assert any(rec.index != 0 for rec in mined.selected)

    def test_zero_scorer_ties_pick_first_candidate(self):
        rng = np.random.default_rng(151)
        F = rng.normal(0, 1, (3, 40, 40)).astype(np.float32)
        mined = self._check_oracle(F, interior_roi(rng, 40),
                                   ContextScorer.zeros(3, 5, 5))
        assert [rec.index for rec in mined.selected] == [0] * 8
        assert [rec.score for rec in mined.selected] == [0.0] * 8

    def test_large_magnitude_border_roi_with_fallbacks(self):
        rng = np.random.default_rng(157)
        F = (1e30 * rng.normal(0, 1, (3, 40, 40))).astype(np.float32)
        scorer = ContextScorer(rng.normal(0, 1, 75).astype(np.float32), -2.0)
        mined = self._check_oracle(F, Box(0.5, 1.0, 7.0, 9.0), scorer)
        assert 0 < sum(rec.fallback for rec in mined.selected) < 8

    def test_bound_covers_exact_scores(self):
        """|score_k - s~_k| <= t_k on terms spanning 2^-60 to 2^60, where
        reassociation errs the most."""
        rng = np.random.default_rng(167)

        def wide(shape):
            return (rng.choice([-1.0, 1.0], shape)
                    * 2.0 ** rng.integers(-30, 30, shape)).astype(np.float32)

        scorer = ContextScorer(wide(16 * 25), 2.0 ** 20 / 3.0)
        F = wide((16, 40, 40))
        miner = ContextMiner(F, scorer, self.CONFIG)
        for cell in build_layout(Box(14.0, 13.0, 23.5, 22.0)).cells.values():
            xyxy = mining._candidate_arrays(cell, self.CONFIG.grid, (40, 40))
            approx, slack, _ = miner._bounds(xyxy)
            feats = np.stack([roi_pool(F, Box(*b), 5, 5).data.reshape(-1)
                              for b in xyxy.tolist()])
            assert np.all(np.abs(scorer.score_flat(feats) - approx) <= slack)

    def test_zero_region_mixes_zero_and_nonzero_slack(self):
        """Zero bias; the scored channel is zero but in one corner, the
        unscored one in the left half.  Near the RoI every score ties at
        zero, and cells keep zero-slack candidates beside ones that the
        unscored channel gives slack, so the whole pool is rescored; cells
        wholly in the zero region rescore one candidate."""
        rng = np.random.default_rng(173)
        F = np.zeros((2, 40, 40), dtype=np.float32)
        F[1, :, 20:] = np.maximum(rng.normal(0, 1, (40, 20)), 0.0)
        F[0, 30:, 30:] = rng.normal(0, 1, (10, 10))
        w = np.zeros((2, 25), dtype=np.float32)
        w[0] = rng.normal(0, 1, 25)
        scorer = ContextScorer(w.reshape(-1), 0.0)
        r = Box(16.0, 14.0, 24.0, 21.0)
        miner = ContextMiner(F, scorer, self.CONFIG)
        mixed = 0
        for cell in build_layout(r).cells.values():
            xyxy = mining._candidate_arrays(cell, self.CONFIG.grid, (40, 40))
            approx, slack, _ = miner._bounds(xyxy)
            kept = slack[approx + slack >= (approx - slack).max()]
            mixed += bool((kept == 0).any() and (kept > 0).any())
        assert mixed >= 2
        for roi in (r, Box(24.0, 24.0, 31.0, 30.5), Box(3.0, 25.0, 9.0, 33.0)):
            self._check_oracle(F, roi, scorer)

    def test_zero_region_with_bias_rescores_one_row(self, monkeypatch):
        """Every cell lies in the map's zero left part, so each candidate
        scores exactly the bias on both paths and needs no slack: one row
        per cell is rescored even though the bias is nonzero, all in one
        call."""
        rng = np.random.default_rng(181)
        F = rng.normal(0, 1, (3, 40, 40)).astype(np.float32)
        F[:, :, :24] = 0.0
        scorer = ContextScorer(rng.normal(0, 1, 75).astype(np.float32), -0.7)
        r = Box(6.0, 14.0, 12.0, 20.0)
        rows = self._score_rows(monkeypatch)
        mine_context(F, r, scorer, self.CONFIG)
        assert rows == [8]
        monkeypatch.undo()
        mined = self._check_oracle(F, r, scorer)
        assert [(rec.index, rec.score) for rec in mined.selected] == [
            (0, -0.7)] * 8

    def test_float64_map_keeps_its_own_maps(self):
        """The table's level 0 rounds a float64 map to float32, which ties
        values the map tells apart, so the object map and every kept map
        come from the float64 map: byte for byte roi_pool's, argmax
        included."""
        rng = np.random.default_rng(191)
        coarse = rng.integers(-2, 3, (3, 40, 40)).astype(np.float64)
        F = coarse * (1.0 + 2.0 ** -40 * rng.integers(0, 4, (3, 40, 40)))
        assert np.array_equal(F.astype(np.float32), coarse)
        scorer = ContextScorer(rng.normal(0, 1, 75).astype(np.float32), 0.3)
        rois = [interior_roi(rng, 40) for _ in range(3)]
        rois.append(Box(0.5, 1.0, 7.0, 9.0))
        cfg = self.CONFIG
        rounded = 0
        for r, mined in zip(rois, mine_many(F, rois, scorer, cfg)):
            maps = [mined.object_map] + [rec.roi_map for rec in mined.selected
                                         if not rec.fallback]
            for m in maps:
                want = roi_pool(F, m.source_roi, cfg.ph, cfg.pw)
                assert m.data.tobytes() == want.data.tobytes()
                assert np.array_equal(m.argmax, want.argmax)
                level0 = roi_pool(F.astype(np.float32), m.source_roi,
                                  cfg.ph, cfg.pw)
                rounded += not np.array_equal(level0.argmax, want.argmax)
        assert rounded > 0

    def test_miner_frees_outgrown_table(self):
        """Kept maps are pooled from the table's level 0, taken afresh per
        map, so the block of levels a query outgrows is freed."""
        rng = np.random.default_rng(193)
        F = rng.normal(0, 1, (3, 40, 40)).astype(np.float32)
        scorer = ContextScorer(rng.normal(0, 1, 75).astype(np.float32), 0.1)
        r = interior_roi(rng, 40)
        miner = ContextMiner(F, scorer, self.CONFIG)
        outgrown = weakref.ref(miner._table._levels)
        mined = miner.mine(r)
        assert outgrown() is None
        assert mined.feature.tobytes() == mine_context(
            F, r, scorer, self.CONFIG).feature.tobytes()

    def test_one_table_pass_per_cell(self, monkeypatch):
        """A RoI pools the bin rectangles of all its non-fallback cells
        once: one pool_xyxy and one query call, none for the rescored rows,
        and none at all when every cell falls back."""
        rng = np.random.default_rng(179)
        F = rng.normal(0, 1, (3, 40, 40)).astype(np.float32)
        scorer = ContextScorer(rng.normal(0, 1, 75).astype(np.float32), 0.1)
        miner = ContextMiner(F, scorer, self.CONFIG)
        calls = []
        for name in ("pool_xyxy", "query"):
            real = getattr(RangeMaxTable, name)

            def counting(self, *args, _name=name, _real=real):
                calls.append(_name)
                return _real(self, *args)

            monkeypatch.setattr(RangeMaxTable, name, counting)
        for r in (interior_roi(rng, 40), Box(0.5, 1.0, 7.0, 9.0),
                  Box(0.0, 0.0, 40.0, 40.0)):
            calls.clear()
            mined = miner.mine(r)
            cells = sum(not rec.fallback for rec in mined.selected)
            assert calls == (["pool_xyxy", "query"] if cells else [])
        assert cells == 0

    def test_scored_rows_bounded_by_near_ties(self, monkeypatch):
        """One call per RoI, with one row per cell plus one per near-tie: a
        fall-back to scoring every candidate would pass hundreds."""
        rng = np.random.default_rng(163)
        F = rng.normal(0, 1, (3, 40, 40)).astype(np.float32)
        scorer = ContextScorer(rng.normal(0, 1, 75).astype(np.float32), 0.1)
        w_abs = np.abs(scorer.weights.astype(np.float64))
        rois = [interior_roi(rng, 40) for _ in range(3)]
        near_ties = []
        for r in rois:
            ties = 0
            for cell in build_layout(r).cells.values():
                pool, scores = self._exhaustive_scores(F, cell, scorer)
                top = scores.max()
                ties += int(np.sum(scores >= top - 1e-4 * w_abs.sum())) - 1
            near_ties.append(ties)
        miner = ContextMiner(F, scorer, self.CONFIG)
        rows = self._score_rows(monkeypatch)
        for r, ties in zip(rois, near_ties):
            rows.clear()
            miner.mine(r)
            assert len(rows) == 1
            assert sum(rows) <= 8 + ties
            if ties == 0:
                assert rows == [8]
        # with a random scorer only boxes that pool to the same bins tie
        assert near_ties.count(0) >= 2


class TestMineContextBackward:
    def _mined(self, seed=67, size=32, backbone="pool"):
        rng = np.random.default_rng(seed)
        F = rng.normal(0, 2, (2, size, size)).astype(np.float32)
        r = interior_roi(rng, size, min_wh=4.0, max_wh=8.0)
        scorer = ContextScorer(rng.normal(0, 1, 2 * 9).astype(np.float32), 0.1)
        config = MiningConfig(ph=3, pw=3, backbone=backbone)
        return rng, F, r, scorer, config, mine_context(F, r, scorer, config)

    def test_zero_gradient_in_zero_gradient_out(self):
        _, F, _, scorer, _, mined = self._mined()
        g = np.zeros((18, 3, 3), dtype=np.float32)
        grad_F, (gw, gb) = mine_context_backward(g, mined, F.shape, scorer)
        assert not grad_F.any()
        assert not gw.any()
        assert gb == 0.0

    def test_block0_gradient_confined_to_object_roi(self):
        _, F, r, scorer, _, mined = self._mined()
        g = np.zeros((18, 3, 3), dtype=np.float32)
        g[:2] = 1.0
        grad_F, _ = mine_context_backward(g, mined, F.shape, scorer)
        ys, xs = np.nonzero(np.abs(grad_F).sum(axis=0))
        for y, x in zip(ys, xs):
            assert r.y1 - 1 <= y <= r.y2 + 1
            assert r.x1 - 1 <= x <= r.x2 + 1

    def test_gradcheck_frozen_selections(self):
        self._gradcheck(*self._mined())

    def test_gradcheck_frozen_selections_align(self):
        """The align backbone's twin, on a smaller map."""
        self._gradcheck(*self._mined(seed=71, size=24, backbone="align"))

    @staticmethod
    def _gradcheck(rng, F, r, scorer, config, mined):
        w = rng.normal(0, 1, (18, 3, 3)).astype(np.float32)
        grad_F, _ = mine_context_backward(w, mined, F.shape, scorer)

        last = {}

        def mined_at(x):
            # gradcheck calls f, then records, on each perturbed map
            key = x.tobytes()
            if key not in last:
                last.clear()
                last[key] = mine_context(x, r, scorer, config)
            return last[key]

        def f(x):
            return float((w.astype(np.float64) * mined_at(x).feature).sum())

        def records(x):
            return selection_indices(mined_at(x))

        report = check(f, F, grad_F, h=1e-2, probes=200, records_fn=records)
        assert report.max_rel_error <= 1e-3
        assert report.skipped <= report.probed * 0.05

    def test_scorer_gradient_matches_score_path(self):
        # the scorer signal is lambda * sum_cells u_i * d(score_i)/d(w,b)
        # with u_i = <grad_block_i, selected map_i> held constant
        rng, F, _, scorer, _, mined = self._mined()
        g = rng.normal(0, 1, (18, 3, 3)).astype(np.float32)
        lam = 0.7
        _, (gw, gb) = mine_context_backward(g, mined, F.shape, scorer,
                                            lambda_ctx=lam)
        want_w = np.zeros(18, dtype=np.float64)
        want_b = 0.0
        for i, rec in enumerate(mined.selected):
            block = g[2 * (i + 1):2 * (i + 2)].reshape(-1).astype(np.float64)
            flat = rec.roi_map.data.reshape(-1).astype(np.float64)
            u = float(block @ flat)
            want_w += lam * u * flat
            want_b += lam * u
        assert np.allclose(gw, want_w, rtol=1e-5, atol=1e-6)
        assert gb == pytest.approx(want_b, rel=1e-9)

    def test_fallback_cells_route_to_object_and_skip_scorer(self):
        rng = np.random.default_rng(71)
        F = rng.normal(0, 1, (1, 24, 24)).astype(np.float32)
        r = Box(0.0, 0.0, 5.0, 5.0)
        scorer = ContextScorer.zeros(1, 3, 3)
        config = MiningConfig(ph=3, pw=3)
        mined = mine_context(F, r, scorer, config)
        fallback_i = next(i for i, rec in enumerate(mined.selected)
                          if rec.fallback)
        g = np.zeros((9, 3, 3), dtype=np.float32)
        g[fallback_i + 1] = 1.0
        grad_F, (gw, gb) = mine_context_backward(g, mined, F.shape, scorer)
        # gradient must land inside the object RoI via the object map
        ys, xs = np.nonzero(np.abs(grad_F[0]))
        assert len(ys) > 0
        assert ys.max() <= 6 and xs.max() <= 6
        assert not gw.any() and gb == 0.0

    @pytest.mark.parametrize("backbone", ["pool", "align"])
    def test_scorer_gradient_overflow_raises(self, backbone):
        """A map of scale 1e30 is finite in float32, but its scorer
        gradient (about map squared) is not."""
        rng = np.random.default_rng(73)
        F = (1e30 * rng.normal(0, 1, (3, 30, 30))).astype(np.float32)
        scorer = ContextScorer(rng.normal(0, 1, 3 * 49).astype(np.float32), 0.1)
        config = MiningConfig(backbone=backbone)
        mined = mine_context(F, Box(11.0, 12.0, 17.5, 18.0), scorer, config)
        g = rng.normal(0, 1, (27, 7, 7)).astype(np.float32)
        with pytest.raises(NumericError):
            mine_context_backward(g, mined, F.shape, scorer)

    def test_shape_mismatch_rejected(self):
        _, F, _, scorer, _, mined = self._mined()
        with pytest.raises(ShapeError):
            mine_context_backward(np.zeros((17, 3, 3), dtype=np.float32),
                                  mined, F.shape, scorer)


class TestFixedVariants:
    def _data(self, seed=73):
        rng = np.random.default_rng(seed)
        F = rng.normal(0, 1, (4, 48, 48)).astype(np.float32)
        r = interior_roi(rng, 48)
        return rng, F, r

    def test_shapes_per_variant(self):
        _, F, r = self._data()
        assert fixed_context_variant(F, r, "none").shape == (4, 7, 7)
        assert fixed_context_variant(F, r, "local").shape == (8, 7, 7)
        assert fixed_context_variant(F, r, "global").shape == (8, 7, 7)
        assert fixed_context_variant(F, r, "neigh4").shape == (20, 7, 7)
        assert fixed_context_variant(F, r, "neigh8").shape == (36, 7, 7)

    def test_none_equals_object_pool(self):
        _, F, r = self._data()
        assert np.array_equal(fixed_context_variant(F, r, "none"),
                              roi_pool(F, r, 7, 7).data)

    def test_global_block_is_whole_map_pool(self):
        _, F, r = self._data()
        got = fixed_context_variant(F, r, "global")
        whole = roi_pool(F, Box(0, 0, 48, 48), 7, 7).data
        assert np.array_equal(got[4:], whole)

    def test_local_block_is_enlarged_roi_pool(self):
        _, F, r = self._data()
        got = fixed_context_variant(F, r, "local")
        want = roi_pool(F, r.scaled_about_center(1.5), 7, 7).data
        assert np.array_equal(got[4:], want)

    def test_neigh8_equals_mining_with_forced_full_cell(self):
        rng, F, r = self._data(79)
        grid = CandidateGridSpec(offset_fracs=(0.0,), size_fracs=(1.0,),
                                 anchor_iou_min=0.0, include_anchor=False)
        config = MiningConfig(ph=7, pw=7, grid=grid)
        scorer = ContextScorer(rng.normal(0, 1, 4 * 49).astype(np.float32), 0.3)
        mined = mine_context(F, r, scorer, config)
        fixed = fixed_context_variant(F, r, "neigh8")
        assert np.array_equal(mined.feature, fixed)

    def test_unknown_variant_rejected(self):
        _, F, r = self._data()
        with pytest.raises(ValueError):
            fixed_context_variant(F, r, "bogus")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_map_rejected(self, bad):
        _, F, r = self._data()
        F[1, 30, 2] = bad
        for variant in ("none", "neigh8"):
            with pytest.raises(NumericError):
                fixed_context_variant(F, r, variant)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_roi_rejected(self, bad):
        _, F, _ = self._data()
        for corner in range(4):
            xyxy = [7.0, 7.0, 12.0, 12.0]
            xyxy[corner] = float(bad)
            for variant in mining.VARIANTS:
                with pytest.raises(DegenerateBoxError):
                    fixed_context_variant(F, Box(*xyxy), variant)

    def test_outside_cells_fall_back_to_object_map(self):
        rng = np.random.default_rng(83)
        F = rng.normal(0, 1, (2, 24, 24)).astype(np.float32)
        r = Box(0.0, 0.0, 5.0, 5.0)
        got = fixed_context_variant(F, r, "neigh8")
        obj = roi_pool(F, r, 7, 7).data
        # left-top cell (block 1) is fully outside -> object map substituted
        assert np.array_equal(got[2:4], obj)
