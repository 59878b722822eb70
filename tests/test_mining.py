import gc
import importlib.util
import itertools
import math
import re
import tracemalloc
import warnings
import weakref
from fractions import Fraction
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from roictx import mining
from roictx.errors import DegenerateBoxError, NumericError, ShapeError
from roictx.geometry import Box, iou
from roictx.gradcheck import check
from roictx.mining import CandidateGridSpec, ContextScorer, DIRECTIONS, \
    ContextMiner, MiningConfig, build_layout, candidate_pool_for_cell, \
    fixed_context_variant, mine_context, mine_context_backward, mine_many, \
    mined_to_record, scorer_gradient
from roictx.synth import DEFAULT_SYNTH
from roictx.roi_ops import RangeMaxTable, bin_edges, roi_align, roi_pool


def interior_roi(rng, size, lo_frac=0.34, hi_frac=0.66, min_wh=3.0, max_wh=10.0):
    """Object RoI whose whole 3x3 cell grid stays inside a size x size map."""
    w = rng.uniform(min_wh, max_wh)
    h = rng.uniform(min_wh, max_wh)
    x1 = rng.uniform(w, size - 2 * w)
    y1 = rng.uniform(h, size - 2 * h)
    return Box(float(x1), float(y1), float(x1 + w), float(y1 + h))


def selections(mined):
    """Each cell's selected index (FALLBACK included), in DIRECTIONS
    order."""
    return tuple(rec.index for rec in mined.selected)


def routing(mined):
    """Every discrete decision of a mined forward: the selections, and the
    argmax of each of the nine block maps (None on the align backbone)."""
    maps = mining._block_maps(mined.object_map, mined.selected)
    return selections(mined), [None if m.argmax is None
                               else m.argmax.tobytes() for m in maps]


def cells_of(r):
    """r's 8 cells as boxes keyed by direction, read from build_layout's
    (1, 8, 4) array."""
    cells = build_layout(np.array([[r.x1, r.y1, r.x2, r.y2]]))[0]
    return {d: Box(*row) for d, row in zip(DIRECTIONS, cells.tolist())}


@cache
def combo_iou(combo):
    """Exact IoU, in cell units, of the raw candidate (oy, ox, sh, sw)
    with the centred anchor [-1/4, 1/4]^2: the overlaps of their extents
    on the two axes, in Fractions."""
    oy, ox, sh, sw = (Fraction(float(v)) for v in combo)
    q = Fraction(1, 4)
    inter = (max(min(ox + sw / 2, q) - max(ox - sw / 2, -q), 0)
             * max(min(oy + sh / 2, q) - max(oy - sh / 2, -q), 0))
    return inter / (sw * sh + (2 * q) ** 2 - inter)


@cache
def oracle_pool_entries(cell, grid, bounds):
    """Independent scalar re-derivation of the pool rule, as a tuple of
    (box, combo, rechecked) entries with the anchor first (combo None),
    or None for a lost anchor; memoized, so the tests of this module
    share each cell's pool.  Nested loops in the documented (oy, ox, sh,
    sw) order; the IoU bound decided exactly (combo_iou), the edge bounds
    on the float sides sw * cw and sh * ch; with bounds, a clipped
    candidate without area is dropped, and one that clipping moved, or
    any of a cell whose anchor clipping moved, is re-checked on its
    corners against the stored anchor (rechecked True)."""
    cw = cell.x2 - cell.x1
    ch = cell.y2 - cell.y1
    if not (0 < cw < math.inf and 0 < ch < math.inf):
        return None
    ccx = cell.x1 + 0.5 * cw
    ccy = cell.y1 + 0.5 * ch
    anchor = Box(ccx - 0.5 * (0.5 * cw), ccy - 0.5 * (0.5 * ch),
                 ccx + 0.5 * (0.5 * cw), ccy + 0.5 * (0.5 * ch))
    floor = grid.short_edge_frac * min(cw, ch)

    def corners_ok(b, ref):
        w, h = b.x2 - b.x1, b.y2 - b.y1
        return (min(w, h) >= floor and max(w, h) <= max(cw, ch)
                and iou(b, ref) >= grid.anchor_iou_min)

    stored_anchor = anchor
    if bounds is not None:
        width, height = bounds
        stored_anchor = anchor.clip(width, height)
        if stored_anchor.area <= 0.0 or (min(stored_anchor.w, stored_anchor.h)
                                         < floor):
            return None

    kept = []
    for combo in itertools.product(grid.offset_fracs, grid.offset_fracs,
                                   grid.size_fracs, grid.size_fracs):
        oy, ox, sh, sw = combo
        w = sw * cw
        h = sh * ch
        if not (min(w, h) >= floor and max(w, h) <= max(cw, ch)
                and combo_iou(combo) >= Fraction(grid.anchor_iou_min)):
            continue
        cx = ccx + ox * cw
        cy = ccy + oy * ch
        b = Box(cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h)
        recheck = False
        if bounds is not None:
            raw = b
            b = Box(min(max(b.x1, 0.0), width), min(max(b.y1, 0.0), height),
                    min(max(b.x2, 0.0), width), min(max(b.y2, 0.0), height))
            if (b.x2 - b.x1) <= 0.0 or (b.y2 - b.y1) <= 0.0:
                continue
            recheck = b != raw or stored_anchor != anchor
            if recheck and not corners_ok(b, stored_anchor):
                continue
        kept.append((b, combo, recheck))
    return ((stored_anchor, None, False), *kept)


def pool_oracle_for_cell(cell, grid, bounds):
    """The boxes of oracle_pool_entries, or None."""
    entries = oracle_pool_entries(cell, grid, bounds)
    return None if entries is None else [b for b, _, _ in entries]


class TestBuildLayout:
    def test_right_cell_and_anchor_arithmetic(self):
        cells = cells_of(Box(10, 10, 20, 20))
        assert cells["right"] == Box(20, 10, 30, 20)
        pool = candidate_pool_for_cell(cells["right"],
                                       CandidateGridSpec(), None)
        assert pool[0] == Box(22.5, 12.5, 27.5, 17.5)

    def test_unit_square_left_top_cell(self):
        assert cells_of(Box(0, 0, 1, 1))["left-top"] == Box(-1, -1, 0, 0)

    def test_all_cells_share_object_shape(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x1, y1 = rng.uniform(0, 30, 2)
            w, h = rng.uniform(0.5, 12, 2)
            cells = cells_of(Box(x1, y1, x1 + w, y1 + h))
            for d in DIRECTIONS:
                cell = cells[d]
                assert cell.w == pytest.approx(w, rel=1e-12)
                assert cell.h == pytest.approx(h, rel=1e-12)

    def test_cell_centers_displaced_by_object_size(self):
        r = Box(5.0, 7.0, 11.0, 15.0)
        cells = cells_of(r)
        assert cells["top"].cx == pytest.approx(r.cx)
        assert cells["top"].cy == pytest.approx(r.cy - r.h)
        assert cells["left-bottom"].cx == pytest.approx(r.cx - r.w)
        assert cells["left-bottom"].cy == pytest.approx(r.cy + r.h)

    def test_degenerate_roi_rejected(self):
        with pytest.raises(DegenerateBoxError):
            cells_of(Box(3, 3, 3, 8))

    @pytest.mark.parametrize("backbone", ["pool", "align"])
    @pytest.mark.parametrize("shape", [(3, 40, 40), (16, 33, 33)])
    @pytest.mark.parametrize("r", [Box(-1e308, -1e308, 1e308, 1e308),
                                   Box(0.0, 0.0, 1e308, 1e308)],
                             ids=["spanning", "corner"])
    def test_overflowing_grid_names_the_roi(self, r, shape, backbone):
        """A finite RoI whose cells overflow float64 is refused with an
        error naming the RoI, and no warning escapes."""
        F = np.random.default_rng(19).normal(0, 1, shape).astype(np.float32)
        scorer = ContextScorer.zeros(shape[0], 7, 7)
        config = MiningConfig(backbone=backbone)
        msg = re.escape(f"object RoI has a non-finite context cell: {r}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateBoxError, match=msg):
                build_layout([[r.x1, r.y1, r.x2, r.y2]])
            with pytest.raises(DegenerateBoxError, match=msg):
                mine_context(F, r, scorer, config)
            with pytest.raises(DegenerateBoxError, match=msg):
                mine_many(F, [Box(2.0, 2.0, 8.0, 8.0), r], scorer, config)
            if backbone == "pool":
                with pytest.raises(DegenerateBoxError, match=msg):
                    fixed_context_variant(F, r, "neigh8", config)


class TestCandidatePool:
    def test_default_grid_has_400_raw_candidates(self):
        """The 187 of the 400 raw combos whose exact IoU with the anchor
        reaches 0.3 are kept, in nested order, once per spec; synth's grid
        keeps 97.  At a bound of 0.25 some combos lie exactly on it, and
        float64 IoU would keep 248 where exact arithmetic keeps 240."""
        grid = CandidateGridSpec()
        assert (len(grid.offset_fracs) * len(grid.size_fracs)) ** 2 == 400
        for spec, n in ((grid, 187), (DEFAULT_SYNTH.grid, 97),
                        (CandidateGridSpec(anchor_iou_min=0.25), 240)):
            raw = itertools.product(spec.offset_fracs, spec.offset_fracs,
                                    spec.size_fracs, spec.size_fracs)
            want = [list(c) for c in raw
                    if combo_iou(c) >= Fraction(spec.anchor_iou_min)]
            combos = mining._grid_combos(spec)
            assert len(want) == n
            assert np.stack(combos, axis=1).tolist() == want
            assert mining._grid_combos(spec) is combos

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

    def test_huge_cells_need_no_overflow_check(self):
        """No constraint arithmetic overflows: a square cell gets all 188
        candidates, without a warning, up to sides whose corners overflow
        float64.  An unbounded pool with such a corner raises, as does a
        cell whose side overflows; with bounds such a corner clips."""
        grid = CandidateGridSpec()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for side in (1.0, 2e150, 60 * 2.0 ** 506, 2e154, 1e300, 5e307,
                         8.5e307):
                cell = Box(0.0, 0.0, side, side)
                assert len(candidate_pool_for_cell(cell, grid, None)) == 188
                if side > 1.0:
                    assert candidate_pool_for_cell(cell, grid, (64, 64)) is None
            for cell, bounds in ((Box(0.0, 0.0, 1.5e308, 1.5e308), None),
                                 (Box(-1e308, 0.0, 1e308, 1.0), None),
                                 (Box(-1e308, 0.0, 1e308, 1.0), (64, 64))):
                msg = re.escape(f"candidate pool of cell {cell} overflows")
                with pytest.raises(DegenerateBoxError, match=msg):
                    candidate_pool_for_cell(cell, grid, bounds)
            assert candidate_pool_for_cell(Box(0.0, 0.0, 1.5e308, 1.5e308),
                                           grid, (64, 64)) is None
            # candidates far outside the anchor overlap it by a negative
            # width and height, which are not multiplied together
            far = CandidateGridSpec(offset_fracs=(-2.0, 2.0),
                                    size_fracs=(0.1,), anchor_iou_min=0.0,
                                    short_edge_frac=0.05)
            for side in (1.0, 1e154):
                pool = candidate_pool_for_cell(Box(0.0, 0.0, side, side), far,
                                               None)
                assert len(pool) == 5


def oracle_pools(cells, grid, bounds):
    """The oracle's pools of (N, 4) cells, concatenated, and their sizes."""
    pools = [pool_oracle_for_cell(Box(*c), grid, bounds) or []
             for c in cells.tolist()]
    rows = [[b.x1, b.y1, b.x2, b.y2] for pool in pools for b in pool]
    return np.array(rows, dtype=np.float64).reshape(-1, 4), \
        [len(pool) for pool in pools]


def boundary_hits(cells, grid):
    """How many raw combos of the cells sit exactly on the short-edge
    floor and the long-edge ceiling, on their float sides, and on the IoU
    bound, in exact arithmetic."""
    hits = [0, 0, 0]
    for x1, y1, x2, y2 in cells.tolist():
        cw, ch = x2 - x1, y2 - y1
        for combo in itertools.product(grid.offset_fracs, grid.offset_fracs,
                                       grid.size_fracs, grid.size_fracs):
            w, h = combo[3] * cw, combo[2] * ch
            hits[0] += min(w, h) == grid.short_edge_frac * min(cw, ch)
            hits[1] += max(w, h) == max(cw, ch)
            hits[2] += combo_iou(combo) == Fraction(grid.anchor_iou_min)
    return hits


class TestCandidateArrays:
    """One broadcast over many cells against the scalar oracle cell by
    cell, compared as bytes so that signed zeros count."""

    GRIDS = {
        "default": CandidateGridSpec(),
        "iou-third": CandidateGridSpec(anchor_iou_min=1.0 / 3.0),
        "short-half": CandidateGridSpec(short_edge_frac=0.5,
                                        anchor_iou_min=0.25),
        # anchored like every grid: the name seeds the case's cells
        "no-anchor": CandidateGridSpec(anchor_iou_min=0.6),
        "wide": CandidateGridSpec(size_fracs=(0.25, 0.5, 1.0, 1.5),
                                  short_edge_frac=0.4, anchor_iou_min=0.2),
    }

    @staticmethod
    def _cells(rng):
        """Random cells; cells overhanging each border and each corner of
        a 64 x 48 map; cells on the 1/8 px grid."""
        w, h = rng.uniform(1.0, 20.0, (2, 60))
        x1, y1 = rng.uniform(-15.0, 60.0, (2, 60))
        random = np.stack([x1, y1, x1 + w, y1 + h], axis=1)
        over = []
        for fx in (-0.5, 0.0, 0.5):
            for fy in (-0.5, 0.0, 0.5):
                for cw, ch in ((12.0, 8.0), (6.5, 9.25)):
                    cx = 32.0 + fx * 64.0 + rng.uniform(-0.3, 0.3) * cw
                    cy = 24.0 + fy * 48.0 + rng.uniform(-0.3, 0.3) * ch
                    over.append([cx - cw / 2, cy - ch / 2,
                                 cx + cw / 2, cy + ch / 2])
        wh = rng.integers(8, 160, (40, 2)) / 8.0
        xy = rng.integers(-40, 480, (40, 2)) / 8.0
        eighths = np.concatenate([xy, xy + wh], axis=1)
        return random, np.array(over), eighths

    @pytest.mark.parametrize("bounds", [(64, 48), (64.0, 48.0), None])
    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_equals_oracle_cell_by_cell(self, name, bounds):
        grid = self.GRIDS[name]
        rng = np.random.default_rng([331, len(name)])
        for cells in self._cells(rng):
            got = mining._candidate_arrays(cells, grid, bounds)
            want, counts = oracle_pools(cells, grid, bounds)
            assert got.counts.tolist() == counts
            assert got.candidates.tobytes() == want.tobytes()
            # a cell's pool is the same in any batch
            for i in (0, len(cells) - 1):
                one = mining._candidate_arrays(cells[i:i + 1], grid, bounds)
                start = sum(counts[:i])
                assert one.candidates.tobytes() == \
                    want[start:start + counts[i]].tobytes()

    def test_cases_cover_borders_and_constraint_bounds(self):
        """The cases above reach every side of the map and put raw combos
        exactly on each of the three constraint bounds; the edge bounds
        prune some combos of the wide grid by aspect alone."""
        random, over, eighths = self._cells(np.random.default_rng([331, 7]))
        counts = mining._candidate_arrays(over, CandidateGridSpec(),
                                          (64, 48)).counts
        assert (counts == 0).any() and (counts > 0).any()
        assert (over[:, :2] < 0).any(axis=0).all()
        assert (over[:, 2] > 64).any() and (over[:, 3] > 48).any()
        assert all(boundary_hits(eighths, self.GRIDS["short-half"]))
        assert boundary_hits(eighths, self.GRIDS["default"])[:2] == [
            len(eighths) * 100, len(eighths) * 100]
        wide = self.GRIDS["wide"]
        sizes = mining._candidate_arrays(random, wide, None).counts
        assert len(set(sizes.tolist())) > 1
        assert sizes.max() < 1 + mining._grid_combos(wide)[0].size

    def test_zero_area_cells_count_zero(self):
        cells = np.array([[5.0, 5.0, 5.0, 9.0], [10.0, 10.0, 5.0, 5.0],
                          [2.0, 3.0, 8.0, 7.0]])
        pools = mining._candidate_arrays(cells, CandidateGridSpec(), None)
        assert pools.counts.tolist()[:2] == [0, 0]
        assert pools.counts[2] == pools.candidates.shape[0] > 0

    def test_anchor_clip_equals_box_clip_on_signed_zeros(self):
        """Corners of -0.0 and +0.0, inside and on the border, clip as
        Box.clip does, sign included; so does a NaN far corner."""
        zeros = (-0.0, 0.0)
        rows = [[a, b, c, d] for a in zeros for b in zeros
                for c in zeros + (3.0,) for d in zeros + (-2.0, 50.0)]
        rows += [[-1.0, -0.0, -0.0, 2.0], [41.0, 0.0, 40.0, -0.0],
                 [1.0, 2.0, np.nan, 5.0]]
        boxes = np.array(rows, dtype=np.float64)
        got = mining._clip_like_box(boxes, 40, 30)
        want = np.array([[v for v in (c.x1, c.y1, c.x2, c.y2)]
                         for c in (Box(*r).clip(40, 30) for r in rows)],
                        dtype=np.float64)
        assert got.tobytes() == want.tobytes()
        assert np.signbit(got).any() and not np.signbit(got).all()


def pool_combos(cell, pool, grid):
    """The (oy, ox, sh, sw) combo of each unclipped candidate of a pool
    after its anchor: the grid values nearest the candidate's centre
    offset and size, in units of the cell's sides."""
    fracs = (grid.offset_fracs, grid.offset_fracs, grid.size_fracs,
             grid.size_fracs)
    out = []
    for b in pool[1:]:
        got = ((b.cy - cell.cy) / cell.h, (b.cx - cell.cx) / cell.w,
               b.h / cell.h, b.w / cell.w)
        out.append(tuple(min(f, key=lambda g: abs(g - v))
                         for f, v in zip(fracs, got)))
    return out


class TestOverflowingRecheck:
    """The corner re-check of a clipped pool whose areas overflow float64
    runs on corners scaled by a power of two, which IoU and the edge
    tests do not see."""

    F = 2.0 ** 600

    def scaled_back(self, cell, grid, bounds):
        """The pool of cell and bounds scaled by 2^-600, scaled back."""
        f = self.F
        pool = candidate_pool_for_cell(
            Box(cell.x1 / f, cell.y1 / f, cell.x2 / f, cell.y2 / f), grid,
            (bounds[0] / f, bounds[1] / f))
        return None if pool is None else [
            Box(b.x1 * f, b.y1 * f, b.x2 * f, b.y2 * f) for b in pool]

    def test_huge_bounds_pool_is_the_scaled_pool(self):
        """Box(0, 0, 1e307, 1e307) on a 1e308 map keeps 182 candidates
        (an overflowing union dropped 36), and random cells overhanging
        maps of sides up to 1.7e308 get the scaled pool, box for box."""
        grid = CandidateGridSpec()
        cell = Box(0.0, 0.0, 1e307, 1e307)
        pool = candidate_pool_for_cell(cell, grid, (1e308, 1e308))
        assert len(pool) == 182
        assert pool == self.scaled_back(cell, grid, (1e308, 1e308))
        rng = np.random.default_rng(63)
        overflowing = 0
        for _ in range(200):
            side = 10.0 ** rng.uniform(150.0, 307.5)
            bounds = tuple(side * rng.uniform(0.8, 4.0, 2))
            x1, y1 = np.array(bounds) * rng.uniform(-0.3, 1.0, 2)
            cell = Box(x1, y1, x1 + side, y1 + side * rng.uniform(0.5, 2.0))
            if not (np.isfinite([cell.x2, cell.y2]).all()
                    and max(bounds) < 1.7e308):
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                pool = candidate_pool_for_cell(cell, grid, bounds)
            assert pool == self.scaled_back(cell, grid, bounds)
            overflowing += pool is not None and side > 2.0 ** 512
        assert overflowing >= 50

    def test_other_pools_do_not_move(self):
        """Below areas that overflow, a pool equals the oracle's, whose
        union never overflows there, for cells overhanging the map."""
        grid = CandidateGridSpec()
        rng = np.random.default_rng(65)
        for _ in range(100):
            side = 10.0 ** rng.uniform(-3.0, 153.0)
            bounds = tuple(side * rng.uniform(0.8, 4.0, 2))
            x1, y1 = np.array(bounds) * rng.uniform(-0.3, 1.0, 2)
            cell = Box(x1, y1, x1 + side, y1 + side * rng.uniform(0.5, 2.0))
            assert candidate_pool_for_cell(cell, grid, bounds) == (
                pool_oracle_for_cell(cell, grid, bounds))


class TestShapeOnlyPools:
    """An unbounded pool, and the pool of a cell that clipping leaves
    alone, is a function of the grid and the cell's shape."""

    @pytest.mark.parametrize("aspect", [1.0, 2.0, 0.5])
    def test_every_cell_gets_the_grid_pool(self, aspect):
        """Every cell gets all of the grid's 187 (default) or 97 (synth)
        combos: random positions and sides 1e-3 to 1e300 unbounded, sides
        4-14 at random positions in [0, 40)^2 unbounded (where pools
        measured on corner differences held 49 to 188 candidates), and
        cells well inside a bounded map."""
        rng = np.random.default_rng([57, int(4 * aspect)])
        side = 10.0 ** rng.uniform(-3.0, 300.0, 300)
        x1, y1 = rng.uniform(-40.0, 40.0, (2, 300)) * side
        huge = np.stack([x1, y1, x1 + side, y1 + aspect * side], axis=1)
        side = rng.uniform(4.0, 14.0, 300)
        x1, y1 = rng.uniform(0.0, 40.0, (2, 300))
        small = np.stack([x1, y1, x1 + side, y1 + aspect * side], axis=1)
        inside = small + rng.uniform(100.0, 800.0, (300, 1))
        for grid, n in ((CandidateGridSpec(), 188), (DEFAULT_SYNTH.grid, 98)):
            for cells, bounds in ((huge, None), (small, None),
                                  (inside, (1000.0, 1000.0))):
                pools = mining._candidate_arrays(cells, grid, bounds)
                assert (pools.counts == n).all()

    @pytest.mark.parametrize("aspect", [1.0, 2.0, 0.5, 1.25])
    def test_moved_or_scaled_cell_gets_the_moved_or_scaled_pool(self,
                                                                 aspect):
        """A cell moved by whole pixels keeps its sides bit for bit, and
        its pool keeps its combos, with bounds too while nothing clips;
        scaled by a power of two, its pool's boxes scale exactly.  The
        wide grid's edge bounds prune combos by aspect."""
        grid = TestCandidateArrays.GRIDS["wide"]
        rng = np.random.default_rng([59, int(4 * aspect)])
        for _ in range(20):
            w = rng.integers(8, 160) / 8.0
            x1, y1 = rng.integers(-400, 400, 2) / 8.0
            cell = Box(x1, y1, x1 + w, y1 + aspect * w)
            pool = candidate_pool_for_cell(cell, grid, None)
            combos = pool_combos(cell, pool, grid)
            assert combos == [c for c in itertools.product(*(
                [grid.offset_fracs] * 2 + [grid.size_fracs] * 2))
                if c in combos]
            for tx, ty in rng.integers(-10 ** 6, 10 ** 6, (3, 2)).tolist():
                moved = Box(x1 + tx, y1 + ty, cell.x2 + tx, cell.y2 + ty)
                assert (moved.w, moved.h) == (cell.w, cell.h)
                got = candidate_pool_for_cell(moved, grid, None)
                assert pool_combos(moved, got, grid) == combos
                if min(moved.x1, moved.y1) > 100.0:
                    got = candidate_pool_for_cell(moved, grid, (3e6, 3e6))
                    assert pool_combos(moved, got, grid) == combos
            for k in (-30, -1, 1, 40, 900):
                f = 2.0 ** k
                scaled = Box(x1 * f, y1 * f, cell.x2 * f, cell.y2 * f)
                assert candidate_pool_for_cell(scaled, grid, None) == [
                    Box(b.x1 * f, b.y1 * f, b.x2 * f, b.y2 * f) for b in pool]


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

    @pytest.mark.parametrize("shape", [(), (75,), (2, 5, 15), (2, 75, 1),
                                       (4, 74)])
    def test_not_a_k_by_n_matrix_rejected(self, shape):
        msg = re.escape(f"scorer expects a (K, 75) feature matrix, got shape "
                        f"{shape}")
        with pytest.raises(ShapeError, match=msg):
            ContextScorer.zeros(3, 5, 5).score_flat(np.zeros(shape, np.float32))


class TestContextScorerZeros:
    def test_zero_scorer_of_d_ph_pw(self):
        scorer = ContextScorer.zeros(2, 7, 3)
        assert scorer.weights.shape == (42,) and not scorer.weights.any()

    @pytest.mark.parametrize("dims", [(2, 7, -3), (0, 7, 7), (2, 0, 7),
                                      (2.5, 7, 7), (2, 7, 2.0), (True, 7, 7)])
    def test_extent_below_one_rejected(self, dims):
        msg = re.escape("scorer extents must be integers >= 1, got "
                        + "x".join(map(str, dims)))
        with pytest.raises(ShapeError, match=msg):
            ContextScorer.zeros(*dims)


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

    @pytest.mark.parametrize("segs", [
        [[2.0]], [[1.0, 3.0, -0.0, 3.0]], [[-np.inf, -np.inf]],
        [[1.0, 4.0, 4.0], [5.0]], [[0.0], [-0.0, 7.0], [-1.0]]],
        ids=["one-element", "one-segment", "one-tied-segment",
             "trailing-one", "ones-around"])
    def test_single_and_trailing_one_element_segments(self, segs):
        """The last segment's length comes from starts and the values'
        length alone."""
        segs = [np.asarray(seg, dtype=np.float64) for seg in segs]
        starts = np.cumsum([0] + [len(seg) for seg in segs[:-1]])
        want = starts + np.array([np.argmax(seg) for seg in segs])
        got = mining._first_max(np.concatenate(segs), starts)
        assert np.array_equal(got, want)


class TestMineContext:
    def test_zero_scorer_selects_anchor_by_tie_rule(self):
        rng = np.random.default_rng(19)
        F = rng.normal(0, 1, (2, 48, 48)).astype(np.float32)
        r = interior_roi(rng, 48)
        mined = mine_context(F, r, ContextScorer.zeros(2, 7, 7))
        assert selections(mined) == (0,) * 8

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
            cells = cells_of(r)
            for rec in mined.selected:
                pool_boxes = pool_oracle_for_cell(cells[rec.direction],
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
            base = selections(mine_context(F, r, scorer))
            for lam in (0.5, 3.0):
                scaled = ContextScorer(scorer.weights * np.float32(lam),
                                       scorer.bias * lam)
                got = selections(mine_context(F, r, scaled))
                assert got == base

    def test_mined_boxes_reverify_pool_constraints(self):
        """Each selected candidate is its pool entry, and its combo meets
        the IoU bound exactly and the edge bounds on its float sides; one
        that was re-checked after clipping also meets all three on its
        corners against the clipped anchor."""
        rng = np.random.default_rng(41)
        F = rng.normal(0, 1, (2, 40, 40)).astype(np.float32)
        scorer = ContextScorer(rng.normal(0, 1, 2 * 49).astype(np.float32), 0.0)
        grid = CandidateGridSpec()
        rechecked = 0
        for _ in range(50):
            # anywhere in the map: cells may stick out and get clipped
            x1 = rng.uniform(0, 32)
            y1 = rng.uniform(0, 32)
            r = Box(x1, y1, x1 + rng.uniform(2, 8), y1 + rng.uniform(2, 8))
            mined = mine_context(F, r, scorer)
            cells = cells_of(r)
            for rec in mined.selected:
                if rec.fallback:
                    continue
                cell = cells[rec.direction]
                entries = oracle_pool_entries(cell, grid, (40, 40))
                b, combo, recheck = entries[rec.index]
                assert rec.box == b
                floor = grid.short_edge_frac * min(cell.w, cell.h)
                if combo is not None:
                    oy, ox, sh, sw = combo
                    w, h = sw * cell.w, sh * cell.h
                    assert min(w, h) >= floor and max(w, h) <= max(cell.w, cell.h)
                    assert combo_iou(combo) >= Fraction(grid.anchor_iou_min)
                if recheck:
                    rechecked += 1
                    anchor = entries[0][0]
                    assert min(b.w, b.h) >= floor
                    assert max(b.w, b.h) <= max(cell.w, cell.h)
                    assert iou(b, anchor) >= grid.anchor_iou_min
        assert rechecked > 0

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(43)
        F = rng.normal(0, 1, (2, 48, 48)).astype(np.float32)
        r = interior_roi(rng, 48)
        scorer = ContextScorer(rng.normal(0, 1, 2 * 49).astype(np.float32), 0.2)
        a = mine_context(F, r, scorer)
        b = mine_context(F, r, scorer)
        assert a.feature.tobytes() == b.feature.tobytes()
        assert selections(a) == selections(b)

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

    @pytest.mark.parametrize("backbone", ["pool", "align"])
    @pytest.mark.parametrize("r", [Box(0.0, 0.0, 2e154, 2e154),
                                   Box(0.0, 0.0, 5e307, 5e307),
                                   Box(0.0, 0.0, 8.5e307, 8.5e307)],
                             ids=["2e154", "5e307", "8.5e307"])
    def test_huge_roi_mines_with_fallbacks(self, r, backbone):
        """A RoI that build_layout accepts mines however large it is: a
        candidate corner that overflows float64 clips to the border.  On
        a 20x20 map each of its 8 anchors is lost, and no warning
        escapes."""
        F = np.random.default_rng(23).normal(0, 1, (3, 20, 20)).astype(
            np.float32)
        scorer = ContextScorer.zeros(3, 7, 7)
        config = MiningConfig(backbone=backbone)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_layout([[r.x1, r.y1, r.x2, r.y2]])
            mined = mine_context(F, r, scorer, config)
            many = mine_many(F, [Box(2.0, 2.0, 8.0, 8.0), r], scorer, config)
        assert all(rec.fallback for rec in mined.selected)
        assert_same_mined(many[1], mined)

    def test_overflowing_align_sample_grid(self):
        """RoIs whose align sample grid overflows float64 while their
        context cells do not: each sample clamps where its true coordinate
        lies, as on a small RoI beside the same border, and no warning
        escapes.  The corner RoI's cells are too large for the pool
        constraints' products, so it is checked through its variant only."""
        F = np.random.default_rng(229).normal(0, 1, (3, 10, 10)).astype(
            np.float32)
        config = MiningConfig(backbone="align")
        left, corner = Box(-2.61e307, 0.0, 9e305, 5.0), Box(0.0, 0.0, 5e307, 5e307)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mined = mine_context(F, left, ContextScorer.zeros(3, 7, 7), config)
            variants = [fixed_context_variant(F, r, "none", config)
                        for r in (left, corner)]
        want = [roi_align(F, r, 7, 7).data
                for r in (Box(-2.0, 0.0, 0.05, 5.0), Box(9.5, 9.5, 10.0, 10.0))]
        assert mined.object_map.data.tobytes() == want[0].tobytes()
        assert [v.tobytes() for v in variants] == [w.tobytes() for w in want]

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

        def counting(self, xyxy, *args):
            calls.append(xyxy.shape[0])
            return real(self, xyxy, *args)

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
        cells = mining.build_layout([[r.x1, r.y1, r.x2, r.y2] for r in rois])
        return mining._candidate_arrays(cells.reshape(-1, 4), config.grid,
                                        (W, H)).counts.tolist()

    @pytest.mark.parametrize("backbone", ["pool", "align"])
    def test_more_candidates_than_one_budget(self, backbone, monkeypatch):
        F, scorer, config, rois = self._case(backbone, 30)
        count = sum(self._candidates(F, rois, config))
        assert count > mining.CANDIDATE_BUDGET
        assert self._check(F, rois, scorer, config, monkeypatch) == 2

    @pytest.mark.parametrize("backbone", ["pool", "align"])
    def test_small_budget_many_chunks(self, backbone, monkeypatch):
        """A budget below one RoI's pool bound: every RoI is a chunk of its
        own, border RoIs with fewer candidates too, and each RoI with
        candidates makes one filter pass."""
        F, scorer, config, rois = self._case(backbone, 9)
        rois[4:4] = [Box(0.5, 30.0, 6.0, 39.5), Box(34.0, 0.5, 39.5, 6.0)]
        monkeypatch.setattr(mining, "CANDIDATE_BUDGET", 1200)
        assert mining._chunk_size(config.grid) == 1
        per_roi = [sum(self._candidates(F, [r], config)) for r in rois]
        assert max(per_roi) > 1200 and per_roi.count(0) == 1
        assert sum(0 < n <= 600 for n in per_roi) >= 2
        chunks = self._check(F, rois, scorer, config, monkeypatch)
        assert chunks == sum(n > 0 for n in per_roi)

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
            assert selections(a) == (0,) * 8

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


    @pytest.mark.parametrize("n_rois", [8, 200])
    def test_enumeration_memory_does_not_grow_with_rois(self, n_rois,
                                                         monkeypatch):
        """mine_many enumerates one chunk of RoIs per _candidate_arrays
        call, and each call peaks below 192 bytes per candidate it
        enumerates (about 160), at most a chunk's, however many RoIs the
        call mines.  Enumerating 200 RoIs at once would need ten times a
        chunk's."""
        rng = np.random.default_rng(223)
        F = rng.normal(0, 1, (2, 64, 64)).astype(np.float32)
        scorer = ContextScorer(rng.normal(0, 1, 50).astype(np.float32), 0.1)
        rois = [interior_roi(rng, 64) for _ in range(n_rois)]
        peaks = []
        real = mining._candidate_arrays

        def measured(*args):
            tracemalloc.start()
            try:
                pools = real(*args)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            peaks[-1] /= pools.candidates.shape[0]
            return pools

        monkeypatch.setattr(mining, "_candidate_arrays", measured)
        config = MiningConfig(ph=5, pw=5)
        mined = mine_many(F, rois, scorer, config)
        assert len(mined) == n_rois
        assert len(peaks) == -(-n_rois // mining._chunk_size(config.grid))
        assert max(peaks) <= 192

    def test_full_align_chunk_filter_memory(self):
        """A chunk of nearly CANDIDATE_BUDGET align candidates on a 50x50
        map at 7x7 bins: the filter peaks below 112 bytes per candidate.
        G and A on the chunk's window, its (K, 2) bin sums and one RoI's
        copy of its window's planes take most of that."""
        rng = np.random.default_rng(211)
        F = rng.normal(0, 1, (2, 50, 50)).astype(np.float32)
        scorer = ContextScorer(rng.normal(0, 1, 98).astype(np.float32), 0.1)
        miner = ContextMiner(F, scorer, MiningConfig(ph=7, pw=7,
                                                     backbone="align"))
        pools = []
        while True:
            r = interior_roi(rng, 50, min_wh=4.0, max_wh=8.0)
            cells = [mining._candidate_arrays(
                build_layout([[r.x1, r.y1, r.x2, r.y2]])[0],
                miner.config.grid, (50, 50)).candidates]
            if sum(map(len, pools + cells)) > mining.CANDIDATE_BUDGET:
                break
            pools += cells
        xyxy = np.concatenate(pools)
        assert xyxy.shape[0] > 0.95 * mining.CANDIDATE_BUDGET
        tracemalloc.start()
        try:
            miner._bounds(xyxy, [[len(p)] for p in pools])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 112 * xyxy.shape[0]

    @pytest.mark.parametrize("side", [30.0, 40.0])
    def test_align_filter_memory_bounded_by_window(self, side):
        """One 30-40 px RoI on a D=64 100x100 map at 7x7 bins, whose
        window of touched lines is about the whole map: the filter, with
        the G and A planes it builds on the chunk's window, its copy of
        the RoI's window of them and its products, peaks below 2.5 times
        the whole map's planes, 2*ph*pw*H*W float64 values."""
        rng = np.random.default_rng(229)
        F = rng.normal(0, 1, (64, 100, 100)).astype(np.float32)
        scorer = ContextScorer(
            rng.normal(0, 1, 64 * 49).astype(np.float32), 0.1)
        miner = ContextMiner(F, scorer, MiningConfig(ph=7, pw=7,
                                                     backbone="align"))
        r = Box(50.3 - side / 2, 49.8 - side / 2, 50.3 + side / 2,
                49.8 + side / 2)
        xyxy, _ = mining._chunk_pools([r], miner.config.grid, (100, 100))
        tracemalloc.start()
        try:
            miner._bounds(xyxy, [[len(xyxy)]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * (2 * 49 * 100 * 100 * 8)


    def test_pool_mining_memory_bounded_by_map(self):
        """mine_many of 8 RoIs of 20 px near the corners of a D=512 38x38
        map (2.8 MiB) at 7x7 bins, 24 cells and 11,105 distinct bin
        rectangles, peaks at most 16 times the map: the table's 3x3 block
        of levels is 9 maps, the miner's copy of the map one, the mined
        features 2.4, the filter's 2*ph*pw float64 terms per rectangle
        2.9.  The chunk's maxima, R x D float32, would be 7.7 more."""
        rng = np.random.default_rng(233)
        F = rng.normal(0, 1, (512, 38, 38)).astype(np.float32)
        scorer = ContextScorer(
            rng.normal(0, 1, 512 * 49).astype(np.float32), 0.1)
        rois = []
        for k in range(8):
            x = rng.uniform(0.5, 2.5) if k % 2 else rng.uniform(15.5, 17.5)
            y = rng.uniform(0.5, 2.5) if k % 4 < 2 else rng.uniform(15.5, 17.5)
            rois.append(Box(x, y, x + 20.0, y + 20.0))
        tracemalloc.start()
        try:
            mined = mine_many(F, rois, scorer, MiningConfig(ph=7, pw=7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(not rec.fallback for m in mined for rec in m.selected) == 24
        assert peak <= 16 * F.nbytes


# A grid whose pool bound, 8 cells of 1 + 9 * 9 * 8 * 8 combos, exceeds
# CANDIDATE_BUDGET: each RoI is a chunk of its own.
DENSE_GRID = CandidateGridSpec(
    offset_fracs=tuple(np.linspace(-0.3, 0.3, 9).tolist()),
    size_fracs=tuple(np.linspace(0.35, 1.0, 8).tolist()), anchor_iou_min=0.0)


class TestChunkRule:
    """A chunk holds as many RoIs as CANDIDATE_BUDGET holds pool bounds of
    the grid, at least one, so no filter pass gets more candidates than
    the budget or one RoI's pools."""

    @pytest.mark.parametrize("grid,size", [
        (CandidateGridSpec(), 21), (DEFAULT_SYNTH.grid, 41),
        (DENSE_GRID, 1)], ids=["default", "synth", "dense"])
    def test_chunk_rows_bounded(self, grid, size, monkeypatch):
        assert mining._chunk_size(grid) == size
        rng = np.random.default_rng(229)
        F = rng.normal(0, 1, (2, 48, 48)).astype(np.float32)
        scorer = ContextScorer(rng.normal(0, 1, 50).astype(np.float32), 0.2)
        config = MiningConfig(ph=5, pw=5, grid=grid)
        rois = [interior_roi(rng, 48) for _ in range(3 if size == 1 else 45)]
        per_roi = [int(mining._chunk_pools([r], grid, (48, 48)).counts.sum())
                   for r in rois]
        if size == 1:
            assert min(per_roi) > mining.CANDIDATE_BUDGET
        rows = []
        real = ContextMiner._best_of_pools

        def counting(self, xyxy, *args):
            rows.append(xyxy.shape[0])
            return real(self, xyxy, *args)

        monkeypatch.setattr(ContextMiner, "_best_of_pools", counting)
        many = mine_many(F, rois, scorer, config)
        monkeypatch.undo()
        assert rows == [sum(per_roi[i:i + size])
                        for i in range(0, len(rois), size)]
        assert max(rows) <= max(mining.CANDIDATE_BUDGET, max(per_roi))
        if size > 1:
            for r, a in zip(rois[size - 1:size + 1], many[size - 1:size + 1]):
                assert_same_mined(a, mine_context(F, r, scorer, config))


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
        cells = cells_of(r)
        for rec in mined.selected:
            pool, scores = self._exhaustive_scores(F, cells[rec.direction],
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
                                      "subnormal", "post-relu"])
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
        elif kind == "post-relu":
            F = np.maximum(rng.normal(0, 1, (3, 40, 40)), 0.0)
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
                     for cell in cells_of(r).values()]
            assert any(min(b.x1, b.y1) == 0.0 or max(b.x2, b.y2) == 40.0
                       for pool in pools for b in pool)

    @pytest.mark.parametrize("kind", ["gaussian", "int-ties", "subnormal",
                                      "1e30", "post-relu"])
    def test_bound_covers_exact_scores(self, kind):
        """|score_k - s~_k| <= t_k for every candidate of one chunk, with
        score_k the exact roi_align map's score_flat: a RoI whose grid
        crosses the left border and two RoIs whose windows of touched
        lines are disjoint, each a group of the filter."""
        rng = np.random.default_rng(137)
        scorer = ContextScorer(rng.normal(0, 1, 75).astype(np.float32), 0.25)
        if kind == "int-ties":
            F = np.kron(rng.integers(-1, 2, (3, 5, 5)), np.ones((8, 8)))
            scorer = ContextScorer(
                rng.integers(-1, 2, 75).astype(np.float32), 1.0)
        elif kind == "subnormal":
            F = 1e-41 * rng.normal(0, 1, (3, 40, 40))
        elif kind == "1e30":
            F = 1e30 * rng.normal(0, 1, (3, 40, 40))
        elif kind == "post-relu":
            F = np.maximum(rng.normal(0, 1, (3, 40, 40)), 0.0)
        else:
            F = rng.normal(0, 1, (3, 40, 40))
        F = F.astype(np.float32)
        cfg = self.CONFIG
        rois = [Box(1.0, 16.5, 7.5, 22.0), Box(5.5, 5.0, 10.0, 9.5),
                Box(29.5, 30.0, 34.0, 34.5)]
        xyxy, counts = mining._chunk_pools(rois, cfg.grid, (40, 40))
        groups = counts.sum(axis=1)
        a, b = np.split(xyxy[groups[0]:], [groups[1]])
        assert a[:, 2:].max() + 2 < b[:, :2].min()
        assert xyxy[:groups[0], 0].min() == 0.0
        miner = ContextMiner(F, scorer, cfg)
        approx, slack, _ = miner._bounds(xyxy, counts)
        maps = mining._roi_align_many(F, [Box(*r) for r in xyxy.tolist()],
                                      cfg.ph, cfg.pw, cfg.samples_per_bin)
        exact = scorer.score_flat(np.stack([m.data.reshape(-1) for m in maps]))
        assert np.all(np.abs(exact - approx) <= slack)

    def test_roi_align_calls_bounded_by_near_ties(self, monkeypatch):
        """1 object map plus one map per cell, plus one per near-tie: a
        fall-back to scoring every candidate would make hundreds.  Exact
        align maps are made by roi_align (the object map) and by the
        batched _roi_align_many (the rescored candidates), so both are
        counted, one per box."""
        rng = np.random.default_rng(109)
        F = rng.normal(0, 1, (3, 40, 40)).astype(np.float32)
        scorer = ContextScorer(rng.normal(0, 1, 75).astype(np.float32), 0.1)
        w_abs = np.abs(scorer.weights.astype(np.float64))
        rois = [interior_roi(rng, 40) for _ in range(3)]
        near_ties = []
        for r in rois:
            ties = 0
            for cell in cells_of(r).values():
                pool, scores = self._exhaustive_scores(F, cell, scorer)
                top = scores.max()
                ties += int(np.sum(scores >= top - 1e-4 * w_abs.sum())) - 1
            near_ties.append(ties)
        miner = ContextMiner(F, scorer, self.CONFIG)
        calls = []
        real, real_many = mining.roi_align, mining._roi_align_many

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        def counting_many(F, boxes, *args, **kwargs):
            calls.extend(boxes)
            return real_many(F, boxes, *args, **kwargs)

        monkeypatch.setattr(mining, "roi_align", counting)
        monkeypatch.setattr(mining, "_roi_align_many", counting_many)
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
        cells = cells_of(r)
        for rec in mined.selected:
            pool, scores = self._exhaustive_scores(F, cells[rec.direction],
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

    def test_post_relu_map_matches_exhaustive_scoring(self):
        """A post-ReLU map, max(N(0, 1), 0), with an interior RoI and one
        RoI against each border: selections, scores, maps and argmax equal
        exhaustive roi_pool and score_flat scoring, with zero maxima in
        most kept maps."""
        rng = np.random.default_rng(173)
        F = np.maximum(rng.normal(0, 1, (3, 40, 40)), 0.0).astype(np.float32)
        scorer = ContextScorer(rng.normal(0, 1, 75).astype(np.float32), 0.3)
        zero_maps = 0
        for r in (interior_roi(rng, 40),) + TestAlignSelection.BORDER_ROIS:
            mined = self._check_oracle(F, r, scorer)
            zero_maps += sum(not rec.roi_map.data.all()
                             for rec in mined.selected if not rec.fallback)
        assert zero_maps > 20

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
        for cell in cells_of(Box(14.0, 13.0, 23.5, 22.0)).values():
            xyxy = mining._candidate_arrays(
                np.array([[cell.x1, cell.y1, cell.x2, cell.y2]]),
                self.CONFIG.grid, (40, 40)).candidates
            approx, slack, _ = miner._bounds(xyxy, [[len(xyxy)]])
            feats = np.stack([roi_pool(F, Box(*b), 5, 5).data.reshape(-1)
                              for b in xyxy.tolist()])
            assert np.all(np.abs(scorer.score_flat(feats) - approx) <= slack)

    @pytest.mark.parametrize("kind", ["wide", "post-relu", "ties", "1e30"])
    def test_bound_covers_exact_scores_over_many_slices(self, kind):
        """|score_k - s~_k| <= t_k for every candidate of a 6-RoI chunk,
        whose bin rectangles the filter queries in dozens of slices of
        SLICE rows, on terms spanning 2^-60 to 2^60, a post-ReLU map, a
        map of signed zeros and ties and magnitudes near 1e30.  Weights
        spanning 2^-30 to 2^30 on the first two make the paths round
        apart (the largest error reads about 0.002 t)."""
        rng = np.random.default_rng(239)
        shape = (16, 40, 40)
        if kind == "wide":
            F = (rng.choice([-1.0, 1.0], shape)
                 * 2.0 ** rng.integers(-30, 30, shape)).astype(np.float32)
        elif kind == "post-relu":
            F = np.maximum(rng.normal(0, 1, shape), 0.0).astype(np.float32)
        elif kind == "ties":
            F = rng.choice(np.float32([-1.0, -0.0, 0.0, 1.0]), shape)
        else:
            F = (1e30 * rng.normal(0, 1, shape)).astype(np.float32)
        w = rng.normal(0, 1, 16 * 25)
        if kind in ("wide", "ties"):
            w = rng.choice([-1.0, 1.0], w.shape) * 2.0 ** rng.integers(
                -30, 30, w.shape)
        scorer = ContextScorer(w.astype(np.float32),
                               2.0 ** 20 / 3.0 if kind == "wide" else 0.3)
        miner = ContextMiner(F, scorer, self.CONFIG)
        rois = [interior_roi(rng, 40, min_wh=5.0, max_wh=9.0)
                for _ in range(5)] + [Box(0.5, 1.0, 9.0, 9.5)]
        xyxy, counts = mining._chunk_pools(rois, self.CONFIG.grid, (40, 40))
        rects, _ = RangeMaxTable(F).pool_xyxy(xyxy, 5, 5)
        assert rects.shape[1] > 30 * mining.SLICE
        approx, slack, _ = miner._bounds(xyxy, counts)
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
        for cell in cells_of(r).values():
            xyxy = mining._candidate_arrays(
                np.array([[cell.x1, cell.y1, cell.x2, cell.y2]]),
                self.CONFIG.grid, (40, 40)).candidates
            approx, slack, _ = miner._bounds(xyxy, [[len(xyxy)]])
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
        """Maps are pooled from the miner's copy of the map, not from the
        table, so the block of levels a query outgrows is freed."""
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

    def test_empty_bins_score_as_roi_pool(self):
        """A RoI a few ulps wide at an integer x: some candidates start at
        x = 16.0 and are narrower than 16.0's rounding, so their first bin
        column is empty.  Their scores and maps are roi_pool's, zeros
        there included."""
        rng = np.random.default_rng(197)
        F = rng.normal(0, 1, (3, 40, 40)).astype(np.float32)
        scorer = ContextScorer(rng.normal(0, 1, 75).astype(np.float32), 0.1)
        mined = self._check_oracle(
            F, Box(16.0, 10.0, 16.0 + np.spacing(16.0), 20.0), scorer)
        assert any((rec.roi_map.argmax == -1).any() for rec in mined.selected
                   if not rec.fallback)

    @staticmethod
    def _bin_rects(xyxy, cfg, H, W):
        """The distinct (y0, y1, x0, x1) bin rectangles of boxes, as a set,
        from roi_pool's bin_edges."""
        ys, ye = bin_edges(xyxy[:, 1], xyxy[:, 3] - xyxy[:, 1], cfg.ph, H)
        xs, xe = bin_edges(xyxy[:, 0], xyxy[:, 2] - xyxy[:, 0], cfg.pw, W)
        rows = np.broadcast_arrays(ys[:, :, None], ye[:, :, None],
                                   xs[:, None, :], xe[:, None, :])
        return set(map(tuple, np.stack(rows, axis=-1).reshape(-1, 4).tolist()))

    def test_streamed_table_pass(self, monkeypatch):
        """Per chunk: one pool_xyxy call, and the block of levels extended
        at most once, before any query; filter queries of at most SLICE
        rows that, in order, are the chunk's distinct bin rectangles, each
        once; then exact queries only of the rescored candidates'
        rectangles, each slice's distinct.  A RoI whose cells all fall back
        makes no call."""
        rng = np.random.default_rng(179)
        F = rng.normal(0, 1, (3, 40, 40)).astype(np.float32)
        scorer = ContextScorer(rng.normal(0, 1, 75).astype(np.float32), 0.1)
        cfg = self.CONFIG
        events = []

        def record(cls, name, what):
            real = getattr(cls, name)

            def recording(self, *args):
                events.append((name, what(*args)))
                return real(self, *args)

            monkeypatch.setattr(cls, name, recording)

        def extend(self, *args):
            levels = self._levels
            real_extend(self, *args)
            if self._levels is not levels:
                events.append(("grown", None))

        real_extend = RangeMaxTable._extend
        monkeypatch.setattr(RangeMaxTable, "_extend", extend)
        record(ContextMiner, "_bounds", lambda xyxy, counts: xyxy)
        record(ContextMiner, "_pool_slices",
               lambda rects, ids, xyxy: (rects, xyxy))
        record(RangeMaxTable, "pool_xyxy", lambda *args: None)
        record(RangeMaxTable, "query",
               lambda *rect: np.stack(rect).astype(np.int64))
        rois = [interior_roi(rng, 40), Box(0.5, 1.0, 7.0, 9.0),
                interior_roi(rng, 40, min_wh=8.0, max_wh=12.0)]
        miner = ContextMiner(F, scorer, cfg)
        for r in rois:
            miner.mine(r)
        mine_many(F, rois, scorer, cfg)
        starts = [i for i, (name, _) in enumerate(events) if name == "_bounds"]
        assert len(starts) == 4
        slices = 0
        for a, b in zip(starts, starts[1:] + [len(events)]):
            names = [name for name, _ in events[a:b]]
            assert names.count("pool_xyxy") == 1 and names.count("grown") <= 1
            assert "grown" not in names[names.index("query"):]
            at = a + names.index("_pool_slices")
            rects, rescored = events[at][1]
            queries = [(i > at, q) for i, (name, q) in
                       enumerate(events[a:b], a) if name == "query"]
            filtered = [q for exact, q in queries if not exact]
            exact = [q for is_exact, q in queries if is_exact]
            assert all(q.shape[1] <= mining.SLICE for q in filtered)
            assert np.array_equal(np.concatenate(filtered, axis=1), rects)
            want = self._bin_rects(events[a][1], cfg, 40, 40)
            assert set(map(tuple, rects.T.tolist())) == want
            assert rects.shape[1] == len(want)
            assert all(np.unique(q, axis=1).shape == q.shape for q in exact)
            assert set(map(tuple, np.concatenate(exact, axis=1).T.tolist())) \
                == self._bin_rects(rescored, cfg, 40, 40)
            slices = max(slices, len(filtered))
        assert slices >= 8
        events.clear()
        mined = miner.mine(Box(0.0, 0.0, 40.0, 40.0))
        assert all(rec.fallback for rec in mined.selected)
        assert events == []

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
            for cell in cells_of(r).values():
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


class TestKeptPoolMaps:
    """The pool miner keeps each winner's rescored row as its map and
    computes the map's argmax from its own copy of the map on first read;
    maps and argmax must equal roi_pool's on the map as mined."""

    CONFIG = MiningConfig(ph=5, pw=5, backbone="pool")

    @staticmethod
    def _map(kind, rng):
        if kind == "float32":
            return rng.normal(0, 1, (3, 40, 40)).astype(np.float32)
        if kind == "float64":
            return rng.normal(0, 1, (3, 40, 40))
        if kind.startswith("post-relu"):
            F = np.maximum(rng.normal(0, 1, (3, 40, 40)), 0.0).astype(
                np.float32)
            if kind == "post-relu-one-negative-zero":
                F[1, 20, 20] = -0.0
            return F
        # zero maxima and ties: the table may keep the other zero's sign
        return rng.choice(np.float32([-1.0, -0.0, 0.0, 1.0]), (3, 40, 40))

    def _case(self, kind, seed=199):
        rng = np.random.default_rng(seed)
        F = self._map(kind, rng)
        scorer = ContextScorer(rng.normal(0, 1, 75).astype(np.float32), 0.2)
        rois = [interior_roi(rng, 40) for _ in range(4)]
        rois.append(Box(0.5, 1.0, 7.0, 9.0))
        return rng, F, scorer, rois

    @staticmethod
    def _maps(mined):
        return [mined.object_map] + [rec.roi_map for rec in mined.selected
                                     if not rec.fallback]

    @pytest.mark.parametrize("kind", ["float32", "float64", "ties",
                                      "post-relu",
                                      "post-relu-one-negative-zero"])
    def test_maps_equal_roi_pool(self, kind, monkeypatch):
        """Byte for byte, argmax included; mining pools only the object
        maps, and on a map holding a -0.0 the kept rows holding a zero.
        Post-ReLU kept rows hold zeros, and keep them without one."""
        _, F, scorer, rois = self._case(kind)
        calls = []
        real = mining.roi_pool

        def counting(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(mining, "roi_pool", counting)
        out = mine_many(F, rois, scorer, self.CONFIG)
        monkeypatch.undo()
        kept = sum(len(self._maps(m)) for m in out) - len(rois)
        if kind in ("ties", "post-relu-one-negative-zero"):
            assert len(calls) > len(rois)
        else:
            assert calls == rois
        assert kept > 30
        if kind.startswith("post-relu"):
            assert sum(not m.data.all() for mined in out
                       for m in self._maps(mined)[1:]) > 10
        for mined in out:
            for m in self._maps(mined):
                want = roi_pool(F, m.source_roi, 5, 5)
                assert m.data.tobytes() == want.data.tobytes()
                assert m.argmax.tobytes() == want.argmax.tobytes()

    @pytest.mark.parametrize("kind, reads", [
        ("float32", []), ("post-relu", [False]),
        ("post-relu-one-negative-zero", [True])])
    def test_level_zero_read_once_per_miner(self, kind, reads, monkeypatch):
        """The table's level 0 is searched for a -0.0 at the first kept
        row holding a zero, once per miner however many RoIs it mines,
        and never on a map without zero maxima."""
        _, F, scorer, rois = self._case(kind)
        got = []
        real = RangeMaxTable.holds_negative_zero

        def counting(self):
            got.append(real(self))
            return got[-1]

        monkeypatch.setattr(RangeMaxTable, "holds_negative_zero", counting)
        miner = ContextMiner(F, scorer, self.CONFIG)
        for r in rois:
            miner.mine(r)
        mine_many(F, rois, scorer, self.CONFIG)
        assert got == reads * 2

    @pytest.mark.parametrize("kind", ["float32", "float64"])
    def test_map_changed_after_mining(self, kind):
        """Argmax read after the caller overwrites F still routes as F
        was mined: kept maps and backward gradients are those of mining
        an untouched copy."""
        rng, F, scorer, rois = self._case(kind, seed=211)
        before = F.copy()
        out = mine_many(F, rois, scorer, self.CONFIG)
        F[...] = self._map(kind, rng)
        want = mine_many(before, rois, scorer, self.CONFIG)
        for a, b in zip(out, want):
            assert_same_mined(a, b)
            g = rng.normal(0, 1, a.feature.shape).astype(np.float32)
            grad_a = mine_context_backward(g, a, F.shape, scorer)
            grad_b = mine_context_backward(g, b, F.shape, scorer)
            assert grad_a[0].tobytes() == grad_b[0].tobytes()
            assert grad_a[1][0].tobytes() == grad_b[1][0].tobytes()
            assert grad_a[1][1] == grad_b[1][1]

    def test_results_do_not_keep_the_table(self, monkeypatch):
        """Mined maps hold the miner's map copy until they read argmax,
        never the range-max table."""
        _, F, scorer, rois = self._case("float32", seed=223)
        tables = []
        real = RangeMaxTable.__init__

        def init(self, F):
            tables.append(weakref.ref(self))
            real(self, F)

        monkeypatch.setattr(RangeMaxTable, "__init__", init)
        out = mine_many(F, rois, scorer, self.CONFIG)
        out.append(mine_context(F, rois[0], scorer, self.CONFIG))
        gc.collect()
        assert len(tables) == 2
        assert all(t() is None for t in tables)
        for mined in out:
            for m in self._maps(mined):
                want = roi_pool(F, m.source_roi, 5, 5)
                assert m.argmax.tobytes() == want.argmax.tobytes()

    def test_map_data_owns_its_memory(self):
        """A kept map's data is a copy, not a view of the rescored slice
        or of any other array larger than the map."""
        _, F, scorer, rois = self._case("float32", seed=227)
        for mined in mine_many(F, rois, scorer, self.CONFIG):
            for m in self._maps(mined):
                base = m.data if m.data.base is None else m.data.base
                assert base.nbytes == m.data.nbytes


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

        def f(x):
            m = mine_context(x, r, scorer, config)
            return float((w.astype(np.float64) * m.feature).sum()), routing(m)

        report = check(f, F, grad_F, h=1e-2, probes=200)
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

    @pytest.mark.parametrize("backbone", ["pool", "align"])
    def test_every_cell_falls_back(self, backbone):
        """A RoI covering the whole map loses all 8 cell anchors: every
        block routes through the object map and the scorer, fed no rows,
        gets a zero gradient of its full width."""
        rng = np.random.default_rng(79)
        F = rng.normal(0, 1, (2, 16, 16)).astype(np.float32)
        scorer = ContextScorer(rng.normal(0, 1, 2 * 9).astype(np.float32), 0.1)
        mined = mine_context(F, Box(0.0, 0.0, 16.0, 16.0), scorer,
                             MiningConfig(ph=3, pw=3, backbone=backbone))
        assert all(rec.fallback for rec in mined.selected)
        g = rng.normal(0, 1, (18, 3, 3)).astype(np.float32)
        grad_F, (gw, gb) = mine_context_backward(g, mined, F.shape, scorer,
                                                 lambda_ctx=0.7)
        want = np.zeros(F.shape, dtype=np.float32)
        for i in range(9):
            want += mining._backward_one(g[2 * i:2 * (i + 1)],
                                         mined.object_map, F.shape)
        assert grad_F.tobytes() == want.tobytes()
        assert gw.dtype == np.float32 and gw.shape == (18,)
        assert not gw.any() and not np.signbit(gw).any()
        assert gb == 0.0 and math.copysign(1.0, gb) == 1.0


class TestScorerGradient:
    """scorer_gradient on stacked rows equals a loop of one np.dot per
    row, bit for bit: both sums run from 0.0 in row order."""

    @staticmethod
    def _oracle(g, x, lam):
        grad_w = np.zeros(x.shape[1], dtype=np.float64)
        grad_b = 0.0
        for gi, xi in zip(g, x):
            xi = xi.astype(np.float64)
            u = float(np.dot(gi.astype(np.float64), xi))
            grad_w += lam * u * xi
            grad_b += lam * u
        return grad_w, grad_b

    @staticmethod
    def _assert_same(got, want):
        assert got[0].dtype == np.float64
        assert got[0].tobytes() == want[0].tobytes()
        assert isinstance(got[1], float)
        assert got[1] == want[1]
        assert math.copysign(1.0, got[1]) == math.copysign(1.0, want[1])

    @pytest.mark.parametrize("width", [18, 3136])
    @pytest.mark.parametrize("n", [0, 1, 8])
    def test_matches_loop_oracle(self, n, width):
        rng = np.random.default_rng([n, width])
        for _ in range(20):
            # rows of mixed scales, so that the order of each sum matters
            scale = 10.0 ** rng.integers(-6, 7, (n, 1))
            g = (scale * rng.normal(0, 1, (n, width))).astype(np.float32)
            x = rng.normal(0, 1, (n, width)).astype(np.float32)
            self._assert_same(scorer_gradient(g, x, 0.7),
                              self._oracle(g, x, 0.7))

    def test_cancelling_terms_sum_in_row_order(self):
        """Single-entry rows whose u cancel: the row-order sum from 0.0
        gives 1, a compensated sum 2 and numpy's pairwise grouping of 8
        terms 0."""
        u = [1e16, 1e16, 1e16, -1e16, -1e16, 1.0, -1e16, 1.0]
        assert math.fsum(u) == 2.0
        assert ((u[0] + u[1]) + (u[2] + u[3])) \
            + ((u[4] + u[5]) + (u[6] + u[7])) == 0.0
        g = np.array(u).reshape(-1, 1)
        x = np.ones_like(g)
        got = scorer_gradient(g, x, 1.0)
        self._assert_same(got, self._oracle(g, x, 1.0))
        assert got[0].tolist() == [1.0] and got[1] == 1.0

    @pytest.mark.parametrize("backbone", ["pool", "align"])
    def test_is_the_straight_through_gate_gradient(self, backbone):
        """mine_context_backward's (grad_w, grad_b) is the gradient, at the
        mining scorer w0, of the forward that gates each kept block as
        x_i * (1 + lambda * (s_i(w) - s_i(w0))), s_i the scorer's own
        score of the frozen kept map; the object block and the fallback
        blocks carry no gate."""
        rng = np.random.default_rng(89)
        F = rng.normal(0, 2, (2, 24, 24)).astype(np.float32)
        scorer = ContextScorer(rng.normal(0, 1, 18).astype(np.float32), 0.1)
        # the left-top, top, right-top, left and left-bottom cells fall back
        mined = mine_context(F, Box(0.5, 1.0, 7.0, 9.0), scorer,
                             MiningConfig(ph=3, pw=3, backbone=backbone))
        gated = np.array([False] + [not rec.fallback for rec in mined.selected])
        assert 0 < gated.sum() < 8
        g = rng.normal(0, 1, (18, 3, 3)).astype(np.float32)
        lam = 0.7
        _, (gw, gb) = mine_context_backward(g, mined, F.shape, scorer,
                                            lambda_ctx=lam)
        maps = mining._block_maps(mined.object_map, mined.selected)
        x = np.array([m.data.reshape(-1) for m in maps])
        u = (g.reshape(9, -1).astype(np.float64) * x).sum(axis=1)
        s0 = scorer.score_flat(x)
        assert s0[gated].tolist() == [rec.score for rec in mined.selected
                                      if not rec.fallback]

        def f(theta):
            s = ContextScorer(theta[:-1], theta[-1]).score_flat(x)
            gate = np.where(gated, 1.0 + lam * (s - s0), 1.0)
            return float((u * gate).sum()), None

        theta0 = np.append(scorer.weights, scorer.bias).astype(np.float64)
        assert f(theta0)[0] == pytest.approx(
            float((g.astype(np.float64) * mined.feature).sum()), rel=1e-12)
        report = check(f, theta0, np.append(gw, gb), probes=theta0.size)
        assert report.probed == 19 and report.skipped == 0
        assert report.max_rel_error <= 1e-3


class TestMiningConfig:
    @pytest.mark.parametrize("ph,pw", [(7, -3), (0, 7), (0, 0), (2.5, 7),
                                       (7, 2.0), (True, 7)])
    def test_grid_below_one_rejected(self, ph, pw):
        with pytest.raises(ShapeError, match=re.escape(
                f"grid extents must be integers >= 1, got {ph}x{pw}")):
            MiningConfig(ph=ph, pw=pw)

    @pytest.mark.parametrize("backbone", ["pool", "align"])
    @pytest.mark.parametrize("s", [0, -1, 2.5, 2.0, True])
    def test_samples_per_bin_not_an_integer_from_one_rejected(self, s,
                                                               backbone):
        """On both backbones, though only align samples."""
        with pytest.raises(ShapeError, match=re.escape(
                f"samples per bin must be integers >= 1, got {s}")):
            MiningConfig(backbone=backbone, samples_per_bin=s)

    @pytest.mark.parametrize("scale", [0.0, -0.0, -1.0, math.nan, math.inf,
                                       -math.inf])
    def test_local_scale_not_positive_and_finite_rejected(self, scale):
        """A scale <= 0 would make a flipped or empty local box, whose
        block would silently repeat the object map."""
        with pytest.raises(DegenerateBoxError, match="local_scale"):
            MiningConfig(local_scale=scale)


class TestCandidateGridSpec:
    """A grid value that is not finite would make every cell fall back
    (short_edge_frac) or fail untyped on first use (the others)."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["offset_fracs", "size_fracs"])
    def test_fracs_not_finite_rejected(self, name, bad):
        value = getattr(CandidateGridSpec(), name)[:-1] + (bad,)
        with pytest.raises(DegenerateBoxError, match=name):
            CandidateGridSpec(**{name: value})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["anchor_iou_min", "short_edge_frac"])
    def test_bound_not_finite_rejected(self, name, bad):
        with pytest.raises(DegenerateBoxError, match=name):
            CandidateGridSpec(**{name: bad})

    @pytest.mark.parametrize("backbone", ["pool", "align"])
    def test_list_fields_equal_tuple_spec(self, backbone):
        """Lists of fractions give the spec of the same tuples, which
        enumerates and mines bit-identically."""
        fracs = {"offset_fracs": [-0.3, -0.1, 0.0, 0.2, 0.35],
                 "size_fracs": [0.4, 0.75, 1.0]}
        listed = CandidateGridSpec(**fracs, anchor_iou_min=0.25)
        tupled = CandidateGridSpec(
            **{k: tuple(v) for k, v in fracs.items()}, anchor_iou_min=0.25)
        assert listed == tupled and hash(listed) == hash(tupled)
        assert isinstance(listed.offset_fracs, tuple)
        cell = Box(3.0, 4.0, 15.0, 12.0)
        assert candidate_pool_for_cell(cell, listed, (40, 40)) == \
            candidate_pool_for_cell(cell, tupled, (40, 40))
        rng = np.random.default_rng(2001)
        F = rng.normal(0, 1, (3, 40, 40)).astype(np.float32)
        scorer = ContextScorer(rng.normal(0, 1, 75).astype(np.float32), 0.1)
        rois = [Box(12.5, 14.0, 20.0, 22.5), Box(2.0, 30.0, 9.0, 38.0)]
        got, want = (
            mine_many(F, rois, scorer,
                      MiningConfig(ph=5, pw=5, backbone=backbone, grid=grid))
            for grid in (listed, tupled))
        for a, b in zip(got, want, strict=True):
            assert_same_mined(a, b)


def zero_scorer(F):
    """A zero scorer of F's channels at 7 x 7 bins; at D = 0 it holds no
    weights, which ContextScorer.zeros would refuse."""
    return ContextScorer(np.zeros(F.shape[0] * 49, dtype=np.float32))


# Each entry point that reads a feature map F.
MAP_READERS = {
    "roi_pool": lambda F: roi_pool(F, Box(0.0, 0.0, 2.0, 2.0), 2, 2),
    "roi_align": lambda F: roi_align(F, Box(0.0, 0.0, 2.0, 2.0), 2, 2),
    "RangeMaxTable.query": lambda F: RangeMaxTable(F).query([0], [1], [0],
                                                            [1]),
    "mine_many-pool": lambda F: mine_many(
        F, [Box(1.0, 1.0, 3.0, 3.0)], zero_scorer(F)),
    "mine_many-align": lambda F: mine_many(
        F, [Box(1.0, 1.0, 3.0, 3.0)], zero_scorer(F),
        MiningConfig(backbone="align")),
    "fixed_context_variant": lambda F: fixed_context_variant(
        F, Box(1.0, 1.0, 3.0, 3.0), "neigh8"),
}


@pytest.mark.parametrize("call", sorted(MAP_READERS))
@pytest.mark.parametrize("shape", [(0, 6, 6), (3, 0, 6), (3, 6, 0), (6, 6)],
                         ids=["D0", "H0", "W0", "rank2"])
def test_malformed_map_rejected(shape, call):
    """A map with no channels, rows or columns, or not of rank 3, raises
    ShapeError, not a numpy error."""
    with pytest.raises(ShapeError, match="^feature map"):
        MAP_READERS[call](np.zeros(shape, dtype=np.float32))


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
        """At the default scale, and at a positive scale below 1, which
        shrinks the box and is still accepted."""
        _, F, r = self._data()
        for scale in (1.5, 0.25):
            got = fixed_context_variant(F, r, "local",
                                        MiningConfig(local_scale=scale))
            want = roi_pool(F, r.scaled_about_center(scale), 7, 7).data
            assert np.array_equal(got[4:], want)

    def test_neigh8_equals_mining_with_forced_full_cell(self):
        """A grid of the full cell alone pools the anchor and the full
        cell.  A scorer and its negation pick the full cell in every cell
        between them, and each block that holds it is neigh8's block."""
        rng, F, r = self._data(79)
        grid = CandidateGridSpec(offset_fracs=(0.0,), size_fracs=(1.0,),
                                 anchor_iou_min=0.0)
        config = MiningConfig(ph=7, pw=7, grid=grid)
        w = rng.normal(0, 1, 4 * 49).astype(np.float32)
        fixed = fixed_context_variant(F, r, "neigh8").reshape(9, 4, 7, 7)
        full = []
        for sign in (1.0, -1.0):
            mined = mine_context(F, r, ContextScorer(sign * w, 0.3), config)
            blocks = mined.feature.reshape(9, 4, 7, 7)
            assert np.array_equal(blocks[0], fixed[0])
            for k, rec in enumerate(mined.selected, 1):
                assert rec.pool_size == 2
                if rec.index == 1:
                    full.append(k)
                    assert np.array_equal(blocks[k], fixed[k])
        assert sorted(full) == list(range(1, 9))

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

    def test_sliver_cell_pooled_where_mining_falls_back(self):
        """A block falls back only for a cell without area inside the
        map, mining's cell when its anchor is lost.  For Box(1, 10, 9, 18)
        on a 40x40 map the left cell [-7, 10, 1, 18] keeps a 1 px sliver,
        which neigh8 pools, while its anchor lies outside the map."""
        F = np.random.default_rng(89).normal(0, 1, (2, 40, 40)).astype(
            np.float32)
        r = Box(1.0, 10.0, 9.0, 18.0)
        cell = cells_of(r)["left"]
        assert cell == Box(-7.0, 10.0, 1.0, 18.0)
        k = 1 + DIRECTIONS.index("left")
        block = fixed_context_variant(F, r, "neigh8")[2 * k:2 * k + 2]
        assert np.array_equal(block, roi_pool(F, cell, 7, 7).data)
        assert not np.array_equal(block, roi_pool(F, r, 7, 7).data)
        mined = mine_context(F, r, ContextScorer.zeros(2, 7, 7))
        assert mined.selected[k - 1].fallback
        assert np.array_equal(mined.feature[2 * k:2 * k + 2],
                              mined.object_map.data)


@pytest.mark.parametrize("backbone", ["pool", "align"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_miner_reads_one_pixel_major_copy(backbone, dtype):
    """Both backbones read the map from one copy taken at construction,
    in the map's dtype and pixel-major, and mine as from the map itself:
    writing into the map afterwards changes no mined map."""
    rng = np.random.default_rng(199)
    F = rng.normal(0, 1, (3, 30, 30)).astype(dtype)
    config = MiningConfig(ph=5, pw=5, backbone=backbone)
    scorer = ContextScorer(rng.normal(0, 1, 75).astype(np.float32), 0.1)
    r = Box(11.3, 10.6, 17.9, 18.2)
    want = mine_context(F, r, scorer, config)
    miner = ContextMiner(F, scorer, config)
    source = miner._source
    assert source.dtype == F.dtype and not np.shares_memory(source, F)
    assert source.transpose(1, 2, 0).flags.c_contiguous
    assert np.array_equal(source, F)
    F[...] = 0.0
    got = miner.mine(r)
    assert got.feature.tobytes() == want.feature.tobytes()
    assert mining.roi_map(source, r, config).data.tobytes() == (
        want.object_map.data.tobytes())


def test_lib_matrix_digests_repeat(tmp_path):
    """tools/matrix.py gives the same library digest of every output on
    two runs, over every map kind on both backbones and the layout cases
    of the f32 and f64 maps, under 96 names disjoint from its 59 CLI
    output names."""
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "matrix", root / "tools" / "matrix.py")
    matrix = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(matrix)
    first = matrix.lib_digests()
    assert first == matrix.lib_digests()
    assert len(first) == len(matrix.KINDS) * 2 * 11 + 2 * 4 == 96
    assert {name.split("-")[0] for name in first} == set(matrix.KINDS)
    cli_names = {name for outputs, _ in matrix.commands(tmp_path)
                 for name in outputs}
    assert len(cli_names) == 59
    assert not cli_names & set(first)


def test_matrix_chunk_case_splits_unlike_packing():
    """tools/matrix.py's chunk_case mines three chunks of 21 RoIs or fewer,
    where packing consecutive RoIs up to CANDIDATE_BUDGET candidates, as
    mine_many once did, would split after RoI 26: its digests compare the
    two chunkings."""
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "matrix", root / "tools" / "matrix.py")
    matrix = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(matrix)
    F, rois, _ = matrix.chunk_inputs(20261025)
    grid = MiningConfig().grid
    counts = [int(mining._chunk_pools([r], grid, F.shape[:0:-1]).counts.sum())
              for r in rois]
    splits, total = [], 0
    for i, n in enumerate(counts):
        if total + n > mining.CANDIDATE_BUDGET:
            splits.append(i)
            total = 0
        total += n
    size = mining._chunk_size(grid)
    assert size == 21 and len(rois) == matrix.CHUNK_ROIS == 48
    assert splits == [26]
