"""Context mining around object RoIs.

Given an object RoI, a 3x3 grid of equally-shaped cells is centered on
it.  In each of the 8 surrounding cells a pool of candidate boxes is
enumerated around the cell's anchor (the centered half-width/half-height
box), constrained in size and in IoU with that anchor.  A single linear
scorer, shared across all cells and all RoIs, scores every candidate's
pooled features; the argmax candidate per cell is kept and its map is
concatenated with the object map into one (9*D) x ph x pw feature.

Below the API, geometry is arrays: build_layout maps (R, 4) RoIs to
(R, 8, 4) cells and _candidate_arrays enumerates many cells' pools in
one pass.  Box objects appear only at the API edge.

Fixed (non-mined) context layouts - enlarged local box, whole-map global
box, 4- and 8-neighbor cells - are provided for comparison under the
same concatenation contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from itertools import islice, product
from typing import NamedTuple

import numpy as np

from .errors import DegenerateBoxError, NumericError, ShapeError
from .geometry import Box, iou
from .roi_ops import RangeMaxTable, RoIMap, _check_extents, \
    _check_feature_map, _roi_align_many, roi_align, roi_align_backward, \
    roi_align_bin_sums, roi_pool, roi_pool_backward
from .tensor import concat_channels

DIRECTIONS = ("left-top", "top", "right-top", "left", "right",
              "left-bottom", "bottom", "right-bottom")

# Cell centers' (x, y) offsets in object widths and heights.
_OFFSETS = np.array([(-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0),
                     (-1, 1), (0, 1), (1, 1)], dtype=np.float64)

NEIGH4_DIRECTIONS = tuple(d for d in DIRECTIONS
                          if d in ("top", "left", "right", "bottom"))

VARIANTS = ("none", "local", "global", "neigh4", "neigh8")

FALLBACK = -1

# Most candidates one chunk holds, bounding its enumeration (about 160 bytes
# per candidate) and its filter: the pool filter keeps the (K, ph*pw) int64
# bin-rectangle rows of a chunk's K candidates alive, 12.8 MB at 7x7 bins.
CANDIDATE_BUDGET = 1 << 15
# Rows per step of the pool filter's sliced work (the float64 copy of the
# maxima for V @ W, the per-candidate gathers) and of rescoring, so their
# temporaries do not grow with the chunk.  The align bin sums step by
# roi_ops.ALIGN_SUM_BLOCK candidates instead.
SLICE = 128


def build_layout(rois: np.ndarray) -> np.ndarray:
    """The (R, 8, 4) x1,y1,x2,y2 cells, in DIRECTIONS order, of the 3x3
    grids centered at (R, 4) object RoIs.  Every cell has its RoI's width
    and height, its center displaced by (+-w, 0), (0, +-h), (+-w, +-h),
    in the float64 operations of Box.cx and Box.from_center.  A RoI
    without positive width and height, or with a cell corner that is not
    finite (a NaN corner, or a grid overflowing float64), raises
    DegenerateBoxError naming the first such RoI."""
    rois = np.asarray(rois, dtype=np.float64).reshape(-1, 1, 4)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        size = rois[..., 2:] - rois[..., :2]
        center = rois[..., :2] + 0.5 * size + _OFFSETS * size
        cells = np.concatenate([center - 0.5 * size, center + 0.5 * size],
                               axis=2)
    finite = np.isfinite(cells).all(axis=(1, 2))
    bad = ~(finite & (size > 0.0).all(axis=(1, 2)))
    if bad.any():
        k = bad.argmax()
        what = "has no area" if finite[k] else "has a non-finite context cell"
        raise DegenerateBoxError(
            f"object RoI {what}: {_box_at(rois[:, 0], k)}")
    return cells


@dataclass(frozen=True)
class CandidateGridSpec:
    """Discretization of the candidate pool within a cell.

    Candidate centers sit at the cell center displaced by offset_fracs of
    the cell width/height; candidate sizes are size_fracs of the cell
    width/height (independently per axis).  Candidates must keep a short
    edge of at least short_edge_frac of the cell's short edge, a long
    edge no longer than the cell's long edge, and IoU with the cell
    anchor of at least anchor_iou_min, judged on the cell's shape (see
    candidate_pool_for_cell).  Every pool holds the anchor first.
    offset_fracs and size_fracs are stored as tuples, so a spec given
    lists equals, and hashes as, the spec given the same tuples.  A value
    that is not finite raises DegenerateBoxError naming its field.
    """

    offset_fracs: tuple = (-0.25, -0.125, 0.0, 0.125, 0.25)
    size_fracs: tuple = (1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0)
    anchor_iou_min: float = 0.3
    short_edge_frac: float = 1.0 / 3.0

    def __post_init__(self):
        for name in ("offset_fracs", "size_fracs"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name, value in vars(self).items():
            if not np.isfinite(value).all():
                raise DegenerateBoxError(f"{name} must be finite, got {value}")


def _clip_like_box(boxes: np.ndarray, width, height) -> np.ndarray:
    """Box.clip of (..., 4) corner rows, bit for bit: np.clip with scalar
    bounds keeps -0.0 as Python's max and min do (with array bounds, or
    np.maximum, it gives +0.0)."""
    out = np.empty_like(boxes)
    out[..., 0::2] = np.clip(boxes[..., 0::2], 0.0, width)
    out[..., 1::2] = np.clip(boxes[..., 1::2], 0.0, height)
    near, far = out[..., :2], out[..., 2:]
    far[...] = np.where(far > near, far, near)
    return out


@cache
def _grid_combos(grid: CandidateGridSpec):
    """Cell-relative (oy, ox, sh, sw) flat arrays of the raw combos, in the
    documented nested order, whose IoU with the centred anchor reaches
    anchor_iou_min; cached per spec.  In units of the cell's sides the
    anchor is [-1/4, 1/4] on both axes, so IoU does not depend on the
    cell: geometry.iou decides it exactly on Fractions of the grid's
    floats."""
    q, bound = Fraction(1, 4), Fraction(float(grid.anchor_iou_min))
    offs, sizes = ([float(v) for v in fracs]
                   for fracs in (grid.offset_fracs, grid.size_fracs))
    kept = []
    for combo in product(offs, offs, sizes, sizes):
        oy, ox, sh, sw = map(Fraction, combo)
        box = Box(ox - sw / 2, oy - sh / 2, ox + sw / 2, oy + sh / 2)
        if iou(box, Box(-q, -q, q, q)) >= bound:
            kept.append(combo)
    return tuple(np.array(kept, dtype=np.float64).reshape(-1, 4).T)


class CandidatePools(NamedTuple):
    """The pools of N cells, one after the other as (K, 4) x1,y1,x2,y2
    float64 candidates, and their (N,) sizes; size 0 marks a fallback."""

    candidates: np.ndarray
    counts: np.ndarray


def _candidate_arrays(cells: np.ndarray, grid: CandidateGridSpec,
                      map_bounds) -> CandidatePools:
    """The pools of (N, 4) cells by candidate_pool_for_cell's rule, in one
    broadcast of _grid_combos against every cell, each value through that
    rule's float64 operations in its order: a pool is the same bit for bit
    in any batch.  A cell without finite positive sides, or whose anchor
    is lost, counts 0.  A corner that overflows stays infinite without
    map_bounds, and with them clips to the border as its exact value would."""
    # column 0 is the anchor's combo (0, 0, 1/2, 1/2): + 0 * cw keeps a center
    oy, ox, sh, sw = (np.concatenate([[a], c]) for a, c in
                      zip((0.0, 0.0, 0.5, 0.5), _grid_combos(grid)))
    with np.errstate(over="ignore", invalid="ignore"):
        size = cells[:, 2:] - cells[:, :2]
        cw, ch = size.T[:, :, None]
        ccx, ccy = (cells[:, :2] + 0.5 * size).T[:, :, None]
        cx, cy, w, h = ccx + ox * cw, ccy + oy * ch, sw * cw, sh * ch
        rows = np.stack([cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w,
                         cy + 0.5 * h], axis=2)
        floor = grid.short_edge_frac * np.minimum(cw, ch)
        ceil = np.maximum(cw, ch)
        keep = (np.minimum(w, h) >= floor) & (np.maximum(w, h) <= ceil)
        keep[:, 0] = True
        valid = (np.isfinite(size) & (size > 0.0)).all(axis=1)
        if map_bounds is not None:
            raw, rows = rows, _clip_like_box(rows, *map_bounds)
            sides = rows[..., 2:] - rows[..., :2]
            aw, ah = sides[:, 0].T
            valid &= (aw * ah > 0.0) & (np.minimum(aw, ah) >= floor[:, 0])
            keep[:, 1:] &= (sides[:, 1:] > 0.0).all(axis=2)
            moved = (raw != rows).any(axis=2)
            # re-check on corners what clipping moved (all of a cell whose
            # anchor it moved) against that anchor: its area > 0, so union > 0;
            # where areas overflow, IoU from corners scaled by 2^-514 (exact)
            i, ratio = np.flatnonzero(valid & moved.any(axis=1)), np.nan
            for scale in (2.0 ** -514, 1.0):
                (ax1, ay1, ax2, ay2), (x1, y1, x2, y2) = (
                    np.moveaxis(part * scale, 2, 0)
                    for part in (rows[i, :1], rows[i, 1:]))
                bw, bh = x2 - x1, y2 - y1
                inter = (np.maximum(np.minimum(x2, ax2) - np.maximum(x1, ax1), 0.0)
                         * np.maximum(np.minimum(y2, ay2) - np.maximum(y1, ay1), 0.0))
                union = bw * bh + (ax2 - ax1) * (ay2 - ay1) - inter
                ratio = np.where(np.isfinite(union), inter / union, ratio)
            keep[i, 1:] &= ~(moved[i, 1:] | moved[i, :1]) | (
                (np.minimum(bw, bh) >= floor[i]) & (np.maximum(bw, bh) <= ceil[i])
                & (ratio >= grid.anchor_iou_min))
    keep &= valid[:, None]
    return CandidatePools(np.take(rows.reshape(-1, 4), np.flatnonzero(keep),
                                  axis=0), keep.sum(axis=1))


def _chunk_size(grid: CandidateGridSpec) -> int:
    """RoIs per chunk: how many pool bounds of the grid (8 cells of 1 + its
    kept combos) CANDIDATE_BUDGET holds, at least 1."""
    return max(1, CANDIDATE_BUDGET // (8 * (1 + _grid_combos(grid)[0].size)))


def _chunk_pools(rois: list, grid, map_bounds) -> CandidatePools:
    """The pools of the RoIs' cells, in RoI then DIRECTIONS order, with
    (R, 8) counts, from one build_layout and one _candidate_arrays call."""
    pools = _candidate_arrays(build_layout(_xyxy(rois)).reshape(-1, 4), grid,
                              map_bounds)
    # copied once the call has freed its temporaries, so that the chunk's rows
    # do not pin the heap top above the space those leave
    return CandidatePools(pools.candidates.copy(), pools.counts.reshape(-1, 8))


def candidate_pool_for_cell(cell: Box, grid: CandidateGridSpec,
                            map_bounds) -> list[Box] | None:
    """Enumerate and filter the candidate pool of one cell, as a list of
    boxes with the anchor first: a one-cell Box view of _candidate_arrays.

    Raw candidates come from the offset x size grid in the documented
    nested order (oy, ox, sh, sw).  A combo is kept when its IoU with the
    anchor meets the bound, decided once per grid (_grid_combos), and its
    float sides sw * cw and sh * ch, which its corners are built from,
    meet the edge bounds of the cell's sides cw, ch.  So the pool of a
    cell that clipping leaves alone depends on its shape only; for
    size_fracs in [short_edge_frac, 1] monotone rounding keeps every combo
    (187 of the default grid's 400).  With map_bounds, candidates clipped
    to no area are dropped, and those clipping moved, or all of a cell
    whose anchor it moved, are re-checked on their corners (x2-x1, y2-y1)
    against the clipped anchor, so each pool member meets them as stored.

    Returns None when the anchor itself is lost to the map border (fully
    outside, or clipped below the short-edge floor): the caller then
    substitutes the object RoI's own map for this cell.  A cell without
    finite positive sides, or an unbounded pool with a corner overflowing
    float64, raises DegenerateBoxError.
    """
    if not (cell.w > 0.0 and cell.h > 0.0):
        raise DegenerateBoxError(f"cell has no area: {cell}")
    pools = _candidate_arrays(_xyxy([cell]), grid, map_bounds)
    if max(cell.w, cell.h) == np.inf or not np.isfinite(pools.candidates).all():
        raise DegenerateBoxError(f"candidate pool of cell {cell} overflows float64")
    if pools.counts[0] == 0:
        return None
    return [Box(*row) for row in pools.candidates.tolist()]


@dataclass
class ContextScorer:
    """Linear scorer over flattened D*ph*pw RoI maps; one instance scores
    every cell of every RoI."""

    weights: np.ndarray
    bias: float = 0.0

    @staticmethod
    def zeros(d: int, ph: int, pw: int) -> "ContextScorer":
        """An extent that is not an integer >= 1 raises ShapeError."""
        _check_extents("scorer extents", d, ph, pw)
        return ContextScorer(np.zeros(d * ph * pw, dtype=np.float32), 0.0)

    def score_flat(self, flat_feats: np.ndarray) -> np.ndarray:
        """Scores for a (K, D*ph*pw) feature matrix, computed in float64
        through einsum's fixed reduction order for run-to-run determinism.
        A row scores the same alone as inside any matrix: einsum sums a
        lone row longer than its 8192-element buffer in another order than
        a row of a matrix, so a lone row is scored as a matrix of two
        copies."""
        n = self.weights.shape[0]
        if flat_feats.ndim != 2 or flat_feats.shape[1] != n:
            raise ShapeError(f"scorer expects a (K, {n}) feature matrix, "
                             f"got shape {flat_feats.shape}")
        rows = flat_feats.astype(np.float64)
        if rows.shape[0] == 1:
            rows = np.repeat(rows, 2, axis=0)
        scores = np.einsum("kn,n->k", rows, self.weights.astype(np.float64))
        return scores[:flat_feats.shape[0]] + float(self.bias)


@dataclass(frozen=True)
class MiningConfig:
    """Knobs of the mining operator and the fixed-context variants; a ph,
    pw or samples_per_bin (on both backbones) that is not an integer >= 1
    raises ShapeError, a local_scale not finite and > 0 (a flipped or
    empty local box) DegenerateBoxError."""

    ph: int = 7
    pw: int = 7
    backbone: str = "pool"
    samples_per_bin: int = 2
    grid: CandidateGridSpec = field(default_factory=CandidateGridSpec)
    local_scale: float = 1.5

    def __post_init__(self):
        if self.backbone not in ("pool", "align"):
            raise ValueError(f"backbone must be pool|align, got {self.backbone!r}")
        _check_extents("grid extents", self.ph, self.pw)
        _check_extents("samples per bin", self.samples_per_bin)
        if not (np.isfinite(self.local_scale) and self.local_scale > 0.0):
            raise DegenerateBoxError(
                f"local_scale must be finite and > 0, got {self.local_scale}")


DEFAULT_CONFIG = MiningConfig()


def roi_map(F: np.ndarray, box: Box, config: MiningConfig) -> RoIMap:
    """The configured RoI operator (pool or align) applied to one box.

    roi_pool and roi_align are looked up when called, not bound once at
    import, so wrappers installed on the module's names see every call.
    """
    if config.backbone == "pool":
        return roi_pool(F, box, config.ph, config.pw)
    return roi_align(F, box, config.ph, config.pw, config.samples_per_bin)


@dataclass
class SelectionRecord:
    """What was mined in one cell; index is FALLBACK when the pool was
    empty and the object map was substituted."""

    direction: str
    index: int
    roi_map: RoIMap | None
    score: float | None
    pool_size: int

    @property
    def fallback(self) -> bool:
        return self.index == FALLBACK

    @property
    def box(self) -> Box | None:
        """The kept map's source RoI; None for a fallback."""
        return None if self.roi_map is None else self.roi_map.source_roi


@dataclass
class MinedRoIFeature:
    """Concatenated (9*D) x ph x pw feature with its selection records.

    Channel block 0 is the object map; blocks 1..8 follow DIRECTIONS
    order.  Blocks of fallback cells repeat the object map.
    """

    feature: np.ndarray
    object_map: RoIMap
    selected: list[SelectionRecord]


def _block_maps(object_map: RoIMap, selected) -> list[RoIMap]:
    """The map of each of the nine channel blocks of a mined feature: the
    object map, then each cell's kept map, or the object map again for a
    fallback cell."""
    return [object_map] + [object_map if rec.fallback else rec.roi_map
                           for rec in selected]


def _box_at(xyxy: np.ndarray, k) -> Box:
    return Box(*(float(v) for v in xyxy[k]))


def _xyxy(boxes) -> np.ndarray:
    """(N, 4) x1,y1,x2,y2 float64 rows of a sequence of boxes."""
    return np.array([[b.x1, b.y1, b.x2, b.y2] for b in boxes],
                    dtype=np.float64).reshape(-1, 4)


def _require_finite(F: np.ndarray) -> None:
    """Argmax selection would silently pick a NaN, so maps holding NaN or
    inf are refused."""
    if not np.isfinite(F).all():
        raise NumericError("feature map holds NaN or inf values")


class ContextMiner:
    """Reusable mining engine for one feature map.

    Builds what selection needs once per map, then mines any number of RoIs
    against it.  The unit of work is a chunk of RoIs: mine() mines a chunk of
    one, mine_many() chunks of _chunk_size(grid) RoIs, at most
    CANDIDATE_BUDGET candidates unless one RoI's pools exceed it.  A chunk's
    pools are enumerated at once, and the candidates of its non-fallback
    cells go through one table pass (pool) or one call of roi_align_bin_sums
    (align), one filter pass, and ContextScorer.score_flat on the rows the
    filter keeps, SLICE rows per call: one call for a chunk of up to SLICE
    cells without near ties, and bounded memory when whole pools tie.  The
    chunk can change which near-ties of a cell are rescored, as the rounding
    of s~ below may depend on what else is in the chunk, but never the
    selection, its score or its map.  Mining is pure: the map and the scorer
    are only read, and a table only builds the levels its queries need.  A
    map or a scorer holding NaN or inf raises NumericError.  On both
    backbones the object maps are read from the miner's one pixel-major copy
    of the map (see _roi_map), bit for bit as from F.  A kept map is the
    winner's rescored row, copied, and computes its argmax from that copy on
    first read (see RoIMap), so only a backward pass pools it again.  On a
    map whose float32 copy holds a -0.0, a row holding a zero is pooled by
    roi_pool at once, as the table may keep the other zero's sign (see
    _pool_map).

    Selection filters, then rescores, each cell on its own.  Each
    candidate k of a cell gets an approximate score s~_k and a bound
    t_k >= |score_k - s~_k|, where score_k is what
    ContextScorer.score_flat gives its exact map.  Every candidate that
    can reach the pool's maximum satisfies s~_k + t_k >= max_j (s~_j - t_j)
    (rounding both sides to float64 cannot break this: rounding is
    monotone and exact scores are float64 values).  Only those
    candidates, in pool order, are scored exactly; the argmax among them
    is the argmax of the pool, exact ties included, and its map is the
    one kept.  Selections and scores are bit-identical to exhaustive
    scoring; s~ only filters and never decides.  When a cell's filter is
    not finite (overflow) every candidate of the cell is scored.  When
    every kept t_k of a cell is 0, exact scores equal s~ in value and only
    the cell's first largest s~ is scored: on either backbone this happens
    for a zero scorer, and on the pool backbone for any candidate whose
    pooled maps are zero wherever the scorer is not (see M_k below).  With
    c the bias, w the scorer and W_b its weights of bin b over the D
    channels:

    Pool backbone: a pooled value is a float32 map element, and the
    product of two float32 values is exact in float64, so any two
    float64 scorings of a candidate sum the same n = D*ph*pw exact terms
    and differ only in the order.  With S = sum_i |w_i x_i|, u = 2^-53
    and gamma_n = n u / (1 - n u) (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 3-4), a sum in any order errs by at most
    gamma_{n-1} S and adding c by a further u (|sum| + |c|), so each
    scoring errs by at most gamma_n S + u |c|.  Per chunk the miner
    queries each distinct bin rectangle of its pools once (R rectangles,
    V their R x D maxima), computes P = V W with W = [W_b] the
    D x (ph*pw) scorer, and sets

        s~_k = sum_b P[rect(k, b), b] + c,
        t_k = 3 * gamma_n * M_k + |c| * 2^-51   (t_k = 0 when M_k = 0),
        M_k = sum_b max_d |V[rect(k, b), d]| * ||W_b||_1.

    M_k >= S_k: the terms of bin b sum to at most the bin's largest |x_d|
    times ||W_b||_1.  The two paths differ by at most 2 gamma_n S + 2 u |c|.
    The maxima are exact, and computing M_k (a norm of D terms, one
    product, a sum of ph*pw terms) loses at most a factor
    1 - gamma_{D+ph*pw-1} >= 1 - gamma_n.  So for n u <= 1/5 the first
    term of t_k exceeds 2 gamma_n S with room for its own rounding, and
    the second is 2 u |c| twice over.  The bound needs the ph*pw float64
    column norms ||W_b||_1 beside the D*ph*pw float64 values of W, and per
    chunk one max over D of each of the R rectangles.  The rescored maps
    are rows of V, so a chunk's bin rectangles are pooled once, and the
    winners' rows are the kept maps.

    The computed M_k is 0 only when all its terms are: a nonzero term is
    at least 2^-149 * 2^-149, above float64's underflow, and a rounded sum
    of nonnegative values is at least its largest term.  Then each bin's
    maxima or weights are all zero, every product w_i x_i of candidate k
    is an exact zero on both paths, and both scores are exactly c.

    Align backbone: roi_align and the scorer are both linear in F, so a
    candidate's score is sum over bins b of mean_s bilinear(G_b, p_s) + c,
    with G = W_b^T F one float64 plane per bin.  The miner builds G and
    the bound planes A = |W_b|^T |F| once, and s~_k comes from G with

        t_k = 2^-22 * sum_b mean_s bilinear(A_b) + |c| * 2^-50
              + sum_i |w_i| * 2^-149.

    The exact path rounds each map element a_i to float32, which moves
    the score by at most 2^-24 * sum_i |w_i| |a_i|, and the first term
    bounds that sum four times over.  The spare factor of 3 covers the
    float64 rounding of both paths, in whatever order they sum.  Each
    path rounds a chain of at most m operations per term, so it errs by
    at most gamma_m times the bin sums of A: m is about D + 2s(ph + pw)
    on the s~ path (G, then the x taps of a bin row, then its y taps;
    see roi_align_bin_sums) and n + 2s(ph + pw + 2) + 2 on the exact
    path (roi_align's weights and its sums over at most 2s ph touched
    rows and 2s pw columns, then score_flat; see roi_align).  Both
    together stay below 2^-24 times the sums while each m is well under
    2^28, so for any scorer much smaller than 2^28 weights (1 GiB of
    float32) and s (ph + pw) well under 2^26.  The |c| term covers the
    rounding of adding the bias, the last term the absolute error (at
    most 2^-150) of rounding a subnormal element.

    The exact stage makes the rescored candidates' maps SLICE at a time
    with roi_ops._roi_align_many, on the miner's pixel-major copy of the
    map, so the axis setup runs once per slice.  roi_align is that
    routine on one box and gathers every layout of a map in one way, so
    these maps equal roi_align's on F bit for bit; the copy is
    pixel-major only because that layout gathers fastest.  The object
    maps stay on roi_map and roi_align.

    G and A hold 2*ph*pw*H*W float64 values, one plane after the other as
    roi_align_bin_sums reads them.  Per chunk the filter holds the (K, 2)
    bin sums of G and A, each candidate's x- and y-geometry (its x1, x2
    and its y1, y2) and the taps and weights of each distinct geometry;
    the keys of a block of roi_ops.ALIGN_SUM_BLOCK candidates and their
    XS values come and go with the block, so the temporaries do not grow
    with the chunk.
    """

    def __init__(self, F: np.ndarray, scorer: ContextScorer,
                 config: MiningConfig = DEFAULT_CONFIG):
        d, H, W = _check_feature_map(F)
        _require_finite(F)
        if scorer.weights.shape != (d * config.ph * config.pw,):
            raise ShapeError(
                f"scorer weight length {scorer.weights.shape} does not match "
                f"D*ph*pw = {d * config.ph * config.pw}")
        if not (np.isfinite(scorer.weights).all()
                and np.isfinite(scorer.bias)):
            raise NumericError("scorer holds NaN or inf values")
        self.F = F
        self.scorer = scorer
        self.config = config
        self._table = self._signed_zeros = None
        self._source = F.transpose(1, 2, 0).copy().transpose(2, 0, 1)
        w = scorer.weights.astype(np.float64).reshape(d, -1)
        if config.backbone == "pool":
            self._table = RangeMaxTable(F)
            self._w, self._w_norms = w, np.abs(w).sum(axis=0)
            nu = w.size * 2.0 ** -53
            self._gamma = nu / (1.0 - nu)
            return
        flat = F.reshape(d, H * W).astype(np.float64)
        planes = np.empty((2, w.shape[1], H * W))
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(w.T, flat, out=planes[0])
            np.matmul(np.abs(w).T, np.abs(flat, out=flat), out=planes[1])
        self._planes = planes.reshape(2, config.ph, config.pw, H, W)
        self._w_abs_sum = float(np.abs(w).sum())

    def _roi_map(self, box: Box) -> RoIMap:
        """roi_map of box on the miner's one copy of F, taken once in F's
        dtype and pixel-major, the layout both operators gather fastest:
        roi_pool as whole D-rows, roi_align in its one gather for every
        layout (bit for bit as on F).  Being a copy, it keeps no block of
        the table alive, and a caller changing F after mining cannot change
        the argmax a kept map computes from it later."""
        return roi_map(self._source, box, self.config)

    def _pool_slices(self, V: np.ndarray, ids: np.ndarray, xyxy: np.ndarray):
        """(rows, kept_map) for consecutive slices of SLICE boxes: box k's
        pooled map V[ids[k]] (ph*pw x D) as one D-major row, as roi_pool
        lays it out, and kept_map(j) the RoIMap of the slice's j-th box."""
        for i in range(0, ids.shape[0], SLICE):
            maps = V.take(ids[i:i + SLICE], axis=0)
            rows = maps.transpose(0, 2, 1).reshape(maps.shape[0], -1)
            yield rows, partial(self._pool_map, rows, xyxy[i:i + SLICE])

    def _pool_map(self, rows: np.ndarray, xyxy: np.ndarray, j: int) -> RoIMap:
        """The kept map of box xyxy[j] from its rescored row rows[j], copied,
        with its argmax computed from the miner's map on first read.  The
        row's values are roi_pool's (level 0 of a map of another dtype
        rounds to float32, and rounding is monotone, so it keeps the
        rounded maximum), but a zero maximum may hold the other zero's sign
        (see RangeMaxTable).  So where the table's level 0 holds a -0.0, a
        row holding a zero is pooled by roi_pool instead.  Without one every
        zero maximum is +0.0 on both paths, as are the empty bins of both,
        so post-ReLU maps keep their rows.  Level 0 is read once per miner,
        at the first kept row holding a zero."""
        box = _box_at(xyxy, j)
        if not rows[j].all():
            if self._signed_zeros is None:
                self._signed_zeros = self._table.holds_negative_zero()
            if self._signed_zeros:
                return self._roi_map(box)
        cfg = self.config
        return RoIMap(rows[j].reshape(-1, cfg.ph, cfg.pw).copy(), box,
                      self.F.shape[1:], pool_from=self._source)

    def _bounds(self, xyxy: np.ndarray):
        """(s~, t, exact) of every candidate (see the class docstring):
        exact(keep) yields, for consecutive slices of SLICE candidates of
        keep, their exact flat maps and a function giving the RoIMap of
        the slice's j-th candidate."""
        cfg = self.config
        bias = float(self.scorer.bias)
        if self._table is not None:
            V, ids = self._table.pool_xyxy(xyxy, cfg.ph, cfg.pw)
            peaks = np.abs(V).max(axis=1).astype(np.float64)
            P = _sliced(lambda v: v.astype(np.float64) @ self._w, V)
            bins = np.arange(ids.shape[1])
            approx = _sliced(lambda i: P.reshape(-1).take(
                i * bins.size + bins).sum(axis=1), ids)
            mags = _sliced(lambda i: peaks.take(i) @ self._w_norms, ids)
            slack = (3.0 * self._gamma * mags
                     + np.where(mags > 0.0, abs(bias) * 2.0 ** -51, 0.0))

            def exact(keep):
                # exact rows are the maxima the filter read; only the rows of
                # V that keep reads outlive the caller's reference to exact
                used, local = np.unique(ids[keep], return_inverse=True)
                return self._pool_slices(V.take(used, axis=0),
                                         local.reshape(ids[keep].shape),
                                         xyxy[keep])

            return approx + bias, slack, exact
        sums = roi_align_bin_sums(self._planes, xyxy, cfg.samples_per_bin)

        def exact(keep):
            for i in range(0, keep.shape[0], SLICE):
                boxes = [Box(*b) for b in xyxy[keep[i:i + SLICE]].tolist()]
                maps = _roi_align_many(self._source, boxes, cfg.ph, cfg.pw,
                                       cfg.samples_per_bin)
                yield (np.stack([m.data.reshape(-1) for m in maps]),
                       maps.__getitem__)

        return (sums[:, 0] + bias, 2.0 ** -22 * sums[:, 1]
                + abs(bias) * 2.0 ** -50 + self._w_abs_sum * 2.0 ** -149, exact)

    def _best_of_pools(self, xyxy: np.ndarray, sizes: np.ndarray) -> list:
        """(index, map, score) of each pool's best-scoring candidate, the
        first in pool order among equal scores, given the pools one after
        the other as xyxy rows and their (nonzero) sizes; one filter pass
        and one score_flat call per SLICE rescored candidates."""
        starts = np.cumsum(sizes) - sizes
        seg = np.repeat(np.arange(sizes.shape[0]), sizes)
        with np.errstate(over="ignore", invalid="ignore"):
            approx, slack, exact = self._bounds(xyxy)
            lo, hi = approx - slack, approx + slack
            finite = np.logical_and.reduceat(np.isfinite(lo) & np.isfinite(hi),
                                             starts)
            keep = ~finite[seg] | (hi >= np.maximum.reduceat(lo, starts)[seg])
        # a finite pool whose kept candidates all have zero slack rescores
        # only its first largest s~
        tight = finite & ~np.logical_or.reduceat(keep & (slack != 0.0), starts)
        if tight.any():
            first = _first_max(np.where(keep & tight[seg], approx, -np.inf),
                               starts)
            keep &= ~tight[seg]
            keep[first[tight]] = True
        kept = np.flatnonzero(keep)
        pool_of = seg[kept]
        slices = exact(kept)
        del exact  # frees what the filter alone read before rescoring
        # Only the first best of each pool within a slice is held: the
        # first best of those is the pool's first best candidate.
        at, picks, scores, maps = 0, [], [], []
        for rows, kept_map in slices:
            n = rows.shape[0]
            score = self.scorer.score_flat(rows)
            part = pool_of[at:at + n]
            local = _first_max(score, np.flatnonzero(np.diff(part, prepend=-1)))
            picks.append(kept[at + local])
            scores.append(score[local])
            maps += [kept_map(j) for j in local.tolist()]
            at += n
        picks, scores = np.concatenate(picks), np.concatenate(scores)
        best = _first_max(scores, np.searchsorted(seg[picks],
                                                  np.arange(sizes.shape[0])))
        return [(int(picks[j]) - start, maps[j], float(scores[j]))
                for start, j in zip(starts.tolist(), best.tolist())]

    def _mine_chunk(self, rois: list) -> list[MinedRoIFeature]:
        """Mine a chunk of RoIs: one enumeration and one _best_of_pools
        pass over the pools of its non-fallback cells."""
        _, H, W = self.F.shape
        object_maps = [self._roi_map(r) for r in rois]
        xyxy, counts = _chunk_pools(rois, self.config.grid, (W, H))
        sizes = counts[counts > 0]
        picks = iter(self._best_of_pools(xyxy, sizes) if sizes.size else ())
        out = []
        for object_map, cell_counts in zip(object_maps, counts.tolist()):
            selected = [SelectionRecord(d, *next(picks), n) if n else
                        SelectionRecord(d, FALLBACK, None, None, 0)
                        for d, n in zip(DIRECTIONS, cell_counts)]
            maps = _block_maps(object_map, selected)
            out.append(MinedRoIFeature(concat_channels([m.data for m in maps]),
                                       object_map, selected))
        return out

    def mine(self, r: Box) -> MinedRoIFeature:
        """Mine one RoI, as a chunk of one."""
        return self._mine_chunk([r])[0]


def _sliced(fn, rows: np.ndarray) -> np.ndarray:
    """fn applied to consecutive slices of SLICE rows, concatenated."""
    return np.concatenate([fn(rows[i:i + SLICE])
                           for i in range(0, rows.shape[0], SLICE)])


def _first_max(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Index of the first largest value of each segment
    values[starts[i]:starts[i+1]]; segments are non-empty and NaN-free."""
    top = np.maximum.reduceat(values, starts)
    counts = np.subtract(starts.tolist()[1:] + [values.shape[0]], starts)
    hit = np.flatnonzero(values == np.repeat(top, counts))
    return hit[np.searchsorted(hit, starts)]


def mine_context(F: np.ndarray, r: Box, scorer: ContextScorer,
                 config: MiningConfig = DEFAULT_CONFIG) -> MinedRoIFeature:
    """Mine the 8 surrounding context RoIs of r and concatenate their maps."""
    return ContextMiner(F, scorer, config).mine(r)


def mine_many(F: np.ndarray, rois, scorer: ContextScorer,
              config: MiningConfig = DEFAULT_CONFIG) -> list[MinedRoIFeature]:
    """Mine many RoIs against one shared table, in input order.

    rois may be any iterable, read one chunk (see ContextMiner) at a time,
    so memory does not grow with the number of RoIs.  Results equal
    mine_context's for each RoI, bit for bit.
    """
    miner = ContextMiner(F, scorer, config)
    rois, size, out = iter(rois), _chunk_size(config.grid), []
    while chunk := list(islice(rois, size)):
        out += miner._mine_chunk(chunk)
    return out


def _backward_one(grad_block: np.ndarray, roi_map: RoIMap, F_dims,
                  out: np.ndarray | None = None) -> np.ndarray:
    """roi_map's backward pass, added into out in place when given."""
    if roi_map.argmax is None:
        return roi_align_backward(grad_block, roi_map, F_dims, out=out)
    grad = roi_pool_backward(grad_block, roi_map, F_dims)
    return grad if out is None else np.add(out, grad, out=out)


def scorer_gradient(grad_blocks: np.ndarray, maps: np.ndarray,
                    lambda_ctx: float):
    """float64 gradient of the loss with respect to the shared scorer
    through the selected candidates' scores.

    grad_blocks and maps are (n, D*ph*pw) arrays, n >= 0, row i the loss
    gradient g_i on a selected candidate's map and that map x_i.  With
    u_i = <g_i, x_i>, one float64 dot per row, and c_i = lambda_ctx * u_i,
    grad_w sums c_i * x_i and grad_b sums c_i from 0.0 in row order: one
    np.add.reduce down the rows [c_i * x_i, c_i], never numpy's fast axis,
    the only one it sums pairwise.  Returns (grad_w, grad_b).

    The mined feature depends on w only through the argmax.  This is the
    gradient, at w = w0 with the selections fixed, of a value-preserving
    straight-through gate: each kept block x_i becomes
    x_i * (1 + lambda_ctx * (s_i(w) - s_i(w0))), with s_i(w) = <w, x_i> + b
    its score under scorer (w, b) and w0 the scorer that selected it.
    """
    g = np.asarray(grad_blocks, dtype=np.float64)
    x = np.asarray(maps, dtype=np.float64)
    coef = lambda_ctx * (g[:, None, :] @ x[:, :, None])[:, 0]
    sums = np.add.reduce(np.concatenate([coef * x, coef], axis=1), axis=0,
                         initial=0.0)
    return sums[:-1], float(sums[-1])


def mine_context_backward(grad_feature: np.ndarray, mined: MinedRoIFeature,
                          F_dims, scorer: ContextScorer,
                          lambda_ctx: float = 1.0):
    """Backward pass of mine_context under frozen selections.

    Block 0's gradient routes through the object map; block i's routes
    through cell i's selected map (or the object map again for fallback
    cells).  The scorer learns through each kept candidate's score: one
    scorer_gradient call on the stacked gradient blocks and kept maps of
    the n non-fallback cells, n rows in DIRECTIONS order, the order of
    both of its sums (n = 0 gives zeros): the gradient of scorer_gradient's
    straight-through gate, which object and fallback blocks do not carry.
    Selection argmaxes themselves pass no gradient.

    Returns (grad_F, (grad_weights, grad_bias)); raises NumericError when
    the scorer gradient overflows float32 or is not finite.
    """
    d = F_dims[0]
    ph, pw = mined.object_map.data.shape[1:]
    if grad_feature.shape != (9 * d, ph, pw):
        raise ShapeError(
            f"grad_feature shape {grad_feature.shape} != {(9 * d, ph, pw)}")
    if scorer.weights.shape != (d * ph * pw,):
        raise ShapeError("scorer shape inconsistent with mined feature")

    grad_F = np.zeros(tuple(F_dims), dtype=np.float32)
    maps = _block_maps(mined.object_map, mined.selected)
    blocks = grad_feature.reshape(len(maps), d, ph, pw)
    for block, roi_map in zip(blocks, maps):
        _backward_one(block, roi_map, F_dims, out=grad_F)
    flat = np.array([m.data for m in maps]).reshape(len(maps), -1)
    kept = [False] + [not rec.fallback for rec in mined.selected]
    grad_w, grad_b = scorer_gradient(blocks.reshape(len(maps), -1)[kept],
                                     flat[kept], lambda_ctx)
    with np.errstate(over="ignore", invalid="ignore"):
        grad_w = grad_w.astype(np.float32)
    if not (np.isfinite(grad_w).all() and np.isfinite(grad_b)):
        raise NumericError("scorer gradient is not finite in float32")
    return grad_F, (grad_w, float(grad_b))


def fixed_context_variant(F: np.ndarray, r: Box, variant: str,
                          config: MiningConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Predefined (non-mined) context features for comparison.

    none   -> the object map alone, D x ph x pw
    local  -> object + the RoI enlarged local_scale about its center
    global -> object + the whole feature map
    neigh4 -> object + the top/left/right/bottom cells
    neigh8 -> object + all 8 surrounding cells in DIRECTIONS order

    A cell with no area inside the map repeats the object map; mining falls
    back when the anchor is lost, so a sliver it drops is pooled here.  A
    map not of rank 3 or with an extent < 1 raises ShapeError, and a map
    holding NaN or inf NumericError.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    _, H, W = _check_feature_map(F)
    _require_finite(F)
    obj = roi_map(F, r, config).data
    if variant == "none":
        return obj.copy()
    if variant == "local":
        boxes = [r.scaled_about_center(config.local_scale)]
    elif variant == "global":
        boxes = [Box(0.0, 0.0, float(W), float(H))]
    else:
        cells = build_layout(_xyxy([r]))[0]
        dirs = NEIGH4_DIRECTIONS if variant == "neigh4" else DIRECTIONS
        boxes = [_box_at(cells, DIRECTIONS.index(d)) for d in dirs]
    return concat_channels([obj] + [
        obj if b.clip(W, H).area <= 0.0 else roi_map(F, b, config).data
        for b in boxes])


def mined_to_record(mined: MinedRoIFeature) -> dict:
    """JSON-ready summary of one mined RoI: the object box plus each
    cell's selected box, score, candidate index, and pool size."""
    obj = mined.object_map.source_roi
    cells = {}
    for rec in mined.selected:
        cells[rec.direction] = {
            "index": rec.index,
            "box": None if rec.box is None else
                   [rec.box.x1, rec.box.y1, rec.box.x2, rec.box.y2],
            "score": rec.score,
            "pool_size": rec.pool_size,
            "fallback": rec.fallback,
        }
    return {"object": [obj.x1, obj.y1, obj.x2, obj.y2], "cells": cells}
