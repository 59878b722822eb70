"""RoI pooling and RoI align, forward and backward.

Both operators turn an arbitrary box on a D x H x W feature map into a
fixed D x ph x pw map.  Pooling quantizes bin boundaries to the integer
grid and takes per-bin maxima; align samples a regular sub-grid per bin
with bilinear interpolation and averages.  Forward passes retain the
routing records their backward passes need: argmax indices, or the
grid lines align's samples touch and each bin's per-axis weights on
them.  roi_pool gathers a pixel-major F (F.transpose(1, 2, 0)
C-contiguous) as whole D-rows and any other F per element, with the
same bits: the layout picks only its gather.  roi_align gathers its
patch by one fancy index of F.transpose(1, 2, 0) in every layout.
Pixel-major is the fastest layout for both.  Every other gather is the
ndarray take method: rows along axis 0, where fancy indexing copies
narrow rows one at a time, and elements from a flat or 1-D array, where
take outruns fancy indexing once a gather holds a few thousand elements
and matches it on smaller ones.  The np.take function gives the same
bits, but its Python wrapper adds about 1 us a call.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateBoxError, ShapeError
from .geometry import Box

EMPTY_BIN = -1

# Boxes, and distinct keys, per step of roi_align_bin_sums (see there).
ALIGN_SUM_BLOCK = 512


class RoIMap:
    """Fixed-size map pooled from one RoI.

    data is D x ph x pw float32.  For pooling, argmax holds per-element
    flat spatial indices y*W + x into the source map (EMPTY_BIN for empty
    bins).  For align, samples holds the clamped (y, x) sample coordinates
    per bin, shape ph x pw x S^2 x 2, and taps what roi_align_backward
    reads: (rows, Ky, cols, Kx), the ascending grid rows and columns the
    samples touch and the (ph, rows) and (pw, cols) float64 matrices of
    each bin's mean linear weight on them.

    A map made with pool_from instead of argmax computes its argmax on
    first read, as roi_pool(pool_from, source_roi, ph, pw).argmax, and
    keeps it; until then it holds pool_from alive.  The pool miner makes
    its kept maps this way (see mining.ContextMiner), so only a caller
    that reads argmax, as the backward pass does, pays for it.  Their
    pool_from is the miner's own copy of the map, which the mined maps
    keep alive until each has read its argmax.
    """

    def __init__(self, data: np.ndarray, source_roi: Box,
                 map_hw: tuple[int, int], argmax: np.ndarray | None = None,
                 samples: np.ndarray | None = None,
                 pool_from: np.ndarray | None = None,
                 taps: tuple | None = None):
        self.data = data
        self.source_roi = source_roi
        self.map_hw = map_hw
        self.samples = samples
        self.taps = taps
        self._argmax = argmax
        self._pool_from = pool_from

    @property
    def argmax(self) -> np.ndarray | None:
        if self._pool_from is not None:
            ph, pw = self.data.shape[1:]
            self._argmax = roi_pool(self._pool_from, self.source_roi,
                                    ph, pw).argmax
            self._pool_from = None
        return self._argmax


def _check_feature_map(F: np.ndarray) -> tuple[int, int, int]:
    """F's (D, H, W); a map of another rank, or with an extent < 1,
    raises ShapeError."""
    if F.ndim != 3:
        raise ShapeError(f"feature map must be rank 3 (D,H,W), got {F.shape}")
    if min(F.shape) < 1:
        raise ShapeError(f"feature map extents must be >= 1, got {F.shape}")
    return F.shape


def _check_extents(what: str, *extents) -> None:
    """Each extent must be an int or a numpy integer (not a bool) >= 1."""
    for v in extents:
        if not (type(v) is int or isinstance(v, np.integer)) or v < 1:
            raise ShapeError(f"{what} must be integers >= 1, got "
                             + "x".join(map(str, extents)))


def _check_grad(grad_out: np.ndarray, roi_map: RoIMap, F_dims) -> None:
    """A backward pass's output gradient must match the map, and F_dims
    the map it was pooled from."""
    D, H, W = F_dims
    if grad_out.shape != roi_map.data.shape:
        raise ShapeError(
            f"grad shape {grad_out.shape} != map shape {roi_map.data.shape}")
    if (H, W) != roi_map.map_hw or D != roi_map.data.shape[0]:
        raise ShapeError(
            f"F_dims {tuple(F_dims)} inconsistent with map "
            f"({roi_map.data.shape[0]}, {roi_map.map_hw})")


def _clipped_or_raise(r: Box, width: int, height: int) -> Box:
    if not all(math.isfinite(v) for v in (r.x1, r.y1, r.x2, r.y2)):
        raise DegenerateBoxError(f"RoI {r} has a non-finite corner")
    clipped = r.clip(width, height)
    if clipped.area <= 0.0:
        raise DegenerateBoxError(
            f"RoI {r} has no area inside the {width}x{height} map")
    return clipped


def bin_edges(lo, extent, bins: int, limit: int):
    """Integerized bin boundaries along one axis.

    Bin i spans the continuous interval [lo + (i*extent)/bins,
    lo + ((i+1)*extent)/bins); its integer range is floor of the start to
    ceil of the end, clamped to [0, limit).  lo and extent are scalars or
    (K,) arrays; the bins run along the last axis of the result.
    """
    idx = np.arange(bins + 1, dtype=np.float64)
    bounds = (np.asarray(lo, dtype=np.float64)[..., None]
              + (idx * np.asarray(extent, dtype=np.float64)[..., None]) / bins)
    starts = np.maximum(np.floor(bounds[..., :-1]), 0.0).astype(np.int64)
    ends = np.minimum(np.ceil(bounds[..., 1:]), float(limit)).astype(np.int64)
    return starts, ends


def roi_pool(F: np.ndarray, r: Box, ph: int, pw: int) -> RoIMap:
    """Max-pool the RoI (clipped to the map) onto a ph x pw grid.

    Empty bins emit 0 with an EMPTY_BIN argmax sentinel.  Within a bin
    the argmax is the first maximum in row-major (y, x) order, as
    np.argmax picks it: a NaN beats every number and the first NaN wins,
    and -0.0 and +0.0 tie.  data holds the map element at the argmax
    (cast to float32), so signed zeros and NaN payloads pass unchanged.

    All bins are read in one gather of padded windows: each bin gets
    mh x mw slots, the largest bin extents, and a slot past its bin's
    extent repeats the bin's last row or column.  A repeated slot comes
    after the slot it copies, so it is never the first maximum.

    The windows are reduced over their slot axis by _first_max_slot, one
    elementwise pass per step, where np.argmax over a short last axis
    runs row by row.  F's layout in memory only picks how they are
    gathered: a pixel-major map (as the miner's copy is) as (slots,
    ph*pw, D), any other as (D, slots, ph*pw), so neither is copied whole.
    """
    D, H, W = _check_feature_map(F)
    _check_extents("grid extents", ph, pw)
    clipped = _clipped_or_raise(r, W, H)

    ys, ye = bin_edges(clipped.y1, clipped.h, ph, H)
    xs, xe = bin_edges(clipped.x1, clipped.w, pw, W)
    rows = _window_slots(ys, ye, H)                    # (ph, mh)
    cols = _window_slots(xs, xe, W)                    # (pw, mw)
    slots = (rows[:, None, :, None] * W + cols[None, :, None, :]).reshape(
        ph * pw, -1)
    pixels = F.transpose(1, 2, 0)
    if pixels.flags.c_contiguous:
        windows = pixels.reshape(-1, D).take(slots.T, axis=0)
        data, first = _first_max_slot(windows, 0)      # (ph*pw, D)
        data, first = np.ascontiguousarray(data.T), first.T
    else:
        windows = F.reshape(D, H * W).take(slots.T, axis=1)
        data, first = _first_max_slot(windows, 1)      # (D, ph*pw)
    argmax = slots.take(first + slots.shape[1] * np.arange(ph * pw))
    empty = ((ye <= ys)[:, None] | (xe <= xs)[None, :]).reshape(-1)
    data = data.astype(np.float32, copy=False)
    data[:, empty] = 0.0
    argmax[:, empty] = EMPTY_BIN
    return RoIMap(data.reshape(D, ph, pw), r, (H, W),
                  argmax=argmax.reshape(D, ph, pw))


def _first_max_slot(windows: np.ndarray, axis: int):
    """The element and the index of the first maximum along the slot axis
    of windows, as np.argmax picks it.

    Every slot equal to the maximum (or NaN, where the maximum is NaN) is
    a hit; ranking the slots S..1 in the smallest integer type that holds
    S, the largest ranked hit is the first.  Equal numbers have equal
    bits except zeros (the sign) and NaNs (the payload), so the maximum
    is the first hit's element everywhere else, and only those entries
    are read at the first hit.
    """
    top = windows.max(axis=axis)
    hit = windows == np.expand_dims(top, axis)
    nan = np.isnan(top)
    if nan.any():
        hit |= np.isnan(windows)
    S = windows.shape[axis]
    rank = np.arange(S, 0, -1, dtype=np.min_scalar_type(S))
    rank = rank.reshape((S,) + (1,) * (windows.ndim - 1 - axis))
    first = S - (hit * rank).max(axis=axis)
    fix = nan | (top == 0)
    if fix.any():
        at = np.moveaxis(windows, axis, -1)[fix]
        top[fix] = at[np.arange(at.shape[0]), first[fix]]
    return top, first


def _window_slots(starts, ends, limit: int) -> np.ndarray:
    """Grid coordinates of the padded window slots of each bin along one
    axis: slot a of bin i reads starts[i] + min(a, extent - 1), and an
    empty bin reads a valid placeholder."""
    extent = np.maximum(ends - starts, 1)
    a = np.arange(int(extent.max()))
    return np.minimum(starts[:, None] + np.minimum(a, extent[:, None] - 1),
                      limit - 1)


def roi_pool_backward(grad_out: np.ndarray, roi_map: RoIMap, F_dims) -> np.ndarray:
    """Route each output gradient to its argmax source location."""
    D, H, W = F_dims
    if roi_map.argmax is None:
        raise ShapeError("RoIMap carries no argmax records (not from roi_pool)")
    _check_grad(grad_out, roi_map, F_dims)
    grad = np.zeros((D, H, W), dtype=np.float32)
    valid = roi_map.argmax >= 0
    if valid.any():
        chan = np.broadcast_to(
            np.arange(D, dtype=np.int64)[:, None, None], roi_map.argmax.shape)
        flat = chan[valid] * (H * W) + roi_map.argmax[valid]
        np.add.at(grad.reshape(-1), flat, grad_out[valid].astype(np.float32))
    return grad


def _align_axis_coords(lo, hi, bins: int, s: int, limit: int) -> np.ndarray:
    """Clamped sample coordinates along one axis of K boxes spanning (K,)
    lo to hi: s per bin, shape K x bins x s.

    A sample lies at lo + (t * extent) / bins, t the bin index plus the
    sample's offset.  Where extent = hi - lo or t * extent overflows
    float64 (RoIs wider than about 2.5e307 at 7 bins) it is computed
    from halves instead, lo/2 + (t / bins) * (hi/2 - lo/2) doubled, which
    stays finite; every other sample keeps the first form's rounding.
    """
    t = (np.arange(bins, dtype=np.float64)[:, None]
         + (np.arange(s, dtype=np.float64) + 0.5) / s)
    lo, hi = lo[:, None, None], hi[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        c = lo + t * (hi - lo) / bins
        wide = ~np.isfinite(c)
        if wide.any():
            half = (lo / 2 + (t / bins) * (hi / 2 - lo / 2)) * 2
            c[wide] = np.broadcast_to(half, c.shape)[wide]
    return np.clip(c, 0.0, float(limit - 1))


def roi_align(F: np.ndarray, r: Box, ph: int, pw: int,
              samples_per_bin: int = 2) -> RoIMap:
    """Average bilinear samples on a regular per-bin grid; no quantization.

    Bins follow the unclipped RoI; sample coordinates falling outside the
    map are clamped to the border, so boundary RoIs still produce (and
    later receive) gradient.  A bilinear weight is a row weight times a
    column weight, so the map is Ky F Kx^T over the grid lines that the
    samples touch.  Ky and Kx hold each bin's mean linear weight on each
    line: from zero, the bin's 2*s weights along the axis added in
    (sample, lower/upper neighbour) order, then divided by s.  The map
    keeps its samples and taps (see RoIMap).  The patch F[rows][:, cols]
    is gathered by one fancy index of F.transpose(1, 2, 0) in every
    layout, copied to C-contiguous float64 (rows, cols, D) and reduced by
    np.einsum's own loops, so the layout moves no bit and outputs repeat
    from run to run.  It is _roi_align_many on the one box.

    Precision contract (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3): with R the exact RoIAlign of F at the samples and
    A that of |F|, each output is within 2^-24 |R| + 2 gamma_m A + 2^-150
    of R, where gamma_m = m u / (1 - m u), u = 2^-53 and m = 2s(ph + pw
    + 2) + 2.  A weight rounds at most 2s + 1 times, a term once in its
    product, and the sums once per touched line (at most 2s ph rows and
    2s pw columns); the float32 cast errs by 2^-24 |value|, or by 2^-150
    below the normal range.  A NaN or inf on a touched line makes its
    channel's outputs NaN or inf.
    """
    return _roi_align_many(F, [r], ph, pw, samples_per_bin)[0]


def _roi_align_many(F: np.ndarray, boxes: list[Box], ph: int, pw: int,
                    samples_per_bin: int = 2) -> list[RoIMap]:
    """roi_align of each of boxes, with numpy's per-call cost of the axis
    setup paid once for all of them instead of once per box.

    Each axis's sample coordinates come from _align_axis_coords, their
    lower and upper lines and weights from _linear_taps, and _axis_folds
    folds them into each box's ascending lines and K: from zero, a bin's
    2*s weights in (sample, lower/upper neighbour) order, then divided by
    s.  _align_data gathers the patch, in one way for every layout of F,
    and runs the two einsums.  Each map owns its arrays, so a map kept
    alone does not hold the others' alive.  The map, the grid and every
    box are checked before any work, so the first box with a non-finite
    corner or no area inside the map is refused with its error.
    """
    D, H, W = _check_feature_map(F)
    _check_extents("grid extents", ph, pw)
    _check_extents("samples per bin", samples_per_bin)
    for r in boxes:
        _clipped_or_raise(r, W, H)
    xyxy = np.array([(r.x1, r.y1, r.x2, r.y2) for r in boxes],
                    dtype=np.float64).reshape(-1, 4)
    s, N = samples_per_bin, xyxy.shape[0]
    ys = _align_axis_coords(xyxy[:, 1], xyxy[:, 3], ph, s, H)
    xs = _align_axis_coords(xyxy[:, 0], xyxy[:, 2], pw, s, W)
    samples = np.empty((N, ph, pw, s, s, 2), dtype=np.float64)
    samples[..., 0] = ys[:, :, None, :, None]
    samples[..., 1] = xs[:, None, :, None, :]
    return [RoIMap(_align_data(F, *ty, *tx), r, (H, W),
                   samples=S.reshape(ph, pw, s * s, 2).copy(), taps=(*ty, *tx))
            for r, S, ty, tx in zip(boxes, samples, _axis_folds(ys, H),
                                    _axis_folds(xs, W))]


def _axis_folds(c: np.ndarray, limit: int) -> list:
    """Each box's (lines, K) along one axis, from N boxes' (N, bins, s)
    sample coordinates c: the ascending grid lines its samples touch and
    the (bins, lines) float64 matrix of each bin's mean linear weight on
    each line.

    One _dedupe of (box, line) codes gives each box's lines and each
    tap's column of K.  One np.add.at, which applies its indices one
    after another, adds the taps from zero in (bin, sample, lower/upper
    neighbour) order, and the sums are divided by s.  K is built padded
    to the most lines of any box, and each box's columns copied out
    C-contiguous.
    """
    N, bins, s = c.shape
    lines, weights = _linear_taps(c, limit)
    box = np.arange(N)[:, None, None, None]
    codes, at = _dedupe(box * limit + lines, N * limit)
    first = np.searchsorted(codes, np.arange(N + 1) * limit)
    n = int(np.diff(first).max(initial=0))
    K = np.zeros((N, bins, n))
    np.add.at(K.reshape(-1), ((box * bins + np.arange(bins)[:, None, None]) * n
                              + at - first.take(box)).reshape(-1),
              weights.reshape(-1))
    K /= s
    first = first.tolist()
    return [(codes[a:b] - k * limit, K[k, :, :b - a].copy())
            for k, (a, b) in enumerate(zip(first, first[1:]))]


def _align_data(F: np.ndarray, rows: np.ndarray, Ky: np.ndarray,
                cols: np.ndarray, Kx: np.ndarray) -> np.ndarray:
    """roi_align's float32 D x ph x pw data, Ky F[rows][:, cols] Kx^T,
    over the (rows, cols, D) patch of F's pixels, one gather in any
    layout."""
    patch = np.ascontiguousarray(F.transpose(1, 2, 0)[rows[:, None], cols],
                                 dtype=np.float64)
    per_bin = np.einsum("ia,ajd->ijd", Ky, np.einsum("jb,abd->ajd", Kx, patch))
    return np.ascontiguousarray(per_bin.transpose(2, 0, 1), dtype=np.float32)


def roi_align_backward(grad_out: np.ndarray, roi_map: RoIMap, F_dims,
                       out: np.ndarray | None = None) -> np.ndarray:
    """The adjoint of roi_align, Ky^T g Kx on the map's touched lines,
    from the taps roi_align kept (see RoIMap).

    g is each channel's bins in float64, reduced by np.einsum's own loops
    and cast to float32.  Written into a float32 zero map, or with out
    (float32, D x H x W) added into out on the touched lines, one float32
    addition per element, and out returned: there out + the map bit for
    bit, and every other element of out, -0.0 included, left as it was.

    Precision contract: with R the exact adjoint and A that of |g|, each
    element of the map is within 2^-24 |R| + 2 gamma_m A + 2^-150 of R,
    with roi_align's gamma_m: the weights round as there, a term once in
    its product and the sums once per bin row and per bin column.
    """
    D, H, W = F_dims
    if roi_map.taps is None:
        raise ShapeError("RoIMap carries no align taps (not from roi_align)")
    _check_grad(grad_out, roi_map, F_dims)
    if out is not None and (out.shape, out.dtype) != ((D, H, W), np.float32):
        raise ShapeError(f"out must be float32 {(D, H, W)}, got {out.dtype} "
                         f"{out.shape}")
    rows, Ky, cols, Kx = roi_map.taps
    g = np.ascontiguousarray(grad_out.transpose(1, 2, 0), dtype=np.float64)
    lines = np.einsum("ia,ibd->dab", Ky, np.einsum("ijd,jb->ibd", g, Kx))
    at = (slice(None), rows[:, None], cols)
    if out is not None:
        out[at] += lines.astype(np.float32)
        return out
    grad = np.zeros((D, H, W), dtype=np.float32)
    grad[at] = lines
    return grad


def roi_align_bin_sums(planes: np.ndarray, xyxy: np.ndarray,
                       samples_per_bin: int = 2) -> np.ndarray:
    """RoIAlign of K boxes in which each bin samples its own plane, summed
    over the bins.

    planes is C x ph x pw x H x W float64: bin (i, j) of column c reads
    planes[c, i, j], with the sample coordinates and bilinear weights of
    roi_align.  xyxy is an (K, 4) x1,y1,x2,y2 array.  Returns (K, C):
    for each box and column, the sum over bins of the bin's mean sample.
    RoIAlign is linear in the map, so with planes[c, i, j] =
    sum_d w[d, i, j] * F[d] a row equals <w, roi_align(F, box).data> up
    to rounding.

    Bilinear weights factor per axis, and the y weights of bin row i do
    not depend on the bin column j.  With g a box's x-geometry (its x1
    and x2), a and b the samples of a bin, and u and v the lower and
    upper grid neighbours, a column's sum is

        (1/s^2) sum_i sum_{a,u} wy[i, a, u] XS[g, i, y(i, a, u)],
        XS[g, i, y] = sum_j sum_{b,v} wx[g, j, b, v]
                                      * planes[i, j, y, x(g, j, b, v)].

    Each XS value is computed once per block of ALIGN_SUM_BLOCK boxes
    that reads it, as one distinct (g, i, y) key, and the keys of a block
    in steps of as many.  A box reads 2*s*ph values of XS and a key
    2*s*pw values of the planes, so there are never more taps than the
    (2*s)^2*ph*pw per box of summing each box on its own, and the
    temporaries do not grow with K.  Every gather is a take (see the
    module docstring).  A step gathers the values of all C columns in
    one take, (C, keys, taps) or (C, boxes, taps), and sums them against
    its weights in one np.einsum.
    """
    if planes.ndim != 5:
        raise ShapeError(
            f"planes must be rank 5 (C,ph,pw,H,W), got {planes.shape}")
    C, ph, pw, H, W = planes.shape
    s = samples_per_bin
    xyxy = np.asarray(xyxy, dtype=np.float64)
    cols, wx, gx = _axis_taps(xyxy[:, 0], xyxy[:, 2], pw, s, W, H * W)
    rows, wy, gy = _axis_taps(xyxy[:, 1], xyxy[:, 3], ph, s, H, H)
    # a key is g * ph*H + i*H + y; row i*H + y of plane column j starts
    # at flat offset start[i*H + y] + j*H*W
    n = ph * H
    i, y = np.divmod(np.arange(n), H)
    start = (i * (pw * H) + y) * W
    flat = planes.reshape(C, -1)
    out = np.empty((C, xyxy.shape[0]))
    B = ALIGN_SUM_BLOCK
    for k in range(0, xyxy.shape[0], B):
        # keys rank the block's own x-geometries, so the table _dedupe may
        # mark spans the block, not every span of xyxy
        used, local = _dedupe(gx[k:k + B], cols.shape[0])
        gyk = gy[k:k + B]
        keys, ids = _dedupe(local[:, None] * n + rows.take(gyk, axis=0),
                            used.shape[0] * n)
        XS = np.empty((C, keys.shape[0]))
        for q in range(0, keys.shape[0], B):
            g, row = np.divmod(keys[q:q + B], n)
            g = used.take(g)
            taps = start.take(row)[:, None] + cols.take(g, axis=0)
            XS[:, q:q + B] = np.einsum("ckt,kt->ck", flat.take(taps, axis=1),
                                       wx.take(g, axis=0))
        out[:, k:k + B] = np.einsum("ckt,kt->ck", XS.take(ids, axis=1),
                                    wy.take(gyk, axis=0))
    out /= s * s
    return out.T


def _axis_taps(lo, hi, bins: int, s: int, limit: int, stride: int):
    """Bilinear taps along one axis of K boxes spanning lo to hi, per
    distinct span: (n, 2*s*bins) grid coordinates plus bin * stride, and
    weights, in (bin, sample, lower/upper neighbour) order; and the (K,)
    index of each box's span among the n."""
    spans, index = np.unique(np.stack([lo, hi], axis=1).view(np.complex128),
                             return_inverse=True)
    taps, weights = _linear_taps(
        _align_axis_coords(spans.real, spans.imag, bins, s, limit), limit)
    taps += (np.arange(bins, dtype=np.int64) * stride)[:, None, None]
    return (taps.reshape(-1, 2 * s * bins), weights.reshape(-1, 2 * s * bins),
            index.reshape(-1))


def _linear_taps(c: np.ndarray, limit: int):
    """The lower and upper grid neighbours of clamped coordinates c,
    floor(c) and floor(c) + 1 capped at limit - 1, and their linear
    weights 1 - (c - floor(c)) and c - floor(c), each stacked on a new
    last axis of 2: flattened, an axis's taps run in (bin, sample,
    lower/upper neighbour) order."""
    lo = np.floor(c).astype(np.int64)
    return (np.stack([lo, np.minimum(lo + 1, limit - 1)], axis=-1),
            np.stack([1 - (c - lo), c - lo], axis=-1))


class RangeMaxTable:
    """Sparse-table range-max over the spatial axes of a D x H x W map.

    Answers per-channel maxima over integer rectangles in O(1) numpy
    gathers.  Level (a, b) holds the max of each 2^a x 2^b window.  The
    constructor builds only level (0, 0), the map cast to float32 in
    pixel-major order; query builds the levels its
    rectangles need, so a table holds (A+1)*(B+1) levels of D*H*W floats
    for the largest levels A, B queried so far, at most
    H.bit_length() * W.bit_length() of them.  Maxima equal direct np.max
    over the same rectangle, bit for bit unless the maximum is a zero:
    ties of -0.0 and +0.0 keep whichever zero the comparison order gives.
    So pooled values computed through this table equal roi_pool's in
    value, and a zero's sign may differ, as roi_pool keeps the first of
    tied elements.
    """

    def __init__(self, F: np.ndarray):
        D, H, W = _check_feature_map(F)
        self.dims = (D, H, W)
        # Built in its gather layout: row (level-a, level-b, y, x) holds the
        # D channels, so queries index one flat view and no copy is kept.
        self._levels = np.empty((1, 1, H, W, D), dtype=np.float32)
        self._levels[0, 0] = F.transpose(1, 2, 0)

    def _extend(self, na: int, nb: int) -> None:
        """Build the block of levels a < na, b < nb, if the table lacks any.

        The new block starts from level 0 and builds every other level
        as a one-shot build of that size would, so its bits never depend
        on the queries before.  A level holds zero where its window does
        not fit in the map; query reads a level only at windows inside
        its rectangle, so never at a row >= H - 2^a + 1 or a column
        >= W - 2^b + 1.
        """
        D, H, W = self.dims
        oa, ob = self._levels.shape[:2]
        na, nb = max(na, oa), max(nb, ob)
        if (na, nb) == (oa, ob):
            return
        levels = np.zeros((na, nb, H, W, D), dtype=np.float32)
        levels[0, 0] = self._levels[0, 0]
        self._levels = levels
        for b in range(1, nb):
            half, n = 1 << (b - 1), W - (1 << b) + 1
            prev = levels[0, b - 1]
            np.maximum(prev[:, :n], prev[:, half:half + n],
                       out=levels[0, b, :, :n])
        for a in range(1, na):
            half, n = 1 << (a - 1), H - (1 << a) + 1
            prev = levels[a - 1]
            np.maximum(prev[:, :n], prev[:, half:half + n], out=levels[a, :, :n])

    def holds_negative_zero(self) -> bool:
        """Whether level 0, the map cast to float32, holds a -0.0.  If it
        does not, every zero maximum the table gives is +0.0, as roi_pool's
        are, bit for bit."""
        level = self._levels[0, 0]
        return bool(np.signbit(level[level == 0.0]).any())

    def query(self, y0, y1, x0, x1) -> np.ndarray:
        """Per-channel max over rectangles [y0,y1) x [x0,x1); returns (N, D).

        All four arguments are equal-length integer arrays, inside the
        map.  An empty rectangle (y1 <= y0 or x1 <= x0) gives zeros, as
        an empty bin of roi_pool does.  Levels the rectangles need and the
        table lacks are built first.
        """
        D, H, W = self.dims
        y0 = np.asarray(y0, dtype=np.int64)
        y1 = np.asarray(y1, dtype=np.int64)
        x0 = np.asarray(x0, dtype=np.int64)
        x1 = np.asarray(x1, dtype=np.int64)
        empty = (y1 <= y0) | (x1 <= x0)
        if empty.any():  # read a 1x1 rectangle in the map, zeroed below
            y0, x0 = np.minimum(y0, H - 1), np.minimum(x0, W - 1)
            y1, x1 = np.where(empty, y0 + 1, y1), np.where(empty, x0 + 1, x1)
        # floor(log2(n)), exact: n = m * 2^e with 0.5 <= m < 1
        ka = np.frexp(y1 - y0)[1].astype(np.int64) - 1
        kb = np.frexp(x1 - x0)[1].astype(np.int64) - 1
        if ka.size:
            self._extend(int(ka.max()) + 1, int(kb.max()) + 1)
        ya = y1 - (1 << ka)
        xb = x1 - (1 << kb)
        top = ((ka * self._levels.shape[1] + kb) * H + y0) * W
        low = top + (ya - y0) * W
        flat = self._levels.reshape(-1, D)
        out = flat.take(top + x0, axis=0)
        for corner in (top + xb, low + x0, low + xb):
            np.maximum(out, flat.take(corner, axis=0), out=out)
        out[empty] = 0.0
        return out

    def pool_xyxy(self, xyxy: np.ndarray, ph: int, pw: int):
        """Max-pool K boxes given as an (K, 4) x1,y1,x2,y2 float64 array,
        querying each distinct bin rectangle once.

        Uses the same bin integerization as roi_pool, so an empty bin
        (of a box narrower than its coordinates' rounding) pools to
        zeros, as roi_pool's do.  Returns
        (V, ids): V holds the (R, D) maxima of the R distinct bin
        rectangles of the K boxes in (y0, y1, x0, x1) lexicographic order,
        and ids the (K, ph*pw) row of V of each box's bins, so V[ids[k]] is
        box k's pooled map as (ph*pw, D).  A bin rectangle is a y-interval
        times an x-interval: the intervals of each axis are deduped on
        their own and the pairs in use are ranked, so no sort runs over
        all K*ph*pw bins.
        """
        _, H, W = self.dims
        yu, yi = _bin_intervals(xyxy[:, 1], xyxy[:, 3], ph, H)
        xu, xi = _bin_intervals(xyxy[:, 0], xyxy[:, 2], pw, W)
        nx = xu.shape[0]
        pairs, ids = _dedupe(yi[:, :, None] * nx + xi[:, None, :],
                             yu.shape[0] * nx)
        y0, y1 = np.divmod(yu[pairs // nx], H + 1)
        x0, x1 = np.divmod(xu[pairs % nx], W + 1)
        return self.query(y0, y1, x0, x1), ids.reshape(xyxy.shape[0], ph * pw)

    def pool_boxes(self, xyxy: np.ndarray, ph: int, pw: int) -> np.ndarray:
        """Max-pool an (K, 4) x1,y1,x2,y2 float64 array of boxes through
        pool_xyxy into (K, D, ph, pw) maps.  Its one caller is the
        synthetic trainer; it stays because ctxbench's tracer wraps it by
        name and the synth-train workload expects its span."""
        V, ids = self.pool_xyxy(xyxy, ph, pw)
        maps = V.take(ids, axis=0).reshape(len(ids), ph, pw, V.shape[1])
        return maps.transpose(0, 3, 1, 2)


def _bin_intervals(lo, hi, bins: int, limit: int):
    """The distinct integer bin intervals [start, end) of K boxes spanning
    lo to hi along one axis, as codes start * (limit + 1) + end in
    increasing order, and the (K, bins) index among them of each bin."""
    starts, ends = bin_edges(lo, hi - lo, bins, limit)
    return _dedupe(starts * (limit + 1) + ends, (limit + 1) ** 2)


def _dedupe(codes: np.ndarray, size: int):
    """Sorted distinct values of non-negative integer codes below size,
    and each code's index among them, shaped like codes.  Marks the codes
    in a size-long table when that is at most four slots per code, and
    sorts them otherwise."""
    if size > 4 * codes.size:
        values, index = np.unique(codes, return_inverse=True)
        return values, index.reshape(codes.shape)
    used = np.zeros(size, dtype=bool)
    used[codes] = True
    return np.flatnonzero(used), (np.cumsum(used) - 1).take(codes)
