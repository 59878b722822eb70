"""Correctness checks of each workload's outputs against `reference`.

Each check returns a list of failure messages; an empty list passes.
The checks run after the measured rounds and read only the outputs of
the last round, the inputs as generated, and the reference module.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref

PH = PW = 7
SCORE_RTOL = 1e-9
# RoIs whose every reference candidate is pooled and scored; the rest are
# checked on their selections only.
EXHAUSTIVE_SAMPLE = 2
# The synthetic demo writes its class blob with this constant value.
BLOB_VALUE = 2.0


def _box(b):
    return (b.x1, b.y1, b.x2, b.y2)


def _score_ref(w64, bias, block):
    """float64 dot product and its scale, sum |w_i x_i| + |b|."""
    x = block.reshape(-1).astype(np.float64)
    return float(np.dot(w64, x)) + bias, float(np.abs(w64 * x).sum()) + abs(bias)


def _check_rois_read(written, read, n, fails):
    if len(read) != n or [_box(b) for b in read] != [tuple(b) for b in written]:
        fails.append("RoIs read back differ from the RoIs written")


def _check_cells(F, roi, mined, scorer, obj_block, block_ref, tol, fails,
                 tag):
    """Cell by cell: fallbacks, constraints, pool membership, blocks and
    scores.  `block_ref(box)` is the reference map of a selected box and
    `tol(got, want)` the block comparison."""
    D, H, W = F.shape
    w64 = scorer.weights.astype(np.float64)
    bias = float(scorer.bias)
    pools = []
    for i, direction in enumerate(ref.DIRECTIONS):
        rec = mined.selected[i]
        block = mined.feature[(i + 1) * D:(i + 2) * D]
        cell, anchor = ref.cell_geometry(roi, direction)
        pool = ref.candidate_pool(cell, anchor, float(W), float(H))
        pools.append(pool)
        where = f"{tag} cell {direction}"
        if pool is None:
            if not rec.fallback:
                fails.append(f"{where}: anchor lost but no fallback")
            elif not np.array_equal(block, obj_block):
                fails.append(f"{where}: fallback block is not the object map")
            continue
        if rec.fallback:
            fails.append(f"{where}: fallback although the anchor survives")
            continue
        box = _box(rec.box)
        clipped_anchor = ref.clip_box(anchor, float(W), float(H))
        if not ref.meets_constraints(box, cell, clipped_anchor):
            fails.append(f"{where}: selected box {box} breaks a constraint")
        if rec.pool_size != len(pool):
            fails.append(f"{where}: pool size {rec.pool_size} != {len(pool)}")
        elif pool[rec.index] != box:
            fails.append(f"{where}: selected box is not candidate {rec.index}")
        if not tol(block, block_ref(box)):
            fails.append(f"{where}: block differs from the reference map")
        want, scale = _score_ref(w64, bias, block)
        if abs(rec.score - want) > SCORE_RTOL * scale:
            fails.append(f"{where}: score {rec.score!r} != reference {want!r}")
    return pools


def check_pool(F, written, rois, out, scorer, n_rois):
    fails = []
    _check_rois_read(written, rois, n_rois, fails)
    if len(out) != n_rois:
        return fails + [f"{len(out)} mined RoIs, expected {n_rois}"]
    D = F.shape[0]
    w64 = scorer.weights.astype(np.float64)
    bias = float(scorer.bias)
    fallbacks = 0
    for k, (r, mined) in enumerate(zip(rois, out)):
        roi = _box(r)
        tag = f"RoI {k}"
        obj = ref.max_pool(F, roi, PH, PW)
        if mined.feature.shape != (9 * D, PH, PW):
            fails.append(f"{tag}: feature shape {mined.feature.shape}")
            continue
        if not np.array_equal(mined.feature[:D], obj):
            fails.append(f"{tag}: block 0 differs from the reference max-pool")
        pools = _check_cells(
            F, roi, mined, scorer, obj,
            lambda box: ref.max_pool(F, box, PH, PW), np.array_equal, fails, tag)
        fallbacks += sum(p is None for p in pools)
        if k % (n_rois // EXHAUSTIVE_SAMPLE) != 0:
            continue
        # Sampled RoIs: no reference candidate outscores the selection.
        for i, pool in enumerate(pools):
            if pool is None:
                continue
            rec = mined.selected[i]
            scored = [_score_ref(w64, bias, ref.max_pool(F, b, PH, PW))
                      for b in pool]
            best, scale = max(scored)
            if best - rec.score > SCORE_RTOL * scale:
                fails.append(f"{tag} cell {ref.DIRECTIONS[i]}: a reference "
                             f"candidate scores {best!r} > {rec.score!r}")
    if fallbacks == 0:
        fails.append("no fallback cell: the border object was not exercised")
    return fails


def _align_close(got, want):
    return np.allclose(got, want, rtol=1e-5, atol=1e-5 * max(1.0, np.abs(want).max()))


def check_align(F, written, rois, mined_list, grads, upstream, scorer, n_rois):
    fails = []
    _check_rois_read(written, rois, n_rois, fails)
    if len(mined_list) != n_rois or len(grads) != n_rois:
        return fails + [f"{len(mined_list)} mined RoIs, expected {n_rois}"]
    D, H, W = F.shape
    V = np.random.default_rng(0xad7).standard_normal(F.shape)
    for k, (r, mined, (grad_F, (grad_w, grad_b)), g) in enumerate(
            zip(rois, mined_list, grads, upstream)):
        roi = _box(r)
        tag = f"RoI {k}"
        obj = mined.feature[:D]
        if not _align_close(obj, ref.align(F, roi, PH, PW, 2)):
            fails.append(f"{tag}: block 0 differs from the reference RoIAlign")
        _check_cells(F, roi, mined, scorer, obj,
                     lambda box: ref.align(F, box, PH, PW, 2), _align_close,
                     fails, tag)
        # Align is linear in F, so backward is its adjoint:
        # <grad_F, V> = sum over blocks of <g_block, align(V, box_block)>.
        boxes = [roi] + [roi if rec.fallback else _box(rec.box)
                         for rec in mined.selected]
        lhs = float(np.dot(grad_F.reshape(-1).astype(np.float64), V.reshape(-1)))
        terms = [g[i * D:(i + 1) * D].astype(np.float64) * ref.align(V, b, PH, PW, 2)
                 for i, b in enumerate(boxes)]
        rhs = sum(float(t.sum()) for t in terms)
        scale = sum(float(np.abs(t).sum()) for t in terms)
        if abs(lhs - rhs) > 1e-5 * scale:
            fails.append(f"{tag}: <grad_F, V> = {lhs!r}, adjoint gives {rhs!r}")
        # grad_w = sum_i u_i * map_i and grad_b = sum_i u_i over selected
        # cells, with u_i = <g_block_i, map_i> and lambda_ctx = 1.
        want_w = np.zeros(D * PH * PW)
        want_b = 0.0
        u_scale = 0.0
        for i, rec in enumerate(mined.selected):
            if rec.fallback:
                continue
            m = ref.align(F, _box(rec.box), PH, PW, 2).reshape(-1)
            gb = g[(i + 1) * D:(i + 2) * D].reshape(-1).astype(np.float64)
            u = float(np.dot(gb, m))
            want_w += u * m
            want_b += u
            u_scale += float(np.abs(gb * m).sum())
        if not np.allclose(grad_w, want_w, rtol=1e-4,
                           atol=1e-5 * max(1.0, np.abs(want_w).max())):
            fails.append(f"{tag}: grad_w differs from its formula")
        if abs(grad_b - want_b) > 1e-5 * max(1.0, u_scale):
            fails.append(f"{tag}: grad_b {grad_b!r} != {want_b!r}")
    return fails


def check_synth(scenes, result, n_scenes, epochs):
    fails = []
    if len(scenes) != n_scenes:
        return [f"{len(scenes)} scenes, expected {n_scenes}"]
    ones = sum(s.label for s in scenes)
    if abs(ones - (n_scenes - ones)) > 1:
        fails.append(f"labels unbalanced: {ones} of {n_scenes} are class 1")
    for k, s in enumerate(scenes):
        cell, _ = ref.cell_geometry(_box(s.object_roi), s.blob_direction)
        b = _box(s.blob_box)
        eps = 1e-9 * max(1.0, abs(cell[2]), abs(cell[3]))
        if not (b[0] >= cell[0] - eps and b[1] >= cell[1] - eps
                and b[2] <= cell[2] + eps and b[3] <= cell[3] + eps):
            fails.append(f"scene {k}: blob {b} outside its {s.blob_direction} cell")
        ys = slice(int(round(b[1])), int(round(b[3])))
        xs = slice(int(round(b[0])), int(round(b[2])))
        if not np.all(s.feature[s.label, ys, xs] == BLOB_VALUE):
            fails.append(f"scene {k}: blob missing from channel {s.label}")
    trace = list(result.trace)
    if len(trace) != epochs or not all(math.isfinite(v) for v in trace):
        fails.append(f"loss trace {trace} is not {epochs} finite values")
    elif not trace[-1] < trace[0]:
        fails.append(f"loss did not fall: {trace[0]!r} -> {trace[-1]!r}")
    if not 0.0 <= result.accuracy <= 1.0:
        fails.append(f"accuracy {result.accuracy} outside [0, 1]")
    if result.overlap_rate is None or not 0.0 <= result.overlap_rate <= 1.0:
        fails.append(f"overlap rate {result.overlap_rate} outside [0, 1]")
    # Held-out accuracy above chance is not checked: the demo does not
    # reach it on every seed (seed 5005 gives 0.453).
    return fails
