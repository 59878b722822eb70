import numpy as np
import pytest

from roictx import synth
from roictx.errors import DegenerateBoxError, TrainingError
from roictx.geometry import Box
from roictx.gradcheck import check
from roictx.losses import softmax
from roictx import mining
from roictx.mining import DIRECTIONS, CandidateGridSpec, ContextScorer, \
    build_layout, candidate_pool_for_cell, fixed_context_variant
from roictx.roi_ops import RangeMaxTable
from roictx.synth import DEFAULT_SYNTH, SynthConfig, _MiningFeatures, \
    generate, train_head

# Loss traces, held-out accuracy, overlap rate and the final scorer's bias,
# weight sum and weight norm of train_head(generate(11, 16), variant,
# epochs=3, lr=0.05, seed=11), recorded before the scorer gradient and the
# variant features moved onto the shared mining functions.
PINNED = {
    "none": ([1.0921407834675085, 0.9352533171370051, 1.0068549963270568],
             0.5, None, None),
    "neigh8": ([2.9762132711511575, 2.816873186643152, 1.6907171860604029],
               0.5, None, None),
    "mining": ([1.425712250342146, 0.921834583967005, 0.27545015547563634],
               0.5, 0.25,
               (-0.16122709103661734, -1.855534553003963, 0.36671495086426165)),
}


class TestGenerate:
    def test_deterministic_and_balanced(self):
        a = generate(4, 9)
        b = generate(4, 9)
        assert [s.label for s in a] == [s.label for s in b]
        assert all(np.array_equal(x.feature, y.feature) for x, y in zip(a, b))
        assert abs(sum(s.label for s in a) - 4.5) <= 0.5

    def test_blob_sits_in_its_cell_and_grid_inside_map(self):
        size = DEFAULT_SYNTH.map_size
        for s in generate(5, 12):
            r = s.object_roi
            cells = [Box(*c) for c in
                     build_layout([[r.x1, r.y1, r.x2, r.y2]])[0].tolist()]
            cell = cells[DIRECTIONS.index(s.blob_direction)]
            assert cell.x1 <= s.blob_box.x1 and s.blob_box.x2 <= cell.x2
            assert cell.y1 <= s.blob_box.y1 and s.blob_box.y2 <= cell.y2
            for c in cells:
                assert 0.0 <= c.x1 and c.x2 <= size
                assert 0.0 <= c.y1 and c.y2 <= size

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            generate(0, 0)

    @pytest.mark.parametrize("geometry", [
        {"object_size": 16.5}, {"map_size": 35}, {"blob_size": 14.0},
        {"object_size": float("nan")}, {"blob_size": float("inf")}])
    def test_config_geometry_that_cannot_fit_rejected(self, geometry):
        """A 3x3 grid larger than the map, or a blob larger than a cell,
        would fail inside generate with numpy's ValueError."""
        with pytest.raises(DegenerateBoxError, match="object_size"):
            SynthConfig(**geometry)

    def test_config_geometry_that_just_fits_generates(self):
        cfg = SynthConfig(object_size=16.0, blob_size=16.0)
        assert len(generate(6, 4, cfg)) == 4


class TestTrainHead:
    @pytest.mark.parametrize("variant", sorted(PINNED))
    def test_loss_trace_pinned(self, variant):
        trace, accuracy, overlap, scorer = PINNED[variant]
        result = train_head(generate(11, 16), variant, epochs=3, lr=0.05, seed=11)
        assert result.trace == pytest.approx(trace, rel=1e-9)
        assert result.accuracy == accuracy
        assert result.overlap_rate == overlap
        if scorer is None:
            assert result.scorer is None
        else:
            w = result.scorer.weights.astype(np.float64)
            got = (result.scorer.bias, w.sum(), np.sqrt((w * w).sum()))
            assert got == pytest.approx(scorer, rel=1e-7)

    @pytest.mark.parametrize("variant", ["none", "neigh8"])
    def test_fixed_head_width_matches_variant_feature(self, variant):
        scenes = generate(2, 8)
        result = train_head(scenes, variant, epochs=1)
        mc = DEFAULT_SYNTH.mining_config()
        width = fixed_context_variant(scenes[0].feature, scenes[0].object_roi,
                                      variant, mc).size
        assert result.head_w.shape == (2, width)

    def test_mining_head_spans_nine_blocks(self):
        result = train_head(generate(2, 8), "mining", epochs=1)
        block = DEFAULT_SYNTH.channels * DEFAULT_SYNTH.ph * DEFAULT_SYNTH.pw
        assert result.head_w.shape == (2, 9 * block)
        assert result.scorer.weights.shape == (block,)

    @pytest.mark.filterwarnings("error")
    def test_diverged_scorer_raises(self):
        """A step size that sends the scorer past float32 stops training
        instead of selecting with NaN scores."""
        with pytest.raises(TrainingError, match="training diverged at epoch 0"):
            train_head(generate(11, 16), "mining", epochs=3, lr=1e300, seed=11)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            train_head(generate(0, 4), "global")

    @pytest.mark.parametrize("epochs", [0, -2])
    def test_fewer_than_one_epoch_rejected(self, epochs):
        with pytest.raises(ValueError, match=f"need epochs >= 1, got {epochs}"):
            train_head(generate(0, 4), "mining", epochs=epochs)

    def test_holdout_leaving_no_training_scenes_rejected(self):
        with pytest.raises(ValueError):
            train_head(generate(0, 1), "none")

    def test_scorer_step_is_the_straight_through_gate_gradient(self,
                                                               monkeypatch):
        """The scorer gradient of a train_head step is the gradient of that
        step's loss with each mined block gated as
        x_i * (1 + lambda * (s_i(w) - s_i(w0))), selections frozen.  With
        one training scene, step 1 leaves the zero scorer as it is (the
        head is zero) and step 2 is checked against a head rebuilt from
        step 1's update."""
        cfg = SynthConfig(lambda_ctx=0.7)
        scene = generate(13, 1, cfg)[0]
        steps = []
        real = synth.scorer_gradient

        def recording(g_blocks, maps, lam):
            steps.append(real(g_blocks, maps, lam))
            return steps[-1]

        monkeypatch.setattr(synth, "scorer_gradient", recording)
        lr = 0.05
        result = train_head([scene, scene], "mining", epochs=2, lr=lr,
                            config=cfg)
        assert len(steps) == 2 and not steps[0][0].any()
        grad = np.append(*steps[1])

        feats = _MiningFeatures.of_scenes([scene], cfg)[0]
        picked = feats.select(ContextScorer.zeros(cfg.channels, cfg.ph,
                                                  cfg.pw))
        x = feats.flats[picked].astype(np.float64)
        g1 = softmax(np.zeros(2)) - np.eye(2)[scene.label]
        f1 = feats.feature(picked)
        head_w, head_b = -lr * np.outer(g1, f1), -lr * g1
        assert np.array_equal(head_w - lr * np.outer(
            softmax(head_w @ f1 + head_b) - np.eye(2)[scene.label], f1),
            result.head_w)

        def loss(theta):
            # s_i(w0) = 0 for the zero scorer w0
            gate = 1.0 + cfg.lambda_ctx * (x @ theta[:-1] + theta[-1])
            f = np.concatenate([feats.object_flat,
                                (x * gate[:, None]).ravel()])
            return -np.log(softmax(head_w @ f + head_b)[scene.label]), None

        report = check(loss, np.zeros(grad.size), grad, probes=grad.size)
        assert report.probed == 51 and report.skipped == 0
        assert report.max_rel_error <= 1e-3


def four_scene_chunks(monkeypatch, cfg):
    """Shrink CANDIDATE_BUDGET so that a chunk holds 4 of cfg's scenes."""
    bound = 8 * (1 + mining._grid_combos(cfg.grid)[0].size)
    monkeypatch.setattr(mining, "CANDIDATE_BUDGET", 4 * bound)
    assert mining._chunk_size(cfg.grid) == 4
    return 4


class TestMiningFeatures:
    """One candidate matrix per scene against the per-cell rule: each
    cell's pool pooled alone and its first argmax."""

    @pytest.mark.parametrize("seed", [3, 8])
    def test_matches_per_cell_oracle(self, seed, monkeypatch):
        mc = DEFAULT_SYNTH.mining_config()
        size = (DEFAULT_SYNTH.map_size,) * 2
        rng = np.random.default_rng(seed)
        scenes = generate(seed, four_scene_chunks(monkeypatch,
                                                  DEFAULT_SYNTH) + 2)
        for scene, mf in zip(scenes,
                             _MiningFeatures.of_scenes(scenes, DEFAULT_SYNTH)):
            table = RangeMaxTable(scene.feature)
            r = scene.object_roi
            cells = build_layout([[r.x1, r.y1, r.x2, r.y2]])[0].tolist()
            pools = [candidate_pool_for_cell(Box(*c), mc.grid, size)
                     for c in cells]
            pools = [np.array([[b.x1, b.y1, b.x2, b.y2] for b in p])
                     for p in pools]
            rows = [table.pool_boxes(p, mc.ph, mc.pw).reshape(len(p), -1)
                    for p in pools]
            stacked = np.concatenate(rows)
            assert mf.boxes.tobytes() == np.concatenate(pools).tobytes()
            assert mf.flats.shape == stacked.shape
            assert mf.flats.tobytes() == stacked.tobytes()
            offsets = np.cumsum([0] + [len(p) for p in pools[:-1]])
            for _ in range(4):
                w = rng.normal(0.0, 1.0, mf.flats.shape[1]).astype(np.float32)
                scorer = ContextScorer(w, float(rng.normal()))
                want = [o + int(np.argmax(scorer.score_flat(r)))
                        for o, r in zip(offsets, rows)]
                assert mf.select(scorer).tolist() == want


# A grid other than synth's: other offsets, sizes and bounds, and pools
# whose candidates the map border clips more often.
OTHER_GRID = SynthConfig(grid=CandidateGridSpec(
    offset_fracs=(-0.3, -0.1, 0.0, 0.2, 0.35), size_fracs=(0.4, 0.75, 1.0),
    anchor_iou_min=0.25, short_edge_frac=0.3))


class TestBlockEnumeration:
    """of_scenes enumerates one chunk of scenes per call; each scene gets
    the features it gets enumerated alone, bit for bit."""

    @pytest.mark.parametrize("cfg", [DEFAULT_SYNTH, OTHER_GRID],
                             ids=["default", "other-grid"])
    def test_each_scene_as_enumerated_alone(self, cfg, monkeypatch):
        # 2 full chunks and a short one
        chunk = four_scene_chunks(monkeypatch, cfg)
        scenes = generate(23, 2 * chunk + 1, cfg)
        calls = []
        real = mining._candidate_arrays

        def counting(cells, *args):
            calls.append(len(cells))
            return real(cells, *args)

        monkeypatch.setattr(mining, "_candidate_arrays", counting)
        together = _MiningFeatures.of_scenes(scenes, cfg)
        assert calls == [8 * chunk, 8 * chunk, 8]
        assert len(together) == len(scenes)
        for scene, got in zip(scenes, together):
            alone = _MiningFeatures.of_scenes([scene], cfg)[0]
            for name in ("boxes", "starts", "flats", "object_flat"):
                a, b = getattr(got, name), getattr(alone, name)
                assert (a.dtype, a.shape) == (b.dtype, b.shape), name
                assert a.tobytes() == b.tobytes(), name

    def test_default_budget_chunks_scenes_like_mine_many(self, monkeypatch):
        """At the default budget a chunk holds 41 scenes of synth's grid,
        as many as mine_many puts in a chunk there: 80 scenes take 2
        calls."""
        calls = []
        real = mining._candidate_arrays

        def counting(cells, *args):
            calls.append(len(cells))
            return real(cells, *args)

        monkeypatch.setattr(mining, "_candidate_arrays", counting)
        _MiningFeatures.of_scenes(generate(29, 80), DEFAULT_SYNTH)
        assert calls == [8 * 41, 8 * 39]
