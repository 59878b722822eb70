import numpy as np
import pytest

from roictx.mining import DIRECTIONS, build_layout, fixed_context_variant
from roictx.synth import DEFAULT_SYNTH, generate, train_head

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
            layout = build_layout(s.object_roi)
            cell = layout.cells[s.blob_direction]
            assert s.blob_direction in DIRECTIONS
            assert cell.x1 <= s.blob_box.x1 and s.blob_box.x2 <= cell.x2
            assert cell.y1 <= s.blob_box.y1 and s.blob_box.y2 <= cell.y2
            for c in layout.cells.values():
                assert 0.0 <= c.x1 and c.x2 <= size
                assert 0.0 <= c.y1 and c.y2 <= size

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            generate(0, 0)


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

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            train_head(generate(0, 4), "global")

    def test_holdout_leaving_no_training_scenes_rejected(self):
        with pytest.raises(ValueError):
            train_head(generate(0, 1), "none")
