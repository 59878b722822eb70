import math

import numpy as np
import pytest

from roictx.gradcheck import check
from roictx.losses import softmax


def cls_loss(logits, label):
    """The synthetic trainer's classification loss, as `synth.train_head`
    computes it from `softmax`."""
    return float(-np.log(max(softmax(logits)[label], 1e-300)))


def cls_grad(logits, label):
    """Its logit gradient as `train_head` applies it: softmax minus the
    one-hot label."""
    g = softmax(logits)
    g[label] -= 1.0
    return g


def naive_cls(logits, label):
    """Direct exponentiation; valid at small magnitudes."""
    e = [math.exp(float(v)) for v in logits]
    return -math.log(e[label] / sum(e))


class TestSoftmax:
    def test_sums_to_one_in_float64(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            p = softmax(rng.normal(0, 3, 8).astype(np.float32))
            assert p.dtype == np.float64
            assert abs(p.sum() - 1.0) <= 8 * np.finfo(np.float64).eps

    @pytest.mark.parametrize("big", [1e4, -1e4])
    def test_finite_at_large_magnitudes(self, big):
        p = softmax(np.array([big, -big, 0.0], dtype=np.float32))
        assert np.isfinite(p).all()
        assert p.tolist() == ([1.0, 0.0, 0.0] if big > 0 else [0.0, 1.0, 0.0])

    def test_matches_naive_exp_over_sum(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            logits = rng.normal(0, 2, 8).astype(np.float32)
            e = [math.exp(float(v)) for v in logits]
            want = [v / sum(e) for v in e]
            assert softmax(logits) == pytest.approx(want, rel=1e-12)


class TestClsLoss:
    def test_peaked_logits_drive_loss_to_zero(self):
        logits = np.zeros(5, dtype=np.float32)
        logits[2] = 40.0
        assert cls_loss(logits, 2) < 1e-6

    def test_uniform_logits_give_log_n(self):
        loss = cls_loss(np.zeros(21, dtype=np.float32), 3)
        assert loss == pytest.approx(math.log(21), abs=1e-9)

    def test_matches_naive_softmax(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            logits = rng.normal(0, 2, 8).astype(np.float32)
            label = int(rng.integers(0, 8))
            got = cls_loss(logits, label)
            assert got == pytest.approx(naive_cls(logits, label), rel=1e-10)

    def test_stable_at_large_magnitudes(self):
        logits = np.array([800.0, -800.0, 0.0], dtype=np.float32)
        for label in range(3):
            assert np.isfinite(cls_loss(logits, label))


class TestLossBackward:
    def test_perfect_prediction_near_zero_grads(self):
        logits = np.zeros(5, dtype=np.float32)
        logits[1] = 60.0
        assert np.abs(cls_grad(logits, 1)).max() < 1e-6

    def test_logit_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            logits = rng.normal(0, 2, 5)
            label = int(rng.integers(0, 5))
            report = check(lambda z: (cls_loss(z, label), None), logits,
                           cls_grad(logits, label), h=1e-4, probes=5)
            assert report.max_rel_error <= 1e-6
