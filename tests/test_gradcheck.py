import numpy as np
import pytest

from roictx.errors import NumericError
from roictx.gradcheck import check


def unrouted(fn):
    """fn as a forward that makes no routing decision: record None."""
    return lambda t: (fn(t), None)


total = unrouted(lambda t: float(t.sum()))


class TestCheck:
    def test_sum_has_unit_gradient(self):
        x = np.random.default_rng(1).normal(0, 1, (3, 4)).astype(np.float32)
        report = check(total, x, np.ones_like(x), probes=12)
        assert report.max_rel_error <= 1e-4
        assert report.skipped == 0
        assert report.probed == 12

    def test_half_norm_squared_gradient_is_x(self):
        x = np.random.default_rng(2).normal(0, 1, 30).astype(np.float32)

        def f(t):
            return float(0.5 * (t.astype(np.float64) ** 2).sum())

        report = check(unrouted(f), x, x, h=1e-2, probes=30)
        assert report.max_rel_error <= 1e-3

    def test_wrong_gradient_is_caught(self):
        x = np.ones(10, dtype=np.float32)
        report = check(total, x, 2 * np.ones_like(x),
                       probes=10)
        assert report.max_rel_error > 0.3

    def test_cubic_error_shrinks_quadratically(self):
        # central differences of sum(x^3) err by exactly h^2 per coordinate
        x = np.random.default_rng(3).uniform(0.5, 1.5, 20).astype(np.float32)

        def f(t):
            return float((t.astype(np.float64) ** 3).sum())

        grad = (3.0 * x.astype(np.float64) ** 2).astype(np.float32)
        e_big = check(unrouted(f), x, grad, h=1e-1, probes=20).max_abs_error
        e_small = check(unrouted(f), x, grad, h=1e-2, probes=20).max_abs_error
        assert e_big / e_small == pytest.approx(100.0, rel=0.15)

    def test_changed_record_skips_unstable_points(self):
        """Probes whose record changes are skipped, not compared, even
        where the given gradient is wrong; the others are compared."""
        x = np.array([1.0, 1.005, 3.0], dtype=np.float32)

        def f(t):
            return float(t[:2].max() + t[2]), int(np.argmax(t[:2]))

        grad = np.array([5.0, 5.0, 1.0], dtype=np.float32)
        report = check(f, x, grad, h=1e-2, probes=3)
        # perturbing either of the first two by 0.01 flips the argmax
        assert (report.probed, report.skipped) == (3, 2)
        assert report.worst_index == (2,)
        assert report.max_rel_error < 1e-5
        grad[2] = 2.0
        assert check(f, x, grad, h=1e-2, probes=3).max_rel_error > 0.4

    def test_every_probe_skipped_raises(self):
        """With nothing compared, no error bound holds: the wrong gradient
        below would pass any tolerance."""
        x = np.array([1.0, 1.005], dtype=np.float32)

        def f(t):
            return float(t.max()), int(np.argmax(t))

        with pytest.raises(NumericError, match="all 2 probes skipped"):
            check(f, x, np.array([5.0, 5.0], dtype=np.float32), probes=2)

    def test_one_forward_per_evaluation(self):
        """f is called once at each perturbed point, twice per probe, and
        never at the base point; its value and record come from that one
        call."""
        x = np.random.default_rng(5).normal(0, 1, 6).astype(np.float32)
        calls = []

        def f(t):
            calls.append(t.copy())
            return float(t.sum()), None

        report = check(f, x, np.ones_like(x), h=0.5, probes=4)
        assert report.probed == 4 and len(calls) == 8
        for plus, minus in zip(calls[::2], calls[1::2]):
            moved = np.flatnonzero(plus != x)
            assert moved.size == 1
            assert np.array_equal(np.flatnonzero(minus != x), moved)
            assert plus[moved] > x[moved] > minus[moved]

    def test_nonfinite_f_raises(self):
        x = np.zeros(3, dtype=np.float32)

        def f(t):
            return float("nan")

        with pytest.raises(NumericError):
            check(unrouted(f), x, x, probes=1)

    def test_probe_count_capped_at_size(self):
        x = np.zeros(5, dtype=np.float32)
        report = check(total, x, np.ones_like(x), probes=99)
        assert report.probed == 5

    def test_bad_args_rejected(self):
        x = np.zeros(3, dtype=np.float32)
        with pytest.raises(ValueError):
            check(unrouted(lambda t: 0.0), x, x, h=0.0)
        with pytest.raises(ValueError):
            check(unrouted(lambda t: 0.0), x, x, probes=0)
        with pytest.raises(ValueError):
            check(unrouted(lambda t: 0.0), x, np.zeros(4, dtype=np.float32))

    def test_base_point_not_modified(self):
        x = np.random.default_rng(4).normal(0, 1, 8).astype(np.float32)
        before = x.copy()
        check(total, x, np.ones_like(x), probes=8)
        assert np.array_equal(x, before)
