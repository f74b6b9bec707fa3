import numpy as np
import pytest

from herglotz.fdiff import derivative_on_segment

# reference rows, written out independently of herglotz.fdiff
_REF5 = np.array([
    [-25.0, 48.0, -36.0, 16.0, -3.0],
    [-3.0, -10.0, 18.0, -6.0, 1.0],
    [1.0, -8.0, 0.0, 8.0, -1.0],
    [-1.0, 6.0, -18.0, 10.0, 3.0],
    [3.0, -16.0, 36.0, -48.0, 25.0],
]) / 12.0
_REF3 = np.array([[-3.0, 4.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -4.0, 3.0]]) / 2.0


def per_sample_derivative(full, start, stop, h):
    """One dot product per sample, windows clamped as documented."""
    seglen = stop - start
    lo, hi = (start, stop) if seglen >= 5 else (0, len(full))
    out = np.empty(seglen)
    for k, i in enumerate(range(start, stop)):
        if hi - lo >= 5:
            w0 = min(max(i - 2, lo), hi - 5)
            out[k] = _REF5[i - w0] @ full[w0:w0 + 5] / h
        elif hi - lo >= 3:
            w0 = min(max(i - 1, lo), hi - 3)
            out[k] = _REF3[i - w0] @ full[w0:w0 + 3] / h
        else:
            out[k] = (full[lo + 1] - full[lo]) / h
    return out


def _segments(rng, count):
    for _ in range(count):
        total = int(rng.integers(2, 60))
        start = int(rng.integers(0, total))
        stop = int(rng.integers(start + 1, total + 1))
        yield rng.standard_normal(total) * 10.0 ** rng.uniform(-3, 3), start, stop


class TestDerivativeOnSegment:
    def test_bitwise_equal_to_per_sample_rule(self):
        rng = np.random.default_rng(7)
        for full, start, stop in _segments(rng, 300):
            h = float(rng.uniform(1e-4, 1.0))
            np.testing.assert_array_equal(
                derivative_on_segment(full, start, stop, h),
                per_sample_derivative(full, start, stop, h))

    @pytest.mark.parametrize("seglen", [1, 2, 3, 4])
    def test_short_segments_bitwise(self, seglen):
        rng = np.random.default_rng(seglen)
        full = rng.standard_normal(12)
        for start in range(0, 12 - seglen + 1):
            np.testing.assert_array_equal(
                derivative_on_segment(full, start, start + seglen, 0.1),
                per_sample_derivative(full, start, start + seglen, 0.1))

    @pytest.mark.parametrize("total", [2, 3, 4])
    def test_full_short_ranges_bitwise(self, total):
        full = np.random.default_rng(total).standard_normal(total)
        np.testing.assert_array_equal(derivative_on_segment(full, 0, total, 0.3),
                                      per_sample_derivative(full, 0, total, 0.3))
