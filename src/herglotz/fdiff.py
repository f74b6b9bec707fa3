"""Finite-difference first derivatives on uniform samples."""

from __future__ import annotations

import numpy as np

# first-derivative weights on w consecutive uniform samples (w = 5, 3, 2),
# evaluated at sample p of the window (row p); divide by the step. These are
# the package's only derivative weights.
ROWS = {
    5: np.array([
        [-25.0, 48.0, -36.0, 16.0, -3.0],
        [-3.0, -10.0, 18.0, -6.0, 1.0],
        [1.0, -8.0, 0.0, 8.0, -1.0],
        [-1.0, 6.0, -18.0, 10.0, 3.0],
        [3.0, -16.0, 36.0, -48.0, 25.0],
    ]) / 12.0,
    3: np.array([
        [-3.0, 4.0, -1.0],
        [-1.0, 0.0, 1.0],
        [1.0, -4.0, 3.0],
    ]) / 2.0,
    2: np.array([[-1.0, 1.0], [-1.0, 1.0]]),
}


def derivative_on_segment(full: np.ndarray, start: int, stop: int, h: float) -> np.ndarray:
    """d/dt of uniformly sampled values for indices [start, stop).

    5-point rule, windows clamped to the segment when it holds >= 5 samples,
    otherwise clamped to the full sample range (the sampled function is
    defined there too); one-sided rows close the ends. Ranges of 3 or 4
    samples use the 3-point rows, a range of 2 samples the 2-point ones.
    """
    full = np.asarray(full, dtype=float)
    lo, hi = (start, stop) if stop - start >= 5 else (0, len(full))
    w = 5 if hi - lo >= 5 else 3 if hi - lo >= 3 else 2
    i = np.arange(start, stop)
    w0 = np.clip(i - w // 2, lo, hi - w)
    windows = full[w0[:, None] + np.arange(w)]
    # a stack of (1 x w)(w x 1) products sums each window like `row @ window`
    return np.matmul(ROWS[w][i - w0][:, None, :], windows[:, :, None])[:, 0, 0] / h
