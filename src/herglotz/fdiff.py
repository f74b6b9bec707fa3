"""Finite-difference stencils on uniform samples and Fornberg weights."""

from __future__ import annotations

import numpy as np

# first-derivative weights on 5 consecutive uniform samples, evaluated at
# sample p of the window (p = 0..4); divide by h
_ROWS5 = np.array([
    [-25.0, 48.0, -36.0, 16.0, -3.0],
    [-3.0, -10.0, 18.0, -6.0, 1.0],
    [1.0, -8.0, 0.0, 8.0, -1.0],
    [-1.0, 6.0, -18.0, 10.0, 3.0],
    [3.0, -16.0, 36.0, -48.0, 25.0],
]) / 12.0

_ROWS3 = np.array([
    [-3.0, 4.0, -1.0],
    [-1.0, 0.0, 1.0],
    [1.0, -4.0, 3.0],
]) / 2.0


def derivative_on_segment(full: np.ndarray, start: int, stop: int, h: float) -> np.ndarray:
    """d/dt of uniformly sampled values for indices [start, stop).

    5-point rule, windows clamped to the segment when it holds >= 5 samples,
    otherwise clamped to the full sample range (the sampled function is
    defined there too); one-sided rows close the ends. Tiny ranges fall back
    to 3- or 2-point rules.
    """
    full = np.asarray(full, dtype=float)
    total = len(full)
    seglen = stop - start
    if seglen >= 5:
        lo, hi = start, stop
    else:
        lo, hi = 0, total
    width = hi - lo
    out = np.empty(seglen)
    if width >= 5:
        for k, i in enumerate(range(start, stop)):
            w0 = min(max(i - 2, lo), hi - 5)
            out[k] = _ROWS5[i - w0] @ full[w0:w0 + 5] / h
    elif width >= 3:
        for k, i in enumerate(range(start, stop)):
            w0 = min(max(i - 1, lo), hi - 3)
            out[k] = _ROWS3[i - w0] @ full[w0:w0 + 3] / h
    elif width == 2:
        out[:] = (full[lo + 1] - full[lo]) / h
    else:
        out[:] = 0.0
    return out


def fornberg_weights(xs: np.ndarray, x0: float, order: int) -> np.ndarray:
    """Weights w with sum(w * f(xs)) ~= f^(order)(x0) for arbitrary nodes xs.

    Fornberg's recursion; exact for polynomials of degree len(xs) - 1.
    """
    xs = np.asarray(xs, dtype=float)
    n = len(xs)
    c = np.zeros((n, order + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = xs[0] - x0
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = xs[i] - x0
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, order].copy()
