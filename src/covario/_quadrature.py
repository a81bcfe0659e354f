"""Panel Gauss-Legendre tables with square-root endpoint substitutions."""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

from covario.geometry import sorted_distinct

# Gauss-Legendre points per half-panel of the chord and autocorrelation tables
PANEL_ORDER = 64


def _legval(x, c):
    """Clenshaw sum of the Legendre series c at x, as numpy 2.4.6's legval."""
    if len(c) == 1:
        return c[0] + 0 * x
    nd = len(c)
    c0, c1 = c[-2], c[-1]
    for i in range(3, len(c) + 1):
        tmp = c0
        nd = nd - 1
        c0 = c[-i] - c1 * ((nd - 1) / nd)
        c1 = tmp + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@lru_cache(maxsize=None)
def gauss_legendre(order):
    """Nodes and weights of the order-point Gauss-Legendre rule on [-1, 1].

    numpy.polynomial.legendre.leggauss (numpy 2.4.6) operation for operation,
    so the tables keep its bits: eigenvalues of the symmetric companion matrix
    of P_n (Golub & Welsch 1969), one Newton step, weights 1/(P_{n-1} P_n')
    scaled by their maxima, symmetrised and normalised to sum 2.
    """
    try:
        n = operator.index(order)
    except TypeError as e:
        raise TypeError(f"deg must be an integer, received {order}") from e
    if n <= 0:
        raise ValueError("deg must be a positive integer")
    c = np.zeros(n + 1)
    c[-1] = 1.0
    # P_n' = sum of (2k + 1) P_k over k = n-1, n-3, ..., exact in floats
    dc = np.zeros(n)
    dc[n - 1::-2] = 2 * np.arange(n - 1, -1, -2) + 1
    if n == 1:
        mat = np.array([[-c[0] / c[1]]])
    else:
        mat = np.zeros((n, n))
        scl = 1. / np.sqrt(2 * np.arange(n) + 1)
        top = mat.reshape(-1)[1::n + 1]
        bot = mat.reshape(-1)[n::n + 1]
        top[...] = np.arange(1, n) * scl[:n - 1] * scl[1:n]
        bot[...] = top
        mat[:, -1] -= (c[:-1] / c[-1]) * (scl / scl[-1]) * (n / (2 * n - 1))
    x = np.linalg.eigvalsh(mat)
    dy = _legval(x, c)
    df = _legval(x, dc)
    x -= dy / df
    fm = _legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2. / w.sum()
    return x, w


def panel_table(lo, hi, breakpoints=(), order=PANEL_ORDER, max_freq=0.0, osc_budget=40.0):
    """Quadrature nodes/weights on [lo, hi] for integrands with sqrt endpoints.

    Panels are split at the given interior breakpoints and further subdivided
    until max_freq * panel_length <= osc_budget (so oscillatory factors stay
    resolved by the per-panel order).  Each panel is halved and mapped through
    t = end +/- tau^2 from its two ends, which absorbs square-root behavior at
    any breakpoint.
    """
    if hi <= lo:
        return np.zeros(0), np.zeros(0)
    cuts = [lo, hi]
    for b in breakpoints:
        if lo + 1e-14 * (hi - lo) < b < hi - 1e-14 * (hi - lo):
            cuts.append(float(b))
    cuts = sorted_distinct(np.asarray(cuts, dtype=float))
    edges = []
    max_len = (hi - lo) if max_freq <= 0 else max(osc_budget / max_freq, 1e-9 * (hi - lo))
    for a, b in zip(cuts[:-1], cuts[1:]):
        n_sub = max(1, int(np.ceil((b - a) / max_len)))
        edges.append(np.linspace(a, b, n_sub + 1))
    return panel_nodes(np.concatenate([seg[:-1] for seg in edges]),
                       np.concatenate([seg[1:] for seg in edges]), order)


def panel_nodes(lo, hi, order=PANEL_ORDER):
    """Nodes and weights of the panels [lo[i], hi[i]], panel after panel.

    Each panel is halved and mapped through t = end +/- tau^2 from its two
    ends, which absorbs square-root behavior at either end; the order-point
    Gauss-Legendre rule runs in tau on each half.
    """
    x, w = gauss_legendre(order)
    ends = np.stack([lo, hi], axis=1)
    half_r = 0.5 * np.sqrt(np.abs(0.5 * (ends[:, :1] + ends[:, 1:]) - ends))[..., None]
    tau = half_r * (x + 1.0)
    nodes = ends[..., None] + np.array([[1.0], [-1.0]]) * tau * tau
    weights = half_r * w * 2.0 * tau
    return nodes.ravel(), weights.ravel()
