"""Panel Gauss-Legendre tables with square-root endpoint substitutions."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from covario.geometry import sorted_distinct

# Gauss-Legendre points per half-panel of the chord and autocorrelation tables
PANEL_ORDER = 64


@lru_cache(maxsize=None)
def gauss_legendre(order):
    return np.polynomial.legendre.leggauss(order)


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
