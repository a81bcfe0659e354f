"""Loop forms of the panel quadrature and the chord autocorrelation, the
chord form of the ray transform and the full-line autocorrelation table.

The loops are the per-panel and per-shift loops that `panel_nodes` and
`chord_autocorrelation_batch` vectorize; the tests require equal arrays, since
the arithmetic and the node order are the same.  `chord_ray_table` integrates
the ray transform over the chord function, an oracle independent of the
boundary rule of `build_context`.  `full_line_autocorr_table` tabulates the
chord autocorrelation on all of [-w, w], where `autocorr_transform_table`
keeps the half-line [0, w] of the even function.
"""

import numpy as np

from covario._quadrature import gauss_legendre, panel_table
from covario.fourier_laplace import OSC_BUDGET
from covario.radon import chord_autocorrelation_batch, chord_function


def chord_ray_table(body, u, max_abs_zeta):
    """(nodes, amplitudes) with F(zeta) = sum_j amplitudes_j exp(i nodes_j zeta):
    panel Gauss-Legendre of S_K(u, t) exp(i t zeta) over the chord's support,
    subdivided so that the oscillation stays resolved up to max_abs_zeta."""
    cf = chord_function(body, u)
    nodes, weights = panel_table(cf.lo, cf.hi, cf.breakpoints, max_freq=max_abs_zeta,
                                 osc_budget=OSC_BUDGET)
    return nodes, weights * cf(nodes)


def full_line_autocorr_table(body, u, max_freq):
    """(nodes, amplitudes) of the chord autocorrelation on [-w, w], cut at 0
    and at every difference of the chord's ends and breakpoints."""
    cf = chord_function(body, u)
    knots = np.concatenate([[cf.lo], np.asarray(cf.breakpoints), [cf.hi]])
    diffs = (knots[None, :] - knots[:, None]).ravel()
    nodes, weights = panel_table(-cf.width, cf.width, [0.0, *diffs], max_freq=max_freq,
                                 osc_budget=OSC_BUDGET)
    return nodes, weights * chord_autocorrelation_batch(body, u, nodes)


def loop_panel_table(lo, hi, breakpoints=(), order=64, max_freq=0.0, osc_budget=40.0):
    if hi <= lo:
        return np.zeros(0), np.zeros(0)
    cuts = [lo, hi]
    for b in breakpoints:
        if lo + 1e-14 * (hi - lo) < b < hi - 1e-14 * (hi - lo):
            cuts.append(float(b))
    cuts = np.unique(np.asarray(cuts, dtype=float))
    edges = []
    max_len = (hi - lo) if max_freq <= 0 else max(osc_budget / max_freq, 1e-9 * (hi - lo))
    for a, b in zip(cuts[:-1], cuts[1:]):
        n_sub = max(1, int(np.ceil((b - a) / max_len)))
        edges.append(np.linspace(a, b, n_sub + 1))
    x, w = gauss_legendre(order)
    nodes, weights = [], []
    for seg in edges:
        for a, b in zip(seg[:-1], seg[1:]):
            mid = 0.5 * (a + b)
            for end, sgn in ((a, 1.0), (b, -1.0)):
                r = np.sqrt(abs(mid - end))
                tau = 0.5 * r * (x + 1.0)
                tw = 0.5 * r * w
                nodes.append(end + sgn * tau * tau)
                weights.append(tw * 2.0 * tau)
    return np.concatenate(nodes), np.concatenate(weights)


def loop_chord_autocorrelation_batch(body, u, s_values, order=64):
    cf = chord_function(body, u)
    s_values = np.asarray(s_values, dtype=float)
    nodes_all, weights_all, rows = [], [], []
    for i, s in enumerate(s_values):
        a = max(cf.lo, cf.lo - s)
        b = min(cf.hi, cf.hi - s)
        if b <= a:
            continue
        brk = list(cf.breakpoints)
        brk += [x - s for x in cf.breakpoints]
        brk += [cf.lo, cf.hi, cf.lo - s, cf.hi - s]
        nodes, weights = loop_panel_table(a, b, brk, order=order)
        nodes_all.append(nodes)
        weights_all.append(weights)
        rows.append(np.full(nodes.shape[0], i))
    if not nodes_all:
        return np.zeros_like(s_values)
    nodes = np.concatenate(nodes_all)
    weights = np.concatenate(weights_all)
    rows = np.concatenate(rows)
    shifts = s_values[rows]
    integrand = weights * cf(nodes) * cf(nodes + shifts)
    return np.bincount(rows, weights=integrand, minlength=s_values.shape[0])
