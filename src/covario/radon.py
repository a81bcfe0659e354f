"""Chord-length (Radon) transform of planar convex bodies and its autocorrelation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from covario._quadrature import PANEL_ORDER, panel_nodes
from covario.geometry import Direction, Disk, Polygon, SupportBody, curvature, slice_table


@dataclass(frozen=True)
class ChordFunction:
    """Evaluator t -> S_K(u, t) = length of the chord at signed offset t along u."""

    direction: Direction
    lo: float
    hi: float
    method: str
    _eval: callable = field(repr=False)
    breakpoints: tuple = ()

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        out = self._eval(np.atleast_1d(t))
        return float(out[0]) if scalar else out

    @property
    def width(self):
        return self.hi - self.lo


@lru_cache(maxsize=256)
def chord_function(body, u: Direction):
    """ChordFunction for the body in direction u (exact for polygons)."""
    if isinstance(body, Polygon):
        v = body.vertices
        knots, (a, da, b, db) = slice_table(np.stack([v @ u.u, v @ u.perp], axis=1))
        # exact chords at the knots; the last one is the limit from inside
        last = (b[-1] - a[-1]) + (db[-1] - da[-1]) * (knots[-1] - knots[-2])
        vals = np.maximum(np.append(b - a, last), 0.0)
        lo, hi = float(knots[0]), float(knots[-1])

        def ev(t):
            return np.interp(t, knots, vals, left=0.0, right=0.0)

        return ChordFunction(u, lo, hi, "polygon-exact", ev, tuple(knots[1:-1]))
    if isinstance(body, Disk):
        c = float(np.dot(body.center, u.u))
        r = body.radius

        def ev(t):
            return 2.0 * np.sqrt(np.clip(r * r - (t - c) ** 2, 0.0, None))

        return ChordFunction(u, c - r, c + r, "disk-closed-form", ev)
    if isinstance(body, SupportBody):
        return _support_chord_function(body, u)
    raise TypeError(f"not a body: {body!r}")


def _support_chord_function(body, u: Direction):
    th = u.theta
    shift = body.center[0] * math.cos(th) + body.center[1] * math.sin(th)
    hu = float(body.h(th))
    hmu = float(body.h(th + math.pi))
    lo, hi = -hmu + shift, hu + shift
    # <p(phi), u> decreases on [th, th + pi] and increases on [th - pi, th]:
    # one bracket for each end of the chord
    start, end = np.array([[th], [th - math.pi]]), np.array([[th + math.pi], [th]])

    def ev(t):
        phi = body.series.normal_at_offset(np.clip(t - shift, -hmu, hu), th, start, end)
        along = body.series.offsets(phi, th)[1]
        return np.where((lo < t) & (t < hi), np.maximum(along[0] - along[1], 0.0), 0.0)

    return ChordFunction(u, lo, hi, "support-rootfind", ev)


def radon(body, u: Direction, t):
    """S_K(u, t): length of the chord of the body on the line <x, u> = t."""
    return chord_function(body, u)(t)


def chord_autocorrelation_batch(body, u: Direction, s_values):
    """integral S(t) S(t + s) dt for every s in s_values.

    For each shift the overlap [a, b] of [lo, hi] and [lo - s, hi - s] is cut
    at the breakpoints, the shifted breakpoints and the four chord ends that
    fall strictly inside it; every panel between two cuts gets panel_nodes.
    Shifts go in chunks of at most about 2**18 nodes, so memory stays bounded.
    """
    cf = chord_function(body, u)
    s_values = np.asarray(s_values, dtype=float)
    fixed = np.append(np.asarray(cf.breakpoints, dtype=float), (cf.lo, cf.hi))
    out = np.zeros_like(s_values)
    # a row holds a, b and the candidate cuts fixed and fixed - s
    panels = 2 * fixed.size + 1
    chunk = max(1, 2 ** 18 // (panels * 2 * PANEL_ORDER))
    for start in range(0, s_values.shape[0], chunk):
        s = s_values[start:start + chunk]
        a = np.maximum(cf.lo, cf.lo - s)
        b = np.minimum(cf.hi, cf.hi - s)
        rows = np.nonzero(b > a)[0]
        s, a, b = s[rows, None], a[rows, None], b[rows, None]
        cand = np.concatenate([np.broadcast_to(fixed, (rows.size, fixed.size)), fixed - s], axis=1)
        inside = (a + 1e-14 * (b - a) < cand) & (cand < b - 1e-14 * (b - a))
        # cuts outside the open margin collapse onto a, leaving zero-length panels
        cuts = np.sort(np.concatenate([a, b, np.where(inside, cand, a)], axis=1), axis=1)
        keep = cuts[:, 1:] > cuts[:, :-1]
        nodes, weights = panel_nodes(cuts[:, :-1][keep], cuts[:, 1:][keep])
        node_rows = np.repeat(np.nonzero(keep)[0], 2 * PANEL_ORDER)
        integrand = weights * cf(nodes) * cf(nodes + s[node_rows, 0])
        out[start + rows] = np.bincount(node_rows, weights=integrand, minlength=rows.size)
    return out


def chord_autocorrelation(body, u: Direction, s):
    """Autocorrelation of the chord function at shift s (Radon transform of g_K)."""
    return float(chord_autocorrelation_batch(body, u, [s])[0])


def leading_coefficients(body, u: Direction):
    """Leading square-root coefficients (a0, b0) of the chord function at its endpoints.

    a0 belongs to the lower endpoint -h(-u) and carries tau(-u); b0 to the
    upper endpoint h(u) with tau(u).
    """
    tau_u = curvature(body, u)
    tau_mu = curvature(body, u.antipode())
    pref = (2.0 * math.pi) ** 0.5 / math.gamma(1.5)
    return pref / math.sqrt(tau_mu), pref / math.sqrt(tau_u)
