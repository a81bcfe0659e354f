"""Chord-length (Radon) transform of planar convex bodies and its autocorrelation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from covario._quadrature import panel_nodes
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

    def height(phi):
        # signed offset <x(phi), u> of the untranslated boundary point
        return body.h(phi) * np.cos(phi - th) - body.h1(phi) * np.sin(phi - th)

    def solve(t, left, right):
        # height is strictly monotone on [left, right]; vectorized bisection
        a = np.full_like(t, left)
        b = np.full_like(t, right)
        fa = height(a) - t
        for _ in range(60):
            mid = 0.5 * (a + b)
            fm = height(mid) - t
            take = (fa * fm) <= 0
            b = np.where(take, mid, b)
            a = np.where(take, a, mid)
            fa = np.where(take, fa, fm)
        return 0.5 * (a + b)

    def ev(t):
        tt = np.clip(t - shift, -hmu, hu)
        # decreasing branch on [th, th+pi], increasing on [th-pi, th]
        phi1 = solve(tt, th, th + math.pi)
        phi2 = solve(tt, th - math.pi, th)
        s1 = body.h(phi1) * np.sin(phi1 - th) + body.h1(phi1) * np.cos(phi1 - th)
        s2 = body.h(phi2) * np.sin(phi2 - th) + body.h1(phi2) * np.cos(phi2 - th)
        out = np.where((t >= lo) & (t <= hi), np.maximum(s1 - s2, 0.0), 0.0)
        return out

    return ChordFunction(u, lo, hi, "support-rootfind", ev)


def radon(body, u: Direction, t):
    """S_K(u, t): length of the chord of the body on the line <x, u> = t."""
    return chord_function(body, u)(t)


def chord_autocorrelation_batch(body, u: Direction, s_values, order=64):
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
    chunk = max(1, 2 ** 18 // (panels * 2 * order))
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
        nodes, weights = panel_nodes(cuts[:, :-1][keep], cuts[:, 1:][keep], order)
        node_rows = np.repeat(np.nonzero(keep)[0], 2 * order)
        integrand = weights * cf(nodes) * cf(nodes + s[node_rows, 0])
        out[start + rows] = np.bincount(node_rows, weights=integrand, minlength=rows.size)
    return out


def chord_autocorrelation(body, u: Direction, s, order=64):
    """Autocorrelation of the chord function at shift s (Radon transform of g_K)."""
    return float(chord_autocorrelation_batch(body, u, [s], order=order)[0])


def leading_coefficients(body, u: Direction, n=2):
    """Leading square-root coefficients (a0, b0) of the chord function at its endpoints.

    a0 belongs to the lower endpoint -h(-u) and carries tau(-u); b0 to the
    upper endpoint h(u) with tau(u).
    """
    tau_u = curvature(body, u)
    tau_mu = curvature(body, u.antipode())
    pref = (2.0 * math.pi) ** ((n - 1) / 2.0) / math.gamma((n + 1) / 2.0)
    return pref / math.sqrt(tau_mu), pref / math.sqrt(tau_u)
