"""Vertex loops for the convex hull, the zonogon and the Minkowski sum of
convex polygons, which the constructions in `geometry` replace by leaving the
collinear and reflex bookkeeping to `Polygon`; the sorted-edge Minkowski
sum and the segment half-vector and midpoint, which only the tests use; and
the cyclic vertex distance as `asymptotics` took it, one `np.roll` a shift;
the parallelogram pairs built through `zonogon` from scaled unit segments,
and the counterexample check on them as `Polygon`s, one draw at a time.

Each `loop_` function returns what the loop returned: hull vertices as an array, the
zonogon and the sum as a `Polygon`. The tests require the `geometry`
constructions, and `minkowski_sum_polygons`, to give the same `Polygon`s, and
`asymptotics._best_cyclic_distance` to give the distances of
`roll_best_cyclic_distance`, and `geometry.parallelogram_loops` and
`asymptotics.crosscov_counterexample` to give the vertices of `zonogon_pair`
and the reports of `polygon_counterexample`, bit for bit.
"""

import math

import numpy as np

from covario.asymptotics import (
    COUNTEREXAMPLE_GRID,
    COUNTEREXAMPLE_TOL,
    CounterexampleReport,
    trivial_associates,
)
from covario.covariogram import cross_covariogram_grid
from covario.geometry import DegenerateZonogon, Polygon, Segment, zonogon


def half_vector(seg):
    """Half of the segment's vector, q - p."""
    return 0.5 * (np.asarray(seg.q, dtype=float) - np.asarray(seg.p, dtype=float))


def midpoint(seg):
    return 0.5 * (np.asarray(seg.q, dtype=float) + np.asarray(seg.p, dtype=float))


def loop_convex_hull(points):
    """Convex hull vertices (CCW) of a point cloud, by monotone chain."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if pts.shape[0] < 3:
        raise ValueError("need at least 3 distinct points")
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def loop_zonogon(center, generators):
    """Zonogon with parallel generators merged by angle before the chain is built."""
    if not generators:
        raise DegenerateZonogon("no generators")
    c = np.asarray(center, dtype=float)
    halves = []
    for seg in generators:
        s = half_vector(seg)
        c = c + midpoint(seg)
        ang = math.atan2(s[1], s[0])
        if ang < 0 or ang >= math.pi - 1e-15:
            s = -s
            ang = math.atan2(s[1], s[0])
        halves.append((ang, s))
    halves.sort(key=lambda t: t[0])
    merged = []
    for ang, s in halves:
        if merged and abs(ang - merged[-1][0]) < 1e-12:
            merged[-1] = (merged[-1][0], merged[-1][1] + s)
        else:
            merged.append((ang, s))
    merged = [(a, s) for a, s in merged if np.linalg.norm(s) > 1e-15]
    if len(merged) < 2:
        raise DegenerateZonogon("all generators are parallel")
    svecs = [s for _, s in merged]
    start = c - np.sum(svecs, axis=0)
    chain = [start]
    for s in svecs:
        chain.append(chain[-1] + 2.0 * s)
    lower = np.array(chain[:-1])
    upper = 2.0 * c - lower
    return Polygon(np.vstack([lower, upper]))


def loop_minkowski_sum(p, q):
    """Minkowski sum of two convex polygons by CCW edge merging."""
    pv, qv = p.vertices, q.vertices

    def bottom(v):
        return int(np.lexsort((v[:, 0], v[:, 1]))[0])

    ip, iq = bottom(pv), bottom(qv)
    np_, nq = pv.shape[0], qv.shape[0]
    out = [pv[ip] + qv[iq]]
    cp = cq = 0
    while cp < np_ or cq < nq:
        ep = pv[(ip + 1) % np_] - pv[ip % np_] if cp < np_ else None
        eq = qv[(iq + 1) % nq] - qv[iq % nq] if cq < nq else None
        if eq is None:
            step = ep
            ip, cp = ip + 1, cp + 1
        elif ep is None:
            step = eq
            iq, cq = iq + 1, cq + 1
        else:
            cross = ep[0] * eq[1] - ep[1] * eq[0]
            if cross > 0:
                step = ep
                ip, cp = ip + 1, cp + 1
            elif cross < 0:
                step = eq
                iq, cq = iq + 1, cq + 1
            else:
                step = ep + eq
                ip, cp = ip + 1, cp + 1
                iq, cq = iq + 1, cq + 1
        out.append(out[-1] + step)
    return Polygon(np.array(out[:-1]))


def minkowski_sum_polygons(p, q):
    """Exact Minkowski sum of two convex polygons: from the sum of their bottom
    vertices, both polygons' edges added in order of angle in [0, 2 pi)."""
    pv, qv = p.vertices, q.vertices
    edges = np.vstack([np.roll(pv, -1, axis=0) - pv, np.roll(qv, -1, axis=0) - qv])
    order = np.argsort(np.arctan2(edges[:, 1], edges[:, 0]) % (2.0 * math.pi), kind="stable")
    start = pv[np.lexsort((pv[:, 0], pv[:, 1]))[0]] + qv[np.lexsort((qv[:, 0], qv[:, 1]))[0]]
    return Polygon(np.cumsum(np.vstack([start, edges[order]]), axis=0)[:-1])


def roll_best_cyclic_distance(va, vb):
    if va.shape != vb.shape:
        return math.inf
    n = va.shape[0]
    return min(np.abs(np.roll(vb, k, axis=0) - va).max() for k in range(n))


_SQ2 = math.sqrt(2.0)
_I1 = Segment((-1.0, 0.0), (1.0, 0.0))
_I2 = Segment((-1.0 / _SQ2, -1.0 / _SQ2), (1.0 / _SQ2, 1.0 / _SQ2))
_I3 = Segment((0.0, -1.0), (0.0, 1.0))
_I4 = Segment((1.0 / _SQ2, -1.0 / _SQ2), (-1.0 / _SQ2, 1.0 / _SQ2))


def _i5(m):
    r = math.sqrt(1.0 + m * m)
    return Segment((-m / r, -1.0 / r), (m / r, 1.0 / r))


def _scaled(seg, factor):
    return Segment(tuple(factor * np.asarray(seg.p, dtype=float)),
                   tuple(factor * np.asarray(seg.q, dtype=float)))


def zonogon_pair(family, alpha=1.0, beta=1.0, gamma=1.0, delta=1.0, alpha_p=1.0, beta_p=1.0,
                 gamma_p=2.0, delta_p=1.0, m=0.0, y=(0.0, 0.0), y_p=(0.0, 0.0)):
    """The family's pair (H, K) as zonogons of the scaled unit segments I1..I5
    (no parameter checks)."""
    o = (0.0, 0.0)
    if family == 1:
        return (zonogon(o, [_scaled(_I1, alpha), _scaled(_I2, beta)]),
                zonogon(y, [_scaled(_I3, gamma), _scaled(_I4, delta)]))
    if family == 2:
        return (zonogon(o, [_scaled(_I1, alpha), _scaled(_I4, delta)]),
                zonogon(y, [_scaled(_I2, beta), _scaled(_I3, gamma)]))
    first, second = (alpha_p, gamma_p) if family == 3 else (gamma_p, alpha_p)
    return (zonogon(o, [_scaled(_I1, first), _scaled(_I3, beta_p)]),
            zonogon(y_p, [_scaled(_I1, second), _scaled(_i5(m), delta_p)]))


def polygon_counterexample(family, params):
    """One draw's CounterexampleReport from the Polygons of zonogon_pair: the
    grid of (H, K), the grid of (H', K') on its bbox, and trivial_associates."""
    h1, k1 = zonogon_pair(family, **params)
    h2, k2 = zonogon_pair(family + 1, **params)
    g1 = cross_covariogram_grid(h1, k1, *COUNTEREXAMPLE_GRID)
    g2 = cross_covariogram_grid(h2, k2, *COUNTEREXAMPLE_GRID, bbox=g1.bbox)
    return CounterexampleReport(family, float(np.abs(g1.values - g2.values).max()),
                                COUNTEREXAMPLE_TOL, trivial_associates((h1, k1), (h2, k2)))
