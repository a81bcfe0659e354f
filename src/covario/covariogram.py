"""Covariograms and cross-covariograms of planar convex bodies.

Polygon pairs go through exact chord slicing; the auto-covariogram of a smooth
body (a SupportBody, a Disk included) through the strip-area identity,
integrated in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from covario.geometry import (
    _RESIDUAL_TOL,
    _SQRT_EPS,
    Direction,
    Harmonics,
    Polygon,
    SupportBody,
    area,
    body_hash,
    boundary_point,
    polygonal_approximation,
    slice_tables,
    support,
    width,
)

# inscribed n-gon standing in for a smooth body met by another body
APPROX_BOUNDARY_POINTS = 4096
# a slicing call holds about 10 floats per knot and shift and 21 per knot and
# column; it takes about this many knot x shift elements at most
CHUNK_KNOTS = 2 ** 16


class FitFailed(Exception):
    """Raised when the covariogram cap fit cannot recover a curvature pair."""


@lru_cache(maxsize=64)
def _clip_fan(body):
    """The slice table, by slice_tables, of the body's (approximating) polygon."""
    return slice_tables([polygonal_approximation(body, APPROX_BOUNDARY_POINTS).vertices])[0]


def _slice_areas(table_a, table_b, dx, dy):
    """area(A intersect (B + (dx[i], dy[i, j]))) at shape (m, k), from the
    slice tables of A and B: column i holds the shifts of one x-shift dx[i].

    On each vertical line the bodies meet in the segment from max(a_A, a_B + y)
    to min(b_A, b_B + y), a and b the lower and upper boundaries.  Between knots
    of A and B + x its length is linear except where the lower or the upper
    boundaries cross, so its positive part integrates exactly piece by piece.
    The knots and lines depend on dx alone, so they are merged once a column.
    Only the (column, interval) pairs of each column's run of intervals of
    positive width reach the row stage: the lines, + dy, the crossing test
    and the split.
    """
    (knots_a, lines_a), (knots_b, lines_b) = table_a, table_b
    dx = np.asarray(dx, dtype=float)[:, None]
    dy = np.asarray(dy, dtype=float)[:, :, None]
    cols = np.arange(dx.shape[0])[:, None]
    shifted = knots_b + dx
    # merge without sorting: each knot of B + x goes right after the knots of A
    # at or left of it, and A's knots fill the other places in order
    at_b = knots_a.searchsorted(shifted, side="right") + np.arange(knots_b.size)
    is_a = np.ones((dx.shape[0], knots_a.size + knots_b.size), dtype=bool)
    is_a[cols, at_b] = False
    knots = np.empty(is_a.shape)
    knots[is_a] = np.tile(knots_a, dx.shape[0])
    knots[cols, at_b] = shifted
    # the lines of A and of B + x on the interval right of each knot, from the
    # number of A's knots up to it
    n_a = is_a[:, :-1].cumsum(axis=1)
    ka = np.minimum(np.maximum(n_a - 1, 0), knots_a.size - 2)
    kb = np.minimum(np.maximum(np.arange(n_a.shape[1]) - n_a, 0), knots_b.size - 2)
    # knots outside the common x-range collapse onto its ends, all of them
    # onto one point when the ranges are disjoint
    knots = np.minimum(np.maximum(knots, np.maximum(knots_a[0], shifted[:, :1])),
                       np.minimum(knots_a[-1], shifted[:, -1:]))
    # so the intervals of positive width of a column lie in one run, from its
    # first to its last one, and every other interval adds an exact 0 to the
    # area: the row stage reads the run's (column, interval) pairs alone
    areas = np.zeros((dy.shape[0], dy.shape[1], n_a.shape[1]))
    wide = knots[:, 1:] > knots[:, :-1]
    window = np.flatnonzero(wide.any(axis=0))
    if not window.size:
        return areas.sum(axis=2)
    lo, hi = window[0], window[-1] + 1
    if (wide[:, lo] & wide[:, hi - 1]).all():
        # every column's run fills the window [lo, hi): a slice costs nothing
        pick = (slice(None), slice(lo, hi))
    else:
        # else gather the pairs, their column's y-shifts along with them
        start = wide.argmax(axis=1)
        size = np.where(wide.any(axis=1), wide.shape[1] - wide[:, ::-1].argmax(axis=1) - start, 0)
        col = np.repeat(np.arange(size.size), size)
        pick = (col, np.arange(col.size) + np.repeat(start - size.cumsum() + size, size))
        dy = dy[col, :, 0]
    ka, kb, dx = ka[pick], kb[pick], np.broadcast_to(dx, ka.shape)[pick]
    # (lower, upper) x (left, right end) of every interval, for A and for B + x,
    # each read on the interval's own line: a near-vertical edge is a line too
    # steep to read anywhere but on its own ulp-wide interval; the values of A,
    # and of B before + dy, have a shift axis of length 1 after the column (or
    # pair) axis
    ends = np.array([knots[:, :-1][pick], knots[:, 1:][pick]])
    la, lb = lines_a.take(ka, axis=1), lines_b.take(kb, axis=1)
    va = (la[0::2, None] + la[1::2, None] * (ends - knots_a[ka]))[:, :, :, None]
    vb = (lb[0::2, None] + lb[1::2, None] * (ends - dx - knots_b[kb]))[:, :, :, None] + dy
    width = (ends[1] - ends[0])[:, None]
    # the length is linear on an interval unless the lower or the upper
    # boundaries cross inside it: split only those intervals, at the crossings
    turns = (va - vb).prod(axis=1) < 0.0
    pq = np.minimum(va[1], vb[1])
    pq -= np.maximum(va[0], vb[0])
    live = width * _positive_mean(*pq)
    hit = ((turns[0] | turns[1]) & (width > 0.0)).nonzero()
    if hit[0].size:
        hit_a = (hit[0], 0) + hit[2:]  # the same intervals on A's shift axis
        va, vb = va[(...,) + hit_a], vb[(...,) + hit]
        d = va - vb
        s = np.zeros((4, hit[0].size))
        np.divide(d[:, 0], d[:, 0] - d[:, 1], out=s[1:3], where=turns[(slice(None),) + hit])
        s[1:3].sort(axis=0)
        s[3] = 1.0
        fa = va[:, :1] + s * (va[:, 1:] - va[:, :1])
        fb = vb[:, :1] + s * (vb[:, 1:] - vb[:, :1])
        cut = np.minimum(fa[1], fb[1]) - np.maximum(fa[0], fb[0])
        pieces = (s[1:] - s[:-1]) * _positive_mean(cut[:-1], cut[1:])
        live[hit] = width[hit_a] * pieces.sum(axis=0)
    areas[pick[:1] + (slice(None),) + pick[1:]] = live
    return areas.sum(axis=2)


_TINY = np.finfo(float).tiny


def _positive_mean(p, q):
    """Mean of the positive part of the linear function running from p to q."""
    span, total = np.abs(p) + np.abs(q), p + q
    # max(p, 0) + max(q, 0) = (total + span) / 2; span = 0 only where p = q = 0
    return (total + span) ** 2 / (8.0 * np.maximum(span, _TINY))


def _pair_area(bodyA, bodyB, x):
    """lambda_2(A intersect (B + x)) at one point (see _areas)."""
    return float(_areas(bodyA, bodyB, np.reshape(np.asarray(x, dtype=float), (1, 2)))[0])


def _method(bodyA, bodyB):
    """How _areas computes the pair: "exact-strip" for a smooth body with
    itself, "exact-clip" for two polygons and "polyline-approx" for any other
    pair, whose smooth bodies are replaced by inscribed APPROX_BOUNDARY_POINTS-gons."""
    if isinstance(bodyA, SupportBody) and bodyA == bodyB:
        return "exact-strip"
    if isinstance(bodyA, Polygon) and isinstance(bodyB, Polygon):
        return "exact-clip"
    return "polyline-approx"


def _areas(bodyA, bodyB, xs):
    """lambda_2(A intersect (B + x)) for every row x of xs, by _method."""
    if _method(bodyA, bodyB) == "exact-strip":
        return _smooth_covariogram(bodyA, xs)
    return _point_areas(_clip_fan(bodyA), _clip_fan(bodyB), xs)


def covariogram(body, x):
    """g_K(x) = area(K intersect (K + x)); exact for polygons and smooth bodies."""
    return _pair_area(body, body, x)


def covariogram_evaluator(body, n=None):
    """Black-box g_K (the determination-experiment contract): a point of shape
    (2,) gives a float, a batch of shape (k, 2) an array of shape (k,).

    Every body is evaluated exactly: polygons by chord slicing, smooth bodies
    by the strip-area identity.  n, a polygon resolution that callers may
    still pass, is accepted and has no effect.
    """

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return _pair_area(body, body, x)
        return _areas(body, body, x)

    return evaluate


def clip_areas_batch(subject_vertices, clip_vertices, xs):
    """Areas of subject intersect (clip + x) for every row x of xs, in vectorized chunks."""
    return _point_areas(slice_tables([subject_vertices])[0], slice_tables([clip_vertices])[0], xs)


def _point_areas(table_a, table_b, xs):
    """_chunked_areas at every row x of xs, each a column of one shift."""
    xs = np.asarray(xs, dtype=float).reshape(-1, 2)
    return _chunked_areas(table_a, table_b, xs[:, 0], xs[:, 1:])[:, 0]


def _chunked_areas(table_a, table_b, dx, dy):
    """_slice_areas over the columns (dx, dy): whole columns while they fit
    in a call, else one column with its shifts split.  A call takes about
    CHUNK_KNOTS knot x shift elements at most, each column counted as two
    more shifts, the memory its merged knots and lines hold."""
    knots = table_a[0].size + table_b[0].size
    rows = max(1, min(dy.shape[1], CHUNK_KNOTS // knots - 2))
    cols = max(1, CHUNK_KNOTS // (knots * (rows + 2)))
    out = np.empty(dy.shape)
    for i in range(0, dy.shape[0], cols):
        for j in range(0, dy.shape[1], rows):
            out[i:i + cols, j:j + rows] = _slice_areas(table_a, table_b, dx[i:i + cols],
                                                       dy[i:i + cols, j:j + rows])
    return out


# the Newton iterations below stop on residuals of _RESIDUAL_TOL relative to
# the body; a chord still unsettled after _MAX_STEPS steps is bisected instead
_MAX_STEPS = 64


@dataclass(frozen=True)
class _StripSeries:
    support: Harmonics   # h, so terms() gives h, h' and rho = h + h''
    width: Harmonics     # w(t) = h(t) + h(t + pi): the even harmonics, doubled
    h_rho: Harmonics     # h * rho, of degree at most 2 KMAX
    area: float


@lru_cache(maxsize=64)
def _strip_series(body):
    """The harmonics the strip-area identity needs for a SupportBody.

    h * rho comes from one convolution of the complex Fourier coefficients of
    h and of rho = h + h''.
    """
    h = body.series
    even = h.k % 2.0 == 0.0
    ab = np.array(body.coeffs, dtype=float).reshape(-1, 2)
    m = ab.shape[0]
    half = 0.5 * (ab[:, 0] - 1j * ab[:, 1])
    coef = np.concatenate([np.conj(half[::-1]), [body.a0], half])  # harmonics -m..m
    ks = np.arange(-m, m + 1.0)
    prod = np.convolve(coef, (1.0 - ks * ks) * coef)[2 * m:]          # harmonics 0..2m
    return _StripSeries(h, Harmonics(2.0 * h.c0, h.k[even], 2.0 * h.a[even], 2.0 * h.b[even]),
                        Harmonics.of(prod[0].real, np.arange(1.0, 2 * m + 1.0),
                                     2.0 * prod[1:].real, -2.0 * prod[1:].imag),
                        area(body))


def _smooth_covariogram(body, xs):
    """Exact g_K at every row of xs for a SupportBody.

    g is even and translation invariant, so each x is first folded into the
    upper half-plane (g(x) and g(-x) are then one computation) and the
    body's center is never read.
    """
    xs = np.asarray(xs, dtype=float).reshape(-1, 2)
    flip = (xs[:, 1] < 0.0) | ((xs[:, 1] == 0.0) & (xs[:, 0] < 0.0))
    xs = np.where(flip[:, None], -xs, xs)
    return _strip_covariogram(_strip_series(body), xs, np.hypot(xs[:, 0], xs[:, 1]))


def _strip_covariogram(series, xs, r):
    """g_K(x) = A_K(t1, t2) - |x| (t2 - t1) for a SupportBody (Matheron's slicing).

    With v = x / |x|, t1 < t2 are the offsets across v of the two chords
    parallel to v of length |x|, and A_K(t1, t2) is the area of K between
    them.  Both chords exist for 0 < |x| < R*, the longest chord parallel to
    v; g vanishes from there on.  The four chord ends span a parallelogram of
    area |x| (t2 - t1), so g is the sum of the two caps that the arcs of K
    between the chords cut off it (_caps).
    """
    alpha = np.arctan2(xs[:, 1], xs[:, 0])
    theta, r_max = _longest_chord(series.width, alpha)
    out = np.zeros(r.size)
    out[r == 0.0] = series.area
    # g = area - |x| w(v perp) + O(|x|^3): below sqrt(eps) R* the rest is rounding
    near = (r > 0.0) & (r <= _SQRT_EPS * r_max)
    out[near] = series.area - r[near] * series.width.terms(alpha[near] + 0.5 * math.pi)[0]
    i = np.nonzero((r > _SQRT_EPS * r_max) & (r < r_max))[0]
    if i.size:
        out[i] = _caps(series, xs[i], r[i], alpha[i], theta[i], r_max[i])
    return out


def _longest_chord(width, alpha):
    """Normal angle theta* and length R* of the longest chord of K parallel to
    (cos alpha, sin alpha).

    Its ends p(theta*) and p(theta* + pi) have opposite normals, so it is
    p_D(theta*) = w n + w' n', the boundary point of K - K with normal
    theta*.  The angle of p_D(theta) relative to alpha, theta - alpha +
    atan(w'/w), increases with theta and changes sign on alpha -+ pi/2: a
    Newton iteration on it is safeguarded by bisection on that bracket, its
    unsettled angles compacted only in a step where some angle settles.
    """
    out = np.empty_like(alpha)
    todo, theta = np.arange(alpha.size), alpha.copy()
    lo, hi = alpha - 0.5 * math.pi, alpha + 0.5 * math.pi
    for _ in range(_MAX_STEPS):
        if not todo.size:
            w, w1, _ = width.terms(out)
            return out, np.hypot(w, w1)
        w, w1, rho = width.terms(theta)
        f = theta - alpha + np.arctan(w1 / w)
        lo, hi = np.where(f < 0.0, theta, lo), np.where(f > 0.0, theta, hi)
        new = theta - f * (w * w + w1 * w1) / (w * rho)
        theta = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
        going = np.abs(f) > _RESIDUAL_TOL
        if not going.all():
            out[todo] = theta
            todo, theta, alpha, lo, hi = (z[going] for z in (todo, theta, alpha, lo, hi))
    raise ArithmeticError("longest-chord iteration did not converge")


def _caps(series, xs, r, alpha, theta, r_max):
    """g at points strictly inside supp g, from the ends of their two chords.

    A chord runs from p(phi_a) to p(phi_b) = p(phi_a) + x; one lies on the
    side of the normal alpha + pi/2, the other on the opposite side.  Each
    end lies in a bracket between its normal on the longest chord, theta*
    or theta* + pi, and the normal alpha -+ pi/2 of the support line, where
    the chord shrinks to a point.  The seeds are the disk's chord ends
    theta* -+ arccos(|x| / R*), mapped onto the brackets.

    The 2x2 Newton iteration on E = p(phi_b) - p(phi_a) - x has Jacobian
    columns -rho(phi_a) n'(phi_a) and rho(phi_b) n'(phi_b), which are
    independent inside the brackets.  A step goes at most halfway to a
    bracket's end, and one that does not lower |E| is retried at half the
    length, so the iteration cannot cycle.  It stops where |E| is at
    rounding level, or where no step can lower it any further.  Only next
    to a near-corner (rho close to 0), where the normal angle is a poor
    coordinate, does a chord stop short of rounding level or run out of
    MAX_STEPS steps; such chords are bisected instead (_bisected_chords).
    """
    top = alpha + 0.5 * math.pi
    # columns the chords above, then those below; rows (phi_a, phi_b)
    x, y, tol, theta, seed = np.tile([xs[:, 0], xs[:, 1], _RESIDUAL_TOL * r_max, theta,
                                      np.arccos(r / r_max) / (0.5 * math.pi)], 2)
    longest = np.array([theta + math.pi, theta])
    short = np.array([np.concatenate([top, top + math.pi]), np.concatenate([top, top - math.pi])])
    lo, hi = np.minimum(longest, short), np.maximum(longest, short)
    phi = longest + seed * (short - longest)
    best = np.full(x.size, np.inf)
    # the unsettled chords, a column each: the trial ends, the ends of least
    # |E| so far, the step from there, the brackets, the step's length, that
    # least |E| and the targets; compacted only in a step where some chord
    # settles
    todo, trial, base, step = np.arange(x.size), phi.copy(), phi.copy(), np.zeros_like(phi)
    length, least, tol_i = np.ones(x.size), best.copy(), tol
    for _ in range(_MAX_STEPS):
        # one evaluation of the boundary p = h n + h' n' at both ends
        h, h1, (ra, rb) = series.support.terms(trial)
        c, s = np.cos(trial), np.sin(trial)
        px, py = h * c - h1 * s, h * s + h1 * c
        ex, ey = px[1] - px[0] - x, py[1] - py[0] - y
        res = np.hypot(ex, ey)
        # a trial that lowers |E| is the base of a new Newton step; one that
        # does not is retried at half the length
        lower = res < least
        np.copyto(least, res, where=lower)
        np.copyto(base, trial, where=lower)
        (ca, cb), (sa, sb) = c, s
        sin_ab = sa * cb - ca * sb
        d = -np.array([(ex * cb + ey * sb) / (ra * sin_ab), (ex * ca + ey * sa) / (rb * sin_ab)])
        with np.errstate(divide="ignore"):
            room = np.where(d > 0.0, hi - base, base - lo) / np.abs(d)
        np.copyto(step, d, where=lower)
        length = np.where(lower, np.minimum(1.0, 0.5 * room.min(axis=0)), 0.5 * length)
        trial = base + length * step
        going = (least > tol_i) & (length > _SQRT_EPS)
        if not going.all():
            phi[:, todo], best[todo] = trial, least
            todo, length, least, x, y, tol_i = (
                z[going] for z in (todo, length, least, x, y, tol_i))
            trial, base, step, lo, hi = (z[:, going] for z in (trial, base, step, lo, hi))
            if not todo.size:
                break
    phi[:, todo], best[todo] = trial, least
    stuck = np.nonzero(best > tol)[0]
    if stuck.size:
        phi[:, stuck] = _bisected_chords(series.support, np.tile(alpha, 2)[stuck],
                                         np.tile(r, 2)[stuck], longest[:, stuck], short[:, stuck])
    (a_above, a_below), (b_above, b_below) = phi.reshape(2, 2, -1)
    # the front arc runs counterclockwise from the lower chord's end to the
    # upper one's, the back arc from the upper chord's start to the lower one's
    front, back = _cap(series, np.array([b_below, a_above]), np.array([b_above, a_below]))
    return np.maximum(front + back, 0.0)


def _bisected_chords(support, alpha, r, longest, short):
    """(phi_a, phi_b) of chords of length r parallel to (cos alpha, sin alpha),
    by bisection between the ends of the longest chord and of the point-chord
    at the support line (the brackets of _caps).

    Along the chord's offset s = <p, e>, e the normal alpha + pi/2, the length
    falls from above r at the longest chord to 0 at the support line.  Each
    probed offset finds the two ends on <p(phi), e> = s between the ends
    found at the two offsets that bracket the chord so far.
    """
    e = alpha + 0.5 * math.pi
    s_long, s_short = support.offsets(longest[1], e)[0], support.offsets(short[1], e)[0]
    for _ in range(64):
        s = 0.5 * (s_long + s_short)
        # e perp points along -(cos alpha, sin alpha), from p(phi_b) to p(phi_a)
        ends, length = support.chord_at_offset(s, e, longest, short)
        longer = length > r
        s_long, s_short = np.where(longer, s, s_long), np.where(longer, s_short, s)
        longest, short = np.where(longer, ends, longest), np.where(longer, short, ends)
    return 0.5 * (longest + short)


def _cap(series, s, e):
    """Area between the arc of the boundary from normal s to normal e and its chord.

    Green's theorem: half the integral of p x p' = h rho over the arc, less
    half of p(s) x p(e); with p = h n + h' n' the latter is
    (h_s h_e + h'_s h'_e) sin(e - s) + (h_s h'_e - h'_s h_e) cos(e - s).
    """
    hs, h1s, _ = series.support.terms(s)
    he, h1e, _ = series.support.terms(e)
    cross = (hs * he + h1s * h1e) * np.sin(e - s) + (hs * h1e - h1s * he) * np.cos(e - s)
    return 0.5 * (series.h_rho.integral(s, e) - cross)


@dataclass(frozen=True)
class CovariogramGrid:
    """Sampled covariogram values at origin + spacing * (ix, iy), 0 <= ix < nx,
    0 <= iy < ny.  bbox holds the first and last x and y of that lattice:
    cross_covariogram_grid samples another pair there when given it."""

    origin: tuple
    spacing: tuple
    nx: int
    ny: int
    values: np.ndarray  # shape (ny, nx)
    method: str
    body_hashes: tuple

    def points(self):
        xg = self.origin[0] + self.spacing[0] * np.arange(self.nx)
        yg = self.origin[1] + self.spacing[1] * np.arange(self.ny)
        return xg, yg

    @property
    def bbox(self):
        (x0, y0), (dx, dy) = self.origin, self.spacing
        return (x0, x0 + dx * (self.nx - 1)), (y0, y0 + dy * (self.ny - 1))

    def sidecar(self):
        return {
            "schema_version": 1,
            "origin": list(self.origin),
            "spacing": list(self.spacing),
            "shape": [self.nx, self.ny],
            "method": self.method,
            "bodies": list(self.body_hashes),
        }


# +x, -x, +y, -y
_BOX_DIRECTIONS = tuple(Direction(t) for t in (0.0, math.pi, math.pi / 2, 3 * math.pi / 2))


def _support_bbox(h, k):
    """Bounding box of supp g_{H,K} = H + (-K), from the support numbers of H
    and of K along _BOX_DIRECTIONS; they may be arrays, one box an entry."""
    return (-(h[1] + k[0]), h[0] + k[1]), (-(h[3] + k[2]), h[2] + k[3])


def _lattice(bbox, nx, ny):
    """Origin, spacing and the x and y points of the nx x ny lattice spanning
    bbox, whose ends may be arrays: a lattice an entry, its points on a last axis."""
    (x0, x1), (y0, y1) = bbox
    dx, dy = (x1 - x0) / (nx - 1), (y1 - y0) / (ny - 1)
    return ((x0, y0), (dx, dy), np.asarray(x0)[..., None] + np.multiply.outer(dx, np.arange(nx)),
            np.asarray(y0)[..., None] + np.multiply.outer(dy, np.arange(ny)))


def cross_covariogram_grid(bodyH, bodyK, nx=41, ny=41, bbox=None):
    """CovariogramGrid of g_{H,K} over the support bounding box; method is
    _method's name for the pair.

    A pair that goes through chord slicing is sliced a grid column at a
    time: the knots of H and K + x are merged once for each x-shift and
    serve every y-shift of the column (_slice_areas).
    """
    if bbox is None:
        bbox = _support_bbox(*([support(b, u) for u in _BOX_DIRECTIONS] for b in (bodyH, bodyK)))
    (x0, y0), (dx, dy), xg, yg = _lattice(bbox, nx, ny)
    method = _method(bodyH, bodyK)
    if method == "exact-strip":
        xsv, ysv = np.meshgrid(xg, yg)
        pts = np.stack([xsv.ravel(), ysv.ravel()], axis=1)
        values = _smooth_covariogram(bodyH, pts).reshape(ny, nx)
    else:
        values = _chunked_areas(_clip_fan(bodyH), _clip_fan(bodyK), xg,
                                np.broadcast_to(yg, (nx, ny))).T
    return CovariogramGrid((float(x0), float(y0)), (float(dx), float(dy)), nx, ny, values,
                           method, (body_hash(bodyH), body_hash(bodyK)))


def grid_deviations(loops, nx, ny):
    """max |g_{H,K} - g_{H',K'}| over cross_covariogram_grid(H, K, nx, ny)'s
    lattice, bit for bit, for each row (H, K, H', K') of vertex loops of shape
    (n, 4, v, 2) in Polygon's order: all lattices and all the loops' slice
    tables in one array pass each, then one _chunked_areas call a grid."""
    sup = np.array([(loops @ u.u).max(axis=-1) for u in _BOX_DIRECTIONS])  # as support() reads it
    (x0, y0), _, xg, yg = _lattice(_support_bbox(sup[:, :, 0], sup[:, :, 1]), nx, ny)
    # (H', K') on the first grid's bbox, its first and last x and y
    _, _, xg2, yg2 = _lattice(((x0, xg[:, -1]), (y0, yg[:, -1])), nx, ny)
    yg, yg2 = (np.broadcast_to(y[:, None], (len(loops), nx, ny)) for y in (yg, yg2))
    tables = slice_tables(loops.reshape(-1, *loops.shape[2:]))
    out = np.empty(len(loops))
    for i in range(len(loops)):
        h, k, h2, k2 = tables[4 * i:4 * i + 4]
        out[i] = np.abs(_chunked_areas(h, k, xg[i], yg[i])
                        - _chunked_areas(h2, k2, xg2[i], yg2[i])).max()
    return out


def covariogram_grid(body, nx=41, ny=41, bbox=None):
    """Auto-covariogram grid; the lattice contains the origin for odd nx, ny."""
    return cross_covariogram_grid(body, body, nx=nx, ny=ny, bbox=bbox)


CAP_PREFACTOR = 2.0 / 3.0  # omega_1 / (n^2 - 1) for n = 2, proof-consistent


@dataclass(frozen=True)
class CurvaturePair:
    """Unordered curvature pair {tau(u), tau(-u)} recovered from g_K near p."""

    low: float
    high: float
    fit_residual: float

    @property
    def values(self):
        return (self.low, self.high)


def cap_pairs(g, anchors, us, t_stars):
    """Unordered curvature pair {tau(u), tau(-u)} from g_K near each anchor,
    a point of the boundary of supp g_K = K - K with outer normal u.

    At depth t below anchor along -u and offset q along u perp, the cap law
    reads g^{2/3} = alpha (2t - Q q^2) + ..., with alpha =
    CAP_PREFACTOR^{2/3} / D^{1/3}, D = tau(u) + tau(-u) and Q D =
    tau(u) tau(-u).  A six-point depth ladder on [t_star/10, t_star], fitted
    as b0 + alpha 2t, sizes the stencil; one least-squares fit of g^{2/3} on
    {1, 2t, q, q^2} over t in {t_star/2, t_star} and seven offsets with
    |q| <= 0.7 sqrt(4 t_star / D) then gives D, Q and the roots of
    z^2 - D z + Q D.  The fit takes the anchor as found: its offset along u
    and u perp lands in the 1 and q terms.  A negative discriminant is
    clipped to 0 (an equal pair); one below -D^2/4 raises FitFailed.

    g maps points of shape (k, 2) to values of shape (k,); it is called
    twice: once for the depth ladders of all directions, once for the
    stencils of those whose ladder fit succeeded.  Each slot holds the
    CurvaturePair or the FitFailed that its fit raised.  fit_residual is the
    largest residual of the stencil fit relative to the largest g^{2/3} on
    the stencil.
    """
    fits = [_cap_fit(anchor, u, t_star) for anchor, u, t_star in zip(anchors, us, t_stars)]
    slots = [None] * len(fits)
    asks = {i: next(fit) for i, fit in enumerate(fits)}
    while asks:
        values = g(np.concatenate(list(asks.values())))
        ends = np.cumsum([len(points) for points in asks.values()])
        replies = zip(asks, np.split(values, ends[:-1]))
        asks = {}
        for i, vals in replies:
            try:
                asks[i] = fits[i].send(vals)
            except StopIteration as done:
                slots[i] = done.value
            except FitFailed as failure:
                slots[i] = failure
    return slots


def _cap_fit(anchor, u: Direction, t_star):
    """One direction's cap fit as a generator: it yields the points it needs, receives
    g at them and returns the CurvaturePair (or raises FitFailed)."""
    uv, tan = u.u, u.perp
    depths = np.geomspace(0.1 * t_star, t_star, 6)
    g0 = yield anchor - depths[:, None] * uv
    if np.any(g0 <= 0):
        raise FitFailed("empty cap on the depth ladder")
    design = np.stack([np.ones_like(depths), 2.0 * depths], axis=1)
    (_, slope), *_ = np.linalg.lstsq(design, g0 ** (2.0 / 3.0), rcond=None)
    if slope <= 0:
        raise FitFailed("non-positive depth slope")
    d0 = (CAP_PREFACTOR ** (2.0 / 3.0) / slope) ** 3
    q_max = 0.7 * math.sqrt(4.0 * t_star / d0)
    qs = np.linspace(-q_max, q_max, 7)
    tarr = np.repeat([0.5 * t_star, t_star], qs.size)
    qarr = np.tile(qs, 2)
    vals = yield anchor + qarr[:, None] * tan - tarr[:, None] * uv
    inside = vals > 0
    if np.count_nonzero(inside) < 8:
        raise FitFailed("stencil mostly outside the cap")
    tarr, qarr, y = tarr[inside], qarr[inside], vals[inside] ** (2.0 / 3.0)
    basis = np.stack([np.ones_like(tarr), 2.0 * tarr, qarr, qarr * qarr], axis=1)
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    alpha, beta_q2 = coef[1], coef[3]
    if alpha <= 0:
        raise FitFailed("non-positive fitted depth coefficient")
    d_sum = (CAP_PREFACTOR ** (2.0 / 3.0) / alpha) ** 3
    q_curv = -beta_q2 / alpha
    disc = d_sum * d_sum - 4.0 * q_curv * d_sum
    if disc < -0.25 * d_sum * d_sum:
        raise FitFailed(f"discriminant {disc:.3g} below -D^2/4")
    root = math.sqrt(max(disc, 0.0))
    low, high = 0.5 * (d_sum - root), 0.5 * (d_sum + root)
    if low <= 0:
        raise FitFailed("non-positive curvature root")
    resid = float(np.abs(basis @ coef - y).max() / y.max())
    return CurvaturePair(float(low), float(high), resid)


def curvature_pair_from_covariogram(body, u: Direction):
    """Recover {tau(u), tau(-u)} of a smooth body from its exact covariogram.

    The cap fit at the exact anchor p(u) - p(-u) with t_star = 5e-4 w(u), a depth
    relative to the width, so the recovered pair scales as 1 / size.
    """
    (pair,) = curvature_pairs_from_covariogram(body, [u])
    return pair


def curvature_pairs_from_covariogram(body, us):
    """curvature_pair_from_covariogram along each direction of us, from one
    cap_pairs call; the first direction whose fit fails raises its FitFailed."""
    if not isinstance(body, SupportBody):
        raise FitFailed("cap asymptotics require a smooth body")
    anchors = [boundary_point(body, u) - boundary_point(body, u.antipode()) for u in us]
    pairs = cap_pairs(covariogram_evaluator(body), anchors, us, [5e-4 * width(body, u) for u in us])
    for pair in pairs:
        if isinstance(pair, FitFailed):
            raise pair
    return pairs
