"""Covariograms and cross-covariograms of planar convex bodies, by exact chord slicing."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from covario.geometry import (
    Direction,
    Disk,
    Polygon,
    SupportBody,
    area,
    body_hash,
    boundary_point,
    curvature,
    minkowski_sum_polygons,
    polygonal_approximation,
    reflect,
    slice_table,
    support,
    width,
)

APPROX_BOUNDARY_POINTS = 4096
# the slicing kernel holds a few dozen arrays of (points x knots) values;
# batches run in chunks of about this many knots, which keep them in cache
CHUNK_KNOTS = 2 ** 11


class FitFailed(Exception):
    """Raised when the covariogram cap fit cannot recover a curvature pair."""


@lru_cache(maxsize=64)
def _clip_fan(body, n=APPROX_BOUNDARY_POINTS):
    """slice_table of the body's (approximating) polygon."""
    return slice_table(polygonal_approximation(body, n).vertices)


def _slice_areas(table_a, table_b, xs):
    """area(A intersect (B + x)) for every row x of xs, from the slice tables of A and B.

    On each vertical line the bodies meet in the segment from max(a_A, a_B + y)
    to min(b_A, b_B + y), a and b the lower and upper boundaries.  Between knots
    of A and B + x its length is linear except where the lower or the upper
    boundaries cross, so its positive part integrates exactly piece by piece.
    """
    (knots_a, lines_a), (knots_b, lines_b) = table_a, table_b
    xs = np.asarray(xs, dtype=float).reshape(-1, 2)
    rows = np.arange(xs.shape[0])[:, None]
    dx, dy = xs[:, :1], xs[:, 1:]
    shifted = knots_b + dx
    # merge without sorting: each knot of B + x goes right after the knots of A
    # at or left of it, and A's knots fill the other places in order
    at_b = knots_a.searchsorted(shifted, side="right") + np.arange(knots_b.size)
    is_a = np.ones((xs.shape[0], knots_a.size + knots_b.size), dtype=bool)
    is_a[rows, at_b] = False
    knots = np.empty(is_a.shape)
    knots[is_a] = np.tile(knots_a, xs.shape[0])
    knots[rows, at_b] = shifted
    # the lines of A and of B + x on the interval right of each knot, from the
    # number of A's knots up to it
    n_a = is_a[:, :-1].cumsum(axis=1)
    ka = np.minimum(np.maximum(n_a - 1, 0), knots_a.size - 2)
    kb = np.minimum(np.maximum(np.arange(n_a.shape[1]) - n_a, 0), knots_b.size - 2)
    # knots outside the common x-range collapse onto its ends, all of them
    # onto one point when the ranges are disjoint
    knots = np.minimum(np.maximum(knots, np.maximum(knots_a[0], shifted[:, :1])),
                       np.minimum(knots_a[-1], shifted[:, -1:]))
    # (lower, upper) x (left, right end) of every interval, for A and for B + x,
    # each read on the interval's own line: a near-vertical edge is a line too
    # steep to read anywhere but on its own ulp-wide interval
    ends = np.array([knots[:, :-1], knots[:, 1:]])
    la, lb = lines_a[:, ka], lines_b[:, kb]
    va = la[0::2, None] + la[1::2, None] * (ends - knots_a[ka])
    vb = lb[0::2, None] + lb[1::2, None] * (ends - dx - knots_b[kb]) + dy
    width = ends[1] - ends[0]
    p, q = np.minimum(va[1], vb[1]) - np.maximum(va[0], vb[0])
    areas = width * _positive_mean(p, q)
    # the length is linear on an interval unless the lower or the upper
    # boundaries cross inside it: split only those intervals, at the crossings
    d = va - vb
    turns = d[:, 0] * d[:, 1] < 0.0
    i, j = ((turns[0] | turns[1]) & (width > 0.0)).nonzero()
    if i.size:
        va, vb = va[:, :, i, j], vb[:, :, i, j]
        d = va - vb
        s = np.zeros((4, i.size))
        np.divide(d[:, 0], d[:, 0] - d[:, 1], out=s[1:3], where=turns[:, i, j])
        s[1:3].sort(axis=0)
        s[3] = 1.0
        fa = va[:, :1] + s * (va[:, 1:] - va[:, :1])
        fb = vb[:, :1] + s * (vb[:, 1:] - vb[:, :1])
        cut = np.minimum(fa[1], fb[1]) - np.maximum(fa[0], fb[0])
        pieces = (s[1:] - s[:-1]) * _positive_mean(cut[:-1], cut[1:])
        areas[i, j] = width[i, j] * pieces.sum(axis=0)
    return areas.sum(axis=1)


_TINY = np.finfo(float).tiny


def _positive_mean(p, q):
    """Mean of the positive part of the linear function running from p to q."""
    span, total = np.abs(p) + np.abs(q), p + q
    # max(p, 0) + max(q, 0) = (total + span) / 2; span = 0 only where p = q = 0
    return (total + span) ** 2 / (8.0 * np.maximum(span, _TINY))


def polygon_intersection_area(p: Polygon, q: Polygon):
    """Exact area of the intersection of two convex polygons."""
    return _pair_area(p, q, (0.0, 0.0))


def _pair_area(bodyA, bodyB, x, n=APPROX_BOUNDARY_POINTS):
    """lambda_2(A intersect (B + x)), smooth bodies replaced by their inscribed n-gons."""
    return float(_slice_areas(_clip_fan(bodyA, n), _clip_fan(bodyB, n), x)[0])


def covariogram(body, x):
    """g_K(x) = area(K intersect (K + x)); exact for polygons."""
    return _pair_area(body, body, x)


def covariogram_evaluator(body, n=APPROX_BOUNDARY_POINTS):
    """Black-box g_K (the determination-experiment contract): a point of shape
    (2,) gives a float, a batch of shape (k, 2) an array of shape (k,)."""

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return _pair_area(body, body, x, n=n)
        table = _clip_fan(body, n)
        return _chunked_areas(table, table, x)

    return evaluate


def cross_covariogram(bodyA, bodyB, x):
    """g_{H,K}(x) = area(H intersect (K + x)); exact for polygon pairs."""
    return _pair_area(bodyA, bodyB, x)


def clip_areas_batch(subject_vertices, clip_vertices, xs):
    """Areas of subject intersect (clip + x) for every row x of xs, in vectorized chunks."""
    return _chunked_areas(slice_table(subject_vertices), slice_table(clip_vertices), xs)


def _chunked_areas(table_a, table_b, xs):
    """_slice_areas over the rows of xs, in chunks of about CHUNK_KNOTS knots."""
    xs = np.asarray(xs, dtype=float).reshape(-1, 2)
    chunk = max(1, CHUNK_KNOTS // (table_a[0].size + table_b[0].size))
    out = np.empty(xs.shape[0])
    for i in range(0, xs.shape[0], chunk):
        out[i:i + chunk] = _slice_areas(table_a, table_b, xs[i:i + chunk])
    return out


@dataclass(frozen=True)
class CovariogramGrid:
    """Sampled covariogram values on a rectangular lattice."""

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

    def to_csv(self, path, sidecar_path=None):
        lines = ["x,y,value"]
        xg, yg = self.points()
        for iy in range(self.ny):
            for ix in range(self.nx):
                lines.append(f"{float(xg[ix])!r},{float(yg[iy])!r},{float(self.values[iy, ix])!r}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        if sidecar_path is not None:
            with open(sidecar_path, "w") as fh:
                json.dump(self.sidecar(), fh, indent=2, sort_keys=True)

    def sidecar(self):
        return {
            "schema_version": 1,
            "origin": list(self.origin),
            "spacing": list(self.spacing),
            "shape": [self.nx, self.ny],
            "method": self.method,
            "bodies": list(self.body_hashes),
        }


def _support_bbox(bodyH, bodyK):
    """Bounding box of supp g_{H,K} = H + (-K)."""
    hx = support(bodyH, Direction(0.0)) + support(bodyK, Direction(math.pi))
    lx = support(bodyH, Direction(math.pi)) + support(bodyK, Direction(0.0))
    hy = support(bodyH, Direction(math.pi / 2)) + support(bodyK, Direction(3 * math.pi / 2))
    ly = support(bodyH, Direction(3 * math.pi / 2)) + support(bodyK, Direction(math.pi / 2))
    return (-lx, hx), (-ly, hy)


def cross_covariogram_grid(bodyH, bodyK, nx=41, ny=41, bbox=None):
    """CovariogramGrid of g_{H,K} over the support bounding box."""
    if bbox is None:
        (x0, x1), (y0, y1) = _support_bbox(bodyH, bodyK)
    else:
        (x0, x1), (y0, y1) = bbox
    dx = (x1 - x0) / (nx - 1)
    dy = (y1 - y0) / (ny - 1)
    xg = x0 + dx * np.arange(nx)
    yg = y0 + dy * np.arange(ny)
    exact = isinstance(bodyH, Polygon) and isinstance(bodyK, Polygon)
    xsv, ysv = np.meshgrid(xg, yg)
    pts = np.stack([xsv.ravel(), ysv.ravel()], axis=1)
    vh = polygonal_approximation(bodyH, APPROX_BOUNDARY_POINTS).vertices
    vk = polygonal_approximation(bodyK, APPROX_BOUNDARY_POINTS).vertices
    values = clip_areas_batch(vh, vk, pts).reshape(ny, nx)
    method = "exact-clip" if exact else "polyline-approx"
    return CovariogramGrid((float(x0), float(y0)), (float(dx), float(dy)), nx, ny,
                           values, method, (body_hash(bodyH), body_hash(bodyK)))


def covariogram_grid(body, nx=41, ny=41, bbox=None):
    """Auto-covariogram grid; the lattice contains the origin for odd nx, ny."""
    return cross_covariogram_grid(body, body, nx=nx, ny=ny, bbox=bbox)


@dataclass(frozen=True)
class MinkowskiSupport:
    body: Polygon
    max_width_deviation: float
    tolerance: float


def support_of_crosscov(bodyH, bodyK, n_dirs=360):
    """H + (-K), the support of g_{H,K}, with the width-sum identity checked."""
    mk = reflect(bodyK)
    if isinstance(bodyH, Polygon) and isinstance(bodyK, Polygon):
        total = minkowski_sum_polygons(bodyH, mk)
        tol = 1e-12
    else:
        pH = polygonal_approximation(bodyH, APPROX_BOUNDARY_POINTS)
        pK = polygonal_approximation(mk, APPROX_BOUNDARY_POINTS)
        total = minkowski_sum_polygons(pH, pK)
        tol = 1e-5
    thetas = np.linspace(0.0, 2.0 * math.pi, n_dirs, endpoint=False)
    scale = 1.0
    dev = 0.0
    for th in thetas:
        u = Direction(float(th))
        ws = width(total, u)
        target = width(bodyH, u) + width(bodyK, u)
        scale = max(scale, abs(target))
        dev = max(dev, abs(ws - target))
    if dev > tol * scale:
        raise AssertionError(f"width-sum identity violated: {dev:.3e} > {tol:.1e}*{scale:.3g}")
    return MinkowskiSupport(total, dev, tol * scale)


@dataclass(frozen=True)
class MatheronDerivative:
    geometric: float
    finite_difference: float
    step: float


def directional_derivative_origin(body, v: Direction, step=1e-4):
    """One-sided derivative of g_K at the origin in direction v.

    The geometric value is -lambda_1(K | v_perp), the negated length of the
    projection of K onto the line orthogonal to v; the finite difference
    (g(step*v) - g(0)) / step validates it.
    """
    geo = -width(body, Direction(v.theta + math.pi / 2.0))
    g0 = covariogram(body, (0.0, 0.0))
    g1 = covariogram(body, step * v.u)
    return MatheronDerivative(geo, (g1 - g0) / step, step)


def sum_reciprocal_curvatures_from_width(body: SupportBody, u: Direction):
    """w(theta) + w''(theta), which equals 1/tau(u) + 1/tau(-u) (checked to 1e-10)."""
    if not isinstance(body, SupportBody):
        raise TypeError("closed-form width differentiation needs a SupportBody")
    th = u.theta
    val = 2.0 * body.a0
    for k, (a, b) in enumerate(body.coeffs, start=1):
        if k % 2 == 0:
            val += 2.0 * (1.0 - k * k) * (a * math.cos(k * th) + b * math.sin(k * th))
    target = 1.0 / curvature(body, u) + 1.0 / curvature(body, u.antipode())
    if abs(val - target) > 1e-10:
        raise AssertionError(f"width/curvature mismatch: {val} vs {target}")
    return val


CAP_PREFACTOR = 2.0 / 3.0  # omega_1 / (n^2 - 1) for n = 2, proof-consistent


@dataclass(frozen=True)
class CurvaturePair:
    """Unordered curvature pair {tau(u), tau(-u)} recovered from g_K near p."""

    low: float
    high: float
    direction: Direction
    fit_residual: float
    n_samples: int

    @property
    def values(self):
        return (self.low, self.high)


FIT_BOUNDARY_POINTS = 32768  # finer fan for cap sampling at depths down to 1e-4


def curvature_pair_from_covariogram(body, u: Direction, depth_range=(1e-4, 1e-2),
                                    depth_count=12, t_star=1e-3, q_count=9,
                                    residual_tol=0.25, disc_tol=5e-3):
    """Recover {tau(u), tau(-u)} from covariogram samples near the support point p.

    Stage one fits the depth law g = c (2t)^{3/2} / sqrt(D) at zero tangential
    offset on a geometric depth ladder (exponent 3/2 asserted, not fitted) to
    get D = tau(u) + tau(-u).  Stage two fixes t = t_star and fits g^{2/3}
    linearly against q^2 to get Q with Q*D = tau(u)*tau(-u).  The pair is the
    sorted root set of z^2 - D z + Q D; discriminants within disc_tol * D^2 of
    zero collapse to the equal pair (the noise floor of the pinned ladder).
    """
    if not isinstance(body, (SupportBody, Disk)):
        raise FitFailed("cap asymptotics require a smooth body")
    p = boundary_point(body, u) - boundary_point(body, u.antipode())
    uv, tan = u.u, u.perp

    sample = covariogram_evaluator(body, n=FIT_BOUNDARY_POINTS)
    depths = np.geomspace(depth_range[0], depth_range[1], depth_count)
    gvals = sample(p - depths[:, None] * uv)
    if np.any(gvals <= 0):
        raise FitFailed("covariogram vanished on the depth ladder")
    consts = np.log(gvals) - 1.5 * np.log(depths)
    c0 = float(np.mean(consts))
    resid = float(np.max(np.abs(consts - c0)))
    if resid > residual_tol:
        raise FitFailed(f"depth-law residual {resid:.3g} exceeds {residual_tol}")
    d_sum = 8.0 * CAP_PREFACTOR ** 2 / math.exp(2.0 * c0)
    q_max = 0.8 * math.sqrt(4.0 * t_star / d_sum)
    qs = np.linspace(-q_max, q_max, q_count)
    g2 = sample(p + qs[:, None] * tan - t_star * uv)
    if np.any(g2 <= 0):
        raise FitFailed("covariogram vanished on the tangential stencil")
    y = g2 ** (2.0 / 3.0)
    design = np.stack([np.ones_like(qs), qs * qs], axis=1)
    (b0, b1), *_ = np.linalg.lstsq(design, y, rcond=None)
    if b0 <= 0:
        raise FitFailed("degenerate tangential fit")
    q_curv = -b1 * (2.0 * t_star) / b0
    disc = d_sum * d_sum - 4.0 * q_curv * d_sum
    if disc < -disc_tol * d_sum * d_sum:
        raise FitFailed(f"negative discriminant {disc:.3g} beyond tolerance")
    if abs(disc) <= disc_tol * d_sum * d_sum:
        disc = 0.0
    root = math.sqrt(disc)
    low, high = 0.5 * (d_sum - root), 0.5 * (d_sum + root)
    if low <= 0:
        raise FitFailed("non-positive curvature root")
    return CurvaturePair(low, high, u, resid, depth_count + q_count)
