"""Fourier-Laplace transform along complex rays and its zero branches."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from covario._quadrature import gauss_legendre, panel_table
from covario.geometry import (
    Direction,
    Polygon,
    area,
    curvature,
    reflect,
    sorted_distinct,
    support,
    width,
)
from covario.radon import chord_autocorrelation_batch, chord_function

IM_CAP_FACTOR = 12.0
OSC_BUDGET = 40.0
CONTOUR_START = 10
MAX_REFINE_ROUNDS = 12
KERNEL_BLOCK = 2 ** 16   # largest node-zeta product count of one exponential block
NODE_CHUNK = 2 ** 13     # nodes per dot product, too few for OpenBLAS to split across threads
NEWTON_MAX_ITER = 50     # _newton's steps
REFLECTION_SAMPLES = 50  # random (ray, zeta) draws of verify_reflection_identity
REFLECTION_TOL = 1e-9    # its deviation bound, relative to area * exp(|Im zeta| h)
FACTORIZATION_TOL = 1e-6  # verify_factorization's deviation bound, relative to area^2
MAX_NODES = 2 ** 20      # a boundary rule that needs more nodes raises PrecisionLoss
SERIES_RADIUS = 0.5      # |zeta| w/2 at or below which the transform is its moment series
SERIES_TERMS = 16        # terms of that series: 0.5^16/17! < 1e-19
SWEEP_MARGIN = 10.0      # least reach of a sweep's contexts past the farthest predicted center


class PrecisionLoss(Exception):
    """Raised when zeta leaves the box a context is certified on."""


class NewtonDiverged(Exception):
    """Raised when complex Newton fails to converge."""


class ValidationFailed(Exception):
    """Raised when a located zero fails argument-principle validation."""


def fourier_sum(rows, nodes, zetas):
    """sum_j rows[..., j] exp(i t_j zeta) for each zeta, t = nodes.

    rows has shape (..., n); the result has shape rows.shape[:-1] + zetas.shape.
    The exponentials are built for at most KERNEL_BLOCK node-zeta products at
    a time.  Each value is np.vecdot(conj(row), exp(i zeta t)) summed over
    NODE_CHUNK nodes at a time, in order, so its bits follow neither the BLAS
    thread count nor the other zetas of the call.
    """
    zetas = np.asarray(zetas, dtype=complex)
    flat, conj = 1j * zetas.reshape(-1), np.conj(rows)[..., None, :]
    out, step = np.zeros(rows.shape[:-1] + flat.shape, complex), max(1, KERNEL_BLOCK // nodes.size)
    for i in range(0, flat.size, step):
        exp = np.exp(flat[i:i + step, None] * nodes)
        for j in range(0, nodes.size, NODE_CHUNK):
            out[..., i:i + step] += np.vecdot(conj[..., j:j + NODE_CHUNK], exp[:, j:j + NODE_CHUNK])
    return out.reshape(rows.shape[:-1] + zetas.shape)


def derivative_rows(nodes, amplitudes, order):
    """Rows (a, i t a, ..., (i t)^order a): their fourier_sum is the sum with
    amplitudes a and its first order zeta-derivatives."""
    rows, step = [np.asarray(amplitudes, dtype=complex)], 1j * nodes
    for _ in range(order):
        rows.append(step * rows[-1])
    return np.stack(rows)


def _as_parts(rows, nodes, *arrays):
    """(rows, nodes, arrays, shape): rows and nodes as lists of D sums (one
    if single arrays), and the arrays broadcast to shape, then cut into D
    rows, one per sum."""
    arrays = np.broadcast_arrays(*arrays)
    if isinstance(nodes, np.ndarray):
        rows, nodes = [rows], [nodes]
    return rows, nodes, [a.reshape(len(nodes), -1) for a in arrays], arrays[0].shape


def _part_sums(rows, nodes, z, part):
    """fourier_sum(rows[d], nodes[d], z[i]) at each point z[i], d = part[i]."""
    if len(nodes) == 1:
        return fourier_sum(rows[0], nodes[0], z)
    out = np.empty(rows[0].shape[:-1] + z.shape, complex)
    for d in sorted_distinct(part):
        at = part == d
        out[..., at] = fourier_sum(rows[d], nodes[d], z[at])
    return out


@dataclass(frozen=True)
class Expansion:
    """Taylor polynomials of f = sum_j a_j exp(i t_j zeta) about an array of centers.

    a = rows[0], t = nodes, and rows[1] = i t a gives f'; or rows and nodes
    are lists of D sums, whose centers are the D rows of centers, with one
    radius or one each.  coeffs[k, 0] holds f^(k)(c)/k! at each center c,
    from one fourier_sum of derivative_rows(t, a, K) per sum, and
    coeffs[k, 1] = (k + 1) coeffs[k + 1, 0] those of f'.  For
    |t_j d| <= rho the tail of exp(i t_j d) past its term of order K - 1,
    which f' takes, is at most rho^K e^rho/K!, and bounds the tail past
    order K, which f takes; K is the least order that puts it below eps/4
    over the reach rho = max |t_j| radius, padded with zero coefficients
    to the highest K of the sums.  Called at points z and their centers'
    flat indices, it returns (f, f') by Horner's rule about each point's
    center; a point farther than radius from it is summed directly.
    """

    rows: list = field(repr=False)
    nodes: list = field(repr=False)
    centers: np.ndarray
    part: np.ndarray = field(repr=False)
    radius: np.ndarray
    coeffs: np.ndarray = field(repr=False)

    @classmethod
    def about(cls, rows, nodes, centers, radius):
        rows, nodes, (centers,), _ = _as_parts(rows, nodes, np.asarray(centers, dtype=complex))
        radius, eps, blocks = np.broadcast_to(radius, len(nodes)), np.finfo(float).eps, []
        for a, t, c, r in zip(rows, nodes, centers, radius):
            reach = float(np.max(np.abs(t), initial=0.0)) * r
            order, tail = 0, math.exp(reach)
            while tail >= 0.25 * eps:
                order += 1
                tail *= reach / order
            factorials = np.cumprod(np.maximum(np.arange(order + 1.0), 1.0))[:, None]
            block = np.zeros((order + 1, 2, c.size), complex)
            block[:, 0] = fourier_sum(derivative_rows(t, a[0], order), t, c) / factorials
            block[:-1, 1] = np.arange(1.0, order + 1.0)[:, None] * block[1:, 0]
            blocks.append(block)
        top = max(b.shape[0] for b in blocks)
        coeffs = np.concatenate([np.pad(b, ((0, top - b.shape[0]), (0, 0), (0, 0)))
                                 for b in blocks], axis=2)
        part = np.repeat(np.arange(len(nodes)), centers.shape[1])
        return cls([a[:2] for a in rows], nodes, centers.ravel(), part, radius[part], coeffs)

    @property
    def order(self):
        return self.coeffs.shape[0] - 1

    def __call__(self, z, owner):
        """(f, f') at the points z, shape (2, z.size): Horner's rule in
        z - centers[owner], owner[i] the center of point i, where that is
        at most its radius, and a direct sum elsewhere."""
        z = np.asarray(z, dtype=complex).reshape(-1)
        d = z - self.centers[owner]
        near = np.abs(d) <= self.radius[owner]
        x, own = d[near], owner[near]
        value = self.coeffs[-1].take(own, axis=1)
        for k in range(self.order - 1, -1, -1):
            value *= x
            value += self.coeffs[k].take(own, axis=1)
        out = np.empty((2, z.size), complex)
        out[:, near] = value
        if not near.all():
            far = ~near
            out[:, far] = _part_sums(self.rows, self.nodes, z[far], self.part[owner[far]])
        return out


@dataclass(frozen=True)
class RayTransformContext:
    """Boundary rule for zeta -> integral over the body of exp(i zeta <x, u>) dx.

    By the divergence theorem with the field u (exp(i zeta <x, u>) - 1)/(i zeta)
    the transform is the boundary integral of (exp(i zeta s) - 1)/(i zeta) <n, u>,
    s = <p, u> at the boundary point p with outer normal n.  The rule stores
    the centred sum: nodes t_j = s_j - c about the support midpoint c = mid,
    and amplitudes a_j = <n_j, u> ds_j, which sum to 0, so H = exp(-i c zeta) F
    is G_c/(i zeta), G_c the fourier_sum of rows[0] = a; rows[1] = i t a
    gives G_c'.  _boundary_rule sizes it for the box |Re zeta| <= max_abs_zeta,
    |Im zeta| <= im_cap.  Where |zeta| (hi - lo)/2 <= SERIES_RADIUS, H is the
    series sum_n moments[n] (i zeta)^n, moments[n] = sum_j a_j t_j^(n+1)/(n+1)!,
    where G_c/(i zeta) would cancel.
    """

    body: object
    u: Direction
    max_abs_zeta: float
    im_cap: float
    lo: float
    hi: float
    mid: float
    nodes: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)
    moments: np.ndarray = field(repr=False)

    @property
    def body_width(self):
        return self.hi - self.lo


def _boundary_rule(body, u, zeta_max, w):
    """(sizes, rule): the node counts, as floats, of the boundary rule for the
    box |Re zeta| <= zeta_max, |Im zeta| <= IM_CAP_FACTOR/w, w the
    width along u, and its builder of nodes <p_j, u> and amplitudes <n_j, u> ds_j.

    Each size is the least at which an error bound, minimised over a grid of a,
    keeps F = exp(i c zeta) G_c/(i zeta) within eps area exp(|Im zeta| w/2) for
    |zeta| > 1/w.  That factor bounds each |exp(i zeta t_j)|, so the bound M
    takes only the growth off the real axis; over |zeta| >= max(x, 1/w) its
    part exp(x S) is convex in x = |Re zeta|, so growth takes it at an end.
    A smooth body gets the N-point trapezoid rule in the normal angle phi, of
    error at most 4 pi M/(exp(a N) - 1) for M on |Im phi| < a (Trefethen &
    Weideman, SIAM Rev. 56, 2014, Thm 3.2).  Harmonic k of h, of amplitude
    r_k, gives <p, u> amplitudes (1 + k) r_k/2 at frequency |k - 1| and
    |1 - k| r_k/2 at k + 1, and c0 gives c0 at 1; these tau_j bound Im <p, u>
    by S = sum tau_j sinh(j a) and Re <p, u> past its range by
    sum tau_j (cosh(j a) - 1), and |cos(phi - theta) rho| is at most
    cosh a (c0 + sum |1 - k^2| r_k cosh(k a)).  A polygon gets sizes[e]
    Gauss-Legendre points on edge e, of drop d, which err on exp(i zeta x d/2),
    x in [-1, 1], by at most 64 M/(15 (1 - rho^-2) rho^(2q)) for M on the
    Bernstein ellipse rho = e^a (Trefethen, ATAP, Thm 19.3, whose n is q - 1);
    each edge meets eps area/sum |flux| at an even order, so that a cold run
    builds half the tables.  An order past sqrt(MAX_NODES), whose q x q matrix
    gauss_legendre builds, counts as infinitely many nodes.
    """
    a, log_tol = np.exp(np.arange(-7.0, 2.8, 0.04)), math.log(np.finfo(float).eps * area(body))

    def growth(s, r):  # log of the largest exp(x s + |Im zeta| r)/max(x, 1/w) on the box
        return IM_CAP_FACTOR / w * r + np.maximum(math.log(w) + min(zeta_max, 1.0 / w) * s,
                                                  zeta_max * s - math.log(max(zeta_max, 1.0 / w)))

    if isinstance(body, Polygon):
        edge = np.roll(body.vertices, -1, axis=0) - body.vertices
        start, drop, flux = body.vertices @ u.u, edge @ u.u, 0.5 * (edge @ u.perp)
        half = 0.5 * np.abs(drop)[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            log_err = (math.log(64.0 / 15.0 * np.abs(flux).sum()) - np.log1p(-np.exp(-2.0 * a))
                       + growth(half * np.sinh(a), half * (np.cosh(a) - 1.0)))
            q = 2.0 * np.ceil(np.min((log_err - log_tol) / (4.0 * a), axis=1))
            sizes = np.where(q * q > MAX_NODES, np.inf, q)

        def rule(sizes):
            x, weight = map(np.concatenate, zip(*[gauss_legendre(int(q)) for q in sizes]))
            return (np.repeat(start, sizes) + 0.5 * (x + 1.0) * np.repeat(drop, sizes),
                    np.repeat(flux, sizes) * weight)

        return sizes, rule
    series = body.series
    r, k = np.hypot(series.a, series.b), series.k
    ja = np.outer(a, np.concatenate([[1.0], np.abs(k - 1.0), k + 1.0]))
    tau = np.concatenate([[series.c0], 0.5 * (1.0 + k) * r, 0.5 * np.abs(1.0 - k) * r])
    with np.errstate(over="ignore", invalid="ignore"):
        amp = np.cosh(a) * (series.c0 + np.cosh(np.outer(a, k)) @ (np.abs(1.0 - k * k) * r))
        log_err = (math.log(4.0 * math.pi) + np.log(amp)
                   + growth(np.sinh(ja) @ tau, (np.cosh(ja) - 1.0) @ tau))
        sizes = np.ceil(np.min(np.logaddexp(0.0, log_err - log_tol) / a))

    def rule(n):
        phi = np.arange(n) * (2.0 * math.pi / n)
        return (series.offsets(phi, u.theta)[0] + np.dot(body.center, u.u),
                (2.0 * math.pi / n) * np.cos(phi - u.theta) * series.terms(phi)[2])

    return sizes, rule


def build_context(body, u: Direction, max_abs_zeta=200.0):
    """The boundary rule built once at _boundary_rule's sizes, or PrecisionLoss past MAX_NODES."""
    lo, hi = -support(body, u.antipode()), support(body, u)
    mid = 0.5 * (lo + hi)
    sizes, rule = _boundary_rule(body, u, max_abs_zeta, hi - lo)
    if not np.sum(sizes) <= MAX_NODES:
        raise PrecisionLoss(f"boundary rule needs more than {MAX_NODES} nodes "
                            f"for |Re zeta| <= {max_abs_zeta:.3g}")
    nodes, amps = rule(sizes.astype(int))
    t = nodes - mid
    powers = np.cumprod(np.broadcast_to(t, (SERIES_TERMS, t.size)), axis=0)
    moments = (powers @ amps) / np.cumprod(np.arange(1.0, SERIES_TERMS + 1.0))
    return RayTransformContext(body, u, max_abs_zeta, IM_CAP_FACTOR / (hi - lo), lo, hi, mid, t,
                               derivative_rows(t, amps, 1), moments)


def _check_zeta(ctx, zeta):
    """zeta as a complex array; PrecisionLoss if it leaves the certified box,
    whose im_cap and max_abs_zeta may be arrays that broadcast against zeta,
    one box per point."""
    z = np.asarray(zeta, dtype=complex)
    for part, bound, what in ((z.imag, ctx.im_cap, "|Im zeta| exceeds cap"),
                              (z.real, ctx.max_abs_zeta, "|Re zeta| exceeds the certified bound")):
        out = np.abs(part) > bound * (1.0 + 1e-12)
        if np.count_nonzero(out):
            raise PrecisionLoss(f"{what} {np.broadcast_to(bound, out.shape)[out][0]:.3g}")
    return z


@dataclass(frozen=True)
class _Boxes:
    """The box (im_cap, max_abs_zeta), body_width, mid and moments of each
    point's context in a pass over several, one entry (moments column) each."""

    im_cap: np.ndarray
    max_abs_zeta: np.ndarray
    body_width: np.ndarray
    mid: np.ndarray
    moments: np.ndarray

    @classmethod
    def of(cls, contexts, per):
        """Each context's fields, repeated for its per points."""
        def each(name):
            return np.repeat([getattr(c, name) for c in contexts], per)

        return cls(*map(each, ("im_cap", "max_abs_zeta", "body_width", "mid")),
                   np.repeat(np.stack([c.moments for c in contexts], axis=1), per, axis=1))

    def __getitem__(self, k):
        return _Boxes(self.im_cap[k], self.max_abs_zeta[k], self.body_width[k], self.mid[k],
                      self.moments[:, k])


def _centred_transform(ctx, zetas, order, sums=None):
    """(H,) for order 0, (H, H') for order 1, at each zeta, H = exp(-i c zeta) F:
    G_c/(i zeta) and (-i G_c' - H)/zeta from one fourier_sum, or from
    sums(zetas) = (G_c, G_c') at a 1-d array when an Expansion of G_c is
    passed, or the moment series where |zeta| w/2 <= SERIES_RADIUS; ctx may
    be the _Boxes of the zetas."""
    z = _check_zeta(ctx, zetas)
    near = np.abs(z) * (0.5 * ctx.body_width) <= SERIES_RADIUS
    any_near = np.count_nonzero(near)
    far = np.where(near, 1.0, z) if any_near else z
    g = fourier_sum(ctx.rows[:order + 1], ctx.nodes, z) if sums is None else sums(z)
    h = g[0] / (1j * far)
    out = (h, (-1j * g[1] - h) / far) if order else (h,)
    if not any_near:
        return out
    w, m = 1j * z, ctx.moments
    dm = (m[1:].T * np.arange(1.0, len(m))).T  # H' series
    series = (np.polyval(m[::-1], w), 1j * np.polyval(dm[::-1], w))
    return tuple(np.where(near, v_near, v) for v_near, v in zip(series, out))


def _transform(ctx, zetas, order):
    """(F,) or (F, F'): exp(i c zeta) times _centred_transform's (H,) or (H, H')."""
    out = _centred_transform(ctx, zetas, order)
    turn = np.exp(1j * ctx.mid * np.asarray(zetas, dtype=complex))
    f = turn * out[0]
    return (f, turn * out[1] + 1j * ctx.mid * f) if order else (f,)


def flt_ray(ctx, zeta):
    """Transform value at complex zeta; equals area(K) at zeta = 0."""
    return complex(_transform(ctx, zeta, 0)[0])


def flt_ray_derivative(ctx, zeta):
    """d/dzeta of the ray transform, from one fourier_sum."""
    return complex(_transform(ctx, zeta, 1)[1])


def flt_ray_many(ctx, zetas):
    """Vectorized transform values for an array of complex zetas."""
    return _transform(ctx, zetas, 0)[0]


def kobayashi_center(body, m, u: Direction):
    """Predicted centers of the m-th zero branches, m an int or an int array.

    pi (4m + 1) / (2 w_K(u)) + i (ln tau(-u) - ln tau(u)) / (2 w_K(u)).
    """
    w = width(body, u)
    im = (math.log(curvature(body, u.antipode())) - math.log(curvature(body, u))) / (2.0 * w)
    return math.pi * (4 * np.asarray(m) + 1) / (2.0 * w) + 1j * im


@dataclass(frozen=True)
class ZeroBranch:
    """One located zero of the ray transform with its validation status."""

    m: int
    u: Direction
    zeta: complex
    residual: float
    validated: bool
    predicted_center: complex

    @property
    def deviation(self):
        return abs(self.zeta - self.predicted_center)


def _contour_offsets(half_re, half_im):
    """contour_winding's start points about center 0, one row per rectangle
    +- half_re +- i half_im: CONTOUR_START equispaced points per side of the
    unit square, counterclockwise from its upper right corner, and that
    corner again, scaled by half_re and half_im."""
    corners = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j])
    frac = np.arange(CONTOUR_START) / CONTOUR_START
    unit = np.append((corners[:-1, None] + (corners[1:] - corners[:-1])[:, None] * frac).ravel(),
                     corners[-1])
    return (np.multiply.outer(half_re, unit.real)
            + 1j * np.multiply.outer(half_im, unit.imag))


def _raise_first(kind, bad, message):
    """Raise kind(message(k)) with index k, the first point, start or contour
    of an array pass where bad holds."""
    if np.any(bad):
        exc = kind(message(k := int(np.argmax(bad))))
        exc.index = k
        raise exc


def contour_winding(rows, nodes, center, half_re, half_im, sums=None):
    """Zeros of f = sum_j a_j exp(i t_j zeta) inside center +- half_re +- i half_im.

    a = rows[0] and t = nodes; rows[1] = i t a gives f'.  center, half_re
    and half_im may be arrays that broadcast, one rectangle per element;
    the counts have their shape.  rows and nodes may be lists of D sums,
    whose rectangles are the D rows of the broadcast arrays.  The argument
    of f is summed from the points center + _contour_offsets(half_re,
    half_im), refined by bisection; all contours are refined in one flat
    array tagged by contour.  (f, f') come from sums, an Expansion of f
    with one center per contour, each point expanded about its contour's
    center, or without one from fourier_sum.  On a rectangle about
    y_c = Im center each |exp(i t_j zeta)| is at most
    e_j = exp(|t_j| half_im - t_j y_c), so |f''| <= M2 = sum_j |a_j| t_j^2 e_j,
    and a step of length h with |f| - |f'| h > M2 h^2/2 at one of its ends
    keeps f in a disc about that end's value that excludes 0: its principal
    argument is exact (Ying & Katz, Numer. Math. 53, 1988).  Every other
    step is bisected, for at most MAX_REFINE_ROUNDS rounds.  A value that is
    0, not finite, or at most 64 eps sum_j |a_j| e_j, where rounding hides
    it, raises ValidationFailed, whose index names the contour.
    """
    rows, nodes, rects, shape = _as_parts(rows, nodes, center, half_re, half_im)
    rows, (center, half_re, half_im) = [a[:2] for a in rows], rects
    offsets, contours = _contour_offsets(half_re, half_im), np.arange(center.size)
    z, tag = (center[..., None] + offsets).ravel(), np.repeat(contours, offsets.shape[-1])
    part = contours // center.shape[1]

    def values(p, tag):
        return _part_sums(rows, nodes, p, part[tag]) if sums is None else sums(p, tag)

    vals = values(z, tag)
    floor, half_m2 = np.empty((2, center.size))
    for a, t, at in zip(rows, nodes, np.split(contours, len(nodes))):
        grow = np.abs(a[0]) * np.exp(np.outer(half_im.flat[at], np.abs(t))
                                     - np.outer(center.flat[at].imag, t))
        floor[at], half_m2[at] = 64.0 * np.finfo(float).eps * grow.sum(axis=1), 0.5 * grow @ (t * t)
    for rounds in range(MAX_REFINE_ROUNDS + 1):
        size, slope = np.abs(vals)
        bad = ~(np.isfinite(vals).all(axis=0) & (size > floor[tag]))
        _raise_first(ValidationFailed, np.isin(contours, tag[bad]),
                     lambda k: "sum vanishes or is not finite on the validation contour")
        step = np.flatnonzero(tag[1:] == tag[:-1])
        h = np.abs(z[step + 1] - z[step])
        margin = np.maximum(size[step] - slope[step] * h, size[step + 1] - slope[step + 1] * h)
        coarse = step[margin <= half_m2[tag[step]] * h * h]
        if coarse.size == 0:
            break
        if rounds == MAX_REFINE_ROUNDS:
            _raise_first(ValidationFailed, np.isin(contours, tag[coarse]),
                         lambda k: f"contour unresolved after {MAX_REFINE_ROUNDS} refinement rounds")
        mid = 0.5 * (z[coarse] + z[coarse + 1])
        vals = np.insert(vals, coarse + 1, values(mid, tag[coarse]), axis=1)
        z, tag = np.insert(z, coarse + 1, mid), np.insert(tag, coarse + 1, tag[coarse])
    turns = np.bincount(tag[step], np.angle(vals[0, step + 1] / vals[0, step]), center.size)
    counts = np.rint(turns / (2.0 * math.pi)).astype(int).reshape(shape)
    return counts if counts.ndim else int(counts)


def winding_number(ctx, center, half_re, half_im, sums=None):
    """Zeros of the transform inside each rectangle center +- half_re +- i half_im.

    contour_winding counts them on the context's centred sum
    G_c(zeta) = i zeta exp(-i c zeta) F(zeta), which does not turn as the
    body moves, so the contour's step count does not grow with translation;
    sums, an Expansion of G_c with one center per rectangle, is passed on.
    ctx may be a list of D contexts, whose rectangles are then the D rows
    of center, half_re and half_im.  G_c has one zero more than F, at
    zeta = 0, taken off where the rectangle contains it.  A rectangle
    leaving its context's box raises PrecisionLoss.
    """
    contexts = [ctx] if isinstance(ctx, RayTransformContext) else ctx
    rows, nodes, (centers, half_re, half_im), shape = _as_parts(
        [c.rows for c in contexts], [c.nodes for c in contexts],
        np.asarray(center, dtype=complex), half_re, half_im)
    for c, cen, h_re, h_im in zip(contexts, centers, half_re, half_im):
        _check_zeta(c, cen[:, None] + _contour_offsets(h_re, h_im))
    wind = contour_winding(rows, nodes, centers, half_re, half_im, sums)
    wind -= (np.abs(centers.real) < half_re) & (np.abs(centers.imag) < half_im)
    return wind.reshape(shape) if shape else int(wind[0, 0])


def _newton(values, z, inside):
    """Damped complex Newton on f from each start in the array z; values(p, k)
    is (f, f') at an array of points p, k[i] the index of the start p[i]
    comes from, and inside(p) the box test.

    Each start's step f/f' is halved while it leaves the box or fails to
    lower |f|, and taken once halved below 1e-6; the start stops at
    |dz| <= 1e-12 (1 + |z|).  Each round makes one values call, on the
    candidates of the starts still moving.  No point is evaluated twice: a
    candidate equal to z, or a sub-tolerance one that fails to lower |f|,
    stops the start at z.  A zero f', a non-finite f or f', 30 halvings of a
    step, or NEWTON_MAX_ITER steps raise NewtonDiverged, whose index names
    the start.  Returns the zeros and their (f, f').
    """
    z = np.array(z, dtype=complex)
    f, df = (np.array(v, dtype=complex) for v in values(z, np.arange(z.size)))
    step, lam, (halvings, steps) = np.zeros_like(z), np.ones(z.size), np.zeros((2, z.size), int)
    moving, fresh = np.ones(z.size, bool), np.ones(z.size, bool)
    while True:
        _raise_first(NewtonDiverged, fresh & ((df == 0) | ~(np.isfinite(f) & np.isfinite(df))),
                     lambda k: f"zero derivative or non-finite value at {z[k]}")
        step[fresh], lam[fresh], halvings[fresh] = f[fresh] / df[fresh], 1.0, 0
        while True:
            _raise_first(NewtonDiverged, moving & (halvings == 30),
                         lambda k: f"damping failed near {z[k]}")
            cand = z - lam * step
            moving &= cand != z
            out = moving & ~inside(cand)
            if not out.any():
                break
            lam[out], halvings[out] = 0.5 * lam[out], halvings[out] + 1
        tried = np.flatnonzero(moving)
        if tried.size == 0:
            return z, (f, df)
        f_cand, df_cand = values(cand[tried], tried)
        small = np.abs(cand[tried] - z[tried]) <= 1e-12 * (1.0 + np.abs(cand[tried]))
        take = (np.abs(f_cand) < np.abs(f[tried])) | (lam[tried] < 1e-6)
        go, lost = tried[take], tried[~take & ~small]
        z[go], f[go], df[go], steps[go] = cand[go], f_cand[take], df_cand[take], steps[go] + 1
        lam[lost], halvings[lost] = 0.5 * lam[lost], halvings[lost] + 1
        moving[tried[small]] = False
        fresh = np.zeros(z.size, bool)
        fresh[go] = moving[go]
        _raise_first(NewtonDiverged, fresh & (steps == NEWTON_MAX_ITER),
                     lambda k: f"no convergence after {NEWTON_MAX_ITER} iterations")


def _branch_radius(w):
    """How far from its Newton start _track evaluates a branch of a body of
    width w: pi/w, past which the zero fails its check, plus the
    half-diagonal of its validation rectangle (pi/(2w), 0.5/w).  Its reach
    w/2 times this is 2.40 for every body, so a branch's Expansion has
    order 27."""
    return math.pi / w + math.hypot(0.5 * math.pi / w, 0.5 / w)


def _track(contexts, m_list, starts=None):
    """The branches m_list of every context in one array pass, from starts[d][i]
    for branch m_list[i] of contexts[d], by default its kobayashi_center: one
    _newton on H = exp(-i c zeta) F, which has F's zeros but does not turn
    as the body moves, then one residual, one pi/w and one winding_number
    check for all of them.  One Expansion of the contexts' centred sums G_c
    about the starts, of radius _branch_radius, gives every Newton and
    contour value, each point expanded about its own start.  Each point
    reads only its own context's _Boxes entry, so no branch depends on the
    other contexts.  Returns a list of branches per context; a failure
    names its m and direction."""
    m_list = list(m_list)
    shape = (len(contexts), len(m_list))
    if starts is None:
        starts = [kobayashi_center(c.body, np.asarray(m_list), c.u) for c in contexts]
    boxes = _Boxes.of(contexts, shape[1])
    starts = _check_zeta(boxes, np.reshape(starts, -1))
    sums = Expansion.about([c.rows for c in contexts], [c.nodes for c in contexts],
                           starts.reshape(shape), [_branch_radius(c.body_width) for c in contexts])

    def values(p, k):
        return _centred_transform(boxes[k], p, 1, partial(sums, owner=k))

    def inside(p):
        return (np.abs(p.imag) <= boxes.im_cap) & (np.abs(p.real) <= boxes.max_abs_zeta)

    w = boxes.body_width
    try:
        z, (h, dh) = _newton(values, starts, inside)
        _raise_first(NewtonDiverged, np.abs(h) > 1e-9 * np.abs(dh),
                     lambda k: f"residual {abs(h[k]):.3e} above 1e-9 * {abs(dh[k]):.3e}")
        _raise_first(ValidationFailed, np.abs(z - starts) >= math.pi / w,
                     lambda k: f"zero {z[k]:.6g} lies pi/w or more from its start {starts[k]:.6g}")
        rects = (a.reshape(shape) for a in (z, math.pi / (2.0 * w), 0.5 / w))
        wind = winding_number(contexts, *rects, sums).ravel()
        _raise_first(ValidationFailed, wind != 1, lambda k: f"winding {wind[k]} != 1")
    except (NewtonDiverged, ValidationFailed) as exc:
        d, i = divmod(getattr(exc, "index", 0), shape[1])
        raise type(exc)(f"(m={m_list[i]}, theta={contexts[d].u.theta:.6f}): {exc}") from exc
    residual = np.abs(h) * np.exp(-boxes.mid * z.imag)  # |F| = |exp(i c zeta) H|
    return [[ZeroBranch(int(m), c.u, complex(zm), float(r), True, complex(s))
             for m, zm, r, s in zip(m_list, *per)]
            for c, *per in zip(contexts, *(a.reshape(shape) for a in (z, residual, starts)))]


def track_zero(ctx, m, start=None):
    """The m-th zero branch from start, by default its kobayashi_center: the
    one-branch case of track_branches.  Validation requires the zero to lie
    less than pi/w, half the spacing of neighbouring centers, from start, so
    that a branch cannot take another's zero, and winding number 1 on a
    rectangle of half-sides (pi/(2w), 0.5/w) about it."""
    start = kobayashi_center(ctx.body, m, ctx.u) if start is None else start
    return _track([ctx], [m], [start])[0][0]


def track_branches(ctx, m_list):
    """track_zero for every m on one context, from its kobayashi_center, in
    one array pass: the one-context case of _track; a failure names its m
    and direction."""
    return _track([ctx], m_list)[0]


def _multiple_zero(table, nodes, starts, im_cap):
    """The zeros reached from the array starts by _newton in the band
    |Im zeta| <= im_cap on f/f', which has simple zeros at zeros of f of any
    multiplicity.  f is the Fourier sum of table[0] on nodes; table holds
    the rows (a, i t a, (i t)^2 a) of derivative_rows, so one fourier_sum
    gives (f, f', f'') and with them (f/f', 1 - f f''/f'^2).
    """
    def values(z, _):
        f, df, d2f = fourier_sum(table, nodes, z)
        with np.errstate(divide="ignore", invalid="ignore"):  # f' = 0 is non-finite
            return f / df, 1.0 - (f / df) * d2f / df

    return _newton(values, starts, lambda p: np.abs(p.imag) <= im_cap)[0]


def sweep_bound(body, u_list, m_max):
    """max_abs_zeta for tracking branches up to m_max along u_list: the farthest
    predicted center plus SWEEP_MARGIN, or pi/w + 1 for the least width w if
    that is more, so that track_zero's validation contour, pi/(2w) either side
    of a zero, stays inside the box."""
    reach = math.pi / min(width(body, u) for u in u_list) + 1.0
    return (max(abs(kobayashi_center(body, m_max, u)) for u in u_list)
            + max(SWEEP_MARGIN, reach))


@dataclass(frozen=True)
class IdentityReport:
    max_deviation: float
    tolerance: float

    @property
    def passed(self):
        return self.max_deviation <= self.tolerance


def verify_reflection_identity(body, seed=0):
    """Check flt_{-K}(zeta) = conj(flt_K(conj zeta)) on random rays and zetas."""
    rng = np.random.default_rng(seed)
    refl = reflect(body)
    scale = area(body)
    worst = 0.0
    for _ in range(REFLECTION_SAMPLES):
        u = Direction(float(rng.uniform(0.0, 2.0 * math.pi)))
        ctx_k = build_context(body, u, max_abs_zeta=60.0)
        ctx_r = build_context(refl, u, max_abs_zeta=60.0)
        cap = 0.8 * min(ctx_k.im_cap, ctx_r.im_cap)
        z = complex(rng.uniform(-50.0, 50.0), rng.uniform(-cap, cap))
        growth = math.exp(abs(z.imag) * max(abs(ctx_k.lo), abs(ctx_k.hi)))
        dev = abs(flt_ray(ctx_r, z) - flt_ray(ctx_k, z.conjugate()).conjugate())
        worst = max(worst, dev / (scale * growth))
    return IdentityReport(worst, REFLECTION_TOL)


def autocorr_transform_table(body, u: Direction, max_freq):
    """Half-line table (nodes, amplitudes) for the transform of g_K on the ray u.

    The integrand is the chord autocorrelation C, which is even, so the table
    holds it on [0, w] only, cut at the positive differences of the chord's
    ends and breakpoints.  Mirrored to -t, its fourier_sum equals
    flt_ray(zeta) * conj(flt_ray(conj zeta)); on the real axis that is the
    cosine sum 2 sum_j a_j cos(t_j xi).
    """
    cf = chord_function(body, u)
    knots = np.concatenate([[cf.lo], np.asarray(cf.breakpoints), [cf.hi]])
    diffs = (knots[None, :] - knots[:, None]).ravel()
    nodes, weights = panel_table(0.0, cf.width, diffs, max_freq=max_freq, osc_budget=OSC_BUDGET)
    return nodes, weights * chord_autocorrelation_batch(body, u, nodes)


def _cosine_sum(nodes, amplitudes, xi_max, count):
    """2 sum_j a_j cos(t_j xi) at every xi of linspace(0, xi_max, count), by
    angle addition: with xi = (Q a + b) h, h the grid step and Q about
    sqrt(count), cos(t xi) = cos(t Q a h) cos(t b h) - sin(t Q a h) sin(t b h),
    so about 2 sqrt(count) rows of cosines and sines serve the whole grid.
    The products are summed as fourier_sum sums, by np.vecdot over at most
    NODE_CHUNK nodes at a time, so the bits do not follow the BLAS thread
    count; the node chunks keep each row block within KERNEL_BLOCK elements.
    """
    step = xi_max / (count - 1) if count > 1 else 0.0
    q = math.isqrt(count - 1) + 1
    fine, coarse = np.arange(q) * step, (np.arange(-(-count // q)) * q) * step
    out = np.zeros((coarse.size, q))
    chunk = min(NODE_CHUNK, max(1, KERNEL_BLOCK // (fine.size + coarse.size)))
    for j in range(0, nodes.size, chunk):
        t, a = nodes[j:j + chunk], amplitudes[j:j + chunk]
        big, small = np.outer(coarse, t), np.outer(fine, t)
        out += np.vecdot((a * np.cos(big))[:, None], np.cos(small))
        out -= np.vecdot((a * np.sin(big))[:, None], np.sin(small))
    return 2.0 * out.ravel()[:count]


def verify_factorization(body, u: Direction, xi_max, count):
    """Check FT(autocorrelation)(xi) = |flt_ray(xi)|^2 at every xi of
    linspace(0, xi_max, count).

    The two sides are independent formulations: the left one is the
    _cosine_sum of the half-line autocorrelation table; the right one sums the
    boundary rule of build_context, which never evaluates a chord.
    """
    nodes, amplitudes = autocorr_transform_table(body, u, xi_max)
    lhs = _cosine_sum(nodes, amplitudes, xi_max, count)
    ctx = build_context(body, u, max_abs_zeta=xi_max)
    rhs = np.abs(flt_ray_many(ctx, np.linspace(0.0, xi_max, count))) ** 2
    dev = float(np.abs(lhs - rhs).max())
    scale = area(body) ** 2
    return IdentityReport(dev / scale, FACTORIZATION_TOL)
