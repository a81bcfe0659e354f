"""Fourier-Laplace transform along complex rays and its zero branches."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from covario._quadrature import gauss_legendre, panel_table
from covario.geometry import Direction, Disk, Harmonics, Polygon, area, curvature, support, width
from covario.radon import chord_autocorrelation_batch, chord_function

IM_CAP_FACTOR = 12.0
OSC_BUDGET = 40.0
CONTOUR_START = 8
MAX_ARG_STEP = math.pi / 4.0
MAX_REFINE_ROUNDS = 12
KERNEL_BLOCK = 2 ** 16   # largest node-zeta product count of one exponential block
NEWTON_MAX_ITER = 50     # _newton's steps
REFLECTION_SAMPLES = 50  # random (ray, zeta) draws of verify_reflection_identity
REFLECTION_TOL = 1e-9    # its deviation bound, relative to area * exp(|Im zeta| h)
FACTORIZATION_TOL = 1e-6  # verify_factorization's deviation bound, relative to area^2
GAP_TOL = 1e-12          # largest N vs 5N/4 gap of a rule, relative to area * exp(IM_CAP_FACTOR/2)
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
    """rows @ exp(i outer(nodes, zetas)): sum_j rows[..., j] exp(i t_j zeta) for each zeta.

    rows has shape (..., n) for the n nodes t_j; the result has shape
    rows.shape[:-1] + zetas.shape.  The exponentials are built for at most
    KERNEL_BLOCK node-zeta products at a time, so memory stays bounded.
    """
    zetas = np.asarray(zetas, dtype=complex)
    flat = 1j * zetas.reshape(-1)
    step = max(1, KERNEL_BLOCK // nodes.size)
    blocks = [rows @ np.exp(nodes[:, None] * flat[i:i + step])
              for i in range(0, max(flat.size, 1), step)]
    out = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=-1)
    return out.reshape(rows.shape[:-1] + zetas.shape)


def derivative_rows(nodes, amplitudes, order):
    """Rows (a, i t a, ..., (i t)^order a): their fourier_sum is the sum with
    amplitudes a and its first order zeta-derivatives."""
    rows = [np.asarray(amplitudes, dtype=complex)]
    for _ in range(order):
        rows.append(1j * nodes * rows[-1])
    return np.stack(rows)


@dataclass(frozen=True)
class RayTransformContext:
    """Boundary rule for zeta -> integral over the body of exp(i zeta <x, u>) dx.

    By the divergence theorem with the field u (exp(i zeta <x, u>) - 1)/(i zeta)
    the transform is the boundary integral of (exp(i zeta s) - 1)/(i zeta) <n, u>,
    s = <p, u> at the boundary point p with outer normal n.  The rule's nodes
    are the s_j and its amplitudes a_j = <n_j, u> ds_j sum to 0, so
    F = G/(i zeta) with G the fourier_sum of rows[0] = a; rows[1] = i s a gives
    G'.  The rule is certified on the box |Re zeta| <= max_abs_zeta,
    |Im zeta| <= im_cap: quadrature_gap is its largest difference at the box's
    corners from the previous rule of its growth sequence, which has about
    4/5 of its nodes.  Where |zeta| (hi - lo)/2 <= SERIES_RADIUS the transform
    is the series exp(i zeta c) sum_n moments[n] (i zeta)^n about the midpoint
    c, with moments[n] = sum_j a_j (s_j - c)^(n + 1)/(n + 1)!, where G/(i zeta)
    would cancel.  contour_tables holds the lazily built tables of
    _contour_start, one per rectangle shape.
    """

    body: object
    u: Direction
    max_abs_zeta: float
    im_cap: float
    lo: float
    hi: float
    nodes: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)
    moments: np.ndarray = field(repr=False)
    quadrature_gap: float
    contour_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def body_width(self):
        return self.hi - self.lo


def _series(body):
    """(Harmonics, center) of a smooth body; a disk is the series c0 = r."""
    if isinstance(body, Disk):
        empty = np.zeros(0)
        return Harmonics(body.radius, empty, empty, empty), body.center
    return body.series, body.center


def _rule_sizes(body, u, max_abs_zeta):
    """Starting node counts: N for a smooth body, a Gauss-Legendre order per polygon edge.

    exp(i zeta s(phi)) turns at most |zeta| max rho per unit of phi, so the
    trapezoid rule needs N a little above max_abs_zeta max rho plus the top
    harmonic; on an edge along which s changes by d the Gauss-Legendre order
    needs a little over |zeta d|/4 points, rounded up to a multiple of 8 so that
    few orders are ever computed.
    """
    if isinstance(body, Polygon):
        drop = (np.roll(body.vertices, -1, axis=0) - body.vertices) @ u.u
        return 8 * (np.ceil(max_abs_zeta * np.abs(drop) / 24.0).astype(int) + 1)
    series = _series(body)[0]
    # rho = c0 + sum_k (1 - k^2)(a_k cos k phi + b_k sin k phi)
    rho_max = series.c0 + float(np.abs(1.0 - series.k ** 2) @ np.hypot(series.a, series.b))
    top = int(series.k.max()) if series.k.size else 0
    return math.ceil(1.1 * max_abs_zeta * rho_max) + 24 + 6 * (top + 1)


def _grow(sizes):
    """The next rule of the growth sequence: ceil(5 N/4) trapezoid nodes, or
    ceil(5 q/4) Gauss-Legendre points on each polygon edge."""
    return -(-5 * sizes // 4)


def _boundary_rule(body, u, sizes):
    """Nodes s_j = <p_j, u> and amplitudes a_j = <n_j, u> ds_j of the boundary rule.

    A smooth body gets the N-point trapezoid rule in the normal angle phi,
    with ds = rho dphi; a polygon gets sizes[e] Gauss-Legendre points in arc
    length on edge e.
    """
    if isinstance(body, Polygon):
        v = body.vertices
        edge = np.roll(v, -1, axis=0) - v
        start, drop, flux = v @ u.u, edge @ u.u, 0.5 * (edge @ u.perp)
        rules = [gauss_legendre(int(q)) for q in sizes]
        return (np.concatenate([s + 0.5 * (x + 1.0) * d
                                for s, d, (x, _) in zip(start, drop, rules)]),
                np.concatenate([f * w for f, (_, w) in zip(flux, rules)]))
    series, center = _series(body)
    phi = np.arange(sizes) * (2.0 * math.pi / sizes)
    return (series.offsets(phi, u.theta)[0] + np.dot(center, u.u),
            (2.0 * math.pi / sizes) * np.cos(phi - u.theta) * series.terms(phi)[2])


def build_context(body, u: Direction, max_abs_zeta=200.0):
    """Boundary rule certified on the box |Re zeta| <= max_abs_zeta, |Im zeta| <= im_cap.

    The node count starts at _rule_sizes and grows by _grow, a factor of
    about 5/4, until two consecutive rules differ by at most
    GAP_TOL area exp(IM_CAP_FACTOR/2) at the box's corners.  The rule with
    more nodes is kept: the error falls geometrically with the node count, so
    the gap bounds its error with room to spare, on the real axis too.  A
    rule of more than MAX_NODES nodes raises PrecisionLoss before it is built.
    """
    lo, hi = -support(body, u.antipode()), support(body, u)
    mid = 0.5 * (lo + hi)
    im_cap = IM_CAP_FACTOR / (hi - lo)
    corners = np.array([complex(re, im) for re in (max_abs_zeta, -max_abs_zeta)
                        for im in (im_cap, -im_cap)])
    tol = GAP_TOL * area(body) * math.exp(IM_CAP_FACTOR / 2.0)
    sizes = _rule_sizes(body, u, max_abs_zeta)
    coarse = None
    while True:
        if np.sum(sizes) > MAX_NODES:
            raise PrecisionLoss(f"boundary rule needs more than {MAX_NODES} nodes "
                                f"for |Re zeta| <= {max_abs_zeta:.3g}")
        nodes, amps = _boundary_rule(body, u, sizes)
        fine = fourier_sum(amps, nodes - mid, corners) / corners
        if coarse is not None:
            gap = float(np.max(np.abs(coarse - fine)))
            if gap <= tol:
                break
        sizes, coarse = _grow(sizes), fine
    powers = np.cumprod(np.broadcast_to(nodes - mid, (SERIES_TERMS, nodes.size)), axis=0)
    moments = (powers @ amps) / np.cumprod(np.arange(1.0, SERIES_TERMS + 1.0))
    return RayTransformContext(body, u, max_abs_zeta, im_cap, lo, hi, nodes,
                               derivative_rows(nodes, amps, 1), moments, gap)


def _check_zeta(ctx, zeta):
    """zeta as a complex array; PrecisionLoss if it leaves the certified box."""
    z = np.asarray(zeta, dtype=complex)
    if np.count_nonzero(np.abs(z.imag) > ctx.im_cap * (1.0 + 1e-12)):
        raise PrecisionLoss(f"|Im zeta| exceeds cap {ctx.im_cap:.3g}")
    if np.count_nonzero(np.abs(z.real) > ctx.max_abs_zeta * (1.0 + 1e-12)):
        raise PrecisionLoss(f"|Re zeta| exceeds the certified bound {ctx.max_abs_zeta:.3g}")
    return z


def _moment_series(ctx, z):
    """(F, F') at z from the moment series about the support midpoint c."""
    w = 1j * z
    c = 0.5 * (ctx.lo + ctx.hi)
    turn = np.exp(c * w)
    m = ctx.moments
    series = np.polyval(m[::-1], w)
    slope = np.polyval((m[1:] * np.arange(1.0, m.size))[::-1], w)  # d series / dw
    return turn * series, 1j * turn * (c * series + slope)


def _transform(ctx, zetas, order):
    """(F,) for order 0, (F, F') for order 1, at each zeta: G/(i zeta) and
    (-i G' - F)/zeta from one fourier_sum, or the moment series where
    |zeta| w/2 <= SERIES_RADIUS."""
    z = _check_zeta(ctx, zetas)
    near = np.abs(z) * (0.5 * ctx.body_width) <= SERIES_RADIUS
    any_near = np.count_nonzero(near)
    far = np.where(near, 1.0, z) if any_near else z
    g = fourier_sum(ctx.rows[:order + 1], ctx.nodes, z)
    f = g[0] / (1j * far)
    out = (f, (-1j * g[1] - f) / far) if order else (f,)
    if not any_near:
        return out
    return tuple(np.where(near, series, v) for series, v in zip(_moment_series(ctx, z), out))


def flt_ray(ctx, zeta):
    """Transform value at complex zeta; equals area(K) at zeta = 0."""
    return complex(_transform(ctx, zeta, 0)[0])


def flt_ray_derivative(ctx, zeta):
    """d/dzeta of the ray transform, (-i G' - F)/zeta from one fourier_sum."""
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
    """contour_winding's start points about center 0: CONTOUR_START equispaced
    points per side of the rectangle +- half_re +- i half_im, counterclockwise
    from its upper right corner, and that corner again."""
    corners = np.array([complex(half_re, half_im), complex(-half_re, half_im),
                        complex(-half_re, -half_im), complex(half_re, -half_im),
                        complex(half_re, half_im)])
    frac = np.arange(CONTOUR_START) / CONTOUR_START
    sides = corners[:-1, None] + (corners[1:] - corners[:-1])[:, None] * frac
    return np.append(sides.ravel(), corners[-1])


def contour_winding(f_many, center, half_re, half_im, start_values=None):
    """Winding of the vectorized f_many around center +- half_re +- i half_im.

    Starts from the points center + _contour_offsets(half_re, half_im), where
    f is start_values if given, else f_many there, and bisects every step
    whose argument change exceeds MAX_ARG_STEP until none does.  Exact unless a
    step turns f by 2 pi - MAX_ARG_STEP or more, which aliases to a small one.
    """
    z = center + _contour_offsets(half_re, half_im)
    vals = f_many(z) if start_values is None else start_values
    for rounds in range(MAX_REFINE_ROUNDS + 1):
        if not np.all(np.isfinite(vals) & (vals != 0)):
            raise ValidationFailed("transform vanishes or is not finite on the validation contour")
        steps = np.angle(vals[1:] / vals[:-1])
        coarse = np.flatnonzero(np.abs(steps) > MAX_ARG_STEP)
        if coarse.size == 0:
            break
        if rounds == MAX_REFINE_ROUNDS:
            raise ValidationFailed(
                f"contour unresolved after {MAX_REFINE_ROUNDS} refinement rounds")
        mid = 0.5 * (z[coarse] + z[coarse + 1])
        z = np.insert(z, coarse + 1, mid)
        vals = np.insert(vals, coarse + 1, f_many(mid))
    winding = np.sum(steps) / (2.0 * math.pi)
    nearest = round(winding)
    if abs(winding - nearest) > 0.1:
        raise ValidationFailed(f"ambiguous winding {winding:.3f}")
    return int(nearest)


def _contour_start(ctx, centred, center, half_re, half_im):
    """exp(-i c zeta) F at contour_winding's start points, by the shift theorem.

    With t_j = s_j - c, exp(-i c zeta) F(zeta) = sum_j a_j exp(i t_j zeta)/(i zeta),
    and at zeta = center + delta_k each exponential is exp(i t_j center)
    exp(i t_j delta_k).  The table exp(i t (x) delta) is built once per
    context and rectangle shape, so a contour costs one exp per node and a
    matrix-vector product.  Points where |zeta| w/2 <= SERIES_RADIUS go through
    centred, the direct evaluation.  None when the table would hold more than
    KERNEL_BLOCK entries: the caller then evaluates every point directly.
    """
    offsets = _contour_offsets(half_re, half_im)
    if ctx.nodes.size * offsets.size > KERNEL_BLOCK:
        return None
    z = _check_zeta(ctx, center + offsets)
    c = 0.5 * (ctx.lo + ctx.hi)
    t = ctx.nodes - c
    key = (half_re, half_im)
    if key not in ctx.contour_tables:
        ctx.contour_tables[key] = np.exp(np.outer(t, 1j * offsets))
    near = np.abs(z) * (0.5 * ctx.body_width) <= SERIES_RADIUS
    vals = ((ctx.rows[0] * np.exp(1j * center * t)) @ ctx.contour_tables[key]
            / (1j * np.where(near, 1.0, z)))
    if near.any():
        vals[near] = centred(z[near])
    return vals


def winding_number(ctx, center, half_re, half_im):
    """Winding of the transform around a rectangle, from the argument increment.

    The transform of a body whose support on u has midpoint c carries the factor
    exp(i c zeta), which turns by c per unit of Re zeta but has no zeros; it is
    divided out so that the contour's step count does not grow with translation.
    The start points come from _contour_start, refinement points from
    flt_ray_many.
    """
    shift = 0.5 * (ctx.lo + ctx.hi)

    def centred(z):
        return flt_ray_many(ctx, z) * np.exp(-1j * shift * z)

    return contour_winding(centred, center, half_re, half_im,
                           _contour_start(ctx, centred, center, half_re, half_im))


def _newton(values, z, inside):
    """Damped complex Newton on f from z; values(z) is (f, f'), inside(z) the box test.

    The step f/f' is halved while it leaves the box or fails to lower |f|,
    and taken once halved below 1e-6; it stops at |dz| <= 1e-12 (1 + |z|).
    No point is evaluated twice: a candidate equal to z, or a sub-tolerance
    one that fails to lower |f|, ends it at z.  A zero f', a non-finite f or
    f', a damping that finds no point, or no convergence raises NewtonDiverged.
    """
    f, df = values(z)
    for _ in range(NEWTON_MAX_ITER):
        if df == 0 or not (cmath.isfinite(f) and cmath.isfinite(df)):
            raise NewtonDiverged(f"zero derivative or non-finite value at {z}")
        step = f / df
        lam = 1.0
        for _ in range(30):
            cand = z - lam * step
            if cand == z:
                return z
            if inside(cand):
                f_cand, df_cand = values(cand)
                small = abs(cand - z) <= 1e-12 * (1.0 + abs(cand))
                if abs(f_cand) < abs(f) or lam < 1e-6:
                    break
                if small:
                    return z
            lam *= 0.5
        else:
            raise NewtonDiverged(f"damping failed near {z}")
        z, f, df = cand, f_cand, df_cand
        if small:
            return z
    raise NewtonDiverged(f"no convergence after {NEWTON_MAX_ITER} iterations")


def track_zero(ctx, m, start=None):
    """Newton-track the m-th zero branch from start, by default its kobayashi_center.

    _newton runs on exp(-i c zeta) F, c the midpoint of the support on u,
    which has F's zeros but does not turn as the body moves.  Each candidate
    gets (F, F') from one fourier_sum, kept for the residual check at the
    converged point.  Validation encloses the converged zeta in a rectangle
    of half-sides (pi/(2w), 0.5/w) and requires winding number 1.
    """
    c = 0.5 * (ctx.lo + ctx.hi)
    predicted = complex(kobayashi_center(ctx.body, m, ctx.u) if start is None else start)
    seen = {}

    def centred(z):
        f, df = seen[z] = tuple(map(complex, _transform(ctx, z, 1)))
        turn = cmath.exp(-1j * c * z)
        return turn * f, turn * (df - 1j * c * f)

    z = _newton(centred, predicted,
                lambda p: abs(p.imag) <= ctx.im_cap and abs(p.real) <= ctx.max_abs_zeta)
    residual, dscale = map(abs, seen[z])
    if residual > 1e-9 * dscale:
        raise NewtonDiverged(f"residual {residual:.3e} above 1e-9 * {dscale:.3e}")
    wind = winding_number(ctx, z, math.pi / (2.0 * ctx.body_width), 0.5 / ctx.body_width)
    if wind != 1:
        raise ValidationFailed(f"winding {wind} != 1 at m={m}")
    return ZeroBranch(m, ctx.u, z, residual, True, predicted)


def _multiple_zero(table, nodes, start, im_cap):
    """_newton in the band |Im zeta| <= im_cap on f/f', which has simple zeros
    at zeros of f of any multiplicity.  f is the Fourier sum of table[0] on
    nodes; table holds the rows (a, i t a, (i t)^2 a) of derivative_rows, so
    one fourier_sum gives (f, f', f'') and with them (f/f', 1 - f f''/f'^2).
    """
    def values(z):
        f, df, d2f = map(complex, fourier_sum(table, nodes, z))
        if df == 0:
            raise NewtonDiverged(f"zero derivative at {z}")
        return f / df, 1.0 - (f / df) * d2f / df

    return _newton(values, complex(start), lambda p: abs(p.imag) <= im_cap)


def sweep_bound(body, u_list, m_max):
    """max_abs_zeta for tracking branches up to m_max along u_list: the farthest
    predicted center plus SWEEP_MARGIN, or pi/w + 1 for the least width w if
    that is more, so that track_zero's validation contour, pi/(2w) either side
    of a zero, stays inside the box."""
    reach = math.pi / min(width(body, u) for u in u_list) + 1.0
    return (max(abs(kobayashi_center(body, m_max, u)) for u in u_list)
            + max(SWEEP_MARGIN, reach))


def track_branches(ctx, m_list):
    """track_zero for every m on one context, from the kobayashi_center
    computed once for all m; a failure names its m and direction."""
    out = []
    for m, center in zip(m_list, kobayashi_center(ctx.body, np.asarray(m_list), ctx.u)):
        try:
            out.append(track_zero(ctx, m, complex(center)))
        except (NewtonDiverged, ValidationFailed) as exc:
            raise type(exc)(f"(m={m}, theta={ctx.u.theta:.6f}): {exc}") from exc
    return out


def branch_sweep(body, u_grid, m_range):
    """Validated ZeroBranch table over (m, u) with a branch-continuity check.

    Consecutive grid directions must move each branch by less than half the
    spacing 2 pi / w between neighboring m, so branches cannot be confused.
    """
    m_list = list(m_range)
    u_list = list(u_grid)
    bound = sweep_bound(body, u_list, max(m_list))
    columns = [track_branches(build_context(body, u, max_abs_zeta=bound), m_list)
               for u in u_list]
    for i, m in enumerate(m_list):
        seq = [col[i] for col in columns]
        for a, b in zip(seq[:-1], seq[1:]):
            jump = math.pi / min(width(body, a.u), width(body, b.u))
            if abs(b.zeta - a.zeta) > jump:
                raise ValidationFailed(
                    f"branch m={m} jumps by {abs(b.zeta - a.zeta):.3g} > {jump:.3g}")
    return [br for col in columns for br in col]


@dataclass(frozen=True)
class IdentityReport:
    max_deviation: float
    tolerance: float
    n_samples: int

    @property
    def passed(self):
        return self.max_deviation <= self.tolerance


def verify_reflection_identity(body, seed=0):
    """Check flt_{-K}(zeta) = conj(flt_K(conj zeta)) on random rays and zetas."""
    from covario.geometry import reflect

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
    return IdentityReport(worst, REFLECTION_TOL, REFLECTION_SAMPLES)


def autocorr_transform_table(body, u: Direction, max_freq):
    """Quadrature table (nodes, amplitudes) for the transform of g_K on the ray u.

    The integrand is the chord autocorrelation, whose transform, the
    fourier_sum of the amplitudes, equals flt_ray(zeta) * conj(flt_ray(conj zeta)).
    """
    cf = chord_function(body, u)
    w = cf.width
    brks = [0.0]
    if isinstance(body, Polygon):
        knots = np.concatenate([[cf.lo], np.asarray(cf.breakpoints), [cf.hi]])
        diffs = (knots[None, :] - knots[:, None]).ravel()
        brks.extend(diffs.tolist())
    nodes, weights = panel_table(-w, w, brks, max_freq=max_freq, osc_budget=OSC_BUDGET)
    return nodes, weights * chord_autocorrelation_batch(body, u, nodes)


def verify_factorization(body, u: Direction, xi_grid):
    """Check FT(autocorrelation)(xi) = |flt_ray(xi)|^2 on a real xi grid.

    The two sides are independent formulations: the left one integrates the
    chord autocorrelation on panel Gauss-Legendre nodes, the right one sums
    the boundary rule of build_context, which never evaluates a chord.
    """
    xi = np.asarray(xi_grid, dtype=float)
    max_xi = float(np.abs(xi).max())
    nodes, amplitudes = autocorr_transform_table(body, u, max_xi)
    lhs = fourier_sum(amplitudes, nodes, xi)
    ctx = build_context(body, u, max_abs_zeta=max_xi)
    rhs = np.abs(flt_ray_many(ctx, xi)) ** 2
    dev = float(np.abs(lhs - rhs).max())
    scale = area(body) ** 2
    return IdentityReport(dev / scale, FACTORIZATION_TOL, xi.shape[0])
