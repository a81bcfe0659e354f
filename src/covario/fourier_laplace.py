"""Fourier-Laplace transform along complex rays and its zero branches."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from covario._quadrature import panel_table
from covario.geometry import Direction, Polygon, area, curvature, width
from covario.radon import chord_autocorrelation_batch, chord_function

IM_CAP_FACTOR = 12.0
OSC_BUDGET = 40.0
CONTOUR_START = 8
MAX_ARG_STEP = math.pi / 4.0
MAX_REFINE_ROUNDS = 12
KERNEL_BLOCK = 2 ** 16   # largest node-zeta product count of one exponential block
NEWTON_MAX_ITER = 50     # track_zero's Newton steps
MULTIPLE_MAX_ITER = 60   # _newton_multiple's Newton steps
REFLECTION_SAMPLES = 50  # random (ray, zeta) draws of verify_reflection_identity
REFLECTION_TOL = 1e-9    # its deviation bound, relative to area * exp(|Im zeta| h)
FACTORIZATION_TOL = 1e-6  # verify_factorization's deviation bound, relative to area^2


class PrecisionLoss(Exception):
    """Raised when |Im zeta| exceeds the context cap."""


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
    flat = zetas.reshape(-1)
    step = max(1, KERNEL_BLOCK // nodes.size)
    out = np.concatenate([rows @ np.exp(1j * np.outer(nodes, flat[i:i + step]))
                          for i in range(0, max(flat.size, 1), step)], axis=-1)
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
    """Quadrature table for zeta -> integral of S_K(u, t) exp(i t zeta) dt.

    The panel layout is fixed at construction for |zeta| <= max_abs_zeta, and
    the rows (a, i t a), a each node's weight times its chord value, are
    precomputed, so the transform and its derivative are one fourier_sum each.
    """

    body: object
    u: Direction
    max_abs_zeta: float
    im_cap: float
    lo: float
    hi: float
    nodes: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)

    @property
    def body_width(self):
        return self.hi - self.lo


def build_context(body, u: Direction, max_abs_zeta=200.0):
    cf = chord_function(body, u)
    nodes, weights = panel_table(cf.lo, cf.hi, cf.breakpoints, max_freq=max_abs_zeta,
                                 osc_budget=OSC_BUDGET)
    rows = derivative_rows(nodes, weights * cf(nodes), 1)
    return RayTransformContext(body, u, max_abs_zeta, IM_CAP_FACTOR / cf.width,
                               cf.lo, cf.hi, nodes, rows)


def _check_zeta(ctx, zeta):
    z = np.asarray(zeta)
    if np.any(np.abs(z.imag) > ctx.im_cap * (1.0 + 1e-12)):
        raise PrecisionLoss(f"|Im zeta| exceeds cap {ctx.im_cap:.3g}")


def flt_ray(ctx, zeta):
    """Transform value at complex zeta; equals area(K) at zeta = 0."""
    _check_zeta(ctx, zeta)
    return complex(fourier_sum(ctx.rows[0], ctx.nodes, zeta))


def flt_ray_derivative(ctx, zeta):
    """d/dzeta of the ray transform: the transform of i t S_K(u, t)."""
    _check_zeta(ctx, zeta)
    return complex(fourier_sum(ctx.rows[1], ctx.nodes, zeta))


def flt_ray_many(ctx, zetas):
    """Vectorized transform values for an array of complex zetas."""
    _check_zeta(ctx, zetas)
    return fourier_sum(ctx.rows[0], ctx.nodes, zetas)


def kobayashi_center(body, m, u: Direction, n=2):
    """Predicted center of the m-th zero branch.

    pi (4m + n - 1) / (2 w_K(u)) + i (ln tau(-u) - ln tau(u)) / (2 w_K(u)).
    """
    w = width(body, u)
    re = math.pi * (4 * m + n - 1) / (2.0 * w)
    im = (math.log(curvature(body, u.antipode())) - math.log(curvature(body, u))) / (2.0 * w)
    return complex(re, im)


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


def contour_winding(f_many, center, half_re, half_im):
    """Winding of the vectorized f_many around center +- half_re +- i half_im.

    Starts from CONTOUR_START equispaced points per side and bisects every step
    whose argument change exceeds MAX_ARG_STEP until none does.  Exact unless a
    step turns f by 2 pi - MAX_ARG_STEP or more, which aliases to a small one.
    """
    corners = center + np.array([complex(half_re, half_im), complex(-half_re, half_im),
                                 complex(-half_re, -half_im), complex(half_re, -half_im)])
    frac = np.arange(CONTOUR_START) / CONTOUR_START
    z = np.concatenate([a + (b - a) * frac for a, b in zip(corners, np.roll(corners, -1))]
                       + [corners[:1]])
    vals = f_many(z)
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


def winding_number(ctx, center, half_re, half_im):
    """Winding of the transform around a rectangle, from the argument increment.

    The transform of a body whose support on u has midpoint c carries the factor
    exp(i c zeta), which turns by c per unit of Re zeta but has no zeros; it is
    divided out so that the contour's step count does not grow with translation.
    """
    shift = 0.5 * (ctx.lo + ctx.hi)
    return contour_winding(lambda z: flt_ray_many(ctx, z) * np.exp(-1j * shift * z),
                           center, half_re, half_im)


def track_zero(ctx, m, start=None):
    """Newton-track the m-th zero branch from the predicted center.

    Newton runs on exp(-i c zeta) F, c the midpoint of the support on u, which
    has F's zeros but does not turn as the body moves: the step is
    F / (F' - i c F) and damping compares exp(c Im zeta) |F|.  Validation
    encloses the converged zeta in a rectangle of half-sides (pi/(2w), 0.5/w)
    and requires winding number 1.
    """
    w = ctx.body_width
    c = 0.5 * (ctx.lo + ctx.hi)
    predicted = kobayashi_center(ctx.body, m, ctx.u) if start is None else complex(start)
    z = predicted
    fz = flt_ray(ctx, z)
    for _ in range(NEWTON_MAX_ITER):
        denom = flt_ray_derivative(ctx, z) - 1j * c * fz
        if denom == 0:
            raise NewtonDiverged(f"zero derivative at {z}")
        step = fz / denom
        lam = 1.0
        z_new, f_new = z, fz
        for _ in range(30):
            cand = z - lam * step
            if abs(cand.imag) > ctx.im_cap:
                lam *= 0.5
                continue
            f_cand = flt_ray(ctx, cand)
            if abs(f_cand) * math.exp(c * (cand.imag - z.imag)) < abs(fz) or lam < 1e-6:
                z_new, f_new = cand, f_cand
                break
            lam *= 0.5
        else:
            raise NewtonDiverged(f"damping failed near {z}")
        moved = abs(z_new - z)
        z, fz = z_new, f_new
        if moved <= 1e-12 * (1.0 + abs(z)):
            break
    else:
        raise NewtonDiverged(f"no convergence after {NEWTON_MAX_ITER} iterations (m={m})")
    residual = abs(fz)
    dscale = abs(flt_ray_derivative(ctx, z))
    if residual > 1e-9 * dscale:
        raise NewtonDiverged(f"residual {residual:.3e} above 1e-9 * {dscale:.3e}")
    wind = winding_number(ctx, z, math.pi / (2.0 * w), 0.5 / w)
    if wind != 1:
        raise ValidationFailed(f"winding {wind} != 1 at m={m}")
    return ZeroBranch(m, ctx.u, z, residual, True, predicted)


def _newton_multiple(table, nodes, start, im_cap=None):
    """Newton on f/f', which has simple zeros at zeros of any multiplicity.

    f is the Fourier sum of table[0] on nodes; table holds the rows
    (a, i t a, (i t)^2 a) of derivative_rows, so one fourier_sum gives
    (f, f', f'') at each step.
    """
    z = complex(start)
    if im_cap is None:
        im_cap = 10.0 * (1.0 + abs(z.imag))
    for _ in range(MULTIPLE_MAX_ITER):
        f, df, d2f = fourier_sum(table, nodes, z)
        denom = df * df - f * d2f
        if denom == 0:
            raise NewtonDiverged(f"degenerate Newton at {z}")
        step = f * df / denom
        while abs((z - step).imag) > im_cap and abs(step) > 1e-15:
            step *= 0.5
        z -= step
        if abs(step) <= 1e-12 * (1.0 + abs(z)):
            return z
    raise NewtonDiverged(f"no convergence from {start}")


def branch_sweep(body, u_grid, m_range):
    """Validated ZeroBranch table over (m, u) with a branch-continuity check.

    Consecutive grid directions must move each branch by less than half the
    spacing 2 pi / w between neighboring m, so branches cannot be confused.
    """
    m_list = list(m_range)
    u_list = list(u_grid)
    max_zeta = max(abs(kobayashi_center(body, max(m_list), u)) for u in u_list) + 10.0
    rows = []
    per_m = {m: [] for m in m_list}
    for u in u_list:
        ctx = build_context(body, u, max_abs_zeta=max_zeta)
        for m in m_list:
            try:
                br = track_zero(ctx, m)
            except (NewtonDiverged, ValidationFailed) as exc:
                raise type(exc)(f"(m={m}, theta={u.theta:.6f}): {exc}") from exc
            rows.append(br)
            per_m[m].append(br)
    for m in m_list:
        seq = per_m[m]
        for a, b in zip(seq[:-1], seq[1:]):
            bound = math.pi / min(width(body, a.u), width(body, b.u))
            if abs(b.zeta - a.zeta) > bound:
                raise ValidationFailed(
                    f"branch m={m} jumps by {abs(b.zeta - a.zeta):.3g} > {bound:.3g}")
    return rows


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
    """Check FT(autocorrelation)(xi) = |flt_ray(xi)|^2 on a real xi grid."""
    xi = np.asarray(xi_grid, dtype=float)
    max_xi = float(np.abs(xi).max())
    nodes, amplitudes = autocorr_transform_table(body, u, max_xi)
    lhs = fourier_sum(amplitudes, nodes, xi)
    ctx = build_context(body, u, max_abs_zeta=max_xi)
    rhs = np.abs(flt_ray_many(ctx, xi)) ** 2
    dev = float(np.abs(lhs - rhs).max())
    scale = area(body) ** 2
    return IdentityReport(dev / scale, FACTORIZATION_TOL, xi.shape[0])
