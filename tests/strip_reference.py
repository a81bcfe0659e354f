"""The chord-end Newton, the radial bisection, the per-direction cap fit and
the walk over a circular mask's runs as `covariogram` and `asymptotics` ran
them before their batched or array forms: one probe level per radial call,
one evaluator call per ladder and per stencil, a Newton loop that gathers and
scatters its unsettled chords by index on every step, and an index walk.

Each function is copied verbatim; the tests require the batched forms to
return the same floats, and the array runs the same index tuples.
"""

import math

import numpy as np

from covario.asymptotics import Inconclusive
from covario.covariogram import (
    _MAX_STEPS,
    _RESIDUAL_TOL,
    _SQRT_EPS,
    CAP_PREFACTOR,
    CurvaturePair,
    FitFailed,
    _bisected_chords,
    _cap,
)
from covario.geometry import Direction


def loop_caps(series, xs, r, alpha, theta, r_max):
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
    # rows (phi_a, phi_b); columns the chords above, then those below
    longest = np.array([np.tile(theta + math.pi, 2), np.tile(theta, 2)])
    short = np.array([np.concatenate([top, top + math.pi]), np.concatenate([top, top - math.pi])])
    lo, hi = np.minimum(longest, short), np.maximum(longest, short)
    phi = longest + np.tile(np.arccos(r / r_max) / (0.5 * math.pi), 2) * (short - longest)
    x, y, tol = (np.tile(z, 2) for z in (xs[:, 0], xs[:, 1], _RESIDUAL_TOL * r_max))
    base, step = phi.copy(), np.zeros_like(phi)
    length, best = np.ones(x.size), np.full(x.size, np.inf)
    todo = np.arange(x.size)
    for _ in range(_MAX_STEPS):
        if not todo.size:
            break
        # one evaluation of the boundary p = h n + h' n' at both ends
        h, h1, rho = series.support.terms(phi[:, todo])
        c, s = np.cos(phi[:, todo]), np.sin(phi[:, todo])
        px, py = h * c - h1 * s, h * s + h1 * c
        ex, ey = px[1] - px[0] - x[todo], py[1] - py[0] - y[todo]
        res = np.hypot(ex, ey)
        lower = res < best[todo]
        # a trial that does not lower |E| is retried at half the length
        k = todo[~lower]
        length[k] *= 0.5
        phi[:, k] = base[:, k] + length[k] * step[:, k]
        k = todo[lower]
        best[k], base[:, k] = res[lower], phi[:, k]
        ex, ey, (ca, cb), (sa, sb), (ra, rb) = (z[..., lower] for z in (ex, ey, c, s, rho))
        sin_ab = sa * cb - ca * sb
        d = -np.array([(ex * cb + ey * sb) / (ra * sin_ab), (ex * ca + ey * sa) / (rb * sin_ab)])
        with np.errstate(divide="ignore"):
            room = np.where(d > 0.0, hi[:, k] - base[:, k], base[:, k] - lo[:, k]) / np.abs(d)
        step[:, k], length[k] = d, np.minimum(1.0, 0.5 * room.min(axis=0))
        phi[:, k] = base[:, k] + length[k] * d
        todo = todo[(best[todo] > tol[todo]) & (length[todo] > _SQRT_EPS)]
    stuck = np.nonzero(best > tol)[0]
    if stuck.size:
        phi[:, stuck] = _bisected_chords(series.support, np.tile(alpha, 2)[stuck],
                                         np.tile(r, 2)[stuck], longest[:, stuck], short[:, stuck])
    (a_above, a_below), (b_above, b_below) = phi.reshape(2, 2, -1)
    # the front arc runs counterclockwise from the lower chord's end to the
    # upper one's, the back arc from the upper chord's start to the lower one's
    g = _cap(series, b_below, b_above) + _cap(series, a_above, a_below)
    return np.maximum(g, 0.0)



def loop_radial_table(g, thetas):
    """Radial extent of supp g along each direction, all bisected together."""
    dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    # the bracket starts at 1.18, not at 1: doubling 1 probes g(2u), which sits
    # on the boundary of supp g for a body of constant width 2 and has the sign
    # of its round-off
    lo, hi = np.zeros(len(thetas)), np.full(len(thetas), 1.18)
    grow = np.ones(len(thetas), dtype=bool)
    for _ in range(60):
        grow[grow] = g(hi[grow, None] * dirs[grow]) > 0
        if not grow.any():
            break
        lo[grow] = hi[grow]
        hi[grow] *= 2.0
    else:
        raise Inconclusive("covariogram support appears unbounded")
    while True:
        active = hi - lo > 1e-7 * np.maximum(hi, 1.0)
        if not active.any():
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo[active] + hi[active])
        inside = g(mid[:, None] * dirs[active]) > 0
        lo[active] = np.where(inside, mid, lo[active])
        hi[active] = np.where(inside, hi[active], mid)



def loop_cap_pair(g, anchor, u: Direction, t_star):
    """Unordered curvature pair {tau(u), tau(-u)} from g_K near the point anchor
    of the boundary of supp g_K = K - K with outer normal u.

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

    g maps points of shape (k, 2) to values of shape (k,).  fit_residual is
    the largest residual of the stencil fit relative to the largest g^{2/3}
    on the stencil.
    """
    uv, tan = u.u, u.perp
    depths = np.geomspace(0.1 * t_star, t_star, 6)
    g0 = g(anchor - depths[:, None] * uv)
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
    vals = g(anchor + qarr[:, None] * tan - tarr[:, None] * uv)
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


def walk_contiguous_regions(mask):
    """Maximal runs of True in a circular mask, as index tuples."""
    n = len(mask)
    if not np.any(mask):
        return []
    if np.all(mask):
        return [tuple(range(n))]
    regions = []
    i = 0
    while i < n:
        if mask[i] and not mask[(i - 1) % n]:
            run = []
            j = i
            while mask[j % n]:
                run.append(j % n)
                j += 1
            regions.append(tuple(run))
            i = j
        else:
            i += 1
    return regions
