"""Experiment drivers: Kobayashi reports, zero-set unions, counterexamples, determination."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from covario._parallel import parallel_map
from covario._quadrature import gauss_legendre, panel_table
from covario.covariogram import FitFailed, cap_pair, cross_covariogram_grid
from covario.fourier_laplace import (
    _multiple_zero,
    autocorr_transform_table,
    build_context,
    contour_winding,
    derivative_rows,
    fourier_sum,
    sweep_bound,
    track_branches,
)
from covario.geometry import (
    Direction,
    Polygon,
    area,
    body_hash,
    curvature,
    example_pair,
    reflect,
    slice_table,
    steiner_point,
    width,
)


class UnmatchedZero(Exception):
    """Raised when a zero of the g-transform matches no tracked branch."""


class Inconclusive(Exception):
    """Raised when too many directions fail the curvature fit."""


@dataclass(frozen=True)
class KobayashiReport:
    """Deviations of tracked zero branches from their predicted centers."""

    body_id: str
    m_list: tuple
    thetas: tuple
    deviations: np.ndarray = field(repr=False)  # (n_m, n_u)
    im_error_per_m: np.ndarray = field(repr=False)
    re_error_per_m: np.ndarray = field(repr=False)
    decay_exponent: float
    decay_fit_residual: float
    flags: tuple = ()
    branches: tuple = field(default=(), repr=False)


def _track_direction(body, m_list, max_zeta, u):
    """Branches m_list along u; module level so that worker processes can unpickle it."""
    return track_branches(build_context(body, u, max_abs_zeta=max_zeta), m_list)


def kobayashi_report(body, m_range, u_grid):
    """Track branches over (m, u), compare with predicted centers, fit the decay."""
    if isinstance(body, Polygon):
        return KobayashiReport(body_hash(body), (), (), np.zeros((0, 0)),
                               np.zeros(0), np.zeros(0), math.nan, math.nan,
                               flags=("non-C2plus-input",))
    m_list = list(m_range)
    u_list = list(u_grid)
    max_zeta = sweep_bound(body, u_list, max(m_list))
    columns = parallel_map(partial(_track_direction, body, m_list, max_zeta), u_list)
    dev = np.zeros((len(m_list), len(u_list)))
    im_err = np.zeros_like(dev)
    re_err = np.zeros_like(dev)
    for j, (u, col) in enumerate(zip(u_list, columns)):
        w = width(body, u)
        target = (math.log(curvature(body, u.antipode()))
                  - math.log(curvature(body, u)))
        for i, br in enumerate(col):
            dev[i, j] = br.deviation
            im_err[i, j] = abs(br.zeta.imag * 2.0 * w - target)
            re_err[i, j] = abs(br.zeta.real * 2.0 * w / math.pi - (4 * m_list[i] + 1))
    dev_m = dev.max(axis=1)
    if len(m_list) >= 2:
        logm = np.log(np.asarray(m_list, dtype=float))
        logd = np.log(np.maximum(dev_m, 1e-300))
        slope, intercept = np.polyfit(logm, logd, 1)
        resid = float(np.sqrt(np.mean((logd - slope * logm - intercept) ** 2)))
    else:
        slope, resid = math.nan, math.nan
    branches = tuple(br for col in columns for br in col)
    return KobayashiReport(body_hash(body), tuple(m_list),
                           tuple(u.theta for u in u_list), dev,
                           im_err.max(axis=1), re_err.max(axis=1),
                           float(slope), resid, branches=branches)


@dataclass(frozen=True)
class ZeroUnionRow:
    m: int
    branch_zeta: complex
    located: tuple
    multiplicity: int
    residual: float


@dataclass(frozen=True)
class ZeroUnionReport:
    body_id: str
    theta: float
    rows: tuple

    @property
    def passed(self):
        return all(r.multiplicity >= 1 for r in self.rows)


MATCH_TOL = 1e-6         # largest distance of a g-transform zero from its branch
RESIDUAL_TOL = 1e-8      # largest |g-transform| at a branch, relative to area^2


def zero_union_check(body, u: Direction, m_range):
    """Zeros of the g_K ray transform against the branch set {F_m, conj F_m}.

    The transform of g_K on the ray factors as flt(zeta) * conj(flt(conj zeta)),
    so its zero set is the union of the branch set and its conjugate; each
    located zero must match a member within MATCH_TOL.
    """
    m_list = list(m_range)
    max_zeta = sweep_bound(body, [u], max(m_list))
    ctx = build_context(body, u, max_abs_zeta=max_zeta)
    nodes, amplitudes = autocorr_transform_table(body, u, max_zeta)
    table = derivative_rows(nodes, amplitudes, 2)
    g_many = partial(fourier_sum, table[0], nodes)
    sq_area = area(body) ** 2
    rows = []
    for branch in track_branches(ctx, m_list):
        m, f = branch.m, branch.zeta
        targets = (f, f.conjugate())
        located = []
        for start in targets:
            z = _multiple_zero(table, nodes, start, ctx.im_cap)
            if min(abs(z - t) for t in targets) > MATCH_TOL:
                raise UnmatchedZero(
                    f"g-transform zero {z} matches no branch at m={m}")
            if not any(abs(z - prev) < MATCH_TOL for prev in located):
                located.append(z)
        resid = abs(complex(g_many(f)))
        if resid > RESIDUAL_TOL * sq_area:
            raise UnmatchedZero(
                f"g-transform residual {resid:.3e} at branch m={m}")
        # multiplicity by argument principle on a rectangle containing f but
        # not its conjugate (unless they coincide)
        half_re = math.pi / (2.0 * ctx.body_width)
        half_im = 0.5 / ctx.body_width
        if abs(f.imag) >= 0.5 * half_im:
            half_im = 1.2 * abs(f.imag)
        mult = contour_winding(g_many, f, half_re, half_im)
        rows.append(ZeroUnionRow(m, f, tuple(located), mult, resid))
    return ZeroUnionReport(body_hash(body), u.theta, tuple(rows))


def _best_cyclic_distance(va, vb):
    if va.shape != vb.shape:
        return math.inf
    n = va.shape[0]
    return min(np.abs(np.roll(vb, k, axis=0) - va).max() for k in range(n))


def trivial_associates(pair_a, pair_b, tol=1e-9):
    """Whether (H,K) and (H',K') coincide after a common translation, possibly
    combined with the swap (H,K) -> (-K,-H)."""
    h1, k1 = pair_a
    h2, k2 = pair_b
    # same-order form: (H,K) = (H'+x, K'+x)
    x = steiner_point(h1) - steiner_point(h2)
    if (_best_cyclic_distance(h1.vertices, h2.vertices + x) <= tol
            and _best_cyclic_distance(k1.vertices, k2.vertices + x) <= tol):
        return True
    # swapped form: (H,K) = (-K'+x, -H'+x)
    mk2, mh2 = reflect(k2), reflect(h2)
    x = steiner_point(h1) - steiner_point(mk2)
    if (_best_cyclic_distance(h1.vertices, mk2.vertices + x) <= tol
            and _best_cyclic_distance(k1.vertices, mh2.vertices + x) <= tol):
        return True
    return False


@dataclass(frozen=True)
class CounterexampleReport:
    family: int
    max_deviation: float
    tolerance: float
    trivial: bool
    grid_shape: tuple

    @property
    def passed(self):
        return self.max_deviation <= self.tolerance and not self.trivial


def crosscov_counterexample(family, params=None, grid=(41, 41), tol=1e-9):
    """Grid equality of the two cross-covariograms of a parallelogram family,
    plus the check that the pairs are not trivial associates."""
    if family not in (1, 3):
        raise ValueError("family must be 1 or 3 (compared against family+1)")
    params = dict(params or {})
    h1, k1 = example_pair(family, **params)
    h2, k2 = example_pair(family + 1, **params)
    g1 = cross_covariogram_grid(h1, k1, nx=grid[0], ny=grid[1])
    bbox = ((g1.origin[0], g1.origin[0] + g1.spacing[0] * (g1.nx - 1)),
            (g1.origin[1], g1.origin[1] + g1.spacing[1] * (g1.ny - 1)))
    g2 = cross_covariogram_grid(h2, k2, nx=grid[0], ny=grid[1], bbox=bbox)
    dev = float(np.abs(g1.values - g2.values).max())
    triv = trivial_associates((h1, k1), (h2, k2), tol=1e-9)
    return CounterexampleReport(family, dev, tol, triv, tuple(grid))


# determination_experiment's decision thresholds
RADIAL_TOL = 5e-3        # relative support mismatch -> distinct
PAIR_REL_TOL = 0.15      # relative curvature-pair mismatch -> distinct
RATIO_THRESHOLD = 0.3    # min |ln(high/low)| for a sign region
SIGN_M = 5               # branch whose g-transform zero signs a region
FIT_FAIL_FRAC = 0.05     # largest share of directions whose pair fit may fail


@dataclass(frozen=True)
class DeterminationConfig:
    """Settings of determination_experiment.  The curvature pairs come from
    covariogram.cap_pair with t_star = 2e-2 h(u), h the support of supp g,
    which has no settings of its own."""

    n_dirs: int = 24
    extent_dirs: int = 128          # radial-table resolution for anchors/extents
    t_order: int = 24
    s_order: int = 16
    max_regions_checked: int = 4


@dataclass(frozen=True)
class DeterminationVerdict:
    outcome: str  # identical-up-to-translation | reflection-needed | distinct
    thetas: tuple
    pairs_a: tuple
    pairs_b: tuple
    region_relations: tuple
    details: dict


def _radial_table(g, thetas):
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


def _support_from_radial(radial, thetas, u):
    """Support value and boundary anchor of supp g in direction u, by parabola
    refinement of the radial polygon."""
    pts = radial[:, None] * np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    vals = pts @ u
    j = int(np.argmax(vals))
    n = len(thetas)
    jm, jp = (j - 1) % n, (j + 1) % n
    ym, y0, yp = vals[jm], vals[j], vals[jp]
    denom = ym - 2.0 * y0 + yp
    delta = 0.0 if denom == 0 else 0.5 * (ym - yp) / denom
    delta = float(np.clip(delta, -1.0, 1.0))
    # quadratic interpolation of the boundary curve at fractional index j + delta
    anchor = (pts[j] + 0.5 * delta * (pts[jp] - pts[jm])
              + 0.5 * delta * delta * (pts[jp] - 2.0 * pts[j] + pts[jm]))
    h = y0 - 0.25 * (ym - yp) * delta
    return float(h), anchor


def _segment_extents(radial, thetas, u, ts):
    """Padded extents (smin, smax) of supp g along the lines <x, u> = t, t in ts,
    from the (convex) radial polygon, and the mask of lines that miss it."""
    pts = radial[:, None] * np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    knots, (a, da, b, db) = slice_table(np.stack([pts @ u, pts @ np.array([-u[1], u[0]])],
                                                 axis=1))
    k = np.searchsorted(knots[1:-1], ts, side="right")
    smin = a[k] + da[k] * (ts - knots[k])
    smax = b[k] + db[k] * (ts - knots[k])
    pad = 0.02 * (smax - smin + 1e-9)
    return smin - pad, smax + pad, (ts < knots[0]) | (ts > knots[-1])


def _line_integrals(g, uv, perp, ts, smin, smax, order):
    """integrals of g along the lines <x, u> = t, t in ts, over [smin, smax],
    in one evaluator call; the panels split at the kinks s = 0, +-2|t|."""
    kinks = np.abs(ts)[:, None] * np.array([-2.0, 0.0, 2.0])
    cuts = np.sort(np.concatenate(
        [smin[:, None], np.clip(kinks, smin[:, None], smax[:, None]), smax[:, None]], axis=1),
        axis=1)
    line, panel = np.nonzero(cuts[:, 1:] > cuts[:, :-1])
    a, b = cuts[line, panel], cuts[line, panel + 1]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    x_gl, w_gl = gauss_legendre(order)
    s = mid[:, None] + half[:, None] * x_gl
    pts = ts[line, None, None] * uv + s[:, :, None] * perp
    gv = g(pts.reshape(-1, 2)).reshape(s.shape)
    return np.bincount(line, weights=half * np.sum(w_gl * gv, axis=1), minlength=ts.size)


def _gtransform_im(g, radial, thetas, u: Direction, w_u, im_guess, cfg):
    """Imaginary part of the g-transform zero near branch SIGN_M along u.

    R_g(u, t) is even in t, so the half-line table on [0, w_u] is mirrored to
    -t, which makes its cosine sum the Fourier sum of both halves.
    """
    uv = u.u
    perp = u.perp
    zeta_c = math.pi * (4 * SIGN_M + 1) / (2.0 * w_u)
    t_nodes, t_weights = panel_table(0.0, w_u, [], order=cfg.t_order,
                                     max_freq=zeta_c + 2.0, osc_budget=30.0)
    smin, smax, miss = _segment_extents(radial, thetas, uv, t_nodes)
    r_vals = np.zeros_like(t_nodes)
    r_vals[~miss] = _line_integrals(g, uv, perp, t_nodes[~miss], smin[~miss], smax[~miss],
                                    cfg.s_order)
    nodes = np.concatenate([t_nodes, -t_nodes])
    table = derivative_rows(nodes, np.tile(t_weights * r_vals, 2), 2)
    cap = 3.0 * (abs(im_guess) + 1.0 / w_u)
    return _multiple_zero(table, nodes, complex(zeta_c, im_guess), cap).imag


def _contiguous_regions(mask):
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


def _checked_batches(g, tally):
    """g, with its (k, 2) -> (k,) contract checked on every call; tally counts
    the calls and the points sent, as [calls, points]."""

    def evaluate(points):
        tally[0] += 1
        tally[1] += points.shape[0]
        values = np.asarray(g(points))
        if values.shape != points.shape[:1]:
            raise ValueError(f"covariogram evaluator returned shape {values.shape} "
                             f"for {points.shape[0]} points, expected ({points.shape[0]},)")
        return values

    return evaluate


def determination_experiment(g_a, g_b, u_grid=None, config=None):
    """Re-enact the uniqueness pipeline on two black-box covariogram evaluators.

    Each evaluator takes a batch of points, an array of shape (k, 2), and
    returns g at those points, an array of shape (k,); any other shape raises
    ValueError.  Points are sent in batches: the radial extents of all
    directions bisect together, each cap fit takes one call for its depth
    ladder and one for its stencil, and each region's line integrals one.

    Recovers the support and the per-direction curvature pairs from each
    evaluator, then compares the sign structure of the g-transform zero
    branches region by region, requiring a single global relation.  Since the
    covariogram itself is invariant under reflection of the body, pointwise
    equal inputs always resolve to identical-up-to-translation.

    details carries g_calls and g_points, the calls made to each evaluator
    and the points sent to it, as [for g_a, for g_b].
    """
    cfg = config or DeterminationConfig()
    tally_a, tally_b = [0, 0], [0, 0]
    g_a, g_b = _checked_batches(g_a, tally_a), _checked_batches(g_b, tally_b)

    def verdict(outcome, *fields, **extra):
        details.update(extra, g_calls=[tally_a[0], tally_b[0]],
                       g_points=[tally_a[1], tally_b[1]])
        return DeterminationVerdict(outcome, tuple(thetas), *fields, details)

    if u_grid is None:
        thetas = np.linspace(0.0, 2.0 * math.pi, cfg.n_dirs, endpoint=False)
    else:
        thetas = np.asarray([u.theta for u in u_grid])
    fine = np.linspace(0.0, 2.0 * math.pi, cfg.extent_dirs, endpoint=False)
    rad_a = _radial_table(g_a, fine)
    rad_b = _radial_table(g_b, fine)
    scale = max(rad_a.max(), rad_b.max())
    details = {"radial_max_dev": float(np.abs(rad_a - rad_b).max() / scale)}
    if details["radial_max_dev"] > RADIAL_TOL:
        return verdict("distinct", (), (), (), reason="support mismatch")

    def pair(g, radial, u):
        h, anchor = _support_from_radial(radial, fine, u.u)
        return cap_pair(g, anchor, u, 2e-2 * h).values

    pairs_a, pairs_b = [], []
    failures = 0
    for th in thetas:
        u = Direction(float(th))
        try:
            pairs_a.append(pair(g_a, rad_a, u))
            pairs_b.append(pair(g_b, rad_b, u))
        except FitFailed:
            failures += 1
            pairs_a.append(None)
            pairs_b.append(None)
    if failures > FIT_FAIL_FRAC * len(thetas):
        raise Inconclusive(f"curvature fit failed on {failures}/{len(thetas)} directions")
    pair_dev = 0.0
    ratios = np.zeros(len(thetas))
    for i, (pa, pb) in enumerate(zip(pairs_a, pairs_b)):
        if pa is None or pb is None:
            continue
        pair_dev = max(pair_dev,
                       abs(pa[0] - pb[0]) / pb[0], abs(pa[1] - pb[1]) / pb[1])
        ratios[i] = math.log(pa[1] / pa[0])
    details["pair_max_dev"] = float(pair_dev)
    if pair_dev > PAIR_REL_TOL:
        return verdict("distinct", tuple(pairs_a), tuple(pairs_b), (),
                       reason="curvature pairs mismatch")
    regions = _contiguous_regions(ratios > RATIO_THRESHOLD)
    regions = regions[: cfg.max_regions_checked]
    relations = []
    for run in regions:
        rep = run[len(run) // 2]
        u = Direction(float(thetas[rep]))
        w_a, _ = _support_from_radial(rad_a, fine, u.u)
        w_b, _ = _support_from_radial(rad_b, fine, u.u)
        guess = ratios[rep] / (2.0 * w_a)
        im_a = _gtransform_im(g_a, rad_a, fine, u, w_a, guess, cfg)
        im_b = _gtransform_im(g_b, rad_b, fine, u, w_b, guess, cfg)
        if abs(im_a) < 1e-3 or abs(im_b) < 1e-3:
            continue
        relations.append(1 if (im_a > 0) == (im_b > 0) else -1)
    details["regions_checked"] = len(relations)
    if relations and all(r == -1 for r in relations):
        outcome = "reflection-needed"
    elif any(r == -1 for r in relations):
        raise Inconclusive("mixed sign assignment across regions")
    else:
        outcome = "identical-up-to-translation"
    return verdict(outcome, tuple(pairs_a), tuple(pairs_b), tuple(relations))
