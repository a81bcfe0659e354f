"""Experiment drivers: Kobayashi reports, zero-set unions, counterexamples, determination."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from covario._parallel import parallel_map, thread_count
from covario._quadrature import gauss_legendre, panel_table
from covario.covariogram import FitFailed, cap_pairs, cross_covariogram_grid
from covario.fourier_laplace import (
    CONTOUR_START,
    _multiple_zero,
    _raise_first,
    _track,
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


SWEEP_BLOCK_POINTS = 2 ** 16  # most contour start points of one kobayashi_report block


def _track_directions(body, m_list, max_zeta, u_block):
    """Branches m_list along each direction of a block, one list per
    direction, from one _track pass over the block's contexts; module level
    so that worker processes can unpickle it."""
    return _track([build_context(body, u, max_abs_zeta=max_zeta) for u in u_block], m_list)


def _sweep_blocks(u_list, n_m):
    """u_list cut into contiguous blocks of near-equal size: one per worker
    of thread_count(), and more only where a block would otherwise hold
    more than SWEEP_BLOCK_POINTS contour start points, 4 CONTOUR_START + 1
    per branch; then as many for each worker."""
    per = max(1, SWEEP_BLOCK_POINTS // (n_m * (4 * CONTOUR_START + 1)))
    workers = min(thread_count(), len(u_list))
    count = min(len(u_list), -(-len(u_list) // (per * workers)) * workers)
    return [u_list[i * len(u_list) // count:(i + 1) * len(u_list) // count] for i in range(count)]


def kobayashi_report(body, m_range, u_grid):
    """Track branches over (m, u), compare with predicted centers, fit the decay."""
    if isinstance(body, Polygon):
        return KobayashiReport(body_hash(body), (), (), np.zeros((0, 0)),
                               np.zeros(0), np.zeros(0), math.nan, math.nan,
                               flags=("non-C2plus-input",))
    m_list = list(m_range)
    u_list = list(u_grid)
    max_zeta = sweep_bound(body, u_list, max(m_list))
    blocks = parallel_map(partial(_track_directions, body, m_list, max_zeta),
                          _sweep_blocks(u_list, len(m_list)))
    columns = [col for block in blocks for col in block]
    zeta, center = np.array([[(br.zeta, br.predicted_center) for br in col] for col in columns]).T
    w = np.array([width(body, u) for u in u_list])
    target = np.array([math.log(curvature(body, u.antipode())) - math.log(curvature(body, u))
                       for u in u_list])
    dev = np.hypot((zeta - center).real, (zeta - center).imag)  # as br.deviation, bit for bit
    im_err = np.abs(zeta.imag * 2.0 * w - target)
    re_err = np.abs(zeta.real * 2.0 * w / math.pi - (4 * np.array(m_list)[:, None] + 1))
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
    """One branch F_m: located holds the distinct g-transform zeros reached from
    F_m and conj F_m, and multiplicity counts the zeros in F_m +- pi/(2w) +- i h.
    Where |Im F_m| >= 0.25/w, h = 1.2 |Im F_m| leaves conj F_m out; elsewhere
    h = 0.5/w holds it too, so a real double zero or a simple pair counts 2."""

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


def _mirrored_table(nodes, amplitudes):
    """(derivative_rows(..., 2), nodes) of an even integrand's half-line table
    mirrored to -t: the g-transform and its first two derivatives."""
    nodes = np.concatenate([nodes, -nodes])
    return derivative_rows(nodes, np.tile(amplitudes, 2), 2), nodes


def zero_union_check(body, u: Direction, m_range):
    """Zeros of the g_K ray transform against the branch set {F_m, conj F_m}.

    The transform of g_K on the ray factors as flt(zeta) * conj(flt(conj zeta)),
    so its zero set is the union of the branch set and its conjugate; each
    located zero must match a member within MATCH_TOL.  Each step is one array
    pass over all branches; _multiple_zero starts from every F_m and conj F_m.
    """
    m_list = list(m_range)
    max_zeta = sweep_bound(body, [u], max(m_list))
    ctx = build_context(body, u, max_abs_zeta=max_zeta)
    table, nodes = _mirrored_table(*autocorr_transform_table(body, u, max_zeta))
    f = np.array([branch.zeta for branch in track_branches(ctx, m_list)], dtype=complex)
    targets = np.stack([f, f.conj()], axis=1)
    z = _multiple_zero(table, nodes, targets.reshape(-1), ctx.im_cap).reshape(-1, 2)
    # moduli by np.hypot, bit for bit those of Python's abs, which np.abs is not
    gap = z[:, :, None] - targets[:, None, :]
    _raise_first(UnmatchedZero, np.hypot(gap.real, gap.imag).min(axis=2).reshape(-1) > MATCH_TOL,
                 lambda k: f"g-transform zero {z.flat[k]} matches no branch at m={m_list[k // 2]}")
    split = z[:, 1] - z[:, 0]
    distinct = np.hypot(split.real, split.imag) >= MATCH_TOL
    g = fourier_sum(table[0], nodes, f)
    resid = np.hypot(g.real, g.imag)
    _raise_first(UnmatchedZero, resid > RESIDUAL_TOL * area(body) ** 2,
                 lambda k: f"g-transform residual {resid[k]:.3e} at branch m={m_list[k]}")
    # multiplicity by argument principle on ZeroUnionRow's rectangles
    half_im = 0.5 / ctx.body_width
    half_im = np.where(np.abs(f.imag) >= 0.5 * half_im, 1.2 * np.abs(f.imag), half_im)
    mult = contour_winding(table[:2], nodes, f, math.pi / (2.0 * ctx.body_width), half_im)
    rows = tuple(ZeroUnionRow(m, complex(fm), tuple(map(complex, zm[:1 + d])), int(k), float(r))
                 for m, fm, zm, d, k, r in zip(m_list, f, z, distinct, mult, resid))
    return ZeroUnionReport(body_hash(body), u.theta, rows)


def _best_cyclic_distance(va, vb):
    if va.shape != vb.shape:
        return math.inf
    n = va.shape[0]
    return min(np.abs(np.roll(vb, k, axis=0) - va).max() for k in range(n))


ASSOCIATE_TOL = 1e-9          # largest vertex distance of trivially associated pairs
COUNTEREXAMPLE_GRID = (41, 41)
COUNTEREXAMPLE_TOL = 1e-9     # largest grid deviation of a reproduced counterexample


def trivial_associates(pair_a, pair_b):
    """Whether (H,K) and (H',K') coincide after a common translation, possibly
    combined with the swap (H,K) -> (-K,-H)."""
    h1, k1 = pair_a
    h2, k2 = pair_b
    # the same-order form (H,K) = (H'+x, K'+x), then the swapped form (-K'+x, -H'+x)
    for h, k in ((h2, k2), (reflect(k2), reflect(h2))):
        x = steiner_point(h1) - steiner_point(h)
        if (_best_cyclic_distance(h1.vertices, h.vertices + x) <= ASSOCIATE_TOL
                and _best_cyclic_distance(k1.vertices, k.vertices + x) <= ASSOCIATE_TOL):
            return True
    return False


@dataclass(frozen=True)
class CounterexampleReport:
    family: int
    max_deviation: float
    tolerance: float
    trivial: bool

    @property
    def passed(self):
        return self.max_deviation <= self.tolerance and not self.trivial


def crosscov_counterexample(family, params=None):
    """Grid equality of the two cross-covariograms of a parallelogram family,
    on the COUNTEREXAMPLE_GRID lattice of the first pair and to
    COUNTEREXAMPLE_TOL, plus the check that the pairs are not trivial
    associates."""
    if family not in (1, 3):
        raise ValueError("family must be 1 or 3 (compared against family+1)")
    params = dict(params or {})
    h1, k1 = example_pair(family, **params)
    h2, k2 = example_pair(family + 1, **params)
    nx, ny = COUNTEREXAMPLE_GRID
    g1 = cross_covariogram_grid(h1, k1, nx=nx, ny=ny)
    g2 = cross_covariogram_grid(h2, k2, nx=nx, ny=ny, bbox=g1.bbox)
    dev = float(np.abs(g1.values - g2.values).max())
    triv = trivial_associates((h1, k1), (h2, k2))
    return CounterexampleReport(family, dev, COUNTEREXAMPLE_TOL, triv)


# determination_experiment's decision thresholds
RADIAL_TOL = 5e-3        # relative support mismatch -> distinct
PAIR_REL_TOL = 0.15      # relative curvature-pair mismatch -> distinct
RATIO_THRESHOLD = 0.3    # min |ln(high/low)| for a sign region
SIGN_M = 5               # branch whose g-transform zero signs a region
FIT_FAIL_FRAC = 0.05     # largest share of directions whose pair fit may fail


@dataclass(frozen=True)
class DeterminationConfig:
    """Settings of determination_experiment.  The curvature pairs come from
    covariogram.cap_pairs with t_star = 5e-4 h(u), h the support of supp g,
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
    """Radial extent of supp g along each direction, all bisected together.

    Each call probes two bisection levels: the midpoint of every open bracket
    and both midpoints that can follow it.  Every probe is the 0.5 (lo + hi)
    that plain bisection would form, so the brackets are those of plain
    bisection, in half the calls.
    """
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
        a, b = lo[active], hi[active]
        mid = 0.5 * (a + b)
        probes = np.array([mid, 0.5 * (a + mid), 0.5 * (mid + b)])
        inside = (g((probes[:, :, None] * dirs[active]).reshape(-1, 2)) > 0).reshape(3, -1)
        a, b = np.where(inside[0], mid, a), np.where(inside[0], b, mid)
        # the second level, on the brackets that the first left open
        mid = np.where(inside[0], probes[2], probes[1])
        inside = np.where(inside[0], inside[2], inside[1])
        still_open = b - a > 1e-7 * np.maximum(b, 1.0)
        lo[active] = np.where(still_open & inside, mid, a)
        hi[active] = np.where(still_open & ~inside, mid, b)


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
    """Imaginary part of the g-transform zero near branch SIGN_M along u, from
    R_g(u, t), even in t, tabulated on [0, w_u]."""
    uv = u.u
    perp = u.perp
    zeta_c = math.pi * (4 * SIGN_M + 1) / (2.0 * w_u)
    t_nodes, t_weights = panel_table(0.0, w_u, [], order=cfg.t_order,
                                     max_freq=zeta_c + 2.0, osc_budget=30.0)
    smin, smax, miss = _segment_extents(radial, thetas, uv, t_nodes)
    r_vals = np.zeros_like(t_nodes)
    r_vals[~miss] = _line_integrals(g, uv, perp, t_nodes[~miss], smin[~miss], smax[~miss],
                                    cfg.s_order)
    table, nodes = _mirrored_table(t_nodes, t_weights * r_vals)
    cap = 3.0 * (abs(im_guess) + 1.0 / w_u)
    return _multiple_zero(table, nodes, np.array([complex(zeta_c, im_guess)]), cap)[0].imag


def _contiguous_regions(mask):
    """Maximal runs of True in a circular mask, as index tuples, in the order
    of their starts; a run across the end of the mask comes last."""
    mask = np.asarray(mask, dtype=bool)
    n = mask.size
    starts = np.flatnonzero(mask & ~np.roll(mask, 1))
    ends = np.flatnonzero(mask & ~np.roll(mask, -1))
    if not starts.size:  # all True or all False
        return [tuple(range(n))] if mask.any() else []
    ends = np.roll(ends, -int(ends[0] < starts[0]))  # the end of a run across the end goes last
    return [tuple((np.arange(s, e + 1 + n * (e < s)) % n).tolist()) for s, e in zip(starts, ends)]


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
    directions bisect together, two bisection levels per call; the depth
    ladders of all directions go in one call and their stencils in one more
    (covariogram.cap_pairs); each region's line integrals take one call.
    A direction whose cap fit fails on either evaluator fails for both.

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

    dirs = [Direction(float(th)) for th in thetas]

    def pairs(g, radial):
        fits = [_support_from_radial(radial, fine, u.u) for u in dirs]
        return cap_pairs(g, [anchor for _, anchor in fits], dirs, [5e-4 * h for h, _ in fits])

    # a direction fails when either fit fails
    pairs_a, pairs_b = [], []
    for pa, pb in zip(pairs(g_a, rad_a), pairs(g_b, rad_b)):
        failed = isinstance(pa, FitFailed) or isinstance(pb, FitFailed)
        pairs_a.append(None if failed else pa.values)
        pairs_b.append(None if failed else pb.values)
    failures = pairs_a.count(None)
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
        u = dirs[rep]
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
