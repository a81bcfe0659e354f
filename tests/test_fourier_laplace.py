import math

import numpy as np
import pytest
from quadrature_reference import chord_ray_table

from covario import fourier_laplace
from covario.fourier_laplace import (
    GAP_TOL,
    IM_CAP_FACTOR,
    KERNEL_BLOCK,
    MAX_REFINE_ROUNDS,
    SERIES_RADIUS,
    NewtonDiverged,
    PrecisionLoss,
    ValidationFailed,
    branch_sweep,
    build_context,
    contour_winding,
    derivative_rows,
    flt_ray,
    flt_ray_derivative,
    flt_ray_many,
    fourier_sum,
    kobayashi_center,
    track_zero,
    verify_factorization,
    verify_reflection_identity,
    winding_number,
)
from covario.geometry import Direction, Disk, Polygon, SupportBody, area
from covario.oracles import bessel_j1, bessel_j1_zero
from covario.radon import chord_autocorrelation

E1 = Direction(0.0)


def _nonagon():
    # nine points of an ellipse at seeded angles: a convex 9-gon
    ang = np.sort(np.random.default_rng(9).uniform(0.0, 2.0 * math.pi, 9))
    poly = Polygon(np.stack([1.1 * np.cos(ang) + 0.2, 0.8 * np.sin(ang) - 0.1], axis=1))
    assert poly.vertices.shape == (9, 2)
    return poly


RULE_BODIES = {
    "cw3": SupportBody(1.0, ((0.0, 0.0), (0.0, 0.0), (0.05, 0.0))),
    "harmonic4": SupportBody(1.0, ((0.02, 0.01), (0.03, -0.01), (0.01, 0.02), (-0.005, 0.008)),
                             center=(0.3, -0.2)),
    "disk": Disk((0.4, 0.1), 1.0),
    "nonagon": _nonagon(),
}


def _chord_deviation(ctx, zetas):
    """Largest |flt_ray_many - chord table| over zetas, relative to the
    Paley-Wiener bound area exp(|Im zeta| max |t|)."""
    nodes, amps = chord_ray_table(ctx.body, ctx.u, ctx.max_abs_zeta)
    scale = area(ctx.body) * np.exp(np.abs(zetas.imag) * max(abs(ctx.lo), abs(ctx.hi)))
    return float(np.max(np.abs(flt_ray_many(ctx, zetas) - fourier_sum(amps, nodes, zetas)) / scale))


def _box_zetas(ctx, n, seed):
    rng = np.random.default_rng(seed)
    return (rng.uniform(-ctx.max_abs_zeta, ctx.max_abs_zeta, n)
            + 1j * rng.uniform(-ctx.im_cap, ctx.im_cap, n))


def test_flt_at_zero_is_area(unit_square, unit_disk, cw3):
    for body in (unit_square, unit_disk, cw3, *RULE_BODIES.values()):
        ctx = build_context(body, Direction(0.4), max_abs_zeta=10.0)
        assert abs(flt_ray(ctx, 0.0) - area(body)) <= 1e-14 * area(body)


@pytest.mark.parametrize("name", sorted(RULE_BODIES))
def test_boundary_rule_matches_chord_table(name):
    body = RULE_BODIES[name]
    for k, theta in enumerate((0.4, 2.3)):
        ctx = build_context(body, Direction(theta), max_abs_zeta=130.0)
        assert ctx.quadrature_gap <= GAP_TOL * area(body) * math.exp(IM_CAP_FACTOR / 2.0)
        assert _chord_deviation(ctx, _box_zetas(ctx, 200, k)) <= 1e-12


@pytest.mark.parametrize("name", sorted(RULE_BODIES))
def test_boundary_rule_real_axis_accuracy(name):
    # the kept rule is the finer of its N vs ceil(5N/4) pair, so the real
    # axis, where flt and verify_factorization evaluate, is accurate to
    # rounding and not only to the gap tolerance
    body = RULE_BODIES[name]
    for max_abs_zeta in (50.0, 130.0):
        for theta in (0.4, 2.3):
            ctx = build_context(body, Direction(theta), max_abs_zeta=max_abs_zeta)
            xi = np.linspace(-max_abs_zeta, max_abs_zeta, 401).astype(complex)
            assert _chord_deviation(ctx, xi) <= 1e-14


def test_boundary_rule_node_count_cw3(cw3):
    # the chord panel table needs 896 nodes for the same box; the boundary
    # rule's first pair, 249 and ceil(5 * 249/4) = 312 nodes, passes its gap
    # check, and the 312-node rule is kept
    for theta in (0.0, 0.4, 1.3, 2.9):
        assert build_context(cw3, Direction(theta), max_abs_zeta=130.0).nodes.size <= 336


def test_build_context_evaluates_no_chord(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("build_context must not use the chord quadrature")

    monkeypatch.setattr(fourier_laplace, "chord_function", forbidden)
    monkeypatch.setattr(fourier_laplace, "panel_table", forbidden)
    for body in RULE_BODIES.values():
        ctx = build_context(body, Direction(1.1), max_abs_zeta=40.0)
        flt_ray_many(ctx, _box_zetas(ctx, 20, 0))


def test_boundary_rule_grows_until_gap_passes(cw3, monkeypatch):
    # start far too coarse: the rule grows by ceil(5N/4), 8 -> 10 -> 13 -> 17
    # -> ... -> 109 -> 137 -> 172 -> 215, and keeps the finer of the first
    # pair whose gap passes
    monkeypatch.setattr(fourier_laplace, "_rule_sizes", lambda body, u, zeta: 8)
    ctx = build_context(cw3, Direction(0.4), max_abs_zeta=60.0)
    assert ctx.nodes.size in (172, 215)
    assert ctx.quadrature_gap <= GAP_TOL * area(cw3) * math.exp(IM_CAP_FACTOR / 2.0)
    assert _chord_deviation(ctx, _box_zetas(ctx, 100, 3)) <= 1e-12


def test_boundary_rule_node_cap_raises_before_building(cw3, monkeypatch):
    built = []
    rule = fourier_laplace._boundary_rule

    def counting_rule(body, u, sizes):
        built.append(int(np.sum(sizes)))
        return rule(body, u, sizes)

    monkeypatch.setattr(fourier_laplace, "_boundary_rule", counting_rule)
    monkeypatch.setattr(fourier_laplace, "MAX_NODES", 64)
    for body in (cw3, RULE_BODIES["nonagon"]):
        built.clear()
        with pytest.raises(PrecisionLoss, match="more than 64 nodes"):
            build_context(body, Direction(0.4), max_abs_zeta=60.0)
        assert max(built, default=0) <= 64
    # a box far too wide for any rule raises before a single node is made
    monkeypatch.setattr(fourier_laplace, "MAX_NODES", 2 ** 20)
    built.clear()
    with pytest.raises(PrecisionLoss, match="nodes"):
        build_context(cw3, Direction(0.4), max_abs_zeta=1e8)
    assert built == []


@pytest.mark.parametrize("name", sorted(RULE_BODIES))
def test_flt_small_zeta_matches_moment_series(name):
    # the chord form's moment series sum_n (i zeta)^n / n! int S(t) t^n dt
    # needs no division by zeta; the boundary rule's G/(i zeta) would cancel
    body = RULE_BODIES[name]
    ctx = build_context(body, Direction(0.4), max_abs_zeta=10.0)
    nodes, amps = chord_ray_table(body, ctx.u, 10.0)
    mu = [float(amps @ nodes ** n) / math.factorial(n) for n in range(8)]
    for r in (1e-12, 1e-9, 1e-5, 1e-3):
        for zeta in (r, -r, r * complex(math.cos(0.7), math.sin(0.7))):
            iz = 1j * zeta
            value = sum(m * iz ** n for n, m in enumerate(mu))
            slope = sum(1j * n * m * iz ** (n - 1) for n, m in enumerate(mu) if n)
            assert abs(flt_ray(ctx, zeta) - value) <= 1e-14 * area(body)
            assert abs(flt_ray_derivative(ctx, zeta) - slope) <= 1e-14 * area(body)


@pytest.mark.parametrize("name", sorted(RULE_BODIES))
def test_flt_continuous_across_series_radius(name):
    body = RULE_BODIES[name]
    ctx = build_context(body, Direction(0.4), max_abs_zeta=10.0)
    edge = SERIES_RADIUS / (0.5 * ctx.body_width)
    zetas = np.array([edge * (1.0 - 1e-9), edge * (1.0 + 1e-9), -edge * (1.0 + 1e-9),
                      1j * edge * (1.0 - 1e-9), 1j * edge * (1.0 + 1e-9)])
    assert _chord_deviation(ctx, zetas) <= 1e-14


def test_flt_square_sinc_zero(centered_square):
    ctx = build_context(centered_square, E1, max_abs_zeta=30.0)
    assert abs(flt_ray(ctx, 2.0 * math.pi)) < 1e-13


def test_flt_disk_bessel_value(unit_disk):
    ctx = build_context(unit_disk, E1, max_abs_zeta=10.0)
    target = 2.0 * math.pi * bessel_j1(3.0) / 3.0
    assert abs(flt_ray(ctx, 3.0) - target) < 1e-12


def test_flt_derivative(unit_disk, centered_square):
    ctx = build_context(centered_square, E1, max_abs_zeta=10.0)
    assert abs(flt_ray_derivative(ctx, 0.0)) < 1e-13  # odd integrand for symmetric body
    ctx_d = build_context(unit_disk, E1, max_abs_zeta=10.0)
    h = 1e-5
    oracle = (2 * math.pi) * (bessel_j1(3 + h) / (3 + h) - bessel_j1(3 - h) / (3 - h)) / (2 * h)
    assert abs(flt_ray_derivative(ctx_d, 3.0) - oracle) < 1e-9
    rng = np.random.default_rng(0)
    for _ in range(20):
        z = complex(rng.uniform(-8, 8), rng.uniform(-2, 2))
        fd = (flt_ray(ctx_d, z + h) - flt_ray(ctx_d, z - h)) / (2 * h)
        dv = flt_ray_derivative(ctx_d, z)
        assert abs(dv - fd) < 1e-7 * max(1.0, abs(dv))


def test_fourier_sum_blocks_match_one_shot_product(cw3):
    ctx = build_context(cw3, Direction(0.4), max_abs_zeta=40.0)
    per_block = KERNEL_BLOCK // ctx.nodes.size
    rng = np.random.default_rng(5)
    n = 3 * per_block + 7  # three full blocks and a partial one
    zetas = (rng.uniform(-40.0, 40.0, n) + 1j * rng.uniform(-2.0, 2.0, n)).reshape(-1, 1)
    one_shot = (np.exp(1j * np.outer(zetas.ravel(), ctx.nodes)) @ ctx.rows.T).T
    got = fourier_sum(ctx.rows, ctx.nodes, zetas)
    assert got.shape == (2,) + zetas.shape
    scale = np.abs(ctx.rows).sum(axis=1, keepdims=True) * math.exp(2.0 * max(-ctx.lo, ctx.hi))
    assert np.all(np.abs(got.reshape(2, -1) - one_shot) <= 1e-13 * scale)
    assert fourier_sum(ctx.rows[0], ctx.nodes, zetas[0, 0]).shape == ()


def test_precision_loss_cap(unit_disk):
    ctx = build_context(unit_disk, E1, max_abs_zeta=10.0)
    with pytest.raises(PrecisionLoss):
        flt_ray(ctx, complex(1.0, ctx.im_cap + 1.0))
    # the gap check certifies |Re zeta| <= max_abs_zeta only
    with pytest.raises(PrecisionLoss, match="Re zeta"):
        flt_ray(ctx, complex(10.5, 0.0))
    with pytest.raises(PrecisionLoss, match="Re zeta"):
        flt_ray_derivative(ctx, -10.5)
    with pytest.raises(PrecisionLoss, match="Re zeta"):
        flt_ray_many(ctx, np.array([0.0, 3.0, -11.0]))
    corners = np.array([complex(10.0, ctx.im_cap), complex(-10.0, -ctx.im_cap)])
    assert np.all(np.isfinite(flt_ray_many(ctx, corners)))


def test_kobayashi_center_values(unit_disk, cw3):
    assert abs(kobayashi_center(unit_disk, 1, E1) - 5 * math.pi / 4) < 1e-14
    c = kobayashi_center(cw3, 1, E1)
    assert abs(c.real - 5 * math.pi / 4) < 1e-12
    expected_im = (math.log(1 / 1.4) - math.log(1 / 0.6)) / 4.0
    assert abs(c.imag - expected_im) < 1e-12
    assert abs(c.imag + 0.21182) < 1e-4
    assert kobayashi_center(unit_disk, 7, Direction(1.1)).imag == 0.0


def test_track_zero_disk(unit_disk):
    ctx = build_context(unit_disk, E1, max_abs_zeta=70.0)
    for m in (1, 5):
        br = track_zero(ctx, m)
        assert abs(br.zeta - bessel_j1_zero(m)) < 1e-9
        assert br.validated
        assert br.residual <= 1e-9 * abs(flt_ray_derivative(ctx, br.zeta))
    assert abs(track_zero(ctx, 1).deviation - 0.0953) < 1e-3


@pytest.mark.parametrize("cx", [28.0, 50.0, 100.0])
def test_track_zero_translated_disk(cx):
    # Newton on the uncentred transform exp(i cx zeta) F0 diverged here for
    # the first m = 2, 4 and 8 branches
    ctx = build_context(Disk((cx, 0.0), 1.0), E1, max_abs_zeta=40.0)
    for m in range(1, 9):
        br = track_zero(ctx, m)
        assert abs(br.zeta - bessel_j1_zero(m)) < 1e-9
        assert br.validated


def test_track_zero_square_control(centered_square):
    # non-C2+ control case: zeros of the separable sinc at exactly 2 pi m
    ctx = build_context(centered_square, E1, max_abs_zeta=70.0)
    for m in (1, 2, 5):
        br = track_zero(ctx, m, start=2.0 * math.pi * m + 0.3)
        assert abs(br.zeta - 2.0 * math.pi * m) < 1e-10
        assert abs(br.zeta.imag) < 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_multiple_zero_adapter(k):
    # the rows of (1 - exp(i zeta))^k: nodes 0..k, binomial amplitudes with
    # alternating signs, and a k-fold zero at 2 pi.  The sum's rounding,
    # about 2^k eps, blurs a k-fold zero over about (2^k eps)^(1/k)
    nodes = np.arange(k + 1.0)
    amps = np.array([(-1.0) ** j * math.comb(k, j) for j in range(k + 1)])
    z = fourier_laplace._multiple_zero(derivative_rows(nodes, amps, 2), nodes,
                                       complex(2.0 * math.pi + 0.3, 0.1), 1.0)
    blur = 10.0 * (2.0 ** k * np.finfo(float).eps) ** (1.0 / k)
    assert abs(z - 2.0 * math.pi) <= max(1e-12, blur)


@pytest.mark.parametrize("pair", [(math.nan, 1.0), (1.0, math.nan), (1.0, 0.0)])
def test_newton_raises_on_bad_values(pair):
    evaluated = []

    def values(z):
        evaluated.append(z)
        return complex(pair[0]), complex(pair[1])

    with pytest.raises(NewtonDiverged):
        fourier_laplace._newton(values, 1.0 + 1.0j, lambda z: True)
    assert evaluated == [1.0 + 1.0j]


def test_newton_raises_when_no_candidate_is_inside():
    evaluated = []

    def square(z):
        evaluated.append(z)
        return z * z - 4.0, 2.0 * z

    with pytest.raises(NewtonDiverged, match="damping failed"):
        fourier_laplace._newton(square, 1.0 + 1.0j, lambda z: False)
    assert evaluated == [1.0 + 1.0j]


def test_winding_number_counts(unit_disk):
    ctx = build_context(unit_disk, E1, max_abs_zeta=30.0)
    j1, j2 = bessel_j1_zero(1), bessel_j1_zero(2)
    assert winding_number(ctx, complex(j1, 0.0), 0.5, 0.3) == 1
    mid = 0.5 * (j1 + j2)
    assert winding_number(ctx, complex(mid, 0.0), 0.7 * (j2 - j1), 0.3) == 2
    assert winding_number(ctx, complex(mid, 0.0), 0.2, 0.2) == 0


def test_contour_winding_counts_powers():
    for k in range(4):
        assert contour_winding(lambda z, k=k: z ** k, 0j, 1.0, 1.0) == k


def test_contour_winding_refines_coarse_steps():
    evaluated = []

    def f(z):
        evaluated.append(len(z))
        return z ** 5

    # on an 8 x 2 rectangle z**5 turns by about 4 rad across each starting step
    # next to the imaginary axis, so the count needs bisection
    assert contour_winding(f, 0j, 4.0, 1.0) == 5
    assert evaluated[0] == 33 and len(evaluated) > 1


def test_contour_winding_zero_on_contour():
    # the first corner 1 + 1j is a contour point
    with pytest.raises(ValidationFailed, match="vanishes"):
        contour_winding(lambda z: z - (1.0 + 1.0j), 0j, 1.0, 1.0)


def test_contour_winding_unresolved_raises():
    evaluated = []

    def jump(z):
        evaluated.append(len(z))
        return np.where(z.real > 0.3, 1.0, -1.0).astype(complex)

    # the sign jump at Re z = 0.3 stays a step of pi however fine the contour
    with pytest.raises(ValidationFailed, match="unresolved"):
        contour_winding(jump, 0j, 1.0, 1.0)
    assert len(evaluated) == 1 + MAX_REFINE_ROUNDS


WIDE_CENTERS = (complex(0.3, 0.05), complex(7.9, -0.2), complex(-31.4, 0.3), complex(55.0, 0.1))


# flt_ray_many rounds the phase s_j zeta of each node to about eps |s_j zeta|.
# On the disk centred at 28 that error of the reference alone passes 1e-13
# of |F| on the contour about -10.2 + 0.3i, so its centers stay below 9.
@pytest.mark.parametrize("name, centers", [
    ("cw3", WIDE_CENTERS),
    ("disk28", (complex(0.3, 0.05), complex(3.8, 0.0), complex(7.9, -0.2), complex(-8.6, 0.3))),
    ("nonagon", WIDE_CENTERS),
])
def test_contour_start_matches_transform(name, centers, monkeypatch):
    # the shift-theorem start values equal exp(-i c zeta) F from flt_ray_many;
    # the first center's contour enters the moment-series disc
    body = Disk((28.0, 0.0), 1.0) if name == "disk28" else RULE_BODIES[name]
    ctx = build_context(body, Direction(0.4), max_abs_zeta=60.0)
    w, c = ctx.body_width, 0.5 * (ctx.lo + ctx.hi)
    half_re, half_im = math.pi / (2.0 * w), 0.5 / w
    offsets = fourier_laplace._contour_offsets(half_re, half_im)
    assert ctx.contour_tables == {}

    def centred(z):
        return flt_ray_many(ctx, z) * np.exp(-1j * c * z)

    for center in centers:
        z = center + offsets
        assert np.any(np.abs(z) * 0.5 * w <= SERIES_RADIUS) == (center.real == 0.3)
        direct = centred(z)
        start = fourier_laplace._contour_start(ctx, centred, center, half_re, half_im)
        assert np.all(np.abs(start - direct) <= 1e-13 * np.abs(direct))
    assert list(ctx.contour_tables) == [(half_re, half_im)]
    # winding_number takes every start point from the table: flt_ray_many
    # sees only refinement midpoints
    seen = []
    many = fourier_laplace.flt_ray_many
    monkeypatch.setattr(fourier_laplace, "flt_ray_many",
                        lambda ctx, z: seen.extend(np.ravel(z)) or many(ctx, z))
    center = centers[-1]
    winding_number(ctx, center, half_re, half_im)
    assert not set(seen) & set(center + offsets)


def test_contour_start_table_stays_within_kernel_block(cw3, monkeypatch):
    # a context whose table would hold more than KERNEL_BLOCK entries builds
    # none and evaluates its start points through flt_ray_many
    monkeypatch.setattr(fourier_laplace, "KERNEL_BLOCK", 1024)
    ctx = build_context(cw3, Direction(0.4), max_abs_zeta=40.0)
    assert ctx.nodes.size * 33 > 1024
    assert fourier_laplace._contour_start(ctx, flt_ray_many, 10.0, 0.5, 0.25) is None
    assert track_zero(ctx, 5).validated
    assert ctx.contour_tables == {}


def test_track_zero_one_kernel_call_per_candidate(cw3, monkeypatch):
    # each Newton candidate gets F and F' from one fourier_sum, and the
    # converged point's serve the residual check, so no point is evaluated twice
    ctx = build_context(cw3, Direction(0.4), max_abs_zeta=100.0)
    kernel, transform = fourier_laplace.fourier_sum, fourier_laplace._transform
    sums, candidates = [], []

    def counting_sum(rows, nodes, zetas):
        if np.ndim(zetas) == 0:
            sums.append((complex(zetas), rows.shape[0]))
        return kernel(rows, nodes, zetas)

    def counting_transform(ctx, zetas, order):
        if np.ndim(zetas) == 0:
            candidates.append(complex(zetas))
        return transform(ctx, zetas, order)

    monkeypatch.setattr(fourier_laplace, "fourier_sum", counting_sum)
    monkeypatch.setattr(fourier_laplace, "_transform", counting_transform)
    for m in (3, 12, 25):
        sums.clear()
        candidates.clear()
        br = track_zero(ctx, m)
        assert len(candidates) >= 3
        assert sums == [(z, 2) for z in candidates]
        assert candidates[0] == br.predicted_center
        assert len(set(candidates)) == len(candidates)
        assert candidates.count(br.zeta) == 1
        # a later candidate can only be a sub-tolerance step that did not lower |F|
        tol = 1e-12 * (1.0 + abs(br.zeta))
        later = candidates[candidates.index(br.zeta) + 1:]
        assert all(abs(z - br.zeta) <= tol for z in later)


def test_winding_disk_first_five_bessel_zeros(unit_disk):
    ctx = build_context(unit_disk, E1, max_abs_zeta=30.0)
    lo, hi = bessel_j1_zero(1) - 1.0, bessel_j1_zero(5) + 1.0
    assert hi < bessel_j1_zero(6)
    assert winding_number(ctx, complex(0.5 * (lo + hi), 0.0), 0.5 * (hi - lo), 0.5) == 5


@pytest.mark.parametrize("cx", [10.0, 28.0, 30.0])
def test_winding_translated_disk(cx):
    # translation multiplies the transform by exp(i cx zeta), which turns by cx
    # per unit of Re zeta but moves no zero
    ctx = build_context(Disk((cx, 0.0), 1.0), E1, max_abs_zeta=30.0)
    for m in range(1, 6):
        # the rectangle track_zero validates with: half-sides pi/(2w), 0.5/w
        assert winding_number(ctx, complex(bessel_j1_zero(m), 0.0), math.pi / 4.0, 0.25) == 1
    lo, hi = bessel_j1_zero(1) - 1.0, bessel_j1_zero(5) + 1.0
    assert winding_number(ctx, complex(0.5 * (lo + hi), 0.0), 0.5 * (hi - lo), 0.5) == 5


def test_branch_sweep_disk_constant(unit_disk):
    grid = [Direction(float(t)) for t in np.linspace(0, 2 * math.pi, 12, endpoint=False)]
    rows = branch_sweep(unit_disk, grid, [3])
    zs = np.array([r.zeta for r in rows])
    assert np.abs(zs - zs[0]).max() <= 1e-8
    assert all(r.validated for r in rows)


def test_branch_sweep_narrow_disk():
    # width 0.1: track_zero's validation contour reaches pi/(2w) = 15.7 past
    # each zero, beyond a fixed margin of 10 past the farthest predicted center
    disk = Disk((0.3, -0.2), 0.05)
    grid = [Direction(float(t)) for t in np.linspace(0, 2 * math.pi, 4, endpoint=False)]
    rows = branch_sweep(disk, grid, [1, 2, 3])
    assert all(r.validated for r in rows)
    for r in rows:
        assert abs(r.zeta - bessel_j1_zero(r.m) / 0.05) <= 1e-9 * abs(r.zeta)


def test_branch_sweep_cw3_symmetry(cw3):
    grid = [Direction(float(t)) for t in np.linspace(0, 2 * math.pi, 24, endpoint=False)]
    rows = branch_sweep(cw3, grid, [10])
    ims = np.array([r.zeta.imag for r in rows])
    # cos(3 theta) symmetry of the curvature ratio: period 2 pi / 3 = 8 grid steps
    assert np.abs(ims - np.roll(ims, 8)).max() < 1e-9
    assert np.abs(ims).max() > 0.05  # branches genuinely leave the real axis


def test_branch_real_parts_increase(cw3):
    ctx = build_context(cw3, Direction(0.3), max_abs_zeta=80.0)
    res = [track_zero(ctx, m).zeta.real for m in range(5, 16)]
    assert all(b > a for a, b in zip(res[:-1], res[1:]))


def test_antipodal_branch_identity(cw3):
    # the gamma = -1 zero along u coincides with -F_m(-u)
    u = Direction(0.4)
    ctx_u = build_context(cw3, u, max_abs_zeta=40.0)
    ctx_mu = build_context(cw3, u.antipode(), max_abs_zeta=40.0)
    f_mu = track_zero(ctx_mu, 7).zeta
    neg = track_zero(ctx_u, 7, start=-f_mu).zeta
    assert abs(neg - (-f_mu)) < 1e-9


def test_reflection_identity_random_polygon(make_polygon):
    rng = np.random.default_rng(1)
    poly = make_polygon(rng)
    rep = verify_reflection_identity(poly, seed=2)
    assert rep.passed


def test_reflection_symmetric_body_real_on_axis(centered_square):
    ctx = build_context(centered_square, E1, max_abs_zeta=40.0)
    for xi in np.linspace(0.5, 30.0, 20):
        assert abs(flt_ray(ctx, xi).imag) < 1e-12


def test_zero_set_conjugate_symmetry(cw3):
    # if flt(z*) = 0 then flt(-conj z*) = 0 on the same ray
    ctx = build_context(cw3, Direction(0.9), max_abs_zeta=40.0)
    z = track_zero(ctx, 6).zeta
    assert abs(flt_ray(ctx, -z.conjugate())) < 1e-10


def test_paley_wiener_growth(cw3, unit_square):
    rng = np.random.default_rng(3)
    for body in (cw3, unit_square):
        ctx = build_context(body, Direction(0.2), max_abs_zeta=60.0)
        h_bound = max(abs(ctx.lo), abs(ctx.hi))
        for _ in range(40):
            z = complex(rng.uniform(-50, 50), rng.uniform(-ctx.im_cap, ctx.im_cap))
            bound = area(body) * math.exp(h_bound * abs(z.imag))
            assert abs(flt_ray(ctx, z)) <= bound * (1.0 + 1e-9)


def test_factorization_identity(unit_disk, centered_square):
    # xi = 0: both sides equal area^2
    xi = np.array([0.0])
    rep = verify_factorization(unit_disk, E1, xi)
    assert rep.passed
    ac0 = chord_autocorrelation(unit_disk, E1, 0.0)
    ctx = build_context(centered_square, E1, max_abs_zeta=10.0)
    assert abs(abs(flt_ray(ctx, 2 * math.pi)) ** 2) < 1e-20
    xi = np.linspace(0.0, 50.0, 256)
    rep = verify_factorization(unit_disk, E1, xi)
    assert rep.max_deviation <= 1e-6


def test_validation_failure_reported(unit_disk):
    # force a start so far off that Newton lands on a different branch; the
    # branch is returned, validated around the zero it converged to
    ctx = build_context(unit_disk, E1, max_abs_zeta=70.0)
    br = track_zero(ctx, 2, start=bessel_j1_zero(3) + 0.01)
    assert abs(br.zeta - bessel_j1_zero(3)) < 1e-8  # converged to the m=3 zero
    assert br.validated  # winding is still 1 around that zero


def test_deviation_decay_slope(unit_disk):
    ctx = build_context(unit_disk, E1, max_abs_zeta=135.0)
    devs = [track_zero(ctx, m).deviation for m in range(2, 41)]
    slope = np.polyfit(np.log(np.arange(2, 41)), np.log(devs), 1)[0]
    assert -1.3 <= slope <= -0.7
