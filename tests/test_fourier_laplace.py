import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from quadrature_reference import chord_ray_table, full_line_autocorr_table

from covario import fourier_laplace
from covario.asymptotics import kobayashi_report
from covario.fourier_laplace import (
    KERNEL_BLOCK,
    MAX_REFINE_ROUNDS,
    SERIES_RADIUS,
    Expansion,
    autocorr_transform_table,
    NewtonDiverged,
    PrecisionLoss,
    ValidationFailed,
    build_context,
    contour_winding,
    derivative_rows,
    flt_ray,
    flt_ray_derivative,
    flt_ray_many,
    fourier_sum,
    kobayashi_center,
    sweep_bound,
    track_branches,
    track_zero,
    verify_factorization,
    verify_reflection_identity,
    winding_number,
)
from covario.geometry import Direction, Disk, Polygon, SupportBody, area
from covario.oracles import bessel_j1, bessel_j1_zero
from covario.radon import chord_autocorrelation_batch

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
        assert _chord_deviation(ctx, _box_zetas(ctx, 200, k)) <= 1e-12


@pytest.mark.parametrize("name", sorted(RULE_BODIES))
def test_boundary_rule_real_axis_accuracy(name):
    # the rule is sized for eps area on the whole box, so the real axis,
    # where flt and verify_factorization evaluate, is accurate to rounding
    body = RULE_BODIES[name]
    for max_abs_zeta in (50.0, 130.0):
        for theta in (0.4, 2.3):
            ctx = build_context(body, Direction(theta), max_abs_zeta=max_abs_zeta)
            xi = np.linspace(-max_abs_zeta, max_abs_zeta, 401).astype(complex)
            assert _chord_deviation(ctx, xi) <= 1e-14


# nodes of each body's rule at (max_abs_zeta, theta) when the rule grew from a
# start size until two rules agreed; sized from the error bounds it needs no more
RULE_NODE_CEILINGS = {
    "cw3": {50.0: (157, 157), 130.0: (312, 312)},
    "harmonic4": {50.0: (165, 165), 130.0: (322, 322)},
    "disk": {50.0: (108, 108), 130.0: (217, 217)},
    "nonagon": {50.0: (230, 220), 130.0: (360, 330)},
}


@pytest.mark.parametrize("name", sorted(RULE_BODIES))
@pytest.mark.parametrize("max_abs_zeta", [50.0, 130.0])
def test_boundary_rule_node_count(name, max_abs_zeta):
    # the chord panel table needs 896 nodes for cw3 at max_abs_zeta = 130
    for theta, ceiling in zip((0.4, 2.3), RULE_NODE_CEILINGS[name][max_abs_zeta]):
        ctx = build_context(RULE_BODIES[name], Direction(theta), max_abs_zeta=max_abs_zeta)
        assert ctx.nodes.size <= ceiling


def test_build_context_evaluates_no_chord(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("build_context must not use the chord quadrature")

    monkeypatch.setattr(fourier_laplace, "chord_function", forbidden)
    monkeypatch.setattr(fourier_laplace, "panel_table", forbidden)
    for body in RULE_BODIES.values():
        ctx = build_context(body, Direction(1.1), max_abs_zeta=40.0)
        flt_ray_many(ctx, _box_zetas(ctx, 20, 0))


def _counting_rule(monkeypatch, built):
    """Wrap _boundary_rule so that every rule it builds appends its node count to built."""
    rule = fourier_laplace._boundary_rule

    def counting_rule(body, u, max_abs_zeta, w):
        sizes, build = rule(body, u, max_abs_zeta, w)

        def counting_build(sizes):
            built.append(int(np.sum(sizes)))
            return build(sizes)

        return sizes, counting_build

    monkeypatch.setattr(fourier_laplace, "_boundary_rule", counting_rule)


def test_build_context_builds_one_rule(monkeypatch):
    # the sizes come from the error bounds, so no second rule is built to check the first
    built = []
    _counting_rule(monkeypatch, built)
    for body in RULE_BODIES.values():
        for max_abs_zeta in (10.0, 60.0, 130.0):
            built.clear()
            ctx = build_context(body, Direction(0.4), max_abs_zeta=max_abs_zeta)
            assert built == [ctx.nodes.size]


def test_boundary_rule_node_cap_raises_before_building(cw3, unit_square, monkeypatch):
    built = []
    _counting_rule(monkeypatch, built)
    monkeypatch.setattr(fourier_laplace, "MAX_NODES", 64)
    for body in (cw3, RULE_BODIES["nonagon"]):
        built.clear()
        with pytest.raises(PrecisionLoss, match="more than 64 nodes"):
            build_context(body, Direction(0.4), max_abs_zeta=60.0)
        assert max(built, default=0) <= 64
    # a box far too wide for any rule raises before a single node or
    # Gauss-Legendre table is made
    monkeypatch.setattr(fourier_laplace, "MAX_NODES", 2 ** 20)

    def forbidden(order):
        raise AssertionError(f"gauss_legendre({order}) called")

    monkeypatch.setattr(fourier_laplace, "gauss_legendre", forbidden)
    for body in (cw3, RULE_BODIES["nonagon"]):
        built.clear()
        with pytest.raises(PrecisionLoss, match="nodes"):
            build_context(body, Direction(0.4), max_abs_zeta=1e8)
        assert built == []
    # 1e5 on the unit square: about 1e5 nodes, below the cap, but two edges
    # need orders past sqrt(MAX_NODES) = 1024, each a q x q matrix
    with pytest.raises(PrecisionLoss, match="nodes"):
        build_context(unit_square, Direction(0.3), max_abs_zeta=1e5)
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


def test_fourier_sum_value_does_not_follow_its_call(cw3, monkeypatch):
    # a zeta's bits are the same summed alone, among 500 zetas, or in a call
    # that a smaller KERNEL_BLOCK splits into blocks of 7
    ctx = build_context(cw3, Direction(0.4), max_abs_zeta=40.0)
    rows = derivative_rows(ctx.nodes, ctx.rows[0], 27)
    rng = np.random.default_rng(11)
    zetas = rng.uniform(-40.0, 40.0, 500) + 1j * rng.uniform(-2.0, 2.0, 500)
    many = fourier_sum(rows, ctx.nodes, zetas)
    for k in (0, 123, 499):
        assert np.array_equal(fourier_sum(rows, ctx.nodes, zetas[k]), many[:, k])
    monkeypatch.setattr(fourier_laplace, "KERNEL_BLOCK", 7 * ctx.nodes.size)
    assert np.array_equal(fourier_sum(rows, ctx.nodes, zetas), many)


def test_fourier_sum_of_no_zetas(cw3):
    ctx = build_context(cw3, Direction(0.4), max_abs_zeta=40.0)
    assert fourier_sum(ctx.rows, ctx.nodes, np.array([])).shape == (2, 0)
    assert fourier_sum(ctx.rows, ctx.nodes, np.zeros((3, 0))).shape == (2, 3, 0)
    assert fourier_sum(ctx.rows[0], ctx.nodes, []).shape == (0,)


FOURIER_SUM_DIGEST = """
import hashlib
import numpy as np
from covario.fourier_laplace import fourier_sum
rng = np.random.default_rng(20)
nodes = rng.uniform(-1.0, 1.0, 20000)
rows = rng.standard_normal((2, 20000)) + 1j * rng.standard_normal((2, 20000))
zetas = rng.uniform(-30.0, 30.0, 40) + 1j * rng.uniform(-1.0, 1.0, 40)
print(hashlib.sha256(fourier_sum(rows, nodes, zetas).tobytes()).hexdigest())
"""


def test_fourier_sum_is_blas_thread_independent():
    # OpenBLAS splits a dot product of more than 10,000 entries across its
    # threads; a 20,000-node sum is summed in chunks too short for that
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    digests = {subprocess.run([sys.executable, "-c", FOURIER_SUM_DIGEST], capture_output=True,
                              check=True, env={**os.environ, "OPENBLAS_NUM_THREADS": blas,
                                               "PYTHONPATH": src + os.pathsep + path if path
                                               else src}).stdout for blas in ("1", "2")}
    assert len(digests) == 1


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


def test_disk_context_is_the_series_context():
    # a disk is the support body h = r: its boundary rule is that series' rule
    c, r, u = (0.3, -0.2), 1.3, Direction(0.4)
    disk = build_context(Disk(c, r), u, max_abs_zeta=40.0)
    series = build_context(SupportBody(r, (), c), u, max_abs_zeta=40.0)
    for name in ("nodes", "rows", "moments"):
        assert np.array_equal(getattr(disk, name), getattr(series, name))


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
    z, = fourier_laplace._multiple_zero(derivative_rows(nodes, amps, 2), nodes,
                                        np.array([complex(2.0 * math.pi + 0.3, 0.1)]), 1.0)
    blur = 10.0 * (2.0 ** k * np.finfo(float).eps) ** (1.0 / k)
    assert abs(z - 2.0 * math.pi) <= max(1e-12, blur)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_multiple_zero_array_equals_one_start_calls(k):
    # the rows of (1 - exp(i zeta))^k again: from an array of starts, near
    # the k-fold zeros at 0, 2 pi and 4 pi, each zero equals bit for bit the
    # zero of its one-start call
    nodes = np.arange(k + 1.0)
    table = derivative_rows(nodes, np.array([(-1.0) ** j * math.comb(k, j) for j in range(k + 1)]),
                            2)
    starts = np.array([2.0 * math.pi + 0.3 + 0.1j, 0.4 - 0.2j, 4.0 * math.pi - 0.5 + 0.3j,
                       2.0 * math.pi - 0.2 - 0.4j])
    zeros = fourier_laplace._multiple_zero(table, nodes, starts, 1.0)
    assert zeros.shape == starts.shape
    for start, z in zip(starts, zeros):
        assert fourier_laplace._multiple_zero(table, nodes, np.array([start]), 1.0).tolist() == [z]
    assert np.allclose(zeros, 2.0 * math.pi * np.array([1, 0, 2, 1]), atol=1e-4)


@pytest.mark.parametrize("pair", [(math.nan, 1.0), (1.0, math.nan), (1.0, 0.0)])
def test_newton_raises_on_bad_values(pair):
    # one start among good ones: the whole array pass raises after the one
    # evaluation of the starts, naming the bad start by its index
    starts = np.array([2.0 + 0.5j, 1.0 + 1.0j, 3.0 - 0.5j])
    evaluated = []

    def values(z, k):
        evaluated.append(z.copy())
        assert np.array_equal(k, np.arange(z.size))
        f, df = z * z - 4.0, 2.0 * z
        f[z == 1.0 + 1.0j], df[z == 1.0 + 1.0j] = pair
        return f, df

    with pytest.raises(NewtonDiverged) as info:
        fourier_laplace._newton(values, starts, lambda z: np.ones(z.shape, bool))
    assert info.value.index == 1
    assert len(evaluated) == 1 and np.array_equal(evaluated[0], starts)


def test_newton_raises_when_no_candidate_is_inside():
    evaluated = []

    def square(z, k):
        evaluated.append(z.copy())
        return z * z - 4.0, 2.0 * z

    with pytest.raises(NewtonDiverged, match="damping failed"):
        fourier_laplace._newton(square, np.array([1.0 + 1.0j]), lambda z: np.zeros(z.shape, bool))
    assert len(evaluated) == 1 and np.array_equal(evaluated[0], [1.0 + 1.0j])


def test_winding_number_counts(unit_disk):
    ctx = build_context(unit_disk, E1, max_abs_zeta=30.0)
    j1, j2 = bessel_j1_zero(1), bessel_j1_zero(2)
    assert winding_number(ctx, complex(j1, 0.0), 0.5, 0.3) == 1
    mid = 0.5 * (j1 + j2)
    assert winding_number(ctx, complex(mid, 0.0), 0.7 * (j2 - j1), 0.3) == 2
    assert winding_number(ctx, complex(mid, 0.0), 0.2, 0.2) == 0


def _power_rows(k, shift=0.0, offset=0.0):
    """Rows (a, i t a) and nodes t of exp(i offset zeta) (1 - exp(i (zeta - shift)))^k,
    which has a k-fold zero at every shift + 2 pi n."""
    nodes = offset + np.arange(k + 1.0)
    amps = np.array([math.comb(k, j) * (-np.exp(-1j * shift)) ** j for j in range(k + 1)])
    return derivative_rows(nodes, amps, 1), nodes


def test_contour_winding_counts_powers():
    for k in range(4):
        assert contour_winding(*_power_rows(k), 0j, 1.0, 1.0) == k
        assert contour_winding(*_power_rows(k), complex(2.0 * math.pi, 0.5), 1.0, 1.0) == k
        assert contour_winding(*_power_rows(k), complex(math.pi, 0.0), 1.0, 1.0) == 0


def _counting_sum(monkeypatch):
    """Record the zetas of each fourier_sum call."""
    calls = []
    kernel = fourier_laplace.fourier_sum

    def counting(rows, nodes, zetas):
        calls.append(np.ravel(zetas))
        return kernel(rows, nodes, zetas)

    monkeypatch.setattr(fourier_laplace, "fourier_sum", counting)
    return calls


def test_contour_winding_refines_coarse_steps(monkeypatch):
    # on an 8 x 2 rectangle the start steps of (1 - exp(i zeta))^5, 0.8 long
    # on the long sides, are too long for the step certificate; without an
    # expansion the contour sums directly: the first fourier_sum is of the
    # 41 start points and the second of the first round's bisection midpoints
    calls = _counting_sum(monkeypatch)
    assert contour_winding(*_power_rows(5), 0j, 4.0, 1.0) == 5
    starts = fourier_laplace._contour_offsets(4.0, 1.0)
    assert len(calls) > 2
    assert np.array_equal(calls[0], starts)
    assert set(calls[1]) <= set(0.5 * (starts[1:] + starts[:-1]))


def test_contour_winding_zero_on_contour():
    # the zero of 1 - exp(i zeta) at 0 is the rectangle's upper right corner
    with pytest.raises(ValidationFailed, match="vanishes"):
        contour_winding(*_power_rows(1), complex(-1.0, -1.0), 1.0, 1.0)


def test_contour_winding_unresolved_raises(monkeypatch):
    # the zero at 0 lies on the lower side a third of the way along, where no
    # bisection midpoint falls, and no step across it can be certified
    calls = _counting_sum(monkeypatch)
    with pytest.raises(ValidationFailed, match="unresolved"):
        contour_winding(*_power_rows(1), complex(1.0 / 3.0, 1.0), 1.0, 1.0)
    # one fourier_sum for the start values, then one per round, of its
    # midpoints
    assert len(calls) == MAX_REFINE_ROUNDS + 1


# (1 - exp(i zeta))^k about 0: steps that turn by nearly a multiple of 2 pi
# looked small to an argument-step rule, which counted 4, 3 and 3
@pytest.mark.parametrize("k, half_re, half_im, count", [
    (2, 10.0, 0.05, 6), (3, 10.0, 0.05, 9), (5, 4.0, 1.0, 5), (5, 1.0, 0.05, None),
])
def test_contour_winding_aliasing_cases(k, half_re, half_im, count):
    if count is None:
        # the zero at 0 is 0.05 from the long sides: more than 12 rounds
        with pytest.raises(ValidationFailed, match="unresolved"):
            contour_winding(*_power_rows(k), 0j, half_re, half_im)
    else:
        assert contour_winding(*_power_rows(k), 0j, half_re, half_im) == count


def _boundary_distance(p, center, half_re, half_im):
    x, y = abs(p.real - center.real), abs(p.imag - center.imag)
    if x < half_re and y < half_im:
        return min(half_re - x, half_im - y)
    return math.hypot(max(x - half_re, 0.0), max(y - half_im, 0.0))


@settings(deadline=None, max_examples=60, derandomize=True)
@given(st.integers(1, 3), st.floats(0.0, 60.0), st.floats(-math.pi, math.pi),
       st.floats(-0.3, 0.3), st.floats(-15.0, 15.0), st.floats(-0.5, 0.5),
       st.floats(0.2, 10.0), st.floats(0.1, 0.6))
def test_contour_winding_never_miscounts(k, top, shift_re, shift_im, c_re, c_im, half_re, half_im):
    # exp(i T zeta) (1 - exp(i (zeta - shift)))^k: a k-fold zero at each
    # shift + 2 pi n; the count is exact or the contour raises
    shift, center = complex(shift_re, shift_im), complex(c_re, c_im)
    zeros = [shift + 2.0 * math.pi * n for n in range(-5, 6)]
    assume(all(_boundary_distance(z, center, half_re, half_im) > 0.05 for z in zeros))
    inside = sum(abs(z.real - c_re) < half_re and abs(z.imag - c_im) < half_im for z in zeros)
    try:
        count = contour_winding(*_power_rows(k, shift, top), center, half_re, half_im)
    except ValidationFailed:
        return
    assert count == k * inside


WIDE_CENTERS = (complex(0.3, 0.05), complex(7.9, -0.2), complex(-31.4, 0.3), complex(55.0, 0.1))


@pytest.mark.parametrize("name, centers", [
    ("cw3", WIDE_CENTERS),
    ("disk28", WIDE_CENTERS),
    ("nonagon", WIDE_CENTERS),
])
def test_contour_start_matches_transform(name, centers, monkeypatch):
    # without an expansion the start values (f, f') of the centred sum
    # G_c = sum_j a_j exp(i (s_j - c) zeta) are one fourier_sum at the
    # contour points of all centers, equal to the sum at each center's own
    # points, and the counts equal those of one center at a time
    body = Disk((28.0, 0.0), 1.0) if name == "disk28" else RULE_BODIES[name]
    ctx = build_context(body, Direction(0.4), max_abs_zeta=60.0)
    w = ctx.body_width
    # the context holds the centred nodes t_j = s_j - c, c the support midpoint
    assert ctx.mid == 0.5 * (ctx.lo + ctx.hi) and np.all(np.abs(ctx.nodes) <= 0.5 * w + 1e-12)
    half_re, half_im = math.pi / (2.0 * w), 0.5 / w
    offsets, centers = fourier_laplace._contour_offsets(half_re, half_im), np.array(centers)
    points = (centers[:, None] + offsets).ravel()
    calls = _counting_sum(monkeypatch)
    counts = winding_number(ctx, centers, half_re, half_im)
    assert np.array_equal(calls[0], points)
    monkeypatch.setattr(fourier_laplace, "fourier_sum", fourier_sum)
    start = fourier_sum(ctx.rows, ctx.nodes, points)
    assert start.shape == (2, centers.size * offsets.size)
    start = start.reshape(2, centers.size, offsets.size)
    assert counts.shape == (len(centers),)
    for k, center in enumerate(centers):
        direct = fourier_sum(ctx.rows, ctx.nodes, center + offsets)
        scale = np.abs(ctx.rows).sum(axis=1, keepdims=True) * math.exp(0.5 * w * (abs(center.imag)
                                                                                 + half_im))
        assert np.all(np.abs(start[:, k] - direct) <= 1e-14 * scale)
        assert counts[k] == winding_number(ctx, center, half_re, half_im)
    # the first rectangle contains zeta = 0, the zero G_c adds to F
    assert abs(centers[0].real) < half_re and counts[0] == 0


class _ExpShapes:
    """numpy as fourier_laplace sees it, recording the shape of each np.exp argument."""

    def __init__(self):
        self.shapes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, *args, **kwargs):
        self.shapes.append(np.shape(x))
        return np.exp(x, *args, **kwargs)


def test_contour_start_table_stays_within_kernel_block(cw3, monkeypatch):
    ctx = build_context(cw3, Direction(0.4), max_abs_zeta=40.0)
    n, radius = ctx.nodes.size, fourier_laplace._branch_radius(ctx.body_width)
    centers = np.array(kobayashi_center(cw3, np.arange(1, 101), ctx.u))
    expected = Expansion.about(ctx.rows, ctx.nodes, centers, radius).coeffs
    branches = track_branches(ctx, range(1, 12))
    spy = _ExpShapes()
    # a block that just fits 41 centers: each exponential table of the
    # expansion's fourier_sum, (centers, n), holds at most KERNEL_BLOCK
    # entries, and the coefficients are the floats of one table
    monkeypatch.setattr(fourier_laplace, "KERNEL_BLOCK", n * 41)
    monkeypatch.setattr(fourier_laplace, "np", spy)
    assert np.array_equal(Expansion.about(ctx.rows, ctx.nodes, centers, radius).coeffs, expected)
    assert spy.shapes == [(41, n), (41, n), (18, n)]
    # one entry less: 40 centers a table
    monkeypatch.setattr(fourier_laplace, "KERNEL_BLOCK", n * 41 - 1)
    spy.shapes.clear()
    assert np.array_equal(Expansion.about(ctx.rows, ctx.nodes, centers, radius).coeffs, expected)
    assert spy.shapes == [(40, n), (40, n), (20, n)]
    # every branch of a context whose starts fill three tables is found as
    # before
    monkeypatch.setattr(fourier_laplace, "KERNEL_BLOCK", n * 4)
    monkeypatch.setattr(fourier_laplace, "np", np)
    assert track_branches(ctx, range(1, 12)) == branches


def test_contour_winding_bound_is_sign_aware():
    # exp(10 i zeta) (1 - exp(i zeta))^k about 2 pi + 0.3 i: the nodes 10..10+k
    # shrink as Im zeta grows, so |f''| is largest on the lower side, at
    # Im zeta = -0.2; the bound exp(max |t| max |Im zeta|) = exp(11 * 0.8) left
    # the contour unresolved
    center = complex(2.0 * math.pi, 0.3)
    assert contour_winding(*_power_rows(1, 0.0, 10.0), center, 1.0, 0.5) == 1
    assert contour_winding(*_power_rows(2, 0.0, 10.0), center, 1.0, 0.5) == 2
    # an array of centers counts each rectangle in one pass
    counts = contour_winding(*_power_rows(2, 0.0, 10.0), np.array([center, center + math.pi]),
                             1.0, 0.5)
    assert counts.tolist() == [2, 0]
    # and with one half-height per rectangle, each as its own scalar call
    centers = center + np.array([0.0, 0.0, math.pi, 2.0 * math.pi])
    half_im = np.array([0.5, 0.2, 0.5, 0.35])
    counts = contour_winding(*_power_rows(2, 0.0, 10.0), centers, 1.0, half_im)
    assert counts.tolist() == [contour_winding(*_power_rows(2, 0.0, 10.0), c, 1.0, h)
                               for c, h in zip(centers, half_im)] == [2, 0, 0, 2]


def test_winding_number_rectangle_leaving_box_raises(unit_disk):
    ctx = build_context(unit_disk, E1, max_abs_zeta=30.0)
    with pytest.raises(PrecisionLoss, match="Re zeta"):
        winding_number(ctx, complex(29.5, 0.0), 1.0, 0.3)
    with pytest.raises(PrecisionLoss, match="Im zeta"):
        winding_number(ctx, complex(5.0, ctx.im_cap - 0.1), 0.5, 0.3)


def test_track_zero_one_kernel_call_per_candidate(cw3, monkeypatch):
    # a _track makes one fourier_sum, of the expansion's 28 derivative rows
    # (order 27) at the starts; each Newton round gets (H, H') of every
    # moving candidate from its polynomials, with no kernel call, and the
    # converged points' values serve the residual check, so no point is
    # evaluated twice
    ctx = build_context(cw3, Direction(0.4), max_abs_zeta=100.0)
    kernel, transform = fourier_laplace.fourier_sum, fourier_laplace._centred_transform
    kernel_calls, rounds = [], []

    def counting_sum(rows, nodes, zetas):
        kernel_calls.append((np.array(zetas), rows.shape))
        return kernel(rows, nodes, zetas)

    def counting_transform(ctx, zetas, order, sums=None):
        before = len(kernel_calls)
        out = transform(ctx, zetas, order, sums)
        assert sums is not None and len(kernel_calls) == before
        rounds.append(np.array(zetas))
        return out

    monkeypatch.setattr(fourier_laplace, "fourier_sum", counting_sum)
    monkeypatch.setattr(fourier_laplace, "_centred_transform", counting_transform)
    for m_list in ([3], [12], [25], [3, 12, 25]):
        kernel_calls.clear()
        rounds.clear()
        branches = track_branches(ctx, m_list) if len(m_list) > 1 else [track_zero(ctx, m_list[0])]
        assert len(kernel_calls) == 1 and kernel_calls[0][1] == (28, ctx.nodes.size)
        assert np.array_equal(kernel_calls[0][0], [br.predicted_center for br in branches])
        assert len(rounds) >= 3
        assert np.array_equal(rounds[0], [br.predicted_center for br in branches])
        assert all(r.size <= len(m_list) for r in rounds)
        candidates = np.concatenate(rounds)
        assert np.unique(candidates).size == candidates.size
        for br in branches:
            own = candidates[np.abs(candidates - br.zeta) < math.pi / ctx.body_width]
            assert np.count_nonzero(own == br.zeta) == 1
            # a later candidate can only be a sub-tolerance step that did not lower |H|
            later = own[np.flatnonzero(own == br.zeta)[0] + 1:]
            assert np.all(np.abs(later - br.zeta) <= 1e-12 * (1.0 + abs(br.zeta)))


EXPANSION_BODIES = {
    "cw3": RULE_BODIES["cw3"],
    "harmonic4": RULE_BODIES["harmonic4"],
    "off-centre": SupportBody(1.0, ((0.0, 0.0), (0.03, 0.02), (0.05, 0.0)), center=(6.0, -4.0)),
    "disk": Disk((0.0, 0.0), 1.0),
}


@pytest.mark.parametrize("name", sorted(EXPANSION_BODIES))
def test_expansion_matches_direct_sum(name, monkeypatch):
    # at every Newton and contour point of the branches 2..40, on contexts at
    # their sweep bound, the expansion's (G_c, G_c') equal a direct
    # fourier_sum within 8 eps sum_j |a_j| e_j, e_j = |exp(i t_j zeta)| (and
    # |t_j a_j| for G_c'), an eighth of the winding floor; no point is
    # summed directly
    body = EXPANSION_BODIES[name]
    evaluate = Expansion.__call__
    seen = []

    def recording(self, z, owner):
        out = evaluate(self, z, owner)
        seen.append((np.array(z), out))
        return out

    monkeypatch.setattr(Expansion, "__call__", recording)
    worst = 0.0
    for theta in np.linspace(0.0, 2.0 * math.pi, 6, endpoint=False):
        u = Direction(float(theta))
        ctx = build_context(body, u, max_abs_zeta=sweep_bound(body, [u], 40))
        branch = Expansion.about(ctx.rows, ctx.nodes, [0j],
                                 fourier_laplace._branch_radius(ctx.body_width))
        assert branch.order == 27
        seen.clear()
        calls = _counting_sum(monkeypatch)
        track_branches(ctx, range(2, 41))
        monkeypatch.setattr(fourier_laplace, "fourier_sum", fourier_sum)
        assert len(calls) == 1 and len(seen) >= 4
        for z, out in seen:
            direct = fourier_sum(ctx.rows, ctx.nodes, z)
            scale = np.abs(ctx.rows) @ np.exp(-np.outer(ctx.nodes, z.imag))
            worst = max(worst, float(np.max(np.abs(out - direct) / scale)))
    assert worst <= 8.0 * np.finfo(float).eps


def test_expansion_sums_far_points_directly(cw3, monkeypatch):
    # a point farther than the radius from its center is summed directly,
    # never extrapolated: the only kernel call after the coefficients is at
    # the far points
    ctx = build_context(cw3, Direction(0.4), max_abs_zeta=60.0)
    centers = kobayashi_center(cw3, np.array([3, 8]), ctx.u)
    sums = Expansion.about(ctx.rows, ctx.nodes, centers, 1.0)
    near, far = centers + np.array([0.6, -0.8j]), centers + np.array([1.01, 2j])
    calls = _counting_sum(monkeypatch)
    values = sums(np.concatenate([near, far]), np.array([0, 1, 0, 1]))
    assert len(calls) == 1 and np.array_equal(calls[0], far)
    monkeypatch.setattr(fourier_laplace, "fourier_sum", fourier_sum)
    assert np.array_equal(values[:, 2:], fourier_sum(ctx.rows, ctx.nodes, far))
    scale = np.abs(ctx.rows) @ np.exp(-np.outer(ctx.nodes, near.imag))
    assert np.all(np.abs(values[:, :2] - fourier_sum(ctx.rows, ctx.nodes, near))
                  <= 8.0 * np.finfo(float).eps * scale)
    # owner names the center a point is expanded about: about the other
    # center the near points are far
    calls = _counting_sum(monkeypatch)
    sums(near, np.array([1, 0]))
    assert len(calls) == 1 and np.array_equal(calls[0], near)


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
    rows = kobayashi_report(unit_disk, [3], grid).branches
    zs = np.array([r.zeta for r in rows])
    assert np.abs(zs - zs[0]).max() <= 1e-8
    assert all(r.validated for r in rows)


def test_branch_sweep_narrow_disk():
    # width 0.1: track_zero's validation contour reaches pi/(2w) = 15.7 past
    # each zero, beyond a fixed margin of 10 past the farthest predicted center
    disk = Disk((0.3, -0.2), 0.05)
    grid = [Direction(float(t)) for t in np.linspace(0, 2 * math.pi, 4, endpoint=False)]
    rows = kobayashi_report(disk, [1, 2, 3], grid).branches
    assert all(r.validated for r in rows)
    for r in rows:
        assert abs(r.zeta - bessel_j1_zero(r.m) / 0.05) <= 1e-9 * abs(r.zeta)


def test_branch_sweep_cw3_symmetry(cw3):
    grid = [Direction(float(t)) for t in np.linspace(0, 2 * math.pi, 24, endpoint=False)]
    rows = kobayashi_report(cw3, [10], grid).branches
    ims = np.array([r.zeta.imag for r in rows])
    # cos(3 theta) symmetry of the curvature ratio: period 2 pi / 3 = 8 grid steps
    assert np.abs(ims - np.roll(ims, 8)).max() < 1e-9
    assert np.abs(ims).max() > 0.05  # branches genuinely leave the real axis


def test_track_branches_matches_track_zero(cw3, monkeypatch):
    u = Direction(0.4)
    ctx = build_context(cw3, u, max_abs_zeta=fourier_laplace.sweep_bound(cw3, [u], 40))
    batch = track_branches(ctx, range(2, 41))
    for br in batch:
        one = track_zero(ctx, br.m)
        assert (br.m, br.predicted_center) == (one.m, one.predicted_center)
        assert abs(br.zeta - one.zeta) <= 1e-15 * abs(one.zeta)
    assert track_branches(ctx, []) == []
    # a failing branch among others is named by its m and direction: from the
    # m = 0 center Newton reaches the m = 2 zero
    with pytest.raises(ValidationFailed, match=r"\(m=0, theta=0\.400000\): .*pi/w or more"):
        track_branches(ctx, [2, 3, 0, 5])
    # so is one whose winding fails
    monkeypatch.setattr(fourier_laplace, "winding_number",
                        lambda ctx, z, half_re, half_im, sums:
                        np.where(np.arange(z.size) == 2, 2, 1))
    with pytest.raises(ValidationFailed, match=r"\(m=9, theta=0\.400000\): winding 2 != 1"):
        track_branches(ctx, [7, 8, 9, 10])


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
    # the autocorrelation at 0 is the integral of S^2 = 4 (1 - t^2) over [-1, 1]
    assert abs(chord_autocorrelation_batch(unit_disk, E1, [0.0])[0] - 16.0 / 3.0) < 1e-12
    ctx = build_context(centered_square, E1, max_abs_zeta=10.0)
    assert abs(abs(flt_ray(ctx, 2 * math.pi)) ** 2) < 1e-20
    xi = np.linspace(0.0, 50.0, 256)
    rep = verify_factorization(unit_disk, E1, xi)
    assert rep.max_deviation <= 1e-6


def test_half_line_table_mirrors_full_line(unit_disk, cw3, make_polygon):
    # C is even: the [0, w] table mirrored to -t sums to the [-w, w] table's
    # transform within rounding, on the real axis and off it, with half the nodes
    poly = make_polygon(np.random.default_rng(39), n_points=9)
    for body, u in ((unit_disk, E1), (cw3, Direction(0.2)), (poly, Direction(0.7))):
        half_nodes, half_amplitudes = autocorr_transform_table(body, u, 20.0)
        nodes, amplitudes = full_line_autocorr_table(body, u, 20.0)
        assert 2 * half_nodes.size == nodes.size and np.all(half_nodes > 0.0)
        w = float(np.max(nodes))
        zetas = np.concatenate([np.linspace(-20.0, 20.0, 201),
                                np.linspace(-20.0, 20.0, 41) + 2.0j / w])
        mirrored = fourier_sum(np.tile(half_amplitudes, 2),
                               np.concatenate([half_nodes, -half_nodes]), zetas)
        scale = area(body) ** 2 * np.exp(np.abs(zetas.imag) * w)
        assert np.max(np.abs(mirrored - fourier_sum(amplitudes, nodes, zetas)) / scale) <= 1e-14


def test_validation_failure_reported(unit_disk):
    # force a start so far off that Newton lands on a different branch; the
    # branch is returned, validated around the zero it converged to
    ctx = build_context(unit_disk, E1, max_abs_zeta=70.0)
    br = track_zero(ctx, 2, start=bessel_j1_zero(3) + 0.01)
    assert abs(br.zeta - bessel_j1_zero(3)) < 1e-8  # converged to the m=3 zero
    assert br.validated  # winding is still 1 around that zero


def test_track_zero_rejects_another_branchs_zero(unit_disk):
    # Newton from the m = 0 center pi/4 reaches 7.0156, the m = 2 zero, more
    # than pi/w from its start; neighbouring centers are 2 pi/w apart
    ctx = build_context(unit_disk, E1, max_abs_zeta=70.0)
    with pytest.raises(ValidationFailed, match="pi/w or more"):
        track_zero(ctx, 0)


def test_deviation_decay_slope(unit_disk):
    ctx = build_context(unit_disk, E1, max_abs_zeta=135.0)
    devs = [track_zero(ctx, m).deviation for m in range(2, 41)]
    slope = np.polyfit(np.log(np.arange(2, 41)), np.log(devs), 1)[0]
    assert -1.3 <= slope <= -0.7
