"""Acceptance criteria, one test per criterion, each printing a pass/fail line."""

import math
import time

import numpy as np

from covario import cli
from covario.asymptotics import COUNTEREXAMPLE_GRID, crosscov_counterexample
from covario.covariogram import covariogram, curvature_pair_from_covariogram
from covario.fourier_laplace import (
    build_context,
    track_zero,
    verify_factorization,
)
from covario.geometry import (
    Direction,
    Disk,
    Polygon,
    SupportBody,
    convex_hull,
    curvature,
    reflect,
    width,
)
from covario.oracles import (
    bessel_j1_zero,
    matrix_identities,
    random_spd,
)
from mc_oracle import paraboloid_volume
from polygon_reference import minkowski_sum_polygons

DISK = Disk((0.0, 0.0), 1.0)
CW3 = SupportBody(1.0, ((0.0, 0.0), (0.0, 0.0), (0.05, 0.0)))
E1 = Direction(0.0)


def report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_01_counterexample_reproduction():
    t0 = time.time()
    worst = 0.0
    all_ok = True
    for family in (1, 3):
        rng = np.random.default_rng(100 + family)
        draws = [cli._random_family_params(family, rng) for _ in range(20)]
        for rep in crosscov_counterexample(family, draws):
            worst = max(worst, rep.max_deviation)
            all_ok &= rep.passed
    elapsed = time.time() - t0
    report("criterion-1 counterexample",
           all_ok and worst <= 1e-9 and COUNTEREXAMPLE_GRID == (41, 41) and elapsed < 10.0,
           f"max grid deviation {worst:.2e}, non-associate, {elapsed:.1f} s")


def test_criterion_02_disk_zero_branches():
    ctx = build_context(DISK, E1, max_abs_zeta=135.0)
    worst = 0.0
    devs = []
    for m in range(1, 41):
        br = track_zero(ctx, m)
        devs.append(br.deviation)
        if m <= 20:
            worst = max(worst, abs(br.zeta - bessel_j1_zero(m)))
    slope = np.polyfit(np.log(np.arange(2, 41)), np.log(devs[1:]), 1)[0]
    ok = worst <= 1e-6 and -1.3 <= slope <= -0.7 and abs(devs[0] - 0.0953) <= 0.01
    report("criterion-2 disk zero branches", ok,
           f"max |zeta - j1m| = {worst:.2e}, slope {slope:.3f}, m=1 dev {devs[0]:.4f}")


def test_criterion_03_curvature_ratio_recovery():
    t0 = time.time()
    worst = 0.0
    for th in np.linspace(0.0, 2.0 * math.pi, 120, endpoint=False):
        u = Direction(float(th))
        ctx = build_context(CW3, u, max_abs_zeta=130.0)
        br = track_zero(ctx, 40)
        target = (math.log(curvature(CW3, u.antipode())) - math.log(curvature(CW3, u)))
        worst = max(worst, abs(br.zeta.imag * 2.0 * width(CW3, u) - target))
    elapsed = time.time() - t0
    report("criterion-3 curvature ratio via Im F_40",
           worst <= 2e-2 and elapsed < 60.0,
           f"max recovery error {worst:.2e}, {elapsed:.1f} s over 120 directions")


def test_criterion_04_paraboloid_constant_resolution():
    ref = paraboloid_volume(np.eye(1), np.eye(1), np.zeros(1), 1.0, 1_000_000, seed=0)
    ok = ref.z_closed_form <= 3.0 and ref.z_statement_level > 10.0
    rng = np.random.default_rng(17)
    worst_rel = 0.0
    for i in range(10):
        d = int(rng.integers(1, 4))
        a = random_spd(d, rng, (0.5, 3.0))
        b = random_spd(d, rng, (0.5, 3.0))
        q = rng.uniform(-0.3, 0.3, d)
        t = rng.uniform(0.5, 1.5)
        rep = paraboloid_volume(a, b, q, t, 1_000_000, seed=1000 + i)
        rel = abs(rep.estimate.mean - rep.closed_form) / rep.closed_form
        worst_rel = max(worst_rel, rel)
        ok &= rep.z_closed_form <= 3.0 and rel <= 0.01
    report("criterion-4 paraboloid-cap constant", ok,
           f"reference z={ref.z_closed_form:.2f}, statement-level rejected at "
           f"{ref.z_statement_level:.0f} sigma, worst instance gap {worst_rel:.4f}")


def test_criterion_05_matrix_identities():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(1, 7))
        rep = matrix_identities(random_spd(dim, rng), random_spd(dim, rng))
        worst = max(worst, rep.max_deviation)
    report("criterion-5 matrix identities", worst <= 1e-10,
           f"1000 SPD pairs (dims 1..6), max relative deviation {worst:.2e}")


def test_criterion_06_curvature_pair_instances():
    pair_d = curvature_pair_from_covariogram(DISK, Direction(0.7))
    ok_d = abs(pair_d.low - 1.0) <= 0.02 and abs(pair_d.high - 1.0) <= 0.02
    pair_c = curvature_pair_from_covariogram(CW3, E1)
    lo_t, hi_t = 1.0 / 1.4, 1.0 / 0.6
    ok_c = (abs(pair_c.low - lo_t) / lo_t <= 0.05
            and abs(pair_c.high - hi_t) / hi_t <= 0.05)
    report("criterion-6 curvature pairs", ok_d and ok_c,
           f"disk {pair_d.values}, cw3 {tuple(round(v, 5) for v in pair_c.values)} "
           f"vs ({lo_t:.5f}, {hi_t:.5f})")


def test_criterion_07_factorization_identity():
    rep_d = verify_factorization(DISK, E1, 50.0, 512)
    rng = np.random.default_rng(29)
    poly = Polygon(convex_hull(rng.uniform(-1, 1, (9, 2))))
    rep_p = verify_factorization(poly, Direction(0.7), 50.0, 512)
    report("criterion-7 factorization identity", rep_d.passed and rep_p.passed,
           f"sup deviations {rep_d.max_deviation:.2e} (disk), "
           f"{rep_p.max_deviation:.2e} (polygon), vs 1e-6 * area^2")


def test_criterion_08_width_of_support():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(50):
        h = Polygon(convex_hull(rng.uniform(-1.5, 1.5, (8, 2))))
        k = Polygon(convex_hull(rng.uniform(-1.5, 1.5, (7, 2))))
        # supp g_{H,K} = H + (-K), whose width is w_H + w_K in every direction
        supp = minkowski_sum_polygons(h, reflect(k))
        for th in np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False):
            u = Direction(float(th))
            worst = max(worst, abs(width(supp, u) - (width(h, u) + width(k, u))))
    report("criterion-8 width of support", worst <= 1e-12,
           f"50 polygon pairs, 360 directions, max deviation {worst:.2e}")


def test_criterion_09_matheron_derivative():
    worst = 0.0
    square = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    for body, v in ((square, E1), (DISK, Direction(0.8)), (CW3, E1)):
        # -lambda_1(K | v perp) against (g(1e-4 v) - g(0)) / 1e-4
        geometric = -width(body, Direction(v.theta + math.pi / 2.0))
        finite_difference = (covariogram(body, 1e-4 * v.u) - covariogram(body, (0.0, 0.0))) / 1e-4
        worst = max(worst, abs(finite_difference - geometric))
    report("criterion-9 Matheron derivative", worst <= 1e-3,
           f"max |finite difference - geometric| = {worst:.2e} over square/disk/cw3")


def test_criterion_10_property_suite_verify_all():
    t0 = time.time()
    code = cli.main(["verify", "all"])
    elapsed = time.time() - t0
    report("criterion-10 verify all", code == 0 and elapsed < 300.0,
           f"exit code {code}, {elapsed:.1f} s (< 300 s)")
