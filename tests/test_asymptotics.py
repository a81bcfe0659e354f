import math

import numpy as np
import pytest

from covario import asymptotics, fourier_laplace
from covario.asymptotics import (
    MATCH_TOL,
    DeterminationConfig,
    Inconclusive,
    _contiguous_regions,
    _radial_table,
    crosscov_counterexample,
    determination_experiment,
    kobayashi_report,
    trivial_associates,
    zero_union_check,
)
from covario.covariogram import covariogram_evaluator, cross_covariogram_grid
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
    Disk,
    SupportBody,
    area,
    curvature,
    example_pair,
    reflect,
    translate,
    width,
)
from strip_reference import loop_radial_table, walk_contiguous_regions

E1 = Direction(0.0)


def test_kobayashi_report_disk(unit_disk):
    rep = kobayashi_report(unit_disk, range(2, 13), [E1])
    assert -1.3 <= rep.decay_exponent <= -0.7
    assert rep.im_error_per_m.max() < 1e-10  # disk: Im identically zero
    assert rep.re_error_per_m[-1] < 2e-2
    assert not rep.flags


def test_kobayashi_report_cw3(cw3):
    grid = [Direction(float(t)) for t in np.linspace(0, 2 * math.pi, 12, endpoint=False)]
    rep = kobayashi_report(cw3, [38, 39, 40], grid)
    assert rep.im_error_per_m[-1] <= 2e-2
    assert rep.re_error_per_m[-1] <= 2e-2


def _recording_blocks(monkeypatch):
    """Record the block sizes that kobayashi_report hands parallel_map."""
    sizes, pooled = [], asymptotics.parallel_map

    def recording(fn, items):
        items = list(items)
        sizes.append([len(block) for block in items])
        return pooled(fn, items)

    monkeypatch.setattr(asymptotics, "parallel_map", recording)
    return sizes


def test_kobayashi_report_same_in_worker_processes(unit_disk, monkeypatch):
    # COVARIO_THREADS=2 takes the process pool whatever the CPU count: one
    # direction a worker
    grid = [Direction(0.0), Direction(1.0)]
    sizes = _recording_blocks(monkeypatch)
    monkeypatch.setenv("COVARIO_THREADS", "1")
    serial = kobayashi_report(unit_disk, range(2, 5), grid)
    monkeypatch.setenv("COVARIO_THREADS", "2")
    pooled = kobayashi_report(unit_disk, range(2, 5), grid)
    assert sizes == [[2], [1, 1]]
    for name in ("deviations", "im_error_per_m", "re_error_per_m"):
        np.testing.assert_array_equal(getattr(pooled, name), getattr(serial, name))
    assert len(pooled.branches) == 6
    assert pooled.branches == serial.branches


def test_kobayashi_report_equals_direction_loop(monkeypatch):
    # one array pass over a block of directions gives, bit for bit, the
    # branches of one track_branches per direction, where the directions'
    # contexts have different node counts, serially, on the pool, and in
    # blocks cut by the contour budget
    body = SupportBody(1.0, ((0.1, 0), (0.2, 0.05), (0.03, 0)))
    grid = [Direction(float(t)) for t in np.linspace(0, 2 * math.pi, 12, endpoint=False)]
    m_list = range(2, 41)
    contexts = [build_context(body, u, max_abs_zeta=sweep_bound(body, grid, 40)) for u in grid]
    assert len({ctx.nodes.size for ctx in contexts}) > 1
    loop = tuple(br for ctx in contexts for br in track_branches(ctx, m_list))
    sizes = _recording_blocks(monkeypatch)
    default = asymptotics.SWEEP_BLOCK_POINTS
    for threads, budget in (("1", default), ("2", default), ("1", 5 * 39 * 41), ("2", 2 * 39 * 41)):
        monkeypatch.setenv("COVARIO_THREADS", threads)
        monkeypatch.setattr(asymptotics, "SWEEP_BLOCK_POINTS", budget)
        assert kobayashi_report(body, m_list, grid).branches == loop
    assert sizes == [[12], [6, 6], [4, 4, 4], [2] * 6]


def test_kobayashi_report_names_the_failing_direction(cw3, monkeypatch):
    # a failure in the second direction of one pass names that direction's
    # m and theta
    monkeypatch.setenv("COVARIO_THREADS", "1")
    monkeypatch.setattr(fourier_laplace, "winding_number",
                        lambda ctx, z, half_re, half_im, sums:
                        np.where(np.arange(z.size).reshape(z.shape) == 4, 2, 1))
    with pytest.raises(fourier_laplace.ValidationFailed,
                       match=r"\(m=3, theta=1\.000000\): winding 2 != 1"):
        kobayashi_report(cw3, range(2, 5), [Direction(0.0), Direction(1.0)])


def test_kobayashi_report_flags_polygon(unit_square):
    rep = kobayashi_report(unit_square, range(1, 3), [E1])
    assert rep.flags == ("non-C2plus-input",)
    assert rep.deviations.size == 0


def test_zero_union_disk(unit_disk):
    rep = zero_union_check(unit_disk, E1, range(1, 5))
    for row in rep.rows:
        assert row.multiplicity == 2  # double zeros: branch equals its conjugate
        assert len(row.located) == 1
        assert row.residual <= 1e-8 * area(unit_disk) ** 2
    assert rep.passed


def test_zero_union_cw3(cw3):
    rep = zero_union_check(cw3, Direction(0.2), range(3, 6))
    for row in rep.rows:
        assert row.multiplicity == 1
        assert len(row.located) == 2  # simple conjugate pair
        za, zb = row.located
        assert abs(za - zb.conjugate()) < 1e-6
        assert row.residual <= 1e-8 * area(cw3) ** 2


def _loop_zero_union_rows(body, u, m_list):
    """zero_union_check's rows one branch at a time: two one-start
    _multiple_zero calls, one fourier_sum and one contour_winding per branch."""
    max_zeta = sweep_bound(body, [u], max(m_list))
    ctx = build_context(body, u, max_abs_zeta=max_zeta)
    nodes, amplitudes = autocorr_transform_table(body, u, max_zeta)
    nodes, amplitudes = np.concatenate([nodes, -nodes]), np.tile(amplitudes, 2)
    table = derivative_rows(nodes, amplitudes, 2)
    rows = []
    for branch in track_branches(ctx, m_list):
        f = branch.zeta
        targets = (f, f.conjugate())
        located = []
        for start in targets:
            z = complex(_multiple_zero(table, nodes, np.array([start]), ctx.im_cap)[0])
            assert min(abs(z - t) for t in targets) <= MATCH_TOL
            if not any(abs(z - prev) < MATCH_TOL for prev in located):
                located.append(z)
        resid = abs(complex(fourier_sum(table[0], nodes, f)))
        half_re, half_im = math.pi / (2.0 * ctx.body_width), 0.5 / ctx.body_width
        if abs(f.imag) >= 0.5 * half_im:
            half_im = 1.2 * abs(f.imag)
        mult = contour_winding(table[:2], nodes, f, half_re, half_im)
        rows.append((branch.m, f, tuple(located), mult, resid))
    return rows


CW3 = SupportBody(1.0, ((0.0, 0.0), (0.0, 0.0), (0.05, 0.0)))


@pytest.mark.parametrize("body, theta, m_range", [
    (Disk((0.0, 0.0), 1.0), 0.0, range(1, 5)),
    (Disk((0.3, -0.2), 1.3), 0.7, range(1, 9)),
    (CW3, 0.2, range(3, 6)),
    (CW3, math.pi / 6.0 + 0.1, range(3, 5)),
], ids=["disk", "disk-off-centre", "cw3-apart", "cw3-close"])
def test_zero_union_one_pass_equals_branch_loop(body, theta, m_range, monkeypatch):
    # one array pass gives, bit for bit, the rows of the loop over branches,
    # with one contour_winding and one residual fourier_sum per check
    u = Direction(theta)
    expected = _loop_zero_union_rows(body, u, list(m_range))
    calls = {"contour_winding": 0, "fourier_sum": 0}

    def counted(name):
        kernel = getattr(asymptotics, name)

        def count(*args):
            calls[name] += 1
            return kernel(*args)

        return count

    for name in calls:
        monkeypatch.setattr(asymptotics, name, counted(name))
    rep = zero_union_check(body, u, m_range)
    assert calls == {"contour_winding": 1, "fourier_sum": 1}
    rows = [(r.m, r.branch_zeta, r.located, r.multiplicity, r.residual) for r in rep.rows]
    assert repr(rows) == repr(expected)
    assert all(type(v) is type(w) for row, ref in zip(rows, expected) for v, w in zip(row, ref))
    if theta > 0.5 and body is CW3:
        # |Im f| < 0.25/w: the least rectangle holds conj f too, so the count
        # is of two distinct simple zeros
        for r in rep.rows:
            assert 0.0 < abs(r.branch_zeta.imag) < 0.25 / width(body, u)
            assert r.multiplicity == 2 and len(r.located) == 2
            assert abs(r.located[0] - r.located[1]) > 0.1


def test_counterexample_families():
    rep1 = crosscov_counterexample(1, dict(alpha=1.0, beta=1.0, gamma=1.0, delta=1.0))
    assert rep1.passed and rep1.max_deviation <= 1e-9
    rep3 = crosscov_counterexample(3, dict(alpha_p=1.0, gamma_p=2.0, beta_p=1.0,
                                           delta_p=1.0, m=1.0))
    assert rep3.passed and rep3.max_deviation <= 1e-9


def test_counterexample_negative_control():
    # perturbing one pair must produce a visible grid deviation
    h1, k1 = example_pair(1, alpha=1.0, beta=1.0, gamma=1.0, delta=1.0)
    h2, k2 = example_pair(2, alpha=1.1, beta=1.0, gamma=1.0, delta=1.0)
    g1 = cross_covariogram_grid(h1, k1, nx=41, ny=41)
    g2 = cross_covariogram_grid(h2, k2, nx=41, ny=41, bbox=g1.bbox)
    assert np.abs(g1.values - g2.values).max() > 1e-3


def test_counterexample_rejects_bad_family():
    with pytest.raises(ValueError):
        crosscov_counterexample(2, {})


def test_contiguous_regions_match_the_walk():
    # every circular mask of length 1 to 12
    for n in range(1, 13):
        masks = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1 == 1
        for mask in masks:
            assert _contiguous_regions(mask) == walk_contiguous_regions(mask), mask


def test_trivial_associates_detection(make_polygon):
    rng = np.random.default_rng(0)
    h, k = make_polygon(rng, 6), make_polygon(rng, 7)
    x = np.array([0.4, -0.9])
    assert trivial_associates((h, k), (translate(h, -x), translate(k, -x)))
    assert trivial_associates((h, k), (reflect(k), reflect(h)))
    assert not trivial_associates((h, k), (k, h))
    assert not trivial_associates((h, k), (translate(h, (0.1, 0.0)), k))


def test_determination_same_and_reflected(cw3):
    cfg = DeterminationConfig(n_dirs=12, extent_dirs=96, max_regions_checked=2)
    g_a = covariogram_evaluator(cw3, n=1024)
    g_b = covariogram_evaluator(reflect(cw3), n=1024)
    verdict = determination_experiment(g_a, g_b, config=cfg)
    # the covariogram is blind to reflection, so pointwise-equal inputs always
    # land on the translation outcome; the point is that they are not distinct
    assert verdict.outcome == "identical-up-to-translation"
    assert verdict.region_relations and all(r == 1 for r in verdict.region_relations)
    pair0 = verdict.pairs_a[0]
    assert abs(pair0[0] - 1 / 1.4) / (1 / 1.4) < 0.1
    assert abs(pair0[1] - 1 / 0.6) / (1 / 0.6) < 0.1


def test_determination_batches_evaluator_calls(cw3):
    # the benchmark's configuration; a per-point evaluator gives the same values
    cfg = DeterminationConfig(n_dirs=4, extent_dirs=32, t_order=16, s_order=8,
                              max_regions_checked=1)
    evaluators = [covariogram_evaluator(cw3, n=256), covariogram_evaluator(reflect(cw3), n=256)]
    calls = []

    def counted(g):
        def evaluate(points):
            calls.append(len(points))
            return g(points)
        return evaluate

    def per_point(g):
        return lambda points: np.array([g(x) for x in points])

    verdict = determination_experiment(*map(counted, evaluators), config=cfg)
    assert len(calls) == 34
    assert verdict.outcome == "identical-up-to-translation"
    assert verdict.region_relations == (1,)
    reference = determination_experiment(*map(per_point, evaluators), config=cfg)
    assert reference.outcome == verdict.outcome
    assert reference.region_relations == verdict.region_relations
    assert reference.pairs_a == verdict.pairs_a and reference.pairs_b == verdict.pairs_b


def test_determination_counts_evaluator_calls_and_points(cw3):
    cfg = DeterminationConfig(n_dirs=4, extent_dirs=32, t_order=16, s_order=8,
                              max_regions_checked=1)
    sent = ([], [])

    def counted(g, log):
        def evaluate(points):
            log.append(len(points))
            return g(points)
        return evaluate

    g_a = counted(covariogram_evaluator(cw3), sent[0])
    g_b = counted(covariogram_evaluator(reflect(cw3)), sent[1])
    verdict = determination_experiment(g_a, g_b, config=cfg)
    assert verdict.details["g_calls"] == [len(sent[0]), len(sent[1])]
    assert verdict.details["g_points"] == [sum(sent[0]), sum(sent[1])]
    # per evaluator: 14 radial calls (2 growing the brackets, 12 probing two
    # bisection levels each), the ladders, the stencils and the line integrals
    assert verdict.details["g_calls"] == [17, 17]
    assert verdict.details["g_points"] == [2720, 2720]
    # an early verdict counts too
    disks = determination_experiment(covariogram_evaluator(Disk((0.0, 0.0), 1.0)),
                                     covariogram_evaluator(Disk((0.0, 0.0), 1.05)),
                                     config=DeterminationConfig(n_dirs=4, extent_dirs=16))
    assert disks.outcome == "distinct"
    assert disks.details["g_calls"][0] > 0 and disks.details["g_points"][1] > 0


@pytest.mark.parametrize("name", ["cw3", "reflected-cw3", "disk"])
def test_radial_table_matches_plain_bisection(name, cw3):
    # two bisection levels per call give plain bisection's brackets in half the calls
    body = {"cw3": cw3, "reflected-cw3": reflect(cw3), "disk": Disk((0.3, -0.2), 0.8)}[name]
    g = covariogram_evaluator(body)
    thetas = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)
    calls, plain = [], []

    def counted(log):
        def evaluate(points):
            log.append(len(points))
            return g(points)
        return evaluate

    assert np.array_equal(_radial_table(counted(calls), thetas),
                          loop_radial_table(counted(plain), thetas))
    assert len(calls) <= len(plain) // 2 + 2


def test_determination_fails_a_direction_on_either_fit(cw3):
    # g_b finds no cap below the anchor of the second direction only (a
    # window that no radial-table direction crosses): that direction fails
    # for both evaluators, and the pairs stay aligned with the directions
    cfg = DeterminationConfig(n_dirs=24, max_regions_checked=0)
    g = covariogram_evaluator(cw3)
    aim = 2.0 * math.pi / cfg.n_dirs

    def g_b(points):
        near = ((np.abs(np.arctan2(points[:, 1], points[:, 0]) - aim) < 0.01)
                & (np.hypot(points[:, 0], points[:, 1]) > 1.9))
        return np.where(near, 0.0, g(points))

    verdict = determination_experiment(g, g_b, config=cfg)
    reference = determination_experiment(g, g, config=cfg)
    assert len(verdict.pairs_a) == len(verdict.pairs_b) == cfg.n_dirs
    assert verdict.pairs_a[1] is None and verdict.pairs_b[1] is None
    for i in range(cfg.n_dirs):
        if i != 1:
            assert verdict.pairs_a[i] == verdict.pairs_b[i] == reference.pairs_a[i]


@pytest.mark.parametrize("wrong", [
    lambda points: 1.0,                          # the scalar contract
    lambda points: np.ones((len(points), 1)),    # a column
    lambda points: np.ones(len(points) + 1),
])
def test_determination_rejects_evaluator_shape(wrong):
    with pytest.raises(ValueError, match="expected"):
        determination_experiment(wrong, wrong, config=DeterminationConfig(n_dirs=4))


def test_determination_pairs_on_240_directions(cw3):
    # the black-box fit, every direction within criterion 6's 5%, also where
    # the pair is close to equal
    g = covariogram_evaluator(cw3)
    cfg = DeterminationConfig(n_dirs=240, max_regions_checked=0)
    verdict = determination_experiment(g, g, config=cfg)
    for th, pair in zip(verdict.thetas, verdict.pairs_a):
        u = Direction(float(th))
        truth = sorted((curvature(cw3, u), curvature(cw3, u.antipode())))
        assert max(abs(pair[0] - truth[0]) / truth[0], abs(pair[1] - truth[1]) / truth[1]) < 0.05, th


def test_determination_pairs_on_240_directions_to_half_a_percent(cw3):
    # the cap fit at t* = 5e-4 h(u) keeps every pair within 0.5% (0.095% seen)
    g = covariogram_evaluator(cw3)
    cfg = DeterminationConfig(n_dirs=240, max_regions_checked=0)
    verdict = determination_experiment(g, g, config=cfg)
    assert None not in verdict.pairs_a
    for th, pair in zip(verdict.thetas, verdict.pairs_a):
        u = Direction(float(th))
        truth = sorted((curvature(cw3, u), curvature(cw3, u.antipode())))
        assert max(abs(pair[0] - truth[0]) / truth[0], abs(pair[1] - truth[1]) / truth[1]) < 5e-3, th


def test_determination_distinct_disks():
    cfg = DeterminationConfig(n_dirs=8, extent_dirs=48, max_regions_checked=0)
    g_a = covariogram_evaluator(Disk((0.0, 0.0), 1.0), n=512)
    g_b = covariogram_evaluator(Disk((0.0, 0.0), 1.05), n=512)
    verdict = determination_experiment(g_a, g_b, config=cfg)
    assert verdict.outcome == "distinct"
    assert verdict.details["reason"] == "support mismatch"


def test_determination_translation_invariance(cw3):
    cfg = DeterminationConfig(n_dirs=8, extent_dirs=64, max_regions_checked=0)
    g_a = covariogram_evaluator(cw3, n=512)
    g_b = covariogram_evaluator(translate(cw3, (0.7, -0.4)), n=512)
    verdict = determination_experiment(g_a, g_b, config=cfg)
    assert verdict.outcome == "identical-up-to-translation"
    assert verdict.details["radial_max_dev"] < 1e-9


def test_determination_inconclusive_on_polygon(unit_square):
    # polygon caps scale like t^2, so the 3/2-power fit fails everywhere
    cfg = DeterminationConfig(n_dirs=6, extent_dirs=32, max_regions_checked=0)
    g = covariogram_evaluator(unit_square)
    with pytest.raises(Inconclusive):
        determination_experiment(g, g, config=cfg)
