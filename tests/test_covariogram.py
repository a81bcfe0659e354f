import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covario.covariogram as covariogram_module
from chord_reference import bisected_chord_at_offset
from clip_oracle import oracle_area
from covario.cli import _random_family_params, main
from covario.covariogram import (
    CHUNK_KNOTS,
    FitFailed,
    _clip_fan,
    _pair_area,
    _strip_series,
    cap_pairs,
    clip_areas_batch,
    covariogram,
    covariogram_evaluator,
    covariogram_grid,
    cross_covariogram_grid,
    curvature_pair_from_covariogram,
    curvature_pairs_from_covariogram,
)
from covario.geometry import (
    Direction,
    Disk,
    Harmonics,
    Polygon,
    Segment,
    SupportBody,
    area,
    body_to_spec,
    boundary_point,
    convex_hull,
    curvature,
    example_pair,
    polygonal_approximation,
    reflect,
    translate,
    width,
    zonogon,
)
from mc_oracle import mc_area
from polygon_reference import minkowski_sum_polygons
from slice_reference import _chunked_areas as point_chunked_areas
from slice_reference import slice_table
from strip_reference import loop_cap_pair, loop_caps

E1 = Direction(0.0)
LENS_AT_1 = 2.0 * math.acos(0.5) - 0.5 * math.sqrt(3.0)
# no symmetry at all: all 8 harmonics present, off-center; the normal of its
# longest chord in a direction turns up to 0.2 rad away from that direction
LOPSIDED = SupportBody(1.0, ((0.1, -0.05), (0.04, -0.06), (0.03, 0.02), (-0.01, 0.008),
                             (0.003, -0.002), (0.001, 0.001), (-0.0005, 0.0008),
                             (0.0004, -0.0002)), center=(0.3, -0.2))
# rho = 1 - 3 c cos(2 (theta - 0.1)), c = (1 - 1e-4) / 3, falls to 1e-4: two
# near-corners, where the chords of the points below end and the normal
# angle is a poor coordinate for the chord ends
NEAR_CORNERS = SupportBody(1.0, ((0.0, 0.0), ((1.0 - 1e-4) / 3.0 * math.cos(0.2),
                                              (1.0 - 1e-4) / 3.0 * math.sin(0.2))))


def test_intersection_area_examples(unit_square):
    assert abs(_pair_area(unit_square, unit_square, (0.0, 0.0)) - 1.0) < 1e-14
    shifted = translate(unit_square, (0.5, 0.0))
    assert abs(_pair_area(unit_square, shifted, (0.0, 0.0)) - 0.5) < 1e-14
    far = translate(unit_square, (5.0, 0.0))
    assert _pair_area(unit_square, far, (0.0, 0.0)) == 0.0


def test_intersection_area_monte_carlo_oracle():
    tri = Polygon([(0, 0), (1, 0), (0, 1)])
    moved = translate(tri, (0.2, 0.2))
    exact = _pair_area(tri, moved, (0.0, 0.0))

    def member(pts):
        def inside(p, verts):
            v = verts
            nxt = np.roll(v, -1, axis=0)
            edge = nxt - v
            rel = p[:, None, :] - v[None, :, :]
            cross = edge[None, :, 0] * rel[:, :, 1] - edge[None, :, 1] * rel[:, :, 0]
            return np.all(cross >= -1e-12, axis=1)

        return inside(pts, tri.vertices) & inside(pts, moved.vertices)

    est = mc_area(member, [(0, 1.3), (0, 1.3)], 1_000_000, seed=9)
    assert abs(exact - est.mean) < 3.0 * est.standard_error


def test_covariogram_square_product_formula(unit_square):
    assert abs(covariogram(unit_square, (0.5, 0.5)) - 0.25) < 1e-14
    rng = np.random.default_rng(2)
    for _ in range(40):
        x = rng.uniform(-0.999, 0.999, 2)
        expected = (1 - abs(x[0])) * (1 - abs(x[1]))
        assert abs(covariogram(unit_square, x) - expected) < 1e-12


def test_covariogram_disk_lens(unit_disk):
    g = covariogram(unit_disk, (1.0, 0.0))
    assert abs(g - LENS_AT_1) < 1e-14
    assert abs(covariogram(unit_disk, (0.0, 0.0)) - math.pi) < 1e-14


def test_covariogram_at_origin_is_area(unit_square, cw3):
    assert abs(covariogram(unit_square, (0.0, 0.0)) - 1.0) < 1e-14
    assert abs(covariogram(cw3, (0.0, 0.0)) - area(cw3)) < 1e-13


def _lens(radius, r):
    """The textbook lens area of two disks of the given radius r apart."""
    return 2.0 * radius ** 2 * math.acos(r / (2.0 * radius)) - 0.5 * r * math.sqrt(
        4.0 * radius ** 2 - r * r)


@pytest.mark.parametrize("body", [SupportBody(1.3, center=(0.4, -0.2)), Disk((0.4, -0.2), 1.3)])
def test_exact_covariogram_disk_lens(body):
    # a support body with h = 1.3 goes through the strip-area identity
    rng = np.random.default_rng(21)
    r = np.concatenate([[0.0, 1e-9, 1e-5], np.linspace(0.01, 0.99 * 2.6, 60)])
    ang = rng.uniform(0.0, 2.0 * math.pi, r.size)
    xs = r[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    lens = np.array([_lens(1.3, t) for t in r])
    assert np.abs(covariogram_evaluator(body)(xs) - lens).max() < 1e-14
    outside = np.array([[2.6, 0.0], [0.0, -2.6], [3.0, 1.0]])
    assert np.all(covariogram_evaluator(body)(outside) == 0.0)


@pytest.mark.parametrize("name", ["cw3", "lopsided"])
def test_exact_covariogram_near_origin(name, cw3):
    # g(0) = area; g(x) = area - |x| w(v perp) + O(|x|^3), on both sides of the
    # switch from the chord iteration to that expansion at sqrt(eps) |x|
    body = {"cw3": cw3, "lopsided": LOPSIDED}[name]
    g = covariogram_evaluator(body)
    assert abs(g(np.zeros(2)) - area(body)) < 1e-13
    for th in np.linspace(0.1, 2.0 * math.pi, 7):
        v = Direction(float(th))
        w_perp = width(body, Direction(v.theta + math.pi / 2.0))
        for r in (1e-12, 1e-9, 1e-7, 1e-6):
            assert abs(g(r * v.u) - (area(body) - r * w_perp)) < 1e-13


@pytest.mark.parametrize("name", ["cw3", "lopsided", "disk"])
def test_exact_covariogram_symmetries(name, cw3, unit_disk):
    body = {"cw3": cw3, "lopsided": LOPSIDED, "disk": unit_disk}[name]
    xs = np.random.default_rng(22).uniform(-2.3, 2.3, (400, 2))
    g = covariogram_evaluator(body)(xs)
    assert np.abs(g - covariogram_evaluator(body)(-xs)).max() <= 1e-15
    assert np.abs(g - covariogram_evaluator(reflect(body))(xs)).max() < 1e-14
    moved = covariogram_evaluator(translate(body, (-1.7, 0.6)))(xs)
    assert np.abs(g - moved).max() <= 1e-15
    assert np.all((g >= 0.0) & (g <= area(body)))


@pytest.mark.parametrize("name", ["cw3", "lopsided", "disk"])
def test_exact_covariogram_support_boundary(name, cw3, unit_disk):
    # supp g = K - K: its boundary point with normal theta is p(theta) - p(theta + pi)
    body = {"cw3": cw3, "lopsided": LOPSIDED, "disk": unit_disk}[name]
    g = covariogram_evaluator(body)
    thetas = np.linspace(0.0, 2.0 * math.pi, 97)
    rim = np.array([boundary_point(body, Direction(t)) - boundary_point(body, Direction(t + math.pi))
                    for t in thetas])
    assert np.all(g(rim * (1.0 + 1e-12)) == 0.0)
    assert np.all(g(rim * 1.5) == 0.0)
    assert np.all(g(rim * (1.0 - 1e-7)) > 0.0)
    assert np.abs(g(rim)).max() < 1e-15


@pytest.mark.parametrize("name", ["cw3", "lopsided"])
def test_exact_covariogram_rays_decrease(name, cw3):
    body = {"cw3": cw3, "lopsided": LOPSIDED}[name]
    ts = np.linspace(0.0, 2.3, 400)
    for th in np.linspace(0.0, math.pi, 13):
        vals = covariogram_evaluator(body)(ts[:, None] * Direction(float(th)).u)
        assert np.all(np.diff(vals) <= 0.0)
        assert vals[0] == area(body) and vals[-1] == 0.0


def test_exact_covariogram_next_to_near_corners():
    body = NEAR_CORNERS
    thetas = np.linspace(0.0, 0.2, 9)
    rim = np.array([boundary_point(body, Direction(t)) - boundary_point(body, Direction(t + math.pi))
                    for t in thetas])
    xs = np.concatenate([rim * (1.0 - depth) for depth in (1e-1, 1e-3, 1e-5, 1e-7)])
    v = polygonal_approximation(body, 32768).vertices
    assert np.abs(covariogram_evaluator(body)(xs) - clip_areas_batch(v, v, xs)).max() < 1e-8


def _rim_points(body, rng, k):
    """k points x (1 - depth) on rays through the boundary of K - K: three
    quarters with depth log-uniform in [1e-9, 1], the rest uniform in
    [-0.1, 1], a few of those outside supp g."""
    theta = rng.uniform(0.0, 2.0 * math.pi, k)
    depth = np.concatenate([10.0 ** rng.uniform(-9.0, 0.0, k - k // 4),
                            rng.uniform(-0.1, 1.0, k // 4)])
    ends = []
    for t in (theta, theta + math.pi):
        h, h1, _ = body.series.terms(t)
        ends.append(np.stack([h * np.cos(t) - h1 * np.sin(t), h * np.sin(t) + h1 * np.cos(t)],
                             axis=1))
    return (ends[0] - ends[1]) * (1.0 - depth)[:, None]


@pytest.mark.parametrize("name", ["cw3", "lopsided", "translated-disk", "near-corners"])
def test_compacted_newton_matches_index_loop(name, cw3, monkeypatch):
    # the compacted chord-end Newton gives the index loop's floats; next to
    # near-corners some chords still end in the bisection
    body = {"cw3": cw3, "lopsided": LOPSIDED, "translated-disk": Disk((0.7, -0.4), 0.8),
            "near-corners": NEAR_CORNERS}[name]
    xs = _rim_points(body, np.random.default_rng(19), 20_000)
    bisected = []
    bisect = covariogram_module._bisected_chords

    def counted(support, alpha, *args):
        bisected.append(alpha.size)
        return bisect(support, alpha, *args)

    monkeypatch.setattr(covariogram_module, "_bisected_chords", counted)
    values = covariogram_evaluator(body)(xs)
    if name == "near-corners":
        assert sum(bisected) > 0
    monkeypatch.setattr(covariogram_module, "_caps", loop_caps)
    assert np.array_equal(values, covariogram_evaluator(body)(xs))


def test_bisected_chords_match_on_bisected_chord_ends(monkeypatch):
    # next to NEAR_CORNERS' near-corners some chords end in _bisected_chords,
    # each of whose 64 probes solves its chord ends by chord_at_offset: the
    # Newton ends give g within 1e-12 of the area of the 60-step bisection's
    xs = _rim_points(NEAR_CORNERS, np.random.default_rng(19), 20_000)
    bisected = []
    bisect = covariogram_module._bisected_chords

    def counted(support, alpha, *args):
        bisected.append(alpha.size)
        return bisect(support, alpha, *args)

    monkeypatch.setattr(covariogram_module, "_bisected_chords", counted)
    values = covariogram_evaluator(NEAR_CORNERS)(xs)
    assert sum(bisected) > 0
    monkeypatch.setattr(Harmonics, "chord_at_offset", bisected_chord_at_offset)
    ref = covariogram_evaluator(NEAR_CORNERS)(xs)
    assert np.abs(values - ref).max() <= 1e-12 * area(NEAR_CORNERS)


def _counted(g, log):
    def evaluate(points):
        log.append(len(points))
        return g(points)
    return evaluate


def test_cap_pairs_match_per_direction_fits(cw3):
    # every cap fit in two calls, each slot the per-direction fit's pair
    us = [Direction(float(th)) for th in np.linspace(0.0, 2.0 * math.pi, 9, endpoint=False)]
    anchors = [boundary_point(cw3, u) - boundary_point(cw3, u.antipode()) for u in us]
    t_stars = [5e-4 * width(cw3, u) for u in us]
    calls = []
    pairs = cap_pairs(_counted(covariogram_evaluator(cw3), calls), anchors, us, t_stars)
    assert calls == [6 * len(us), 14 * len(us)]
    assert pairs == [loop_cap_pair(covariogram_evaluator(cw3), *args)
                     for args in zip(anchors, us, t_stars)]


def test_cap_pairs_isolates_a_failed_direction(cw3):
    us = [Direction(0.0), Direction(1.0), Direction(2.0)]
    anchors = [boundary_point(cw3, u) - boundary_point(cw3, u.antipode()) for u in us]
    # a ladder below an anchor far outside supp g finds no cap
    anchors[1] = 3.0 * anchors[1]
    t_stars = [5e-4 * width(cw3, u) for u in us]
    g = covariogram_evaluator(cw3)
    pairs = cap_pairs(g, anchors, us, t_stars)
    assert isinstance(pairs[1], FitFailed)
    assert str(pairs[1]) == "empty cap on the depth ladder"
    assert [pairs[0], pairs[2]] == [cap_pairs(g, [anchors[i]], [us[i]], [t_stars[i]])[0]
                                    for i in (0, 2)]
    (alone,) = cap_pairs(g, [anchors[1]], [us[1]], [t_stars[1]])
    assert isinstance(alone, FitFailed) and str(alone) == "empty cap on the depth ladder"


@pytest.mark.parametrize("g, message", [
    (lambda p: np.zeros(len(p)), "empty cap on the depth ladder"),
    (lambda p: 2.0 + p[:, 0], "non-positive depth slope"),
    (lambda p: np.where(p[:, 1] == 0.0, np.abs(1.0 - p[:, 0]) ** 1.5, 0.0),
     "stencil mostly outside the cap"),
])
def test_cap_pair_failures_keep_their_messages(g, message):
    # the one-direction fit fails where the per-direction loop failed, and says so alike
    anchor = np.array([1.0, 0.0])
    with pytest.raises(FitFailed) as expected:
        loop_cap_pair(g, anchor, E1, 1e-2)
    (failed,) = cap_pairs(g, [anchor], [E1], [1e-2])
    assert isinstance(failed, FitFailed)
    assert str(failed) == str(expected.value) == message


@pytest.mark.parametrize("name", ["cw3", "lopsided"])
def test_inscribed_polygons_converge_to_exact_covariogram(name, cw3):
    # the n-gon's error is O(N^-2): going from 4096 to 32768 vertices divides it by 64
    body = {"cw3": cw3, "lopsided": LOPSIDED}[name]
    rng = np.random.default_rng(23)
    ang = rng.uniform(0.0, 2.0 * math.pi, 8)
    xs = rng.uniform(0.2, 1.6, 8)[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    exact = covariogram_evaluator(body)(xs)
    errors = []
    for n in (4096, 32768):
        v = polygonal_approximation(body, n).vertices
        errors.append(np.abs(clip_areas_batch(v, v, xs) - exact).max())
    assert 40.0 < errors[0] / errors[1] < 90.0
    assert errors[0] < 2e-6


def test_cross_covariogram_examples(unit_square):
    assert abs(_pair_area(unit_square, unit_square, (0.0, 0.0)) - 1.0) < 1e-14
    assert _pair_area(unit_square, unit_square, (9.0, 0.0)) == 0.0
    h1, k1 = example_pair(1, alpha=1, beta=1, gamma=1, delta=1)
    h2, k2 = example_pair(2, alpha=1, beta=1, gamma=1, delta=1)
    x = (0.3, 0.1)
    assert abs(_pair_area(h1, k1, x) - _pair_area(h2, k2, x)) < 1e-12


def test_batched_kernel_matches_clip_oracle(make_polygon):
    rng = np.random.default_rng(3)
    p = make_polygon(rng, 7)
    q = make_polygon(rng, 5)
    xs = rng.uniform(-2.5, 2.5, (64, 2))
    batch = clip_areas_batch(p.vertices, q.vertices, xs)
    oracle = np.array([oracle_area(p.vertices, q.vertices + x) for x in xs])
    assert np.abs(batch - oracle).max() < 1e-12


def test_256gon_matches_clip_oracle(unit_disk):
    poly = polygonal_approximation(unit_disk, 256)
    rng = np.random.default_rng(4)
    for x in rng.uniform(-1.5, 1.5, (10, 2)):
        assert abs(covariogram(poly, x) - oracle_area(poly.vertices, poly.vertices + x)) < 1e-12


def test_ulp_vertical_edge_pair():
    # the third family-2 pair of criterion 1: K's left edge is vertical up to
    # one ulp, and its canonical (lexicographic) start is the top end
    rng = np.random.default_rng(101)
    for _ in range(3):
        params = _random_family_params(1, rng)
    h, k = example_pair(2, **params)
    assert 0.0 < k.vertices[1, 0] - k.vertices[0, 0] < 1e-15
    assert k.vertices[0, 1] > k.vertices[1, 1]
    xs = np.random.default_rng(7).uniform(-3.0, 3.0, (200, 2))
    batch = clip_areas_batch(h.vertices, k.vertices, xs)
    oracle = np.array([oracle_area(h.vertices, k.vertices + x) for x in xs])
    assert np.abs(batch - oracle).max() < 1e-12
    assert np.count_nonzero(oracle) > 50


def test_tied_knots_match_clip_oracle(unit_square):
    # knots of A and of B + x coincide: lattice polygons under integer and
    # half-integer shifts, and squares sharing an edge or half of one
    rng = np.random.default_rng(11)
    steps = np.arange(-3.0, 3.5, 0.5)
    xs = np.stack(np.meshgrid(steps, steps), axis=-1).reshape(-1, 2)
    for _ in range(10):
        p = convex_hull(rng.integers(-2, 3, (8, 2)).astype(float))
        q = convex_hull(rng.integers(-2, 3, (8, 2)).astype(float))
        batch = clip_areas_batch(p, q, xs)
        oracle = np.array([oracle_area(p, q + x) for x in xs])
        assert np.abs(batch - oracle).max() < 1e-12
    sq = unit_square.vertices
    for x in [(1.0, 0.0), (0.5, 0.0), (0.0, 1.0)]:
        assert abs(covariogram(unit_square, x) - oracle_area(sq, sq + x)) < 1e-15


def test_disjoint_and_touching_are_exactly_zero(unit_square):
    # apart, sharing an edge, sharing a corner
    xs = [(5.0, 0.0), (0.3, -2.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.4), (1.0, 1.0), (-1.0, -1.0)]
    assert np.all(clip_areas_batch(unit_square.vertices, unit_square.vertices, xs) == 0.0)
    assert all(covariogram(unit_square, x) == 0.0 for x in xs)
    # sharing the slanted edge x + y = 2
    tri = Polygon([(0, 0), (2, 0), (0, 2)])
    assert _pair_area(tri, Polygon([(2, 0), (2, 2), (0, 2)]), (0.0, 0.0)) == 0.0


def test_chunked_smooth_grid_matches_points(cw3):
    # the grid's one batch and the single points give the same values
    grid = covariogram_grid(cw3, nx=5, ny=5)
    assert grid.method == "exact-strip"
    xg, yg = grid.points()
    points = np.array([[_pair_area(cw3, cw3, (x, y)) for x in xg] for y in yg])
    assert np.abs(grid.values - points).max() <= 1e-14


def _assert_grid_is_per_point(bodyH, bodyK, nx, ny, bbox=None):
    """The column kernel's grid holds the floats the per-point kernel gives
    at its points; returns the grid."""
    grid = cross_covariogram_grid(bodyH, bodyK, nx, ny, bbox=bbox)
    assert grid.method in ("exact-clip", "polyline-approx")
    xsv, ysv = np.meshgrid(*grid.points())
    pts = np.stack([xsv.ravel(), ysv.ravel()], axis=1)
    ref = point_chunked_areas(_clip_fan(bodyH), _clip_fan(bodyK), pts).reshape(ny, nx)
    assert np.array_equal(grid.values, ref)
    return grid


def test_counterexample_grids_match_per_point_kernel():
    # every grid that `verify all --seed 39` compares, pair and bounding box alike
    for family in (1, 3):
        rng = np.random.default_rng(39 + family)
        for _ in range(20):
            params = _random_family_params(family, rng)
            g1 = _assert_grid_is_per_point(*example_pair(family, **params), 41, 41)
            _assert_grid_is_per_point(*example_pair(family + 1, **params), 41, 41, g1.bbox)


def test_smooth_cross_grids_match_per_point_kernel(cw3):
    disk = Disk((0.1, 0.0), 0.9)
    _assert_grid_is_per_point(polygonal_approximation(disk, 512),
                              polygonal_approximation(cw3, 512), 41, 41)
    # 4096-gons: each column is split over its shifts
    _assert_grid_is_per_point(cw3, disk, 3, 21)


def test_ulp_and_tied_knot_grids_match_per_point_kernel():
    rng = np.random.default_rng(101)
    for _ in range(3):
        params = _random_family_params(1, rng)
    _assert_grid_is_per_point(*example_pair(2, **params), 41, 41)
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = Polygon(convex_hull(rng.integers(-2, 3, (8, 2)).astype(float)))
        q = Polygon(convex_hull(rng.integers(-2, 3, (8, 2)).astype(float)))
        # shifts on the half-integer lattice, where knots of p and q + x tie
        _assert_grid_is_per_point(p, q, 13, 13, bbox=((-3.0, 3.0), (-3.0, 3.0)))


def test_disjoint_grids_match_per_point_kernel(unit_square):
    tri = Polygon([(0, 0), (2, 0), (0, 2)])
    # every column apart, some apart, every shift apart in y only
    for bbox in [((5.0, 7.0), (-1.0, 1.0)), ((-4.0, 4.0), (-1.0, 1.0)),
                 ((-0.5, 0.5), (3.0, 5.0))]:
        grid = _assert_grid_is_per_point(unit_square, tri, 9, 5, bbox)
    assert np.all(grid.values == 0.0)


def test_mixed_runs_and_4096_gon_calls_match_per_point_kernel(unit_square, cw3):
    # one call whose columns read no interval of positive width (x <= -2 and
    # x >= 1), a part of the window of intervals 1 and 2 (interval 2 for
    # -2 < x <= -1, interval 1 for 0 <= x < 1) or all of it (x = -0.5)
    tri = Polygon([(0, 0), (2, 0), (1, 2)])
    _assert_grid_is_per_point(unit_square, tri, 9, 5, ((-2.5, 1.5), (-1.0, 1.0)))
    # 4096-gons: a grid column fills a call of its own, a point batch puts a
    # few points' columns into each call
    disk = Disk((0.1, 0.0), 0.9)
    _assert_grid_is_per_point(cw3, disk, 2, 5)
    xs = np.random.default_rng(3).uniform(-1.9, 1.9, (40, 2))
    ref = point_chunked_areas(_clip_fan(cw3), _clip_fan(disk), xs)
    assert np.array_equal(covariogram_module._areas(cw3, disk, xs), ref)


def test_point_batches_match_per_point_kernel(make_polygon):
    rng = np.random.default_rng(5)
    xs = rng.uniform(-2.5, 2.5, (3000, 2))
    for _ in range(5):
        p, q = make_polygon(rng, 12), make_polygon(rng, 9)
        ref = point_chunked_areas(slice_table(p.vertices), slice_table(q.vertices), xs)
        assert np.array_equal(clip_areas_batch(p.vertices, q.vertices, xs), ref)
        ref = point_chunked_areas(_clip_fan(p), _clip_fan(p), xs[:500])
        assert np.array_equal(covariogram_evaluator(p)(xs[:500]), ref)
        assert _pair_area(p, q, xs[0]) == point_chunked_areas(_clip_fan(p), _clip_fan(q), xs[:1])[0]


def test_slicing_calls_stay_within_chunk_bound(cw3, make_polygon, monkeypatch):
    # each call holds about CHUNK_KNOTS knot x shift elements at most, a
    # column counted as two more shifts, and every shift goes to one call
    calls = []
    kernel = covariogram_module._slice_areas

    def spy(table_a, table_b, dx, dy):
        knots = table_a[0].size + table_b[0].size
        calls.append((knots, dx.size, dy.size))
        assert knots * dy.size <= knots * (dy.size + 2 * dx.size) <= CHUNK_KNOTS
        return kernel(table_a, table_b, dx, dy)

    monkeypatch.setattr(covariogram_module, "_slice_areas", spy)
    rng = np.random.default_rng(2)
    p, q = make_polygon(rng, 40), make_polygon(rng, 40)
    clip_areas_batch(p.vertices, q.vertices, rng.uniform(-2.0, 2.0, (5000, 2)))
    assert sum(shifts for _, _, shifts in calls) == 5000 and len(calls) > 1
    calls.clear()
    cross_covariogram_grid(*example_pair(1, alpha=1.0, beta=1.0, gamma=1.0, delta=1.0), 41, 41)
    assert [(cols, shifts) for _, cols, shifts in calls] == [(41, 41 * 41)]
    calls.clear()
    cross_covariogram_grid(cw3, Disk((0.1, 0.0), 0.9), 3, 41)
    assert sum(shifts for _, _, shifts in calls) == 3 * 41
    assert all(cols == 1 and shifts < 41 for _, cols, shifts in calls)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10 ** 9))
def test_evenness_random_polygons(seed):
    rng = np.random.default_rng(seed)
    poly = Polygon(convex_hull(rng.uniform(-1.5, 1.5, (8, 2))))
    for _ in range(4):
        x = rng.uniform(-2, 2, 2)
        assert abs(covariogram(poly, x) - covariogram(poly, -x)) < 1e-12


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10 ** 9))
def test_translation_reflection_invariance(seed):
    rng = np.random.default_rng(seed)
    poly = Polygon(convex_hull(rng.uniform(-1.5, 1.5, (7, 2))))
    shift = rng.uniform(-2, 2, 2)
    x = rng.uniform(-1.5, 1.5, 2)
    g0 = covariogram(poly, x)
    assert abs(covariogram(translate(poly, shift), x) - g0) < 1e-12
    assert abs(covariogram(reflect(poly), x) - g0) < 1e-12


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10 ** 9))
def test_cross_trivial_associate_invariance(seed):
    rng = np.random.default_rng(seed)
    h = Polygon(convex_hull(rng.uniform(-1.5, 1.5, (7, 2))))
    k = Polygon(convex_hull(rng.uniform(-1.5, 1.5, (6, 2))))
    x = rng.uniform(-2, 2, 2)
    assert abs(_pair_area(h, k, x)
               - _pair_area(reflect(k), reflect(h), x)) < 1e-12


def test_ray_monotonicity(make_polygon):
    rng = np.random.default_rng(6)
    poly = make_polygon(rng)
    for th in rng.uniform(0, 2 * math.pi, 8):
        v = np.array([math.cos(th), math.sin(th)])
        vals = [covariogram(poly, t * v) for t in np.linspace(0, 3.5, 50)]
        assert all(b <= a + 1e-12 for a, b in zip(vals[:-1], vals[1:]))


def test_support_of_crosscov_examples(unit_square):
    # supp g_{H,K} = H + (-K)
    supp = minkowski_sum_polygons(unit_square, reflect(unit_square))
    assert abs(width(supp, E1) - 2.0) < 1e-12
    assert np.allclose(sorted(map(tuple, supp.vertices)),
                       [(-1, -1), (-1, 1), (1, -1), (1, 1)])


def test_support_of_crosscov_zonogon_generators():
    # the support of the family-1 cross covariogram is the zonogon on all four
    # generators, for both pairings
    params = dict(alpha=1.1, beta=0.8, gamma=1.3, delta=0.6)
    h1, k1 = example_pair(1, **params)
    h2, k2 = example_pair(2, **params)
    sq2 = math.sqrt(2.0)
    gens = [Segment((-params["alpha"], 0), (params["alpha"], 0)),
            Segment((-params["beta"] / sq2, -params["beta"] / sq2),
                    (params["beta"] / sq2, params["beta"] / sq2)),
            Segment((0, -params["gamma"]), (0, params["gamma"])),
            Segment((params["delta"] / sq2, -params["delta"] / sq2),
                    (-params["delta"] / sq2, params["delta"] / sq2))]
    target = zonogon((0, 0), gens)
    s1 = minkowski_sum_polygons(h1, reflect(k1))
    s2 = minkowski_sum_polygons(h2, reflect(k2))
    assert np.abs(s1.vertices - target.vertices).max() < 1e-12
    assert np.abs(s2.vertices - target.vertices).max() < 1e-12


def test_supp_is_minkowski_sum(make_polygon):
    rng = np.random.default_rng(8)
    h = make_polygon(rng, 6)
    k = make_polygon(rng, 7)
    supp = minkowski_sum_polygons(h, reflect(k))
    grid = cross_covariogram_grid(h, k, nx=21, ny=21)
    xg, yg = grid.points()
    eps = 1e-6
    for iy in range(21):
        for ix in range(21):
            p = np.array([xg[ix], yg[iy]])
            val = grid.values[iy, ix]
            probe = Polygon(np.array([p + [-eps, -eps], p + [eps, -eps],
                                      p + [eps, eps], p + [-eps, eps]]))
            overlap = _pair_area(supp, probe, (0.0, 0.0))
            if overlap == 0.0:
                assert val == 0.0
            elif overlap >= (2 * eps) ** 2 * (1 - 1e-9):  # strictly interior
                assert val > 0.0


def _matheron_derivative(body, v, step=1e-4):
    """Matheron's one-sided derivative of g_K at the origin along v,
    -lambda_1(K | v perp), and the finite difference (g(step v) - g(0)) / step."""
    geometric = -width(body, Direction(v.theta + math.pi / 2.0))
    return geometric, (covariogram(body, step * v.u) - covariogram(body, (0.0, 0.0))) / step


def test_directional_derivative(unit_square, unit_disk, cw3):
    geometric, finite_difference = _matheron_derivative(unit_square, E1)
    assert geometric == -1.0
    assert abs(finite_difference - geometric) < 1e-3
    geometric, finite_difference = _matheron_derivative(unit_disk, Direction(0.8))
    assert abs(geometric + 2.0) < 1e-12
    assert abs(finite_difference - geometric) < 1e-3
    geometric, finite_difference = _matheron_derivative(cw3, E1)
    assert abs(geometric + 2.0) < 1e-12
    assert abs(finite_difference - geometric) < 1e-3


def _width_plus_second_derivative(body, u):
    """w + w'' at u from the width series; it equals 1/tau(u) + 1/tau(-u)."""
    value = float(_strip_series(body).width.terms(u.theta)[2])
    assert abs(value - (1.0 / curvature(body, u) + 1.0 / curvature(body, u.antipode()))) <= 1e-10
    return value


def test_sum_reciprocal_curvatures(cw3):
    disk_like = SupportBody(1.0)
    assert abs(_width_plus_second_derivative(disk_like, E1) - 2.0) < 1e-12
    for th in np.linspace(0, 2 * math.pi, 12):
        assert abs(_width_plus_second_derivative(cw3, Direction(float(th))) - 2.0) < 1e-12
    k2 = SupportBody(1.0, ((0.0, 0.0), (0.02, 0.0)))
    assert abs(_width_plus_second_derivative(k2, E1) - 1.88) < 1e-12


def test_disk_covariogram_is_the_series_covariogram():
    c, r = (0.3, -0.2), 1.3
    disk, series = Disk(c, r), SupportBody(r, (), c)
    rng = np.random.default_rng(17)
    xs = rng.uniform(-2.8, 2.8, (200, 2))
    assert np.abs(covariogram_evaluator(disk)(xs) - covariogram_evaluator(series)(xs)).max() < 1e-14
    for th in np.linspace(0.0, 2.0 * math.pi, 7):
        assert _width_plus_second_derivative(disk, Direction(float(th))) == 2.0 * r


def test_curvature_pair_disk(unit_disk):
    pair = curvature_pair_from_covariogram(unit_disk, Direction(0.7))
    assert abs(pair.low - 1.0) < 0.02
    assert abs(pair.high - 1.0) < 0.02
    # equal-pair degeneracy: Q*D collapses to D^2/4
    qd = pair.low * pair.high
    d = pair.low + pair.high
    assert abs(qd - d * d / 4.0) <= 0.02 * d * d / 4.0


def test_curvature_pair_cw3(cw3):
    pair = curvature_pair_from_covariogram(cw3, E1)
    assert abs(pair.low - 1.0 / 1.4) / (1.0 / 1.4) < 0.05
    assert abs(pair.high - 1.0 / 0.6) / (1.0 / 0.6) < 0.05
    assert 0 < pair.low <= pair.high


def _pair_error(pair, body, u):
    truth = sorted((curvature(body, u), curvature(body, u.antipode())))
    return max(abs(pair.low - truth[0]) / truth[0], abs(pair.high - truth[1]) / truth[1])


def test_curvature_pair_cw3_near_equal_pair(cw3):
    # |cos 3 theta| = 0.15: the pair differs by 12%, close enough to equal
    # for a collapse tolerance to erase it
    u = Direction(math.acos(0.15) / 3.0)
    assert _pair_error(curvature_pair_from_covariogram(cw3, u), cw3, u) < 0.05


def test_curvature_pair_sweep_cw3_and_disk(cw3, unit_disk):
    for th in np.linspace(0.0, 2.0 * math.pi, 240, endpoint=False):
        u = Direction(float(th))
        assert _pair_error(curvature_pair_from_covariogram(cw3, u), cw3, u) < 0.05, th
    pair = curvature_pair_from_covariogram(unit_disk, Direction(0.7))
    assert max(abs(pair.low - 1.0), abs(pair.high - 1.0)) < 0.05


def test_curvature_pair_scale_equivariant(cw3):
    # the fit's depths are relative to the width, so 10 cw3 gives the pair / 10
    big = SupportBody(10.0, ((0, 0), (0, 0), (0.5, 0)))
    u = Direction(0.3)
    small, large = curvature_pair_from_covariogram(cw3, u), curvature_pair_from_covariogram(big, u)
    assert large.low == pytest.approx(small.low / 10.0, rel=1e-9)
    assert large.high == pytest.approx(small.high / 10.0, rel=1e-9)


@pytest.mark.parametrize("body", [
    SupportBody(1.0, ((0.02, -0.01), (0.03, 0.02), (0.05, 0.0)), center=(0.7, -0.4)),
    Disk((0.0, 0.0), 1.0),
], ids=["off-centre-3-harmonic", "disk"])
def test_curvature_pairs_are_the_per_direction_fits(body):
    # one cap_pairs call for 24 directions gives each pair of a cap fit
    # of that direction alone, bit for bit
    us = [Direction(float(th)) for th in np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)]
    g = covariogram_evaluator(body)
    alone = [cap_pairs(g, [boundary_point(body, u) - boundary_point(body, u.antipode())], [u],
                       [5e-4 * width(body, u)])[0] for u in us]
    assert curvature_pairs_from_covariogram(body, us) == alone


def test_curvature_pair_rejects_polygon(unit_square):
    with pytest.raises(FitFailed):
        curvature_pair_from_covariogram(unit_square, E1)


def test_grid_center_and_evenness(unit_square, cw3):
    grid = covariogram_grid(unit_square, nx=21, ny=21)
    assert abs(grid.values[10, 10] - 1.0) < 1e-9
    assert np.abs(grid.values - grid.values[::-1, ::-1]).max() < 1e-12
    grid_s = covariogram_grid(cw3, nx=11, ny=11)
    assert abs(grid_s.values[5, 5] - area(cw3)) < 1e-5 * max(1.0, area(cw3))


def test_grid_csv_determinism(tmp_path, unit_square, capsys):
    body = tmp_path / "square.json"
    body.write_text(json.dumps(body_to_spec(unit_square)))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (p1, p2):
        assert main(["covariogram", "--body", str(body), "--grid", "9x9", "--out", str(out)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "a.csv.meta.json").read_text() == (tmp_path / "b.csv.meta.json").read_text()
    side = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert side["schema_version"] == 1
    assert side["method"] == "exact-clip"
    assert len(side["bodies"]) == 2


def test_covariogram_evaluator_contract(cw3):
    ev = covariogram_evaluator(cw3, n=512)
    assert abs(ev(np.zeros(2)) - area(cw3)) < 1e-3
    assert ev(np.array([10.0, 0.0])) == 0.0


@pytest.mark.parametrize("body", ["cw3", "disk", "polygon"])
def test_covariogram_evaluator_batch_matches_points(body, cw3, unit_disk, make_polygon):
    body = {"cw3": cw3, "disk": unit_disk,
            "polygon": make_polygon(np.random.default_rng(8), 9)}[body]
    ev = covariogram_evaluator(body, n=512)
    # the origin, two points on the boundary of supp g (the extreme x- and
    # y-differences of the body), points outside it, and the rest at random,
    # over several kernel chunks
    if isinstance(body, Polygon):
        v = body.vertices
        rim = [v[v[:, k].argmax()] - v[v[:, k].argmin()] for k in (0, 1)]
    else:
        rim = [boundary_point(body, Direction(t)) - boundary_point(body, Direction(t + math.pi))
               for t in (0.0, math.pi / 2.0)]
    xs = np.concatenate([np.zeros((1, 2)), rim, [(10.0, 0.0), (0.0, -7.5)],
                         np.random.default_rng(9).uniform(-2.5, 2.5, (40, 2))])
    batch = ev(xs)
    assert batch.shape == (xs.shape[0],)
    assert np.abs(batch - np.array([ev(x) for x in xs])).max() <= 1e-15
    assert abs(batch[0] - area(body)) < 1e-12
    assert np.all(np.abs(batch[1:3]) < 1e-12) and np.all(batch[3:5] == 0.0)
    assert ev(np.zeros((0, 2))).shape == (0,)
