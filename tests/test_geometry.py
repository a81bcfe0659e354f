import contextlib
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covario import geometry
from covario.geometry import (
    KMAX,
    DegenerateZonogon,
    Direction,
    Disk,
    Harmonics,
    InvalidFamilyParams,
    NotC2Plus,
    Polygon,
    PolygonNotSmooth,
    Segment,
    SupportBody,
    area,
    body_from_spec,
    body_hash,
    body_to_spec,
    boundary_point,
    convex_hull,
    curvature,
    example_pair,
    parallelogram_loops,
    polygonal_approximation,
    reflect,
    sorted_distinct,
    steiner_point,
    support,
    translate,
    width,
    zonogon,
)
from polygon_reference import (
    half_vector,
    loop_convex_hull,
    loop_minkowski_sum,
    loop_zonogon,
    minkowski_sum_polygons,
    zonogon_pair,
)
from series_reference import loop_boundary, loop_h, loop_h1, loop_rho

SQ2 = math.sqrt(2.0)


def test_direction_unit_and_antipode():
    u = Direction(1.234)
    assert abs(np.linalg.norm(u.u) - 1.0) < 1e-14
    assert abs((u.antipode().theta - u.theta) % (2 * math.pi) - math.pi) < 1e-12
    assert np.allclose(u.antipode().u, -u.u, atol=1e-14)


def test_direction_reduces_its_angle(cw3):
    # an angle in [0, 2 pi) keeps its bits; at 1e300, th + pi == th made the
    # antipode the direction itself
    for theta in (0.0, 1.234, math.pi, np.nextafter(2.0 * math.pi, 0.0)):
        assert Direction(theta).theta == theta
    assert Direction(-0.5).theta == -0.5 % (2.0 * math.pi)
    u = Direction(1e300)
    assert 0.0 <= u.theta < 2.0 * math.pi and u.theta == 1e300 % (2.0 * math.pi)
    assert abs(u.antipode().theta - u.theta) == pytest.approx(math.pi, abs=1e-15)
    assert abs(width(cw3, u) - 2.0) < 1e-12


def test_support_examples(unit_square):
    assert support(unit_square, Direction(0.0)) == 1.0
    disk = Disk((0.0, 0.0), 2.0)
    for th in np.linspace(0, 2 * math.pi, 17):
        assert abs(support(disk, Direction(float(th))) - 2.0) < 1e-14
    h1, _ = example_pair(1, alpha=1, beta=1, gamma=1, delta=1)
    assert abs(support(h1, Direction(0.0)) - (1 + 1 / SQ2)) < 1e-12


def test_width_examples(unit_square, unit_disk, cw3):
    assert abs(width(unit_disk, Direction(0.3)) - 2.0) < 1e-14
    for th in np.linspace(0, 2 * math.pi, 37):
        assert abs(width(cw3, Direction(float(th))) - 2.0) < 1e-12
    assert abs(width(unit_square, Direction(math.pi / 4)) - SQ2) < 1e-14


def test_boundary_point_examples(unit_disk, cw3):
    assert np.allclose(boundary_point(unit_disk, Direction(0.0)), [1, 0])
    round_disk = SupportBody(1.0)
    assert np.allclose(boundary_point(round_disk, Direction(math.pi / 2)), [0, 1], atol=1e-14)
    assert np.allclose(boundary_point(cw3, Direction(0.0)), [1.05, 0.0], atol=1e-14)


def test_boundary_point_polygon(unit_square):
    # e1 is the normal of the right edge; its midpoint is returned
    assert np.allclose(boundary_point(unit_square, Direction(0.0)), [1.0, 0.5])
    with pytest.raises(PolygonNotSmooth):
        boundary_point(unit_square, Direction(0.3))


def test_curvature_examples(cw3):
    for radius in (0.5, 1.0, 3.0):
        disk = Disk((0.2, -0.1), radius)
        for th in np.linspace(0, 2 * math.pi, 19):
            assert abs(curvature(disk, Direction(float(th))) * radius - 1.0) < 1e-14
    assert abs(curvature(cw3, Direction(0.0)) - 1.0 / 0.6) < 1e-12
    assert abs(curvature(cw3, Direction(math.pi)) - 1.0 / 1.4) < 1e-12
    with pytest.raises(PolygonNotSmooth):
        curvature(Polygon([(0, 0), (1, 0), (0, 1)]), Direction(0.1))


def test_support_body_validation():
    with pytest.raises(NotC2Plus):
        SupportBody(1.0, ((0.0, 0.0), (0.4, 0.0)))  # rho = 1 - 1.2 cos 2t dips below 0
    with pytest.raises(NotC2Plus):
        SupportBody(1.0, tuple((0.0, 0.0) for _ in range(40)))


def test_support_body_rejects_dip_between_grid_points():
    # rho dips to -1.1e-7 between two points of a 4096-point grid, where it
    # stays above the margin; the least rho, taken at the critical points of
    # the series, catches the dip. cw3, LOPSIDED and the near-corner body of
    # test_covariogram, all positive, still construct
    a0, coeffs = 1.0, ((0.0, 0.0), (0.26798323176795624, 0.1982324978644922))
    theta = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    assert (a0 + sum((1 - k * k) * (a * np.cos(k * theta) + b * np.sin(k * theta))
                     for k, (a, b) in enumerate(coeffs, start=1))).min() > 1e-9
    with pytest.raises(NotC2Plus, match="-1.1"):
        SupportBody(a0, coeffs)


def _sampled_least(c0, a, b, n=10 ** 6):
    """Least of c0 + sum_k (a_k cos kt + b_k sin kt), k = 1..len(a), over n
    equal steps, then over 2001 points across the two steps around every
    sample that may lie next to the minimum (Horner in z = e^{it})."""
    c = np.asarray(a) - 1j * np.asarray(b)
    k = np.arange(1, c.size + 1)

    def f(t):
        z = np.exp(1j * t)
        p = np.full_like(z, c[-1])
        for ck in c[-2::-1]:
            p = p * z + ck
        return c0 + (p * z).real

    step = 2.0 * math.pi / n
    t = step * np.arange(n)
    v = f(t)
    # a sample lies within step / 2 of the minimum, so it is at most this high
    near = t[v <= v.min() + np.sum(k * k * np.abs(c)) * step * step / 8.0]
    return min(f(np.linspace(s - step, s + step, 2001)).min() for s in near)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("top", [1, 2, 3, 8, 17, 32])
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_least_matches_sampled_minimum(seed, top, sparse):
    rng = np.random.default_rng(1000 * top + seed)
    k = np.arange(1, top + 1)
    ab = rng.normal(size=(top, 2)) / k[:, None] ** rng.uniform(0.0, 2.0)
    if sparse:
        ab[:-1][rng.uniform(size=top - 1) < 0.7] = 0.0
    c0 = rng.normal()
    least = Harmonics.of(c0, k.astype(float), ab[:, 0], ab[:, 1]).least()
    assert abs(least - _sampled_least(c0, ab[:, 0], ab[:, 1])) <= 1e-13 * (
        abs(c0) + np.abs(ab).sum())


def test_least_of_a_series_without_harmonics_is_c0():
    assert Harmonics.of(1.7, np.arange(1.0, 4.0), np.zeros(3), np.zeros(3)).least() == 1.7
    assert Disk((0.3, 0.1), 2.5).series.least() == 2.5


def test_least_with_only_harmonic_one():
    # the rho series of such a body has no harmonics: 1 - k^2 = 0
    series = Harmonics.of(0.5, np.array([1.0]), np.array([0.3]), np.array([0.4]))
    assert abs(series.least()) < 1e-15
    body = SupportBody(1.0, ((0.3, 0.4),))
    assert body.series.least() == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("coeffs", [
    ((1e-310, 0.0),),
    ((0.0, 5e-324), (1e-310, 0.0)),
    ((0.01, 0.0), (0.0, 0.0), (1e-310, 5e-324)),
    ((5e-324, 0.0), (0.0, 0.0), (0.01, 0.0)),
], ids=["one", "two", "top", "bottom"])
def test_subnormal_harmonics_construct_without_warning(coeffs):
    # left in the polynomial, a subnormal top harmonic overflows the roots' companion matrix
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        body = SupportBody(1.0, coeffs)
    assert body.series.least() == pytest.approx(1.0 - max(map(max, coeffs)), abs=1e-15)


def test_support_body_rejects_origin_outside_between_grid_points():
    # h dips to -1.0e-7 between the points of a 4096-point grid, where it
    # stays positive; the body was taken as containing the origin
    a0, coeffs = 1.0, ((-0.988140181899701, -0.1535551396575058),)
    theta = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    assert (a0 + coeffs[0][0] * np.cos(theta) + coeffs[0][1] * np.sin(theta)).min() > 0.0
    with pytest.raises(NotC2Plus, match="origin inside"):
        SupportBody(a0, coeffs)


@pytest.mark.parametrize("build, message", [
    (lambda: SupportBody(1.0, ((0.0, 0.0, 1.0),)),
     r"harmonic 1 must be two numbers, got \(0.0, 0.0, 1.0\)"),
    (lambda: SupportBody(1.0, ((0.0, 0.0), 0.1)), "harmonic 2 must be two numbers, got 0.1"),
    (lambda: SupportBody(1.0, ("ab",)), "harmonic 1 must be two numbers, got 'ab'"),
    (lambda: SupportBody([1.0]), r"a0 must be one number, got \[1.0\]"),
    (lambda: Disk((0.0, 0.0), [1.0]), r"radius must be one number, got \[1.0\]"),
    (lambda: SupportBody(10 ** 400), "a0 is beyond the float range"),
    (lambda: Disk((0.0, 0.0), 10 ** 400), "radius is beyond the float range"),
], ids=["harmonic-three", "harmonic-scalar", "harmonic-string", "a0-list", "radius-list",
        "a0-huge-int", "radius-huge-int"])
def test_smooth_body_names_a_malformed_number(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def _random_c2plus_coeffs(rng, harmonics):
    # sum_k (k^2 - 1) |c_k| < 1/2 keeps rho = h + h'' above 1/2
    coeffs = np.zeros((KMAX, 2))
    k = np.asarray(harmonics)
    coeffs[k - 1] = rng.uniform(-1.0, 1.0, (k.size, 2)) / (4.0 * k[:, None] ** 2 * k.size)
    return tuple(map(tuple, coeffs))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("harmonics, center", [
    (range(1, KMAX + 1), (0.0, 0.0)),
    ((2, 5, 17, 32), (0.0, 0.0)),
    ((1, 3, 4, 30), (1.7, -0.4)),
])
def test_series_matches_per_harmonic_loops(seed, harmonics, center):
    rng = np.random.default_rng(seed)
    body = SupportBody(1.0 + rng.uniform(), _random_c2plus_coeffs(rng, harmonics), center)
    assert body.series.k.size == len(harmonics)
    theta = rng.uniform(-10.0, 10.0, 500)
    for new, loop in ((body.h(theta), loop_h), (body.series.terms(theta)[1], loop_h1),
                      (body.rho(theta), loop_rho), (body.boundary(theta), loop_boundary)):
        ref = loop(body, theta)
        np.testing.assert_allclose(new, ref, rtol=0.0, atol=1e-13 * np.abs(ref).max())


def test_zonogon_square_and_errors():
    z = zonogon((0, 0), [Segment((-1, 0), (1, 0)), Segment((0, -1), (0, 1))])
    assert np.allclose(sorted(map(tuple, z.vertices)), [(-1, -1), (-1, 1), (1, -1), (1, 1)])
    with pytest.raises(DegenerateZonogon):
        zonogon((0, 0), [Segment((-1, 0), (1, 0)), Segment((-2, 0), (2, 0))])


def test_zonogon_parallelogram_vertices():
    h1, _ = example_pair(1, alpha=1, beta=1, gamma=1, delta=1)
    expected = {(1 + 1 / SQ2, 1 / SQ2), (1 - 1 / SQ2, -1 / SQ2),
                (-1 + 1 / SQ2, 1 / SQ2), (-1 - 1 / SQ2, -1 / SQ2)}
    got = {tuple(np.round(v, 12)) for v in h1.vertices}
    assert got == {tuple(np.round(v, 12)) for v in expected}


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10 ** 9), st.integers(2, 5))
def test_zonogon_area_formula(seed, n_gen):
    rng = np.random.default_rng(seed)
    gens = []
    for _ in range(n_gen):
        p = rng.uniform(-1, 1, 2)
        q = rng.uniform(-1, 1, 2)
        if np.linalg.norm(q - p) > 1e-3:
            gens.append(Segment(tuple(p), tuple(q)))
    halves = np.array([half_vector(g) for g in gens])
    angles = np.arctan2(halves[:, 1], halves[:, 0]) % math.pi
    if len(gens) < 2 or np.min(np.abs(np.subtract.outer(angles, angles))
                               + np.eye(len(gens))) < 1e-6:
        return
    z = zonogon((0, 0), gens)
    # 4 sum_{i<j} |det(s_i, s_j)| over the half-vectors s
    det = np.outer(halves[:, 0], halves[:, 1]) - np.outer(halves[:, 1], halves[:, 0])
    formula = 4.0 * float(np.triu(np.abs(det), 1).sum())
    assert abs(area(z) - formula) < 1e-12 * max(1.0, area(z))


def test_example_pair_family3_m0_rectangles():
    h3, k3 = example_pair(3, alpha_p=1, gamma_p=2, beta_p=1, delta_p=2, m=0.0)
    # both are axis-aligned rectangles
    assert np.allclose(sorted(map(tuple, h3.vertices)), [(-1, -1), (-1, 1), (1, -1), (1, 1)])
    assert np.allclose(sorted(map(tuple, k3.vertices)), [(-2, -2), (-2, 2), (2, -2), (2, 2)])


def test_example_pair_invalid_params():
    with pytest.raises(InvalidFamilyParams):
        example_pair(1, alpha=-0.5)
    with pytest.raises(InvalidFamilyParams):
        example_pair(3, alpha_p=1.0, gamma_p=1.0, m=1.0)
    with pytest.raises(InvalidFamilyParams):
        example_pair(4, alpha_p=1.0, gamma_p=2.0, beta_p=1.0, delta_p=1.0, m=0.0)
    with pytest.raises(InvalidFamilyParams):
        example_pair(7)
    with pytest.raises(TypeError, match="unknown family parameter 'alpha_prime'"):
        example_pair(3, alpha_prime=2.0)
    # the fifth generator turns parallel to the first as |m| grows
    for m in (1e15, -1e200, 1e300):
        with pytest.raises(DegenerateZonogon, match="^draw 0: all generators are parallel$"):
            example_pair(3, alpha_p=1.5, m=m)


@pytest.mark.parametrize("name", ["alpha", "beta", "gamma", "delta", "alpha_p", "beta_p",
                                  "gamma_p", "delta_p", "m", "y", "y_p"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_example_pair_rejects_a_non_finite_parameter(name, bad):
    # a nan alpha once raised "all generators are parallel", a nan alpha'
    # the m = 0 message
    for family in (1, 2, 3, 4):
        with pytest.raises(InvalidFamilyParams, match=f"^draw 0: {name} must be finite$"):
            example_pair(family, **{name: (0.0, bad) if name.startswith("y") else bad})


def test_transform_examples(unit_square):
    refl = reflect(unit_square)
    assert np.allclose(sorted(map(tuple, refl.vertices)), [(-1, -1), (-1, 0), (0, -1), (0, 0)])
    moved = translate(Disk((0, 0), 1.0), (3, 0))
    assert moved.center == (3.0, 0.0)
    assert reflect(refl) == unit_square


def test_reflect_support_body(cw3):
    refl = reflect(cw3)
    for th in np.linspace(0, 2 * math.pi, 25):
        u = Direction(float(th))
        assert abs(support(refl, u) - support(cw3, u.antipode())) < 1e-12


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10 ** 9))
def test_support_translation_property(seed):
    rng = np.random.default_rng(seed)
    poly = Polygon(convex_hull(rng.uniform(-2, 2, (9, 2))))
    x = rng.uniform(-3, 3, 2)
    moved = translate(poly, x)
    for th in rng.uniform(0, 2 * math.pi, 12):
        u = Direction(float(th))
        assert abs(support(moved, u) - support(poly, u) - float(x @ u.u)) < 1e-12


def test_width_even_on_grid(cw3, unit_square):
    for body in (cw3, unit_square, Disk((0.3, 0.1), 0.7)):
        for th in np.linspace(0, 2 * math.pi, 360, endpoint=False):
            u = Direction(float(th))
            assert abs(width(body, u) - width(body, u.antipode())) < 1e-12


def test_boundary_point_supports_body(cw3):
    for th in np.linspace(0, 2 * math.pi, 360, endpoint=False):
        u = Direction(float(th))
        x = boundary_point(cw3, u)
        assert abs(float(x @ u.u) - support(cw3, u)) < 1e-12


def test_area_closed_forms(cw3):
    # series closed form against the shoelace of a fine boundary polygon
    approx = polygonal_approximation(cw3, 4096)
    assert abs(area(cw3) - area(approx)) < 1e-5
    assert abs(area(Disk((1, 2), 1.5)) - math.pi * 2.25) < 1e-14


def test_minkowski_sum_polygons(unit_square):
    s = minkowski_sum_polygons(unit_square, reflect(unit_square))
    assert np.allclose(sorted(map(tuple, s.vertices)), [(-1, -1), (-1, 1), (1, -1), (1, 1)])


def test_steiner_point_translation_equivariance(make_polygon):
    rng = np.random.default_rng(5)
    poly = make_polygon(rng)
    x = np.array([0.7, -1.3])
    assert np.allclose(steiner_point(translate(poly, x)), steiner_point(poly) + x, atol=1e-12)
    square = Polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    assert np.allclose(steiner_point(square), [0, 0], atol=1e-12)


def test_steiner_point_matches_quadrature(make_polygon):
    # (1/pi) integral of h(u) u d theta by the periodic trapezoid rule on a fine
    # grid, with h(u) the largest <v, u> over the vertices
    theta = np.linspace(0.0, 2.0 * math.pi, 2 ** 16, endpoint=False)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    rng = np.random.default_rng(17)
    for _ in range(20):
        poly = translate(make_polygon(rng, n_points=int(rng.integers(3, 12))),
                         rng.uniform(-2.0, 2.0, 2))
        h = (dirs @ poly.vertices.T).max(axis=1)
        oracle = 2.0 * np.mean(h[:, None] * dirs, axis=0)
        assert np.abs(steiner_point(poly) - oracle).max() < 1e-8


def test_body_spec_round_trip(unit_square, unit_disk, cw3):
    for body in (unit_square, unit_disk, cw3):
        again = body_from_spec(body_to_spec(body))
        assert body_hash(again) == body_hash(body)
    z = body_from_spec({"kind": "zonogon", "center": [0, 0],
                        "generators": [[[-1, 0], [1, 0]], [[0, -1], [0, 1]]]})
    assert isinstance(z, Polygon)
    with pytest.raises(ValueError):
        body_from_spec({"kind": "disk", "center": [0, 0], "radius": 1, "extra": 2})
    with pytest.raises(ValueError):
        body_from_spec({"kind": "banana"})


@pytest.mark.parametrize("spec", [
    {"kind": "disk", "center": [0, 0], "radius": math.nan},
    {"kind": "disk", "center": [0, 0], "radius": math.inf},
    {"kind": "disk", "center": [math.nan, 0], "radius": 1.0},
    {"kind": "support2d", "a0": math.nan, "coeffs": []},
    {"kind": "support2d", "a0": 1.0, "coeffs": [[0, 0], [0, 0], [math.nan, 0]]},
    {"kind": "polygon", "vertices": [[0, 0], [1, 0], [1, math.inf], [0, 1]]},
    {"kind": "zonogon", "center": [0, 0], "generators": [[[-1, 0], [1, 0]], [[0, -1], [0, math.nan]]]},
])
def test_body_spec_rejects_non_finite(spec):
    with pytest.raises(ValueError, match="non-finite"):
        body_from_spec(spec)


@pytest.mark.parametrize("spec, message", [
    ({"kind": "support2d", "a0": 1, "coeffs": 5}, "'coeffs' of 'support2d' body must be a list, got 5"),
    ({"kind": "disk", "center": 0, "radius": 1}, "center must be two numbers, got 0"),
    ({"kind": "support2d", "a0": 1, "coeffs": {"a": 1}},
     r"'coeffs' of 'support2d' body must be a list, got \{'a': 1\}"),
    ({"kind": "zonogon", "generators": [[0, 1], [1, 0]]},
     r"generator 1 must be two endpoints, got \[0, 1\]"),
    ({"kind": ["polygon"]}, r"unknown body kind \['polygon'\]"),
], ids=["coeffs-number", "center-number", "coeffs-object", "generator-of-numbers", "kind-list"])
def test_malformed_body_field_is_named(spec, message):
    # these raised TypeError with Python's iteration, float() or hashing
    # text, or named no generator
    with pytest.raises(ValueError, match=message):
        body_from_spec(spec)


@pytest.mark.parametrize("build", [
    lambda: SupportBody(math.nan),
    lambda: SupportBody(1.0, ((math.nan, 0.0),)),
    lambda: SupportBody(1.0, (), (math.inf, 0.0)),
    lambda: Disk((0, 0), math.nan),
    lambda: Disk((math.nan, 0), 1.0),
    lambda: Disk((0, 0), math.inf),
], ids=["a0-nan", "coeff-nan", "center-inf", "disk-radius-nan", "disk-center-nan",
        "disk-radius-inf"])
def test_smooth_body_rejects_non_finite(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("build", [
    lambda: Disk((0.0,), 1.0),
    lambda: Disk((0.0, 0.0, 5.0), 1.0),
    lambda: SupportBody(1.0, (), (1.0,)),
    lambda: SupportBody(1.0, (), (1.0, 0.0, 0.0)),
    lambda: SupportBody(1.0, (), 1.0),
    lambda: SupportBody(1.0, (), (0.0, (1.0, 2.0))),
], ids=["disk-one", "disk-three", "support-one", "support-three", "support-scalar",
        "support-ragged"])
def test_smooth_body_center_is_two_numbers(build):
    with pytest.raises(ValueError, match="center must be two numbers"):
        build()


def test_disk_is_the_series_h_equals_r():
    c, r = (0.3, -0.2), 1.3
    disk, series = Disk(c, r), SupportBody(r, (), c)
    assert disk.radius == r and disk.center == c
    assert area(disk) == area(series)
    for th in np.linspace(0.0, 2.0 * math.pi, 13):
        u = Direction(float(th))
        assert support(disk, u) == support(series, u)
        assert np.array_equal(boundary_point(disk, u), boundary_point(series, u))
        assert curvature(disk, u) == curvature(series, u)
    assert np.array_equal(polygonal_approximation(disk, 256).vertices,
                          polygonal_approximation(series, 256).vertices)


def test_disk_identity_is_pinned():
    disk = Disk((0.3, -0.2), 1.3)
    assert body_to_spec(disk)["kind"] == "disk"
    assert body_hash(disk) == "83ad6bdcbf8fda3f"
    assert body_hash(Disk((0.0, 0.0), 1.0)) == "8ba76a21c65cf16d"
    assert type(translate(disk, (1.0, 2.0))) is Disk
    assert type(reflect(disk)) is Disk
    assert pickle.loads(pickle.dumps(disk)) == disk
    assert Disk((0, 0), 1.0) != SupportBody(1.0)
    with pytest.raises(ValueError):
        Disk((0, 0), -1.0)


def test_polygon_canonicalization():
    # collinear vertex dropped, clockwise input reversed, start at lexicographic min
    p = Polygon([(1, 1), (0, 1), (0, 0), (0.5, 0.0), (1, 0)])
    assert p.vertices.shape == (4, 2)
    assert tuple(p.vertices[0]) == (0.0, 0.0)
    q = Polygon([(0, 0), (0, 1), (1, 1), (1, 0)])  # clockwise
    assert q == Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    with pytest.raises(ValueError):
        Polygon([(0, 0), (1, 0), (2, 0)])


def test_polygon_coordinate_overflow_is_named():
    # the edge products overflowed with RuntimeWarnings, and the error blamed
    # collinear removal
    with pytest.raises(ValueError, match="^polygon coordinates overflow"):
        Polygon([(0, 0), (1e200, 0), (0, 1e200)])


def test_polygon_keeps_a_repeated_vertex_once():
    square = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    for v in ([[0, 0], [1, 0], [1, 0], [1, 1], [0, 1]],
              [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]):  # closed ring
        assert Polygon(v) == square and area(Polygon(v)) == 1.0


def test_polygon_keeps_a_half_turn_vertex_until_its_neighbours_go():
    # (2, 2) sits between two points of its own ray from the origin: it turns
    # by a half turn there and must outlast its two reflex neighbours
    star = [(-2, -2), (2, -2), (1, 1), (2, 2), (0.5, 0.5), (-2, 2)]
    assert Polygon(star) == Polygon([(-2, -2), (2, -2), (2, 2), (-2, 2)])


def _clouds(kind, rng):
    n = int(rng.integers(3, 40))
    if kind == "uniform":
        return rng.uniform(-1.0, 1.0, (n, 2))
    if kind == "lattice":  # duplicates and collinear points
        return rng.integers(-3, 4, (n + 3, 2)).astype(float)
    if kind == "circle":
        t = rng.uniform(0.0, 2.0 * math.pi, n)
        return np.vstack([np.c_[np.cos(t), np.sin(t)], rng.uniform(-0.5, 0.5, (n, 2))])
    if kind == "flat":
        return rng.normal(size=(n, 2)) * [1.0, 1e-3]
    t = 2.0 * math.pi * rng.integers(0, 12, n) / 12.0  # two radii on twelve rays
    return np.c_[np.cos(t), np.sin(t)] * rng.integers(1, 3, (n, 1))


@pytest.mark.parametrize("kind", ["uniform", "lattice", "circle", "flat", "rays"])
def test_convex_hull_is_the_monotone_chain(kind):
    for seed in range(300):
        pts = _clouds(kind, np.random.default_rng(seed))
        assert Polygon(convex_hull(pts)) == Polygon(loop_convex_hull(pts))
    pts = np.random.default_rng(1).uniform(-1.0, 1.0, (10_000, 2))
    assert Polygon(convex_hull(pts)) == Polygon(loop_convex_hull(pts))


def test_convex_hull_edge_cases():
    with pytest.raises(ValueError):
        convex_hull([(0, 0), (1, 1), (2, 2), (3, 3), (1, 1)])
    for seed in range(50):
        q = np.random.default_rng(seed).uniform(-1.0, 1.0, (5, 2))
        pts = np.vstack([np.stack([q, -q], axis=1).reshape(-1, 2), [(0.0, 0.0)]])
        assert np.all(pts.mean(axis=0) == 0.0)  # the mean is one of the points
        assert not np.any(np.all(convex_hull(pts) == 0.0, axis=1))


def test_sorted_distinct_gives_np_unique_bytes(monkeypatch):
    # panel_table, slice_table and convex_hull drop np.unique, which imports
    # numpy.ma; their sort-and-mask steps keep its bytes, -0.0 and 0.0 included
    seen = []

    def spy(x):
        seen.append(sorted_distinct(x))
        return seen[-1]

    monkeypatch.setattr(geometry, "sorted_distinct", spy)
    for seed in range(500):
        rng = np.random.default_rng(seed)
        values = np.array([-1.5, -0.0, 0.0, 0.25, 1.0, rng.uniform(-1.0, 1.0)])
        x = rng.choice(values, size=int(rng.integers(1, 40)))
        assert sorted_distinct(x).tobytes() == np.unique(x).tobytes()
        pts = rng.choice(values, size=(int(rng.integers(3, 40)), 2))
        seen.clear()
        with contextlib.suppress(ValueError):  # fewer than 3 distinct points
            convex_hull(pts)
        assert seen[0].view(float).reshape(-1, 2).tobytes() == np.unique(pts, axis=0).tobytes()


def _random_generators(rng, n):
    return [Segment(tuple(p), tuple(p + d))
            for p, d in zip(rng.uniform(-1.0, 1.0, (n, 2)), rng.uniform(-1.0, 1.0, (n, 2)))]


def test_minkowski_sum_is_the_edge_merge(cw3):
    for seed in range(300):
        rng = np.random.default_rng(seed)
        h = Polygon(convex_hull(rng.uniform(-1.0, 1.0, (int(rng.integers(3, 15)), 2))))
        k = reflect(h) if seed % 3 == 0 else Polygon(convex_hull(
            rng.uniform(-1.0, 1.0, (int(rng.integers(3, 15)), 2)) + rng.uniform(-2.0, 2.0, 2)))
        assert minkowski_sum_polygons(h, k) == loop_minkowski_sum(h, k)
    h = polygonal_approximation(cw3, 4096)
    k = polygonal_approximation(reflect(Disk((0.1, 0.0), 0.9)), 4096)
    assert minkowski_sum_polygons(h, k) == loop_minkowski_sum(h, k)


def test_minkowski_sum_of_shared_edge_directions():
    # the loop adds two parallel edges in one step, the sort one after the other
    for seed in range(300):
        rng = np.random.default_rng(seed)
        gens = _random_generators(rng, int(rng.integers(2, 5)))
        h = zonogon(rng.uniform(-1.0, 1.0, 2), gens)
        k = [reflect(h), translate(h, rng.uniform(-1.0, 1.0, 2)),
             zonogon((0, 0), gens[:1] + _random_generators(rng, 2))][seed % 3]
        new, old = minkowski_sum_polygons(h, k), loop_minkowski_sum(h, k)
        assert new.vertices.shape == old.vertices.shape
        assert np.abs(new.vertices - old.vertices).max() <= 4e-15


def test_zonogon_is_the_merged_loop():
    for seed in range(300):
        rng = np.random.default_rng(seed)
        gens, c = _random_generators(rng, int(rng.integers(2, 7))), rng.uniform(-1.0, 1.0, 2)
        assert zonogon(c, gens) == loop_zonogon(c, gens)
    # the closed-form parallelograms are the vertices of the zonogons of the
    # scaled unit segments, bit for bit, in all four families; m = 0 in a
    # third of the draws, -0.0 in some
    draws = []
    for seed in range(240):
        rng = np.random.default_rng(seed)
        a, b, g, d, ap, bp = rng.uniform(0.05, 5.0, 6)
        m = [0.0, -0.0 if seed % 2 else 0.0, rng.uniform(-3.0, 3.0)][seed % 3]
        draws.append(dict(alpha=a, beta=b, gamma=g, delta=d, alpha_p=ap, beta_p=bp,
                          gamma_p=ap * rng.uniform(1.1, 2.0), delta_p=bp * rng.uniform(0.5, 0.9),
                          m=m, y=tuple(rng.uniform(-3.0, 3.0, 2)),
                          y_p=tuple(rng.uniform(-3.0, 3.0, 2))))
    loops = parallelogram_loops((1, 2, 3, 4), draws)
    assert loops.shape == (240, 8, 4, 2)
    for draw, row in zip(draws, loops):
        polygons = [p for f in (1, 2, 3, 4) for p in zonogon_pair(f, **draw)]
        assert [v.tobytes() for v in row] == [p.vertices.tobytes() for p in polygons]
        assert [p.vertices.tobytes() for f in (1, 2, 3, 4) for p in example_pair(f, **draw)] == [
            v.tobytes() for v in row]


def test_zonogon_with_parallel_generators():
    for seed in range(300):
        rng = np.random.default_rng(seed)
        gens = _random_generators(rng, int(rng.integers(2, 5)))
        s, f, m = gens[int(rng.integers(len(gens)))], rng.choice([-1.7, -0.5, 0.3, 2.0]), \
            rng.uniform(-1.0, 1.0, 2)
        gens.append(Segment(tuple(m + f * np.asarray(s.p)), tuple(m + f * np.asarray(s.q))))
        c = rng.uniform(-1.0, 1.0, 2)
        new, old = zonogon(c, gens), loop_zonogon(c, gens)
        assert new.vertices.shape == old.vertices.shape
        assert np.abs(new.vertices - old.vertices).max() <= 4e-15
    with pytest.raises(DegenerateZonogon):
        zonogon((1, 2), [Segment((0, 0), (1, 2)), Segment((3, 3), (2, 1)),
                         Segment((-1, -1), (0.5, 2))])


@pytest.mark.parametrize("vertices", [
    [[0, 0], [2, 0], [1, 1.5], [2, 2], [0, 2]],  # a reflex vertex: area 3, hull area 4
    [[math.cos(4 * math.pi * k / 5), math.sin(4 * math.pi * k / 5)] for k in range(5)],
])
def test_polygon_spec_rejects_vertices_out_of_convex_position(vertices):
    with pytest.raises(ValueError, match="convex position"):
        body_from_spec({"kind": "polygon", "vertices": vertices})


def test_polygon_spec_accepts_convex_position():
    square = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    for v in ([[0, 0], [0, 1], [1, 1], [1, 0]],  # clockwise
              [[0, 0], [0.5, 0], [1, 0], [1, 1], [0, 1]],  # a collinear extra vertex
              [[0, 0], [1, 0], [1, 0], [1, 1], [0, 1], [0, 0]]):  # repeated vertices
        assert body_from_spec({"kind": "polygon", "vertices": v}) == square
    for seed in range(200):
        poly = Polygon(convex_hull(np.random.default_rng(seed).uniform(-1.0, 1.0, (12, 2))))
        assert body_from_spec(body_to_spec(poly)) == poly
