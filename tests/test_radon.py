import math
import tracemalloc

import numpy as np
import pytest
from chord_reference import bisected_chord_at_offset
from quadrature_reference import loop_chord_autocorrelation_batch

from covario._quadrature import panel_table
from covario.covariogram import covariogram
from covario.fourier_laplace import OSC_BUDGET
from covario.geometry import (
    Direction,
    Disk,
    Harmonics,
    Polygon,
    SupportBody,
    area,
    convex_hull,
    polygonal_approximation,
)
from covario.radon import (
    chord_autocorrelation_batch,
    chord_function,
    leading_coefficients,
)

E1 = Direction(0.0)


def test_chord_examples(unit_square, unit_disk):
    assert abs(chord_function(unit_disk, E1)(0.0) - 2.0) < 1e-14
    assert abs(chord_function(unit_square, E1)(0.5) - 1.0) < 1e-14
    assert chord_function(unit_square, E1)(1.5) == 0.0
    assert chord_function(unit_square, E1)(-0.5) == 0.0


def test_support_chord_ends_are_zero(cw3):
    # the ends lie on the support lines, where the chord vanishes exactly; the
    # bisection for the end normals resolves them only to about sqrt(eps)
    moved = SupportBody(1.0, ((0.0, 0.0), (0.04, -0.03), (0.02, 0.01), (-0.008, 0.006),
                              (0.003, -0.002)), center=(0.7, -1.3))
    for body in (cw3, moved):
        for theta in np.linspace(0.0, 2.0 * math.pi, 9, endpoint=False):
            cf = chord_function(body, Direction(float(theta)))
            assert cf(cf.lo) == 0.0 and cf(cf.hi) == 0.0
            assert cf(0.5 * (cf.lo + cf.hi)) > 0.0


def test_smooth_chord_vs_polygonal_oracle(cw3):
    approx = polygonal_approximation(cw3, 4096)
    for t in (-0.6, -0.2, 0.0, 0.3, 0.8):
        assert abs(chord_function(cw3, E1)(t) - chord_function(approx, E1)(t)) < 1e-6


def test_area_identity_all_kinds(unit_square, unit_disk, cw3):
    rng = np.random.default_rng(0)
    poly = Polygon(convex_hull(rng.uniform(-1, 1, (9, 2))))
    for body in (unit_square, unit_disk, cw3, poly, Disk((0.4, -0.2), 1.7)):
        for th in rng.uniform(0, 2 * math.pi, 5):
            cf = chord_function(body, Direction(float(th)))
            nodes, weights = panel_table(cf.lo, cf.hi, cf.breakpoints)
            assert abs(float(np.sum(weights * cf(nodes))) - area(body)) < 1e-8


def test_chord_antisymmetry(cw3, unit_square):
    rng = np.random.default_rng(1)
    for body in (cw3, unit_square):
        for th in rng.uniform(0, 2 * math.pi, 6):
            u = Direction(float(th))
            mu = u.antipode()
            for t in rng.uniform(-1.2, 1.2, 8):
                assert abs(chord_function(body, u)(t) - chord_function(body, mu)(-t)) < 1e-10


def test_chord_nonnegative_and_supported(cw3):
    cf = chord_function(cw3, Direction(0.7))
    ts = np.linspace(cf.lo - 0.5, cf.hi + 0.5, 200)
    vals = cf(ts)
    assert np.all(vals >= 0.0)
    outside = (ts < cf.lo) | (ts > cf.hi)
    assert np.all(vals[outside] == 0.0)


def test_autocorrelation_square(unit_square):
    assert abs(chord_autocorrelation_batch(unit_square, E1, [0.0])[0] - 1.0) < 1e-12
    assert chord_autocorrelation_batch(unit_square, E1, [1.5])[0] == 0.0


def test_autocorrelation_even_and_peaked(unit_disk, cw3):
    for body in (unit_disk, cw3):
        svals = np.array([0.1, 0.4, 0.9, 1.3])
        plus = chord_autocorrelation_batch(body, E1, svals)
        minus = chord_autocorrelation_batch(body, E1, -svals)
        assert np.abs(plus - minus).max() < 1e-10
        peak = chord_autocorrelation_batch(body, E1, [0.0])[0]
        assert np.all(plus <= peak + 1e-12)


def test_autocorrelation_matches_radon_of_covariogram(unit_disk):
    """The chord autocorrelation is the Radon transform of g_K in the same direction."""
    s = 1.0
    direct = chord_autocorrelation_batch(unit_disk, E1, [s])[0]
    # independent route: line integral of the clipping-based covariogram
    ext = math.sqrt(4.0 - s * s)
    nodes, weights = panel_table(-ext, ext, [0.0])
    vals = np.array([covariogram(unit_disk, (s, float(t))) for t in nodes])
    assert abs(direct - float(np.sum(weights * vals))) < 1e-5


def _verify_polygon_shifts():
    """The polygon of `verify factorization --seed 39` and the nodes of its
    autocorrelation table on [-w, w], shifts of both signs."""
    rng = np.random.default_rng(39)  # as cli.suite_factorization
    poly = Polygon(convex_hull(rng.uniform(-1.0, 1.0, size=(9, 2))))
    u = Direction(0.7)
    cf = chord_function(poly, u)
    knots = np.concatenate([[cf.lo], cf.breakpoints, [cf.hi]])
    brks = [0.0, *(knots[None, :] - knots[:, None]).ravel()]
    nodes, _ = panel_table(-cf.width, cf.width, brks, max_freq=50.0, osc_budget=OSC_BUDGET)
    return poly, u, nodes


def _edge_shifts(body, u):
    """s = 0, +-width, shifts past the width and every breakpoint difference."""
    cf = chord_function(body, u)
    knots = np.concatenate([[cf.lo], cf.breakpoints, [cf.hi]])
    w = cf.width
    return np.concatenate([[0.0, w, -w, 1.5 * w, -2.0 * w, np.nextafter(w, 0.0)],
                           (knots[None, :] - knots[:, None]).ravel()])


def test_autocorrelation_batch_equals_loop(unit_disk, unit_square):
    poly, u, outer = _verify_polygon_shifts()
    cases = [(unit_disk, E1, np.linspace(-2.5, 2.5, 101)),
             (unit_square, E1, np.linspace(-1.5, 1.5, 101)),
             (unit_square, Direction(0.3), np.linspace(-1.5, 1.5, 101)),
             (poly, u, outer)]
    for body, v, shifts in cases:
        shifts = np.concatenate([shifts, _edge_shifts(body, v)])
        batch = chord_autocorrelation_batch(body, v, shifts)
        order = chord_function(body, v).autocorr_order
        assert np.array_equal(batch, loop_chord_autocorrelation_batch(body, v, shifts, order))
    edge = chord_autocorrelation_batch(poly, u, _edge_shifts(poly, u)[:5])
    assert edge[0] > 0.0 and np.all(edge[1:] == 0.0)


def test_polygon_autocorrelation_order_3_is_exact(make_polygon):
    # S(t) S(t + s) is quadratic between cuts, so 3 points per half-panel give
    # the 64-point values to rounding, relative to the peak C(0)
    for seed in range(40):
        rng = np.random.default_rng(seed)
        poly = make_polygon(rng, n_points=int(rng.integers(3, 12)))
        u = Direction(float(rng.uniform(0.0, 2.0 * math.pi)))
        cf = chord_function(poly, u)
        assert cf.autocorr_order == 3
        shifts = np.concatenate([[0.0], rng.uniform(-cf.width, cf.width, 40),
                                 _edge_shifts(poly, u)])
        batch = chord_autocorrelation_batch(poly, u, shifts)
        loop = loop_chord_autocorrelation_batch(poly, u, shifts, order=64)
        assert np.abs(batch - loop).max() <= 1e-14 * loop[0]


def test_autocorrelation_batch_equals_loop_smooth(cw3):
    shifts = np.array([0.0, 0.3, -1.1, 1.99, 2.5])
    assert np.array_equal(chord_autocorrelation_batch(cw3, Direction(0.2), shifts),
                          loop_chord_autocorrelation_batch(cw3, Direction(0.2), shifts))


def test_autocorrelation_batch_empty(unit_square):
    out = chord_autocorrelation_batch(unit_square, E1, [])
    assert out.shape == (0,) and out.dtype == float


def test_autocorrelation_batch_memory_bounded():
    # building the whole table at once peaks at 179 MiB on these shifts
    poly, u, outer = _verify_polygon_shifts()
    assert outer.size == 3840
    chord_autocorrelation_batch(poly, u, outer[:1])
    tracemalloc.start()
    try:
        chord_autocorrelation_batch(poly, u, outer)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_leading_coefficients(unit_disk, cw3):
    a0, b0 = leading_coefficients(unit_disk, E1)
    assert abs(a0 - 2.0 * math.sqrt(2.0)) < 1e-14
    assert abs(b0 - 2.0 * math.sqrt(2.0)) < 1e-14
    a0, b0 = leading_coefficients(cw3, E1)
    assert abs(b0 / a0 - math.sqrt(0.6 / 1.4)) < 1e-12
    big = Disk((0.0, 0.0), 4.0)
    a0_big, _ = leading_coefficients(big, E1)
    a0_unit, _ = leading_coefficients(unit_disk, E1)
    assert abs(a0_big - a0_unit * 2.0) < 1e-12  # a0 scales like sqrt(R)


def test_square_root_coefficient_fit(unit_disk):
    # S(u, h - delta) / sqrt(delta) tends to b0 = 2 sqrt(2) for the unit disk
    _, b0 = leading_coefficients(unit_disk, E1)
    deltas = np.geomspace(1e-6, 1e-4, 8)
    fitted = np.mean([chord_function(unit_disk, E1)(1.0 - d) / math.sqrt(d) for d in deltas])
    assert abs(fitted - b0) / b0 < 0.01


def test_polygon_chord_with_parallel_edge(unit_square):
    # chords at the projections of the vertical edges
    assert abs(chord_function(unit_square, E1)(0.0) - 1.0) < 1e-14
    assert abs(chord_function(unit_square, E1)(1.0) - 1.0) < 1e-14


def test_translated_support_body_chords(cw3):
    from covario.geometry import translate

    shift = np.array([0.8, -0.3])
    moved = translate(cw3, shift)
    u = Direction(0.5)
    off = float(shift @ u.u)
    for t in (-0.5, 0.0, 0.4):
        assert abs(chord_function(moved, u)(t + off) - chord_function(cw3, u)(t)) < 1e-10


FOUR_HARMONICS = SupportBody(1.0, ((0.0, 0.0), (0.04, -0.03), (0.02, 0.01), (-0.008, 0.006),
                                   (0.003, -0.002)), center=(0.7, -1.3))
# rho = 1 - 0.99992 cos 3 theta falls to 8e-5 at three near-corners
NEAR_CORNER = SupportBody(1.0, ((0.0, 0.0), (0.0, 0.0), (0.99992 / 8.0, 0.0)))


def _half_turn_brackets(theta):
    """The brackets of chord_function's two chord ends for the direction theta."""
    return np.array([[theta], [theta - math.pi]]), np.array([[theta + math.pi], [theta]])


def _counted_terms(monkeypatch):
    calls = []
    terms = Harmonics.terms

    def counted(self, t):
        calls.append(np.size(t))
        return terms(self, t)

    monkeypatch.setattr(Harmonics, "terms", counted)
    return calls


@pytest.mark.parametrize("name", ["cw3", "four-harmonics", "near-corner"])
def test_newton_chords_match_bisection(name, cw3):
    # every chord strictly inside within 1e-12 of the 60-step bisection's,
    # relative; at the two tips the chord is 0: exactly at s = h(u), where
    # the seed is the bracket's end and g = 0 there, and to about sqrt(eps)
    # at s = -h(-u), where g at the end is a rounding error of the length's
    # size and either solver resolves the root only to sqrt(eps)
    body = {"cw3": cw3, "four-harmonics": FOUR_HARMONICS, "near-corner": NEAR_CORNER}[name]
    for theta in np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False):
        hu, hmu = float(body.h(theta)), float(body.h(theta + math.pi))
        s = np.linspace(-hmu, hu, 401)[1:-1]
        a, b = _half_turn_brackets(theta)
        length = body.series.chord_at_offset(s, theta, a, b)[1]
        ref = bisected_chord_at_offset(body.series, s, theta, a, b)[1]
        assert np.all(np.abs(length - ref) <= 1e-12 * ref), theta
        tips = body.series.chord_at_offset(np.array([hu, -hmu]), theta, a, b)[1]
        assert tips[0] == 0.0 and abs(tips[1]) <= 4.0 * math.sqrt(np.finfo(float).eps), theta


def test_chord_at_its_seed_is_returned_as_it_is(monkeypatch):
    # on a disk the seed, where the cosine through the bracket's end values
    # crosses 0, is the root: each end settles on the first iteration (one
    # terms call for the bracket ends, one for it, one for the lengths), some
    # with g = 0 exactly, which no step may move off
    disk = Disk((0.0, 0.0), 1.0).series
    theta = 0.9
    s = np.linspace(-1.0, 1.0, 257)
    a, b = _half_turn_brackets(theta)
    calls = _counted_terms(monkeypatch)
    phi, length = disk.chord_at_offset(s, theta, a, b)
    assert len(calls) == 3
    g = disk.offsets(phi, theta)[0] - s
    assert np.count_nonzero(g == 0.0) > 100
    assert np.abs(length - 2.0 * np.sqrt(1.0 - s * s)).max() <= 1e-15


def test_chord_ends_settle_on_the_newton_step(monkeypatch, cw3):
    # near a tip the iterates close on the root from one side, so the far end
    # of the bracket stays where it was: an end settles on its Newton step at
    # rounding level instead of bisecting that wide bracket (which took 54
    # steps and ended 0.3 rad off in a prototype)
    theta = 0.4
    hu, hmu = float(cw3.h(theta)), float(cw3.h(theta + math.pi))
    depth = (hu + hmu) * 10.0 ** -np.arange(3.0, 14.0)
    s = np.concatenate([hu - depth, depth - hmu])
    a, b = _half_turn_brackets(theta)
    calls = _counted_terms(monkeypatch)
    phi = cw3.series.chord_at_offset(s, theta, a, b)[0]
    assert len(calls) <= 8
    monkeypatch.undo()
    g = cw3.series.offsets(phi, theta)[0] - s
    assert np.abs(g).max() <= 8.0 * np.finfo(float).eps * max(hu, hmu)
    assert np.all((np.minimum(a, b) <= phi) & (phi <= np.maximum(a, b)))


def test_radon_table_takes_few_terms_calls(monkeypatch, cw3):
    # the 128 chords of cw3's default radon table in 8 terms calls, where the
    # bisection took 62
    cf = chord_function(cw3, Direction(0.3))
    calls = _counted_terms(monkeypatch)
    cf(np.linspace(cf.lo, cf.hi, 128))
    assert len(calls) <= 8
