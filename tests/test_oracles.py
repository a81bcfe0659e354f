import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covario.oracles import (
    InvalidCap,
    bessel_j1,
    bessel_j1_zero,
    matrix_identities,
    paraboloid_cap_quadrature,
    paraboloid_cap_volume_closed_form,
    random_spd,
)
from covario.cli import suite_matrix_identities
from matrix_reference import reference_worst
from mc_oracle import mc_area, paraboloid_region, paraboloid_volume
from paraboloid_reference import reference_hits, reference_member

# published reference values (Abramowitz & Stegun table 9.5)
J1_ZEROS = [3.8317059702075123, 7.0155866698156188, 10.173468135062722,
            13.323691936314223, 16.470630050877633]
J1_AT_3 = 0.33905895852593645


def square_membership(pts):
    return (pts[:, 0] >= 0) & (pts[:, 0] <= 1) & (pts[:, 1] >= 0) & (pts[:, 1] <= 1)


def test_mc_area_unit_square():
    est = mc_area(square_membership, [(0, 2), (0, 2)], 1_000_000, seed=42)
    assert abs(est.mean - 1.0) < 3.0 * est.standard_error
    assert 0.001 < est.standard_error < 0.003


def test_mc_area_reproducible():
    a = mc_area(square_membership, [(0, 2), (0, 2)], 200_000, seed=11)
    b = mc_area(square_membership, [(0, 2), (0, 2)], 200_000, seed=11)
    assert a.mean == b.mean and a.standard_error == b.standard_error
    c = mc_area(square_membership, [(0, 2), (0, 2)], 200_000, seed=12)
    assert c.mean != a.mean


def test_mc_area_disk_and_lens():
    disk = lambda pts: np.einsum("ij,ij->i", pts, pts) <= 1.0
    est = mc_area(disk, [(-1, 1), (-1, 1)], 1_000_000, seed=3)
    assert abs(est.mean - math.pi) < 3.0 * est.standard_error

    def lens(pts):
        d1 = pts[:, 0] ** 2 + pts[:, 1] ** 2
        d2 = (pts[:, 0] - 1.0) ** 2 + pts[:, 1] ** 2
        return (d1 <= 1.0) & (d2 <= 1.0)

    target = 2 * math.acos(0.5) - 0.5 * math.sqrt(3.0)
    est = mc_area(lens, [(-0.5, 1.5), (-1, 1)], 1_000_000, seed=4)
    assert abs(est.mean - target) < 3.0 * est.standard_error


def test_mc_area_rejects_empty_draws():
    for n in (0, -5):
        with pytest.raises(ValueError):
            mc_area(square_membership, [(0, 2), (0, 2)], n, seed=1)


def test_mc_area_column_layout_keeps_row_major_hits():
    # n is not a multiple of the chunk, so the draw ends on a short chunk
    rng = np.random.default_rng(5)
    a, b = random_spd(3, rng, (0.5, 3.0)), random_spd(3, rng, (0.5, 3.0))
    q, t = rng.uniform(-0.3, 0.3, size=3), 1.1
    member, bbox = paraboloid_region(a, b, q, t)
    n = 2 * 2 ** 16 + 12345
    est = mc_area(member, bbox, n, seed=7)
    volume = float(np.prod([hi - lo for lo, hi in bbox]))
    for oracle in (member, reference_member(a, b, q, t)):
        hits = reference_hits(oracle, bbox, n, seed=7)
        assert est.mean == volume * (hits / n)


def test_matrix_identities_identity_pair():
    rep = matrix_identities(np.eye(2), np.eye(2))
    assert rep.max_deviation < 1e-15


def test_matrix_identities_diagonal_example():
    a, b = np.diag([1.0, 2.0]), np.diag([3.0, 4.0])
    harmonic = np.linalg.inv(np.linalg.inv(a) + np.linalg.inv(b))
    assert np.allclose(harmonic, np.diag([0.75, 4.0 / 3.0]))
    assert abs(np.linalg.det(harmonic) - 1.0) < 1e-14
    assert matrix_identities(a, b).max_deviation < 1e-14


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10 ** 9), st.integers(1, 6))
def test_matrix_identities_random(seed, dim):
    rng = np.random.default_rng(seed)
    rep = matrix_identities(random_spd(dim, rng), random_spd(dim, rng))
    assert rep.max_deviation <= 1e-10


def test_matrix_identities_stack_reports_worst_pair():
    rng = np.random.default_rng(8)
    pairs = [(random_spd(4, rng), random_spd(4, rng)) for _ in range(3)]
    stacked = matrix_identities(np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs]))
    singles = [matrix_identities(a, b) for a, b in pairs]
    assert stacked.max_expression_deviation == max(r.max_expression_deviation for r in singles)
    assert stacked.det_deviation == max(r.det_deviation for r in singles)


@pytest.mark.parametrize("seed", [0, 39])
def test_matrix_suite_matches_pair_by_pair_loop(seed, monkeypatch):
    from covario import oracles

    reports = []

    def recording(a, b):
        reports.append(matrix_identities(a, b))
        return reports[-1]

    monkeypatch.setattr(oracles, "matrix_identities", recording)
    (row,) = suite_matrix_identities(seed)
    assert len(reports) == 6  # one stack per dimension 1..6
    worst = max(r.max_deviation for r in reports)
    assert worst == reference_worst(seed)
    assert row == ("matrix-identities", True, f"max relative deviation {worst:.3e}")


def test_paraboloid_closed_form_values():
    assert abs(paraboloid_cap_volume_closed_form(np.eye(1), np.eye(1), np.zeros(1), 1.0)
               - 4.0 / 3.0) < 1e-14
    assert abs(paraboloid_cap_volume_closed_form(np.eye(2), np.eye(2), np.zeros(2), 1.0)
               - math.pi / 2.0) < 1e-14


def test_paraboloid_homogeneity():
    a = np.diag([1.3])
    b = np.diag([0.7])
    q = np.array([0.1])
    v1 = paraboloid_cap_volume_closed_form(a, b, q, 1.0)
    v2 = paraboloid_cap_volume_closed_form(a, b, q * math.sqrt(2.0), 2.0)
    assert abs(v2 - v1 * 2.0 ** 1.5) < 1e-13


def test_paraboloid_monte_carlo_agreement():
    rep = paraboloid_volume(np.eye(1), np.eye(1), np.zeros(1), 1.0, 400_000, seed=0)
    assert rep.z_closed_form <= 3.0
    assert rep.z_statement_level > 10.0
    rep2 = paraboloid_volume(np.eye(2), np.eye(2), np.zeros(2), 1.0, 400_000, seed=1)
    assert abs(rep2.closed_form - math.pi / 2) < 1e-14
    assert rep2.z_closed_form <= 3.0


def test_paraboloid_hits_match_matrix_form():
    # the instances of `verify paraboloid --seed 0`: the reference cap, then
    # ten random ones drawn as the suite draws them
    instances = [(np.eye(1), np.eye(1), np.zeros(1), 1.0, 0)]
    rng = np.random.default_rng(1)
    for i in range(10):
        d = int(rng.integers(1, 4))
        a = random_spd(d, rng, (0.5, 3.0))
        b = random_spd(d, rng, (0.5, 3.0))
        q = rng.uniform(-0.3, 0.3, size=d)
        instances.append((a, b, q, rng.uniform(0.5, 1.5), 2 + i))
    n = 2 ** 17
    for a, b, q, t, seed in instances:
        member, bbox = paraboloid_region(a, b, q, t)
        est = paraboloid_volume(a, b, q, t, n, seed).estimate
        hits = reference_hits(reference_member(a, b, q, t), bbox, n, seed)
        volume = float(np.prod([hi - lo for lo, hi in bbox]))
        assert est.mean == volume * (hits / n)
        assert mc_area(member, bbox, n, seed).mean == est.mean


def test_paraboloid_invalid_cap():
    with pytest.raises(InvalidCap):
        paraboloid_cap_volume_closed_form(np.eye(1), np.eye(1), np.array([10.0]), 0.1)
    with pytest.raises(InvalidCap):
        paraboloid_cap_quadrature(np.eye(1), np.eye(1), np.array([10.0]), 0.1)


def _suite_instances(seed):
    # the random caps of `verify paraboloid --seed seed`, drawn as the suite draws them
    rng = np.random.default_rng(seed + 1)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        a = random_spd(d, rng, (0.5, 3.0))
        b = random_spd(d, rng, (0.5, 3.0))
        yield a, b, rng.uniform(-0.3, 0.3, size=d), rng.uniform(0.5, 1.5)


def test_paraboloid_quadrature_meets_closed_form():
    worst = 0.0
    for seed in range(40):
        for a, b, q, t in _suite_instances(seed):
            est = paraboloid_cap_quadrature(a, b, q, t)
            assert est.n == 20 ** a.shape[0]
            closed = paraboloid_cap_volume_closed_form(a, b, q, t)
            worst = max(worst, abs(est.value - closed) / closed)
    assert worst <= 1e-12
    assert abs(paraboloid_cap_quadrature(np.eye(1), np.eye(1), np.zeros(1), 1.0).value
               - 4.0 / 3.0) <= 1e-12 * (4.0 / 3.0)


def test_paraboloid_quadrature_does_not_use_the_closed_form(monkeypatch):
    from covario import oracles

    instances = [(np.eye(1), np.eye(1), np.zeros(1), 1.0), *_suite_instances(0)]
    values = [paraboloid_cap_quadrature(*inst).value for inst in instances]

    def forbidden(*args):
        raise AssertionError("the quadrature must not use the closed form")

    monkeypatch.setattr(oracles, "paraboloid_cap_volume_closed_form", forbidden)
    monkeypatch.setattr(oracles, "sphere_surface_area", forbidden)
    assert [paraboloid_cap_quadrature(*inst).value for inst in instances] == values


def test_bessel_j1_value_and_zeros():
    assert abs(bessel_j1(3.0) - J1_AT_3) < 1e-14
    for m, target in enumerate(J1_ZEROS, start=1):
        assert abs(bessel_j1_zero(m) - target) < 1e-12


def test_bessel_switchover_overlap():
    # Taylor and asymptotic branches agree around the split point
    from covario import oracles
    saved = oracles._J1_SWITCH
    for x in np.linspace(12.0, 13.0, 11):
        try:
            oracles._J1_SWITCH = 1e9  # force the Taylor branch
            taylor = bessel_j1(x)
            oracles._J1_SWITCH = 0.0  # force the asymptotic branch
            asym = bessel_j1(x)
        finally:
            oracles._J1_SWITCH = saved
        assert abs(taylor - asym) < 1e-12


def test_bessel_mcmahon_asymptotics():
    for m in range(3, 30):
        beta = (m + 0.25) * math.pi
        gap = bessel_j1_zero(m) - beta
        assert abs(gap) <= 1.1 * 3.0 / (8.0 * beta)
