"""Seeded Monte Carlo: the brute-force oracle the tests check areas and the
paraboloid-cap volume against.

`mc_area` draws counter-based Philox points in a box and counts those a
membership test accepts; `paraboloid_volume` scores such an estimate of the
cap between two paraboloids against the closed form, with the proof-consistent
constant and with the 2^{(n+1)/2}-inflated one, as z-scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from covario.oracles import paraboloid_cap_volume_closed_form


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: float
    standard_error: float
    n: int
    seed: int

    def z_score(self, reference):
        return abs(self.mean - reference) / self.standard_error


def _rng(seed, stream):
    # counter-based Philox keyed by (seed, stream): deterministic and splittable
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(stream,))))


_MC_CHUNK_ROWS = 2 ** 14  # a chunk's rows and temporaries stay in cache


def mc_area(membership, bbox, n, seed):
    """Monte Carlo measure of {x : membership(x)} inside the box bbox.

    bbox is a sequence of (lo, hi) per coordinate; membership must accept a
    (k, d) array, whose columns are contiguous, and return a boolean array.
    The n points come from one Philox stream, _rng(seed, 0), so the result
    is reproducible for a fixed (seed, n).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    bbox = np.asarray(bbox, dtype=float)
    lo, hi = bbox[:, 0], bbox[:, 1]
    width = hi - lo
    vol = float(np.prod(width))
    d = bbox.shape[0]
    rows = min(_MC_CHUNK_ROWS, n)
    # rows are drawn in order into one reused buffer, so the chunks see the
    # points of one big row-major draw; coordinate j is then scaled into the
    # contiguous row cols[j] by the same two operations as `pts * w + lo`
    draws = np.empty((rows, d))
    cols = np.empty((d, rows))
    rng = _rng(seed, 0)
    hits = 0
    for start in range(0, n, _MC_CHUNK_ROWS):
        k = min(_MC_CHUNK_ROWS, n - start)
        rng.random(out=draws[:k])
        for j in range(d):
            np.multiply(draws[:k, j], width[j], out=cols[j, :k])
            cols[j, :k] += lo[j]
        hits += int(np.count_nonzero(membership(cols[:, :k].T)))
    p = hits / n
    se = vol * math.sqrt(max(p * (1.0 - p), 1e-300) / n)
    return MonteCarloEstimate(vol * p, se, n, seed)


@dataclass(frozen=True)
class ParaboloidReport:
    estimate: MonteCarloEstimate
    closed_form: float
    z_closed_form: float
    z_statement_level: float


def paraboloid_region(a, b, q, t):
    """Membership test and bounding box of {f2(x) <= x' <= f1(x)} in R^{d+1}.

    f1(x) = t - |L_A^T (x-q)|^2/2 and f2(x) = |L_B^T x|^2/2, with A = L_A L_A^T
    and B = L_B L_B^T the Cholesky factors; the test takes a (k, d + 1) array
    of points (x, x') and evaluates each form by one matrix product on its
    coordinate rows, which are contiguous as `mc_area` passes them.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    q = np.atleast_1d(np.asarray(q, dtype=float))
    d = a.shape[0]
    # bounding box: f1 - f2 >= 0 is the ellipsoid <(A+B)(x-x0), x-x0> <= 2s
    apb = a + b
    x0 = np.linalg.solve(apb, a @ q)
    s = t - 0.5 * float(q @ np.linalg.inv(np.linalg.inv(a) + np.linalg.inv(b)) @ q)
    half = np.sqrt(2.0 * s * np.diag(np.linalg.inv(apb)))
    bbox = [(x0[i] - half[i], x0[i] + half[i]) for i in range(d)] + [(0.0, t)]
    la_t, lb_t = np.linalg.cholesky(a).T, np.linalg.cholesky(b).T

    def member(pts):
        x = pts[:, :d].T
        ya = la_t @ (x - q[:, None])
        yb = lb_t @ x
        xp = pts[:, d]
        return ((0.5 * np.einsum("ik,ik->k", yb, yb) <= xp)
                & (xp <= t - 0.5 * np.einsum("ik,ik->k", ya, ya)))

    return member, bbox


def paraboloid_volume(a, b, q, t, n_samples, seed):
    """Monte Carlo volume of {f2(x) <= x' <= f1(x)} against both candidate constants.

    f1(x) = t - <A(x-q), x-q>/2 and f2(x) = <Bx, x>/2.  The closed form carries
    the proof-consistent constant; z_statement_level scores the estimate
    against that value times 2^{(n+1)/2}, the extra factor this oracle rejects.
    """
    n = np.atleast_2d(np.asarray(a, dtype=float)).shape[0] + 1
    closed = paraboloid_cap_volume_closed_form(a, b, q, t)
    member, bbox = paraboloid_region(a, b, q, t)
    est = mc_area(member, bbox, n_samples, seed)
    alt = closed * 2.0 ** ((n + 1) / 2.0)
    return ParaboloidReport(est, closed, est.z_score(closed), est.z_score(alt))
