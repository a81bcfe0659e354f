"""Independent brute-force oracles: Monte Carlo volumes, matrix identities, Bessel J1."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class InvalidCap(Exception):
    """Raised when the paraboloid cap condition 2t - <Qq, q> >= 0 fails."""


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
class MatrixIdentityReport:
    max_expression_deviation: float
    det_deviation: float

    @property
    def max_deviation(self):
        return max(self.max_expression_deviation, self.det_deviation)


def matrix_identities(a, b):
    """Deviations among the four equal matrix expressions and the determinant identity.

    Checks A - A(A+B)^{-1}A = B(A+B)^{-1}A = A(A+B)^{-1}B = (A^{-1}+B^{-1})^{-1}
    and det((A^{-1}+B^{-1})^{-1}) = det A det B / det(A+B), reporting the largest
    relative deviation.  a and b may be (..., d, d) stacks of pairs; the report
    then holds the worst deviation of each kind over the stack.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    inv_sum = np.linalg.inv(a + b)
    e1 = a - a @ inv_sum @ a
    e2 = b @ inv_sum @ a
    e3 = a @ inv_sum @ b
    e4 = np.linalg.inv(np.linalg.inv(a) + np.linalg.inv(b))

    def entry_max(m):
        return np.abs(m).max(axis=(-2, -1))

    scale = np.maximum(entry_max(e4), 1e-300)
    dev = np.maximum(np.maximum(entry_max(e1 - e4), entry_max(e2 - e4)), entry_max(e3 - e4)) / scale
    lhs = np.linalg.det(e4)
    rhs = np.linalg.det(a) * np.linalg.det(b) / np.linalg.det(a + b)
    det_dev = np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)
    return MatrixIdentityReport(float(dev.max()), float(det_dev.max()))


def spd_draws(dim, rng, eig_range=(0.1, 10.0)):
    """The random draws of one `random_spd` matrix: a normal (dim, dim) matrix
    and dim eigenvalues uniform in eig_range."""
    normal = rng.standard_normal((dim, dim))
    return normal, rng.uniform(eig_range[0], eig_range[1], size=dim)


def spd_matrix(normal, eigenvalues):
    """Symmetric positive-definite matrix Q diag(eigenvalues) Q^T, where Q is
    the orthogonal factor of the square matrix normal; both may be stacks."""
    q, _ = np.linalg.qr(normal)
    return (q * eigenvalues[..., None, :]) @ np.swapaxes(q, -1, -2)


def random_spd(dim, rng, eig_range=(0.1, 10.0)):
    """Random symmetric positive-definite matrix with eigenvalues in eig_range."""
    return spd_matrix(*spd_draws(dim, rng, eig_range))


def sphere_surface_area(d):
    """omega_d: surface area of the unit sphere S^{d-1} in R^d (omega_1 = 2)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def paraboloid_cap_volume_closed_form(a, b, q, t):
    """Proof-consistent volume between the paraboloid graphs, in R^{d+1}.

    Equals omega_d / (n^2 - 1) * (2t - <Qq, q>)^{(n+1)/2} / sqrt(det(A+B))
    with n = d + 1 and Q = (A^{-1} + B^{-1})^{-1}.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    q = np.atleast_1d(np.asarray(q, dtype=float))
    d = a.shape[0]
    n = d + 1
    qq = np.linalg.inv(np.linalg.inv(a) + np.linalg.inv(b))
    cap = 2.0 * t - float(q @ qq @ q)
    if cap < 0:
        raise InvalidCap(f"2t - <Qq, q> = {cap:.3e} < 0")
    return (sphere_surface_area(d) / (n * n - 1.0)
            * cap ** ((n + 1) / 2.0) / math.sqrt(np.linalg.det(a + b)))


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


_J1_SWITCH = 12.0


def bessel_j1(x):
    """Bessel function J1 by Taylor series (|x| <= 12) or asymptotic expansion."""
    x = float(x)
    sign = 1.0 if x >= 0 else -1.0
    x = abs(x)
    if x <= _J1_SWITCH:
        half = 0.5 * x
        term = half
        total = term
        k = 0
        while abs(term) > 1e-19 * max(abs(total), 1.0) and k < 120:
            k += 1
            term *= -(half * half) / (k * (k + 1))
            total += term
        return sign * total
    # Hankel asymptotic expansion with coefficients a_k = a_{k-1}(4 - (2k-1)^2)/(8k)
    chi = x - 0.75 * math.pi
    ak = 1.0
    p, qq = 1.0, 0.0
    xk = 1.0
    best = math.inf
    for k in range(1, 30):
        ak *= (4.0 - (2 * k - 1) ** 2) / (8.0 * k)
        xk *= x
        term = ak / xk
        if abs(term) > best:
            break
        best = abs(term)
        if k % 2 == 1:
            qq += term * (-1.0) ** ((k - 1) // 2)
        else:
            p += term * (-1.0) ** (k // 2)
    return sign * math.sqrt(2.0 / (math.pi * x)) * (p * math.cos(chi) - qq * math.sin(chi))


def bessel_j1_zero(m):
    """m-th positive zero of J1, by bisection to 1e-12."""
    if m < 1:
        raise ValueError("m must be >= 1")
    beta = (m + 0.25) * math.pi
    lo, hi = beta - 0.3, beta + 0.05
    flo = bessel_j1(lo)
    fhi = bessel_j1(hi)
    if flo * fhi >= 0:
        raise RuntimeError(f"bisection bracket failed for m={m}")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = bessel_j1(mid)
        if flo * fm <= 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
        if hi - lo < 1e-13:
            break
    return 0.5 * (lo + hi)
