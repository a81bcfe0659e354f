"""Independent oracles: a paraboloid-cap quadrature, matrix identities, Bessel J1."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from covario._quadrature import gauss_legendre


class InvalidCap(Exception):
    """Raised when the paraboloid cap condition 2t - <Qq, q> >= 0 fails."""


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


# Gauss-Legendre points per coordinate of the paraboloid-cap quadrature: the
# substituted integrand is a product of powers of cos(theta_j), each power at
# most d + 2, and 20 points leave only rounding error for d <= 3
CAP_ORDER = 20


@dataclass(frozen=True)
class CapQuadrature:
    value: float
    n: int


def paraboloid_cap_quadrature(a, b, q, t):
    """Volume of {f2(x) <= x' <= f1(x)} in R^{d+1}: the integral of (f1 - f2)_+ over R^d.

    f1(x) = t - <A(x-q), x-q>/2 and f2(x) = <Bx, x>/2, so f1 - f2 =
    s - <M(x-x0), x-x0>/2 with M = A + B, x0 = M^{-1} A q and s = f1(x0) -
    f2(x0).  Coordinate j runs between the roots of that quadratic with the
    trailing coordinates at their conditional optimum: y_j = c_j + H_j sin(theta),
    H_j = sqrt(2 s_j / schur_j), schur_j the Schur complement of the trailing
    block and s_{j+1} = s_j cos^2(theta).  Each theta in [-pi/2, pi/2] takes
    a CAP_ORDER-point Gauss-Legendre rule with weight H_j cos(theta), and the
    integrand at the CAP_ORDER^d points comes from the definitions of f1 and
    f2, so neither the Q identity nor the Gamma constant of the closed form
    enters.  The points are held at once, which suits the d <= 3 of the
    verify suite.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    q = np.atleast_1d(np.asarray(q, dtype=float))
    d = a.shape[0]

    def f1_minus_f2(x):
        dq = x - q
        return t - 0.5 * np.einsum("...i,ij,...j->...", dq, a, dq) - 0.5 * np.einsum(
            "...i,ij,...j->...", x, b, x)

    m = a + b
    x0 = np.linalg.solve(m, a @ q)
    s = float(f1_minus_f2(x0))
    if s < 0:
        raise InvalidCap(f"f1 - f2 peaks at {s:.3e} < 0")
    u, w = gauss_legendre(CAP_ORDER)
    theta = 0.5 * math.pi * u
    idx = np.indices((CAP_ORDER,) * d).reshape(d, -1)
    y = np.zeros((idx.shape[1], d))
    shrink = np.ones(idx.shape[1])  # sqrt(s_j / s)
    weight = np.ones(idx.shape[1])
    for j in range(d):
        th = theta[idx[j]]
        inv = np.linalg.inv(m[j:, j:])  # 1 / inv[0, 0] is schur_j
        half = math.sqrt(2.0 * s * inv[0, 0]) * shrink
        centre = np.einsum("nk,k->n", y[:, :j], -(m[j:, :j].T @ inv[0]))
        y[:, j] = centre + half * np.sin(th)
        weight *= (0.5 * math.pi) * w[idx[j]] * half * np.cos(th)
        shrink *= np.cos(th)
    value = float(np.sum(weight * np.maximum(f1_minus_f2(x0 + y), 0.0)))
    return CapQuadrature(value, idx.shape[1])


@dataclass(frozen=True)
class ParaboloidReport:
    estimate: CapQuadrature
    closed_form: float
    gap_closed_form: float
    gap_statement_level: float


def paraboloid_volume(a, b, q, t):
    """Quadrature volume of {f2(x) <= x' <= f1(x)} against both candidate constants.

    The closed form carries the proof-consistent constant; the gaps are the
    relative distances of the quadrature value from it and from it times
    2^{(n+1)/2}, the extra factor this oracle rejects.
    """
    n = np.atleast_2d(np.asarray(a, dtype=float)).shape[0] + 1
    est = paraboloid_cap_quadrature(a, b, q, t)
    closed = paraboloid_cap_volume_closed_form(a, b, q, t)
    alt = closed * 2.0 ** ((n + 1) / 2.0)
    return ParaboloidReport(est, closed, abs(est.value - closed) / closed,
                            abs(est.value - alt) / alt)


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
    """m-th positive zero of J1: the Illinois variant of regula falsi on the
    bracket [beta - 0.3, beta + 0.05] about beta = (m + 1/4) pi.  It stops
    where J1 is 0 or a step moves the iterate by at most 1e-13, and returns
    that iterate."""
    if m < 1:
        raise ValueError("m must be >= 1")
    beta = (m + 0.25) * math.pi
    a, b = beta - 0.3, beta + 0.05
    fa, fb = bessel_j1(a), bessel_j1(b)
    if fa * fb >= 0:
        raise RuntimeError(f"bracket failed for m={m}")
    for _ in range(60):
        x = b - fb * (b - a) / (fb - fa)
        fx = bessel_j1(x)
        if fx * fb < 0.0:
            a, fa = b, fb
        else:
            # the end kept twice in a row has its value halved (Illinois)
            fa *= 0.5
        step, b, fb = abs(x - b), x, fx
        if fx == 0.0 or step <= 1e-13:
            break
    return b
