"""Per-harmonic loops for the support function of a `geometry.SupportBody`,
which the body's one `Harmonics` series replaces.

Each function adds the harmonics of `body.coeffs` one at a time, zero
harmonics included; the tests require the series to agree to rounding.
"""

import numpy as np


def _loop(body, theta, term):
    theta = np.asarray(theta, dtype=float)
    out = np.zeros_like(theta)
    for k, (a, b) in enumerate(body.coeffs, start=1):
        out = out + term(k, a, b, k * theta)
    return out


def loop_h(body, theta):
    return body.a0 + _loop(body, theta, lambda k, a, b, kt: a * np.cos(kt) + b * np.sin(kt))


def loop_h1(body, theta):
    return _loop(body, theta, lambda k, a, b, kt: k * (-a * np.sin(kt) + b * np.cos(kt)))


def loop_rho(body, theta):
    return body.a0 + _loop(body, theta,
                           lambda k, a, b, kt: (1.0 - k * k) * (a * np.cos(kt) + b * np.sin(kt)))


def loop_boundary(body, theta):
    theta = np.asarray(theta, dtype=float)
    h, h1 = loop_h(body, theta), loop_h1(body, theta)
    x = h * np.cos(theta) - h1 * np.sin(theta) + body.center[0]
    y = h * np.sin(theta) + h1 * np.cos(theta) + body.center[1]
    return np.stack([x, y], axis=-1)
