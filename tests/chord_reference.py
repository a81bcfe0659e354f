"""Chord ends as Harmonics.chord_at_offset found them before its Newton
iteration: BISECTION_STEPS halvings of every bracket, one terms call each.

The tests require the Newton chords to match these within rounding.
"""

import numpy as np

BISECTION_STEPS = 60


def bisected_chord_at_offset(series, s, e, a, b):
    """(phi, length) of series.chord_at_offset, by bisection."""
    fa = series.offsets(a, e)[0] - s
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (a + b)
        fm = series.offsets(mid, e)[0] - s
        left = fa * fm <= 0.0
        a, b, fa = np.where(left, a, mid), np.where(left, mid, b), np.where(left, fa, fm)
    phi = 0.5 * (a + b)
    along = series.offsets(phi, e)[1]
    return phi, along[0] - along[1]
