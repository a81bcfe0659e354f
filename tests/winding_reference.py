"""The per-center start values of a branch winding as `winding_number` summed
them before `contour_winding` took them over: one shift-theorem table per call
and one `(2, n) @ (n, 41)` product per center, in a Python loop.

The loop is copied verbatim; the tests require the stacked product of
`contour_winding` to return the same floats.
"""

import numpy as np

from covario.fourier_laplace import KERNEL_BLOCK, _contour_offsets


def loop_start(ctx, centers, half_re, half_im):
    """(f, f') of the context's centred sum at each center + offset, shape
    (2, centers.size, 41), or None where the table would exceed KERNEL_BLOCK."""
    centers = np.asarray(centers, dtype=complex)
    offsets = _contour_offsets(half_re, half_im)
    t, start = ctx.nodes, None
    if centers.size and t.size * offsets.size <= KERNEL_BLOCK:
        table = np.exp(np.outer(t, 1j * offsets))
        start = np.stack([(ctx.rows * np.exp(1j * c * t)) @ table for c in centers.ravel()], 1)
    return start
