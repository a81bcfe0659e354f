"""Row-major form of the paraboloid Monte Carlo that `mc_oracle.paraboloid_region`
evaluates on coordinate rows.

`reference_hits` draws the points in one row-major array per chunk, scales
them out of place and tests them with <A(x-q), x-q> and <Bx, x> as matmuls by
A and B and row sums; `mc_area` draws the same points into contiguous
coordinate rows, and `paraboloid_region` tests them by the Cholesky forms
|L^T (x-q)|^2, one matrix product each.  The tests require the same hit count.
"""

import numpy as np

from mc_oracle import _MC_CHUNK_ROWS, _rng


def reference_member(a, b, q, t):
    d = a.shape[0]

    def member(pts):
        x = pts[:, :d]
        xp = pts[:, d]
        dq = x - q
        f1 = t - 0.5 * np.sum((dq @ a) * dq, axis=1)
        f2 = 0.5 * np.sum((x @ b) * x, axis=1)
        return (f2 <= xp) & (xp <= f1)

    return member


def reference_hits(member, bbox, n, seed):
    bbox = np.asarray(bbox, dtype=float)
    lo, hi = bbox[:, 0], bbox[:, 1]
    rng = _rng(seed, 0)
    hits = 0
    for start in range(0, n, _MC_CHUNK_ROWS):
        pts = rng.random((min(_MC_CHUNK_ROWS, n - start), bbox.shape[0])) * (hi - lo) + lo
        hits += int(np.count_nonzero(member(pts)))
    return hits
