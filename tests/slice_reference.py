"""The slicing kernel as it ran before it took its shifts a grid column at a
time: every point merged the knots of A and B + x on its own, and batches ran
in chunks of about CHUNK_KNOTS knots.

`_slice_areas` and `_chunked_areas` are copied verbatim; the tests require the
column kernel of `covariogram` to return the same floats.
"""

import numpy as np

from covario.covariogram import _positive_mean

CHUNK_KNOTS = 2 ** 11


def _slice_areas(table_a, table_b, xs):
    """area(A intersect (B + x)) for every row x of xs, from the slice tables of A and B.

    On each vertical line the bodies meet in the segment from max(a_A, a_B + y)
    to min(b_A, b_B + y), a and b the lower and upper boundaries.  Between knots
    of A and B + x its length is linear except where the lower or the upper
    boundaries cross, so its positive part integrates exactly piece by piece.
    """
    (knots_a, lines_a), (knots_b, lines_b) = table_a, table_b
    xs = np.asarray(xs, dtype=float).reshape(-1, 2)
    rows = np.arange(xs.shape[0])[:, None]
    dx, dy = xs[:, :1], xs[:, 1:]
    shifted = knots_b + dx
    # merge without sorting: each knot of B + x goes right after the knots of A
    # at or left of it, and A's knots fill the other places in order
    at_b = knots_a.searchsorted(shifted, side="right") + np.arange(knots_b.size)
    is_a = np.ones((xs.shape[0], knots_a.size + knots_b.size), dtype=bool)
    is_a[rows, at_b] = False
    knots = np.empty(is_a.shape)
    knots[is_a] = np.tile(knots_a, xs.shape[0])
    knots[rows, at_b] = shifted
    # the lines of A and of B + x on the interval right of each knot, from the
    # number of A's knots up to it
    n_a = is_a[:, :-1].cumsum(axis=1)
    ka = np.minimum(np.maximum(n_a - 1, 0), knots_a.size - 2)
    kb = np.minimum(np.maximum(np.arange(n_a.shape[1]) - n_a, 0), knots_b.size - 2)
    # knots outside the common x-range collapse onto its ends, all of them
    # onto one point when the ranges are disjoint
    knots = np.minimum(np.maximum(knots, np.maximum(knots_a[0], shifted[:, :1])),
                       np.minimum(knots_a[-1], shifted[:, -1:]))
    # (lower, upper) x (left, right end) of every interval, for A and for B + x,
    # each read on the interval's own line: a near-vertical edge is a line too
    # steep to read anywhere but on its own ulp-wide interval
    ends = np.array([knots[:, :-1], knots[:, 1:]])
    la, lb = lines_a[:, ka], lines_b[:, kb]
    va = la[0::2, None] + la[1::2, None] * (ends - knots_a[ka])
    vb = lb[0::2, None] + lb[1::2, None] * (ends - dx - knots_b[kb]) + dy
    width = ends[1] - ends[0]
    p, q = np.minimum(va[1], vb[1]) - np.maximum(va[0], vb[0])
    areas = width * _positive_mean(p, q)
    # the length is linear on an interval unless the lower or the upper
    # boundaries cross inside it: split only those intervals, at the crossings
    d = va - vb
    turns = d[:, 0] * d[:, 1] < 0.0
    i, j = ((turns[0] | turns[1]) & (width > 0.0)).nonzero()
    if i.size:
        va, vb = va[:, :, i, j], vb[:, :, i, j]
        d = va - vb
        s = np.zeros((4, i.size))
        np.divide(d[:, 0], d[:, 0] - d[:, 1], out=s[1:3], where=turns[:, i, j])
        s[1:3].sort(axis=0)
        s[3] = 1.0
        fa = va[:, :1] + s * (va[:, 1:] - va[:, :1])
        fb = vb[:, :1] + s * (vb[:, 1:] - vb[:, :1])
        cut = np.minimum(fa[1], fb[1]) - np.maximum(fa[0], fb[0])
        pieces = (s[1:] - s[:-1]) * _positive_mean(cut[:-1], cut[1:])
        areas[i, j] = width[i, j] * pieces.sum(axis=0)
    return areas.sum(axis=1)


def _chunked_areas(table_a, table_b, xs):
    """_slice_areas over the rows of xs, in chunks of about CHUNK_KNOTS knots."""
    xs = np.asarray(xs, dtype=float).reshape(-1, 2)
    chunk = max(1, CHUNK_KNOTS // (table_a[0].size + table_b[0].size))
    out = np.empty(xs.shape[0])
    for i in range(0, xs.shape[0], chunk):
        out[i:i + chunk] = _slice_areas(table_a, table_b, xs[i:i + chunk])
    return out
