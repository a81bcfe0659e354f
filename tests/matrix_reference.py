"""Pair-by-pair form of the matrix-identity suite that `cli.suite_matrix_identities`
checks in one stack per dimension.

`reference_worst` draws each pair and checks it on its own, one
`matrix_identities` call per pair; the tests require the same worst value,
bit for bit.
"""

import numpy as np

from covario.cli import MATRIX_PAIRS
from covario.oracles import matrix_identities, random_spd


def reference_worst(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(MATRIX_PAIRS):
        dim = int(rng.integers(1, 7))
        rep = matrix_identities(random_spd(dim, rng), random_spd(dim, rng))
        worst = max(worst, rep.max_deviation)
    return worst
