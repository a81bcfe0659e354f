"""Derive workloads.VerifyAll.SEED_POOL: the `covario verify --seed` values the benchmark uses.

    PYTHONPATH=src python3 bench/verify_pool.py

The work `verify all` does depends on its seed.  The factorization suite's
time and the run's peak memory follow the number of quadrature nodes in the
chord autocorrelation of its random polygon (2.6M nodes peak at 239 MiB, 3.0M
at 272 MiB), and the paraboloid suite's Monte Carlo time follows the summed
dimension of its 10 random instances.  A pool of seeds with one work profile
(summed dimension 20 or 21, and the node count most common among the first
300 seeds) lets the benchmark seed change the inputs without changing the
amount of work.  The paraboloid
suite is also a 3-sigma Monte Carlo test, so about one seed in ten fails by
chance (9 and 13 do); the pool keeps only seeds that pass.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json

import numpy as np

from covario import cli, oracles, radon

SCAN = 300


def paraboloid_dimension(seed):
    """Summed dimension of the paraboloid suite's random instances for a verify seed."""
    rng = np.random.default_rng(seed + 1)  # as in cli.suite_paraboloid
    total = 0
    for _ in range(10):
        d = int(rng.integers(1, 4))
        total += d
        oracles.random_spd(d, rng, (0.5, 3.0))
        oracles.random_spd(d, rng, (0.5, 3.0))
        rng.uniform(-0.3, 0.3, size=d)
        rng.uniform(0.5, 1.5)
    return total


def autocorrelation_nodes(seed):
    """Quadrature nodes the factorization suite's autocorrelation tables use."""
    count = [0]
    table = radon.panel_table

    def counting(*args, **kwargs):
        nodes, weights = table(*args, **kwargs)
        count[0] += nodes.shape[0]
        return nodes, weights

    radon.panel_table = counting
    try:
        cli.suite_factorization(seed=seed)
    finally:
        radon.panel_table = table
    return count[0]


def passes(seed):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["verify", "all", "--seed", str(seed), "--json"])
    return code == 0 and json.loads(out.getvalue())["passed"]


def main():
    groups = collections.defaultdict(list)
    for seed in range(SCAN):
        if paraboloid_dimension(seed) in (20, 21):
            groups[autocorrelation_nodes(seed)].append(seed)
    nodes, seeds = max(groups.items(), key=lambda kv: len(kv[1]))
    print(f"most common profile: {nodes} autocorrelation nodes, {len(seeds)} seeds")
    pool = []
    for seed in seeds:
        ok = passes(seed)
        print(f"seed {seed}: {'pass' if ok else 'FAIL'}", flush=True)
        if ok:
            pool.append(seed)
    print("SEED_POOL =", tuple(pool))


if __name__ == "__main__":
    main()
