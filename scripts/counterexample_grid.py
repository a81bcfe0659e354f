#!/usr/bin/env python3
"""Cross-covariogram grids of the two parallelogram pairs of one family.

Writes both grids as CSVs (for plotting) and prints the maximum difference,
which should sit at rounding level even though the pairs are not trivially
associated.

Usage: python scripts/counterexample_grid.py [family] [outdir]
"""

import sys
from pathlib import Path

import numpy as np

from covario.asymptotics import trivial_associates
from covario.covariogram import cross_covariogram_grid
from covario.geometry import example_pair


def main(family="1", outdir="."):
    family = int(family)
    params = dict(alpha=1.0, beta=0.8, gamma=1.2, delta=0.9) if family == 1 else \
        dict(alpha_p=1.0, gamma_p=2.0, beta_p=1.0, delta_p=1.4, m=1.0)
    h1, k1 = example_pair(family, **params)
    h2, k2 = example_pair(family + 1, **params)
    g1 = cross_covariogram_grid(h1, k1, nx=41, ny=41)
    g2 = cross_covariogram_grid(h2, k2, nx=41, ny=41, bbox=g1.bbox)
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    g1.to_csv(out / f"crosscov_family{family}.csv", out / f"crosscov_family{family}.meta.json")
    g2.to_csv(out / f"crosscov_family{family + 1}.csv",
              out / f"crosscov_family{family + 1}.meta.json")
    print(f"max |g1 - g2| on the 41x41 grid: {np.abs(g1.values - g2.values).max():.3e}")
    print(f"pairs are trivial associates: {trivial_associates((h1, k1), (h2, k2))}")


if __name__ == "__main__":
    main(*sys.argv[1:])
