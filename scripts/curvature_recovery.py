#!/usr/bin/env python3
"""Recover curvature pairs of a support-function body from its covariogram.

Sweeps a direction grid, fits the cap model at each direction and compares the
recovered unordered pair with the closed-form curvatures.  Exits 1 when the
worst relative pair error exceeds MAX_REL_ERR, criterion 6's 5%, so the sweep
serves as a check.

Usage: python scripts/curvature_recovery.py [n_dirs] [out.csv]
"""

import math
import sys

import numpy as np

from covario.covariogram import curvature_pair_from_covariogram
from covario.geometry import Direction, SupportBody, curvature

MAX_REL_ERR = 0.05


def main(n_dirs="12", out_path="curvature_recovery.csv"):
    body = SupportBody(1.0, ((0.0, 0.0), (0.0, 0.0), (0.05, 0.0)))
    rows = ["theta,low,high,true_low,true_high,rel_err"]
    worst = 0.0
    for th in np.linspace(0.0, 2.0 * math.pi, int(n_dirs), endpoint=False):
        u = Direction(float(th))
        pair = curvature_pair_from_covariogram(body, u)
        truth = sorted((curvature(body, u), curvature(body, u.antipode())))
        rel = max(abs(pair.low - truth[0]) / truth[0],
                  abs(pair.high - truth[1]) / truth[1])
        worst = max(worst, rel)
        rows.append(f"{th!r},{pair.low!r},{pair.high!r},{truth[0]!r},{truth[1]!r},{rel!r}")
    with open(out_path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {out_path}; worst relative pair error {worst:.4f}")
    return 0 if worst <= MAX_REL_ERR else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
