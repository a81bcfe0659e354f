#!/usr/bin/env python3
"""Track the unit disk's transform zeros and compare with the Bessel oracle.

Writes a CSV with one row per branch and prints the deviation-decay fit.

Usage: python scripts/disk_zero_branches.py [out.csv]
"""

import sys

import numpy as np

from covario.fourier_laplace import build_context, track_branches
from covario.geometry import Direction, Disk
from covario.oracles import bessel_j1_zero


def main(out_path="disk_zero_branches.csv"):
    disk = Disk((0.0, 0.0), 1.0)
    ctx = build_context(disk, Direction(0.0), max_abs_zeta=135.0)
    rows = ["m,zeta_re,zeta_im,bessel_zero,center_deviation,oracle_gap"]
    devs = []
    for br in track_branches(ctx, range(1, 41)):
        j = bessel_j1_zero(br.m)
        devs.append(br.deviation)
        rows.append(f"{br.m},{br.zeta.real!r},{br.zeta.imag!r},{j!r},"
                    f"{br.deviation!r},{abs(br.zeta - j)!r}")
    with open(out_path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    slope = np.polyfit(np.log(np.arange(2, 41)), np.log(devs[1:]), 1)[0]
    print(f"wrote {out_path}")
    print(f"deviation-decay slope over m=2..40: {slope:.4f} (expected near -1)")
    print(f"m=1 deviation from the predicted center: {devs[0]:.6f} (expected 0.0953)")


if __name__ == "__main__":
    main(*sys.argv[1:])
