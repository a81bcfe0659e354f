"""The benchmark workloads: seeded inputs, the calls into covario, the gate.

Each workload is built in two steps.  The constructor is set-up: it derives
the inputs from the seed and constructs the bodies.  `solve()` makes the
calls into covario and checks every operation against a reference that does
not come from covario: closed forms for the constant-width body cw3, or the
acceptance rows of `covario verify`.  It returns
(attempted, failed, detail).  An exception fails every operation of the
repetition.

`perturb` shifts the references (smoke mode only), so that a run with a
perturbed reference must report failures: that shows the gate bites.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

import covario.cli  # noqa: F401  (imports every covario module: part of set-up)
from covario import asymptotics, covariogram, geometry, oracles
from covario.geometry import Direction

# h(theta) = 1 + 0.05 cos(3 theta): constant width 2,
# radius of curvature rho = h + h'' = 1 - 0.4 cos(3 theta)
CW3_COEFFS = ((0.0, 0.0), (0.0, 0.0), (0.05, 0.0))
CW3_WIDTH = 2.0
# directions equivalent to e1 under the symmetries of cw3 (rotation by
# 2 pi / 3 and u -> -u): there the curvature pair is {1/1.4, 1/0.6}, the
# instance the determination test checks
E1_ORBIT = tuple(k * math.pi / 3.0 for k in range(6))


def cw3_rho(theta):
    return 1.0 - 0.4 * math.cos(3.0 * theta)


def cw3_pair(theta):
    """Exact sorted curvature pair {tau(u), tau(-u)} of cw3."""
    return tuple(sorted((1.0 / cw3_rho(theta), 1.0 / cw3_rho(theta + math.pi))))


def rel_err(value, reference):
    return abs(value - reference) / abs(reference)


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


def make_cw3():
    return geometry.SupportBody(1.0, CW3_COEFFS)


class Branches:
    """kobayashi_report(cw3, m=2..40) over an evenly spaced direction grid.

    One operation is one (m, u) branch: it must be validated (winding 1),
    and at m = 40 its Im and Re errors against the predicted center must be
    <= 2e-2 (acceptance criterion 3, test_kobayashi_report_cw3).
    """

    name = "branches"
    M_RANGE = range(2, 41)
    TOL = 2e-2

    def __init__(self, seed, tiny, perturb, tracer):
        n_dirs = 1 if tiny else 2
        phase = _rng(seed, 1).uniform(0.0, 2.0 * math.pi / n_dirs)
        self.thetas = [phase + 2.0 * math.pi * j / n_dirs for j in range(n_dirs)]
        self.perturb = perturb
        self.body = make_cw3()
        self.dirs = [Direction(t) for t in self.thetas]
        self.inputs = {"thetas": self.thetas, "m": [2, 40]}

    def solve(self):
        attempted = len(self.M_RANGE) * len(self.dirs)
        try:
            rep = asymptotics.kobayashi_report(self.body, self.M_RANGE, self.dirs)
        except Exception as exc:  # noqa: BLE001  (a raised check fails every branch)
            return attempted, attempted, f"{type(exc).__name__}: {exc}"
        failed = 0
        worst_im = worst_re = 0.0
        for br in rep.branches:
            ok = br.validated
            if br.m == 40:
                th = br.u.theta
                target_im = math.log(cw3_rho(th) / cw3_rho(th + math.pi)) + self.perturb
                im_err = abs(br.zeta.imag * 2.0 * CW3_WIDTH - target_im)
                re_err = abs(br.zeta.real * 2.0 * CW3_WIDTH / math.pi - (4 * br.m + 1))
                worst_im, worst_re = max(worst_im, im_err), max(worst_re, re_err)
                ok = ok and im_err <= self.TOL and re_err <= self.TOL
            failed += int(not ok)
        failed += attempted - len(rep.branches)
        return attempted, failed, f"m=40 worst Im error {worst_im:.2e}, Re error {worst_re:.2e}"


class Determination:
    """determination_experiment on cw3 against reflect(cw3), as black boxes.

    The evaluators are covariogram_evaluator(., n=256), each behind the
    benchmark's own wrapper so every g call is visible to the trace.  One
    operation is one verdict: identical-up-to-translation, every region
    relation +1, and pairs_a[0] within 10% of (1/1.4, 1/0.6), as in
    test_determination_same_and_reflected.  The grid phase is a multiple of
    pi/3, so its first direction carries that pair.
    """

    name = "determination"
    N = 256

    def __init__(self, seed, tiny, perturb, tracer):
        n_dirs = 4
        phase = E1_ORBIT[int(_rng(seed, 3).integers(6))]
        self.thetas = [phase + 2.0 * math.pi * j / n_dirs for j in range(n_dirs)]
        self.config = asymptotics.DeterminationConfig(
            n_dirs=n_dirs, extent_dirs=32, t_order=16, s_order=8, max_regions_checked=1)
        self.perturb = perturb
        self.tracer = tracer
        self.cw3 = make_cw3()
        self.refl = geometry.reflect(self.cw3)
        self.inputs = {"thetas": self.thetas, "n": self.N, "config": vars(self.config)}

    def solve(self):
        wrap = self.tracer.wrap
        g_a = wrap(covariogram.covariogram_evaluator(self.cw3, n=self.N),
                   "asymptotics.determination.g")
        g_b = wrap(covariogram.covariogram_evaluator(self.refl, n=self.N),
                   "asymptotics.determination.g")
        try:
            v = asymptotics.determination_experiment(
                g_a, g_b, u_grid=[Direction(t) for t in self.thetas], config=self.config)
        except Exception as exc:  # noqa: BLE001
            return 1, 1, f"{type(exc).__name__}: {exc}"
        lo, hi = (x * (1.0 + self.perturb) for x in cw3_pair(self.thetas[0]))
        pair0 = v.pairs_a[0]
        ok = (v.outcome == "identical-up-to-translation"
              and len(v.region_relations) > 0
              and all(r == 1 for r in v.region_relations)
              and pair0 is not None
              and rel_err(pair0[0], lo) < 0.1 and rel_err(pair0[1], hi) < 0.1)
        return 1, int(not ok), (f"{v.outcome}, relations {list(v.region_relations)}, "
                                f"pairs_a[0] {tuple(round(float(x), 5) for x in pair0 or ())}")


class VerifyAll:
    """cli.main(["verify", "all", "--seed", s]): the acceptance suites.

    One operation is one check row; exit code 0 is required.  The suites use
    the acceptance tolerances; a missing row counts as failed.  In smoke mode
    only the kobayashi-disk suite runs, against a perturbed Bessel J1 zero
    oracle.
    """

    name = "verify-all"
    ROWS = 18
    # verify seeds with one work profile that pass at the commit that added
    # this benchmark; bench/verify_pool.py derives the pool and says why
    SEED_POOL = (39, 55, 109, 129, 133, 191, 268)

    def __init__(self, seed, tiny, perturb, tracer):
        self.verify_seed = self.SEED_POOL[int(_rng(seed, 4).integers(len(self.SEED_POOL)))]
        suite = "kobayashi-disk" if tiny else "all"
        self.rows = 3 if tiny else self.ROWS
        self.argv = ["verify", suite, "--seed", str(self.verify_seed), "--json"]
        if perturb:
            true_zero = oracles.bessel_j1_zero
            oracles.bessel_j1_zero = lambda m: true_zero(m) + perturb
        self.inputs = {"argv": self.argv}

    def solve(self):
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = covario.cli.main(self.argv)
            checks = json.loads(out.getvalue())["checks"]
        except Exception as exc:  # noqa: BLE001
            return self.rows, self.rows, f"{type(exc).__name__}: {exc}"
        failed = sum(not c["passed"] for c in checks)
        failed += max(self.rows - len(checks), 0)
        attempted = max(self.rows, len(checks))
        if code != 0 and failed == 0:
            failed = 1
        bad = [c["name"] for c in checks if not c["passed"]]
        return attempted, failed, f"exit code {code}, {len(checks)} rows, failing {bad}"


WORKLOADS = {w.name: w for w in (Branches, Determination, VerifyAll)}
