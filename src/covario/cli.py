"""Command-line surface: body files in, CSV/JSON tables and verification suites out."""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

import numpy as np

from covario import asymptotics, covariogram, fourier_laplace, geometry, oracles, radon
from covario._parallel import ThreadCountError
from covario._quadrature import panel_table
from covario.geometry import Direction

SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


def _load_body(path):
    try:
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"body file not found: {path}")
    except OSError as exc:
        raise UsageError(f"cannot read body file {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise UsageError(f"body file {path} is not UTF-8 text: {exc.reason} at byte {exc.start}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid JSON in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}")
    try:
        return geometry.body_from_spec(spec)
    except (ValueError, KeyError, TypeError, geometry.NotC2Plus,
            geometry.DegenerateZonogon) as exc:
        raise UsageError(f"invalid body spec in {path}: {exc}")


def _parse_grid(text):
    try:
        nx, ny = text.lower().split("x")
        nx, ny = int(nx), int(ny)
    except ValueError:
        raise UsageError(f"grid must look like 41x41, got {text!r}")
    if min(nx, ny) < 2:
        raise UsageError(f"grid sides must be at least 2, got {text!r}")
    return nx, ny


def _check_options(args):
    """Reject a non-finite --u or --xi-max, a --num or --u-grid below 1 and a
    negative --seed."""
    for name in ("u", "xi_max"):
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            raise UsageError(f"--{name.replace('_', '-')} must be finite, got {value}")
    for name, least in (("num", 1), ("u_grid", 1), ("seed", 0)):
        value = getattr(args, name, None)
        if value is not None and value < least:
            raise UsageError(f"--{name.replace('_', '-')} must be at least {least}, got {value}")


def _parse_range(text):
    """Branch indices m from 1..40 or 5: a non-empty range of m >= 1."""
    try:
        a, dots, b = text.partition("..")
        m_range = range(int(a), int(b if dots else a) + 1)
    except ValueError:
        raise UsageError(f"range must look like 1..40 or 5, got {text!r}")
    if not m_range or m_range.start < 1:
        raise UsageError(f"range must be non-empty with m >= 1, got {text!r}")
    return m_range


@contextlib.contextmanager
def _writing(path):
    """A block that writes path: an OSError there, such as a missing directory
    or a directory at path, is a usage error that names the file."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {exc.filename or path}: {exc.strerror}")


def _write_text(path, text):
    with _writing(path), open(path, "w") as fh:
        fh.write(text)


def _write_csv(path, header, rows):
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


def _write_grid(path, grid):
    """The grid's x,y,value rows, row by row in y, and its sidecar at path.meta.json."""
    xg, yg = grid.points()
    _write_csv(path, "x,y,value", ((float(x), float(y), float(grid.values[iy, ix]))
                                   for iy, y in enumerate(yg) for ix, x in enumerate(xg)))
    _write_text(path + ".meta.json", json.dumps(grid.sidecar(), indent=2, sort_keys=True))


def _json_safe(obj):
    """obj with every non-finite float replaced by None, which JSON writes as null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _json_safe(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(val) for val in obj]
    return obj


def _json_text(command, report):
    """A command's report under schema_version and command, as strict JSON text."""
    return json.dumps(_json_safe({"schema_version": SCHEMA_VERSION, "command": command, **report}),
                      indent=2, sort_keys=True, default=str, allow_nan=False)


def _emit(command, report, as_json):
    """Print the report as JSON text, or as `key: value` lines after `command:`."""
    if as_json:
        print(_json_text(command, report))
    else:
        for key, val in {"command": command, **report}.items():
            print(f"{key}: {val}")


def cmd_body_validate(args):
    body = _load_body(args.body)
    _emit("body-validate", {"kind": geometry.body_to_spec(body)["kind"], "area": geometry.area(body),
                            "hash": geometry.body_hash(body), "valid": True}, args.json)
    return 0


def cmd_covariogram(args):
    body = _load_body(args.body)
    nx, ny = _parse_grid(args.grid)
    grid = covariogram.covariogram_grid(body, nx=nx, ny=ny)
    _write_grid(args.out, grid)
    _emit("covariogram", {"out": args.out, "method": grid.method,
                          "center_value": float(grid.values[ny // 2, nx // 2]),
                          "area": geometry.area(body)}, args.json)
    return 0


def cmd_crosscov(args):
    body_h = _load_body(args.body)
    body_k = _load_body(args.body2)
    nx, ny = _parse_grid(args.grid)
    grid = covariogram.cross_covariogram_grid(body_h, body_k, nx=nx, ny=ny)
    _write_grid(args.out, grid)
    _emit("crosscov", {"out": args.out, "method": grid.method,
                       "max_value": float(grid.values.max())}, args.json)
    return 0


def cmd_radon(args):
    body = _load_body(args.body)
    u = Direction(args.u)
    cf = radon.chord_function(body, u)
    ts = np.linspace(cf.lo, cf.hi, args.num)
    _write_csv(args.out, "t,chord", zip(ts.tolist(), cf(ts).tolist()))
    _emit("radon", {"out": args.out, "domain": [cf.lo, cf.hi], "method": cf.method}, args.json)
    return 0


def cmd_flt(args):
    body = _load_body(args.body)
    u = Direction(args.u)
    ctx = fourier_laplace.build_context(body, u, max_abs_zeta=abs(args.xi_max))
    xi = np.linspace(0.0, args.xi_max, args.num)
    vals = fourier_laplace.flt_ray_many(ctx, xi.astype(complex))
    rows = [(float(x), float(v.real), float(v.imag), float(abs(v) ** 2))
            for x, v in zip(xi, vals)]
    _write_csv(args.out, "xi,re,im,abs2", rows)
    _emit("flt", {"out": args.out, "value_at_zero": float(vals[0].real),
                  "nodes": ctx.nodes.size}, args.json)
    return 0


def cmd_zeros(args):
    body = _load_body(args.body)
    u = Direction(args.u)
    m_list = list(_parse_range(args.m))
    ctx = fourier_laplace.build_context(
        body, u, max_abs_zeta=fourier_laplace.sweep_bound(body, [u], max(m_list)))
    # track_branches returns validated branches only: any other raises
    rows = [(br.m, br.u.theta, br.zeta.real, br.zeta.imag, br.residual,
             br.predicted_center.real, br.predicted_center.imag)
            for br in fourier_laplace.track_branches(ctx, m_list)]
    _write_csv(args.out, "m,theta,re_zeta,im_zeta,residual,pred_re,pred_im", rows)
    _emit("zeros", {"out": args.out, "n_branches": len(rows), "nodes": ctx.nodes.size}, args.json)
    return 0


def cmd_kobayashi(args):
    body = _load_body(args.body)
    m_range = _parse_range(args.m)
    thetas = np.linspace(0.0, 2.0 * math.pi, args.u_grid, endpoint=False)
    rep = asymptotics.kobayashi_report(body, m_range,
                                       [Direction(float(t)) for t in thetas])
    report = {
        "body": rep.body_id,
        "flags": list(rep.flags),
        "decay_exponent": rep.decay_exponent,
        "decay_fit_residual": rep.decay_fit_residual,
        "per_m": [
            {"m": m, "max_deviation": float(rep.deviations[i].max()),
             "im_error": float(rep.im_error_per_m[i]),
             "re_error": float(rep.re_error_per_m[i])}
            for i, m in enumerate(rep.m_list)
        ],
    }
    if args.out:
        _write_text(args.out, _json_text("kobayashi", report))
    if args.json:
        _emit("kobayashi", report, True)
    else:
        for key in ("decay_exponent", "flags"):
            print(f"{key}: {report[key]}")
    return 0


def cmd_recover_curvature(args):
    body = _load_body(args.body)
    if isinstance(body, geometry.Polygon):
        raise UsageError("curvature is undefined on a polygon")
    thetas = np.linspace(0.0, 2.0 * math.pi, args.u_grid, endpoint=False)
    pairs = covariogram.curvature_pairs_from_covariogram(body, [Direction(float(th))
                                                               for th in thetas])
    rows = [(float(th), pair.low, pair.high, pair.fit_residual)
            for th, pair in zip(thetas, pairs)]
    _write_csv(args.out, "theta,low,high,residual", rows)
    _emit("recover-curvature", {"out": args.out, "n_directions": len(rows)}, args.json)
    return 0


# ---------------------------------------------------------------------------
# verification suites (the constants mirror the acceptance tolerances)

MATRIX_PAIRS = 1000          # random SPD pairs of the matrix-identity suite
MATRIX_TOL = 1e-10           # its largest relative deviation
PARABOLOID_INSTANCES = 10    # random paraboloid caps checked against the closed form
PARABOLOID_TOL = 1e-12       # relative gap of the cap quadrature from the closed form
STATEMENT_GAP = 0.5          # least relative gap from the 2^((n+1)/2)-inflated value
COUNTEREXAMPLE_DRAWS = 20    # random parameter draws per parallelogram family
DISK_ZERO_TOL = 1e-6         # largest |zeta - j_1m| of the disk's tracked zeros


def suite_matrix_identities(seed=0):
    # the pairs are drawn one by one, in the order of a pair-by-pair loop, and
    # built and checked in one stack per dimension: A, B, A, B, ...
    rng = np.random.default_rng(seed)
    by_dim = {}
    for _ in range(MATRIX_PAIRS):
        dim = int(rng.integers(1, 7))
        by_dim.setdefault(dim, []).extend([oracles.spd_draws(dim, rng), oracles.spd_draws(dim, rng)])
    worst = 0.0
    for draws in by_dim.values():
        spd = oracles.spd_matrix(*map(np.array, zip(*draws)))
        worst = max(worst, oracles.matrix_identities(spd[0::2], spd[1::2]).max_deviation)
    return [("matrix-identities", worst <= MATRIX_TOL, f"max relative deviation {worst:.3e}")]

def suite_paraboloid(seed=0):
    rows = []
    ref = oracles.paraboloid_volume(np.eye(1), np.eye(1), np.zeros(1), 1.0)
    ok_ref = (ref.gap_closed_form <= PARABOLOID_TOL
              and abs(ref.estimate.value - 4.0 / 3.0) <= PARABOLOID_TOL * (4.0 / 3.0))
    rows.append(("paraboloid-reference", ok_ref,
                 f"volume {ref.estimate.value:.15f} vs 4/3, relative gap {ref.gap_closed_form:.2e}"))
    rows.append(("paraboloid-rejects-statement-constant", ref.gap_statement_level >= STATEMENT_GAP,
                 f"relative gap {ref.gap_statement_level:.3f} from the 2^((n+1)/2)-inflated value"))
    rng = np.random.default_rng(seed + 1)
    all_ok, worst = True, 0.0
    for _ in range(PARABOLOID_INSTANCES):
        d = int(rng.integers(1, 4))
        a = oracles.random_spd(d, rng, (0.5, 3.0))
        b = oracles.random_spd(d, rng, (0.5, 3.0))
        q = rng.uniform(-0.3, 0.3, size=d)
        t = rng.uniform(0.5, 1.5)
        rep = oracles.paraboloid_volume(a, b, q, t)
        all_ok &= rep.gap_closed_form <= PARABOLOID_TOL
        worst = max(worst, rep.gap_closed_form)
    rows.append(("paraboloid-random-instances", all_ok,
                 f"{PARABOLOID_INSTANCES} draws, worst relative gap {worst:.2e}"))
    return rows

def suite_factorization(seed=0):
    rows = []
    rep = fourier_laplace.verify_factorization(geometry.Disk((0.0, 0.0), 1.0),
                                               Direction(0.0), 50.0, 512)
    rows.append(("factorization-disk", rep.passed, f"sup deviation {rep.max_deviation:.3e} * area^2"))
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(9, 2))
    poly = geometry.Polygon(geometry.convex_hull(pts))
    rep2 = fourier_laplace.verify_factorization(poly, Direction(0.7), 50.0, 512)
    rows.append(("factorization-polygon", rep2.passed,
                 f"sup deviation {rep2.max_deviation:.3e} * area^2"))
    return rows

def _random_family_params(family, rng):
    if family == 1:
        return dict(alpha=float(rng.uniform(0.3, 2.0)), beta=float(rng.uniform(0.3, 2.0)),
                    gamma=float(rng.uniform(0.3, 2.0)), delta=float(rng.uniform(0.3, 2.0)),
                    y=tuple(rng.uniform(-1.0, 1.0, 2)))
    m = float(rng.choice([0.0, rng.uniform(-2.0, 2.0)]))
    alpha_p = float(rng.uniform(0.3, 2.0))
    gamma_p = alpha_p * float(rng.uniform(1.1, 2.0))
    beta_p = float(rng.uniform(0.3, 2.0))
    delta_p = beta_p * float(rng.uniform(1.1, 2.0))
    return dict(alpha_p=alpha_p, beta_p=beta_p, gamma_p=gamma_p, delta_p=delta_p,
                m=m, y_p=tuple(rng.uniform(-1.0, 1.0, 2)))

def suite_counterexample(seed=0, families=(1, 3)):
    rows = []
    for family in families:
        rng = np.random.default_rng(seed + family)
        reports = asymptotics.crosscov_counterexample(
            family, [_random_family_params(family, rng) for _ in range(COUNTEREXAMPLE_DRAWS)])
        worst = max([0.0] + [rep.max_deviation for rep in reports])
        ok = all(rep.passed for rep in reports)
        rows.append((f"counterexample-family-{family}", ok,
                     f"{COUNTEREXAMPLE_DRAWS} draws, max grid deviation {worst:.3e}, non-associate"))
    return rows

def suite_kobayashi_disk():
    ctx = fourier_laplace.build_context(geometry.Disk((0.0, 0.0), 1.0), Direction(0.0),
                                        max_abs_zeta=135.0)
    branches = fourier_laplace.track_branches(ctx, range(1, 41))
    devs = [br.deviation for br in branches]
    worst = max(abs(br.zeta - oracles.bessel_j1_zero(br.m)) for br in branches[:20])
    slope = np.polyfit(np.log(np.arange(2, 41)), np.log(devs[1:]), 1)[0]
    rows = [
        ("kobayashi-disk-zeros", worst <= DISK_ZERO_TOL,
         f"max |zeta - j_1m| = {worst:.2e} over m=1..20"),
        ("kobayashi-disk-decay", -1.3 <= slope <= -0.7, f"decay slope {slope:.3f}"),
        ("kobayashi-disk-m1", abs(devs[0] - 0.0953) <= 0.01,
         f"m=1 deviation {devs[0]:.4f} vs 0.0953"),
    ]
    return rows

def suite_properties(seed=0):
    # each check sends its points to the covariogram in one batch; the random
    # draws keep the order of a point-by-point loop
    rows = []
    rng = np.random.default_rng(seed)
    sq = geometry.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])

    def g(body, xs):
        return covariogram.covariogram_evaluator(body)(xs)

    worst = 0.0
    for _ in range(5):
        poly = geometry.Polygon(geometry.convex_hull(rng.uniform(-1, 1, size=(8, 2))))
        xs = rng.uniform(-1.5, 1.5, (20, 2))
        worst = max(worst, float(np.abs(g(poly, xs) - g(poly, -xs)).max()))
    rows.append(("covariogram-evenness", worst <= 1e-12, f"max |g(x)-g(-x)| = {worst:.2e}"))

    poly = geometry.Polygon(geometry.convex_hull(rng.uniform(-1, 1, size=(8, 2))))
    shift = rng.uniform(-2, 2, 2)
    moved = geometry.translate(poly, shift)
    refl = geometry.reflect(poly)
    xs = rng.uniform(-1.5, 1.5, (30, 2))
    g0 = g(poly, xs)
    worst_t = float(np.abs(g(moved, xs) - g0).max())
    worst_r = float(np.abs(g(refl, xs) - g0).max())
    rows.append(("covariogram-translation-invariance", worst_t <= 1e-12, f"{worst_t:.2e}"))
    rows.append(("covariogram-reflection-invariance", worst_r <= 1e-12, f"{worst_r:.2e}"))

    dirs = np.array([[math.cos(th), math.sin(th)] for th in rng.uniform(0, 2 * math.pi, 10)])
    rays = np.linspace(0, 3, 40)[None, :, None] * dirs[:, None]
    vals = g(poly, rays.reshape(-1, 2)).reshape(10, 40)
    mono_ok = bool(np.all(vals[:, 1:] <= vals[:, :-1] + 1e-12))
    rows.append(("covariogram-ray-monotonicity", mono_ok, "sampled rays non-increasing"))

    worst_a = 0.0
    for body in (geometry.Disk((0.2, -0.1), 1.3),
                 geometry.SupportBody(1.0, ((0, 0), (0, 0), (0.05, 0))), poly):
        for _ in range(6):
            u = Direction(rng.uniform(0, 2 * math.pi))
            cf = radon.chord_function(body, u)
            nodes, weights = panel_table(cf.lo, cf.hi, cf.breakpoints)
            worst_a = max(worst_a, abs(float(np.sum(weights * cf(nodes)))
                                       - geometry.area(body)))
    rows.append(("radon-area-identity", worst_a <= 1e-8,
                 f"max |int S - area| = {worst_a:.2e}"))

    rep = fourier_laplace.verify_reflection_identity(poly, seed=seed)
    rows.append(("reflection-identity", rep.passed, f"max deviation {rep.max_deviation:.2e}"))

    xs = rng.uniform(-0.999, 0.999, (50, 2))
    expected = (1 - np.abs(xs[:, 0])) * (1 - np.abs(xs[:, 1]))
    worst_sq = float(np.abs(g(sq, xs) - expected).max())
    rows.append(("square-product-formula", worst_sq <= 1e-12, f"{worst_sq:.2e}"))
    return rows


SUITES = {
    "matrix-identities": lambda args: suite_matrix_identities(seed=args.seed),
    "paraboloid": lambda args: suite_paraboloid(seed=args.seed),
    "factorization": lambda args: suite_factorization(seed=args.seed),
    "counterexample": lambda args: suite_counterexample(
        seed=args.seed, families=(args.family,) if args.family else (1, 3)),
    "kobayashi-disk": lambda args: suite_kobayashi_disk(),
    "properties": lambda args: suite_properties(seed=args.seed),
}


def cmd_verify(args):
    if args.family is not None and args.suite not in ("counterexample", "all"):
        raise UsageError(f"--family applies to the counterexample suite, not to {args.suite}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    rows = []
    for name in names:
        rows.extend(SUITES[name](args))
    if args.json:
        _emit("verify", {"suites": names,
                         "checks": [{"name": n, "passed": bool(p), "detail": d} for n, p, d in rows],
                         "passed": all(p for _, p, _ in rows)}, True)
    else:
        width_name = max(len(n) for n, _, _ in rows)
        for name, passed, detail in rows:
            print(f"{name:<{width_name}}  {'PASS' if passed else 'FAIL'}  {detail}")
    return 0 if all(p for _, p, _ in rows) else 1


def build_parser():
    p = argparse.ArgumentParser(prog="covario",
                                description="Covariograms, chord transforms and "
                                            "Fourier-Laplace zero branches of planar convex bodies")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    sp = sub.add_parser("body-validate", help="validate a body specification file")
    sp.add_argument("--body", required=True)
    add_common(sp)
    sp.set_defaults(func=cmd_body_validate)

    sp = sub.add_parser("covariogram", help="sample g_K on a grid")
    sp.add_argument("--body", required=True)
    sp.add_argument("--grid", default="41x41")
    sp.add_argument("--out", required=True)
    add_common(sp)
    sp.set_defaults(func=cmd_covariogram)

    sp = sub.add_parser("crosscov", help="sample g_{H,K} on a grid")
    sp.add_argument("--body", required=True)
    sp.add_argument("--body2", required=True)
    sp.add_argument("--grid", default="41x41")
    sp.add_argument("--out", required=True)
    add_common(sp)
    sp.set_defaults(func=cmd_crosscov)

    sp = sub.add_parser("radon", help="chord function along one direction")
    sp.add_argument("--body", required=True)
    sp.add_argument("--u", type=float, required=True, help="direction angle in radians")
    sp.add_argument("--num", type=int, default=201)
    sp.add_argument("--out", required=True)
    add_common(sp)
    sp.set_defaults(func=cmd_radon)

    sp = sub.add_parser("flt", help="transform values on a real frequency grid")
    sp.add_argument("--body", required=True)
    sp.add_argument("--u", type=float, required=True)
    sp.add_argument("--xi-max", type=float, default=50.0)
    sp.add_argument("--num", type=int, default=512)
    sp.add_argument("--out", required=True)
    add_common(sp)
    sp.set_defaults(func=cmd_flt)

    sp = sub.add_parser("zeros", help="track zero branches along one direction")
    sp.add_argument("--body", required=True)
    sp.add_argument("--u", type=float, required=True)
    sp.add_argument("--m", required=True, help="branch range, e.g. 1..40")
    sp.add_argument("--out", required=True)
    add_common(sp)
    sp.set_defaults(func=cmd_zeros)

    sp = sub.add_parser("kobayashi", help="branch deviations against predicted centers")
    sp.add_argument("--body", required=True)
    sp.add_argument("--m", default="2..40")
    sp.add_argument("--u-grid", type=int, default=120)
    sp.add_argument("--out", default="")
    add_common(sp)
    sp.set_defaults(func=cmd_kobayashi)

    sp = sub.add_parser("recover-curvature", help="curvature pairs from the covariogram")
    sp.add_argument("--body", required=True)
    sp.add_argument("--u-grid", type=int, default=24)
    sp.add_argument("--out", required=True)
    add_common(sp)
    sp.set_defaults(func=cmd_recover_curvature)

    sp = sub.add_parser("verify", help="run a named verification suite")
    sp.add_argument("suite", choices=sorted(SUITES) + ["all"])
    sp.add_argument("--family", type=int, choices=(1, 3), default=None)
    sp.add_argument("--seed", type=int, default=0)
    add_common(sp)
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_options(args)
        return args.func(args)
    except (UsageError, ThreadCountError, geometry.PolygonNotSmooth,
            fourier_laplace.PrecisionLoss) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (asymptotics.UnmatchedZero, asymptotics.Inconclusive,
            covariogram.FitFailed, fourier_laplace.NewtonDiverged,
            fourier_laplace.ValidationFailed) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
