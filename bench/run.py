"""covario benchmark: end-to-end and per-layer metrics on three paper workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload branches --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --smoke

Load is one closed-loop client: repetitions run one after another, each in a
fresh interpreter (bench/worker.py), so covario's lru caches and its
Gauss-Legendre cache start cold, as they do for a `covario` CLI call.  Every
child runs single-threaded (COVARIO_THREADS=1, BLAS threads 1).

With --trace 0 the last stdout line reports the end-to-end metrics:
solve_s (median solve time), setup_s (median set-up time over the
repetitions and extra set-up-only starts), peak_rss_mb (median peak resident
memory of a repetition) and ok_share (1 - failed / attempted operations).

solve_s is the median wall time rescaled to a reference machine speed:
median wall time * PROBE_REF_S / median probe time.  The probe is a fixed
mix of interpreter and numpy work (worker.speed_probe) that every child of
the run times after set-up and after its solve.  The shared machines this
runs on change speed by 10-40% over minutes; the probe follows that drift,
so the rescaled time follows the work covario does.  The raw wall times are
printed too.
With --trace 1, repetitions alternate between untraced and traced; the last
line reports the per-layer metrics of the traced ones, computed from their
spans, and trace.overhead.  --smoke runs every workload at tiny size, with
true and with perturbed references, and checks that the gate catches the
perturbation and that idle layers stay idle.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402

WORKLOADS = ("branches", "determination", "verify-all")
WORKER = os.path.join(HERE, "worker.py")
TRACE_DIR = ".bench_trace"
SETUP_PROBES = 8
MIN_REPS = {False: 3, True: 4}
LAUNCH_LIMIT_S = 120.0
CHILD_TIMEOUT_S = 150.0
SMOKE_PERTURB = 0.2
PROBE_REF_S = 0.05  # never change: every solve_s is scaled by it
CHILD_ENV = {"COVARIO_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# layers each workload should leave idle: every listed count must read 0
_FOURIER = ("fourier_laplace.build_context.calls", "fourier_laplace.flt.evals",
            "fourier_laplace.track_zero.calls", "fourier_laplace.winding.calls")
IDLE = {
    "branches": ("covariogram.point.calls", "covariogram.grid.points",
                 "covariogram.curvature_pair.calls", "covariogram.clip_batch.translations",
                 "covariogram.fan_cache.misses"),
    "determination": _FOURIER,
    "verify-all": (),
}

NOT_MEASURED = ("the multi-process parallel_map path (COVARIO_THREADS > 1) is not measured: "
                "it fails with a pickling error on more than one CPU")


class ChildFailed(Exception):
    """A repetition's process failed or printed no result."""


def spawn(workload, seed, *extra, timeout=CHILD_TIMEOUT_S):
    """Run one worker process and return its JSON result."""
    env = {**os.environ, **CHILD_ENV}
    t_spawn = time.monotonic()
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--t-spawn", repr(t_spawn), *extra]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload} repetition exceeded {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise ChildFailed(f"{workload} repetition exited {proc.returncode}: {' | '.join(tail)}")
    return json.loads(lines[-1])


def git_sha():
    """Commit of the checkout, read from .git without running git; None outside a repository."""
    try:
        with open(".git/HEAD") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as fh:
                return fh.read().strip()
        with open(".git/packed-refs") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    """sha256 of the covario sources, which identifies the code when .git is absent."""
    h = hashlib.sha256()
    root = os.path.join("src", "covario")
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def median(values):
    return float(statistics.median(values)) if values else 0.0


def measure(workload, seed, seconds, traced):
    """Repetitions for `seconds` seconds; returns (reps, starts, traces, about).

    starts are the set-up-only children's results.
    """
    about = spawn(workload, seed, "--setup-only")  # compiles bytecode, warms the file cache
    start = time.monotonic()
    starts = []
    if not traced:
        for _ in range(SETUP_PROBES):
            starts.append(spawn(workload, seed, "--setup-only"))
    os.makedirs(TRACE_DIR, exist_ok=True)
    trace_path = os.path.join(TRACE_DIR, f"{workload}.jsonl")
    reps, traces = [], []
    while True:
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS[traced]:
            mean_rep = sum(r["wall_s"] for r in reps) / len(reps)
            if elapsed + 0.5 * mean_rep >= seconds or elapsed >= LAUNCH_LIMIT_S:
                break
        is_traced = traced and len(reps) % 2 == 1
        extra = ["--trace-out", trace_path, "--run-id", f"{workload}-{seed}-{len(reps)}"] \
            if is_traced else []
        t0 = time.monotonic()
        rep = spawn(workload, seed, *extra, timeout=CHILD_TIMEOUT_S - elapsed)
        rep["wall_s"] = time.monotonic() - t0
        rep["traced"] = is_traced
        reps.append(rep)
        if is_traced:
            traces.append(tracing.layer_metrics(tracing.read_trace(trace_path)))
    return reps, starts, traces, about


def end_to_end(reps, starts):
    plain = [r for r in reps if not r["traced"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    probe = median([p for r in starts + plain for p in r["probe_s"]])
    return {
        "solve_s": (median([r["solve_s"] for r in plain]) * PROBE_REF_S / probe, "s"),
        "setup_s": (median([r["setup_s"] for r in starts + plain]), "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in plain]), "MiB"),
        "ok_share": (1.0 - failed / attempted, "share"),
    }


def per_layer(reps, traces):
    metrics = {}
    for name in traces[0]:
        unit = tracing.layer_unit(name)
        value = median([t[name] for t in traces])
        metrics[name] = (int(value) if unit == "count" and value.is_integer() else value, unit)
    plain = median([r["solve_s"] for r in reps if not r["traced"]])
    traced = median([r["solve_s"] for r in reps if r["traced"]])
    metrics["trace.overhead"] = (traced / plain - 1.0, "ratio")
    return metrics


def run(args):
    reps, starts, traces, about = measure(args.workload, args.seed, args.seconds, args.trace == 1)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "src_sha256": src_digest(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        **about["provenance"], "child_env": CHILD_ENV,
        "load": "closed loop, one client, one process at a time, fresh interpreter per repetition",
        "not_measured": NOT_MEASURED,
        "inputs": about["inputs"],
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for i, r in enumerate(reps):
        kind = "traced" if r["traced"] else "untraced"
        print(f"rep {i} {kind}: solve {r['solve_s']:.4f} s wall, {r['solve_cpu_s']:.4f} s cpu, "
              f"probe {median(r['probe_s']):.4f} s, setup {r['setup_s']:.4f} s; "
              f"{r['failed']}/{r['attempted']} failed; {r['detail']}")
    if args.trace == 1:
        metrics = per_layer(reps, traces)
        idle = [n for n in IDLE[args.workload] if metrics[n][0] != 0]
        print("idle-layer prediction " + ("holds" if not idle else f"violated by {idle}"))
    else:
        metrics = end_to_end(reps, starts)
        walls = [r["solve_s"] for r in reps]
        print(f"solve_s: {metrics['solve_s'][0]:.4f} s at reference speed (wall time median "
              f"{median(walls):.4f} s, min {min(walls):.4f} s, max {max(walls):.4f} s, "
              f"{len(walls)} repetitions)")
        print(f"setup_s: {metrics['setup_s'][0]:.4f} s (median of {len(starts) + len(reps)} starts)")
        print(f"peak_rss_mb: {metrics['peak_rss_mb'][0]:.1f} MiB")
        print(f"fail_share: {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def smoke():
    """Tiny sizes: the gate passes true references, fails perturbed ones; idle layers stay idle."""
    ok = True
    os.makedirs(TRACE_DIR, exist_ok=True)
    for wl in WORKLOADS:
        clean = spawn(wl, 0, "--tiny")
        bent = spawn(wl, 0, "--tiny", "--perturb", repr(SMOKE_PERTURB))
        path = os.path.join(TRACE_DIR, f"smoke-{wl}.jsonl")
        spawn(wl, 0, "--tiny", "--trace-out", path, "--run-id", f"smoke-{wl}")
        layers = tracing.layer_metrics(tracing.read_trace(path))
        busy_idle = [n for n in IDLE[wl] if layers[n] != 0]
        good = clean["failed"] == 0 and bent["failed"] > 0 and not busy_idle
        ok &= good
        print(f"{wl}: true reference {clean['failed']}/{clean['attempted']} failed, "
              f"perturbed reference {bent['failed']}/{bent['attempted']} failed, "
              f"idle layers {'idle' if not busy_idle else busy_idle} -> "
              f"{'OK' if good else 'GATE BROKEN'}")
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="check that the correctness gate bites")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "covario", "__init__.py")):
        print("error: run from the root of a covario checkout (src/covario not found)",
              file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            p.error("--workload is required")
        return run(args)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
