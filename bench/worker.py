"""One benchmark repetition in a fresh interpreter, started by bench/run.py.

Set-up is timed from the moment the parent started this process (its
CLOCK_MONOTONIC reading is passed in) to the end of body construction, so it
covers interpreter start, `import covario` and the bodies' C2+ checks.  The
solve is timed from the first call into covario until the result has been
checked.  A fixed speed probe runs PROBES times after set-up and PROBES
times after the solve; its times measure how fast the machine ran.  The last
line of stdout is one JSON object with the measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

PROBES = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t-spawn", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--perturb", type=float, default=0.0)
    p.add_argument("--trace-out", default="")
    p.add_argument("--run-id", default="")
    return p.parse_args(argv)


def speed_probe():
    """Seconds this process takes for a fixed mix of interpreter loops and small numpy calls.

    Never change this function: solve_s is scaled by its time, so a changed
    probe changes every solve_s.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0.0
    for i in range(150000):
        x = (i * 0.618033988749895) % 1.0
        acc += x * x if x > 0.5 else -x
    z = np.linspace(0.0, 1.0, 896)
    for k in range(500):
        acc += float(np.abs(np.sum(np.exp(1j * z * (k + 0.5)))))
    acc += float(np.sort(np.random.default_rng(1).random(100000))[100])
    return time.perf_counter() - t0 + 0.0 * acc


def provenance():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import tracing
    import workloads

    tracer = tracing.Tracer(args.run_id) if args.trace_out else tracing.NullTracer()
    if args.trace_out:
        tracer.install()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, args.perturb, tracer)
    result = {"setup_s": time.monotonic() - args.t_spawn}
    probes = [speed_probe() for _ in range(PROBES)]
    if args.setup_only:
        result["provenance"] = provenance()
        result["inputs"] = wl.inputs
    else:
        t0, c0 = time.perf_counter(), time.process_time()
        attempted, failed, detail = wl.solve()
        result["solve_s"] = time.perf_counter() - t0
        result["solve_cpu_s"] = time.process_time() - c0
        probes += [speed_probe() for _ in range(PROBES)]
        result.update(attempted=attempted, failed=failed, detail=detail)
    result["probe_s"] = probes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace_out:
        tracer.read_caches()
        tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
