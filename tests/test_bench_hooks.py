"""The benchmark's tracer binds covario functions and caches by name, and its
workloads call covario with fixed arguments; a rename or a contract change
must fail here rather than silently break a benchmark run."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

import covario.cli  # noqa: F401  (imports every covario module, as the benchmark does)
from covario.oracles import paraboloid_volume

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracing():
    return _load("tracing")


def test_trace_targets_resolve():
    for mod_name, path, _ in _tracing().TARGETS:
        owner = importlib.import_module(mod_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{mod_name}.{path}"


def test_paraboloid_trace_counts_quadrature_points():
    # the tracer records each paraboloid_volume's point count from its report
    attrs = {path: fn for mod_name, path, fn in _tracing().TARGETS
             if mod_name == "covario.oracles"}["paraboloid_volume"]
    for d in (1, 2, 3):
        args = (np.eye(d), 2.0 * np.eye(d), np.full(d, 0.1), 1.0)
        report = paraboloid_volume(*args)
        assert attrs(args, {}, report) == {"n": 20 ** d}
    assert attrs(args, {}, None) == {"n": 0}


def test_traced_caches_have_cache_info():
    for mod_name, attr, _ in _tracing().CACHES:
        assert callable(getattr(importlib.import_module(mod_name), attr).cache_info), \
            f"{mod_name}.{attr}"


def test_determination_workload_contract():
    from covario.covariogram import covariogram_evaluator
    from covario.geometry import SupportBody

    workloads = _load("workloads")
    cw3 = SupportBody(1.0, ((0.0, 0.0), (0.0, 0.0), (0.05, 0.0)))
    assert covariogram_evaluator(cw3, n=workloads.Determination.N)((0.5, 0.0)) > 0.0
    workload = workloads.Determination(seed=1, tiny=True, perturb=0.0,
                                       tracer=_tracing().NullTracer())
    attempted, failed, detail = workload.solve()
    assert (attempted, failed) == (1, 0), detail


def test_bench_smoke():
    # perturbed references must raise failures and the layers a workload does
    # not use must stay idle, e.g. no Fourier-layer call in determination
    done = subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=BENCH.parent,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
