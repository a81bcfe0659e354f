"""The benchmark's tracer binds covario functions and caches by name; a rename
must fail here rather than silently break a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import covario.cli  # noqa: F401  (imports every covario module, as the benchmark does)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve():
    for mod_name, path, _ in _tracing().TARGETS:
        owner = importlib.import_module(mod_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{mod_name}.{path}"


def test_traced_caches_have_cache_info():
    for mod_name, attr, _ in _tracing().CACHES:
        assert callable(getattr(importlib.import_module(mod_name), attr).cache_info), \
            f"{mod_name}.{attr}"
