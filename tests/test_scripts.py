"""Each script under scripts/ runs end to end and writes what it says it writes."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _script(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows(path):
    return path.read_text().splitlines()


def test_curvature_recovery(tmp_path):
    out = tmp_path / "pairs.csv"
    assert _script("curvature_recovery").main("12", str(out)) == 0
    rows = _rows(out)
    assert rows[0] == "theta,low,high,true_low,true_high,rel_err" and len(rows) == 13

