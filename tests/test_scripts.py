"""Each script under scripts/ runs end to end and writes what it says it writes."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _script(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows(path):
    return path.read_text().splitlines()


@pytest.mark.parametrize("family", ["1", "3"])
def test_counterexample_grid(tmp_path, family, capsys):
    out = tmp_path / "grids" / "family"  # created by the script
    _script("counterexample_grid").main(family, str(out))
    first, second = int(family), int(family) + 1
    for f in (first, second):
        assert len(_rows(out / f"crosscov_family{f}.csv")) == 1 + 41 * 41
        assert (out / f"crosscov_family{f}.meta.json").exists()
    assert "pairs are trivial associates: False" in capsys.readouterr().out


def test_curvature_recovery(tmp_path):
    out = tmp_path / "pairs.csv"
    assert _script("curvature_recovery").main("12", str(out)) == 0
    rows = _rows(out)
    assert rows[0] == "theta,low,high,true_low,true_high,rel_err" and len(rows) == 13


def test_disk_zero_branches(tmp_path, capsys):
    out = tmp_path / "zeros.csv"
    _script("disk_zero_branches").main(str(out))
    rows = _rows(out)
    assert rows[0].startswith("m,zeta_re") and len(rows) == 41
    assert "expected near -1" in capsys.readouterr().out
