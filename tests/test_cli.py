import hashlib
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covario import cli, geometry, oracles
from covario.asymptotics import COUNTEREXAMPLE_TOL
from covario.cli import main


def write_body(tmp_path, name, spec):
    p = tmp_path / name
    p.write_text(json.dumps(spec))
    return str(p)


BODIES = {  # h and k are two parallelograms
    "cw3": {"kind": "support2d", "a0": 1.0, "coeffs": [[0, 0], [0, 0], [0.05, 0]]},
    "square": {"kind": "polygon", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
    "disk": {"kind": "disk", "center": [0, 0], "radius": 1.0},
    "h": {"kind": "polygon", "vertices": [[0, 0], [2, 0], [2.6, 1], [0.6, 1]]},
    "k": {"kind": "polygon", "vertices": [[0, 0], [1, 0.5], [1.3, 1.7], [0.3, 1.2]]},
}


@pytest.fixture
def square_file(tmp_path):
    return write_body(tmp_path, "square.json", BODIES["square"])


@pytest.fixture
def disk_file(tmp_path):
    return write_body(tmp_path, "disk.json", BODIES["disk"])


@pytest.fixture
def cw3_file(tmp_path):
    return write_body(tmp_path, "cw3.json", BODIES["cw3"])


def test_body_validate_all_kinds(tmp_path, square_file, disk_file, cw3_file, capsys):
    zono = write_body(tmp_path, "z.json", {"kind": "zonogon", "center": [0, 0],
                                           "generators": [[[-1, 0], [1, 0]], [[0, -1], [0, 1]]]})
    for path in (square_file, disk_file, cw3_file, zono):
        assert main(["body-validate", "--body", path, "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["schema_version"] == 1 and out["valid"]


@pytest.mark.parametrize("generator, area", [
    ([[1e6, 0], [1e6 + 5, 0]], 5.0),
    ([[0, 0], [1e-9, 0]], 1e-9),
], ids=["far-from-origin", "short"])
def test_body_validate_keeps_a_zonogon_generator_with_close_endpoints(tmp_path, generator, area,
                                                                       capsys):
    # both exited 2 with "segment endpoints coincide", under np.allclose's
    # relative and absolute tolerances; as a polygon file the body was valid
    path = write_body(tmp_path, "z.json", {"kind": "zonogon", "center": [0, 0],
                                           "generators": [generator, [[0, 0], [0, 1]]]})
    assert main(["body-validate", "--body", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["area"] == pytest.approx(area, rel=1e-12)


def test_body_validate_rejects_a_zonogon_generator_with_equal_endpoints(tmp_path, capsys):
    path = write_body(tmp_path, "z.json", {"kind": "zonogon", "center": [0, 0],
                                           "generators": [[[1, 2], [1, 2]], [[0, 0], [0, 1]]]})
    assert main(["body-validate", "--body", path, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "segment endpoints coincide" in captured.err


def test_body_validate_rejects_dip_between_grid_points(tmp_path, capsys):
    # rho = h + h'' dips to -1.1e-7 between two points of a 4096-point grid;
    # its least value, at the critical points of the series, shows the dip
    path = write_body(tmp_path, "dip.json", {
        "kind": "support2d", "a0": 1.0,
        "coeffs": [[0.0, 0.0], [0.26798323176795624, 0.1982324978644922]]})
    assert main(["body-validate", "--body", path, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1 and "h + h''" in captured.err


def test_body_validate_rejects_origin_outside_between_grid_points(tmp_path, capsys):
    # h dips to -1.0e-7 between the points of a 4096-point grid; this body was
    # reported valid with exit code 0
    path = write_body(tmp_path, "out.json", {
        "kind": "support2d", "a0": 1.0, "coeffs": [[-0.988140181899701, -0.1535551396575058]]})
    assert main(["body-validate", "--body", path, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "origin inside" in captured.err


def test_zeros_rejects_polygon_as_usage_error(tmp_path, square_file, capsys):
    # the branch centres need the curvature, which a polygon does not have
    out = tmp_path / "zeros.csv"
    assert main(["zeros", "--body", square_file, "--u", "0.3", "--m", "1..3",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_recover_curvature_rejects_polygon_as_usage_error(tmp_path, square_file, capsys):
    out = tmp_path / "c.csv"
    assert main(["recover-curvature", "--body", square_file, "--u-grid", "2",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.strip() == "error: curvature is undefined on a polygon"


@pytest.mark.parametrize("vertices", [
    [[0, 0], [2, 0], [1, 1.5], [2, 2], [0, 2]],  # a reflex vertex
    [[math.cos(4 * math.pi * k / 5), math.sin(4 * math.pi * k / 5)] for k in range(5)],
], ids=["reflex", "pentagram"])
def test_body_validate_rejects_polygon_out_of_convex_position(tmp_path, vertices, capsys):
    path = write_body(tmp_path, "p.json", {"kind": "polygon", "vertices": vertices})
    assert main(["body-validate", "--body", path, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "convex position" in captured.err


def test_body_validate_keeps_a_repeated_vertex(tmp_path, capsys):
    path = write_body(tmp_path, "sq.json", {"kind": "polygon",
                                            "vertices": [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]})
    assert main(["body-validate", "--body", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["area"] == 1.0


def test_malformed_json_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "polygon",\n vertices: []}')
    assert main(["body-validate", "--body", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def test_unknown_keys_rejected(tmp_path, capsys):
    path = write_body(tmp_path, "x.json",
                      {"kind": "disk", "center": [0, 0], "radius": 1.0, "colour": "red"})
    assert main(["body-validate", "--body", path]) == 2
    assert "unknown keys" in capsys.readouterr().err


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not valid JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("spec", [
    {"kind": "disk", "center": [0, 0], "radius": float("nan")},
    {"kind": "disk", "center": [0, 0], "radius": float("inf")},
    {"kind": "support2d", "a0": 1.0, "coeffs": [[0, 0], [0, 0], [float("nan"), 0]]},
])
def test_non_finite_body_rejected(tmp_path, spec, capsys):
    path = write_body(tmp_path, "bad.json", spec)
    assert main(["body-validate", "--body", path, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "non-finite" in captured.err


@pytest.mark.parametrize("spec", [
    {"kind": "disk", "center": [0], "radius": 1},
    {"kind": "disk", "center": [0, 0, 5], "radius": 1},
    {"kind": "support2d", "a0": 1.0, "coeffs": [], "center": [1]},
    {"kind": "support2d", "a0": 1.0, "coeffs": [], "center": [1, 0, 0]},
    {"kind": "zonogon", "center": [0], "generators": [[[-1, 0], [1, 0]], [[0, -1], [0, 1]]]},
    {"kind": "zonogon", "center": [0, 0, 5], "generators": [[[-1, 0], [1, 0]], [[0, -1], [0, 1]]]},
    {"kind": "disk", "center": [0, [1, 2]], "radius": 1},
    {"kind": "support2d", "a0": 1.0, "coeffs": [], "center": [0, [1, 2]]},
    {"kind": "zonogon", "center": [0, [1, 2]], "generators": [[[-1, 0], [1, 0]], [[0, -1], [0, 1]]]},
], ids=["disk-one", "disk-three", "support-one", "support-three", "zonogon-one", "zonogon-three",
        "disk-ragged", "support-ragged", "zonogon-ragged"])
def test_body_center_of_other_length_rejected(tmp_path, spec, capsys):
    # one number raised an IndexError; a third number was dropped and the body
    # passed; a zonogon's exited 2 with numpy's vstack text; a ragged center
    # exited 2 with numpy's "inhomogeneous shape" text
    path = write_body(tmp_path, "c.json", spec)
    assert main(["body-validate", "--body", path, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "center must be two numbers" in captured.err
    assert "Traceback" not in captured.err and len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("generators, shown", [
    ([[[0, 0, 1], [1, 0]], [[0, -1], [0, 1]]], "(0, 0, 1)"),
    ([[[0, 0, 1], [1, 0, 1]], [[0, -1, 0], [0, 1, 0]]], "(0, 0, 1)"),
    ([[[-1, [0, 1]], [1, 0]], [[0, -1], [0, 1]]], "(-1, [0, 1])"),
], ids=["one-endpoint", "every-endpoint", "ragged-endpoint"])
def test_zonogon_endpoint_of_other_length_rejected(tmp_path, generators, shown, capsys):
    # these exited 2 with numpy's array-shape, inhomogeneous-shape or vstack
    # text, which named no value
    path = write_body(tmp_path, "z.json", {"kind": "zonogon", "center": [0, 0],
                                           "generators": generators})
    assert main(["body-validate", "--body", path, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"segment endpoint must be two numbers, got {shown}" in captured.err
    assert "Traceback" not in captured.err and len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["radon", "--u", "nan"],
    ["radon", "--u", "0.0", "--num", "0"],
    ["radon", "--u", "0.0", "--num", "-3"],
    ["covariogram", "--grid", "1x1"],
    ["covariogram", "--grid", "1x9"],
    ["covariogram", "--grid", "0x5"],
    ["crosscov", "--body2", "{body}", "--grid", "1x1"],
    ["crosscov", "--body2", "{body}", "--grid", "1x9"],
    ["flt", "--u", "nan"],
    ["flt", "--u", "0.0", "--xi-max", "nan"],
    ["flt", "--u", "0.0", "--num", "0"],
    ["zeros", "--u", "nan", "--m", "1..2"],
    ["zeros", "--u", "inf", "--m", "1..2"],
    ["zeros", "--u", "0", "--m", "0..2"],
    ["zeros", "--u", "0", "--m", "3..1"],
    ["kobayashi", "--u-grid", "0"],
    ["verify", "all", "--seed", "-1"],
], ids=" ".join)
def test_malformed_numeric_options_are_usage_errors(tmp_path, disk_file, argv, capsys):
    args = [a.format(body=disk_file) for a in argv]
    if args[0] != "verify":
        args[1:1] = ["--body", disk_file, "--out", str(tmp_path / "out.csv")]
    assert main(args) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_missing_file(capsys):
    assert main(["body-validate", "--body", "/nonexistent/body.json"]) == 2


@pytest.mark.parametrize("content, shown", [
    (None, "Is a directory"),
    (b"\xff\xfe{}", "not UTF-8 text"),
    (b"[1, 2]", "must be an object, got [1, 2]"),
    (b'"polygon"', "must be an object, got 'polygon'"),
    (b"null", "must be an object, got None"),
], ids=["directory", "not-utf8", "list", "string", "null"])
def test_unreadable_or_non_object_body_file_is_usage_error(tmp_path, content, shown, capsys):
    # each exited 1 with an IsADirectoryError, UnicodeDecodeError or AttributeError traceback
    path = tmp_path / "body.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main(["body-validate", "--body", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and shown in captured.err and str(path) in captured.err
    assert captured.err.startswith("error: ") and len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("spec, shown", [
    ({"kind": "disk", "center": [0, 0], "radius": True}, "'radius' of 'disk' body must hold"),
    ({"kind": "disk", "center": [0, 0], "radius": "2"}, "'radius' of 'disk' body must hold"),
    ({"kind": "support2d", "a0": "1e0"}, "'a0' of 'support2d' body must hold numbers"),
    ({"kind": "disk", "center": [True, False], "radius": 1}, "'center' of 'disk' body must hold"),
    ({"kind": "polygon", "vertices": [["0", "0"], [1, 0], [0, 1]]}, "'vertices' of 'polygon' body"),
    ({"kind": "polygon"}, "missing key 'vertices'"),
    ({"kind": "disk", "radius": 1.0}, "missing key 'center'"),
    ({"kind": "support2d", "a0": 1.0, "coeffs": [[0, 0, 1]]},
     "harmonic 1 must be two numbers, got [0, 0, 1]"),
    ({"kind": "support2d", "a0": 1.0, "coeffs": [0.1]}, "harmonic 1 must be two numbers, got 0.1"),
    ({"kind": "support2d", "a0": 1.0, "coeffs": ["ab"]}, "'coeffs' of 'support2d' body must hold"),
    ({"kind": "support2d", "a0": [1.0]}, "a0 must be one number, got [1.0]"),
    ({"kind": "disk", "center": [0, 0], "radius": [1.0]}, "radius must be one number, got [1.0]"),
    ({"kind": "support2d", "a0": 1, "coeffs": 5}, "'coeffs' of 'support2d' body must be a list, got 5"),
    ({"kind": "disk", "center": 0, "radius": 1}, "center must be two numbers, got 0"),
    ({"kind": "support2d", "a0": 1, "coeffs": {"a": 1}},
     "'coeffs' of 'support2d' body must be a list, got {'a': 1}"),
    ({"kind": "zonogon", "generators": [[0, 1], [1, 0]]},
     "generator 1 must be two endpoints, got [0, 1]"),
    ({"kind": ["polygon"]}, "unknown body kind ['polygon']"),
    ({"kind": "support2d", "a0": 1e200}, "support body area is not finite"),
    ({"kind": "disk", "center": [0, 0], "radius": 1e308}, "support body area is not finite"),
    ({"kind": "polygon", "vertices": [[0, 0], [1e200, 0], [0, 1e200]]},
     "polygon coordinates overflow"),
    ({"kind": "disk", "center": [0, 0], "radius": 10 ** 400},
     "'radius' of 'disk' body holds a number beyond the float range"),
    ({"kind": "support2d", "a0": 10 ** 400},
     "'a0' of 'support2d' body holds a number beyond the float range"),
    ({"kind": "polygon", "vertices": [[0, 0], [10 ** 400, 0], [0, 1]]},
     "'vertices' of 'polygon' body holds a number beyond the float range"),
], ids=["radius-bool", "radius-string", "a0-string", "center-bools", "vertex-strings",
        "missing-vertices", "missing-center", "harmonic-three", "harmonic-scalar",
        "harmonic-string", "a0-list", "radius-list", "coeffs-number", "center-number",
        "coeffs-object", "generator-of-numbers", "kind-list", "a0-overflow", "radius-overflow",
        "vertices-overflow", "radius-huge-int", "a0-huge-int", "vertex-huge-int"])
def test_malformed_body_field_is_named(tmp_path, spec, shown, capsys):
    # the bools and strings were reported valid; the others showed only the
    # key, Python's unpacking, iteration or hashing text, or float()'s text;
    # the overflowing areas exited 1 with an OverflowError traceback, the
    # overflowing vertices warned and blamed collinear removal; a JSON
    # integer of 401 digits exited 1 with an OverflowError traceback
    path = write_body(tmp_path, "b.json", spec)
    assert main(["body-validate", "--body", path, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and shown in captured.err
    assert "Traceback" not in captured.err and len(captured.err.strip().splitlines()) == 1


# spec numbers: floats up to +-1e308, integers up to 10^400, and small ones
# that build real bodies
_NUMBER = st.one_of(st.floats(-1e308, 1e308), st.integers(-10 ** 400, 10 ** 400),
                    st.floats(-3.0, 3.0), st.integers(-3, 3))
_RAGGED = st.recursive(_NUMBER, lambda inner: st.lists(inner, max_size=4), max_leaves=8)
_PAIR = st.lists(_NUMBER, min_size=2, max_size=2)
_SPECS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("polygon"),
                           "vertices": st.one_of(st.lists(_PAIR, min_size=3, max_size=6),
                                                 st.lists(_RAGGED, max_size=4))}),
    st.fixed_dictionaries({"kind": st.just("disk"), "center": st.one_of(_PAIR, _RAGGED),
                           "radius": st.one_of(_NUMBER, _RAGGED)}),
    st.fixed_dictionaries({"kind": st.just("support2d"), "a0": st.one_of(_NUMBER, _RAGGED)},
                          optional={"coeffs": st.lists(st.one_of(_PAIR, _RAGGED), max_size=4),
                                    "center": st.one_of(_PAIR, _RAGGED)}),
    st.fixed_dictionaries({"kind": st.just("zonogon"),
                           "generators": st.lists(st.one_of(st.lists(_PAIR, min_size=2,
                                                                      max_size=2), _RAGGED),
                                                  max_size=4)},
                          optional={"center": st.one_of(_PAIR, _RAGGED)}),
)


@settings(deadline=None, max_examples=400, derandomize=True)
@given(_SPECS)
def test_body_spec_builds_or_exits_2(tmp_path_factory, spec):
    # every spec builds a body of finite positive area or is rejected with
    # exit code 2; a 401-digit integer raised OverflowError (exit 1)
    path = tmp_path_factory.mktemp("spec") / "b.json"
    path.write_text(json.dumps(spec))
    try:
        body = cli._load_body(str(path))
    except cli.UsageError:
        return
    assert 0.0 < geometry.area(body) < math.inf


def test_covariogram_grid_deterministic(tmp_path, square_file, capsys):
    out1, out2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
    assert main(["covariogram", "--body", square_file, "--grid", "21x21",
                 "--out", str(out1), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert abs(rep["center_value"] - 1.0) < 1e-9
    assert main(["covariogram", "--body", square_file, "--grid", "21x21",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    meta = json.loads((tmp_path / "g1.csv.meta.json").read_text())
    assert meta["schema_version"] == 1


def test_crosscov_command(tmp_path, square_file, disk_file, capsys):
    out = tmp_path / "x.csv"
    assert main(["crosscov", "--body", square_file, "--body2", disk_file,
                 "--grid", "11x11", "--out", str(out), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["method"] == "polyline-approx"
    assert out.exists()


def test_radon_command(tmp_path, cw3_file, capsys):
    out = tmp_path / "r.csv"
    assert main(["radon", "--body", cw3_file, "--u", "0.0", "--out", str(out),
                 "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["method"] == "support-rootfind"
    lines = out.read_text().splitlines()
    assert lines[0] == "t,chord"
    assert len(lines) == 202


@pytest.mark.parametrize("argv", [["radon"], ["zeros", "--m", "1..5"]], ids=["radon", "zeros"])
def test_huge_angle_is_its_reduced_angle(tmp_path, cw3_file, argv, capsys):
    # at 1e300, th + pi == th: radon's domain on cw3, of constant width 2,
    # had width 2.096, and zeros failed its damping
    outputs = []
    for u in (1e300, 1e300 % (2.0 * math.pi)):
        out = tmp_path / f"{len(outputs)}.csv"
        assert main([argv[0], "--body", cw3_file, "--u", repr(u), *argv[1:], "--out", str(out),
                     "--json"]) == 0
        outputs.append((capsys.readouterr().out.replace(str(out), "<out>"), out.read_bytes()))
    assert outputs[0] == outputs[1]


def test_flt_command(tmp_path, disk_file, capsys):
    out = tmp_path / "f.csv"
    assert main(["flt", "--body", disk_file, "--u", "0.0", "--num", "64",
                 "--out", str(out), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert abs(rep["value_at_zero"] - 3.141592653589793) <= 1e-14 * math.pi


def test_flt_negative_xi_max_mirrors_positive(tmp_path, capsys):
    # F(-xi) = conj F(xi) on the real axis, so the two CSVs mirror each other
    # only if both contexts are sized for |xi| <= 50
    body = write_body(tmp_path, "b.json", {"kind": "support2d", "a0": 1.0,
                                           "coeffs": [[0, 0], [0, 0], [0.05, 0]],
                                           "center": [0.3, -0.2]})
    tables = {}
    for xi_max in ("50", "-50"):
        out = tmp_path / f"f{xi_max}.csv"
        assert main(["flt", "--body", body, "--u", "0.4", "--xi-max", xi_max, "--num", "101",
                     "--out", str(out), "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert abs(rep["value_at_zero"] - 0.99 * math.pi) <= 1e-14 * math.pi
        assert rep["nodes"] > 0
        assert out.read_text().splitlines()[0] == "xi,re,im,abs2"
        tables[xi_max] = np.loadtxt(out, delimiter=",", skiprows=1)
    mirrored = tables["-50"] * np.array([-1.0, 1.0, -1.0, 1.0])
    assert np.abs(mirrored - tables["50"]).max() <= 1e-12


def test_zeros_command(tmp_path, disk_file, capsys):
    out = tmp_path / "z.csv"
    assert main(["zeros", "--body", disk_file, "--u", "0.0", "--m", "1..3",
                 "--out", str(out), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["n_branches"] == 3
    assert rep["nodes"] > 0
    rows = out.read_text().splitlines()
    assert rows[0] == "m,theta,re_zeta,im_zeta,residual,pred_re,pred_im"
    assert len(rows) == 4


def test_zeros_narrow_disk(tmp_path, capsys):
    # width 0.1 puts track_zero's validation contour 15.7 past each zero
    body = write_body(tmp_path, "small.json", {"kind": "disk", "center": [0, 0], "radius": 0.05})
    out = tmp_path / "z.csv"
    assert main(["zeros", "--body", body, "--u", "0.0", "--m", "1..3",
                 "--out", str(out), "--json"]) == 0
    re_zeta = np.loadtxt(out, delimiter=",", skiprows=1)[:, 2]
    assert np.abs(re_zeta - np.array([76.634119404, 140.311733396, 203.469362701])).max() <= 1e-8


def test_flt_huge_xi_max_is_usage_error(tmp_path, disk_file, capsys):
    # a rule for |xi| <= 1e8 would need about 1e8 nodes; the node cap is
    # checked before any rule is built
    out = tmp_path / "f.csv"
    assert main(["flt", "--body", disk_file, "--u", "0.0", "--xi-max", "1e8",
                 "--out", str(out)]) == 2
    assert "nodes" in capsys.readouterr().err
    assert not out.exists()


def test_kobayashi_command(tmp_path, disk_file, capsys):
    out = tmp_path / "k.json"
    assert main(["kobayashi", "--body", disk_file, "--m", "2..8", "--u-grid", "2",
                 "--out", str(out), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert -1.3 <= rep["decay_exponent"] <= -0.7
    assert json.loads(out.read_text())["schema_version"] == 1


def test_kobayashi_single_m_writes_strict_json(tmp_path, disk_file, capsys):
    # one m leaves the decay exponent undefined (NaN), which JSON writes as null
    out = tmp_path / "k1.json"
    assert main(["kobayashi", "--body", disk_file, "--m", "4", "--u-grid", "1",
                 "--out", str(out), "--json"]) == 0
    rep = _strict_json(capsys.readouterr().out)
    assert rep["decay_exponent"] is None and rep["decay_fit_residual"] is None
    assert _strict_json(out.read_text())["decay_exponent"] is None


def test_kobayashi_bad_thread_count_is_usage_error(disk_file, capsys, monkeypatch):
    monkeypatch.setenv("COVARIO_THREADS", "x")
    assert main(["kobayashi", "--body", disk_file, "--m", "2..3", "--u-grid", "2"]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "COVARIO_THREADS" in err
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_recover_curvature_command(tmp_path, disk_file, capsys):
    out = tmp_path / "c.csv"
    assert main(["recover-curvature", "--body", disk_file, "--u-grid", "2",
                 "--out", str(out), "--json"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,low,high,residual"
    low = float(lines[1].split(",")[1])
    assert abs(low - 1.0) < 0.02


def test_recover_curvature_csv_is_pinned(tmp_path, cw3_file):
    # the cap fits' CSV for cw3, byte for byte as the per-direction fits wrote it
    out = tmp_path / "pairs.csv"
    assert main(["recover-curvature", "--body", cw3_file, "--u-grid", "24",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "7e71f4121167059ba0986dc096788e144ece38cf98fdec10d5f3b097ebbb97af")


def _child_env(**extra):
    """The environment with extra set, in which a child sees src/ whether or
    not the package is installed."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src, **extra}


def _cli_run(args, **env):
    """The stdout bytes of a covario run in a child process with env set; it
    must write nothing to stderr, a warning included."""
    run = subprocess.run([sys.executable, "-m", "covario.cli", *args],
                         capture_output=True, env=_child_env(**env), check=True)
    assert run.stderr == b""
    return run.stdout


def _cli_output(args, tmp_path, **env):
    """Bytes of a covario run in a child process with env set, and of its --out file."""
    out = tmp_path / "out"
    return _cli_run([*args, "--out", str(out)], **env), out.read_bytes()


ZEROS_DIGESTS = {
    ("0.4", "1..40"): "f1e9a395370a2acde779446772900062f24fbebd1a4affa0506caa00647336ab",
    ("0.7", "1..100"): "ed3b58fb9ffc5daf0ee0b653fd2225b4ca4105531e4876ed6dd474cb37aba5fc",
}


def test_zeros_csv_is_pinned_across_blas_threads(tmp_path, cw3_file):
    # the branch CSVs of cw3, byte for byte, whatever thread count BLAS runs
    # the expansion's coefficient products on
    for (u, m), digest in ZEROS_DIGESTS.items():
        digests = {hashlib.sha256(_cli_output(["zeros", "--body", cw3_file, "--u", u, "--m", m],
                                              tmp_path, OPENBLAS_NUM_THREADS=blas)[1]).hexdigest()
                   for blas in ("1", "2")}
        assert digests == {digest}, (u, m)


def test_kobayashi_json_is_pinned_across_thread_counts(tmp_path, cw3_file):
    # the report of 12 directions, byte for byte, serial or on a two-worker
    # pool, with one or two BLAS threads
    digests = {hashlib.sha256(_cli_output(["kobayashi", "--body", cw3_file, "--m", "2..40",
                                           "--u-grid", "12", "--json"], tmp_path,
                                          OPENBLAS_NUM_THREADS=blas,
                                          COVARIO_THREADS=workers)[0]).hexdigest()
               for blas in ("1", "2") for workers in ("1", "2")}
    assert digests == {"e431fe697bde4ce8a706982d2d5ec24e556927f1c0bac312a4b68a5d4552b513"}


HEXAGON = {"kind": "polygon",
           "vertices": [[0, 0], [2, 0], [2.5, 1], [1.5, 2], [0.2, 1.8], [-0.5, 0.8]]}


FLT_DIGESTS = {
    "cw3": "2bfcbcbed4bede74621830ba31cc65b3bf3517bb3c461b7bcc0bd56542983033",
    "hexagon": "931d2df8894d46a0ac63cae3f7c4f5ab54cc93731a9d52fc0e3c6ab8584bf676",
}


@pytest.mark.parametrize("name", sorted(FLT_DIGESTS))
def test_flt_csv_is_pinned(tmp_path, cw3_file, name):
    # the transform table, byte for byte, with one or two BLAS threads: the
    # boundary rule is summed in node chunks too short for BLAS to split
    body = cw3_file if name == "cw3" else write_body(tmp_path, "hexagon.json", HEXAGON)
    digests = {hashlib.sha256(_cli_output(["flt", "--body", body, "--u", "0.7", "--xi-max", "60"],
                                          tmp_path, OPENBLAS_NUM_THREADS=blas)[1]).hexdigest()
               for blas in ("1", "2")}
    assert digests == {FLT_DIGESTS[name]}


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 32, 2 ** 32))


@pytest.mark.parametrize("xi_max", ["1e5", "1e20", "1e300"])
def test_flt_box_too_wide_for_any_rule_exits_2(tmp_path, square_file, xi_max):
    # 1e5 needs Gauss-Legendre orders past 1024 on two edges, whose tables
    # would take gigabytes (the child may map at most 4 GiB); 1e20 and 1e300
    # overflowed int64 rule sizes
    out = tmp_path / "out.csv"
    run = subprocess.run([sys.executable, "-m", "covario.cli", "flt", "--body", square_file,
                          "--u", "0.3", "--xi-max", xi_max, "--out", str(out)],
                         capture_output=True, text=True, env=_child_env(),
                         preexec_fn=_limit_memory)
    assert run.returncode == 2 and run.stdout == "" and not out.exists()
    assert run.stderr.startswith("error: ") and len(run.stderr.splitlines()) == 1


VERIFY_ALL_DIGESTS = {
    39: "4bd27f42bf254e9611498b03d3212f8a3353537dd898a8fa62cd818eb3c59ead",
    133: "dbff4a6548336f011242e88f895b2ea72d69502e3693bcadce0d5cee88d5201d",
}


def test_verify_all_json_is_pinned():
    # every suite's report at seeds 39 and 133, byte for byte, with one or two
    # BLAS threads
    for seed, digest in VERIFY_ALL_DIGESTS.items():
        digests = {hashlib.sha256(_cli_run(["verify", "all", "--seed", str(seed), "--json"],
                                           OPENBLAS_NUM_THREADS=blas)).hexdigest()
                   for blas in ("1", "2")}
        assert digests == {digest}, seed


def test_verify_all_text_is_pinned():
    # the PASS/FAIL table of every suite at seed 39, byte for byte
    assert hashlib.sha256(_cli_run(["verify", "all", "--seed", "39"],
                                   OPENBLAS_NUM_THREADS="1")).hexdigest() == (
        "d6021ae4d2630c4a2c13adf99a5e26a8d10c9141aede9624dcaeb7b0c0097711")


@pytest.mark.parametrize("seed", [1, 3, 191])
def test_verify_factorization_json_is_blas_thread_independent(seed):
    # the cosine sum of the autocorrelation table takes no BLAS reduction, so
    # its last digits do not follow the thread count
    outputs = {_cli_run(["verify", "factorization", "--seed", str(seed), "--json"],
                        OPENBLAS_NUM_THREADS=blas) for blas in ("1", "2")}
    assert len(outputs) == 1


# the paraboloid suite's JSON at each seed the benchmark's verify-all draws,
# as the cap quadrature writes it
PARABOLOID_DIGESTS = {
    39: "3a9c342b88aa09e427881b8ccb6cfff08b6e91b222c49202009564de585699a1",
    55: "96cb56f61fa6d4fee342fc4b4f6da9ed17b75d02a207cca71483844dc6af61a6",
    109: "352cf7e8d8caec71c765b4c0fc217fea30b5db319b422c00b3bdc8cf3d7e5038",
    129: "c208134c862794f76c08a9a2885d26bf53897a223cc84d784cc5a2d44be47882",
    133: "62f0238daf1a0b7ca81ef8e3a93d1693726bac9dbfccba53ca493fcbb7fd42b5",
    191: "3c7a4c297d97f1036890c246282f740b417e4d3bb72fff50680750963b11644b",
    268: "a1f7838926d9b0bf1f39a730fde1d4792ff9d63368d365d62e7be21c09f2a73d",
}


@pytest.mark.parametrize("seed", sorted(PARABOLOID_DIGESTS))
def test_verify_paraboloid_json_is_pinned(seed):
    # every quadrature gap to three digits, with one or two BLAS threads
    digests = {hashlib.sha256(_cli_run(["verify", "paraboloid", "--seed", str(seed), "--json"],
                                       OPENBLAS_NUM_THREADS=blas)).hexdigest()
               for blas in ("1", "2")}
    assert digests == {PARABOLOID_DIGESTS[seed]}


NO_MASKED_ARRAYS = """
import contextlib, io, math, sys
from covario import asymptotics, covariogram, geometry
from covario.cli import main
cw3 = geometry.SupportBody(1.0, ((0.0, 0.0), (0.0, 0.0), (0.05, 0.0)))
config = asymptotics.DeterminationConfig(n_dirs=4, extent_dirs=32, t_order=16, s_order=8,
                                         max_regions_checked=1)
asymptotics.determination_experiment(
    covariogram.covariogram_evaluator(cw3, n=256),
    covariogram.covariogram_evaluator(geometry.reflect(cw3), n=256),
    u_grid=[geometry.Direction(math.pi * j / 2) for j in range(4)], config=config)
loaded = ["numpy.ma" in sys.modules, "numpy.polynomial" in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["verify", "all", "--seed", "39"]) == 0
loaded += ["numpy.ma" in sys.modules, "numpy.polynomial" in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["flt", "--body", sys.argv[1], "--u", "0.3", "--out", sys.argv[2]]) == 0
print(loaded + ["numpy.polynomial" in sys.modules])
"""


def test_solves_do_not_import_numpy_ma(tmp_path, square_file):
    # np.unique imports numpy.ma, about 6 ms on its first call in a process;
    # neither the determination experiment nor verify all may call it.  Nor
    # may they, or a polygon's flt, import numpy.polynomial: _quadrature
    # builds the Gauss-Legendre tables itself
    run = subprocess.run([sys.executable, "-c", NO_MASKED_ARRAYS,
                          str(square_file), str(tmp_path / "flt.csv")],
                         capture_output=True, env=_child_env(), check=True)
    assert run.stderr == b"" and run.stdout == b"[False, False, False, False, False]\n"


# the text-mode stdout of each command, the --out path shown as <out>
TEXT_OUTPUTS = [
    (["body-validate", "--body", "cw3"],
     "command: body-validate\nkind: support2d\narea: 3.1101767270538954\n"
     "hash: ee212029abb0578d\nvalid: True\n"),
    (["covariogram", "--body", "cw3", "--grid", "21x21"],
     "command: covariogram\nout: <out>\nmethod: exact-strip\n"
     "center_value: 3.1101767270538954\narea: 3.1101767270538954\n"),
    (["crosscov", "--body", "h", "--body2", "k"],
     "command: crosscov\nout: <out>\nmethod: exact-clip\nmax_value: 0.8356250000000001\n"),
    (["radon", "--body", "cw3", "--u", "0.3"],
     "command: radon\nout: <out>\ndomain: [-0.9689195015864667, 1.0310804984135333]\n"
     "method: support-rootfind\n"),
    (["flt", "--body", "cw3", "--u", "0.7", "--xi-max", "60"],
     "command: flt\nout: <out>\nvalue_at_zero: 3.110176727053896\nnodes: 169\n"),
    (["zeros", "--body", "cw3", "--u", "0.4", "--m", "1..40"],
     "command: zeros\nout: <out>\nn_branches: 40\nnodes: 294\n"),
    (["kobayashi", "--body", "cw3", "--m", "2..40", "--u-grid", "12"],
     "decay_exponent: -0.953881824642201\nflags: []\n"),
    (["recover-curvature", "--body", "cw3", "--u-grid", "24"],
     "command: recover-curvature\nout: <out>\nn_directions: 24\n"),
]


@pytest.mark.parametrize("argv, text", TEXT_OUTPUTS, ids=[argv[0] for argv, _ in TEXT_OUTPUTS])
def test_text_output_is_pinned(tmp_path, argv, text):
    args = [write_body(tmp_path, f"{a}.json", BODIES[a]) if a in BODIES else a for a in argv]
    out = tmp_path / "out"
    if args[0] != "body-validate":
        args += ["--out", str(out)]
    stdout = _cli_run(args, OPENBLAS_NUM_THREADS="1").decode()
    assert stdout.replace(str(out), "<out>") == text


@pytest.mark.parametrize("body, digest", [
    ("cw3", "4cf861f20f617522e4c145580e28cfbb1486c00d0180496b42d56af0b16cdb69"),
    ("square", "b6019cd6e4aea5fcbb6e289e9c6d2e6c48bcbf23bf5e6d0c2d72441ed217aab2"),
    ("disk", "2ddfef879c5378ed398bb8f8c72e6c47c2cbcad9cbdc468cc05ddaf1a59ebab2"),
])
def test_radon_csv_is_pinned(tmp_path, body, digest):
    # the chord table of a smooth body, a polygon and a disk's closed form
    path = write_body(tmp_path, f"{body}.json", BODIES[body])
    out = _cli_output(["radon", "--body", path, "--u", "0.3"], tmp_path,
                      OPENBLAS_NUM_THREADS="1")[1]
    assert hashlib.sha256(out).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["covariogram", "--grid", "5x5"],
    ["crosscov", "--body2", "{body}", "--grid", "5x5"],
    ["radon", "--u", "0.3"],
    ["flt", "--u", "0.3", "--num", "8"],
    ["zeros", "--u", "0.3", "--m", "1..2"],
    ["kobayashi", "--m", "2..3", "--u-grid", "2"],
    ["recover-curvature", "--u-grid", "2"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_is_usage_error(tmp_path, disk_file, argv, where, capsys):
    # each exited 1 with a FileNotFoundError or IsADirectoryError traceback
    out = tmp_path / "missing" / "out.csv" if where == "missing-directory" else tmp_path
    args = [a.format(body=disk_file) for a in argv]
    args[1:1] = ["--body", disk_file, "--out", str(out)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: cannot write {out}: ")
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("pair, grid, digest", [
    ("parallelograms", "41x41", "84cccb4bad2256816417a5be4c3be3a70a6a2f06c3544e8bc2beeead5edbda39"),
    ("cw3-disk", "21x21", "c86e4366eaaf448985903bf0fed0829fd028fcb2f5e7ce5251a8dda61523ab6e"),
], ids=["parallelograms", "cw3-disk"])
def test_crosscov_csv_is_pinned(tmp_path, cw3_file, pair, grid, digest):
    # the cross-covariogram grid, byte for byte, of two polygons and of a
    # smooth body against a disk (their inscribed 4096-gons)
    if pair == "parallelograms":
        bodies = [write_body(tmp_path, f"{name}.json", BODIES[name]) for name in "hk"]
    else:
        bodies = [cw3_file, write_body(tmp_path, "disk.json",
                                       {"kind": "disk", "center": [0.1, 0], "radius": 0.9})]
    out = _cli_output(["crosscov", "--body", bodies[0], "--body2", bodies[1], "--grid", grid],
                      tmp_path)[1]
    assert hashlib.sha256(out).hexdigest() == digest


# the (CSV, .meta.json) digests of three grid commands
GRID_DIGESTS = {
    ("covariogram", "square", "41x41"): (
        "ad9d24467644b9b1f9ecd9ada89241cf173610fb756163477b5118169edf453d",
        "c32a1f9944f6989918262a62e07d81888e02a5f9ec0e24755c52df08ef03049c"),
    ("covariogram", "cw3", "41x41"): (
        "9e1eebfc19104b99c2be2ef8b2ad5ef1ca0d4d56643d05d08da3a61599c08d23",
        "32267a3363c29e8834e8a77639df6cb20f336754b9f47ae2759aeb8d2f401b33"),
    ("crosscov", "square", "21x21"): (
        "c3a65e32c4b13d4a81aecfdb71144d1c61e9a9b142e0eb5f09cb2d4c28f9edc6",
        "d30f6bdb3df1043717a4922112369e029fe54a377fe3f7ec269d661ab76090cc"),
}


@pytest.mark.parametrize("command, body, grid", sorted(GRID_DIGESTS))
def test_grid_artifacts_are_pinned(tmp_path, command, body, grid):
    # the grid CSV and its sidecar, byte for byte; crosscov samples the
    # square against the unit disk
    args = [command, "--body", write_body(tmp_path, f"{body}.json", BODIES[body]), "--grid", grid]
    if command == "crosscov":
        args += ["--body2", write_body(tmp_path, "disk.json", BODIES["disk"])]
    csv = _cli_output(args, tmp_path)[1]
    meta = (tmp_path / "out.meta.json").read_bytes()
    assert (hashlib.sha256(csv).hexdigest(),
            hashlib.sha256(meta).hexdigest()) == GRID_DIGESTS[command, body, grid]


def test_verify_exit_codes(capsys):
    assert main(["verify", "matrix-identities", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["schema_version"] == 1 and rep["passed"]


@pytest.mark.parametrize("suite", ["matrix-identities", "paraboloid", "factorization",
                                   "kobayashi-disk", "properties"])
def test_verify_family_outside_counterexample_is_usage_error(suite, capsys):
    # each ran its suite and exited 0, ignoring --family
    assert main(["verify", suite, "--family", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: --family ")
    assert len(captured.err.strip().splitlines()) == 1


# pinned `checks` of three verify runs: the oracles' draws and per-element
# arithmetic fix them to the last digit, so a reordering of either shows here;
# the disk suite's rows read the same for any BLAS thread count
GOLDEN_CHECKS = {
    ("kobayashi-disk",): [
        ("kobayashi-disk-zeros", True, "max |zeta - j_1m| = 2.24e-13 over m=1..20"),
        ("kobayashi-disk-decay", True, "decay slope -0.973"),
        ("kobayashi-disk-m1", True, "m=1 deviation 0.0953 vs 0.0953"),
    ],
    ("matrix-identities", "--seed", "39"): [
        ("matrix-identities", True, "max relative deviation 5.429e-15"),
    ],
    ("paraboloid", "--seed", "39"): [
        ("paraboloid-reference", True, "volume 1.333333333333337 vs 4/3, relative gap 3.00e-15"),
        ("paraboloid-rejects-statement-constant", True,
         "relative gap 0.646 from the 2^((n+1)/2)-inflated value"),
        ("paraboloid-random-instances", True, "10 draws, worst relative gap 8.73e-15"),
    ],
}


@pytest.mark.parametrize("argv", list(GOLDEN_CHECKS), ids=" ".join)
def test_verify_golden_rows(argv, capsys):
    assert main(["verify", *argv, "--json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [(c["name"], c["passed"], c["detail"]) for c in checks] == GOLDEN_CHECKS[argv]


@pytest.mark.parametrize("suite", ["paraboloid", "all"])
@pytest.mark.parametrize("seed", ["9", "13", "27", "32"])
def test_verify_passes_at_former_chance_failure_seeds(suite, seed, capsys):
    # each of these seeds had a Monte Carlo row beyond |z| = 3
    assert main(["verify", suite, "--seed", seed, "--json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert len(checks) == (3 if suite == "paraboloid" else 18)
    assert all(c["passed"] for c in checks)


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "covario.cli", "verify",
                           "matrix-identities"], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def _csv_columns(path):
    """The columns of a CSV written by the CLI, as float arrays by header name."""
    header, *rows = path.read_text().splitlines()
    values = np.array([[float(v) for v in row.split(",")] for row in rows])
    return dict(zip(header.split(","), values.T))


def test_zeros_of_the_disk_are_the_bessel_zeros(tmp_path, disk_file):
    # the branch table of the unit disk against the zeros j_1m of J1
    out = tmp_path / "zeros.csv"
    assert main(["zeros", "--body", disk_file, "--u", "0", "--m", "1..20", "--out", str(out)]) == 0
    cols = _csv_columns(out)
    assert cols["m"].tolist() == list(range(1, 21))
    zeta = cols["re_zeta"] + 1j * cols["im_zeta"]
    bessel = np.array([oracles.bessel_j1_zero(m) for m in range(1, 21)])
    assert np.abs(zeta - bessel).max() <= cli.DISK_ZERO_TOL


def test_crosscov_of_the_family_1_and_2_pairs_agree(tmp_path, capsys):
    # the two parallelogram pairs are not trivial associates, yet their
    # cross-covariogram grids share the lattice and agree to rounding
    params = dict(alpha=1.0, beta=0.8, gamma=1.2, delta=0.9)
    grids = []
    for family in (1, 2):
        h, k = (write_body(tmp_path, f"{name}{family}.json", geometry.body_to_spec(body))
                for name, body in zip("hk", geometry.example_pair(family, **params)))
        out = tmp_path / f"family{family}.csv"
        assert main(["crosscov", "--body", h, "--body2", k, "--out", str(out)]) == 0
        grids.append(_csv_columns(out))
    first, second = grids
    assert first["x"].size == 41 * 41
    for axis in ("x", "y"):
        assert np.abs(first[axis] - second[axis]).max() <= 1e-12
    assert np.abs(first["value"] - second["value"]).max() <= COUNTEREXAMPLE_TOL
