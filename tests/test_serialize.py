"""JSON round-trips and the command-line surface."""

import json
import os
import subprocess
import sys

import pytest

from conformal import cli, verify
from conformal import serialize as ser
from conformal.classify import enumerate_classes, representative_geometry
from conformal.fields import CharTwo, PrimeField, Rational
from conformal.metric import find_nonideal_line, line_points, \
    translation_between
from conformal.quadform import InvalidInputError, QuadraticForm

F3, F5 = PrimeField(3), PrimeField(5)


def test_form_round_trip():
    q = QuadraticForm(F5, 4, {(0, 0): 1, (1, 3): 2, (2, 2): 4})
    blob = ser.form_to_json(q)
    assert ser.form_from_json(F5, blob) == q
    # diagonal shorthand
    assert ser.form_from_json(F5, [1, 2, 3]) == \
        QuadraticForm.diagonal(F5, [1, 2, 3])
    rational = Rational()
    from fractions import Fraction
    qq = QuadraticForm.diagonal(rational, [Fraction(1, 2), -2])
    assert ser.form_from_json(rational, ser.form_to_json(qq)) == qq


@pytest.mark.parametrize("dim", [True, 2.0, "2", None],
                         ids=["bool", "float", "str", "null"])
def test_form_dimension_must_be_an_integer(dim):
    with pytest.raises(InvalidInputError):
        ser.form_from_json(F5, {"dim": dim, "coeffs": [[0, 0, 1]]})


def test_f4_scalar_round_trip():
    f4 = CharTwo(4)
    q = QuadraticForm(f4, 2, {(0, 0): 2, (0, 1): 1, (1, 1): 3})
    assert ser.form_from_json(f4, ser.form_to_json(q)) == q


def test_geometry_round_trip():
    for cls in enumerate_classes(F5, 2)[:4]:
        g = representative_geometry(cls)
        blob = json.loads(json.dumps(ser.geometry_to_json(g)))
        g2 = ser.geometry_from_json(blob)
        assert g2.form == g.form
        assert g2.p_rep == g.p_rep and g2.l_rep == g.l_rep


def test_motion_serialization():
    g = representative_geometry(enumerate_classes(F5, 2)[0])
    l = find_nonideal_line(g)
    _, pts = line_points(g, l)
    motion = translation_between(g, l, pts[0], pts[1])
    blob = ser.motion_to_json(motion)
    assert set(blob) == {"class", "normal_form", "matrix"}
    assert len(blob["matrix"]) == 3


def _cli(*argv):
    return subprocess.run([sys.executable, "-m", "conformal.cli", *argv],
                          capture_output=True, text=True)


def test_cli_deterministic_output():
    a = _cli("classify", "atlas", "--field", "fp:5", "--dim", "2",
             "--out", "json", "--seed", "7")
    b = _cli("classify", "atlas", "--field", "fp:5", "--dim", "2",
             "--out", "json", "--seed", "7")
    assert a.returncode == 0 and a.stdout == b.stdout
    rows = json.loads(a.stdout)
    assert len(rows) == 9
    names = {r["name"] for r in rows}
    assert "elliptic" in names and "Minkowski" in names


def test_cli_table_and_incident(tmp_path):
    r = _cli("classify", "table", "--field", "rational")
    assert r.returncode == 0 and "Laguerre/Galilei" in r.stdout
    g = representative_geometry(
        next(c for c in enumerate_classes(F3, 2) if c.name == "elliptic"))
    path = tmp_path / "g.json"
    path.write_text(json.dumps(ser.geometry_to_json(g)))
    from conformal.geometry import lie_quadric_points
    pts = lie_quadric_points(g)
    point = next(p for p in pts
                 if g.form.b_full(g.p_rep, p.coords).is_zero())
    polar = next(l for l in pts
                 if g.form.b_full(g.l_rep, l.coords).is_zero()
                 and g.form.b_full(l.coords, point.coords).is_zero())
    fmt = lambda v: ",".join(str(x.value) for x in v)
    r = _cli("geom", "incident", "--geom", str(path),
             "--c1", fmt(point.coords), "--c2", fmt(polar.coords))
    assert r.returncode == 0
    assert r.stdout.strip() == "incident: true"


def test_cli_exit_codes(tmp_path):
    assert _cli("classify", "atlas", "--field", "fp:9",
                "--dim", "2").returncode == 3
    assert _cli("classify", "atlas", "--field", "f2",
                "--dim", "2").returncode == 3
    assert _cli("--bogus-flag").returncode == 64
    assert _cli("classify", "bogus").returncode == 64
    g = representative_geometry(
        next(c for c in enumerate_classes(F3, 2) if c.name == "elliptic"))
    blob = ser.geometry_to_json(g)
    blob["L"] = blob["P"]  # anisotropic P: B(P, P) != 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    r = _cli("geom", "describe", "--geom", str(bad))
    assert r.returncode == 2
    assert "orthogonal" in r.stderr


def test_cli_verify_single_suite():
    r = _cli("verify", "--suite", "separations")
    assert r.returncode == 0
    assert r.stdout.startswith("[pass] separations")


def test_cli_verify_orbit_atlas_over_the_cap():
    r = _cli("verify", "--suite", "orbit-atlas", "--field", "fp:11")
    _assert_clean_exit(r, 3, "unsupported: field size 11 exceeds the cap 7")
    assert r.stdout == "" and r.stderr.count("\n") == 1


def test_cli_verify_json(capsys):
    assert cli.main(["verify", "--suite", "separations", "--verbose"]) == 0
    text = capsys.readouterr().out
    assert cli.main(["verify", "--suite", "separations", "--out", "json"]) == 0
    out = capsys.readouterr().out
    records = json.loads(out)
    assert [sorted(r) for r in records] == [
        ["counterexample", "details", "passed", "suite"]]
    rec = records[0]
    assert rec["suite"] == "separations" and rec["passed"] is True
    assert rec["counterexample"] is None
    assert ["    " + d for d in rec["details"]] == text.splitlines()[1:]
    assert out == json.dumps(records, indent=2, sort_keys=True) + "\n"
    # an option given before the command counts too
    assert cli.main(["--out", "json", "verify", "--suite", "separations"]) == 0
    assert capsys.readouterr().out == out


def test_cli_verify_json_failing_report(capsys, monkeypatch):
    def failing(**_):
        return verify.Report("separations", False, ["checked 1"], "x != y")

    monkeypatch.setitem(verify.SUITES, "separations", failing)
    assert cli.main(["verify", "--suite", "separations",
                     "--out", "json"]) == cli.PRECONDITION_EXIT
    assert json.loads(capsys.readouterr().out) == [
        {"suite": "separations", "passed": False, "details": ["checked 1"],
         "counterexample": "x != y"}]


def _geometry_file(tmp_path, name, edit):
    blob = ser.geometry_to_json(representative_geometry(
        next(c for c in enumerate_classes(F3, 2) if c.name == "elliptic")))
    text = edit(blob)
    path = tmp_path / name
    path.write_text(text if isinstance(text, str) else json.dumps(text))
    return str(path)


def _without_l(blob):
    del blob["L"]
    return blob


def _scalar_p(blob):
    blob["P"] = 5
    return blob


def _bad_coefficient(blob):
    blob["form"]["coeffs"][0][2] = "x"
    return blob


def _repeated_coefficient(blob):
    blob["form"]["coeffs"].append(list(blob["form"]["coeffs"][0]))
    return blob


def _boolean_slot(blob):
    blob["form"]["coeffs"].append([True, True, 1])
    return blob


def _assert_clean_exit(r, code, prefix):
    assert r.returncode == code, r.stderr
    assert "Traceback" not in r.stderr
    assert r.stderr.splitlines()[-1].startswith(prefix)


@pytest.mark.parametrize("edit", [
    lambda blob: json.dumps(blob)[:-3],  # truncated: malformed JSON
    _without_l, _scalar_p, _bad_coefficient, _repeated_coefficient,
    _boolean_slot,
], ids=["malformed-json", "no-L", "scalar-P", "bad-coefficient",
        "repeated-coefficient", "boolean-slot"])
def test_cli_bad_geometry_file_is_a_precondition(tmp_path, edit):
    path = _geometry_file(tmp_path, "g.json", edit)
    for command in ("describe", "points"):
        r = _cli("geom", command, "--geom", path)
        _assert_clean_exit(r, 2, "precondition violated: ")
        assert len(r.stderr.splitlines()) == 1


@pytest.mark.parametrize("spec", ['{"field": "fp:5",', '[1, 2]',
                                  '{"field": "fp:5", "qP": "x", "qL": "1"}'])
def test_cli_bad_class_spec_is_a_precondition(spec):
    r = _cli("classify", "partners", "--class", spec)
    _assert_clean_exit(r, 2, "precondition violated: ")
    assert len(r.stderr.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("separation", "--model", "elliptic", "--d", "nan"),
    ("separation", "--model", "hyperbolic", "--d", "inf"),
    ("separation", "--model", "parabolic", "--theta=-nan"),
    ("lift", "--model", "elliptic", "--point", "1,nan,0"),
])
def test_cli_non_finite_floats_are_usage_errors(argv):
    r = _cli("examples", *argv)
    _assert_clean_exit(r, 64, "error: argument ")
    assert r.stdout == ""


@pytest.mark.parametrize("argv", [
    ("geom", "incident", "--c1", "1,0", "--c2", "0,0,1,1,0"),
    ("geom", "incident", "--c1", "0,0,1,1,0,7", "--c2", "0,0,1,1,0"),
    ("metric", "distance", "--line", "1,0,0,0,1", "--p1", "0,1",
     "--p2", "0,1,2,4,0"),
    ("metric", "distance", "--line", "1,0,0,0,1,0", "--p1", "0,1,0,1,0",
     "--p2", "0,1,2,4,0"),
], ids=["short-cycle", "long-cycle", "short-point", "long-line"])
def test_cli_wrong_length_vector_is_a_precondition(argv):
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")
    name = "fp5_elliptic.json" if argv[0] == "geom" else "fp11_unit.json"
    r = _cli(*argv[:2], "--geom", os.path.join(golden, name), *argv[2:])
    _assert_clean_exit(r, 2, "precondition violated: ")
    assert "coordinates" in r.stderr


@pytest.mark.parametrize("model,want", [
    ("elliptic", 3), ("hyperbolic", 3), ("parabolic", 2), ("minkowski", 2),
    ("de-sitter", 3), ("anti-de-sitter", 3)])
def test_cli_model_point_of_the_wrong_length_is_a_precondition(model, want):
    r = _cli("examples", "lift", "--model", model, "--point", "1")
    _assert_clean_exit(r, 2, "precondition violated: ")
    assert len(r.stderr.splitlines()) == 1
    assert f"{model} base vectors need {want} coordinates; got 1" in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("point", ["1,0,0", "1"])
def test_cli_laguerre_point_needs_two_coordinates(point):
    r = _cli("examples", "lift", "--model", "laguerre", "--point", point)
    _assert_clean_exit(r, 2, "precondition violated: ")
    assert len(r.stderr.splitlines()) == 1
    assert r.stdout == ""


def test_cli_max_q_is_a_geom_points_option():
    r = _cli("classify", "atlas", "--field", "fp:5", "--dim", "2",
             "--max-q", "3")
    _assert_clean_exit(r, 64, "error: unrecognized arguments: --max-q 3")
    assert len(r.stderr.splitlines()) == 1
    assert r.stdout == ""


@pytest.mark.parametrize("argv", [
    ("verify",),
    ("verify", "--all", "--suite", "polarization"),
    ("examples", "lift", "--model", "elliptic"),
    ("examples", "lift", "--model", "elliptic", "--point", "1,0,0",
     "--cycle", "1,0,0"),
], ids=["verify-none", "verify-both", "lift-none", "lift-two"])
def test_cli_needs_exactly_one_target_option(argv):
    r = _cli(*argv)
    _assert_clean_exit(r, 64, "error: ")
    assert len(r.stderr.splitlines()) == 1
    assert r.stdout == ""
