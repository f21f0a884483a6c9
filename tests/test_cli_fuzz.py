"""In-process fuzzing of the command line.

``cli.main`` is called with argv drawn from the real subcommands, mixing
well-formed values with malformed ones: truncated or non-object geometry
JSON, bad field tokens, wrong-length vectors, nan/inf and non-numbers.
``geom`` and ``metric`` read such a geometry from stdin; ``metric`` also
runs on the intact golden files, and ``metric distance`` mixes the golden
runs' vectors with malformed ones.
Whatever the input, the run must end with a documented exit code and a
message on stderr, never with a traceback.
"""

import contextlib
import io
import json
import os
import re
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conformal import cli
from conformal import verify as ver
from conformal.models import MAX_MODEL_N

EXIT_CODES = {0, 2, 3, 64}
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GEOMETRIES = ["fp5_elliptic", "f4_d3", "fp11_unit", "fp11_zero",
              "fp11_non_residue"]
# the golden ``metric distance`` runs: geometry, then --line, --p1, --p2
DISTANCE_CASES = [("fp11_unit", "1,0,0,0,1", "0,1,0,1,0", "0,1,2,4,0"),
                  ("fp11_zero", "1,0,0,1,0", "0,0,1,0,1", "0,1,0,0,10"),
                  ("fp11_non_residue", "1,0,0,1,0", "0,0,1,0,1",
                   "0,1,0,0,1")]

FIELDS = ["rational", "fp:3", "fp:5", "fp:7", "f2", "f4", "approx"]
BAD_FIELDS = ["qclosed", "fp:4", "fp:", "fp:-3", "f8", "", "real", 5, None,
              ["fp:5"]]
MODELS = ["elliptic", "hyperbolic", "parabolic", "minkowski", "de-sitter",
          "anti-de-sitter", "laguerre", "spherical", ""]
# suites that finish well under a second at their default field, and
# fields for them: fp:11 is over the orbit atlas's enumeration cap
FAST_SUITES = ["cycle-equivalence", "orbit-atlas", "projection-identity",
               "separations"]
SUITE_FIELDS = ["fp:3", "fp:5", "fp:11"]
# fields some suite of ``verify --all`` refuses: not an odd F_p, or past
# a suite's cap (fp:11 past the orbit atlas's, fp:17 past every one).
# An accepted field, or ``--field ""`` (no field), would run every suite
# for about 12 s, so the fuzz draws ``--all`` with these alone.
REFUSED_FIELDS = ["rational", "f2", "f4", "approx", "qclosed", "fp:4", "f8",
                  "fp:11", "fp:17"]

# drawn values lean towards the edges: huge, non-finite and non-numbers
number_text = st.sampled_from(["0", "1", "-1", "2", "0.5", "3.25", "1000",
                               "-1000", "1e300", "nan", "inf", "-inf",
                               "1e309", "x", "", "1/0", "2/3", "t", "t+1"])
json_scalar = st.sampled_from([0, 1, -1, 2, 3, 10**30, 0.5, 1e300,
                               float("nan"), float("inf"), float("-inf"),
                               "t", "t+1", "2/3", "1/0", "-1", "e", "x",
                               True, None])


def _vector_text():
    return (st.lists(number_text, min_size=1, max_size=7).map(",".join)
            | st.lists(json_scalar, max_size=7).map(json.dumps)
            | st.sampled_from(["[1, 0", "[[1]]", "{}", "[]"]))


@st.composite
def _geometry_text(draw):
    """A golden geometry, perhaps with one part replaced, or a random
    object, then perhaps truncated or swapped for a non-object."""
    if draw(st.booleans()):
        with open(os.path.join(GOLDEN, draw(st.sampled_from(GEOMETRIES))
                               + ".json")) as fh:
            obj = json.load(fh)
    else:
        dim = draw(st.integers(3, 6))
        obj = {"field": draw(st.sampled_from(FIELDS)),
               "form": draw(st.lists(st.integers(-2, 2), min_size=dim,
                                     max_size=dim)),
               "P": draw(st.lists(st.integers(-2, 2), min_size=dim,
                                  max_size=dim)),
               "L": draw(st.lists(st.integers(-2, 2), min_size=dim,
                                  max_size=dim))}
    mutation = draw(st.sampled_from(["none", "key", "value", "drop"]))
    if mutation == "key":
        obj[draw(st.sampled_from(["field", "form", "P", "L"]))] = draw(
            st.sampled_from(BAD_FIELDS) | json_scalar
            | st.lists(json_scalar, max_size=7)
            | st.fixed_dictionaries({"dim": json_scalar,
                                     "coeffs": st.lists(st.lists(
                                         json_scalar, max_size=4),
                                         max_size=3)}))
    elif mutation == "value":
        vec = draw(st.sampled_from(["P", "L"]))
        if isinstance(obj[vec], list) and obj[vec]:
            i = draw(st.integers(0, len(obj[vec]) - 1))
            obj[vec][i] = draw(json_scalar)
    elif mutation == "drop":
        del obj[draw(st.sampled_from(sorted(obj)))]
    text = json.dumps(obj)
    shape = draw(st.sampled_from(["object", "truncated", "other"]))
    if shape == "truncated":
        return text[:draw(st.integers(0, len(text) - 1))]
    if shape == "other":
        return json.dumps(draw(json_scalar | st.lists(json_scalar)))
    return text


def _geom_argv(draw):
    command = draw(st.sampled_from(["describe", "points", "incident"]))
    argv = ["geom", command, "--geom", "-"]
    if command == "points":
        argv += ["--max-q", draw(st.sampled_from(["7", "4", "0", "-1",
                                                  "x", "13"]))]
    elif command == "incident":
        argv += ["--c1", draw(_vector_text()), "--c2", draw(_vector_text())]
    return argv


def _metric_argv(draw):
    """An intact golden geometry file, or the fuzzed geometry on stdin;
    distance vectors are the golden run's or malformed ones."""
    command = draw(st.sampled_from(["gamma", "distance"]))
    if command == "gamma":
        name, vectors = draw(st.sampled_from(GEOMETRIES)), ()
    else:
        name, *vectors = draw(st.sampled_from(DISTANCE_CASES))
    geom = (os.path.join(GOLDEN, name + ".json") if draw(st.booleans())
            else "-")
    argv = ["metric", command, "--geom", geom]
    for opt, text in zip(("--line", "--p1", "--p2"), vectors):
        argv += [opt, text if draw(st.booleans()) else draw(_vector_text())]
    return argv


def _classify_argv(draw):
    command = draw(st.sampled_from(["atlas", "table", "partners"]))
    token = draw(st.sampled_from(FIELDS + BAD_FIELDS[:7]))
    if command == "partners":
        spec = {"field": token,
                "dim": draw(json_scalar | st.sampled_from([2, 3, "2", 2.5])),
                "qP": draw(st.sampled_from(["0", "1", "e", "-1", "2"])),
                "qL": draw(st.sampled_from(["0", "1", "e", "-1", 1]))}
        text = json.dumps(draw(st.just(spec) | json_scalar
                               | st.lists(json_scalar)))
        if draw(st.booleans()):
            text = text[:draw(st.integers(0, len(text)))]
        return ["classify", "partners", "--class", text]
    argv = ["classify", command, "--field", token]
    if command == "atlas":
        argv += ["--dim", draw(st.sampled_from(["1", "2", "3", "0", "-1",
                                                "x", "2.5"]))]
    return argv


def _examples_argv(draw):
    model = draw(st.sampled_from(MODELS))
    if draw(st.booleans()):
        argv = ["examples", "lift", "--model", model,
                "--" + draw(st.sampled_from(["point", "cycle", "line"])),
                draw(_vector_text())]
        for opt in ("--radius", "--offset", "--n"):
            if draw(st.booleans()):
                argv += [opt, draw(number_text)]
        return argv
    argv = ["examples", "separation", "--model", model]
    for opt in ("--d", "--theta", "--r1", "--r2"):
        if draw(st.booleans()):
            argv += [opt, draw(number_text)]
    return argv


def _verify_argv(draw):
    if draw(st.integers(0, 3)) == 0:
        argv = ["verify", "--all", "--field",
                draw(st.sampled_from(REFUSED_FIELDS))]
    else:
        argv = ["verify", "--suite",
                draw(st.sampled_from(FAST_SUITES + ["no-such-suite", ""]))]
        if draw(st.booleans()):
            argv += ["--field", draw(st.sampled_from(SUITE_FIELDS
                                                     + BAD_FIELDS[:7]))]
    if draw(st.booleans()):
        argv += ["--seed", draw(st.sampled_from(["0", "7", "-1", "x"]))]
    return argv


@st.composite
def invocations(draw):
    """(argv, stdin text) for one run of the command line."""
    group = draw(st.sampled_from(["geom", "metric", "classify", "examples",
                                  "verify"]))
    build = {"geom": _geom_argv, "metric": _metric_argv,
             "classify": _classify_argv, "examples": _examples_argv,
             "verify": _verify_argv}[group]
    argv = build(draw)
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--out", "--bogus", "extra"])))
    stdin = draw(_geometry_text()) if group in ("geom", "metric") else ""
    return argv, stdin


def _run(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(sys, "stdin", io.StringIO(stdin)):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(invocations())
# both once ended in an OverflowError traceback
@example((["examples", "separation", "--model", "hyperbolic", "--d", "1000"],
          ""))
@example((["classify", "partners", "--class",
           '{"field": "fp:5", "dim": Infinity, "qP": "1", "qL": "1"}'], ""))
def test_cli_ends_with_an_exit_code_not_a_traceback(case):
    argv, stdin = case
    code, out, err = _run(argv, stdin)
    assert code in EXIT_CODES, (code, err)
    assert "Traceback" not in err
    if code != 0:
        assert err.endswith("\n") and err.count("\n") == 1, err
    if argv[:2] == ["verify", "--all"] and code != 64:
        assert (code, out) == (3, ""), err  # refused before any suite


NOT_ORTHOGONAL = json.dumps({"field": "fp:5", "form": [1, 1, 1, 1, 1],
                             "P": [1, 0, 0, 0, 0], "L": [1, 1, 0, 0, 0]})
# one process, one parser: successes, an option before the command, a
# usage error, violated preconditions and an unsupported field, mixed
PARSER_REUSE_RUNS = [
    (["--out", "json", "classify", "table", "--field", "rational"], "", 0),
    (["classify", "atlas", "--field", "fp:5"], "", 64),
    (["geom", "describe", "--geom", "-"], NOT_ORTHOGONAL, 2),
    (["geom", "incident", "--geom", os.path.join(GOLDEN, "fp5_elliptic.json"),
      "--c1", "0,0,0,0,0", "--c2", "0,1,2,0,0"], "", 2),  # no cycle
    (["classify", "atlas", "--field", "rational", "--dim", "2"], "", 0),
    (["classify", "table", "--field", "f4"], "", 3),
    (["--seed", "3", "classify", "partners", "--class",
      '{"field": "rational", "dim": 2, "qP": "1", "qL": "-1"}'], "", 0),
    (["examples", "separation", "--model", "elliptic", "--d=0.5"], "", 0),
    (["classify", "table", "--field", "rational"], "", 0),
]


def test_main_reuses_one_parser_with_fresh_answers():
    """main() builds its parser once per process; every run of a mixed
    sequence prints what it prints on a freshly built parser."""
    assert cli._parser() is cli._parser()
    reused = [_run(argv, stdin) for argv, stdin, _ in PARSER_REUSE_RUNS]
    with mock.patch.object(cli, "_parser", cli.build_parser):
        fresh = [_run(argv, stdin) for argv, stdin, _ in PARSER_REUSE_RUNS]
    assert reused == fresh
    assert [r[0] for r in reused] == [c for _, _, c in PARSER_REUSE_RUNS]
    for code, out, err in reused:
        assert (err == "") == (code == 0)
        assert err.count("\n") <= 1 and (code == 0) == (out != "")
    # the option given before the command does not outlive its run
    assert reused[0][1] != reused[-1][1]
    assert json.loads(reused[0][1])["headers"] == ["-1", "0", "1"]


@pytest.mark.parametrize("field", ["fp:17", "fp:101", "rational", "f2", "f4",
                                   "approx"])
@pytest.mark.parametrize("suite", ["orbit-atlas", "gamma-orders",
                                   "distance-additivity"])
def test_verify_field_past_the_suite_cap_is_unsupported(suite, field):
    """A field-taking suite refuses an F_p past its cap, and a field that
    is not an odd F_p instead of running its default primes, before any
    work: exit 3, one stderr line, nothing on stdout."""
    code, out, err = _run(["verify", "--suite", suite, "--field", field], "")
    assert code == 3 and out == ""
    reason = (r"field size \d+ exceeds the cap \d+" if field.startswith("fp:")
              else f"{field} is not an odd prime field")
    assert re.fullmatch(f"unsupported: {reason}\n", err), err


NO_FIELD_SUITES = sorted(set(ver.SUITES) - set(ver.FIELD_SUITES))


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "witt-oracle", "--field", "fp:11", "--verbose"],
    ["verify", "--suite", "incidence-theorems", "--field", "approx"]]
    + [["verify", "--suite", suite, "--field", "fp:3"]
       for suite in NO_FIELD_SUITES], ids=" ".join)
def test_verify_suite_that_takes_no_field_refuses_one(argv):
    """A suite that takes no field refuses ``--field`` instead of
    ignoring it: exit 3, one stderr line, nothing on stdout."""
    code, out, err = _run(argv, "")
    assert (code, out) == (3, "")
    assert err == f"unsupported: suite {argv[2]} takes no field\n", err


def test_verify_all_with_a_field_that_is_not_an_odd_prime_is_unsupported():
    """``--all`` refuses a field that a field-taking suite refuses, or an
    F_p past one suite's cap, before any suite runs: exit 3, one stderr
    line and nothing on stdout."""
    reasons = {"rational": "rational is not an odd prime field",
               "fp:11": "field size 11 exceeds the cap 7"}
    for field in REFUSED_FIELDS:
        code, out, err = _run(["verify", "--all", "--field", field], "")
        assert (code, out) == (3, "")
        assert err.startswith("unsupported: ") and err.count("\n") == 1, err
        if field in reasons:
            assert err == f"unsupported: {reasons[field]}\n", err


def _strict_json(text):
    """The JSON value of text, refusing NaN and the infinities, which
    RFC 8259 does not allow."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=refuse)


def test_a_lift_that_overflows_is_refused_not_printed():
    """At d = 1e200 the parabolic point lift holds -|c|^2 = -inf: the run
    ends with exit 2 and one stderr line instead of printing NaN and
    -Infinity with exit 0.  An elliptic lift at d = 1e300 stays finite
    and prints standard JSON."""
    code, out, err = _run(["examples", "separation", "--model", "parabolic",
                           "--d", "1e200"], "")
    assert (code, out) == (2, ""), (code, out)
    assert err.startswith("precondition violated: ") and "not finite" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    code, out, err = _run(["examples", "separation", "--model", "elliptic",
                           "--d", "1e300"], "")
    assert (code, err) == (0, "")
    assert set(_strict_json(out)) == {"closed_form", "computed",
                                      "difference", "model"}


def test_a_huge_dimension_is_refused_before_anything_is_built():
    """n is checked against ``models.MAX_MODEL_N`` before the base
    metric is built, so n = 10**18 is one precondition line, not a
    MemoryError traceback."""
    n = 10 ** 18
    code, out, err = _run(["examples", "lift", "--model", "elliptic",
                           "--point", "1,0,0", "--n", str(n)], "")
    assert (code, out) == (2, "")
    assert err == ("precondition violated: models need n <= "
                   f"{MAX_MODEL_N}; got {n}\n")
