"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (run pytest with -s to see
them); tolerances are pinned here and nowhere else:

 1. classification counts per field, exact, under 1 s
 2. the 3x3 plane-geometry table over the reals and F_5, exact
 3. exhaustive (P, L) orbit atlas over F_3 and F_5, exact, under 30 s
 4. translation-group orders q+1 / q / q-1 with index-2 full
    stabilizers for p in {3, 5, 7, 11}, exact
 5. distance additivity and isometry invariance, 100 + 100 samples per
    field in {F_3, F_5, F_7}, zero failures
 6. the classical separation closed forms, absolute error < 1e-9,
    under 1 s
 7. plane incidence theorems over F_3, exhaustive, exact
 8. projection identity and projected-norm formula over F_3, exhaustive
 9. cycle-equivalence structure over the reals and F_3/F_5 with
    explicit pointspace isometries, exact
10. the quadratic-form property suite (polarization, generalized
    orthogonal bases, Witt oracle, characteristic-2 lemmas), exact

The line and details of every verify report these tests run must equal
the ones in ``golden/verify_reports.txt``, as ``conformal verify
--verbose`` prints them.
"""

import pathlib
import time

from conformal import verify
from conformal.classify import QUADRATICALLY_CLOSED, ck_table, \
    enumerate_classes
from conformal.fields import CharTwo, PrimeField, Rational


def _golden_reports():
    """The recorded report text by suite name."""
    text = (pathlib.Path(__file__).parent / "golden" /
            "verify_reports.txt").read_text()
    blocks = ["[" + b for b in ("\n" + text).split("\n[")[1:]]
    return {b.split("\n")[0].split("] ", 1)[1]: b.rstrip("\n")
            for b in blocks}


GOLDEN_REPORTS = _golden_reports()


def _same_as_golden(report):
    text = "\n".join([report.line()] + [f"    {d}" for d in report.details])
    assert text == GOLDEN_REPORTS[report.suite], report.suite


def _report(number, title, passed, extra=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"[criterion {number:2d}] {status}: {title}{suffix}")
    assert passed, f"criterion {number}: {title}{suffix}"


def _suite(number, title, name, budget=None, **options):
    t0 = time.time()
    report = verify.run_suite(name, **options)
    elapsed = time.time() - t0
    extra = f"{elapsed:.1f}s"
    if not report.passed:
        extra += f"; {report.counterexample}"
    if budget is not None and elapsed >= budget:
        _report(number, title, False, f"over budget: {extra}")
    _report(number, title, report.passed, extra)
    _same_as_golden(report)


def test_criterion_1_classification_counts():
    t0 = time.time()
    ok = True
    ok &= [len(enumerate_classes(QUADRATICALLY_CLOSED, d))
           for d in (1, 2, 3, 4)] == [4, 4, 4, 4]
    ok &= [len(enumerate_classes(Rational(), d))
           for d in (1, 2, 3, 4)] == [4, 9, 13, 18]
    for q in (3, 5, 7):
        ok &= [len(enumerate_classes(PrimeField(q), d))
               for d in (1, 2, 3)] == [5, 9, 10]
    ok &= len(enumerate_classes(CharTwo(2), 3)) == 4
    ok &= len(enumerate_classes(CharTwo(4), 3)) == 4
    elapsed = time.time() - t0
    _report(1, "classification counts", ok and elapsed < 1.0,
            f"{elapsed:.2f}s")


def test_criterion_2_plane_table():
    expected = (("elliptic", "parabolic", "hyperbolic"),
                ("dual parabolic", "Laguerre/Galilei", "dual Minkowski"),
                ("dual hyperbolic", "Minkowski", "anti-de Sitter"))
    hr, rows_r = ck_table(Rational())
    h5, rows_5 = ck_table(PrimeField(5))
    ok = rows_r == expected and rows_5 == expected
    ok &= hr == ("-1", "0", "1") and h5 == ("e", "0", "1")
    _report(2, "3x3 table of plane geometries", ok)


def test_criterion_3_orbit_atlas():
    _suite(3, "orbit atlas: 9 classes, single orbits (F_3, F_5, both "
              "forms)", "orbit-atlas", budget=30.0)


def test_criterion_4_gamma_orders():
    _suite(4, "translation-group orders and index-2 stabilizers "
              "(p = 3, 5, 7, 11)", "gamma-orders")


def test_criterion_5_distance_additivity():
    _suite(5, "distance additivity and invariance (100 + 100 per field)",
           "distance-additivity", seed=20260810)


def test_criterion_6_closed_forms():
    import math
    from conformal.models import ModelKind, check_separation, \
        cycles_at_angle, points_at_distance
    t0 = time.time()
    worst = 0.0
    for kind in (ModelKind.ELLIPTIC, ModelKind.HYPERBOLIC,
                 ModelKind.PARABOLIC):
        for d in (0.1, 0.5, 1.0, 2.0):
            value, expected = check_separation(
                kind, *points_at_distance(kind, d))
            worst = max(worst, abs(value.value - expected))
        for theta in (0.1, 0.5, 1.0, 2.0):
            value, expected = check_separation(
                kind, *cycles_at_angle(kind, theta, 0.45, 0.35))
            worst = max(worst, abs(value.value - expected))
            worst = max(worst, abs(expected - (math.cos(theta) - 1.0)))
    elapsed = time.time() - t0
    _report(6, "classical separation closed forms within 1e-9",
            worst < 1e-9 and elapsed < 1.0,
            f"worst |err| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_7_incidence_theorems():
    _suite(7, "plane incidence theorems over F_3 (exhaustive)",
           "incidence-theorems")


def test_criterion_8_projection_identity():
    _suite(8, "projection identity and projected-norm formula (F_3, "
              "exhaustive)", "projection-identity")


def test_criterion_9_cycle_equivalence():
    _suite(9, "cycle equivalence: real pairs and finite partner "
              "certificates", "cycle-equivalence")


def test_criterion_10_quadform_property_suite():
    t0 = time.time()
    failures = []
    for name in ("polarization", "gen-ortho-basis", "witt-oracle",
                 "char2-lemmas"):
        report = verify.run_suite(name, seed=20260810)
        if not report.passed:
            failures.append(f"{name}: {report.counterexample}")
        else:
            _same_as_golden(report)
    elapsed = time.time() - t0
    _report(10, "quadratic-form property suite (zero failures)",
            not failures, "; ".join(failures) or f"{elapsed:.1f}s")
