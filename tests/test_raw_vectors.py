"""Differential tests of the paths that run on raw tuples instead of
vectors of Scalars: ``diagonalize``, ``build_chart``,
``is_nondegenerate_form``, the subcycle constructions
(``span_subcycle``, ``intersect_hyperplanes``, ``quasi_ideal``) and
``hyperplane_through``.  Each is checked against the Scalar path it
replaced, kept in ``reference.py`` as a ``ref_*`` oracle: bit for bit
over ApproxReal, with the same errors where it raises.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conformal import linalg, verify
from conformal.classify import enumerate_classes, representative_geometry
from conformal.fields import (ApproxReal, CharTwo, PrimeField, Rational,
                              UnsupportedFieldError)
from conformal.geometry import (Role, hyperplane_through,
                                intersect_hyperplanes, lie_quadric_points,
                                quasi_ideal, role, span_subcycle)
from conformal.metric import build_chart, line_space
from conformal.models import (ModelKind, exact_model_geometry, lift_line,
                              lift_point, model_geometry)
from conformal.quadform import (QuadraticForm, diagonalize,
                                is_nondegenerate_form)
from reference import (ref_build_chart, ref_diagonalize,
                       ref_hyperplane_through, ref_intersect_hyperplanes,
                       ref_is_nondegenerate_form, ref_quasi_ideal,
                       ref_span_subcycle, ref_vec_scale)
from test_kernel import (_model_lines, _outcome, elements, forms, same,
                         small_geometries)

ODD = [PrimeField(3), PrimeField(5), PrimeField(7), Rational(), ApproxReal()]


def _same_vectors(got, want) -> bool:
    return len(got) == len(want) and all(
        len(v) == len(w) and all(map(same, v, w)) for v, w in zip(got, want))


# -- diagonalize -------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.data())
def test_diagonalize_matches_scalar_loop(data):
    """Entries and basis over F_3/5/7, Q and ApproxReal, degenerate and
    all-isotropic tables included."""
    field = data.draw(st.sampled_from(ODD))
    q = data.draw(forms(field, dims=st.integers(1, 5)))
    try:
        want = ref_diagonalize(q)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            diagonalize(q)
        return
    got = diagonalize(q)
    assert len(got.entries) == len(want.entries)
    assert all(map(same, got.entries, want.entries))
    assert _same_vectors(got.basis, want.basis)


@pytest.mark.parametrize("field", [CharTwo(2), CharTwo(4)],
                         ids=lambda f: f.token())
def test_diagonalize_rejects_characteristic_two(field):
    q = QuadraticForm.diagonal(field, [1, 1])
    for diag in (diagonalize, ref_diagonalize):
        with pytest.raises(UnsupportedFieldError):
            diag(q)


# -- build_chart -------------------------------------------------------------

def _check_chart(space):
    """``build_chart`` against ``ref_build_chart``: kind, basis and norm
    token, or the same error."""
    want = _outcome(ref_build_chart, space)
    got = _outcome(build_chart, space)
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return want[0]
    kind, basis, token = want
    assert got.kind is kind and got.norm_token == token
    assert _same_vectors(got.basis, basis)
    return kind


def _nonideal_lines(g):
    """The hyperplanecycles of g with B(P, l) != 0 (finite fields)."""
    return [pt for pt in lie_quadric_points(g)
            if role(g, pt) is Role.HYPERPLANE]


@pytest.mark.parametrize("p", [5, 7])
def test_build_chart_matches_scalar_build(p):
    """Every non-ideal line of every F_5 and F_7 plane class: all three
    chart kinds occur."""
    kinds = set()
    for cls in enumerate_classes(PrimeField(p), 2):
        g = representative_geometry(cls)
        for l in _nonideal_lines(g):
            kinds.add(_check_chart(line_space(g, l)))
    assert len(kinds) == 3


def test_build_chart_matches_scalar_build_on_float_and_rational_lines():
    """The float hyperbolic and elliptic model lines, and over Q the
    non-ideal hyperplanecycles with coordinates in {0, 1, -1} of three
    exact models, whose exact charts may not exist."""
    for g, l, _ in _model_lines():
        _check_chart(line_space(g, l))
    outcomes = set()
    for kind in ("hyperbolic", "elliptic", "parabolic"):
        g = exact_model_geometry(ModelKind(kind))
        for x in itertools.product((0, 1, -1), repeat=g.form.dim):
            if any(x) and not g.form.eval_raw(x) and \
                    role(g, x) is Role.HYPERPLANE:
                outcomes.add(_check_chart(line_space(g, x)))
    assert len(outcomes) >= 3


# -- is_nondegenerate_form ---------------------------------------------------

@pytest.mark.parametrize("field,dims", [(CharTwo(2), range(1, 5)),
                                        (CharTwo(4), range(1, 4))],
                         ids=["f2", "f4"])
def test_is_nondegenerate_form_matches_scalar_test(field, dims):
    """Every form over F_2 of dims 1-4 and over F_4 of dims 1-3."""
    seen = set()
    for dim in dims:
        for q in verify._all_forms(field, dim):
            want = ref_is_nondegenerate_form(q)
            assert is_nondegenerate_form(q) == want, q
            seen.add(want)
    assert seen == {True, False}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_is_nondegenerate_form_matches_scalar_test_in_odd_characteristic(
        data):
    field = data.draw(st.sampled_from(ODD))
    q = data.draw(forms(field, dims=st.integers(1, 5)))
    assert is_nondegenerate_form(q) == ref_is_nondegenerate_form(q)


# -- subcycles and hyperplane_through ----------------------------------------

def _same_subcycle(got, want):
    if isinstance(want, tuple):
        assert got == want  # the same error and message
        return
    assert got.is_subplane == want.is_subplane
    assert got.is_actual == want.is_actual
    assert _same_vectors([p.coords for p in got.basis],
                         [p.coords for p in want.basis])


def _check_subcycles(g, points, hyperplanes):
    """span_subcycle of the points, intersect_hyperplanes of the
    hyperplanes, and quasi_ideal of each subcycle, against the Scalar
    paths."""
    for args, build, ref in ((points, span_subcycle, ref_span_subcycle),
                             (hyperplanes, intersect_hyperplanes,
                              ref_intersect_hyperplanes)):
        got, want = _outcome(build, g, *args), _outcome(ref, g, *args)
        _same_subcycle(got, want)
        if not isinstance(want, tuple):
            assert quasi_ideal(g, got) == ref_quasi_ideal(g, want)


@settings(max_examples=150, deadline=None)
@given(small_geometries(), st.data())
def test_subcycles_match_scalar_paths(g, data):
    """Random geometries over F_2, F_3, F_4 and F_5: one to three points,
    scaled at random and dependent ones included, and one or two
    virtual hyperplanes, [P] and vectors off L^perp included."""
    field = g.field
    points = [pt for pt in lie_quadric_points(g)
              if role(g, pt) in (Role.POINT, Role.IDEAL)]
    nonzero = st.sampled_from(list(field.elements())[1:])
    if points:
        chosen = data.draw(st.lists(st.sampled_from(points), min_size=1,
                                    max_size=3))
        chosen = [ref_vec_scale(data.draw(nonzero), pt.coords)
                  if data.draw(st.booleans()) else pt for pt in chosen]
        for pair in itertools.combinations(chosen, 2):
            assert _outcome(hyperplane_through, g, *pair) == \
                _outcome(ref_hyperplane_through, g, *pair)
        if len(chosen) == 3:
            assert _outcome(hyperplane_through, g, *chosen) == \
                _outcome(ref_hyperplane_through, g, *chosen)
    else:
        chosen = []
    virtual = [linalg.vector(field, x) for x in g.form.perp_points(g._l_raw)]
    vec = st.tuples(*[elements(field)] * g.form.dim)
    planes = data.draw(st.lists(st.sampled_from(virtual) | vec, min_size=1,
                                max_size=2))
    _check_subcycles(g, chosen or [g.p_rep], planes)


@pytest.mark.parametrize("field,d", [(PrimeField(3), 2), (PrimeField(5), 2),
                                     (CharTwo(4), 3)],
                         ids=["fp:3-d2", "fp:5-d2", "f4-d3"])
def test_subcycles_match_scalar_paths_on_the_class_representatives(field, d):
    """Every class representative: pairs of its first points, and pairs
    of its first virtual hyperplanes."""
    for cls in enumerate_classes(field, d):
        g = representative_geometry(cls)
        points = [pt for pt in lie_quadric_points(g)
                  if role(g, pt) in (Role.POINT, Role.IDEAL)][:6]
        virtual = [linalg.vector(field, x)
                   for x in itertools.islice(g.form.perp_points(g._l_raw), 6)]
        for pair, planes in zip(itertools.combinations(points, 2),
                                itertools.combinations(virtual, 2)):
            _check_subcycles(g, pair, planes)


@pytest.mark.parametrize("kind", [ModelKind.ELLIPTIC, ModelKind.HYPERBOLIC],
                         ids=lambda k: k.value)
def test_subcycles_match_scalar_paths_on_a_float_model(kind):
    """The float model, where ``is_actual`` is undetermined: two and
    three lifted points and pairs of lifted lines, bit for bit."""
    g = model_geometry(kind)
    if kind is ModelKind.ELLIPTIC:
        pts = [(0.6, 0.0, 0.8), (0.0, 1.0, 0.0), (0.8, 0.0, -0.6)]
        normals = [(0.0, 0.0, 1.0), (0.6, 0.0, 0.8), (0.0, 0.6, 0.8)]
    else:
        pts = [(0.0, 0.0, 1.0), (0.75, 0.0, 1.25), (0.0, 0.75, 1.25)]
        normals = [(1.0, 0.0, 0.0), (0.6, 0.8, 0.0), (0.0, 1.0, 0.0)]
    lifted = [lift_point(kind, x).lift for x in pts]
    lines = [lift_line(kind, n).lift for n in normals]
    for k in (2, 3):
        for chosen, planes in zip(itertools.combinations(lifted, k),
                                  itertools.combinations(lines, 2)):
            _check_subcycles(g, chosen, planes)


def test_subcycles_match_scalar_paths_over_q():
    """The rational hyperbolic model: points and hyperplanecycles with
    coordinates in {0, 1, -1}."""
    g = exact_model_geometry(ModelKind.HYPERBOLIC)
    cycles = [x for x in itertools.product((0, 1, -1), repeat=g.form.dim)
              if any(x) and not g.form.eval_raw(x)]
    points = [x for x in cycles if role(g, x) in (Role.POINT, Role.IDEAL)]
    planes = [x for x in cycles if role(g, x) is Role.HYPERPLANE]
    assert len(points) >= 3 and len(planes) >= 2
    for chosen in itertools.combinations(points[:5], 2):
        _check_subcycles(g, chosen, planes[:2])
    for chosen in itertools.combinations(points[:4], 3):
        _check_subcycles(g, chosen, planes[1:3])
