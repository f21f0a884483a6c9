"""Line translation groups, charts, oriented distance."""

import dataclasses
import hashlib
import itertools
import math
import random

import pytest

from conformal import linalg
import conformal.metric as met
from conformal.fields import (PrimeField, Rational, SquareClass,
                              UnsupportedFieldError)
from conformal.classify import enumerate_classes, representative_geometry
from conformal.geometry import (Geometry, ProjPoint, RoleError, antipodal,
                                cayley_klein_points, hyperplane_through,
                                perp_space)
from conformal.models import ModelKind, exact_model_geometry, model_geometry
from conformal.quadform import InvalidInputError, QuadraticForm
from conformal.metric import (DegenerateLineError, IdealPointError,
                              IncompatibleChartsError, LineGroupClass,
                              NotOnLineError, build_chart, compose,
                              find_nonideal_line, gamma_class, invert,
                              line_points, line_space,
                              motion_from_normal_form, same_distance,
                              stabilizer_group, stabilizer_matrices,
                              translation_between)
from reference import (ref_mat_vec, ref_nonideal_line, ref_stabilizer,
                       ref_vec_add, ref_vec_scale)

QQ = Rational()
F3, F5, F7 = PrimeField(3), PrimeField(5), PrimeField(7)


def _rep(field, qp, ql):
    cls = next(c for c in enumerate_classes(field, 2)
               if c.qp is qp and c.ql is ql)
    return representative_geometry(cls)


def test_gamma_class_real():
    from conformal.models import ModelKind, exact_model_geometry
    elliptic = exact_model_geometry(ModelKind.ELLIPTIC)
    parabolic = exact_model_geometry(ModelKind.PARABOLIC)
    hyperbolic = exact_model_geometry(ModelKind.HYPERBOLIC)
    assert gamma_class(elliptic) is LineGroupClass.NON_SPLIT_TORUS  # SO(2)
    assert gamma_class(parabolic) is LineGroupClass.ADDITIVE       # R^+
    assert gamma_class(hyperbolic) is LineGroupClass.SPLIT_TORUS   # SO(1,1)
    # rotations via the dual: elliptic angles are also SO(2)
    assert gamma_class(elliptic.dual()) is \
        LineGroupClass.NON_SPLIT_TORUS
    # scaling the form must not change the answer
    from conformal.geometry import Geometry
    scaled = Geometry(elliptic.form.scaled(-2), elliptic.p_rep,
                      elliptic.l_rep)
    assert gamma_class(scaled) is LineGroupClass.NON_SPLIT_TORUS


@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
def test_gamma_class_of_float_models_matches_exact(kind):
    """Over ApproxReal the field's classes are signs: each float model
    and its dual get the translation group of the exact model."""
    g, exact = model_geometry(kind), exact_model_geometry(kind)
    assert gamma_class(g) is gamma_class(exact)
    assert gamma_class(g.dual()) is gamma_class(exact.dual())


def test_gamma_class_f7_nonresidue():
    g = _rep(F7, SquareClass.UNIT, SquareClass.NON_RESIDUE)
    gc = gamma_class(g)
    assert gc is LineGroupClass.NON_SPLIT_TORUS
    assert gc.order(7) == 8
    l = find_nonideal_line(g)
    assert len(stabilizer_group(g, l)) == 8


def test_line_space_structure():
    from conformal.fields import square_class
    from conformal.geometry import lie_quadric_points
    from conformal.quadform import bilinear_radical, det_class
    g = _rep(F5, SquareClass.UNIT, SquareClass.UNIT)
    l = find_nonideal_line(g)
    space = line_space(g, l)
    assert space.form.dim == 3
    assert not bilinear_radical(space.form)
    # <P, l> is symplectic, so det(Q) ~ -det(restriction)
    assert det_class(g.form) == \
        det_class(space.form) * square_class(F5.scalar(-1))
    ideal = next(p for p in lie_quadric_points(g)
                 if g.form.b_full(g.l_rep, p.coords).is_zero()
                 and g.form.b_full(g.p_rep, p.coords).is_zero())
    with pytest.raises(DegenerateLineError):
        line_space(g, ideal)


def test_stabilizer_additive_is_translation_group():
    g = _rep(F3, SquareClass.UNIT, SquareClass.ZERO)
    l = find_nonideal_line(g)
    group = stabilizer_group(g, l)
    assert len(group) == 3
    taus = sorted(el.normal_form[0].value for el in group)
    assert taus == [0, 1, 2]
    by_tau = {el.normal_form[0].value: el for el in group}
    for t1 in range(3):
        for t2 in range(3):
            composed = compose(by_tau[t1], by_tau[t2])
            assert composed.normal_form[0].value == (t1 + t2) % 3


def test_stabilizer_split_f5():
    g = _rep(F5, SquareClass.UNIT, SquareClass.UNIT)
    l = find_nonideal_line(g)
    group = stabilizer_group(g, l)
    assert len(group) == 4
    assert any(el.is_identity() for el in group)
    mus = sorted(el.normal_form[0].value for el in group)
    assert mus == [1, 2, 3, 4]  # the full multiplicative group


def test_full_stabilizer_has_index_two():
    for field in (F3, F5, F7):
        for ql in (SquareClass.UNIT, SquareClass.ZERO,
                   SquareClass.NON_RESIDUE):
            g = _rep(field, SquareClass.NON_RESIDUE, ql)
            l = find_nonideal_line(g)
            group = stabilizer_group(g, l)
            _, _, full = stabilizer_matrices(g, l)
            assert len(full) == 2 * len(group)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_stabilizer_matches_the_vector_walk(p):
    """On the first non-ideal line of every plane class and of its dual
    over F_p, ``stabilizer_matrices`` is the set the walk of every vector
    finds, and ``stabilizer_group`` its determinant-1 part, with the same
    normal forms in the same order and the same matrices."""
    kinds = []
    for cls in enumerate_classes(PrimeField(p), 2):
        base = representative_geometry(cls)
        for g in (base, base.dual()):
            l = find_nonideal_line(g)
            full, group = ref_stabilizer(g, l)
            _, chart, mats = stabilizer_matrices(g, l)
            assert len(mats) == len(full) == 2 * gamma_class(g).order(p)
            assert set(map(tuple, mats)) == set(full)
            got = stabilizer_group(g, l)
            assert [el.normal_form for el in got] == [nf for nf, _ in group]
            assert [el._matrix_raw for el in got] == [
                tuple(tuple(x.value for x in row) for row in m)
                for _, m in group]
            kinds.append(chart.kind)
    assert len(kinds) == 18 and set(kinds) == set(LineGroupClass)


@pytest.mark.parametrize("make, message", [
    (lambda: exact_model_geometry(ModelKind.HYPERBOLIC),
     "stabilizer enumeration needs a finite field"),
    (lambda: _rep(PrimeField(17), SquareClass.UNIT, SquareClass.UNIT),
     "field size 17 exceeds the cap 13"),
    (lambda: representative_geometry(next(iter(enumerate_classes(F5, 3)))),
     "line spaces are 3-dimensional only for n=2"),
], ids=["rational", "f17", "f5-d3"])
def test_stabilizer_refusals(make, message):
    g = make()
    # the rational model is refused before its l is read
    l = find_nonideal_line(g) if g.field.is_finite else g.l_rep
    for search in (stabilizer_group, stabilizer_matrices):
        with pytest.raises(UnsupportedFieldError, match=message):
            search(g, l)


def test_stabilizer_search_is_quadratic(monkeypatch):
    """One search per chart kind over F_13, its chart built in the call,
    evaluates Q at most 3 q^2 times; a walk of all q^3 vectors of the
    line space would take q^3 = 2197."""
    calls = []
    eval_raw = QuadraticForm.eval_raw
    monkeypatch.setattr(QuadraticForm, "eval_raw",
                        lambda form, x: calls.append(x) or eval_raw(form, x))
    f13 = PrimeField(13)
    for ql in (SquareClass.UNIT, SquareClass.ZERO, SquareClass.NON_RESIDUE):
        g = _fresh(f13, SquareClass.UNIT, ql)
        l = find_nonideal_line(g)
        calls.clear()
        assert len(stabilizer_group(g, l)) == gamma_class(g).order(13)
        assert len(calls) <= 3 * 13 ** 2


def test_translation_identity_and_swap():
    g = _rep(F5, SquareClass.UNIT, SquareClass.NON_RESIDUE)
    l = find_nonideal_line(g)
    _, pts = line_points(g, l)
    t_same = translation_between(g, l, pts[0], pts[0])
    assert t_same.is_identity()
    t_ab = translation_between(g, l, pts[0], pts[1])
    t_ba = translation_between(g, l, pts[1], pts[0])
    assert invert(t_ab).normal_form == t_ba.normal_form
    assert same_distance(t_ab, t_ba)
    assert compose(t_ab, t_ba).is_identity()


def test_translation_matches_stabilizer_enumeration():
    g = _rep(F5, SquareClass.UNIT, SquareClass.UNIT)  # split line
    l = find_nonideal_line(g)
    space, pts = line_points(g, l)
    group = stabilizer_group(g, l)
    for p1, p2 in itertools.product(pts, repeat=2):
        t = translation_between(g, l, p1, p2)
        matches = [el for el in group if el.normal_form == t.normal_form]
        assert len(matches) == 1
        assert matches[0].matrix == t.matrix


def test_free_transitivity_all_classes():
    """|Gamma| equals the number of non-ideal points and the action is
    simply transitive, for every Q(L) class over F_3, F_5, F_7."""
    for field in (F3, F5, F7):
        q = field.p
        for ql, order in ((SquareClass.NON_RESIDUE, q + 1),
                          (SquareClass.ZERO, q),
                          (SquareClass.UNIT, q - 1)):
            g = _rep(field, SquareClass.UNIT, ql)
            l = find_nonideal_line(g)
            space, pts = line_points(g, l)
            group = stabilizer_group(g, l)
            assert len(group) == order == len(pts)
            start = pts[0]
            start_lc = space.from_ambient(start.coords)
            images = {ProjPoint(ref_mat_vec(el.matrix, start_lc)).sort_key()
                      for el in group}
            lifted = {ProjPoint(space.to_ambient(
                ref_mat_vec(el.matrix, start_lc))).sort_key()
                for el in group}
            assert len(images) == order  # trivial stabilizers
            assert lifted == {p.sort_key() for p in pts}  # transitive


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_find_nonideal_line_matches_quadric_scan(p):
    """The walk of L^perp finds the quadric scan's line on every plane
    class, and raises DegenerateLineError exactly where the scan finds
    none: no representative does, and L = P isotropic always does."""
    geoms = [representative_geometry(c)
             for c in enumerate_classes(PrimeField(p), 2)]
    iso = next(g for g in geoms if g.qp().is_zero())
    geoms.append(Geometry(iso.form, iso.p_rep, iso.p_rep))
    found = []
    for g in geoms:
        want = ref_nonideal_line(g)
        if want is None:
            with pytest.raises(DegenerateLineError):
                find_nonideal_line(g)
        else:
            assert find_nonideal_line(g) == want, g
        found.append(want is not None)
    assert found == [True] * 9 + [False]


def test_ideal_point_rejected():
    g = _rep(F3, SquareClass.UNIT, SquareClass.ZERO)
    l = find_nonideal_line(g)
    space, pts = line_points(g, l)
    # find the ideal point of the line: isotropic, orthogonal to L
    ideal = None
    for x in linalg.projective_points(F3, 3):
        coords = linalg.vector(F3, x)
        if space.form(coords).is_zero() and \
           space.form.b_full(space.l_coords, coords).is_zero():
            ideal = ProjPoint(space.to_ambient(coords))
            break
    assert ideal is not None
    with pytest.raises(IdealPointError):
        translation_between(g, l, pts[0], ideal)
    other = _rep(F3, SquareClass.UNIT, SquareClass.UNIT)
    with pytest.raises(NotOnLineError):
        translation_between(g, l, pts[0],
                            next(iter(line_points(other,
                                 find_nonideal_line(other))[1])))


def _fresh(field, qp, ql):
    """A representative geometry of its own, with no chart kept yet."""
    g = _rep(field, qp, ql)
    return Geometry(g.form, g.p_rep, g.l_rep)


def test_one_chart_per_line(monkeypatch):
    """Queries and the stabilizer search on one line build its chart
    once."""
    import conformal.metric as met
    built = []
    build = met.build_chart
    monkeypatch.setattr(met, "build_chart",
                        lambda space: built.append(space) or build(space))
    for ql in (SquareClass.UNIT, SquareClass.ZERO, SquareClass.NON_RESIDUE):
        g = _fresh(F7, SquareClass.UNIT, ql)
        l = find_nonideal_line(g)
        _, pts = line_points(g, l)
        motions = [translation_between(g, l, p1, p2)
                   for p1, p2 in itertools.product(pts[:5], repeat=2)]
        stabilizer_group(g, l)
        assert len(built) == 1 and len(g._charts) == 1
        assert all(m.chart is motions[0].chart for m in motions)
        built.clear()


def test_scaled_line_gives_the_same_motion():
    for ql in (SquareClass.UNIT, SquareClass.ZERO, SquareClass.NON_RESIDUE):
        g = _fresh(F7, SquareClass.UNIT, ql)
        l = find_nonideal_line(g)
        _, pts = line_points(g, l)
        t = translation_between(g, l, pts[0], pts[1])
        for c in (2, 6):
            scaled = ref_vec_scale(F7.scalar(c), l.coords)
            for h in (g, _fresh(F7, SquareClass.UNIT, ql)):
                s = translation_between(h, scaled, pts[0], pts[1])
                assert s.normal_form == t.normal_form
                assert s.matrix == t.matrix
        assert len(g._charts) == 1


def test_rejected_line_raises_every_time_and_is_not_kept():
    """An ideal, an off-quadric and a non-hyperplane l are refused on
    every call, and no chart is kept for them."""
    from conformal.geometry import lie_quadric_points
    g = _fresh(F5, SquareClass.UNIT, SquareClass.UNIT)
    _, pts = line_points(g, find_nonideal_line(g))
    b = g.form.b_full
    ideal = next(x.coords for x in lie_quadric_points(g)
                 if b(g.l_rep, x.coords).is_zero()
                 and b(g.p_rep, x.coords).is_zero())
    off_quadric = ref_vec_add(ideal, g.p_rep)
    assert not g.form(off_quadric).is_zero()
    not_plane = next(x.coords for x in lie_quadric_points(g)
                     if not b(g.l_rep, x.coords).is_zero())
    for bad in (ideal, off_quadric, not_plane):
        for _ in range(2):
            with pytest.raises(DegenerateLineError):
                translation_between(g, bad, pts[0], pts[1])
            with pytest.raises(DegenerateLineError):
                stabilizer_matrices(g, bad)
            with pytest.raises(DegenerateLineError):
                stabilizer_group(g, bad)
    assert g._charts == {}


def test_point_errors_on_a_kept_chart():
    g = _fresh(F3, SquareClass.UNIT, SquareClass.ZERO)
    l = find_nonideal_line(g)
    space, pts = line_points(g, l)
    translation_between(g, l, pts[0], pts[1])
    assert len(g._charts) == 1
    lc = linalg.raw_values(F3, space.l_coords)
    ideal = next(ProjPoint(space.to_ambient(linalg.vector(F3, x)))
                 for x in space.form.isotropic_points()
                 if space.form.b_raw(lc, x) == 0)
    other = _rep(F3, SquareClass.UNIT, SquareClass.UNIT)
    elsewhere = line_points(other, find_nonideal_line(other))[1][0]
    for bad, error in ((ideal, IdealPointError),
                       (elsewhere, NotOnLineError),
                       (ref_vec_add(pts[0].coords, g.p_rep),
                        NotOnLineError)):
        for args in ((pts[0], bad), (bad, pts[0])) * 2:
            with pytest.raises(error):
                translation_between(g, l, *args)
    assert len(g._charts) == 1
    # a rejected point is never kept: the table holds the good points only
    chart = next(iter(g._charts.values()))
    assert set(chart._points) == {pts[0].raw, pts[1].raw}


def _nonideal_lines(g):
    """Every non-ideal line of g: the quadric points with B(L, x) = 0
    and B(P, x) != 0, by a scan of the whole quadric."""
    b, is_zero = g.form.b_raw, g.field._is_zero
    return [ProjPoint.from_canonical(g.field, x)
            for x in g.form.isotropic_points()
            if is_zero(b(g._l_raw, x)) and not is_zero(b(g._p_raw, x))]


def _uncached(h, l, p1, p2):
    """translation_between on h with l's point table emptied first, so
    both points' chart coordinates are computed afresh."""
    met._line_chart(h, l)._points.clear()
    return translation_between(h, l, p1, p2)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_point_table_matches_the_uncached_chart(p):
    """On every non-ideal line of every plane class, every ordered pair
    of the line's points gives the normal form of a fresh geometry's
    chart with an empty point table, bit for bit."""
    lines = 0
    for cls in enumerate_classes(PrimeField(p), 2):
        g = representative_geometry(cls)
        g = Geometry(g.form, g.p_rep, g.l_rep)
        h = Geometry(g.form, g.p_rep, g.l_rep)
        for l in _nonideal_lines(g):
            _, pts = line_points(g, l)
            for p1, p2 in itertools.product(pts, repeat=2):
                assert translation_between(g, l, p1, p2)._nf_raw \
                    == _uncached(h, l, p1, p2)._nf_raw
            assert set(met._line_chart(g, l)._points) == \
                {pt.raw for pt in pts}
            lines += 1
    assert lines > 0


def test_each_point_is_computed_once(monkeypatch):
    """1,000 translations between random points of one F_13 line run
    the line space's coordinate map once per point queried."""
    calls = []

    def counted_space(g, l):
        space = line_space(g, l)
        coords = space._coords
        return dataclasses.replace(
            space, _coords=lambda x: calls.append(x) or coords(x))

    monkeypatch.setattr(met, "line_space", counted_space)
    rng = random.Random(13)
    for ql in (SquareClass.UNIT, SquareClass.ZERO, SquareClass.NON_RESIDUE):
        g = _fresh(PrimeField(13), SquareClass.UNIT, ql)
        l = find_nonideal_line(g)
        _, pts = line_points(g, l)
        used = set()
        for _ in range(1000):
            p1, p2 = rng.choice(pts), rng.choice(pts)
            used |= {p1.raw, p2.raw}
            translation_between(g, l, p1, p2)
        assert sorted(calls) == sorted(used)
        assert set(met._line_chart(g, l)._points) == used
        calls.clear()


def test_float_point_table_is_bit_identical():
    """On the ApproxReal hyperbolic line the kept chart coordinates give
    the uncached normal forms bit for bit, in either query order: for
    each point in three scalings (whose chart coordinates differ in the
    last bits, so the table is keyed by the tuple as given), and given
    with -0.0 in place of 0.0 (the two are one dict key)."""
    from conformal import models
    from conformal.fields import ApproxReal
    from conformal.models import lift_line, lift_point
    kind, real = ModelKind.HYPERBOLIC, ApproxReal()
    line = lift_line(kind, (0.0, 1.0, 0.0)).lift
    pts = [lift_point(kind, (math.sinh(t), 0.0, math.cosh(t))).lift
           for t in (0.0, 0.7, -0.3, 1.1)]
    scaled = [tuple(real.scalar(c * x.value) for x in pt)
              for c in (3.0, 0.7) for pt in pts]
    signed = [tuple(real.scalar(-0.0) if x.value == 0.0 else x for x in pt)
              for pt in pts + scaled]
    assert any(math.copysign(1.0, x.value) < 0 for x in signed[0])
    fresh = lambda: Geometry(*models._build(real, kind, 2))
    for first, second in ((pts + scaled, signed), (signed, pts + scaled)):
        g, h = fresh(), fresh()
        for p1, p2 in itertools.product(first + second, repeat=2):
            got = translation_between(g, line, p1, p2)
            assert repr(got._nf_raw) == repr(_uncached(h, line, p1,
                                                       p2)._nf_raw)
        assert len(met._line_chart(g, line)._points) == 3 * len(pts)


def test_perp_space_needs_vectors_orthogonal_to_l():
    """perp_space(g, [P, L]) is the line space of L where Q(L) = 0; on
    the six F_5 plane classes with Q(L) != 0, L is not orthogonal to
    itself and the call raises InvalidInputError."""
    for cls in enumerate_classes(F5, 2):
        g = representative_geometry(cls)
        if cls.ql is SquareClass.ZERO:
            assert perp_space(g, [g._p_raw, g._l_raw]).form.dim == 3
        else:
            with pytest.raises(InvalidInputError, match="orthogonal to L"):
                perp_space(g, [g._p_raw, g._l_raw])


def test_compose_requires_one_line():
    g = _rep(F5, SquareClass.UNIT, SquareClass.UNIT)
    lines = []
    spans = set()
    from conformal.geometry import lie_quadric_points
    for l in lie_quadric_points(g):
        if g.form.b_full(g.l_rep, l.coords).is_zero() and \
           not g.form.b_full(g.p_rep, l.coords).is_zero():
            red, _ = linalg.rref((l.coords, g.p_rep), F5)
            key = tuple(red)
            if key in spans:
                continue  # the other orientation of a line already taken
            spans.add(key)
            lines.append(l)
        if len(lines) == 2:
            break
    _, pts1 = line_points(g, lines[0])
    _, pts2 = line_points(g, lines[1])
    t1 = translation_between(g, lines[0], pts1[0], pts1[1])
    t2 = translation_between(g, lines[1], pts2[0], pts2[1])
    with pytest.raises(IncompatibleChartsError):
        compose(t1, t2)
    # but distances along the two lines are comparable (same chart class)
    assert same_distance(t1, t1)
    same_distance(t1, t2)  # must not raise


# normal forms outside Gamma, by chart kind, over F_5 (eps = 2): a
# non-split (1, 2) has a^2 - eps b^2 = 3, and (0, 0) has 0
OUTSIDE_GAMMA_F5 = {
    LineGroupClass.SPLIT_TORUS: [(1, 2), ()],
    LineGroupClass.ADDITIVE: [(0, 0), ()],
    LineGroupClass.NON_SPLIT_TORUS: [(2,), (3, 3, 3), (1, 2), (0, 0), ()],
}


def test_motion_from_normal_form_refuses_what_is_not_in_gamma():
    """On the first non-ideal line of each F_5 plane class with Q(P) a
    unit, a normal form of the wrong length or off the group raises
    InvalidInputError, every element of Gamma is accepted as it is, and
    a split mu = 0 still divides by zero."""
    kinds = set()
    for ql in (SquareClass.ZERO, SquareClass.UNIT, SquareClass.NON_RESIDUE):
        g = _rep(F5, SquareClass.UNIT, ql)
        group = stabilizer_group(g, find_nonideal_line(g))
        chart = group[0].chart
        kinds.add(chart.kind)
        for nf in OUTSIDE_GAMMA_F5[chart.kind]:
            with pytest.raises(InvalidInputError):
                motion_from_normal_form(chart, nf)
        for el in group:
            got = motion_from_normal_form(chart, el.normal_form)
            assert got._nf_raw == el._nf_raw
            assert got.matrix == el.matrix
        if chart.kind is LineGroupClass.SPLIT_TORUS:
            with pytest.raises(ZeroDivisionError):
                motion_from_normal_form(chart, (0,))
    assert kinds == set(LineGroupClass)


def test_gamma_uniqueness_across_lines_f5():
    """All non-ideal lines of one geometry carry isomorphic groups."""
    from conformal.geometry import lie_quadric_points
    for ql in (SquareClass.UNIT, SquareClass.ZERO, SquareClass.NON_RESIDUE):
        g = _rep(F5, SquareClass.NON_RESIDUE, ql)
        orders = set()
        kinds = set()
        for l in lie_quadric_points(g):
            if not g.form.b_full(g.l_rep, l.coords).is_zero():
                continue
            if g.form.b_full(g.p_rep, l.coords).is_zero():
                continue
            space = line_space(g, l)
            chart = build_chart(space)
            kinds.add(chart.kind)
            orders.add(len(stabilizer_group(g, l)))
        assert len(kinds) == 1 and len(orders) == 1
        assert next(iter(kinds)) is gamma_class(g)


def test_hyperbolic_split_parameter_is_exp_distance():
    """On the real hyperbolic line, the split-torus parameter of the
    translation between points at distance d is exp(+-d)."""
    from conformal.models import ModelKind, lift_line, lift_point, \
        model_geometry
    g = model_geometry(ModelKind.HYPERBOLIC)
    line = lift_line(ModelKind.HYPERBOLIC, (0.0, 1.0, 0.0))
    for t1, t2 in ((0.0, 0.7), (-0.3, 1.1), (0.5, 0.5)):
        p1 = lift_point(ModelKind.HYPERBOLIC,
                        (math.sinh(t1), 0.0, math.cosh(t1)))
        p2 = lift_point(ModelKind.HYPERBOLIC,
                        (math.sinh(t2), 0.0, math.cosh(t2)))
        motion = translation_between(g, line.lift, p1.lift, p2.lift)
        assert motion.group_class is LineGroupClass.SPLIT_TORUS
        mu = motion.normal_form[0].value
        assert abs(abs(math.log(abs(mu))) - abs(t2 - t1)) < 1e-7


def test_distance_invariance_sampled():
    from conformal.quadform import IsometrySampler
    rng = random.Random(2)
    g = _rep(F5, SquareClass.UNIT, SquareClass.NON_RESIDUE)
    l = find_nonideal_line(g)
    _, pts = line_points(g, l)
    sampler = IsometrySampler(g.form, [g.p_rep, g.l_rep])
    for _ in range(25):
        m = sampler.sample(rng)
        p1, p2 = rng.choice(pts), rng.choice(pts)
        d = translation_between(g, l, p1, p2)
        l2 = ProjPoint(ref_mat_vec(m, l.coords))
        d2 = translation_between(g, l2,
                                 ProjPoint(ref_mat_vec(m, p1.coords)),
                                 ProjPoint(ref_mat_vec(m, p2.coords)))
        assert same_distance(d, d2)


def test_additive_distance_invariance_across_lines():
    """Parabolic-type geometry: tau survives transport to another line
    (the additive chart normalizes the anisotropic direction)."""
    from conformal.quadform import IsometrySampler
    rng = random.Random(6)
    g = _rep(F5, SquareClass.UNIT, SquareClass.ZERO)
    l = find_nonideal_line(g)
    _, pts = line_points(g, l)
    sampler = IsometrySampler(g.form, [g.p_rep, g.l_rep])
    for _ in range(25):
        m = sampler.sample(rng)
        p1, p2 = rng.choice(pts), rng.choice(pts)
        d = translation_between(g, l, p1, p2)
        assert d.group_class is LineGroupClass.ADDITIVE
        d2 = translation_between(
            g, ProjPoint(ref_mat_vec(m, l.coords)),
            ProjPoint(ref_mat_vec(m, p1.coords)),
            ProjPoint(ref_mat_vec(m, p2.coords)))
        assert same_distance(d, d2)


def test_distances_of_different_geometries_incomparable():
    g1 = _rep(F5, SquareClass.UNIT, SquareClass.UNIT)
    g2 = _rep(F5, SquareClass.NON_RESIDUE, SquareClass.UNIT)
    t1 = translation_between(g1, find_nonideal_line(g1),
                             *line_points(g1, find_nonideal_line(g1))[1][:2])
    t2 = translation_between(g2, find_nonideal_line(g2),
                             *line_points(g2, find_nonideal_line(g2))[1][:2])
    with pytest.raises(IncompatibleChartsError):
        same_distance(t1, t2)


def _subspace_lines():
    """The antipodal classes, hyperplane_through on every non-antipodal
    point pair, the line points and the stabilizers (the group's normal
    forms and matrices, then every full-stabilizer matrix) of each F_5
    and F_7 plane class."""
    text = lambda v: ",".join(str(x.value) for x in v)
    mat = lambda m: ";".join(text(row) for row in m)
    lines = []
    for fp in (F5, F7):
        for cls in enumerate_classes(fp, 2):
            g = representative_geometry(cls)
            classes = cayley_klein_points(g)
            lines.append("|".join(";".join(text(pt.coords) for pt in c)
                                  for c in classes))
            points = [pt for c in classes for pt in c]
            for a, b in itertools.combinations(points, 2):
                if antipodal(g, a, b):
                    continue
                try:
                    h = hyperplane_through(g, a, b)
                except RoleError:
                    lines.append("many")
                else:
                    lines.append("-" if h is None else text(h.coords))
            try:
                l = find_nonideal_line(g)
            except DegenerateLineError:
                lines.append("no line")
                continue
            lines.append(";".join(text(pt.coords)
                                  for pt in line_points(g, l)[1]))
            lines += [f"{text(el.normal_form)}:{mat(el.matrix)}"
                      for el in stabilizer_group(g, l)]
            lines += [mat(m) for m in stabilizer_matrices(g, l)[2]]
    return lines


def test_subspace_outputs_are_pinned():
    """Point classes, hyperplanes through point pairs, line points and
    stabilizers come out the same, byte for byte, as when these outputs
    were recorded."""
    lines = _subspace_lines()
    assert len(lines) == 18558
    assert lines.count("-") == 5918
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == (
        "2189b57fe7a547ff6e9846357fbe657a195426886a276afaccfeaab777c68515")
