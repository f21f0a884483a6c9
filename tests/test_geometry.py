"""Geometries: roles, incidence, pointspace, subcycles, models."""

import itertools
import random
from fractions import Fraction

import pytest

from conformal import linalg
from conformal.fields import (ApproxReal, CharTwo, FieldMismatchError,
                              PrimeField, Rational, SquareClass)
from conformal.geometry import (EnumerationUnsupportedError, Geometry,
                                IdealDenominatorError, InvalidGeometryError,
                                NoCanonicalProjectionError, NotAHypercycleError,
                                ProjPoint, RankError, Role, RoleError,
                                Subspace, antipodal, cayley_klein_points,
                                has_point_search, hyperplane_through, incident,
                                intersect_hyperplanes, inversive_separation,
                                lie_quadric_points, non_degenerate_geometry,
                                non_empty, pointspace, pointspace_points_of,
                                points_of, project_cycle, project_cycle_raw,
                                quasi_ideal, relative_power, role,
                                span_subcycle)
from conformal.fields import Scalar
from conformal.quadform import InvalidInputError, QuadraticForm
from conformal.classify import enumerate_classes, representative_geometry
from conformal.metric import (DegenerateLineError, find_nonideal_line,
                              motion_from_normal_form, stabilizer_group)
from reference import ref_independent, ref_rank, ref_vec_scale

QQ, AR, F4 = Rational(), ApproxReal(), CharTwo(4)
F3, F5, F7 = PrimeField(3), PrimeField(5), PrimeField(7)

STD = [1, 1, 1, -1, -1]


def _geometry(field, entries, p, l):
    return Geometry(QuadraticForm.diagonal(field, entries), p, l)


def test_new_geometry_validation():
    g = _geometry(QQ, STD, (0, 0, 0, 0, 1), (0, 0, 0, 1, 0))
    assert g.n == 2 and g.qp() == QQ.scalar(-1)
    with pytest.raises(InvalidGeometryError):
        _geometry(QQ, STD, (1, 0, 0, 0, 0), (1, 0, 0, 0, 0))  # B(P,P) = 2
    with pytest.raises(InvalidGeometryError):
        _geometry(QQ, [1, 0, 1, -1, -1], (0, 0, 0, 0, 1), (0, 0, 0, 1, 0))
    g3 = _geometry(F3, STD, (0, 0, 0, 0, 1), (0, 0, 0, 1, 0))
    assert g3.form.b_full(g3.p_rep, g3.l_rep).is_zero()


# (field, coordinates, a nonzero multiple of them, canonical raw
# values, repr): a ProjPoint keeps its field and raw values and wraps
# Scalars only when ``coords`` is read
PROJPOINT_CASES = [
    (F5, [0, 2, 4], [0, 3, 1], (0, 1, 2), "(0 : 1 : 2)"),
    (F4, [0, 3, 1], [0, 2, 3], (0, 1, 2), "(0 : 1 : t)"),  # (0 : t+1 : 1)
    (QQ, [0, 2, Fraction(4, 3)], [0, -3, -2], (0, 1, Fraction(2, 3)),
     "(0 : 1 : 2/3)"),
    (AR, [0.0, 2.0, 4.0], [0.0, -1.0, -2.0 + 1e-12], (0.0, 1.0, 2.0),
     "(0.0 : 1.0 : 2.0)"),
]


def test_projpoint_is_built_from_scalars():
    """Raw values go through ``from_canonical``; the constructor refuses
    them with one TypeError naming both."""
    for coords in ((1, 0, 0), (0.0, 1.0), [2, F5.one()]):
        with pytest.raises(TypeError, match="built from Scalars .*"
                           "from_canonical") as exc:
            ProjPoint(coords)
        assert "\n" not in str(exc.value)


def test_projpoint_normalization():
    for field, values, multiple, raw, text in PROJPOINT_CASES:
        p = ProjPoint(linalg.vector(field, values))
        assert p.field is field and p.raw == raw
        assert [x.value for x in p.coords] == list(raw)
        assert all(type(x) is Scalar and x.field is field for x in p.coords)
        assert ProjPoint(p.coords) == p  # idempotent
        assert p == ProjPoint(linalg.vector(field, multiple))
        assert p.sort_key() == raw and repr(p) == text
        assert p != ProjPoint(linalg.vector(field, [1, 0, 0]))
        assert p != ProjPoint(linalg.vector(field, [0, 1, 2, 0]))
        assert p != raw and p != p.coords
        other = F7 if field is not F7 else F3
        assert p != ProjPoint(linalg.vector(other, [0, 1, 2]))
        if field.is_exact:
            assert hash(p) == hash(raw)
            assert len({p, ProjPoint(linalg.vector(field, multiple))}) == 1
        else:
            # equality within the tolerance, and no hash
            assert p == ProjPoint(linalg.vector(field, [0.0, 1.0, 2.0 + 1e-12]))
            assert p != ProjPoint(linalg.vector(field, [0.0, 1.0, 2.001]))
            with pytest.raises(TypeError):
                hash(p)
        with pytest.raises(ValueError):
            ProjPoint(linalg.vector(field, [0, 0, 0]))
    with pytest.raises(ValueError):
        ProjPoint(())
    with pytest.raises(FieldMismatchError):
        ProjPoint((F5.one(), F7.one()))
    # a point is read in one step by the geometry of its field; another
    # field's point, or one of the wrong length, is refused
    g = representative_geometry(enumerate_classes(F5, 2)[0])
    c = lie_quadric_points(g)[3]
    for f in (role, lambda g, c: points_of(g, c)):
        with pytest.raises(FieldMismatchError):
            f(g, ProjPoint(linalg.vector(F7, [a.value for a in c.coords])))
        with pytest.raises(InvalidInputError, match="5 coordinates, not 4"):
            f(g, ProjPoint(c.coords[:4]))
    with pytest.raises(FieldMismatchError):
        pointspace_points_of(pointspace(g), ProjPoint(
            linalg.vector(F7, [a.value for a in c.coords])))


@pytest.mark.parametrize("field,d", [(F5, 2), (F7, 2), (F4, 3), (QQ, 2)],
                         ids=lambda x: getattr(x, "token", lambda: str(x))())
def test_public_attributes_wrap_the_raw_values(field, d):
    """``coords``, ``p_rep``/``l_rep``, ``basis``/``l_coords`` and
    ``normal_form`` are Scalar views of the raw values each object
    keeps, and feeding a view back in rebuilds the same object."""
    def wraps(view, raw):
        return (all(type(x) is Scalar and x.field == field for x in view)
                and tuple(x.value for x in view) == tuple(raw))
    for cls in enumerate_classes(field, d):
        g = representative_geometry(cls)
        assert wraps(g.p_rep, g._p_raw) and wraps(g.l_rep, g._l_raw)
        h = Geometry(g.form, g.p_rep, g.l_rep)
        assert (h._p_raw, h._l_raw) == (g._p_raw, g._l_raw)
        dual = g.dual()
        assert (dual._p_raw, dual._l_raw) == (g._l_raw, g._p_raw)
        assert g.qp() == g.form(g.p_rep) and g.ql() == g.form(g.l_rep)
        ps = pointspace(g)
        assert all(wraps(b, col) for b, col in zip(ps.basis, zip(*ps._cols)))
        assert wraps(ps.l_coords, ps._l_raw)
        assert ps.to_ambient(ps.l_coords) == g.l_rep
        assert ps.from_ambient(g.l_rep) == ps.l_coords
        if not field.is_finite:
            continue
        for pt in lie_quadric_points(g):
            assert wraps(pt.coords, pt.raw) and ProjPoint(pt.coords) == pt
    if field.char == 2 or not field.is_finite:
        return
    for cls in enumerate_classes(field, d):
        g = representative_geometry(cls)
        try:
            line = find_nonideal_line(g)
        except DegenerateLineError:
            continue
        for el in stabilizer_group(g, line):
            assert wraps(el.normal_form, el._nf_raw)
            again = motion_from_normal_form(el.chart, el.normal_form)
            assert again._nf_raw == el._nf_raw
            assert again.matrix == el.matrix
            assert repr(again) == repr(el)


def test_roles_in_elliptic_model():
    from conformal.models import (ModelKind, lift_cycle, lift_line,
                                  lift_point, model_geometry)
    g = model_geometry(ModelKind.ELLIPTIC)
    point = lift_point(ModelKind.ELLIPTIC, (1, 0, 0))
    line = lift_line(ModelKind.ELLIPTIC, (1, 0, 0))
    cycle = lift_cycle(ModelKind.ELLIPTIC, (1, 0, 0), 0.8)
    assert role(g, point.lift) is Role.POINT
    assert role(g, line.lift) is Role.HYPERPLANE
    assert role(g, cycle.lift) is Role.GENERIC_CYCLE
    with pytest.raises(NotAHypercycleError):
        role(g, (1.0, 0.0, 0.0, 0.0, 0.0))


def test_incidence_polar_pairs():
    from conformal.models import ModelKind, lift_line, lift_point, \
        model_geometry
    g = model_geometry(ModelKind.ELLIPTIC)
    line = lift_line(ModelKind.ELLIPTIC, (1, 0, 0))
    on = lift_point(ModelKind.ELLIPTIC, (0, 1, 0))
    off = lift_point(ModelKind.ELLIPTIC, (1, 0, 0))
    assert incident(g, on.lift, line.lift)      # p.l = 0
    assert not incident(g, off.lift, line.lift)
    # an isotropic cycle touches itself (char != 2)
    assert incident(g, on.lift, on.lift)


def test_incidence_symmetric_and_scale_invariant():
    g = _geometry(F5, STD, (0, 0, 0, 0, 1), (0, 0, 0, 1, 0))
    pts = lie_quadric_points(g)
    rng = random.Random(1)
    for _ in range(100):
        c1, c2 = rng.choice(pts), rng.choice(pts)
        v1 = ref_vec_scale(F5.scalar(rng.randrange(1, 5)), c1.coords)
        v2 = ref_vec_scale(F5.scalar(rng.randrange(1, 5)), c2.coords)
        assert incident(g, v1, v2) == incident(g, v2, v1)
        assert incident(g, v1, v2) == incident(g, c1, c2)


def test_quadric_point_counts():
    g = _geometry(F3, STD, (0, 0, 0, 0, 1), (0, 0, 0, 1, 0))
    pts = lie_quadric_points(g)
    # oracle: direct vector enumeration
    brute = sum(1 for x in linalg.all_vectors(F3, 5)
                if g.form(linalg.vector(F3, x)).is_zero() and any(x))
    assert len(pts) == brute // 2 == 40
    assert pts == tuple(sorted(pts, key=ProjPoint.sort_key))
    xy5 = Geometry(QuadraticForm(F5, 4, {(0, 1): 1, (2, 3): 1}),
                   (0, 0, 1, 1), (1, 1, 0, 0))
    two_planes = QuadraticForm(F5, 2, {(0, 1): 1})
    iso = [x for x in linalg.projective_points(F5, 2)
           if two_planes(linalg.vector(F5, x)).is_zero()]
    assert len(iso) == 2  # the two coordinate axes


def test_enumeration_caps():
    g = _geometry(PrimeField(11), STD, (0, 0, 0, 0, 1), (0, 0, 0, 1, 0))
    with pytest.raises(EnumerationUnsupportedError):
        lie_quadric_points(g)
    assert len(lie_quadric_points(g, max_q=11)) > 0
    gq = _geometry(QQ, STD, (0, 0, 0, 0, 1), (0, 0, 0, 1, 0))
    with pytest.raises(EnumerationUnsupportedError):
        lie_quadric_points(gq)


def test_non_degenerate_geometry():
    assert non_degenerate_geometry(
        _geometry(QQ, STD, (0, 0, 0, 0, 1), (0, 0, 0, 1, 0)))
    assert not non_degenerate_geometry(
        _geometry(QQ, [1, 1, 1, 1, -1], (0, 0, 0, 0, 1), (0, 0, 0, 1, 0)))
    assert non_degenerate_geometry(
        _geometry(F5, STD, (0, 0, 0, 0, 1), (0, 0, 0, 1, 0)))


def test_non_empty_criterion():
    # signature (3,2), Q(P) = -1: true
    assert non_empty(_geometry(QQ, STD, (0, 0, 0, 0, 1), (0, 0, 0, 1, 0)))
    # definite form: no isotropic vectors at all
    assert not non_empty(_geometry(QQ, [1, 1, 1, 1, 1],
                                   (1, 0, 0, 0, 0), (0, 1, 0, 0, 0)))
    # signature (4,1) with P in the negative slot: P^perp is definite
    assert not non_empty(_geometry(QQ, [1, 1, 1, 1, -1],
                                   (0, 0, 0, 0, 1), (0, 0, 0, 1, 0)))
    assert non_empty(_geometry(F3, STD, (1, 0, 0, 0, 0), (0, 1, 0, 0, 0)))


def test_non_empty_cross_check_finite():
    """The embedding criterion equals direct isotropic search in P^perp
    for every (P, L) pair of 4- and 5-dimensional forms over F_3."""
    forms = [QuadraticForm.diagonal(F3, e)
             for e in (STD, [1, 1, -1, -1], [1, 1, -1, -2], [1, 1, 1, -1])]
    for form in forms:
        pts = [linalg.vector(F3, x)
               for x in linalg.projective_points(F3, form.dim)]
        for p in pts:
            for l in pts:
                if not form.b_full(p, l).is_zero():
                    continue
                if not ref_independent([p, l], F3):
                    continue
                g = Geometry(form, p, l)
                assert non_empty(g) == has_point_search(g), (form, p, l)


def test_separations_basic():
    g = _geometry(QQ, STD, (0, 0, 0, 0, 1), (0, 0, 0, 1, 0))
    c = linalg.vector(QQ, [1, 0, 0, 1, 0])  # a point
    assert inversive_separation(g, c, c).is_zero()
    with pytest.raises(IdealDenominatorError):
        relative_power(g, c, c)  # points pair ideally with P


def test_pointspace_and_projection():
    g = _geometry(QQ, STD, (0, 0, 0, 0, 1), (0, 0, 0, 1, 0))
    ps = pointspace(g)
    assert ps.form.dim == 4
    from conformal.quadform import signature
    assert signature(ps.form) == (3, 1, 0)
    l_norm = ps.form(ps.l_coords)
    assert l_norm == QQ.scalar(-1)
    # projection fixes what is already in P^perp
    c = linalg.vector(QQ, [1, 0, 0, 1, 0])
    assert project_cycle_raw(g, c) == c
    with pytest.raises(NoCanonicalProjectionError):
        project_cycle(_geometry(F3, STD, (1, 0, 0, 1, 0), (0, 1, 0, 0, 1)),
                      (1, 0, 0, 1, 0))


def test_projected_norm_formula():
    """Q(l^P) = -B(P,l)^2 / (4 Q(P)) for non-ideal hyperplanes (F_3, F_5)."""
    for field in (F3, F5):
        g = _geometry(field, STD, (0, 0, 0, 0, 1), (0, 0, 0, 1, 0))
        four = field.scalar(4)
        count = 0
        for l in lie_quadric_points(g):
            if not g.form.b_full(g.l_rep, l.coords).is_zero():
                continue
            bpl = g.form.b_full(g.p_rep, l.coords)
            if bpl.is_zero():
                continue
            raw = project_cycle_raw(g, l.coords)
            assert g.form(raw) == -(bpl * bpl) / (four * g.qp())
            count += 1
        assert count > 0


def test_projection_identity_exhaustive_f5():
    g = _geometry(F5, STD, (0, 0, 0, 0, 1), (0, 0, 0, 1, 0))
    ps = pointspace(g)
    for c in lie_quadric_points(g):
        direct = tuple(sorted(points_of(g, c), key=ProjPoint.sort_key))
        raw = project_cycle_raw(g, c.coords)
        via = pointspace_points_of(ps, ps.from_ambient(raw))
        assert direct == via


def test_pointspace_points_of_rejects_a_cycle_of_the_wrong_length():
    g = _geometry(F3, STD, (0, 0, 0, 0, 1), (0, 0, 0, 1, 0))
    ps = pointspace(g)
    assert ps.form.dim == 4
    for coords in ((1, 0), (1, 0, 0, 0, 0, 0, 0)):
        with pytest.raises(InvalidInputError):
            pointspace_points_of(ps, coords)


def test_pointspace_points_of_rejects_the_zero_vector():
    """The zero vector paired to zero with every point and returned them
    all; it is refused as on the ambient path."""
    for cls in enumerate_classes(F5, 2):
        ps = pointspace(representative_geometry(cls))
        with pytest.raises(InvalidInputError, match="zero vector"):
            pointspace_points_of(ps, (0,) * ps.form.dim)
        with pytest.raises(InvalidInputError, match="zero vector"):
            pointspace_points_of(ps, [F5.zero()] * ps.form.dim)


def test_to_ambient_rejects_coordinates_of_the_wrong_length():
    g = _geometry(F3, STD, (0, 0, 0, 0, 1), (0, 0, 0, 1, 0))
    ps = pointspace(g)
    assert ps.form.dim == 4
    assert len(ps.to_ambient((1, 0, 0, 0))) == 5
    for coords in ((1,), (1, 0, 0, 0, 0, 0)):
        with pytest.raises(InvalidInputError, match="4 coordinates"):
            ps.to_ambient(coords)
    # from_ambient solves on the ambient length: a short vector was read
    # as the first rows and a long one cut off
    ps = pointspace(representative_geometry(enumerate_classes(F5, 2)[0]))
    assert ps.form.dim == 4
    for v in ((1, 2), (1,) * 9):
        with pytest.raises(InvalidInputError, match="has 5 coordinates"):
            ps.from_ambient(v)


def test_the_pointspace_quadric_is_enumerated_once(monkeypatch):
    """The points of every projected cycle of an F_3 plane come from one
    enumeration of the pointspace quadric, kept on the Subspace."""
    g = _geometry(F3, STD, (0, 0, 0, 0, 1), (0, 0, 0, 1, 0))
    cycles = lie_quadric_points(g)
    ps = pointspace(g)
    forms = []
    enumerate_points = QuadraticForm.isotropic_points

    def counting(self):
        forms.append(self)
        return enumerate_points(self)
    monkeypatch.setattr(QuadraticForm, "isotropic_points", counting)
    for c in cycles:
        pointspace_points_of(ps, ps.from_ambient(project_cycle_raw(g, c)))
    assert len(cycles) > 1
    assert len(forms) == 1 and forms[0] is ps.form


def _scalars_built(monkeypatch, fn) -> int:
    count = 0
    init = Scalar.__init__

    def counting(self, value, field):
        nonlocal count
        count += 1
        init(self, value, field)
    with monkeypatch.context() as mp:
        mp.setattr(Scalar, "__init__", counting)
        fn()
    return count


def test_incidence_on_own_points_builds_no_scalars(monkeypatch):
    """role, incident and points_of read the raw values of the
    geometry's own points and return cached points: no Scalar is
    built.  A power wraps its result and nothing else."""
    g = _geometry(F3, STD, (0, 0, 0, 0, 1), (0, 0, 0, 1, 0))
    cycles = lie_quadric_points(g)

    def incidence():
        for c in cycles:
            role(g, c)
            incident(g, c, cycles[0])
            points_of(g, c)
    assert _scalars_built(monkeypatch, incidence) == 0
    c1, c2 = next((a, b) for a, b in itertools.combinations(cycles, 2)
                  if role(g, a) is Role.GENERIC_CYCLE
                  and role(g, b) is Role.GENERIC_CYCLE)
    assert _scalars_built(
        monkeypatch, lambda: relative_power(g, c1, c2)) == 1
    assert _scalars_built(
        monkeypatch, lambda: inversive_separation(g, c1, c2)) == 1


def test_perp_space():
    """pointspace and line_space are the perp_space Subspaces of P and of
    (P, l), and their forms' isotropic_points() are the isotropic points
    found by a brute-force scan through the ambient form (F_3, F_5)."""
    from conformal.metric import find_nonideal_line, line_space
    for field in (F3, F5):
        for cls in enumerate_classes(field, 2):
            g = representative_geometry(cls)
            l = find_nonideal_line(g)
            for space, vectors in ((pointspace(g), [g.p_rep]),
                                   (line_space(g, l), [g.p_rep, l.coords])):
                assert isinstance(space, Subspace) and space.geometry is g
                assert space.basis == g.form.perp(vectors)
                assert space.to_ambient(space.l_coords) == g.l_rep
                dim = len(space.basis)
                brute = {x for x in linalg.all_vectors(field, dim)
                         if any(x) and next(a for a in x if a) == 1
                         and g.form(space.to_ambient(
                             linalg.vector(field, x))).is_zero()}
                iso = list(space.form.isotropic_points())
                assert len(iso) == len(brute) and set(iso) == brute


def test_points_of_self_incidence():
    g = _geometry(F3, STD, (0, 0, 0, 0, 1), (0, 0, 0, 1, 0))
    pts = [p for p in lie_quadric_points(g)
           if g.form.b_full(g.p_rep, p.coords).is_zero()]
    for p in pts[:5]:
        assert p in points_of(g, p)
    # with isotropic L, the ideal cycle c = L collects exactly the
    # points orthogonal to L
    g2 = representative_geometry(
        next(c for c in enumerate_classes(F3, 2)
             if c.qp is SquareClass.NON_RESIDUE and c.ql is SquareClass.ZERO))
    lp = points_of(g2, g2.l_rep)
    expected = [p for p in lie_quadric_points(g2)
                if g2.form.b_full(g2.p_rep, p.coords).is_zero()
                and g2.form.b_full(g2.l_rep, p.coords).is_zero()]
    assert list(lp) == expected


def test_antipodal():
    g = _geometry(QQ, STD, (0, 0, 0, 0, 1), (0, 0, 0, 1, 0))
    p = linalg.vector(QQ, [1, 0, 0, 1, 0])
    q = linalg.vector(QQ, [-1, 0, 0, 1, 0])
    r = linalg.vector(QQ, [0, 1, 0, 1, 0])
    assert antipodal(g, p, p)
    assert antipodal(g, p, q)  # (-c, 1, 0) is collinear with L and (c, 1, 0)
    assert not antipodal(g, p, r)
    with pytest.raises(RoleError):
        antipodal(g, p, linalg.vector(QQ, [1, 0, 0, 0, 1]))  # a hyperplane


def test_span_subcycle_and_dimension():
    g = _geometry(F3, STD, (0, 0, 0, 0, 1), (0, 0, 0, 1, 0))
    pts = [p for p in lie_quadric_points(g)
           if g.form.b_full(g.p_rep, p.coords).is_zero()]
    p, q = next((a, b) for a, b in itertools.combinations(pts, 2)
                if not antipodal(g, a, b))
    sub = span_subcycle(g, p, q)
    assert sub.dim == 0  # k = 2 points: dimension k - 2
    with pytest.raises(RankError):
        span_subcycle(g, p, p)
    three = span_subcycle(g, *pts[:1])
    assert three.dim == -1  # a single point spans a (-1)-subcycle


def test_intersect_hyperplanes_and_quasi_ideal():
    g = _geometry(F3, STD, (0, 0, 0, 0, 1), (0, 0, 0, 1, 0))
    lines = [l for l in lie_quadric_points(g)
             if g.form.b_full(g.l_rep, l.coords).is_zero()
             and not g.form.b_full(g.p_rep, l.coords).is_zero()]
    l1 = lines[0]
    sub = intersect_hyperplanes(g, l1)
    assert sub.dim == 1 and sub.is_subplane
    assert not quasi_ideal(g, sub)  # non-ideal l: non-degenerate line
    # an ideal hyperplane yields a quasi-ideal line
    ideals = [l for l in lie_quadric_points(g)
              if g.form.b_full(g.l_rep, l.coords).is_zero()
              and g.form.b_full(g.p_rep, l.coords).is_zero()
              and ref_rank([l.coords, g.p_rep], F3) == 2]
    if ideals:
        sub2 = intersect_hyperplanes(g, ideals[0])
        assert quasi_ideal(g, sub2)
    # the full pointspace of an anisotropic P is non-degenerate
    from conformal.geometry import Subcycle
    ps_basis = pointspace(g).basis
    full = Subcycle(tuple(ProjPoint(b) for b in ps_basis), True, None)
    assert not quasi_ideal(g, full)


def test_hyperplane_through_unique():
    g = _geometry(F3, STD, (0, 0, 0, 0, 1), (0, 0, 0, 1, 0))
    pts = [p for p in lie_quadric_points(g)
           if g.form.b_full(g.p_rep, p.coords).is_zero()]
    lines = [l for l in lie_quadric_points(g)
             if g.form.b_full(g.l_rep, l.coords).is_zero()]
    for p, q in itertools.combinations(pts, 2):
        if antipodal(g, p, q):
            with pytest.raises(RoleError):
                hyperplane_through(g, p, q)
            continue
        found = hyperplane_through(g, p, q)
        direct = [l for l in lines
                  if g.form.b_full(l.coords, p.coords).is_zero()
                  and g.form.b_full(l.coords, q.coords).is_zero()
                  and ref_rank([l.coords, g.p_rep], F3) == 2]
        if found is None:
            assert direct == []
        else:
            assert found in direct


def test_cayley_klein_classes():
    g = _geometry(F3, STD, (0, 0, 0, 0, 1), (0, 0, 0, 1, 0))
    classes = cayley_klein_points(g)
    sizes = [len(c) for c in classes]
    assert all(s <= 2 for s in sizes)
    total = sum(sizes)
    pts = [p for p in lie_quadric_points(g)
           if g.form.b_full(g.p_rep, p.coords).is_zero()]
    assert total == len(pts)  # the classes partition the points
    # isotropic L over F_3: tangency decides class sizes 1 or 2
    g2 = representative_geometry(
        next(c for c in enumerate_classes(F3, 2)
             if c.qp is SquareClass.NON_RESIDUE and c.ql is SquareClass.ZERO))
    sizes2 = {len(c) for c in cayley_klein_points(g2)}
    assert sizes2 <= {1, 2}


def _point_queries(g, order):
    """points_of on every quadric cycle, cayley_klein_points and
    has_point_search, run in the given order."""
    calls = {
        "points_of": lambda: tuple(points_of(g, c)
                                   for c in lie_quadric_points(g)),
        "cayley_klein_points": lambda: cayley_klein_points(g),
        "has_point_search": lambda: has_point_search(g),
    }
    return {name: calls[name]() for name in order}


@pytest.mark.parametrize("field,d", [(F3, 2), (F5, 2), (CharTwo(4), 3)],
                         ids=["fp:3", "fp:5", "f4"])
def test_point_queries_repeat_identically(field, d):
    """The cached points in P^perp give the same answers cold and warm,
    whichever query builds the cache."""
    names = ["points_of", "cayley_klein_points", "has_point_search"]
    for cls in enumerate_classes(field, d):
        first = representative_geometry(cls)
        forward = _point_queries(first, names)
        second = representative_geometry(cls)
        backward = _point_queries(second, names[::-1])
        assert forward == backward
        assert _point_queries(first, names) == forward
        assert _point_queries(second, names) == forward


def test_duality():
    g = _geometry(F3, STD, (0, 0, 0, 0, 1), (0, 0, 0, 1, 0))
    d = g.dual()
    dd = d.dual()
    assert dd.p_rep == g.p_rep and dd.l_rep == g.l_rep
    for c in lie_quadric_points(g):
        r1 = role(g, c)
        r2 = role(d, c)
        swap = {Role.POINT: Role.HYPERPLANE, Role.HYPERPLANE: Role.POINT,
                Role.IDEAL: Role.IDEAL,
                Role.GENERIC_CYCLE: Role.GENERIC_CYCLE}
        assert r2 is swap[r1]
    # the dual of the hyperbolic plane is the de Sitter class
    from conformal.models import ModelKind, exact_model_geometry
    from conformal.classify import classify
    hyp = exact_model_geometry(ModelKind.HYPERBOLIC)
    assert classify(hyp.dual()).name == "dual hyperbolic"


def test_nondegeneracy_matches_incident_pair_definition():
    """Witt index >= 2 iff there is an incident non-ideal point and
    non-ideal hyperplane (sampled over (P, L) pairs of F_3 forms)."""
    for entries in (STD, [1, 1, 1, 1, -1]):
        form = QuadraticForm.diagonal(F3, entries)
        pts = [linalg.vector(F3, x) for x in linalg.projective_points(F3, 5)]
        quadric = [v for v in pts if form(v).is_zero()]
        pairs = ((p, l) for p in pts for l in pts
                 if form.b_full(p, l).is_zero()
                 and ref_independent([p, l], F3))
        for p, l in itertools.islice(pairs, 0, 400, 7):
            g = Geometry(form, p, l)
            points = [c for c in quadric
                      if form.b_full(p, c).is_zero()
                      and not form.b_full(l, c).is_zero()]
            planes = [c for c in quadric
                      if form.b_full(l, c).is_zero()
                      and not form.b_full(p, c).is_zero()]
            pair_exists = any(form.b_full(cp, cl).is_zero()
                              for cp in points for cl in planes)
            assert non_degenerate_geometry(g) == pair_exists
