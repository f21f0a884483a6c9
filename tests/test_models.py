"""The classical real models: lifts, roles, closed-form separations."""

import math
import random

import pytest

from conformal.classify import classify
from conformal.fields import FieldMismatchError
from conformal.geometry import Role, incident, inversive_separation, role
from conformal.models import (ModelError, ModelKind, check_separation,
                              cycles_at_angle, exact_model_geometry,
                              expected_point_separation, lift_cycle,
                              lift_hypercycle, lift_line, lift_parabola,
                              lift_paracycle, lift_point, model_geometry,
                              points_at_distance)

ALL_KINDS = list(ModelKind)
CURVED = (ModelKind.ELLIPTIC, ModelKind.HYPERBOLIC, ModelKind.PARABOLIC)


def test_model_geometries_are_valid():
    for kind in ALL_KINDS:
        g = model_geometry(kind)
        assert g.n == 2
        ge = exact_model_geometry(kind)
        assert not ge.form.b_full(ge.p_rep, ge.l_rep)


def test_exact_models_classify_to_their_cells():
    expected = {
        ModelKind.ELLIPTIC: "elliptic",
        ModelKind.HYPERBOLIC: "hyperbolic",
        ModelKind.PARABOLIC: "parabolic",
        ModelKind.MINKOWSKI2: "Minkowski",
        ModelKind.DE_SITTER: "dual hyperbolic",
        ModelKind.ANTI_DE_SITTER: "anti-de Sitter",
        ModelKind.LAGUERRE_GALILEI: "Laguerre/Galilei",
    }
    for kind, name in expected.items():
        assert classify(exact_model_geometry(kind)).name == name


def test_point_lift_examples():
    p = lift_point(ModelKind.ELLIPTIC, (1, 0, 0))
    assert [x.value for x in p.lift] == [1.0, 0.0, 0.0, 1.0, 0.0]
    g = model_geometry(ModelKind.ELLIPTIC)
    assert role(g, p.lift) is Role.POINT
    pp = lift_point(ModelKind.PARABOLIC, (2.0, 1.0))
    assert [x.value for x in pp.lift] == [2.0, 1.0, -5.0, 1.0, 0.0]
    lg = lift_point(ModelKind.LAGUERRE_GALILEI, (2.0, 3.0))
    assert [x.value for x in lg.lift] == [2.0, 3.0, 1.0, -4.0, 0.0]
    gl = model_geometry(ModelKind.LAGUERRE_GALILEI)
    assert role(gl, lg.lift) is Role.POINT


def test_normalization_errors():
    with pytest.raises(ModelError):
        lift_point(ModelKind.ELLIPTIC, (1, 1, 0))  # not on the sphere
    with pytest.raises(ModelError):
        lift_cycle(ModelKind.HYPERBOLIC, (0, 0, 2), 1.0)
    with pytest.raises(ModelError):
        lift_line(ModelKind.PARABOLIC, (2, 0), offset=1.0)


# the number of base coordinates each model's point lift takes (n = 2)
BASE_LENGTH = {ModelKind.ELLIPTIC: 3, ModelKind.HYPERBOLIC: 3,
               ModelKind.PARABOLIC: 2, ModelKind.MINKOWSKI2: 2,
               ModelKind.DE_SITTER: 3, ModelKind.ANTI_DE_SITTER: 3,
               ModelKind.LAGUERRE_GALILEI: 2}


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_lifts_reject_coordinates_of_the_wrong_length(kind):
    """A point (or a center) of the wrong length is refused with the
    model and the counts wanted and given, never lifted truncated."""
    want = BASE_LENGTH[kind]
    for got in (1, want + 1):
        coords = (1.0,) + (0.0,) * (got - 1)
        message = f"{kind.value} .*need {want} coordinates; got {got}"
        with pytest.raises(ModelError, match=message):
            lift_point(kind, coords)
        if kind is not ModelKind.LAGUERRE_GALILEI:
            with pytest.raises(ModelError, match=message):
                lift_cycle(kind, coords, 0.5)


def test_all_grid_separations():
    for kind in CURVED:
        for d in (0.1, 0.5, 1.0, 2.0):
            o1, o2 = points_at_distance(kind, d)
            value, expected = check_separation(kind, o1, o2)
            assert abs(value.value - expected) < 1e-9
            assert abs(expected - expected_point_separation(kind, d)) < 1e-12
        for theta in (0.1, 0.5, 1.0, 2.0):
            c1, c2 = cycles_at_angle(kind, theta, 0.45, 0.35)
            value, expected = check_separation(kind, c1, c2)
            assert abs(value.value - expected) < 1e-9
            assert abs(expected - (math.cos(theta) - 1.0)) < 1e-12


def test_named_separation_values():
    # points at a right angle on the sphere: cos(pi/2) - 1 = -1
    o1, o2 = points_at_distance(ModelKind.ELLIPTIC, math.pi / 2)
    value, _ = check_separation(ModelKind.ELLIPTIC, o1, o2)
    assert abs(value.value + 1.0) < 1e-9
    # coincident hyperbolic points separate to zero
    o1, o2 = points_at_distance(ModelKind.HYPERBOLIC, 0.0)
    value, _ = check_separation(ModelKind.HYPERBOLIC, o1, o2)
    assert abs(value.value) < 1e-9
    # orthogonal unit circles in the plane: centers sqrt(2) apart
    c1 = lift_cycle(ModelKind.PARABOLIC, (0.0, 0.0), 1.0)
    c2 = lift_cycle(ModelKind.PARABOLIC, (math.sqrt(2.0), 0.0), 1.0)
    value, expected = check_separation(ModelKind.PARABOLIC, c1, c2)
    assert abs(value.value + 1.0) < 1e-9 and abs(expected + 1.0) < 1e-12


def test_lift_quadric_membership_random():
    rng = random.Random(0)
    g = model_geometry(ModelKind.HYPERBOLIC)
    for _ in range(200):
        x, y = rng.uniform(-3, 3), rng.uniform(-3, 3)
        c = (x, y, math.sqrt(1 + x * x + y * y))
        for obj in (lift_point(ModelKind.HYPERBOLIC, c),
                    lift_cycle(ModelKind.HYPERBOLIC, c, rng.uniform(-2, 2))):
            assert abs(g.form(obj.lift).value) < 1e-9


def test_paracycle_and_hypercycle():
    g = model_geometry(ModelKind.HYPERBOLIC)
    para = lift_paracycle((1.0, 0.0, 1.0), 0.7)
    assert abs(g.form(para.lift).value) < 1e-9
    hyper = lift_hypercycle((0.0, 1.0, 0.0), 0.4)
    assert abs(g.form(hyper.lift).value) < 1e-9
    assert role(g, hyper.lift) is Role.GENERIC_CYCLE
    # at distance zero the hypercycle degenerates to the oriented line
    line = lift_hypercycle((0.0, 1.0, 0.0), 0.0)
    assert role(g, line.lift) is Role.HYPERPLANE


def test_tangency_is_incidence_with_matching_orientation():
    g = model_geometry(ModelKind.PARABOLIC)
    # externally tangent circles touch with opposite orientation signs,
    # internally tangent ones with equal signs
    c0 = lift_cycle(ModelKind.PARABOLIC, (0.0, 0.0), 1.0)
    ext_same = lift_cycle(ModelKind.PARABOLIC, (3.0, 0.0), 2.0)
    ext_opp = lift_cycle(ModelKind.PARABOLIC, (3.0, 0.0), -2.0)
    assert not incident(g, c0.lift, ext_same.lift)
    assert incident(g, c0.lift, ext_opp.lift)
    int_same = lift_cycle(ModelKind.PARABOLIC, (1.0, 0.0), 2.0)
    assert incident(g, c0.lift, int_same.lift)
    far = lift_cycle(ModelKind.PARABOLIC, (10.0, 0.0), 2.0)
    assert not incident(g, c0.lift, far.lift)


def test_minkowski_and_laguerre_line_coverage():
    with pytest.raises(ModelError):
        lift_line(ModelKind.MINKOWSKI2, (0.0, 1.0), offset=0.5)  # timelike
    ok = lift_line(ModelKind.MINKOWSKI2, (1.0, 0.0), offset=0.5)
    g = model_geometry(ModelKind.MINKOWSKI2)
    assert role(g, ok.lift) is Role.HYPERPLANE
    with pytest.raises(ModelError):
        lift_line(ModelKind.LAGUERRE_GALILEI)  # verticals have no chart


def test_laguerre_lines_and_parabolas():
    g = model_geometry(ModelKind.LAGUERRE_GALILEI)
    line = lift_line(ModelKind.LAGUERRE_GALILEI, slope=2.0, intercept=-1.0)
    assert role(g, line.lift) is Role.HYPERPLANE
    for x in (-1.0, 0.0, 2.5):
        p = lift_point(ModelKind.LAGUERRE_GALILEI, (x, 2.0 * x - 1.0))
        assert incident(g, line.lift, p.lift)
    off = lift_point(ModelKind.LAGUERRE_GALILEI, (0.0, 5.0))
    assert not incident(g, line.lift, off.lift)
    par = lift_parabola(1.0, 0.0, 0.0)  # y = x^2
    assert abs(g.form(par.lift).value) < 1e-9
    for x in (-2.0, 0.5):
        p = lift_point(ModelKind.LAGUERRE_GALILEI, (x, x * x))
        assert incident(g, par.lift, p.lift)


def test_de_sitter_lifts():
    g = model_geometry(ModelKind.DE_SITTER)
    p = lift_point(ModelKind.DE_SITTER, (1.0, 0.0, 0.0))
    assert role(g, p.lift) is Role.POINT
    c = lift_cycle(ModelKind.DE_SITTER, (0.0, 0.0, 1.0), 0.6)
    assert abs(g.form(c.lift).value) < 1e-9
    l = lift_line(ModelKind.DE_SITTER, (0.0, 0.0, 1.0))
    assert role(g, l.lift) is Role.HYPERPLANE
    ads = model_geometry(ModelKind.ANTI_DE_SITTER)
    pa = lift_point(ModelKind.ANTI_DE_SITTER, (0.0, 1.0, 0.0))
    assert role(ads, pa.lift) is Role.POINT
    ca = lift_cycle(ModelKind.ANTI_DE_SITTER, (0.0, 1.0, 0.0), 0.8)
    assert abs(ads.form(ca.lift).value) < 1e-9


def test_power_depends_on_fixed_representative():
    """Rescaling the stored L representative changes separations by a
    square factor; the fixed representative is part of the geometry."""
    from conformal.geometry import Geometry
    g = model_geometry(ModelKind.ELLIPTIC)
    o1, o2 = points_at_distance(ModelKind.ELLIPTIC, 1.0)
    base = inversive_separation(g, o1.lift, o2.lift).value
    scaled = Geometry(g.form, g.p_rep,
                      tuple(x * 2 for x in g.l_rep))
    doubled = inversive_separation(scaled, o1.lift, o2.lift).value
    assert abs(base - 4.0 * doubled) < 1e-9


def test_lifts_share_the_field_of_the_model_geometry():
    """A model geometry and the objects lifted into it share one field
    object per tolerance, so their field checks pass on identity; another
    tolerance gets a field of its own that still works, and its lifts
    are refused by a geometry at the first."""
    g = model_geometry(ModelKind.ELLIPTIC)
    lifts = [lift_point(ModelKind.ELLIPTIC, (0.6, 0.8, 0.0)),
             lift_line(ModelKind.ELLIPTIC, normal=(0.0, 0.0, 1.0)),
             lift_cycle(ModelKind.ELLIPTIC, (0.0, 0.0, 1.0), 0.5)]
    assert all(x.field is g.field for obj in lifts for x in obj.lift)
    assert model_geometry(ModelKind.HYPERBOLIC).field is g.field
    coarse = model_geometry(ModelKind.ELLIPTIC, eps=1e-6)
    assert coarse.field is not g.field and coarse.field.eps == 1e-6
    pt = lift_point(ModelKind.ELLIPTIC, (0.6, 0.8, 0.0), eps=1e-6)
    assert pt.lift[0].field is coarse.field
    assert role(coarse, pt.lift) is Role.POINT
    with pytest.raises(FieldMismatchError):
        role(g, pt.lift)
