"""The classical real models: lifts, roles, closed-form separations."""

import hashlib
import itertools
import math
import random

import pytest

from conformal import models
from conformal.classify import classify
from conformal.fields import ApproxReal
from conformal.geometry import (Geometry, Role, incident,
                                inversive_separation, relative_power, role)
from conformal.models import (MAX_MODEL_N, ModelError, ModelKind,
                              ModelObject, base_distance, check_separation,
                              cycles_at_angle, exact_model_geometry,
                              expected_point_separation, intersection_angle,
                              lift_cycle, lift_hypercycle, lift_line,
                              lift_parabola, lift_paracycle, lift_point,
                              model_geometry, points_at_distance)

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


@pytest.mark.parametrize("kind", CURVED, ids=lambda k: k.value)
def test_model_dimension_is_capped(kind):
    """A dimension above ``MAX_MODEL_N`` is one ModelError raised before
    the base metric is built; the cap itself is a model."""
    for build in (model_geometry, exact_model_geometry):
        for n in (MAX_MODEL_N + 1, 10 ** 18):
            with pytest.raises(ModelError, match=f"got {n}$"):
                build(kind, n)
    assert model_geometry(kind, MAX_MODEL_N).n == MAX_MODEL_N
    with pytest.raises(ModelError, match="models need"):
        lift_point(kind, (1.0,), n=10 ** 18)


@pytest.mark.parametrize("n", [2.5, 2.0, "2", None, True],
                         ids=repr)
def test_model_dimension_must_be_an_int(n):
    """A dimension that is not an int (a bool included) is one
    ModelError, raised before any model is built or looked up: 2.0 and
    True hash as the ints 2 and 1, so a lookup would return those
    models."""
    hyp = ModelKind.HYPERBOLIC
    model_geometry(hyp, 2)  # the n = 2 geometry and signs, cached first
    lift_paracycle((1.0, 0.0, 1.0), 1.0)
    message = f"model dimensions are ints; got {n!r}$"
    for call in (lambda: model_geometry(hyp, n),
                 lambda: exact_model_geometry(hyp, n),
                 lambda: lift_point(hyp, (0, 0, 1), n=n),
                 lambda: lift_paracycle((1.0, 0.0, 1.0), 1.0, n=n),
                 lambda: base_distance(hyp, (0, 0, 1), (0, 0, 1), n)):
        with pytest.raises(ModelError, match=message):
            call()


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


def test_check_separation_refuses_objects_of_another_model():
    """The objects must be lifts of the model checked: a hyperbolic pair
    measured in the elliptic model would give a plausible wrong pair."""
    pairs = {ModelKind.HYPERBOLIC: points_at_distance(ModelKind.HYPERBOLIC,
                                                      0.7),
             ModelKind.ELLIPTIC: cycles_at_angle(ModelKind.ELLIPTIC, 0.7,
                                                 0.45, 0.35)}
    mixed = (pairs[ModelKind.ELLIPTIC][0],
             lift_cycle(ModelKind.HYPERBOLIC, (0.0, 0.0, 1.0), 0.5))
    for kind, pair in ((ModelKind.ELLIPTIC, pairs[ModelKind.HYPERBOLIC]),
                       (ModelKind.HYPERBOLIC, pairs[ModelKind.ELLIPTIC]),
                       (ModelKind.ELLIPTIC, mixed),
                       (ModelKind.ELLIPTIC, mixed[::-1])):
        with pytest.raises(ModelError, match=f"a {kind.value} separation"):
            check_separation(kind, *pair)
    for kind, pair in pairs.items():
        value, expected = check_separation(kind, *pair)
        assert abs(value.value - expected) < 1e-9


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
    object, so their field checks pass on identity (two tolerances are
    two fields: ``test_one_object_per_field``)."""
    g = model_geometry(ModelKind.ELLIPTIC)
    lifts = [lift_point(ModelKind.ELLIPTIC, (0.6, 0.8, 0.0)),
             lift_line(ModelKind.ELLIPTIC, normal=(0.0, 0.0, 1.0)),
             lift_cycle(ModelKind.ELLIPTIC, (0.0, 0.0, 1.0), 0.5)]
    assert all(x.field is g.field for obj in lifts for x in obj.lift)
    assert model_geometry(ModelKind.HYPERBOLIC).field is g.field


# ---------------------------------------------------------------------------
# One geometry per model
# ---------------------------------------------------------------------------

def test_model_geometries_are_interned():
    """Each model over each field is one object; the float and exact
    geometries of a model are two."""
    for kind in ALL_KINDS:
        for n in _pin_dims(kind):
            g, ge = model_geometry(kind, n), exact_model_geometry(kind, n)
            assert g is model_geometry(kind, n)
            assert ge is exact_model_geometry(kind, n)
            assert g is not ge and g.field is not ge.field
            assert g.n == ge.n == n


def test_check_separation_builds_one_geometry_per_model(monkeypatch):
    """1,000 checks over the three curved models build three
    geometries, one per model, into an empty cache."""
    built = []
    init = Geometry.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(models, "_GEOMETRIES", {})
    monkeypatch.setattr(Geometry, "__init__", counting)
    pairs = [points_at_distance(kind, 0.5) for kind in CURVED] + \
        [cycles_at_angle(kind, 1.0, 0.45, 0.35) for kind in CURVED]
    for i in range(1000):
        o1, o2 = pairs[i % len(pairs)]
        check_separation(o1.kind, o1, o2)
    assert len(built) == 3


def _fresh_check(kind, o1, o2, n):
    """check_separation on a geometry built for this call alone: the
    per-call path that the interned geometry replaced."""
    g = Geometry(*models._build(ApproxReal(), kind, n))
    if o1.role_hint == "point":
        d = base_distance(kind, o1.params["coords"], o2.params["coords"], n)
        return (inversive_separation(g, o1.lift, o2.lift),
                expected_point_separation(kind, d))
    theta = intersection_angle(kind, o1, o2, n)
    return relative_power(g, o1.lift, o2.lift), math.cos(theta) - 1.0


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", CURVED, ids=lambda k: k.value)
def test_interned_checks_match_a_fresh_geometry(kind, n):
    """On the separations grid and a seeded sample, the interned
    geometry gives every separation and power bit for bit as a fresh
    build does."""
    rng = random.Random(n)
    grid = (0.1, 0.5, 1.0, 2.0)
    pairs = [points_at_distance(kind, d, n) for d in grid] + \
        [cycles_at_angle(kind, t, 0.45, 0.35, n) for t in grid]
    for _ in range(50):
        r1, r2 = rng.uniform(0.1, 1.4), rng.uniform(0.1, 1.4)
        pairs += [points_at_distance(kind, rng.uniform(0.0, 3.0), n),
                  cycles_at_angle(kind, rng.uniform(0.1, 3.0), r1, r2, n)]
    for o1, o2 in pairs:
        value, expected = check_separation(kind, o1, o2, n)
        want, want_expected = _fresh_check(kind, o1, o2, n)
        assert value.value.hex() == want.value.hex()
        assert expected.hex() == want_expected.hex()


# ---------------------------------------------------------------------------
# Every lift and model geometry, pinned
# ---------------------------------------------------------------------------

# the base metric of each model on its c-bar coordinates, stated here
# independently of models.py, used only to scale grid vectors onto the
# unit norms the lifts ask for
_PIN_BAR = {ModelKind.ELLIPTIC: lambda n: (1,) * (n + 1),
            ModelKind.HYPERBOLIC: lambda n: (1,) * n + (-1,),
            ModelKind.PARABOLIC: lambda n: (1,) * n,
            ModelKind.MINKOWSKI2: lambda n: (1, -1),
            ModelKind.DE_SITTER: lambda n: (1, 1, -1),
            ModelKind.ANTI_DE_SITTER: lambda n: (1, -1, -1),
            ModelKind.LAGUERRE_GALILEI: lambda n: (1, 1)}
_PIN_PLANE = (ModelKind.MINKOWSKI2, ModelKind.DE_SITTER,
              ModelKind.ANTI_DE_SITTER, ModelKind.LAGUERRE_GALILEI)


def _pin_dims(kind):
    return (2,) if kind in _PIN_PLANE else (1, 2, 3)


def _pin_vectors(kind, n):
    """Grid vectors of the model's base length, each as drawn and, when
    its norm is not zero, scaled to norm +-1; and two of each length one
    off."""
    bar = _PIN_BAR[kind](n)
    for length in (len(bar) - 1, len(bar) + 1):
        yield from itertools.islice(
            itertools.product((2, 0, -1), repeat=length), 2)
    for v in itertools.product((-1, 0, 2), repeat=len(bar)):
        yield v
        norm = sum(s * x * x for s, x in zip(bar, v))
        if norm:
            yield tuple(x / math.sqrt(abs(norm)) for x in v)


def _pin_text(value):
    if isinstance(value, ModelObject):
        return (f"{value.kind.value} {value.role_hint} "
                f"{sorted(value.params.items())} "
                f"{[repr(x.value) for x in value.lift]} "
                f"{value.lift[0].field.token()}")
    if isinstance(value, tuple):
        return " ".join(_pin_text(v) for v in value)
    if hasattr(value, "form"):  # a model geometry
        return (f"{value.field.token()} {value.form.dim} "
                f"{value.form._terms} {value._p_raw} {value._l_raw}")
    return repr(value.value if hasattr(value, "value") else value)


def _pin_records():
    def record(call, *args, **kw):
        try:
            out = _pin_text(call(*args, **kw))
        except ModelError as exc:
            out = f"ModelError: {exc}"
        return f"{call.__name__}{args}{sorted(kw.items())} -> {out}"

    for kind in ALL_KINDS:
        for n in range(0, 5):
            yield record(model_geometry, kind, n)
            yield record(exact_model_geometry, kind, n)
        for n in _pin_dims(kind):
            for v in _pin_vectors(kind, n):
                yield record(lift_point, kind, v, n=n)
                if kind is ModelKind.LAGUERRE_GALILEI:
                    continue
                for r in (-0.7, 0.0, 1.3):
                    yield record(lift_cycle, kind, v, r, n=n)
                for s in (1, -1):
                    for offset in (0.0, 0.5):
                        yield record(lift_line, kind, v, offset=offset,
                                     orientation=s, n=n)
                if kind is ModelKind.HYPERBOLIC:
                    for lam in (0.7, -1.5):
                        yield record(lift_paracycle, v, lam, n=n)
                    for d in (0.4, -1.1, 0.0):
                        yield record(lift_hypercycle, v, d, n=n)
    lag = ModelKind.LAGUERRE_GALILEI
    grid = (-1, 0, 0.5, 2)
    for a, b, c in itertools.product(grid, repeat=3):
        yield record(lift_parabola, a, b, c)
    for m, b, s in itertools.product(grid, grid, (1, 0, -1)):
        yield record(lift_line, lag, slope=m, intercept=b, orientation=s)
    yield record(lift_line, lag)
    yield record(lift_line, lag, slope=1.0)
    yield record(lift_cycle, lag, (0.0, 0.0), 1.0)
    for kind in CURVED:
        for d in (0.3, 1.7):
            yield record(points_at_distance, kind, d)
            yield record(check_separation, kind,
                         *points_at_distance(kind, d))
        for theta in (0.4, 2.2):
            yield record(cycles_at_angle, kind, theta, 0.45, 0.35)
            yield record(check_separation, kind,
                         *cycles_at_angle(kind, theta, 0.45, 0.35))
        pair = (points_at_distance(kind, 0.3)[0],
                cycles_at_angle(kind, 0.4, 0.45, 0.35)[0])
        yield record(check_separation, kind, *pair)


def test_lifts_wrap_raw_floats(monkeypatch):
    """Every lift of the pinned grid, of every lift kind, is its raw
    floats wrapped as they are: each coordinate's value is a float and
    the lift equals the coordinate rule's reading of the raw tuple, bit
    for bit."""
    lifts = []
    lift = models._lift

    def recorded(kind, role_hint, params, raw):
        obj = lift(kind, role_hint, params, raw)
        lifts.append((raw, obj))
        return obj

    monkeypatch.setattr(models, "_lift", recorded)
    for _ in _pin_records():
        pass
    real = ApproxReal()
    assert {obj.role_hint for _, obj in lifts} == {
        "point", "cycle", "line", "paracycle", "hypercycle"}
    for raw, obj in lifts:
        assert all(type(x.value) is float and x.field is real
                   for x in obj.lift)
        want = tuple(map(real.scalar, raw))
        assert [x.value.hex() for x in obj.lift] == \
            [x.value.hex() for x in want]


# recorded before the lifts were read off one table
LIFTS_DIGEST = (6868, "c288fad90081b7197daeab6bf9cf98b049e5bab"
                          "496919895ab9187e087141155")


def test_every_lift_and_model_geometry_is_pinned():
    """Every lift on a fixed grid (every model, orientation and n that
    lifts), the params and role hints, the form terms, P and L of each
    model geometry and each ModelError message on the grid's refused
    inputs hash to one recorded digest."""
    digest = hashlib.sha256()
    count = 0
    for line in _pin_records():
        digest.update(line.encode() + b"\n")
        count += 1
    assert (count, digest.hexdigest()) == LIFTS_DIGEST
