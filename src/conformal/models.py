"""Floating-point constructors for the classical real plane geometries.

Every model is one row of ``_MODELS``.  Its base metric ``bar`` on the
c-bar coordinates is n + k signs +1, then m signs -1.  A curved model's
form is bar + [Q(L), Q(P)], with P the last and L the second-to-last
unit vector:

* (Q(L), Q(P)) is elliptic (-1, -1), hyperbolic (+1, -1), de Sitter
  (-1, +1) and anti-de Sitter (+1, +1);
* a point is (c, 1, 0) with bar(c) = -Q(L) and a polar line (l, 0, +-1)
  has bar(l) = -Q(P);
* a cycle of center c and signed radius r is (c, a, b), where (a, b) is
  the point of radius r on the conic Q(L) a^2 + Q(P) b^2 = -bar(c):
  (cos r, sin r), (cosh r, sinh r), (sinh r, cosh r) and (cos r, sin r).

The two flat models, parabolic and Minkowski, share bar + (tz - w^2)
with P the last unit vector and L = 2 e_n: points (c, -bar(c), 1, 0),
cycles (c, r^2 - bar(c), 1, r) and lines (l, -2d, 0, +-1) with
bar(l) = 1.  The Minkowski chart has Q(P) = -1 (the class normalization
flips it to the positive-P convention) and lifts spacelike line normals
only.  Laguerre/Galilei keeps its own row: x1^2 + tz - yw with P = e_1
and L = e_3 both isotropic, points (x, y, 1, -x^2, 0), vertical-axis
parabolas and non-vertical lines.  The hyperbolic model also lifts
distance-d hypercycles (l, sinh d, cosh d) and paracycles (u, s, s).
Minkowski, de Sitter, anti-de Sitter and Laguerre are plane models;
the others take any n from 1 to ``MAX_MODEL_N``.

Each model has one geometry per field, built by ``_geometry`` on first
request and kept, so its P and L pairings are built once.  Every lift
is wrapped once, by ``_lift``, which refuses a coordinate that is not
finite.  The numeric separation and power values follow the
half-bilinear convention, which is why the flat L representative is the
doubled basis vector.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .fields import ApproxReal, ConformalError, Rational, Scalar
from .geometry import Geometry, inversive_separation, relative_power
from .quadform import QuadraticForm


# the largest model dimension n: a model is refused above it before its
# base metric, a tuple of n signs, is built
MAX_MODEL_N = 64


class ModelError(ConformalError):
    """Bad model parameters (unsupported kind, non-normalized input,
    unliftable object)."""


class ModelKind(Enum):
    ELLIPTIC = "elliptic"
    HYPERBOLIC = "hyperbolic"
    PARABOLIC = "parabolic"
    MINKOWSKI2 = "minkowski"
    DE_SITTER = "de-sitter"
    ANTI_DE_SITTER = "anti-de-sitter"
    LAGUERRE_GALILEI = "laguerre"


class _Model(NamedTuple):
    """A row of the model table (module docstring)."""
    bar: tuple  # (k, m) of the base metric; None: Laguerre
    signs: tuple = None  # (Q(L), Q(P)); None: the flat block
    conic: tuple = None  # (a, b) of radius r, curved only
    plane: bool = False  # n = 2 only


_MODELS = {
    ModelKind.ELLIPTIC: _Model((1, 0), (-1, -1), (math.cos, math.sin)),
    ModelKind.HYPERBOLIC: _Model((0, 1), (1, -1), (math.cosh, math.sinh)),
    ModelKind.PARABOLIC: _Model((0, 0)),
    ModelKind.MINKOWSKI2: _Model((-1, 1), plane=True),
    ModelKind.DE_SITTER: _Model((0, 1), (-1, 1), (math.sinh, math.cosh),
                                plane=True),
    ModelKind.ANTI_DE_SITTER: _Model((-1, 2), (1, 1), (math.cos, math.sin),
                                     plane=True),
    ModelKind.LAGUERRE_GALILEI: _Model(None, plane=True),
}


def _center_norm(row: _Model) -> float:
    """The base norm of a curved model's cycle centers: minus the form
    at the conic point of radius 0."""
    (ql, qp), (a, b) = row.signs, row.conic
    return -(ql * a(0.0) * a(0.0) + qp * b(0.0) * b(0.0))


_CENTER_NORMS = {kind: _center_norm(row)
                 for kind, row in _MODELS.items() if row.signs}


@dataclass(frozen=True)
class ModelObject:
    kind: ModelKind
    role_hint: str  # point | cycle | line | paracycle | hypercycle
    params: dict
    lift: tuple

    def __repr__(self):
        return f"ModelObject({self.kind.value} {self.role_hint} {self.params})"


def _model(kind: ModelKind, n: int) -> _Model:
    """The table row of the model, for a dimension n it has."""
    row = _MODELS.get(kind)
    if row is None:
        raise ModelError(f"unknown model {kind}")
    if type(n) is not int:  # a float or a bool would key an int's model
        raise ModelError(f"model dimensions are ints; got {n!r}")
    if row.plane and n != 2:
        raise ModelError(f"{kind.value} is a plane model (n = 2)")
    if n < 1:
        raise ModelError("models need n >= 1")
    if n > MAX_MODEL_N:
        raise ModelError(f"models need n <= {MAX_MODEL_N}; got {n}")
    return row


def _build(field, kind: ModelKind, n: int):
    """(form, P_rep, L_rep) over the given field, read off the table."""
    row = _model(kind, n)
    if row.bar is None:  # Laguerre/Galilei: x1^2 + tz - yw
        form = QuadraticForm(field, 5, {(0, 0): 1, (2, 3): 1, (1, 4): -1})
        return form, (0, 1, 0, 0, 0), (0, 0, 0, 1, 0)
    bar = _bar_metric(kind, n)
    m = len(bar)
    coeffs = {(i, i): s for i, s in enumerate(bar)}
    if row.signs:  # bar + [Q(L), Q(P)], L = e_m
        coeffs[m, m], coeffs[m + 1, m + 1] = row.signs
        dim, l = m + 2, 1
    else:  # bar + (tz - w^2), L = 2 e_m
        coeffs[m, m + 1], coeffs[m + 2, m + 2] = 1, -1
        dim, l = m + 3, 2
    return (QuadraticForm(field, dim, coeffs), (0,) * (dim - 1) + (1,),
            tuple(l if i == m else 0 for i in range(dim)))


_GEOMETRIES: dict = {}  # (field, kind, n) -> the one model geometry


def _geometry(field, kind: ModelKind, n: int) -> Geometry:
    """The one geometry of the model over the field, built on first
    request; (kind, n) is checked before the lookup."""
    _model(kind, n)
    g = _GEOMETRIES.get((field, kind, n))
    if g is None:
        g = _GEOMETRIES[field, kind, n] = Geometry(*_build(field, kind, n))
    return g


def model_geometry(kind: ModelKind, n: int = 2) -> Geometry:
    """The floating-point model geometry with its fixed P and L."""
    return _geometry(ApproxReal(), kind, n)


def exact_model_geometry(kind: ModelKind, n: int = 2) -> Geometry:
    """The same model over exact rationals (for classification)."""
    return _geometry(Rational(), kind, n)


# typed, so 2.0 and True are checked by _model, never read an int's entry
@functools.lru_cache(maxsize=None, typed=True)
def _signs(kind: ModelKind, n: int) -> tuple:
    """The base metric signs of the model, built once per (kind, n)."""
    k, m = _model(kind, n).bar
    return (1,) * (n + k) + (-1,) * m


def _bar_metric(kind: ModelKind, n: int, *vectors):
    """Signs of the model's base metric on the c-bar coordinates, once
    each of the vectors is checked to have that many coordinates."""
    metric = _signs(kind, n)
    for x in vectors:
        if len(x) != len(metric):
            raise ModelError(f"{kind.value} base vectors need {len(metric)} "
                             f"coordinates; got {len(x)}")
    return metric


def _bar_dot(kind, n, u, v):
    metric = _bar_metric(kind, n, u, v)
    return sum(s * a * b for s, a, b in zip(metric, u, v))


def _bar_norm(kind, n, u):
    return _bar_dot(kind, n, u, u)


def _need_norm(kind, n, coords, want, what="centers/normals"):
    got = _bar_norm(kind, n, coords)
    if abs(got - want) > 1e-7:
        raise ModelError(
            f"{kind.value} {what} need base norm {want}; got {got}")


def _lift(kind: ModelKind, role_hint: str, params: dict,
          lift: tuple) -> ModelObject:
    """The model object of a lift, its raw float coordinates wrapped
    over ApproxReal; a lift that overflowed is refused."""
    if not all(map(math.isfinite, lift)):
        raise ModelError(f"the {kind.value} {role_hint} lift is not "
                         f"finite: {lift}")
    field = ApproxReal()
    return ModelObject(kind, role_hint, params,
                       tuple([Scalar(a, field) for a in lift]))


def lift_point(kind: ModelKind, coords, n: int = 2) -> ModelObject:
    """Lift model-space coordinates onto the quadric as a pointcycle."""
    coords = tuple(float(x) for x in coords)
    row = _model(kind, n)
    if row.bar is None:  # Laguerre/Galilei
        if len(coords) != 2:
            raise ModelError(f"{kind.value} points need 2 coordinates; "
                             f"got {len(coords)}")
        x, y = coords
        lift = (x, y, 1.0, -x * x, 0.0)
    elif row.signs:
        _need_norm(kind, n, coords, float(-row.signs[0]), "points")
        lift = coords + (1.0, 0.0)
    else:
        lift = coords + (-_bar_norm(kind, n, coords), 1.0, 0.0)
    return _lift(kind, "point", {"coords": coords}, lift)


def lift_cycle(kind: ModelKind, center, radius, n: int = 2) -> ModelObject:
    """Lift a cycle of the given center and signed radius (the sign is
    the orientation)."""
    r = float(radius)
    row = _model(kind, n)
    if row.bar is None:
        raise ModelError("Laguerre cycles are parabolas; use lift_parabola")
    center = tuple(float(x) for x in center)
    if row.signs:
        a, b = row.conic
        _need_norm(kind, n, center, _CENTER_NORMS[kind])
        lift = center + (a(r), b(r))
    else:
        lift = center + (r * r - _bar_norm(kind, n, center), 1.0, r)
    return _lift(kind, "cycle", {"center": center, "radius": r}, lift)


def lift_line(kind: ModelKind, normal=None, offset=0.0, orientation=1,
              slope=None, intercept=None, n: int = 2) -> ModelObject:
    """Lift an oriented line (hyperplane for general n).

    Curved models take a normal vector of the appropriate base norm and
    an orientation sign; the flat models take a unit normal and offset;
    Laguerre lines are given by slope and intercept.  Lines the chart
    cannot carry (timelike Minkowski normals, vertical Laguerre lines)
    raise ModelError.
    """
    s = 1.0 if orientation >= 0 else -1.0
    row = _model(kind, n)
    if row.bar is None:
        if slope is None or intercept is None:
            raise ModelError("Laguerre lines take slope= and intercept=")
        m, b = float(slope), float(intercept)
        lift = (s * m / 2.0, s * m * m / 4.0, 0.0, s * b, s)
        return _lift(kind, "line", {"slope": m, "intercept": b,
                                    "orientation": s}, lift)
    normal = tuple(float(x) for x in normal)
    if row.signs:
        _need_norm(kind, n, normal, float(-row.signs[1]))
        lift = normal + (0.0, s)
    else:
        got = _bar_norm(kind, n, normal)
        if abs(got - 1.0) > 1e-7:
            if got < 0:  # only the Minkowski bar is indefinite
                raise ModelError(
                    "timelike line normals are not liftable in this chart "
                    "(they belong to the second model)")
            raise ModelError(f"line normals must have base norm 1; got {got}")
        d = float(offset)
        lift = tuple(s * x for x in normal) + (-2.0 * s * d, 0.0, s)
    return _lift(kind, "line", {"normal": normal, "offset": float(offset),
                                "orientation": s}, lift)


def lift_parabola(a, b, c) -> ModelObject:
    """The Laguerre cycle y = a x^2 + b x + c (vertical-axis parabola)."""
    a, b, c = float(a), float(b), float(c)
    lift = (b / 2.0, b * b / 4.0 - a * c, -a, c, 1.0)
    return _lift(ModelKind.LAGUERRE_GALILEI, "cycle",
                 {"a": a, "b": b, "c": c}, lift)


def lift_paracycle(u, lam, n: int = 2) -> ModelObject:
    """Hyperbolic paracycle (u, lam, lam) centered on the ideal point u."""
    u = tuple(float(x) for x in u)
    if abs(_bar_norm(ModelKind.HYPERBOLIC, n, u)) > 1e-7:
        raise ModelError("paracycle centers are ideal: base norm 0")
    lift = u + (float(lam), float(lam))
    return _lift(ModelKind.HYPERBOLIC, "paracycle",
                 {"ideal": u, "lam": float(lam)}, lift)


def lift_hypercycle(normal, d, n: int = 2) -> ModelObject:
    """Hyperbolic hypercycle at signed distance d from the line with the
    given unit normal: (l, sinh d, cosh d)."""
    normal = tuple(float(x) for x in normal)
    _need_norm(ModelKind.HYPERBOLIC, n, normal, 1.0)
    lift = normal + (math.sinh(float(d)), math.cosh(float(d)))
    return _lift(ModelKind.HYPERBOLIC, "hypercycle",
                 {"normal": normal, "d": float(d)}, lift)


# ---------------------------------------------------------------------------
# Closed-form cross checks
# ---------------------------------------------------------------------------

def base_distance(kind: ModelKind, c1, c2, n: int = 2) -> float:
    """Model-space distance between two point coordinates."""
    if kind is ModelKind.ELLIPTIC:
        return math.acos(max(-1.0, min(1.0, _bar_dot(kind, n, c1, c2))))
    if kind is ModelKind.HYPERBOLIC:
        return math.acosh(max(1.0, -_bar_dot(kind, n, c1, c2)))
    if kind is ModelKind.PARABOLIC:
        diff = tuple(a - b for a, b in zip(c1, c2))
        return math.sqrt(_bar_norm(kind, n, diff))
    raise ModelError(f"no closed-form distance for {kind.value}")


def expected_point_separation(kind: ModelKind, distance: float) -> float:
    """The stated closed forms: cos(d)-1, 1-cosh(d), -d^2/2."""
    if kind is ModelKind.ELLIPTIC:
        return math.cos(distance) - 1.0
    if kind is ModelKind.HYPERBOLIC:
        return 1.0 - math.cosh(distance)
    if kind is ModelKind.PARABOLIC:
        return -0.5 * distance * distance
    raise ModelError(f"no closed-form separation for {kind.value}")


def intersection_angle(kind: ModelKind, o1: ModelObject, o2: ModelObject,
                       n: int = 2) -> float:
    """Angle of two intersecting cycles, from the model parameters only
    (the law of cosines of the base geometry)."""
    c1, r1 = o1.params["center"], o1.params["radius"]
    c2, r2 = o2.params["center"], o2.params["radius"]
    if kind is ModelKind.PARABOLIC:
        d2 = _bar_norm(kind, n, tuple(a - b for a, b in zip(c1, c2)))
        cos_t = (r1 * r1 + r2 * r2 - d2) / (2.0 * r1 * r2)
    elif kind is ModelKind.ELLIPTIC:
        cos_d = _bar_dot(kind, n, c1, c2)
        cos_t = (cos_d - math.cos(r1) * math.cos(r2)) / \
            (math.sin(r1) * math.sin(r2))
    elif kind is ModelKind.HYPERBOLIC:
        cosh_d = -_bar_dot(kind, n, c1, c2)
        cos_t = (math.cosh(r1) * math.cosh(r2) - cosh_d) / \
            (math.sinh(r1) * math.sinh(r2))
    else:
        raise ModelError(f"no angle formula for {kind.value}")
    return math.acos(max(-1.0, min(1.0, cos_t)))


def points_at_distance(kind: ModelKind, d: float, n: int = 2):
    """A canonical pair of model points at base distance d."""
    if kind is ModelKind.ELLIPTIC:
        c1 = (1.0,) + (0.0,) * n
        c2 = (math.cos(d), math.sin(d)) + (0.0,) * (n - 1)
    elif kind is ModelKind.HYPERBOLIC:
        c1 = (0.0,) * n + (1.0,)
        c2 = (math.sinh(d),) + (0.0,) * (n - 1) + (math.cosh(d),)
    elif kind is ModelKind.PARABOLIC:
        c1 = (0.0,) * n
        c2 = (d,) + (0.0,) * (n - 1)
    else:
        raise ModelError(f"no canonical point pair for {kind.value}")
    return lift_point(kind, c1, n), lift_point(kind, c2, n)


def cycles_at_angle(kind: ModelKind, theta: float, r1: float, r2: float,
                    n: int = 2):
    """A canonical pair of cycles meeting at angle theta."""
    if kind is ModelKind.PARABOLIC:
        d = math.sqrt(r1 * r1 + r2 * r2 - 2 * r1 * r2 * math.cos(theta))
        c1 = (0.0,) * n
        c2 = (d,) + (0.0,) * (n - 1)
    elif kind is ModelKind.ELLIPTIC:
        cos_d = math.cos(r1) * math.cos(r2) + \
            math.sin(r1) * math.sin(r2) * math.cos(theta)
        d = math.acos(max(-1.0, min(1.0, cos_d)))
        c1 = (1.0,) + (0.0,) * n
        c2 = (math.cos(d), math.sin(d)) + (0.0,) * (n - 1)
    elif kind is ModelKind.HYPERBOLIC:
        cosh_d = math.cosh(r1) * math.cosh(r2) - \
            math.sinh(r1) * math.sinh(r2) * math.cos(theta)
        d = math.acosh(max(1.0, cosh_d))
        c1 = (0.0,) * n + (1.0,)
        c2 = (math.sinh(d),) + (0.0,) * (n - 1) + (math.cosh(d),)
    else:
        raise ModelError(f"no canonical cycle pair for {kind.value}")
    return lift_cycle(kind, c1, r1, n), lift_cycle(kind, c2, r2, n)


def check_separation(kind: ModelKind, o1: ModelObject, o2: ModelObject,
                     n: int = 2):
    """(computed, expected): the lift-side separation or power against
    the closed form evaluated from the model parameters alone."""
    if o1.kind is not kind or o2.kind is not kind:
        raise ModelError(f"a {kind.value} separation check got "
                         f"{o1.kind.value} and {o2.kind.value} objects")
    g = model_geometry(kind, n)
    if o1.role_hint == "point" and o2.role_hint == "point":
        value = inversive_separation(g, o1.lift, o2.lift)
        d = base_distance(kind, o1.params["coords"], o2.params["coords"], n)
        return value, expected_point_separation(kind, d)
    if o1.role_hint == "cycle" and o2.role_hint == "cycle":
        value = relative_power(g, o1.lift, o2.lift)
        theta = intersection_angle(kind, o1, o2, n)
        return value, math.cos(theta) - 1.0
    raise ModelError("separation checks compare two points or two cycles")
