"""Floating-point constructors for the classical real plane geometries.

Each model fixes a five-dimensional form (for n = 2) with marked
representative vectors P and L and lifts points, cycles and lines onto
the quadric in the classical coordinates:

* elliptic:   [1,1,1,-1,-1]; points (c,1,0) with |c| = 1, cycles
  (c, cos r, sin r), polar lines (c, 0, +-1).
* hyperbolic: [1,1,-1,+1,-1]; points (c,1,0) on the hyperboloid
  Q(c) = -1, cycles (c, cosh r, sinh r), lines (l,0,+-1) with Q(l) = 1,
  distance-d hypercycles (l, sinh d, cosh d), paracycles (u,s,s).
* parabolic:  x1^2+x2^2 + tz - w^2; points (c, -|c|^2, 1, 0), circles
  (c, r^2-|c|^2, 1, r), lines (l, -2d, 0, +-1) with |l| = 1.
* Minkowski:  x1^2-x2^2 + tz - w^2 (the chart with Q(P) = -1; the class
  normalization flips it to the positive-P convention); same lift
  formulas with the plane metric, spacelike line normals only.
* de Sitter / anti-de Sitter: [1,1,-1,-1,1] and [1,-1,-1,1,1]; points
  (c,1,0) with Q(c) = +1 resp. -1.
* Laguerre/Galilei: x1^2 + tz - yw with P, L both isotropic; points
  (x, y, 1, -x^2, 0), vertical-axis parabolas, non-vertical lines.

The numeric separation and power values follow the half-bilinear
convention, which is why the parabolic-family L representative is the
doubled basis vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .fields import ApproxReal, ConformalError, Rational
from .geometry import Geometry, inversive_separation, relative_power
from .linalg import unit_vector, vector
from .quadform import QuadraticForm


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


PLANE_ONLY = {ModelKind.MINKOWSKI2, ModelKind.DE_SITTER,
              ModelKind.ANTI_DE_SITTER, ModelKind.LAGUERRE_GALILEI}


@dataclass(frozen=True)
class ModelObject:
    kind: ModelKind
    role_hint: str  # point | cycle | line | paracycle | hypercycle
    params: dict
    lift: tuple

    def __repr__(self):
        return f"ModelObject({self.kind.value} {self.role_hint} {self.params})"


def _build(field, kind: ModelKind, n: int):
    """(form, P_rep, L_rep) over the given field."""
    one = field.one()
    if kind in PLANE_ONLY and n != 2:
        raise ModelError(f"{kind.value} is a plane model (n = 2)")
    if n < 1:
        raise ModelError("models need n >= 1")
    if kind is ModelKind.ELLIPTIC:
        form = QuadraticForm.diagonal(field, [1] * (n + 1) + [-1, -1])
        return (form, unit_vector(field, n + 3, n + 2),
                unit_vector(field, n + 3, n + 1))
    if kind is ModelKind.HYPERBOLIC:
        form = QuadraticForm.diagonal(field, [1] * n + [-1, 1, -1])
        return (form, unit_vector(field, n + 3, n + 2),
                unit_vector(field, n + 3, n + 1))
    if kind is ModelKind.PARABOLIC:
        coeffs = {(i, i): one for i in range(n)}
        coeffs[(n, n + 1)] = one
        coeffs[(n + 2, n + 2)] = -one
        form = QuadraticForm(field, n + 3, coeffs)
        l_rep = tuple(2 if i == n else 0 for i in range(n + 3))
        return form, unit_vector(field, n + 3, n + 2), l_rep
    if kind is ModelKind.MINKOWSKI2:
        coeffs = {(0, 0): one, (1, 1): -one, (2, 3): one, (4, 4): -one}
        form = QuadraticForm(field, 5, coeffs)
        l_rep = (0, 0, 2, 0, 0)
        return form, unit_vector(field, 5, 4), l_rep
    if kind is ModelKind.DE_SITTER:
        form = QuadraticForm.diagonal(field, [1, 1, -1, -1, 1])
        return form, unit_vector(field, 5, 4), unit_vector(field, 5, 3)
    if kind is ModelKind.ANTI_DE_SITTER:
        form = QuadraticForm.diagonal(field, [1, -1, -1, 1, 1])
        return form, unit_vector(field, 5, 4), unit_vector(field, 5, 3)
    if kind is ModelKind.LAGUERRE_GALILEI:
        coeffs = {(0, 0): one, (2, 3): one, (1, 4): -one}
        form = QuadraticForm(field, 5, coeffs)
        return form, unit_vector(field, 5, 1), unit_vector(field, 5, 3)
    raise ModelError(f"unknown model {kind}")


def model_geometry(kind: ModelKind, n: int = 2,
                   eps: float = 1e-9) -> Geometry:
    """The floating-point model geometry with its fixed P and L."""
    field = ApproxReal(eps)
    form, p, l = _build(field, kind, n)
    return Geometry(form, p, l)


def exact_model_geometry(kind: ModelKind, n: int = 2) -> Geometry:
    """The same model over exact rationals (for classification)."""
    field = Rational()
    form, p, l = _build(field, kind, n)
    return Geometry(form, p, l)


def _bar_metric(kind: ModelKind, n: int):
    """Signs of the model's base metric on the c-bar coordinates."""
    if kind is ModelKind.ELLIPTIC:
        return [1] * (n + 1)
    if kind is ModelKind.HYPERBOLIC:
        return [1] * n + [-1]
    if kind is ModelKind.PARABOLIC:
        return [1] * n
    if kind is ModelKind.MINKOWSKI2:
        return [1, -1]
    if kind is ModelKind.DE_SITTER:
        return [1, 1, -1]
    if kind is ModelKind.ANTI_DE_SITTER:
        return [1, -1, -1]
    raise ModelError(f"{kind.value} has no quadratic base metric")


def _bar_dot(kind, n, u, v):
    metric = _bar_metric(kind, n)
    for x in (u, v):
        if len(x) != len(metric):
            raise ModelError(f"{kind.value} base vectors need {len(metric)} "
                             f"coordinates; got {len(x)}")
    return sum(s * a * b for s, a, b in zip(metric, u, v))


def _bar_norm(kind, n, u):
    return _bar_dot(kind, n, u, u)


_POINT_NORMS = {ModelKind.ELLIPTIC: 1.0, ModelKind.HYPERBOLIC: -1.0,
                ModelKind.DE_SITTER: 1.0, ModelKind.ANTI_DE_SITTER: -1.0}


def lift_point(kind: ModelKind, coords, n: int = 2,
               eps: float = 1e-9) -> ModelObject:
    """Lift model-space coordinates onto the quadric as a pointcycle."""
    field = ApproxReal(eps)
    coords = tuple(float(x) for x in coords)
    if kind in _POINT_NORMS:
        want = _POINT_NORMS[kind]
        if abs(_bar_norm(kind, n, coords) - want) > 1e-7:
            raise ModelError(
                f"{kind.value} points need base norm {want}; got "
                f"{_bar_norm(kind, n, coords)}")
        lift = coords + (1.0, 0.0)
    elif kind in (ModelKind.PARABOLIC, ModelKind.MINKOWSKI2):
        lift = coords + (-_bar_norm(kind, n, coords), 1.0, 0.0)
    elif kind is ModelKind.LAGUERRE_GALILEI:
        if len(coords) != 2:
            raise ModelError(f"{kind.value} points need 2 coordinates; "
                             f"got {len(coords)}")
        x, y = coords
        lift = (x, y, 1.0, -x * x, 0.0)
    else:
        raise ModelError(f"no point lift for {kind}")
    return ModelObject(kind, "point", {"coords": coords},
                       vector(field, lift))


def lift_cycle(kind: ModelKind, center, radius, n: int = 2,
               eps: float = 1e-9) -> ModelObject:
    """Lift a cycle of the given center and signed radius (the sign is
    the orientation)."""
    field = ApproxReal(eps)
    r = float(radius)
    if kind is ModelKind.LAGUERRE_GALILEI:
        raise ModelError("Laguerre cycles are parabolas; use lift_parabola")
    center = tuple(float(x) for x in center)
    if kind is ModelKind.ELLIPTIC:
        _need_norm(kind, n, center, 1.0)
        lift = center + (math.cos(r), math.sin(r))
    elif kind is ModelKind.HYPERBOLIC:
        _need_norm(kind, n, center, -1.0)
        lift = center + (math.cosh(r), math.sinh(r))
    elif kind in (ModelKind.PARABOLIC, ModelKind.MINKOWSKI2):
        lift = center + (r * r - _bar_norm(kind, n, center), 1.0, r)
    elif kind is ModelKind.DE_SITTER:
        _need_norm(kind, n, center, -1.0)
        lift = center + (math.sinh(r), math.cosh(r))
    elif kind is ModelKind.ANTI_DE_SITTER:
        _need_norm(kind, n, center, -1.0)
        lift = center + (math.cos(r), math.sin(r))
    else:
        raise ModelError(f"no cycle lift for {kind}")
    return ModelObject(kind, "cycle", {"center": center, "radius": r},
                       vector(field, lift))


def _need_norm(kind, n, coords, want):
    got = _bar_norm(kind, n, coords)
    if abs(got - want) > 1e-7:
        raise ModelError(
            f"{kind.value} centers/normals need base norm {want}; got {got}")


def lift_line(kind: ModelKind, normal=None, offset=0.0, orientation=1,
              slope=None, intercept=None, n: int = 2,
              eps: float = 1e-9) -> ModelObject:
    """Lift an oriented line (hyperplane for general n).

    Curved models take a normal vector of the appropriate base norm and
    an orientation sign; the flat models take a unit normal and offset;
    Laguerre lines are given by slope and intercept.  Lines the chart
    cannot carry (timelike Minkowski normals, vertical Laguerre lines)
    raise ModelError.
    """
    field = ApproxReal(eps)
    s = 1.0 if orientation >= 0 else -1.0
    if kind is ModelKind.LAGUERRE_GALILEI:
        if slope is None or intercept is None:
            raise ModelError("Laguerre lines take slope= and intercept=")
        m, b = float(slope), float(intercept)
        lift = (s * m / 2.0, s * m * m / 4.0, 0.0, s * b, s)
        return ModelObject(kind, "line", {"slope": m, "intercept": b,
                                          "orientation": s},
                           vector(field, lift))
    normal = tuple(float(x) for x in normal)
    if kind is ModelKind.ELLIPTIC:
        _need_norm(kind, n, normal, 1.0)
        lift = normal + (0.0, s)
    elif kind is ModelKind.HYPERBOLIC:
        _need_norm(kind, n, normal, 1.0)
        lift = normal + (0.0, s)
    elif kind in (ModelKind.DE_SITTER, ModelKind.ANTI_DE_SITTER):
        _need_norm(kind, n, normal, -1.0)
        lift = normal + (0.0, s)
    elif kind in (ModelKind.PARABOLIC, ModelKind.MINKOWSKI2):
        got = _bar_norm(kind, n, normal)
        if abs(got - 1.0) > 1e-7:
            if kind is ModelKind.MINKOWSKI2 and got < 0:
                raise ModelError(
                    "timelike line normals are not liftable in this chart "
                    "(they belong to the second model)")
            raise ModelError(f"line normals must have base norm 1; got {got}")
        d = float(offset)
        lift = tuple(s * x for x in normal) + (-2.0 * s * d, 0.0, s)
    else:
        raise ModelError(f"no line lift for {kind}")
    return ModelObject(kind, "line", {"normal": normal, "offset": float(offset),
                                      "orientation": s},
                       vector(field, lift))


def lift_parabola(a, b, c, eps: float = 1e-9) -> ModelObject:
    """The Laguerre cycle y = a x^2 + b x + c (vertical-axis parabola)."""
    field = ApproxReal(eps)
    a, b, c = float(a), float(b), float(c)
    lift = (b / 2.0, b * b / 4.0 - a * c, -a, c, 1.0)
    return ModelObject(ModelKind.LAGUERRE_GALILEI, "cycle",
                       {"a": a, "b": b, "c": c},
                       vector(field, lift))


def lift_paracycle(u, lam, n: int = 2, eps: float = 1e-9) -> ModelObject:
    """Hyperbolic paracycle (u, lam, lam) centered on the ideal point u."""
    field = ApproxReal(eps)
    u = tuple(float(x) for x in u)
    if abs(_bar_norm(ModelKind.HYPERBOLIC, n, u)) > 1e-7:
        raise ModelError("paracycle centers are ideal: base norm 0")
    lift = u + (float(lam), float(lam))
    return ModelObject(ModelKind.HYPERBOLIC, "paracycle",
                       {"ideal": u, "lam": float(lam)},
                       vector(field, lift))


def lift_hypercycle(normal, d, n: int = 2, eps: float = 1e-9) -> ModelObject:
    """Hyperbolic hypercycle at signed distance d from the line with the
    given unit normal: (l, sinh d, cosh d)."""
    field = ApproxReal(eps)
    normal = tuple(float(x) for x in normal)
    _need_norm(ModelKind.HYPERBOLIC, n, normal, 1.0)
    lift = normal + (math.sinh(float(d)), math.cosh(float(d)))
    return ModelObject(ModelKind.HYPERBOLIC, "hypercycle",
                       {"normal": normal, "d": float(d)},
                       vector(field, lift))


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
                     n: int = 2, eps: float = 1e-9):
    """(computed, expected): the lift-side separation or power against
    the closed form evaluated from the model parameters alone."""
    g = model_geometry(kind, n, eps)
    if o1.role_hint == "point" and o2.role_hint == "point":
        value = inversive_separation(g, o1.lift, o2.lift)
        d = base_distance(kind, o1.params["coords"], o2.params["coords"], n)
        return value, expected_point_separation(kind, d)
    if o1.role_hint == "cycle" and o2.role_hint == "cycle":
        value = relative_power(g, o1.lift, o2.lift)
        theta = intersection_angle(kind, o1, o2, n)
        return value, math.cos(theta) - 1.0
    raise ModelError("separation checks compare two points or two cycles")
