"""Universal conformal geometries: the tuple (V, Q, P, L) and its
incidence structure.

A geometry is a non-degenerate quadratic form of dimension n+3 together
with two fixed orthogonal representative vectors P and L.  Elements of
the projective quadric are oriented hypercycles; the ones orthogonal to
P are points, the ones orthogonal to L are hyperplanes, and incidence
is the vanishing of the (no-1/2) bilinear form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Callable, Optional, Sequence

from .fields import (ConformalError, Field, FieldMismatchError, Scalar,
                     SquareClass, UnsupportedFieldError)
from . import linalg
from .linalg import EnumerationUnsupportedError, Vector
from .quadform import (InvalidInputError, QuadraticForm, _radical,
                       form_invariant, invariant_kind, witt_index)
from enum import Enum


class InvalidGeometryError(ConformalError):
    """The (Q, P, L) data does not form a geometry."""


class NotAHypercycleError(ConformalError):
    """A vector off the quadric was passed where a hypercycle is required."""


class RoleError(ConformalError):
    """A hypercycle of the wrong role was passed."""


class IdealDenominatorError(ConformalError):
    """A pairing against P or L vanished where a nonzero value is needed."""


class NoCanonicalProjectionError(ConformalError):
    """Projection through P needs B(P,P) != 0."""


class RankError(ConformalError):
    """Inputs were linearly dependent where independence is required."""


# Desk-scale defaults; callers may lift them explicitly.
MAX_ENUM_Q = 7
MAX_ENUM_DIM = 7


class ProjPoint:
    """A projective point, normalized so the first nonzero coordinate is 1.

    Kept as its field and the tuple of raw values ``raw``; ``coords``
    wraps them in Scalars on each read."""

    __slots__ = ("field", "raw")

    def __init__(self, coords: Sequence[Scalar]):
        coords, raw = tuple(coords), None
        if coords:
            if not isinstance(coords[0], Scalar):
                raise TypeError("a ProjPoint is built from Scalars "
                                "(ProjPoint.from_canonical takes raw values)")
            field = coords[0].field
            raw = linalg.normalize_raw(field, linalg.raw_values(field, coords))
        if raw is None:
            raise ValueError("projective points need a nonzero vector")
        self.field, self.raw = field, raw

    @classmethod
    def from_canonical(cls, field: Field, raw: tuple) -> "ProjPoint":
        """The point of the raw tuple whose first nonzero value is
        already 1."""
        pt = cls.__new__(cls)
        pt.field, pt.raw = field, raw
        return pt

    @property
    def coords(self) -> Vector:
        return tuple([Scalar(a, self.field) for a in self.raw])

    def __eq__(self, other):
        field = self.field
        return (isinstance(other, ProjPoint) and other.field is field
                and len(other.raw) == len(self.raw)
                and all(map(field._eq, self.raw, other.raw)))

    def __hash__(self):
        if not self.field.is_exact:
            raise TypeError("approximate points are not hashable")
        return hash(self.raw)

    def sort_key(self):
        return self.raw

    def __repr__(self):
        return "(" + " : ".join(map(self.field.format_value, self.raw)) + ")"


class Role(Enum):
    POINT = "point"
    HYPERPLANE = "hyperplane"
    IDEAL = "ideal"
    GENERIC_CYCLE = "cycle"


class Geometry:
    """A non-degenerate form with fixed orthogonal representatives P, L.

    The representatives are fixed at construction: relative power and
    inversive separation depend on them (rescaling P changes those
    values by a square factor).
    """

    def __init__(self, form: QuadraticForm, p_rep, l_rep):
        field = form.field
        p_raw = tuple(linalg.raw_values(field, p_rep))
        l_raw = tuple(linalg.raw_values(field, l_rep))
        if form.dim < 4:
            raise InvalidGeometryError("a geometry needs dimension >= 4 (n >= 1)")
        if len(p_raw) != form.dim or len(l_raw) != form.dim:
            raise InvalidGeometryError("representative length mismatch")
        if all(map(field._is_zero, p_raw)) or all(map(field._is_zero, l_raw)):
            raise InvalidGeometryError("P and L must be nonzero")
        if field.is_exact and _radical(form):
            raise InvalidGeometryError("the bilinear form must be non-degenerate")
        if not field._is_zero(form.b_raw(p_raw, l_raw)):
            raise InvalidGeometryError("P and L must be orthogonal")
        self.form = form
        self.field = field
        self._p_raw, self._l_raw = p_raw, l_raw
        self._quadric = None
        self._points = None
        self._ps_class = None  # classify._pointspace_class, on first use
        self._charts = {}  # metric charts by the normalised raw line

    # x -> B(P, x) and x -> B(L, x) on raw values, built on first use,
    # so constructing a geometry does no pairing work
    @cached_property
    def _pair_p(self):
        return self.form.pairing_raw(self._p_raw)

    @cached_property
    def _pair_l(self):
        return self.form.pairing_raw(self._l_raw)

    # x -> the antipodal class of the raw point x in P^perp/L: its key
    # modulo L (None when x is [L])
    @cached_property
    def _class_key(self):
        return linalg.quotient_key(self.field, self._l_raw)

    @property
    def n(self) -> int:
        """Dimension of the geometry (the form has dimension n+3)."""
        return self.form.dim - 3

    @property
    def p_rep(self) -> Vector:
        return tuple([Scalar(a, self.field) for a in self._p_raw])

    @property
    def l_rep(self) -> Vector:
        return tuple([Scalar(a, self.field) for a in self._l_raw])

    def qp(self) -> Scalar:
        return Scalar(self.form.eval_raw(self._p_raw), self.field)

    def ql(self) -> Scalar:
        return Scalar(self.form.eval_raw(self._l_raw), self.field)

    def dual(self) -> "Geometry":
        return Geometry(self.form, self._l_raw, self._p_raw)

    def __repr__(self):
        return (f"Geometry(n={self.n}, Q={self.form!r}, "
                f"P={self.p_rep}, L={self.l_rep})")


def _point_raw(field: Field, pt: ProjPoint) -> tuple:
    """The raw values of a ``ProjPoint``; a point of another field
    raises FieldMismatchError."""
    if pt.field is not field:
        raise FieldMismatchError(f"mixed fields: {field} and {pt.field}")
    return pt.raw


def _raw_cycle(g: Geometry, c) -> Sequence:
    """The raw values of a cycle: a ``ProjPoint`` of g's field gives
    its raw tuple and a sequence its ``linalg.raw_values`` (another
    field's Scalar or ProjPoint raises FieldMismatchError).  The zero
    vector is no cycle."""
    field = g.field
    if isinstance(c, ProjPoint):
        x = _point_raw(field, c)
    else:
        x = linalg.raw_values(field, c)
    if len(x) != g.form.dim:
        raise InvalidInputError(
            f"a cycle has {g.form.dim} coordinates, not {len(x)}")
    # a raw zero is falsy in an exact field; floats go by the tolerance
    if not any(x) or not field.is_exact and all(map(field._is_zero, x)):
        raise InvalidInputError("the zero vector is not a cycle")
    return x


def _require_hypercycle(g: Geometry, c) -> list:
    """The raw values of a cycle on the quadric."""
    x = _raw_cycle(g, c)
    if not g.field._is_zero(g.form.eval_raw(x)):
        v = tuple(Scalar(a, g.field) for a in x)
        raise NotAHypercycleError(f"Q({v}) != 0: not on the Lie quadric")
    return x


def role(g: Geometry, c) -> Role:
    """Point iff orthogonal to P, hyperplane iff orthogonal to L."""
    x = _require_hypercycle(g, c)
    is_zero = g.field._is_zero
    is_point = is_zero(g._pair_p(x))
    is_plane = is_zero(g._pair_l(x))
    if is_point and is_plane:
        return Role.IDEAL
    if is_point:
        return Role.POINT
    if is_plane:
        return Role.HYPERPLANE
    return Role.GENERIC_CYCLE


def incident(g: Geometry, c1, c2) -> bool:
    """Oriented tangency: B(c1,c2) = 0 (representative independent)."""
    x1 = _require_hypercycle(g, c1)
    x2 = _require_hypercycle(g, c2)
    return g.field._is_zero(g.form.b_raw(x1, x2))


def non_degenerate_geometry(g: Geometry) -> bool:
    """Witt index >= 2: the form has a 4-dimensional symplectic subspace."""
    return witt_index(g.form) >= 2


def non_empty(g: Geometry) -> bool:
    """Does the geometry have a point (an isotropic direction in P^perp
    independent of P)?

    Decided by the embedding criterion: [Q(P), +1, -1] for anisotropic P,
    [+1, +1, -1, -1] for isotropic P; over the rationals by signature
    counting, over F_p by determinant classes.  The finite-field answer
    is cross-checked against direct search in the tests.
    """
    kind = invariant_kind(g.field)
    if kind == "arf":
        raise UnsupportedFieldError("the emptiness criterion needs char != 2")
    qp = g.field._square_class(g.form.eval_raw(g._p_raw))
    if kind == "det":
        # for anisotropic P any 3-dim form embeds once dim >= 4
        return (qp is not SquareClass.ZERO or g.form.dim >= 5
                or form_invariant(g.form) == ("det", "UNIT"))
    _, k, l = form_invariant(g.form)
    if qp is SquareClass.UNIT:
        return k >= 2 and l >= 1
    if qp is SquareClass.NON_RESIDUE:
        return k >= 1 and l >= 2
    return k >= 2 and l >= 2


def has_point_search(g: Geometry) -> bool:
    """Direct search for a point: an isotropic projective direction in
    P^perp other than [P] itself (the oracle for `non_empty`)."""
    p = linalg.normalize_raw(g.field, g._p_raw) \
        if g.field._is_zero(g.form.eval_raw(g._p_raw)) else None
    return any(pt.raw != p for pt in _points_in_p_perp(g)[0])


def relative_power(g: Geometry, c1, c2) -> Scalar:
    """B_half(c1,c2) / (B_half(c1,P) B_half(c2,P)) with the fixed P."""
    return _power_with(g, c1, c2, g._p_raw)


def inversive_separation(g: Geometry, c1, c2) -> Scalar:
    """B_half(c1,c2) / (B_half(c1,L) B_half(c2,L)) with the fixed L."""
    return _power_with(g, c1, c2, g._l_raw)


def _power_with(g: Geometry, c1, c2, base) -> Scalar:
    """The power against the raw vector base, on raw values in the
    operation order of ``b_half`` and Scalar division."""
    field = g.field
    if field.char == 2:
        raise UnsupportedFieldError("powers and separations need char != 2")
    x1 = _raw_cycle(g, c1)
    x2 = _raw_cycle(g, c2)
    one, mul, is_zero, b = field.raw_one, field._mul, field._is_zero, \
        g.form.b_raw
    half = mul(one, field._inv(field._add(one, one)))
    d1 = mul(half, b(x1, base))
    d2 = mul(half, b(x2, base))
    if is_zero(d1) or is_zero(d2):
        raise IdealDenominatorError(
            "cycle pairs ideally with the reference vector")
    return Scalar(field._div(mul(half, b(x1, x2)), mul(d1, d2)), field)


def _check_enum(g: Geometry, max_q: int, max_dim: int = MAX_ENUM_DIM):
    field = g.field
    if not field.is_finite:
        raise EnumerationUnsupportedError(f"cannot enumerate over {field}")
    if field.order > max_q:
        raise EnumerationUnsupportedError(
            f"field size {field.order} exceeds the cap {max_q}")
    if g.form.dim > max_dim:
        raise EnumerationUnsupportedError(
            f"dimension {g.form.dim} exceeds the cap {max_dim}")


def lie_quadric_points(g: Geometry, max_q: int = MAX_ENUM_Q):
    """All projective points with Q = 0, canonically normalized, sorted."""
    _check_enum(g, max_q)
    if g._quadric is None:
        # the raw tuples already lead with 1, and a finite field's raw
        # values sort like its scalars; raw value v is element v
        field = g.field
        g._quadric = tuple([ProjPoint.from_canonical(field, x)
                            for x in sorted(g.form.isotropic_points())])
    return g._quadric


def _points_in_p_perp(g: Geometry) -> tuple:
    """The quadric points in P^perp as (ProjPoints, columns), in
    `lie_quadric_points` order: the columns hold the raw coordinates of
    the points, one ``bytes`` per coordinate and one byte per point, for
    ``linalg.zero_flags``.  Built on first use and kept on the geometry
    (the quadric is within the caps, so a raw value fits a byte)."""
    if g._points is None:
        quadric = lie_quadric_points(g)
        cols = [bytes(col) for col in zip(*[pt.raw for pt in quadric])]
        keep = linalg.zero_flags(g.field, cols,
                                 g.form.gram_row_raw(g._p_raw))
        g._points = (tuple(itertools.compress(quadric, keep)),
                     tuple(bytes(itertools.compress(col, keep))
                           for col in cols))
    return g._points


@dataclass(frozen=True)
class Subspace:
    """An orthogonal complement inside a geometry, with its restricted
    form and the image of L (the pointspace P^perp, a line space).

    Kept on raw values: ``_cols`` holds the basis in ambient coordinates
    as raw columns (raw coordinates x map to the raw ambient vector
    sum x_i b_i = ``linalg.mat_vec_raw(_cols, x, field)``), ``form`` is
    Q restricted to that basis, and ``_l_raw`` places L in it.
    ``_coords`` is the one coordinate map of the basis
    (``linalg.coordinate_map`` of ``_cols``): a raw ambient vector to
    its raw coordinates, None off the subspace.  ``basis`` and
    ``l_coords`` wrap them in Scalars on each read.
    """
    geometry: Geometry
    _cols: tuple
    form: QuadraticForm
    _l_raw: tuple
    _coords: Callable = dc_field(compare=False, repr=False)

    @property
    def basis(self) -> tuple:
        return linalg.wrap_rows(self.form.field, zip(*self._cols))

    @property
    def l_coords(self) -> Vector:
        return tuple([Scalar(a, self.form.field) for a in self._l_raw])

    # the isotropic points of ``form`` (finite fields), each as (raw
    # coordinates, ambient ProjPoint), in the ambient points' canonical
    # order: the one enumeration of the subspace quadric, on first use
    @cached_property
    def _quadric(self) -> tuple:
        field, cols = self.form.field, self._cols
        hits = sorted((linalg.normalize_raw(
            field, linalg.mat_vec_raw(cols, x, field)), x)
                      for x in self.form.isotropic_points())
        return tuple((x, ProjPoint.from_canonical(field, y)) for y, x in hits)

    def to_ambient(self, coords) -> Vector:
        field, dim = self.form.field, self.form.dim
        x = linalg.raw_values(field, coords)
        if len(x) != dim:
            raise InvalidInputError(
                f"a subspace vector has {dim} coordinates, not {len(x)}")
        return tuple(Scalar(a, field)
                     for a in linalg.mat_vec_raw(self._cols, x, field))

    def from_ambient(self, v) -> Optional[Vector]:
        """The coordinates of v in the basis, or None off the subspace."""
        field = self.form.field
        x = self._from_ambient_raw(linalg.raw_values(field, v))
        return None if x is None else tuple(Scalar(a, field) for a in x)

    def _from_ambient_raw(self, x) -> Optional[list]:
        """``from_ambient`` of the raw vector x, on raw values."""
        dim = len(self._cols)
        if len(x) != dim:
            raise InvalidInputError(
                f"an ambient vector has {dim} coordinates, not {len(x)}")
        return self._coords(x)


def perp_space(g: Geometry, vectors: Sequence) -> Subspace:
    """The orthogonal complement of the raw ``vectors``, which must all
    be orthogonal to L (InvalidInputError otherwise), carrying the
    restricted form and L's coordinates (read by the coordinate map the
    subspace keeps)."""
    basis = g.form.perp_raw(vectors)
    cols = tuple(zip(*basis))
    coords = linalg.coordinate_map(cols, g.field)
    l_raw = coords(g._l_raw)
    if l_raw is None:
        raise InvalidInputError("perp_space needs vectors orthogonal to L")
    return Subspace(g, cols, g.form.restrict_raw(basis), tuple(l_raw),
                    coords)


def pointspace(g: Geometry) -> Subspace:
    """The orthogonal complement of P carrying Q^P, with L's coordinates."""
    return perp_space(g, [g._p_raw])


def project_cycle_raw(g: Geometry, c) -> Vector:
    """c - (B(P,c)/B(P,P)) P, unnormalized (the representative on which
    the projected-norm identity holds exactly)."""
    field, p = g.field, g._p_raw
    bpp = g.form.b_raw(p, p)
    if field._is_zero(bpp):
        raise NoCanonicalProjectionError(
            "projection through P needs B(P,P) != 0")
    x = _raw_cycle(g, c)
    sub, mul = field._sub, field._mul
    coef = mul(g.form.b_raw(p, x), field._inv(bpp))
    return tuple(Scalar(sub(a, mul(coef, b)), field) for a, b in zip(x, p))


def project_cycle(g: Geometry, c) -> ProjPoint:
    """The projection of c into P^perp, as a normalized projective point."""
    return ProjPoint(project_cycle_raw(g, c))


def points_of(g: Geometry, c):
    """[[Q]] intersected with P^perp and c^perp: the points of a cycle,
    in `lie_quadric_points` order."""
    row = g.form.gram_row_raw(_require_hypercycle(g, c))
    points, cols = _points_in_p_perp(g)
    return tuple(itertools.compress(points,
                                    linalg.zero_flags(g.field, cols, row)))


def pointspace_points_of(ps: Subspace, c_proj):
    """Points of a projected cycle computed inside the pointspace, mapped
    back to ambient projective points (the other side of the projection
    identity).  ``c_proj`` is an ambient ``ProjPoint`` or a vector of
    pointspace coordinates; the zero vector is no cycle."""
    _check_enum(ps.geometry, MAX_ENUM_Q)
    form = ps.form
    field = form.field
    if isinstance(c_proj, ProjPoint):
        x = ps._from_ambient_raw(_point_raw(field, c_proj))
        if x is None:
            raise RoleError("cycle does not lie in the pointspace")
    else:
        x = linalg.raw_values(field, c_proj)
    if len(x) != form.dim:
        raise InvalidInputError(
            f"a pointspace cycle has {form.dim} coordinates, not {len(x)}")
    if not any(x):  # a finite field's raw zero is falsy
        raise InvalidInputError("the zero vector is not a cycle")
    bc, is_zero = form.pairing_raw(x), field._is_zero
    return tuple(pt for y, pt in ps._quadric if is_zero(bc(y)))


def is_point(g: Geometry, c) -> bool:
    return role(g, c) in (Role.POINT, Role.IDEAL)


def _require_point(g: Geometry, p) -> list:
    """The raw values of a point of the geometry."""
    x, is_zero = _raw_cycle(g, p), g.field._is_zero
    if not is_zero(g.form.eval_raw(x)) or not is_zero(g._pair_p(x)):
        v = tuple(Scalar(a, g.field) for a in x)
        raise RoleError(f"{v} is not a point of the geometry")
    return x


def _antipodal_pair(g: Geometry, xs: Sequence[list]) -> bool:
    """Do two of the raw points share a class key?  [L] (key None) is
    antipodal to every point."""
    keys = [g._class_key(x) for x in xs]
    return any(k1 is None or k2 is None or all(map(g.field._eq, k1, k2))
               for k1, k2 in itertools.combinations(keys, 2))


def antipodal(g: Geometry, p, q) -> bool:
    """Two points collinear with L (they lie on the same hyperplanes)."""
    return _antipodal_pair(g, [_require_point(g, p), _require_point(g, q)])


@dataclass(frozen=True)
class Subcycle:
    """A subspace of P^perp spanned by ``basis``; subcycle dimension is
    (vector dimension) - 2.  ``is_actual`` is None when undetermined
    (infinite fields)."""
    basis: tuple
    is_subplane: bool
    is_actual: Optional[bool]

    @property
    def dim(self) -> int:
        return len(self.basis) - 2


def _subcycle_from_span(g: Geometry, span: Sequence) -> Subcycle:
    """The subcycle of the independent raw vectors ``span``, each kept
    as a normalised ``ProjPoint``."""
    field = g.field
    is_subplane = linalg.rank_raw([*span, g._l_raw], field) == len(span)
    basis = tuple(ProjPoint.from_canonical(
        field, linalg.normalize_raw(field, v)) for v in span)
    return Subcycle(basis, is_subplane, _is_actual(g, span))


def _is_actual(g: Geometry, span: Sequence) -> Optional[bool]:
    """Is the span of the raw vectors cut out by P together with
    isotropic vectors of its orthogonal complement?  Searchable over
    finite fields only."""
    if not g.field.is_finite or g.field.order > MAX_ENUM_Q:
        return None
    perp = g.form.perp_raw(span)
    vectors = [g._p_raw] + _isotropic_of_span(g, perp)
    return linalg.rank_raw(vectors, g.field) == len(perp)


def _isotropic_of_span(g: Geometry, basis: Sequence) -> list:
    """The raw vectors with Q = 0 of the span of the raw ``basis``, one
    per projective point (finite fields): Q(sum c_i v_i) is the
    restricted form at c, and each vector is ``mat_vec_raw`` of the
    basis columns with c."""
    field = g.field
    cols = tuple(zip(*basis))
    return [linalg.mat_vec_raw(cols, c, field)
            for c in g.form.restrict_raw(basis).isotropic_points()]


def span_subcycle(g: Geometry, *points) -> Subcycle:
    """The virtual subcycle spanned by k independent points (dim k-2)."""
    xs = [_require_point(g, p) for p in points]
    if linalg.rank_raw(xs, g.field) != len(xs):
        raise RankError("points must be independent")
    return _subcycle_from_span(g, xs)


def intersect_hyperplanes(g: Geometry, *hyperplanes) -> Subcycle:
    """The subplane <P, l_1, ..., l_k>^perp (dimension n-k).

    Accepts virtual hyperplanes: vectors in P^perp with B(L, l) = 0; an
    oriented hyperplanecycle is the special case Q(l) = 0.
    """
    xs = [g._p_raw]
    for l in hyperplanes:
        x = _raw_cycle(g, l)
        if not g.field._is_zero(g.form.b_raw(g._l_raw, x)):
            raise RoleError("hyperplane inputs must be orthogonal to L")
        xs.append(x)
    if linalg.rank_raw(xs, g.field) != len(xs):
        raise RankError("hyperplanes must be independent (and not P)")
    return _subcycle_from_span(g, g.form.perp_raw(xs))


def hyperplane_through(g: Geometry, *points) -> Optional[ProjPoint]:
    """The oriented hyperplane through the given pairwise non-antipodal
    points: solve B(l, p_i) = 0, B(l, L) = 0, Q(l) = 0.

    Returns a canonical orientation of the unique unoriented solution,
    or None when the line does not lift; raises if the isotropic
    solutions span more than one unoriented hyperplane.
    """
    xs = [_require_point(g, p) for p in points]
    if _antipodal_pair(g, xs):
        raise RoleError("an antipodal pair admits no unique hyperplane")
    field = g.field
    sol = g.form.perp_raw(xs + [g._l_raw])
    if not sol:
        return None
    if len(sol) == 1:
        isotropic = sol if field._is_zero(g.form.eval_raw(sol[0])) else []
    else:
        if not field.is_finite:
            raise EnumerationUnsupportedError(
                "cannot search an isotropic solution over an infinite field")
        isotropic = _isotropic_of_span(g, sol)
    # [P] solves the constraints whenever it is isotropic, but it has no
    # image in V/P and is incident to every point: not a hyperplane.  A
    # solution is admissible exactly when it spans a plane with P, that
    # is when its key modulo P is not None.
    key = linalg.quotient_key(field, g._p_raw)
    keys = [key(v) for v in isotropic]
    isotropic = [v for v, k in zip(isotropic, keys) if k is not None]
    if not isotropic:
        return None
    # all solutions must project to a single unoriented hyperplane
    if len({k for k in keys if k is not None}) > 1:
        raise RoleError("multiple distinct hyperplanes satisfy the constraints")
    return ProjPoint.from_canonical(
        field, min(linalg.normalize_raw(field, v) for v in isotropic))


def quasi_ideal(g: Geometry, s: Subcycle) -> bool:
    """Is the restriction of Q to the subcycle's span degenerate?"""
    return bool(_radical(g.form.restrict_raw([p.raw for p in s.basis])))


def cayley_klein_points(g: Geometry):
    """Points grouped into antipodal classes (the projective model
    P^perp/L); classes and members are canonically sorted."""
    key, groups = g._class_key, {}
    for pt in _points_in_p_perp(g)[0]:
        groups.setdefault(key(pt.raw), []).append(pt)
    # the points come in raw order, which is sort_key order (see
    # lie_quadric_points): each class is sorted, and the classes open in
    # the order of their first members
    return tuple(tuple(v) for v in groups.values())
