"""Distance as a group element: translation groups of lines.

For a two-dimensional geometry, every non-ideal line carries a group
of determinant-1 isometries of its three-dimensional span that fix the
vector L; that group acts freely transitively on the non-ideal points
of the line, so the motion from one point to another *is* the oriented
distance.  The group is a split torus (order q-1), the additive group
(order q), or a non-split torus (order q+1), according to the square
class of Q(L).
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property

from .fields import ConformalError, Scalar, SquareClass, UnsupportedFieldError
from . import linalg
from .geometry import (Geometry, ProjPoint, Subspace, _raw_cycle,
                       non_degenerate_geometry, perp_space)
from .quadform import InvalidInputError, _det_raw


class DegenerateLineError(ConformalError):
    """The hyperplane is ideal: its line is quasi-ideal."""


class IdealPointError(ConformalError):
    """Translations are defined between non-ideal points only."""


class NotOnLineError(ConformalError):
    """The point does not lie on the given line."""


class IncompatibleChartsError(ConformalError):
    """Motion elements from incomparable charts."""


class ExactChartUnavailableError(ConformalError):
    """The chart needs a square root that does not exist in this exact
    field; use the ApproxReal twin of the geometry."""


MAX_METRIC_Q = 13


class LineGroupClass(Enum):
    NON_SPLIT_TORUS = "non-split-torus"   # order q+1; SO(2)-like
    ADDITIVE = "additive"                 # order q;   translations
    SPLIT_TORUS = "split-torus"           # order q-1; SO(1,1)-like

    def order(self, q: int) -> int:
        if self is LineGroupClass.NON_SPLIT_TORUS:
            return q + 1
        if self is LineGroupClass.ADDITIVE:
            return q
        return q - 1


def gamma_class(g: Geometry) -> LineGroupClass:
    """Translation-group class of a 2-dimensional geometry.

    Determined by the square class of Q(L) against the form's
    determinant class (so the answer is invariant under rescaling Q):
    zero gives the additive group, det*Q(L) square gives the split
    torus, otherwise the non-split torus.  Rotations are the same
    computation on the dual geometry.  The field answers the classes,
    signs over ApproxReal.
    """
    if g.n != 2:
        raise UnsupportedFieldError("translation groups are classified for n=2")
    if g.field.char == 2:
        raise UnsupportedFieldError("translation groups need char != 2")
    if g.field.is_exact and not non_degenerate_geometry(g):
        raise DegenerateLineError("the geometry must be non-degenerate")
    field, ql = g.field, g.form.eval_raw(g._l_raw)
    if field._square_class(ql) is SquareClass.ZERO:
        return LineGroupClass.ADDITIVE
    combined = field._square_class(field._mul(_det_raw(g.form), ql))
    return (LineGroupClass.SPLIT_TORUS if combined is SquareClass.UNIT
            else LineGroupClass.NON_SPLIT_TORUS)


def _require_plane(g: Geometry):
    if g.field.char == 2:
        raise UnsupportedFieldError("line spaces are built for char != 2")
    if g.n != 2:
        raise UnsupportedFieldError("line spaces are 3-dimensional only for n=2")


def line_space(g: Geometry, l) -> Subspace:
    """The 3-dimensional <P,l>^perp with its restricted (non-degenerate)
    form and the coordinates of L; l must be a non-ideal hyperplane."""
    _require_plane(g)
    x, form, is_zero = _raw_cycle(g, l), g.form, g.field._is_zero
    if not is_zero(form.eval_raw(x)):
        raise DegenerateLineError("l must lie on the Lie quadric")
    if not is_zero(form.b_raw(g._l_raw, x)):
        raise DegenerateLineError("l must be a hyperplane (orthogonal to L)")
    if is_zero(form.b_raw(g._p_raw, x)):
        raise DegenerateLineError("ideal hyperplane: its line is quasi-ideal")
    return perp_space(g, [g._p_raw, x])


def _geometry_key(g: Geometry) -> tuple:
    return (g.field, g.form._terms, g._p_raw, g._l_raw)


class Chart:
    """Canonical coordinates on a line space.

    ``basis`` is (L, b1, b2) in line-space coordinates: for the split
    torus b1, b2 are the isotropic directions of L^perp (lexicographic
    smallest first, pairing 1); for the non-split torus an orthogonal
    pair with Q(b2) = -eps Q(b1); for the additive group an anisotropic
    u of canonical norm and the isotropic partner v of L.

    The queries run on raw values: ``_to_line`` (chart coordinates to
    line coordinates: the raw basis as columns) and its inverse
    ``_from_line`` are raw rows; an ambient vector's line coordinates
    come from the coordinate map of the line space.  ``basis`` wraps
    the raw basis on each read.  ``_points`` keeps the scaled chart
    coordinates of each point that passed ``_point_coords``' checks,
    under the raw tuple it was given as.
    """

    def __init__(self, kind: LineGroupClass, space: Subspace, basis,
                 norm_token):
        """``basis``: three raw tuples."""
        self.kind = kind
        self.space = space
        field = space.form.field
        self._to_line = tuple(zip(*basis))
        self._from_line = linalg.inverse_raw(self._to_line, field)
        assert self._from_line is not None
        self.norm_token = norm_token
        self._points = {}
        if kind is LineGroupClass.ADDITIVE:
            # tau = 2 Q(u) (beta1 - beta2); the matrix divides by 2Q(u), 4Q(u)
            qu, mul = space.form.eval_raw(basis[1]), field._mul
            self._two_qu = mul(field.scalar(2).value, qu)
            self._inv_two_qu = field._inv(self._two_qu)
            self._inv_four_qu = field._inv(mul(field.scalar(4).value, qu))
        zero, one = field.raw_zero, field.raw_one
        # the normal form read off the identity matrix
        self._identity_nf = _normal_form_of_matrix(
            self, ((one, zero, zero), (zero, one, zero), (zero, zero, one)))

    @property
    def basis(self) -> tuple:
        return linalg.wrap_rows(self.space.form.field, zip(*self._to_line))

    def metric_key(self):
        return ((self.kind.value,) + _geometry_key(self.space.geometry)
                + (self.norm_token,))

    def line_key(self):
        g = self.space.geometry
        return _geometry_key(g) + (
            linalg.span_key(tuple(zip(*self.space._cols)), g.field),)


def build_chart(space: Subspace) -> Chart:
    """Classify the line and construct its canonical chart.

    Runs on raw values in the operation order of Scalar arithmetic; the
    field answers square classes and roots (signs and float roots over
    ApproxReal)."""
    form = space.form
    field = form.field
    add, sub, mul, neg, div = (field._add, field._sub, field._mul,
                               field._neg, field._div)
    is_zero, one = field._is_zero, field.raw_one
    lc = space._l_raw
    if is_zero(form.eval_raw(lc)):
        return _build_additive_chart(space, lc)
    c1, c2 = form.perp_raw([lc])
    a = form.eval_raw(c1)
    bb = form.b_raw(c1, c2)
    c = form.eval_raw(c2)
    two = field.scalar(2).value
    disc = sub(mul(bb, bb), mul(mul(field.scalar(4).value, a), c))
    if field._square_class(disc) is SquareClass.UNIT:
        root = field._sqrt(disc)
        if root is None:
            raise ExactChartUnavailableError(
                "split chart needs an exact square root of the discriminant")
        if not is_zero(a):
            two_a = mul(two, a)
            t1 = div(add(neg(bb), root), two_a)
            t2 = div(sub(neg(bb), root), two_a)
            d1 = tuple([add(mul(t1, x), y) for x, y in zip(c1, c2)])
            d2 = tuple([add(mul(t2, x), y) for x, y in zip(c1, c2)])
        else:
            d1 = c1
            t = div(neg(c), bb)
            d2 = tuple([add(mul(t, x), y) for x, y in zip(c1, c2)])
        d1, d2 = sorted((linalg.normalize_raw(field, d1),
                         linalg.normalize_raw(field, d2)))
        pairing = form.b_raw(d1, d2)
        assert not is_zero(pairing)
        t = div(one, pairing)
        d2 = tuple([mul(t, x) for x in d2])
        return Chart(LineGroupClass.SPLIT_TORUS, space, (lc, d1, d2),
                     ("split",))
    # non-split torus: orthogonal pair with Q(b2) = -eps Q(b1)
    eps = field._nonresidue()
    if not is_zero(a):
        b1 = c1
        t = div(bb, mul(two, a))
        b2p = tuple([sub(y, mul(t, x)) for x, y in zip(c1, c2)])
    else:
        b1 = c2
        t = div(bb, mul(two, c))
        b2p = tuple([sub(x, mul(t, y)) for x, y in zip(c1, c2)])
    target = mul(neg(eps), form.eval_raw(b1))
    s = field._sqrt(div(form.eval_raw(b2p), target))
    if s is None:
        raise ExactChartUnavailableError(
            "non-split chart needs an exact square root for normalization")
    t = div(one, s)
    b2 = tuple([mul(t, x) for x in b2p])
    assert field._eq(form.eval_raw(b2), target)
    return Chart(LineGroupClass.NON_SPLIT_TORUS, space, (lc, b1, b2),
                 ("non-split", eps))


def _build_additive_chart(space: Subspace, lc: tuple) -> Chart:
    """The additive chart of a line with Q(L) = 0, L's raw coordinates
    lc, on raw values as ``build_chart``."""
    form = space.form
    field = form.field
    sub, mul, div = field._sub, field._mul, field._div
    is_zero, one = field._is_zero, field.raw_one
    u0 = next(w for w in form.perp_raw([lc])
              if linalg.rank_raw([lc, w], field) == 2)
    qu = form.eval_raw(u0)
    assert not is_zero(qu)
    canon = one if field._square_class(qu) is SquareClass.UNIT \
        else field._nonresidue()
    s = field._sqrt(div(qu, canon))
    if s is not None:
        t = div(one, s)
        u = tuple([mul(t, x) for x in u0])
        norm_token = ("additive", canon)
    else:
        u = u0
        norm_token = ("additive-unscaled", qu)
    row = form.gram_row_raw(lc)
    i = next(i for i in range(3) if not is_zero(row[i]))
    t = div(one, row[i])
    v0 = tuple([mul(t, one if j == i else field.raw_zero) for j in range(3)])
    t = div(form.b_raw(u, v0), form.b_raw(u, u))
    v1 = tuple([sub(x, mul(t, y)) for x, y in zip(v0, u)])
    t = form.eval_raw(v1)
    v = tuple([sub(x, mul(t, y)) for x, y in zip(v1, lc)])
    assert is_zero(form.eval_raw(v)) and field._eq(form.b_raw(lc, v), one)
    assert is_zero(form.b_raw(u, v))
    return Chart(LineGroupClass.ADDITIVE, space, (lc, u, v), norm_token)


class MotionElement:
    """An element of a line's translation group Gamma.

    ``normal_form``: (mu,) for the split torus, (tau,) for the additive
    group, (a, b) with a^2 - eps b^2 = 1 for the non-split torus; it is
    kept as the raw tuple ``_nf_raw`` and wrapped in Scalars on each
    read.  ``matrix`` acts on line-space coordinates, fixes L, and has
    determinant 1: the chart matrix of the normal form conjugated by
    the chart, kept as raw rows on first read and wrapped on each read.
    """

    def __init__(self, chart: Chart, nf_raw: tuple):
        """``nf_raw``: the normal form as raw values of the chart's
        field (``motion_from_normal_form`` takes user values)."""
        self.chart = chart
        self._nf_raw = nf_raw

    @property
    def normal_form(self) -> tuple:
        field = self.chart.space.form.field
        return tuple([Scalar(x, field) for x in self._nf_raw])

    @cached_property
    def _matrix_raw(self) -> tuple:
        chart, field = self.chart, self.chart.space.form.field
        m = _chart_matrix(chart, self._nf_raw)
        return linalg.mat_mul_raw(linalg.mat_mul_raw(chart._to_line, m, field),
                                  chart._from_line, field)

    @property
    def matrix(self) -> tuple:
        return linalg.wrap_rows(self.chart.space.form.field, self._matrix_raw)

    @property
    def group_class(self) -> LineGroupClass:
        return self.chart.kind

    def is_identity(self) -> bool:
        eq = self.chart.space.form.field._eq
        return all(map(eq, self._nf_raw, self.chart._identity_nf))

    def __repr__(self):
        return (f"MotionElement({self.chart.kind.value}, "
                f"normal_form={self.normal_form})")


def _chart_matrix(chart: Chart, nf):
    """The group law: the chart-coordinate matrix of the raw normal form
    nf, in the order of Scalar arithmetic.  It is [[1, x, y], [0, p, q],
    [0, r, s]] with a determinant-1 block, and it fixes the chart
    coordinate that ``_point_coords`` scales to 1."""
    field = chart.space.form.field
    zero, one = field.raw_zero, field.raw_one
    mul, neg = field._mul, field._neg
    if chart.kind is LineGroupClass.ADDITIVE:
        tau = nf[0]
        return ((one, tau, mul(neg(mul(tau, tau)), chart._inv_four_qu)),
                (zero, one, mul(neg(tau), chart._inv_two_qu)),
                (zero, zero, one))
    if chart.kind is LineGroupClass.SPLIT_TORUS:
        mu = nf[0]
        return ((one, zero, zero),
                (zero, mu, zero),
                (zero, zero, field._inv(mu)))
    a, b = nf
    return ((one, zero, zero),
            (zero, a, mul(chart.norm_token[1], b)),
            (zero, b, a))


def _normal_form_of_matrix(chart: Chart, mc):
    """Read the raw normal form off a raw matrix of Gamma in chart
    coordinates."""
    if chart.kind is LineGroupClass.ADDITIVE:
        assert mc[1][1] == chart.space.form.field.raw_one
        return (mc[0][1],)
    if chart.kind is LineGroupClass.SPLIT_TORUS:
        return (mc[1][1],)
    return (mc[1][1], mc[2][1])


def _unimodular(field, mc) -> bool:
    """Has the raw chart matrix mc determinant 1 by the field's ``_eq``?
    It fixes e_0 (L), so that is the minor of its last two rows."""
    mul = field._mul
    return field._eq(field._sub(mul(mc[1][1], mc[2][2]),
                                mul(mc[1][2], mc[2][1])), field.raw_one)


def motion_from_normal_form(chart: Chart, nf) -> MotionElement:
    """The element of Gamma with normal form nf (user values); refused
    unless nf has the identity's length and a determinant-1 block."""
    field = chart.space.form.field
    nf = tuple(linalg.raw_values(field, nf))
    fits = len(nf) == len(chart._identity_nf)
    if fits and chart.kind is LineGroupClass.SPLIT_TORUS \
            and field._is_zero(nf[0]):
        # mu^-1; _inv raises on an exact zero, this on a float one too
        raise ZeroDivisionError("division by field zero")
    if not (fits and _unimodular(field, _chart_matrix(chart, nf))):
        raise InvalidInputError(f"not in the {chart.kind.value} group")
    return MotionElement(chart, nf)


def _line_chart(g: Geometry, l) -> Chart:
    """The chart of l's line, kept on g under l's normalised raw tuple
    (a ``ProjPoint``'s is already normalised).  A miss runs
    ``build_chart(line_space(g, l))``, so an l that is rejected raises
    on every call and is never stored."""
    _require_plane(g)
    x = _raw_cycle(g, l)
    key = x if isinstance(l, ProjPoint) else linalg.normalize_raw(g.field, x)
    chart = g._charts.get(key)
    if chart is None:
        chart = g._charts[key] = build_chart(line_space(g, l))
    return chart


def _point_coords(chart: Chart, g: Geometry, p):
    """The chart coordinates of the point p on raw values, scaled so
    that the coordinate that pairs with L is 1, kept on the chart under
    p's raw tuple as given; a point that is rejected raises on every
    call and is never stored."""
    x = tuple(_raw_cycle(g, p))
    cc = chart._points.get(x)
    if cc is not None:
        return cc
    field = chart.space.form.field
    is_zero, mul = field._is_zero, field._mul
    if not is_zero(g.form.eval_raw(x)):
        raise NotOnLineError("points of a line lie on the Lie quadric")
    lc = chart.space._coords(x)
    if lc is None:
        raise NotOnLineError("the point is not on the given line")
    cc = linalg.mat_vec_raw(chart._from_line, lc, field)
    # Non-ideality (B(L, p) != 0) shows up in the L-coefficient for the
    # torus charts (Q(L) != 0) and in the v-coefficient for the additive
    # chart (v is the isotropic partner of L).
    lead = cc[2] if chart.kind is LineGroupClass.ADDITIVE else cc[0]
    if is_zero(lead):
        raise IdealPointError("the point is ideal on this line")
    inv = field._inv(lead)
    cc = chart._points[x] = tuple([mul(inv, c) for c in cc])
    return cc


def translation_between(g: Geometry, l, p1, p2) -> MotionElement:
    """The unique gamma in Gamma with gamma p1 = p2 (projectively)."""
    chart = _line_chart(g, l)
    field = chart.space.form.field
    mul, sub, is_zero = field._mul, field._sub, field._is_zero
    c1 = _point_coords(chart, g, p1)
    c2 = _point_coords(chart, g, p2)
    if chart.kind is LineGroupClass.ADDITIVE:
        # points (alpha, beta, 1) with alpha = -beta^2 Q(u); action
        # beta -> beta - tau/(2Q(u))
        nf = (mul(chart._two_qu, sub(c1[1], c2[1])),)
    elif chart.kind is LineGroupClass.SPLIT_TORUS:
        if is_zero(c1[1]) or is_zero(c2[1]):
            raise IdealPointError("split-line point has a vanishing coordinate")
        nf = (mul(c2[1], field._inv(c1[1])),)
    else:
        eps = chart.norm_token[1]
        x1, y1 = c1[1], c1[2]
        x2, y2 = c2[1], c2[2]
        norm1 = sub(mul(x1, x1), mul(mul(eps, y1), y1))
        if is_zero(norm1):
            raise IdealPointError("non-split point with vanishing norm")
        # (x2 + y2 s)(x1 - y1 s) / N(x1 + y1 s) in K[s], s^2 = eps
        inv = field._inv(norm1)
        nf = (mul(sub(mul(x2, x1), mul(mul(eps, y2), y1)), inv),
              mul(sub(mul(y2, x1), mul(x2, y1)), inv))
    # the chart matrix fixes the scaled coordinate, so p1 goes to p2
    # exactly when it carries c1 to c2
    moved = linalg.mat_vec_raw(_chart_matrix(chart, nf), c1, field)
    assert all(map(field._eq, moved, c2)), "translation mismatch (internal)"
    return MotionElement(chart, nf)


def compose(g1: MotionElement, g2: MotionElement) -> MotionElement:
    """g1 after g2: the normal form of the product of the chart matrices."""
    if g1.chart is not g2.chart and (
            g1.chart.kind is not g2.chart.kind or
            g1.chart.line_key() != g2.chart.line_key()):
        raise IncompatibleChartsError("compose needs one line and one chart")
    chart = g1.chart
    m = linalg.mat_mul_raw(_chart_matrix(chart, g1._nf_raw),
                           _chart_matrix(chart, g2._nf_raw),
                           chart.space.form.field)
    return MotionElement(chart, _normal_form_of_matrix(chart, m))


def invert(m: MotionElement) -> MotionElement:
    """The inverse, read off the adjugate of the chart matrix
    [[1, x, y], [0, p, q], [0, r, s]]: its block has determinant 1, so
    the inverse is [[1, -(xs - yr), xq - yp], [0, s, -q], [0, -r, p]]."""
    chart = m.chart
    field = chart.space.form.field
    mul, sub, neg = field._mul, field._sub, field._neg
    (one, x, y), (zero, p, q), (_, r, s) = _chart_matrix(chart, m._nf_raw)
    inverse = ((one, neg(sub(mul(x, s), mul(y, r))),
                sub(mul(x, q), mul(y, p))),
               (zero, s, neg(q)),
               (zero, neg(r), p))
    return MotionElement(chart, _normal_form_of_matrix(chart, inverse))


def same_distance(g1: MotionElement, g2: MotionElement) -> bool:
    """gamma1 in {gamma2, gamma2^-1}; comparable across lines of one
    geometry whose charts share class and normalization."""
    if g1.chart.metric_key() != g2.chart.metric_key():
        raise IncompatibleChartsError(
            "distances along non-isometric charts are not comparable")
    # one chart kind, so one length; _eq keeps the float tolerance
    eq, nf = g1.chart.space.form.field._eq, g1._nf_raw
    return all(map(eq, nf, g2._nf_raw)) or all(map(eq, nf,
                                                   invert(g2)._nf_raw))


def stabilizer_matrices(g: Geometry, l):
    """All isometries of the line space fixing the vector L (det +-1):
    ``_stabilizer_raw`` with each matrix wrapped once."""
    space, chart, mats = _stabilizer_raw(g, l)
    return space, chart, [linalg.wrap_rows(space.form.field, m) for m in mats]


def _stabilizer_raw(g: Geometry, l):
    """(space, chart, raw rows of each isometry of the line space fixing
    the vector L, det +-1)."""
    if not g.field.is_finite:
        raise UnsupportedFieldError("stabilizer enumeration needs a finite field")
    if g.field.order > MAX_METRIC_Q:
        raise UnsupportedFieldError(
            f"field size {g.field.order} exceeds the cap {MAX_METRIC_Q}")
    chart = _line_chart(g, l)
    space = chart.space
    form = space.form
    field = form.field
    lc_raw, x1, x2 = zip(*chart._to_line)

    def norms(x):  # (Q(x), B(L, x)) on raw values
        return form.eval_raw(x), form.b_raw(lc_raw, x)

    want1, want2 = norms(x1), norms(x2)
    cross = form.b_raw(x1, x2)
    cands1, cands2 = [], []
    for x in linalg.all_vectors(field, 3):
        got = norms(x)
        if got == want1:
            cands1.append(x)
        if got == want2:
            cands2.append(x)
    out = []
    for y in cands1:
        for z in cands2:
            if form.b_raw(y, z) != cross:
                continue
            # images of the chart basis determine the map; (lc, y, z) has
            # the chart basis's Gram matrix, so m is invertible
            m_cols = tuple(zip(lc_raw, y, z))  # chart -> line coords
            out.append(linalg.mat_mul_raw(m_cols, chart._from_line, field))
    return space, chart, out


def stabilizer_group(g: Geometry, l):
    """The determinant-1 stabilizer as MotionElements, sorted by normal
    form; its cardinality is the gamma_class order."""
    _, chart, mats = _stabilizer_raw(g, l)
    return _det_one(chart, mats)


def _det_one(chart: Chart, mats) -> tuple:
    """The determinant-1 matrices among the raw stabilizer matrices
    ``mats`` of chart's line, as MotionElements sorted by normal form."""
    field = chart.space.form.field
    out = []
    for m in mats:
        mc = linalg.mat_mul_raw(linalg.mat_mul_raw(chart._from_line, m, field),
                                chart._to_line, field)
        if _unimodular(field, mc):
            out.append(MotionElement(chart, _normal_form_of_matrix(chart, mc)))
    out.sort(key=lambda el: el._nf_raw)
    return tuple(out)


def find_nonideal_line(g: Geometry) -> ProjPoint:
    """First hyperplanecycle with B(P, l) != 0, in canonical order: a
    walk of the points of L^perp alone."""
    if not g.field.is_finite:
        raise UnsupportedFieldError("line search needs a finite field")
    q, bp, is_zero = g.form.eval_raw, g._pair_p, g.field._is_zero
    for x in g.form.perp_points(g._l_raw):
        if is_zero(q(x)) and not is_zero(bp(x)):
            return ProjPoint.from_canonical(g.field, x)
    raise DegenerateLineError("the geometry has no non-ideal hyperplane")


def line_points(g: Geometry, l):
    """Non-ideal points of the line of l: isotropic directions of the
    line space that pair non-trivially with L."""
    space = line_space(g, l)
    if not g.field.is_finite:
        raise UnsupportedFieldError("point enumeration needs a finite field")
    form = space.form
    bl = form.pairing_raw(space._l_raw)
    is_zero = form.field._is_zero
    return space, tuple(pt for x, pt in space._quadric if not is_zero(bl(x)))
