"""Reference oracles: the plain ``Scalar`` paths the library replaced.

Each ``ref_*`` function is a loop or search as the library ran it
before a kernel on raw values took its place; the differential tests
check the library against them, bit for bit over ApproxReal.  Q and B
are summed term by term from the coefficient table (``ref_q``,
``ref_b``), elimination is Gauss-Jordan on Scalars (``ref_rref``), and
the Scalar vector and matrix algebra that ``linalg`` and ``quadform``
dropped for their raw tuples and rows lives here: ``ref_vec_add``,
``ref_vec_sub``, ``ref_vec_scale``, ``ref_is_zero_vector``,
``ref_rank``, ``ref_independent``, ``ref_in_span``, ``ref_span_key``,
``ref_coordinates``, ``ref_combine``, ``ref_mat_vec``, ``ref_mat_mul``,
``ref_inverse``, ``ref_reflection_matrix`` and ``ref_is_isometry``, as
do the Scalar paths of ``diagonalize``, ``is_nondegenerate_form``,
``build_chart`` with the sign rules it used over ApproxReal
(``ref_sign_class``, ``ref_sqrt_any``) and the subcycle constructions.
The couple walk of ``generalized_orthogonal_basis`` with its validation,
the Arf invariant's own couple loop and the rank test of antipodal
points are kept as they were, as are the Scalar-table builds of ``scaled``,
``direct_sum`` and ``_off_radical`` and geometry's Scalar paths: the
coercion of a cycle into Scalars, the point check, powers, the
projection through P and the points of a projected cycle and of a
line, each mapped with ``ref_combine`` and sorted as ``ProjPoint``s.
The pairing scans over the quadric that the byte-lane filter of
``points_of`` replaced are kept too (``ref_points_in_p_perp``,
``ref_points_of``), beside the Scalar loop before them.
This is a helper module, not a test module.
"""

import itertools
import math

from conformal import linalg
from conformal.classify import canonical_form, classify
from conformal.fields import (Rational, SquareClass, UnsupportedFieldError,
                              canonical_nonresidue, sqrt_if_square,
                              square_class)
from conformal.geometry import (MAX_ENUM_Q, EnumerationUnsupportedError,
                                Geometry, IdealDenominatorError,
                                NoCanonicalProjectionError, ProjPoint,
                                RankError, Role, RoleError, Subcycle,
                                _check_enum, lie_quadric_points, pointspace)
from conformal.metric import (ExactChartUnavailableError, IdealPointError,
                              LineGroupClass, NotOnLineError, build_chart,
                              line_space)
from conformal.quadform import (DegenerateFormError, Diagonalization,
                                InvalidInputError, QuadraticForm,
                                bilinear_radical, char2_arf_rep, det_class,
                                signature)


# -- Q and B ---------------------------------------------------------------

def ref_q(q, v):
    total = q.field.zero()
    for (i, j), c in q.coeff_items():
        total = total + c * v[i] * v[j]
    return total


def ref_b(q, u, v):
    total = q.field.zero()
    for (i, j), c in q.coeff_items():
        if i == j:
            total = total + (c + c) * u[i] * v[i]
        else:
            total = total + c * (u[i] * v[j] + u[j] * v[i])
    return total


def ref_gram(q):
    """The Gram matrix of b_full built with Scalar arithmetic."""
    n = q.dim
    zero = q.field.zero()
    rows = [[zero] * n for _ in range(n)]
    for (i, j), c in q.coeff_items():
        if i == j:
            rows[i][i] = rows[i][i] + c + c
        else:
            rows[i][j] = rows[i][j] + c
            rows[j][i] = rows[j][i] + c
    return tuple(tuple(r) for r in rows)


# -- Scalar vector and matrix algebra ---------------------------------------
# Vectors are tuples of Scalars and matrices tuples of Scalar rows, as
# ``linalg`` kept them before its raw tuples and raw rows took their
# place.

def ref_zero_vector(field, n):
    return tuple(field.zero() for _ in range(n))


def ref_vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def ref_vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def ref_vec_scale(c, v):
    return tuple(c * a for a in v)


def ref_is_zero_vector(v):
    return all(a.is_zero() for a in v)


def ref_combine(coeffs, vectors):
    """sum c_i v_i over non-empty ``vectors``, added in order from zero."""
    out = ref_zero_vector(vectors[0][0].field, len(vectors[0]))
    for c, v in zip(coeffs, vectors):
        out = ref_vec_add(out, ref_vec_scale(c, v))
    return out


def ref_identity_matrix(field, n):
    return tuple(linalg.unit_vector(field, n, i) for i in range(n))


def ref_mat_vec(m, v):
    return tuple(sum((a * b for a, b in zip(row, v)),
                     start=row[0].field.zero()) for row in m)


def ref_mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum((x * y for x, y in zip(row, col)),
                           start=row[0].field.zero()) for col in bt)
                 for row in a)


def ref_inverse(m, field):
    """The inverse of a square Scalar matrix read off ``ref_rref`` of
    [M | I], or None when M is singular."""
    n = len(m)
    aug = [tuple(m[i]) + linalg.unit_vector(field, n, i) for i in range(n)]
    red, pivots = ref_rref(aug, field)
    if pivots[:n] != list(range(n)):
        return None
    return tuple(tuple(red[i][n:]) for i in range(n))


def ref_reflection_matrix(q, w):
    """The reflection x -> x - (B(x,w)/Q(w)) w as a Scalar matrix, from
    ``ref_q`` and ``ref_gram``; needs Q(w) != 0."""
    qw = ref_q(q, w)
    if qw.is_zero():
        raise InvalidInputError("reflections need an anisotropic mirror")
    field, n = q.field, q.dim
    bw = ref_mat_vec(ref_gram(q), w)
    images = [ref_vec_sub(linalg.unit_vector(field, n, i),
                          ref_vec_scale(bw[i] / qw, w))
              for i in range(n)]
    return tuple(zip(*images))


def ref_is_isometry(q, m):
    """Q(m e_i) = Q(e_i) and B(m e_i, m e_j) = B(e_i, e_j), i < j, with
    ``ref_q`` and ``ref_b`` on the Scalar columns of m."""
    field, n = q.field, q.dim
    units = [linalg.unit_vector(field, n, i) for i in range(n)]
    cols = [ref_mat_vec(m, e) for e in units]
    for i in range(n):
        if ref_q(q, cols[i]) != ref_q(q, units[i]):
            return False
        for j in range(i + 1, n):
            if ref_b(q, cols[i], cols[j]) != ref_b(q, units[i], units[j]):
                return False
    return True


# -- row reduction, rank, kernel and restrict ------------------------------

def ref_rref(rows, field):
    """Gauss-Jordan elimination on Scalars (the reference for the raw
    ``linalg.rref``)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if not m[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].inverse()
        m[r] = [inv * x for x in m[r]]
        for i in range(nrows):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in m), pivots


def ref_rank(rows, field):
    return len(ref_rref(rows, field)[1]) if rows else 0


def ref_independent(vectors, field):
    return ref_rank(vectors, field) == len(vectors)


def ref_in_span(v, basis, field):
    return ref_rank(list(basis) + [v], field) == ref_rank(basis, field)


def ref_span_key(vectors, field):
    """The non-zero rows of ``ref_rref``, as tuples of raw values."""
    red, pivots = ref_rref(vectors, field)
    return tuple(tuple(x.value for x in row) for row in red[:len(pivots)])


def ref_coordinates(v, basis, field):
    """Coefficients x with sum x_i basis_i = v, or None if v is outside:
    ``ref_rref`` of [B | v] with the basis vectors as the columns of B."""
    v = tuple(field.scalar(a) for a in v)
    k = len(basis)
    aug = [tuple(b[i] for b in basis) + (a,) for i, a in enumerate(v)]
    red, pivots = ref_rref(aug, field)
    if k in pivots:
        return None
    x = [field.zero()] * k
    for row, pc in zip(red, pivots):
        x[pc] = row[k]
    return tuple(x)


def ref_kernel(rows, field, ncols):
    """The kernel basis read off ``ref_rref``: one vector per non-pivot
    column."""
    if not rows:
        return tuple(linalg.unit_vector(field, ncols, i) for i in range(ncols))
    red, pivots = ref_rref(rows, field)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [field.zero()] * ncols
        v[fc] = field.one()
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return tuple(basis)


def ref_complement_indices(vectors, field, n):
    """Add e_i, in order, when it is outside the span so far."""
    span = list(vectors)
    out = []
    for i in range(n):
        e = linalg.unit_vector(field, n, i)
        if ref_rank(span + [e], field) > ref_rank(span, field):
            span.append(e)
            out.append(i)
    return out


def ref_restrict(q, basis):
    """Q and B of every basis vector and pair, on Scalars."""
    coeffs = {}
    for i, bi in enumerate(basis):
        v = q(bi)
        if not v.is_zero():
            coeffs[(i, i)] = v
        for j in range(i + 1, len(basis)):
            b = q.b_full(bi, basis[j])
            if not b.is_zero():
                coeffs[(i, j)] = b
    return QuadraticForm(q.field, len(basis), coeffs)


def ref_scaled(q, c):
    """c Q, each coefficient multiplied as a Scalar."""
    c = q.field.scalar(c)
    return QuadraticForm(q.field, q.dim,
                         {ij: c * v for ij, v in q.coeff_items()})


def ref_direct_sum(q, other):
    """The block table of Q + Q' on Scalars."""
    coeffs = dict(q.coeff_items())
    for (i, j), c in other.coeff_items():
        coeffs[(i + q.dim, j + q.dim)] = c
    return QuadraticForm(q.field, q.dim + other.dim, coeffs)


def ref_off_radical(q, rad):
    """Q's Scalar table on the coordinates that complement the radical
    (rows of Scalars)."""
    keep = ref_complement_indices(rad, q.field, q.dim)
    at = {i: k for k, i in enumerate(keep)}
    return QuadraticForm(q.field, len(keep),
                         {(at[i], at[j]): c for (i, j), c in q.coeff_items()
                          if i in at and j in at})


# -- the quadric and incidence ---------------------------------------------

def ref_isotropic_points(form):
    """The scan ``isotropic_points`` replaced: Q on every projective
    point."""
    is_zero, q = form.field._is_zero, form.eval_raw
    for x in linalg.projective_points(form.field, form.dim):
        if is_zero(q(x)):
            yield x


def ref_points_in_p_perp(g):
    """The scan ``_points_in_p_perp`` replaced: B(P, .) by
    ``pairing_raw`` on every quadric point, kept as (raw tuple,
    ProjPoint) pairs."""
    bp = g.form.pairing_raw(g._p_raw)
    pairs = ((tuple([a.value for a in pt.coords]), pt)
             for pt in lie_quadric_points(g))
    return tuple((x, pt) for x, pt in pairs if not bp(x))


def ref_points_of(g, c):
    """The scan ``points_of`` replaced: B(c, .) by ``pairing_raw`` on
    the points of ``ref_points_in_p_perp``."""
    bc = g.form.pairing_raw(linalg.raw_values(g.field, ref_as_vector(g, c)))
    return tuple(pt for x, pt in ref_points_in_p_perp(g) if not bc(x))


def ref_scalar_points_of(g, c):
    """The Scalar loop before the pairing scan, with B as ``ref_b``."""
    return tuple(pt for pt in lie_quadric_points(g)
                 if ref_b(g.form, g.p_rep, pt.coords).is_zero()
                 and ref_b(g.form, c, pt.coords).is_zero())


def ref_cayley_klein_points(g):
    groups = {}
    for pt in lie_quadric_points(g):
        if not ref_b(g.form, g.p_rep, pt.coords).is_zero():
            continue
        key = ref_span_key((pt.coords, g.l_rep), g.field)
        groups.setdefault(key, []).append(pt)
    classes = [tuple(sorted(v, key=ProjPoint.sort_key))
               for v in groups.values()]
    classes.sort(key=lambda cls: cls[0].sort_key())
    return tuple(classes)


def ref_has_point_search(g):
    p_proj = ProjPoint(g.p_rep) if ref_q(g.form, g.p_rep).is_zero() else None
    for pt in lie_quadric_points(g):
        if not ref_b(g.form, g.p_rep, pt.coords).is_zero():
            continue
        if p_proj is not None and pt == p_proj:
            continue
        return True
    return False


def ref_isotropic_in_span(g, basis):
    combos = linalg.projective_points(g.field, len(basis))
    return [v for v in (ref_combine(linalg.vector(g.field, c), basis)
                        for c in combos)
            if ref_q(g.form, v).is_zero()]


def ref_role(g, c):
    is_point = ref_b(g.form, g.p_rep, c).is_zero()
    is_plane = ref_b(g.form, g.l_rep, c).is_zero()
    if is_point and is_plane:
        return Role.IDEAL
    if is_point:
        return Role.POINT
    return Role.HYPERPLANE if is_plane else Role.GENERIC_CYCLE


# -- the Witt oracle -------------------------------------------------------

def ref_subspaces(field, n, k):
    elems = list(field.elements())
    zero, one = field.zero(), field.one()
    for pivots in itertools.combinations(range(n), k):
        free_positions = []
        for r, p in enumerate(pivots):
            for c in range(p + 1, n):
                if c not in pivots:
                    free_positions.append((r, c))
        for values in itertools.product(elems, repeat=len(free_positions)):
            rows = [[zero] * n for _ in range(k)]
            for r, p in enumerate(pivots):
                rows[r][p] = one
            for (r, c), v in zip(free_positions, values):
                rows[r][c] = v
            yield tuple(tuple(r) for r in rows)


def ref_is_hyperbolic_space(q, basis):
    if not basis:
        return True
    if len(basis) % 2 == 1:
        return False
    field = q.field
    one = field.one()
    span = (ref_combine(linalg.vector(field, c), basis)
            for c in linalg.all_vectors(field, len(basis)))
    vectors = [v for v in span if not ref_is_zero_vector(v)]
    for u in vectors:
        if not ref_q(q, u).is_zero():
            continue
        for v in vectors:
            if ref_b(q, u, v) != one or not ref_q(q, v).is_zero():
                continue
            rows = tuple(tuple(ref_b(q, a, w) for w in basis) for a in (u, v))
            kern = linalg.kernel_basis(rows, field, len(basis))
            sub = tuple(ref_combine(c, basis) for c in kern)
            if len(sub) != len(basis) - 2:
                continue
            if ref_is_hyperbolic_space(q, sub):
                return True
        return False
    return False


def ref_witt_index_bruteforce(q):
    for m in range(q.dim // 2, 0, -1):
        for basis in ref_subspaces(q.field, q.dim, 2 * m):
            if ref_is_hyperbolic_space(q, basis):
                return m
    return 0


# -- metric ----------------------------------------------------------------

def ref_sign_class(x):
    """Square class, by sign over ApproxReal."""
    if x.field.is_exact:
        return square_class(x)
    if x.is_zero():
        return SquareClass.ZERO
    return SquareClass.UNIT if x.value > 0 else SquareClass.NON_RESIDUE


def ref_sqrt_any(x):
    """The canonical exact root, or the float root over ApproxReal."""
    if x.field.is_exact:
        return sqrt_if_square(x)
    if x.value < 0 and not x.is_zero():
        return None
    return x.field.scalar(math.sqrt(max(x.value, 0.0)))


def ref_build_chart(space):
    """(kind, basis, norm token) of the chart, built on Scalars as
    ``build_chart`` did: ``ProjPoint`` to order the split pair and
    ``ref_in_span`` to pick the additive chart's u."""
    form = space.form
    field = form.field
    lc = space.l_coords
    if ref_sign_class(form(lc)) is SquareClass.ZERO:
        perp = form.perp([lc])
        u0 = next(w for w in perp if not ref_in_span(w, [lc], field))
        qu = form(u0)
        canon = field.one() if ref_sign_class(qu) is SquareClass.UNIT else \
            canonical_nonresidue(field)
        s = ref_sqrt_any(qu / canon)
        if s is not None:
            u = ref_vec_scale(s.inverse(), u0)
            norm_token = ("additive", canon.value)
        else:
            u = u0
            norm_token = ("additive-unscaled", qu.value)
        row = form.gram_row(lc)
        i = next(i for i in range(3) if not row[i].is_zero())
        v0 = ref_vec_scale(row[i].inverse(), linalg.unit_vector(field, 3, i))
        v1 = ref_vec_sub(v0, ref_vec_scale(
            form.b_full(u, v0) / form.b_full(u, u), u))
        v = ref_vec_sub(v1, ref_vec_scale(form(v1), lc))
        return LineGroupClass.ADDITIVE, (lc, u, v), norm_token
    c1, c2 = form.perp([lc])
    a = form(c1)
    bb = form.b_full(c1, c2)
    c = form(c2)
    disc = bb * bb - field.scalar(4) * a * c
    if ref_sign_class(disc) is SquareClass.UNIT:
        root = ref_sqrt_any(disc)
        if root is None:
            raise ExactChartUnavailableError(
                "split chart needs an exact square root of the discriminant")
        if not a.is_zero():
            two_a = field.scalar(2) * a
            d1 = ref_vec_add(ref_vec_scale((-bb + root) / two_a, c1), c2)
            d2 = ref_vec_add(ref_vec_scale((-bb - root) / two_a, c1), c2)
        else:
            d1 = c1
            d2 = ref_vec_add(ref_vec_scale(-c / bb, c1), c2)
        d1, d2 = ProjPoint(d1), ProjPoint(d2)
        if d2.sort_key() < d1.sort_key():
            d1, d2 = d2, d1
        d1, d2 = d1.coords, d2.coords
        d2 = ref_vec_scale(form.b_full(d1, d2).inverse(), d2)
        return LineGroupClass.SPLIT_TORUS, (lc, d1, d2), ("split",)
    eps = canonical_nonresidue(field)
    if not a.is_zero():
        b1 = c1
        b2p = ref_vec_sub(c2, ref_vec_scale(bb / (field.scalar(2) * a), c1))
    else:
        b1 = c2
        b2p = ref_vec_sub(c1, ref_vec_scale(bb / (field.scalar(2) * c), c2))
    s = ref_sqrt_any(form(b2p) / (-eps * form(b1)))
    if s is None:
        raise ExactChartUnavailableError(
            "non-split chart needs an exact square root for normalization")
    return (LineGroupClass.NON_SPLIT_TORUS,
            (lc, b1, ref_vec_scale(s.inverse(), b2p)), ("non-split", eps.value))


def ref_chart_matrix(chart, nf):
    """The line-space matrix of a normal form, on Scalars."""
    field = chart.space.form.field
    zero, one = field.zero(), field.one()
    if chart.kind is LineGroupClass.ADDITIVE:
        tau = nf[0]
        qu = chart.space.form(chart.basis[1])
        m = ((one, tau, -(tau * tau) / (field.scalar(4) * qu)),
             (zero, one, -tau / (field.scalar(2) * qu)),
             (zero, zero, one))
    elif chart.kind is LineGroupClass.SPLIT_TORUS:
        mu = nf[0]
        m = ((one, zero, zero),
             (zero, mu, zero),
             (zero, zero, mu.inverse()))
    else:
        a, b = nf
        eps = field.scalar(chart.norm_token[1])
        m = ((one, zero, zero),
             (zero, a, eps * b),
             (zero, b, a))
    to_line = tuple(zip(*chart.basis))
    return ref_mat_mul(ref_mat_mul(to_line, m), ref_inverse(to_line, field))


def ref_point_chart_coords(chart, g, p):
    """Chart coordinates of p through the line space's Scalar solve."""
    pv = p.coords if isinstance(p, ProjPoint) else \
        tuple(g.field.scalar(x) for x in p)
    if not g.form(pv).is_zero():
        raise NotOnLineError("points of a line lie on the Lie quadric")
    lc = chart.space.from_ambient(pv)
    if lc is None:
        raise NotOnLineError("the point is not on the given line")
    cc = ref_mat_vec(ref_inverse(tuple(zip(*chart.basis)), g.field), lc)
    lead = cc[2] if chart.kind is LineGroupClass.ADDITIVE else cc[0]
    if lead.is_zero():
        raise IdealPointError("the point is ideal on this line")
    inv = lead.inverse()
    return tuple(inv * x for x in cc)


def ref_translation(g, l, p1, p2):
    """(chart, normal form, matrix) of the translation from p1 to p2,
    with a chart built for the call and every step on Scalars."""
    chart = build_chart(line_space(g, l))
    field = chart.space.form.field
    c1 = ref_point_chart_coords(chart, g, p1)
    c2 = ref_point_chart_coords(chart, g, p2)
    if chart.kind is LineGroupClass.ADDITIVE:
        qu = chart.space.form(chart.basis[1])
        nf = (field.scalar(2) * qu * (c1[1] - c2[1]),)
    elif chart.kind is LineGroupClass.SPLIT_TORUS:
        if c1[1].is_zero() or c2[1].is_zero():
            raise IdealPointError("split-line point has a vanishing coordinate")
        nf = (c2[1] / c1[1],)
    else:
        eps = field.scalar(chart.norm_token[1])
        x1, y1 = c1[1], c1[2]
        x2, y2 = c2[1], c2[2]
        norm1 = x1 * x1 - eps * y1 * y1
        if norm1.is_zero():
            raise IdealPointError("non-split point with vanishing norm")
        nf = ((x2 * x1 - eps * y2 * y1) / norm1,
              (y2 * x1 - x2 * y1) / norm1)
    return chart, nf, ref_chart_matrix(chart, nf)


def ref_compose(chart, nf1, nf2):
    if chart.kind is LineGroupClass.ADDITIVE:
        return (nf1[0] + nf2[0],)
    if chart.kind is LineGroupClass.SPLIT_TORUS:
        return (nf1[0] * nf2[0],)
    eps = chart.space.form.field.scalar(chart.norm_token[1])
    (a1, b1), (a2, b2) = nf1, nf2
    return (a1 * a2 + eps * b1 * b2, a1 * b2 + b1 * a2)


def ref_invert(chart, nf):
    if chart.kind is LineGroupClass.ADDITIVE:
        return (-nf[0],)
    if chart.kind is LineGroupClass.SPLIT_TORUS:
        return (nf[0].inverse(),)
    return (nf[0], -nf[1])


def ref_nonideal_line(g):
    """find_nonideal_line's scan of the whole quadric: the first point of
    ``isotropic_points()`` with B(L, x) = 0 and B(P, x) != 0, or None."""
    b, is_zero = g.form.b_raw, g.field._is_zero
    for x in g.form.isotropic_points():
        if is_zero(b(g._l_raw, x)) and not is_zero(b(g._p_raw, x)):
            return ProjPoint.from_canonical(g.field, x)
    return None


# -- classify --------------------------------------------------------------

def ref_candidates(field, dim):
    """The candidate vectors of the Scalar search: the projective points
    over F_q, the nonzero vectors of {0, 1, -1}^dim over Q."""
    if field.is_finite:
        for x in linalg.projective_points(field, dim):
            yield linalg.vector(field, x)
        return
    for coords in itertools.product((0, 1, -1), repeat=dim):
        if any(coords):
            yield tuple(field.scalar(c) for c in coords)


def ref_representative(cls):
    """representative_geometry's search on Scalars: wrapped Q,
    square_class, b_full and an independence test for every candidate,
    and ``classify`` on each pair that passes them."""
    field = cls.field
    form = canonical_form(field, cls.geom_dim, cls.form_invariant)
    p_rep = next(v for v in ref_candidates(field, form.dim)
                 if square_class(form(v)) is cls.qp)
    for v in ref_candidates(field, form.dim):
        if square_class(form(v)) is not cls.ql:
            continue
        if not form.b_full(p_rep, v).is_zero():
            continue
        if not ref_independent([p_rep, v], field):
            continue
        got = classify(Geometry(form, p_rep, v))
        if (got.qp, got.ql) == (cls.qp, cls.ql):
            return p_rep, v
    raise InvalidInputError(f"no representative pair for {cls}")


def ref_pointspace_token(g, lam):
    """The token on Scalars: Q restricted to P^perp and scaled, its
    radical, L's coordinates tested against the radical's span, and the
    form on the greedy complement of the radical."""
    field = g.field
    ps = pointspace(g)
    form = ps.form.scaled(lam)
    rad = ref_kernel(ref_gram(form), field, form.dim)
    l_in_rad = bool(rad) and \
        ref_rank(list(rad) + [ps.l_coords], field) == ref_rank(rad, field)
    core = form
    if rad:
        core = ref_restrict(form, [
            linalg.unit_vector(field, form.dim, i)
            for i in ref_complement_indices(rad, field, form.dim)])
    if isinstance(field, Rational):
        inv = ("sig",) + signature(core)
    else:
        inv = ("det", core.dim, det_class(core).name)
    return (len(rad), inv, square_class(form(ps.l_coords)).name, l_in_rad)


# -- quadform --------------------------------------------------------------

def ref_diagonalize(q):
    """The Scalar loop ``diagonalize`` ran: pivot on the first remaining
    vector with Q != 0, else polarize the first non-orthogonal pair."""
    if q.field.char == 2:
        raise UnsupportedFieldError(
            "diagonalization needs characteristic != 2; "
            "use generalized_orthogonal_basis")
    field = q.field
    n = q.dim
    basis = [linalg.unit_vector(field, n, i) for i in range(n)]
    entries = []
    two = field.scalar(2)
    for i in range(n):
        pivot = None
        for j in range(i, n):
            if not q(basis[j]).is_zero():
                pivot = j
                break
        if pivot is None:
            hyper = None
            for j in range(i, n):
                for k in range(j + 1, n):
                    if not q.b_full(basis[j], basis[k]).is_zero():
                        hyper = (j, k)
                        break
                if hyper:
                    break
            if hyper is None:
                entries.extend(field.zero() for _ in range(i, n))
                break
            j, k = hyper
            basis[j] = ref_vec_add(basis[j], basis[k])
            pivot = j
        basis[i], basis[pivot] = basis[pivot], basis[i]
        a = q(basis[i])
        entries.append(a)
        for j in range(i + 1, n):
            c = q.b_full(basis[i], basis[j]) / (two * a)
            if not c.is_zero():
                basis[j] = ref_vec_sub(basis[j], ref_vec_scale(c, basis[i]))
    return Diagonalization(tuple(entries), tuple(basis))


def ref_is_nondegenerate_form(q):
    """The Scalar test: the wrapped radical, Q and ``sqrt_if_square`` of
    each of its vectors, and ``ref_kernel`` of that one row."""
    rad = bilinear_radical(q)
    if not rad:
        return True
    if q.field.char != 2:
        return False
    row = tuple(sqrt_if_square(q(r)) for r in rad)
    return not ref_kernel((row,), q.field, len(rad))


def ref_represents(q, lam):
    """The Scalar scan ``represents`` ran over a finite field: the first
    nonzero vector of K^n, in sorted order, with Q(v) = lam."""
    field = q.field
    for v in itertools.product(list(field.elements()), repeat=q.dim):
        if not ref_is_zero_vector(v) and q(v) == lam:
            return v
    return None


# -- the couple walk, the Arf loop and antipodal points -----------------------

def ref_couples_of(q, vectors):
    """Validate a generalized orthogonal set of Scalar vectors with
    ``ref_rank`` and ``ref_b``; return its couple index pairs."""
    if vectors and ref_rank(vectors, q.field) < len(vectors):
        raise InvalidInputError("generalized orthogonal set must be independent")
    partner = {}
    couples = set()
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            b = ref_b(q, vectors[i], vectors[j])
            if b.is_zero():
                continue
            if i in partner or j in partner:
                raise InvalidInputError(
                    "a vector participates in two non-orthogonal pairs")
            if b != q.field.one():
                raise InvalidInputError("couple pairing must equal 1")
            if not (ref_b(q, vectors[i], vectors[i]).is_zero()
                    and ref_b(q, vectors[j], vectors[j]).is_zero()):
                raise InvalidInputError("couple members must be symplectic")
            partner[i] = j
            partner[j] = i
            couples.add((i, j))
    return couples


def ref_subspace_orthogonal_to(q, space, against):
    """Basis of {w in span(space) : B(w, a) = 0 for all a in against}."""
    if not against:
        return tuple(space)
    rows = tuple(tuple(q.b_full(a, w) for w in space) for a in against)
    kern = linalg.kernel_basis(rows, q.field, len(space))
    return tuple(ref_combine(combo, space) for combo in kern)


def ref_generalized_orthogonal_basis(q, s=()):
    """The couple walk on Scalar vectors: (vectors, couples)."""
    if bilinear_radical(q):
        raise DegenerateFormError(
            "generalized orthogonal bases need a form without degenerate vectors")
    s = [tuple(q.field.scalar(x) for x in v) for v in s]
    start_couples = ref_couples_of(q, s)
    field = q.field
    one = field.one()

    out_vectors = []
    out_couples = set()

    def emit(v) -> int:
        out_vectors.append(v)
        return len(out_vectors) - 1

    def extend(space, todo, todo_couples):
        if not space:
            if todo:
                raise InvalidInputError("set does not fit in the space")
            return
        if not todo:
            todo = [space[0]]
        nonsymp = next((k for k, v in enumerate(todo)
                        if not q.b_full(v, v).is_zero()), None)
        if nonsymp is not None:
            v = todo[nonsymp]
            emit(v)
            rest = [w for k, w in enumerate(todo) if k != nonsymp]
            rest_couples = {tuple(k - (k > nonsymp) for k in pair)
                            for pair in todo_couples}
            extend(ref_subspace_orthogonal_to(q, space, [v]), rest,
                   rest_couples)
            return
        if todo_couples:
            i, j = min(todo_couples)
            u, v = todo[i], todo[j]
            out_couples.add((emit(u), emit(v)))
            rest = [w for k, w in enumerate(todo) if k not in (i, j)]
            rest_couples = {tuple(k - (k > i) - (k > j) for k in pair)
                            for pair in todo_couples - {(i, j)}}
            extend(ref_subspace_orthogonal_to(q, space, [u, v]), rest,
                   rest_couples)
            return
        v = todo[0]
        rest = todo[1:]
        candidates = (ref_subspace_orthogonal_to(q, space, rest) if rest
                      else space)
        w = next((c for c in candidates if not q.b_full(v, c).is_zero()),
                 None)
        if w is None:
            raise InvalidInputError(
                "no pairing partner found; not a generalized orthogonal set "
                "of this form")
        u = ref_vec_scale(one / q.b_full(v, w), w)
        u = ref_vec_sub(u, ref_vec_scale(q(u), v))
        out_couples.add((emit(v), emit(u)))
        extend(ref_subspace_orthogonal_to(q, space, [v, u]), rest, set())

    space = [linalg.unit_vector(field, q.dim, i) for i in range(q.dim)]
    extend(space, list(s), start_couples)
    return tuple(out_vectors), frozenset(out_couples)


def ref_arf_invariant(q):
    """The Arf invariant's own couple loop: u the first vector left, its
    mate B(u, w)^-1 w for the first w with B(u, w) != 0."""
    field = q.field
    space = [linalg.unit_vector(field, q.dim, i) for i in range(q.dim)]
    total = field.zero()
    while space:
        u = space[0]
        w = next(c for c in space if not q.b_full(u, c).is_zero())
        v = ref_vec_scale(q.b_full(u, w).inverse(), w)
        total = total + q(u) * q(v)
        space = list(ref_subspace_orthogonal_to(q, space, [u, v]))
    image = {(t * t + t).value for t in field.elements()}
    return field.zero() if total.value in image else char2_arf_rep(field)


def ref_antipodal(g, p, q):
    """Antipodal by rank: p, q and L span at most a plane."""
    vp = ref_require_point(g, p)
    vq = ref_require_point(g, q)
    return ref_rank([vp, vq, g.l_rep], g.field) <= 2


def ref_hyperplane_through(g, *points):
    """``hyperplane_through`` with one rank per pair of points."""
    vecs = [ref_require_point(g, p) for p in points]
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            if ref_rank([vecs[i], vecs[j], g.l_rep], g.field) <= 2:
                raise RoleError("an antipodal pair admits no unique hyperplane")
    sol = g.form.perp(vecs + [g.l_rep])
    if not sol:
        return None
    if len(sol) == 1:
        isotropic = [sol[0]] if g.form(sol[0]).is_zero() else []
    else:
        if not g.field.is_finite:
            raise EnumerationUnsupportedError(
                "cannot search an isotropic solution over an infinite field")
        isotropic = ref_isotropic_in_span(g, sol)
    keys = [ref_span_key((v, g.p_rep), g.field) for v in isotropic]
    isotropic = [v for v, key in zip(isotropic, keys) if len(key) == 2]
    if not isotropic:
        return None
    if len({key for key in keys if len(key) == 2}) > 1:
        raise RoleError("multiple distinct hyperplanes satisfy the constraints")
    pts = sorted((ProjPoint(v) for v in isotropic), key=ProjPoint.sort_key)
    return pts[0]


# -- geometry's Scalar paths -----------------------------------------------

def ref_as_vector(g, c):
    """A cycle coerced into Scalars: a ProjPoint's coords as they are.
    The zero vector is no cycle."""
    v = c.coords if isinstance(c, ProjPoint) else \
        tuple(g.field.scalar(x) for x in c)
    if len(v) != g.form.dim:
        raise InvalidInputError(
            f"a cycle has {g.form.dim} coordinates, not {len(v)}")
    if all(a.is_zero() for a in v):
        raise InvalidInputError("the zero vector is not a cycle")
    return v


def ref_require_point(g, p):
    """The point check on the Scalar vector ``ref_as_vector`` coerces."""
    v = ref_as_vector(g, p)
    x, is_zero = linalg.raw_values(g.field, v), g.field._is_zero
    if not is_zero(g.form.eval_raw(x)) or not is_zero(g._pair_p(x)):
        raise RoleError(f"{v} is not a point of the geometry")
    return v


def ref_power_with(g, c1, c2, base):
    """B_half(c1, c2) / (B_half(c1, base) B_half(c2, base)) on Scalars;
    base is g.p_rep for ``relative_power``, g.l_rep for
    ``inversive_separation``."""
    if g.field.char == 2:
        raise UnsupportedFieldError("powers and separations need char != 2")
    v1 = ref_as_vector(g, c1)
    v2 = ref_as_vector(g, c2)
    d1 = g.form.b_half(v1, base)
    d2 = g.form.b_half(v2, base)
    if d1.is_zero() or d2.is_zero():
        raise IdealDenominatorError(
            "cycle pairs ideally with the reference vector")
    return g.form.b_half(v1, v2) / (d1 * d2)


def ref_project_cycle_raw(g, c):
    """c - (B(P,c)/B(P,P)) P on Scalars."""
    bpp = g.form.b_full(g.p_rep, g.p_rep)
    if bpp.is_zero():
        raise NoCanonicalProjectionError(
            "projection through P needs B(P,P) != 0")
    v = ref_as_vector(g, c)
    coef = g.form.b_full(g.p_rep, v) / bpp
    return ref_vec_sub(v, ref_vec_scale(coef, g.p_rep))


def ref_subcycle_from_span(g, span):
    """The subcycle of a span of Scalar vectors: ``ref_in_span`` for L,
    ``ProjPoint`` per vector and the rank test of ``ref_is_actual``."""
    return Subcycle(tuple(ProjPoint(v) for v in span),
                    ref_in_span(g.l_rep, span, g.field),
                    ref_is_actual(g, span))


def ref_is_actual(g, span):
    if not g.field.is_finite or g.field.order > MAX_ENUM_Q:
        return None
    perp = g.form.perp(span)
    vectors = [g.p_rep] + ref_isotropic_in_span(g, perp)
    return ref_rank(vectors, g.field) == len(perp)


def ref_span_subcycle(g, *points):
    vecs = [ref_require_point(g, p) for p in points]
    if not ref_independent(vecs, g.field):
        raise RankError("points must be independent")
    return ref_subcycle_from_span(g, vecs)


def ref_intersect_hyperplanes(g, *hyperplanes):
    vecs = [g.p_rep]
    for l in hyperplanes:
        v = ref_as_vector(g, l)
        if not g.form.b_full(g.l_rep, v).is_zero():
            raise RoleError("hyperplane inputs must be orthogonal to L")
        vecs.append(v)
    if not ref_independent(vecs, g.field):
        raise RankError("hyperplanes must be independent (and not P)")
    return ref_subcycle_from_span(g, g.form.perp(vecs))


def ref_quasi_ideal(g, s):
    """The wrapped radical of Q restricted to the subcycle's span."""
    return bool(bilinear_radical(g.form.restrict([p.coords
                                                  for p in s.basis])))


def ref_to_ambient(space, coords):
    field = space.form.field
    return ref_combine([field.scalar(c) for c in coords], space.basis)


def ref_pointspace_points_of(ps, c_proj):
    """The pointspace quadric enumerated for the call, each hit mapped
    with ``ref_combine``, normalised by ``ProjPoint`` and sorted."""
    _check_enum(ps.geometry, MAX_ENUM_Q)
    coords = c_proj if not isinstance(c_proj, ProjPoint) else \
        ps.from_ambient(c_proj.coords)
    if coords is None:
        raise RoleError("cycle does not lie in the pointspace")
    form = ps.form
    bc = form.pairing_raw(linalg.raw_values(form.field, coords))
    return tuple(sorted((ProjPoint(ref_to_ambient(ps, x))
                         for x in form.isotropic_points()
                         if form.field._is_zero(bc(x))),
                        key=ProjPoint.sort_key))


def ref_line_points(g, l):
    """The line space's quadric enumerated for the call, as
    ``ref_pointspace_points_of`` does, keeping the points off L^perp."""
    space = line_space(g, l)
    form = space.form
    bl = form.pairing_raw(linalg.raw_values(form.field, space.l_coords))
    pts = sorted((ProjPoint(ref_to_ambient(space, x))
                  for x in form.isotropic_points()
                  if not form.field._is_zero(bl(x))),
                 key=ProjPoint.sort_key)
    return space, tuple(pts)
