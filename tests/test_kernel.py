"""Differential tests of the raw-value Q/B kernel.

``QuadraticForm.__call__``, ``b_full`` and ``gram_row`` evaluate on raw
field values, ``linalg.rref`` eliminates on them,
``QuadraticForm.isotropic_points`` yields the raw tuples of the quadric
in ``projective_points`` order, solving the last two coordinates as a
block: the (s, t) pairs of each key (Q(y, 0, 0), and the cross sums of
the prefix y with s and with t) are solved once per call, each s from a
cached root table for t (``lie_quadric_points`` sorts them and
``_isotropic_of_span`` runs it on the restricted form and combines the
points on raw values), ``reflect_raw``
and ``mirrors`` build the isometries of Witt's theorem on raw tuples,
``cayley_klein_points``, ``has_point_search`` and ``role`` filter raw
tuples, ``points_of`` filters byte columns (``test_byte_lanes.py``), ``subspaces`` and ``_is_hyperbolic_space`` run
the Witt oracle on them, ``linalg.coordinate_map`` solves for coordinates
(checked against the Scalar ``ref_coordinates``), and ``metric.translation_between``,
``motion_from_normal_form``, ``compose`` and ``invert`` run on raw
values against a chart kept on the geometry.  ``kernel_basis`` wraps
``kernel_raw`` once, ``complement_indices`` reads the pivots of a kernel
basis (checked against the greedy loop it replaced) and the
cycle-equivalence tokens of every class representative are pinned.
``linalg.mat_vec_raw``, the one matrix-vector product, ``mat_mul_raw``
and ``inverse_raw`` are checked against the Scalar matrix algebra they
replaced, ``is_isometry`` against the Scalar check of Q and B on the
columns, and ``_couples_of`` on raw tuples against its Scalar
validation.
``QuadraticForm.pairing_raw`` (x -> B(y, x) from y's Gram row, taken
once) is checked against ``b_raw``; ``role`` runs on it and is checked
on the rational atlas and the float model lifts, and the incidence
outputs of the atlas-sweep class representatives are pinned.
``linalg.normalize_raw`` is checked against ``ProjPoint`` and
``b_half`` against the Scalar division it replaced.  A ``Subspace``
keeps the isotropic points of its form, taken once, as (raw
coordinates, ambient point): ``pointspace_points_of`` and
``line_points`` filter them and are checked against the per-call
enumeration they replaced; ``_raw_cycle`` unwraps a cycle in one pass
and is checked against ``ref_as_vector`` and ``raw_values``, and the
powers and the projection through P, on its raw values, against their
Scalar paths.
Over Q, ``linalg.rref`` eliminates on integers, ``restrict`` works on
integer Gram rows, and ``eval_raw``, ``b_raw`` and
``gram_row`` run on integer numerators (the table and the input scaled
by the lcm of their denominators) and build one Fraction per result;
they are checked on denominators up to 10^6, plain-int raw values and
tables over different denominators.  ``isotropic_points`` is also
checked against the projective-point scan it replaced on arbitrary
tables, degenerate ones included (the block coordinates without square
term, without cross term or in the radical), over F_3..F_13, F_2 and
F_4, its order is pinned by sha256 on larger forms, it walks exactly
one prefix per block, its root table is checked against brute-force
roots, and its point counts against the closed form of the quadric.  The references
in ``reference.py`` are the plain ``Scalar``-arithmetic loops and
matrices those functions replaced; every answer must agree with them,
bit for bit over ApproxReal.
"""

import hashlib
import itertools
import math
import random
import re
import struct
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conformal import linalg, verify
from conformal.fields import (ApproxReal, CharTwo, ConformalError,
                              FieldMismatchError, PrimeField, Rational,
                              Scalar, SquareClass, UnsupportedFieldError)
from conformal.geometry import (EnumerationUnsupportedError, Geometry,
                                IdealDenominatorError, NotAHypercycleError,
                                ProjPoint, Role,
                                RoleError, _isotropic_of_span,
                                _raw_cycle, antipodal, cayley_klein_points,
                                has_point_search, hyperplane_through,
                                inversive_separation, lie_quadric_points,
                                points_of, pointspace, pointspace_points_of,
                                project_cycle_raw, relative_power, role)
from conformal.classify import (_pointspace_class, _scaling_options,
                                cycle_equivalent, enumerate_classes,
                                representative_geometry)
from conformal.metric import (DegenerateLineError, ExactChartUnavailableError,
                              IdealPointError, LineGroupClass,
                              NotOnLineError, build_chart, compose,
                              find_nonideal_line, invert, line_points,
                              line_space, motion_from_normal_form,
                              translation_between, _chart_matrix,
                              _normal_form_of_matrix, _stabilizer_raw,
                              gamma_class, stabilizer_group)
from conformal.models import (ModelKind, cycles_at_angle,
                              exact_model_geometry, lift_cycle,
                              lift_hypercycle, lift_line, lift_parabola,
                              lift_paracycle, lift_point, model_geometry,
                              points_at_distance)
from conformal.quadform import (InvalidInputError, QuadraticForm,
                                _couples_of, _is_hyperbolic_space,
                                _root_table, _vectors_of, arf_invariant,
                                bilinear_radical,
                                generalized_orthogonal_basis, is_isometry,
                                mirrors, subspaces, witt_index_bruteforce)
from reference import (ref_antipodal, ref_arf_invariant, ref_as_vector,
                       ref_b, ref_cayley_klein_points, ref_chart_matrix,
                       ref_combine, ref_complement_indices, ref_compose,
                       ref_coordinates, ref_is_zero_vector, ref_rank,
                       ref_span_key, ref_vec_add, ref_vec_scale, ref_vec_sub,
                       ref_couples_of, ref_generalized_orthogonal_basis,
                       ref_gram, ref_has_point_search,
                       ref_hyperplane_through, ref_identity_matrix,
                       ref_inverse, ref_invert, ref_is_hyperbolic_space,
                       ref_is_isometry, ref_isotropic_in_span,
                       ref_isotropic_points, ref_kernel, ref_line_points,
                       ref_mat_mul, ref_mat_vec, ref_scalar_points_of,
                       ref_reflection_matrix,
                       ref_zero_vector,
                       ref_pointspace_points_of, ref_pointspace_token,
                       ref_power_with, ref_project_cycle_raw, ref_q,
                       ref_restrict, ref_role, ref_rref, ref_subspaces,
                       ref_to_ambient, ref_translation,
                       ref_witt_index_bruteforce)

FIELDS = [Rational(), PrimeField(3), PrimeField(5), PrimeField(7),
          PrimeField(11), PrimeField(13), CharTwo(2), CharTwo(4),
          ApproxReal()]


def rationals():
    """Raw rationals: mostly small, some with denominators up to 10^6,
    and plain ints (a raw value may be either)."""
    return (st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9))
            | st.fractions(max_denominator=10**6)
            | st.integers(-10**6, 10**6))


def elements(field):
    if isinstance(field, Rational):
        return st.builds(field.scalar, rationals())
    if isinstance(field, ApproxReal):
        return st.builds(field.scalar,
                         st.floats(-1e6, 1e6, allow_nan=False)
                         | st.sampled_from([0.0, -0.0, 1e-300, 0.1, 3.0]))
    return st.sampled_from(list(field.elements()))


@st.composite
def forms(draw, field, dims=st.integers(1, 6)):
    dim = draw(dims)
    pairs = [(i, j) for i in range(dim) for j in range(i, dim)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=len(pairs)))
    return QuadraticForm(field, dim,
                         {ij: draw(elements(field)) for ij in chosen})


@st.composite
def form_and_vectors(draw):
    field = draw(st.sampled_from(FIELDS))
    q = draw(forms(field))
    vec = st.tuples(*[elements(field)] * q.dim)
    return q, draw(vec), draw(vec)


def same(a: Scalar, b: Scalar) -> bool:
    if a.field is not b.field:
        return False
    if isinstance(a.value, float):
        return struct.pack("<d", a.value) == struct.pack("<d", b.value)
    return type(a.value) is type(b.value) and a.value == b.value


@settings(max_examples=400, deadline=None)
@given(form_and_vectors())
def test_kernel_matches_scalar_loops(case):
    q, u, v = case
    assert same(q(u), ref_q(q, u))
    assert same(q.b_full(u, v), ref_b(q, u, v))
    assert same(q.b_full(v, u), ref_b(q, v, u))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.token())
def test_kernel_mixed_fields_raise(field):
    other = PrimeField(17)
    q = QuadraticForm(field, 3, {(0, 0): 1, (0, 1): 1, (2, 2): 1})
    good = (field.one(), field.zero(), field.one())
    for bad in ((field.one(), other.one(), field.one()),
                (other.zero(), field.zero(), field.zero())):
        with pytest.raises(FieldMismatchError):
            q(bad)
        with pytest.raises(FieldMismatchError):
            q.b_full(good, bad)
        with pytest.raises(FieldMismatchError):
            q.b_full(bad, good)
        with pytest.raises(FieldMismatchError):
            q.gram_row(bad)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kernel_coerces_int_coordinates(data):
    field = data.draw(st.sampled_from(FIELDS))
    q = data.draw(forms(field))
    ints = st.tuples(*[st.integers(-30, 30)] * q.dim)
    u, v = data.draw(ints), data.draw(ints)
    su = tuple(field.scalar(x) for x in u)
    sv = tuple(field.scalar(x) for x in v)
    assert same(q(u), ref_q(q, su))
    assert same(q.b_full(u, sv), ref_b(q, su, sv))
    assert same(q.b_full(su, v), ref_b(q, su, sv))


def test_kernel_accepts_equal_field_instances():
    q = QuadraticForm(PrimeField(5), 2, {(0, 1): 1})
    twin = PrimeField(5)  # equal by token, a different object
    v = (twin.scalar(2), twin.scalar(3))
    assert q(v) == PrimeField(5).scalar(1)
    assert q.b_full(v, v) == PrimeField(5).scalar(2)


def test_gram_row_is_b_against_unit_vectors():
    for field in FIELDS[:8]:
        q = QuadraticForm(field, 4, {(0, 0): 2, (0, 3): 1, (1, 2): 3,
                                     (3, 3): 1})
        x = tuple(field.scalar(k) for k in (1, 2, 0, 3))
        assert q.gram_row(x) == tuple(
            ref_b(q, x, linalg.unit_vector(field, 4, i)) for i in range(4))


@st.composite
def nondegenerate_forms(draw, field, dim=None):
    """A diagonal form (odd p) or a sum of planes a x^2 + xy + b y^2
    (characteristic 2), in coordinates moved by a random permuted unit
    triangular matrix, so the form stays non-degenerate; of the given
    dimension, or of one drawn."""
    nonzero = st.sampled_from(list(field.elements())[1:])
    if field.char == 2:
        dim = dim or draw(st.sampled_from([4, 6]))
        coeffs = {}
        for k in range(0, dim, 2):
            coeffs[(k, k + 1)] = field.one()
            coeffs[(k, k)] = draw(elements(field))
            coeffs[(k + 1, k + 1)] = draw(elements(field))
        base = QuadraticForm(field, dim, coeffs)
    else:
        dim = dim or draw(st.sampled_from([4, 5]))
        base = QuadraticForm.diagonal(field, [draw(nonzero)
                                              for _ in range(dim)])
    columns = [tuple(field.one() if r == c else
                     draw(elements(field)) if r < c else field.zero()
                     for r in range(dim)) for c in range(dim)]
    return base.restrict(draw(st.permutations(columns)))


@st.composite
def small_geometries(draw, field=None, dim=None):
    """A geometry over F_2, F_3, F_4 or F_5 (or the given field), on a
    form of ``nondegenerate_forms``, with P any nonzero vector and L any
    nonzero vector of P^perp."""
    field = field or draw(st.sampled_from([CharTwo(2), PrimeField(3),
                                           CharTwo(4), PrimeField(5)]))
    q = draw(nondegenerate_forms(field, dim))
    assert not bilinear_radical(q)
    vec = st.tuples(*[elements(field)] * q.dim)
    p_rep = draw(vec.filter(lambda v: not ref_is_zero_vector(v)))
    perp = linalg.kernel_basis((q.gram_row(p_rep),), field, q.dim)
    coeffs = draw(st.tuples(*[elements(field)] * len(perp)).filter(
        lambda cs: any(not c.is_zero() for c in cs)))
    l_rep = ref_zero_vector(field, q.dim)
    for c, b in zip(coeffs, perp):
        l_rep = ref_vec_add(l_rep, ref_vec_scale(c, b))
    return Geometry(q, p_rep, l_rep)


@settings(max_examples=60, deadline=None)
@given(small_geometries())
def test_lie_quadric_points_matches_scalar_filter(g):
    points = (linalg.vector(g.field, x)
              for x in linalg.projective_points(g.field, g.form.dim))
    scan = [v for v in points if ref_q(g.form, v).is_zero()]
    # unsorted: find_nonideal_line takes the first hit of this order
    assert list(g.form.isotropic_points()) == [
        tuple(c.value for c in v) for v in scan]
    expected = sorted((ProjPoint(v) for v in scan), key=ProjPoint.sort_key)
    got = lie_quadric_points(g)
    assert got == tuple(expected)
    assert all(c.field is g.field for pt in got for c in pt.coords)


FINITE = [PrimeField(3), PrimeField(5), PrimeField(7), PrimeField(11),
          PrimeField(13), CharTwo(2), CharTwo(4)]


def _in_radical(items, k, char):
    """The table without the terms of coordinate k, but for its square
    term in characteristic 2: e_k is then in the radical."""
    return [((i, j), c) for (i, j), c in items
            if k not in (i, j) or (i == j and char == 2)]


@st.composite
def last_coordinate_forms(draw):
    """Any table over a finite field in dims 1 to 6 (to 5 over F_11 and
    F_13, where one dim 6 scan takes about a second), degenerate ones
    included.  One case in six each drops the last coordinate's square
    term (c = 0) or puts e_{n-1} in the radical; the other block
    coordinate n-2 has its square term dropped, its cross term with n-1
    dropped, or e_{n-2} put in the radical."""
    field = draw(st.sampled_from(FINITE))
    q = draw(forms(field, dims=st.integers(1, 6 if field.order < 11 else 5)))
    last = q.dim - 1
    shape = draw(st.sampled_from(["any", "c = 0", "radical", "s^2 = 0",
                                  "no s t", "s radical"]))
    items = q.coeff_items()
    if shape == "c = 0":
        items = [(ij, c) for ij, c in items if ij != (last, last)]
    elif shape == "radical":
        items = _in_radical(items, last, field.char)
    elif shape == "s^2 = 0":
        items = [(ij, c) for ij, c in items if ij != (last - 1, last - 1)]
    elif shape == "no s t":
        items = [(ij, c) for ij, c in items if ij != (last - 1, last)]
    elif shape == "s radical":
        items = _in_radical(items, last - 1, field.char)
    return QuadraticForm(field, q.dim, items)


@settings(max_examples=300, deadline=None)
@given(last_coordinate_forms())
def test_isotropic_points_matches_the_scan(form):
    """Solving for the last two coordinates as a block yields the scan's
    tuples in the scan's order, on every table."""
    assert list(form.isotropic_points()) == list(ref_isotropic_points(form))


# sha256 of repr(list(isotropic_points())), recorded with the solver
# that took one prefix of n - 1 coordinates at a time
ISOTROPIC_ORDER_PINS = [
    (PrimeField(11), 7, {(i, i): c for i, c in enumerate([1, 2, 1, 1, 1, 1, 1])},
     177_156,
     "6f2262b0dc424300883bc92fc97ae3562c99345950d9bf1f8241f8ed7bea4685"),
    (PrimeField(13), 6, {(i, i): c for i, c in enumerate([1, 1, 1, 1, 1, 2])},
     30_772,
     "d7332108486ede335f87b051fe001949479039cd1eae4b985f788ace0343c25d"),
    (CharTwo(4), 6, {(0, 1): 1, (2, 3): 1, (1, 4): 3, (4, 4): 2, (4, 5): 1,
                     (5, 5): 2, (0, 5): 3},
     325,
     "5d63e360c2a6dc5894e8a77628bf5797ea2977c7c7aeb8f9fcb31088b5dc5bad"),
    (PrimeField(7), 6, {(0, 1): 1, (0, 4): 3, (1, 5): 2, (2, 2): 1, (2, 5): 6,
                        (3, 4): 5, (3, 3): 4, (4, 4): 2, (4, 5): 1, (5, 5): 3},
     2752,
     "6e960d8501cacec5ed9b1ab96a149ecc8a784150a078ea39691b21ca772586ae"),
]


@pytest.mark.parametrize("field,dim,table,count,digest", ISOTROPIC_ORDER_PINS,
                         ids=["f11-dim7", "f13-dim6", "f4-dim6", "f7-dim6"])
def test_isotropic_points_order_is_pinned(field, dim, table, count, digest):
    points = list(QuadraticForm(field, dim, table).isotropic_points())
    assert len(points) == count
    assert hashlib.sha256(repr(points).encode()).hexdigest() == digest


@pytest.mark.parametrize("field", FINITE, ids=str)
def test_isotropic_points_walks_one_prefix_per_block(field, monkeypatch):
    """One call on a dim-n form walks the (q^(n-2) - 1)/(q - 1) projective
    points of its first n - 2 coordinates, whatever the table."""
    walked = []
    walk = linalg.projective_points

    def counting(f, n):
        for y in walk(f, n):
            walked.append(y)
            yield y
    monkeypatch.setattr(linalg, "projective_points", counting)
    q, rng = field.order, random.Random(str(field))
    for n in range(3, 6 if q < 11 else 5):
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        table = {ij: rng.randrange(q) for ij in rng.sample(pairs, n)}
        walked.clear()
        list(QuadraticForm(field, n, table).isotropic_points())
        assert len(walked) == (q ** (n - 2) - 1) // (q - 1), (n, table)


@pytest.mark.parametrize("field", [Rational(), ApproxReal()], ids=str)
@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_isotropic_points_refuses_an_infinite_field(field, dim):
    form = QuadraticForm.diagonal(field, [1] * (dim - 1) + [-1])
    points = form.isotropic_points()
    with pytest.raises(UnsupportedFieldError):
        next(points)


@pytest.mark.parametrize("field", FINITE, ids=str)
def test_root_table_holds_every_root(field):
    """For every c != 0, the table holds the roots of c t^2 + b t + a in
    elements order under (b, a), and nothing for a quadratic without a
    root; it is built once per (field, c)."""
    elems = list(field.elements())
    for c in elems[1:]:
        table = _root_table(field, c.value)
        for b, a in itertools.product(elems, repeat=2):
            roots = tuple(t.value for t in elems
                          if (c * t * t + b * t + a).is_zero())
            assert table.get((b.value, a.value), ()) == roots
        assert _root_table(field, c.value) is table


def _is_square(x, p):
    return pow(x, (p - 1) // 2, p) == 1


def closed_form_count(q, n, det):
    """Points of the non-degenerate quadric in PG(n-1, q), q odd: a
    parabolic one for odd n; for n = 2m, hyperbolic (eps = +1) exactly
    when (-1)^m det is a square."""
    if n % 2:
        return (q ** (n - 1) - 1) // (q - 1)
    m = n // 2
    eps = 1 if _is_square((-1) ** m * det % q, q) else -1
    return (q ** (m - 1) + eps) * (q ** m - eps) // (q - 1)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_isotropic_count_matches_the_closed_form(p):
    """Count twice: the enumeration against the closed form, for both
    det classes of the diagonal forms in dims 3 to 6."""
    field = PrimeField(p)
    e = next(x for x in range(2, p) if not _is_square(x, p))
    for n in range(3, 7):
        for diag in ([1] * n, [1] * (n - 1) + [e]):
            form = QuadraticForm.diagonal(field, diag)
            det = math.prod(diag) % p
            assert len(list(form.isotropic_points())) == \
                closed_form_count(p, n, det), (p, diag)


def test_isotropic_count_matches_the_closed_form_f11_dim7():
    form = QuadraticForm.diagonal(PrimeField(11), [1, 2, 1, 1, 1, 1, 1])
    assert len(list(form.isotropic_points())) == \
        closed_form_count(11, 7, 2) == 177_156


@settings(max_examples=60, deadline=None)
@given(small_geometries(), st.data())
def test_point_filters_match_scalar_loops(g, data):
    field = g.field
    assert has_point_search(g) == ref_has_point_search(g)
    quadric = lie_quadric_points(g)
    for _ in range(3):
        pt = data.draw(st.sampled_from(quadric))
        lam = data.draw(st.sampled_from(list(field.elements())[1:]))
        cv = ref_vec_scale(lam, pt.coords)
        c = data.draw(st.sampled_from([pt, cv]))
        assert points_of(g, c) == ref_scalar_points_of(g, cv)
    assert cayley_klein_points(g) == ref_cayley_klein_points(g)
    off = data.draw(st.tuples(*[elements(field)] * g.form.dim))
    if not ref_q(g.form, off).is_zero():
        with pytest.raises(NotAHypercycleError):
            points_of(g, off)


@settings(max_examples=40, deadline=None)
@given(small_geometries(), st.data())
def test_role_matches_scalar_loop(g, data):
    for pt in lie_quadric_points(g):
        assert role(g, pt) == ref_role(g, pt.coords)
    lam = data.draw(st.sampled_from(list(g.field.elements())[1:]))
    pt = data.draw(st.sampled_from(lie_quadric_points(g)))
    assert role(g, ref_vec_scale(lam, pt.coords)) == role(g, pt)
    off = data.draw(st.tuples(*[elements(g.field)] * g.form.dim))
    if not ref_q(g.form, off).is_zero():
        with pytest.raises(NotAHypercycleError,
                           match=re.escape(f"Q({off}) != 0: not on the "
                                           "Lie quadric")):
            role(g, off)


@settings(max_examples=100, deadline=None)
@given(small_geometries(), st.data())
def test_isotropic_in_span_matches_scalar_loop(g, data):
    vec = st.tuples(*[elements(g.field)] * g.form.dim)
    basis = data.draw(st.lists(vec, min_size=1, max_size=3))
    got = _isotropic_of_span(g, [linalg.raw_values(g.field, v)
                                 for v in basis])
    want = ref_isotropic_in_span(g, basis)
    assert len(got) == len(want)
    for v, w in zip(got, want):
        assert all(same(Scalar(a, g.field), b) for a, b in zip(v, w))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reflect_raw_matches_reflection_matrix(data):
    field = data.draw(st.sampled_from(FIELDS[:4] + FIELDS[6:8]))
    q = data.draw(forms(field))
    vec = st.tuples(*[elements(field)] * q.dim)
    w, x = data.draw(vec), data.draw(vec)
    assume(not q(w).is_zero())
    got = q.reflect_raw([c.value for c in w], [c.value for c in x])
    want = ref_mat_vec(ref_reflection_matrix(q, w), x)
    assert all(same(Scalar(a, field), b) for a, b in zip(got, want))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.token())
def test_reflect_raw_refuses_an_isotropic_mirror(field):
    """Q(w) = 0 raises ZeroDivisionError on every field, as the Scalar
    division in ``ref_reflection_matrix`` does."""
    q = QuadraticForm(field, 2, {(0, 1): 1})
    zero, one = field.zero().value, field.one().value
    with pytest.raises(ZeroDivisionError):
        q.reflect_raw((one, zero), (one, one))


def _apply_mirrors(q, ws, x):
    for w in ws:
        x = q.reflect_raw(w, x)
    return x


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_mirrors_send_a_to_b(data):
    """Both cases of ``mirrors`` on non-diagonal forms over F_3/5/7: the
    reflections, in turn, send a to b, and the answer is None exactly when
    a scan of the pool finds no admissible auxiliary vector."""
    field = data.draw(st.sampled_from([PrimeField(3), PrimeField(5),
                                       PrimeField(7)]))
    q = data.draw(nondegenerate_forms(field))
    points = list(linalg.projective_points(field, q.dim))
    anisotropic = [v for v in points if q.eval_raw(v)]
    iso = [v for v in points if not q.eval_raw(v)]
    if data.draw(st.booleans()):
        a = data.draw(st.sampled_from(anisotropic))
        same_norm = [v for v in itertools.product(range(field.p),
                                                  repeat=q.dim)
                     if q.eval_raw(v) == q.eval_raw(a)]
        b = data.draw(st.sampled_from(same_norm))
        ws = mirrors(q, a, b)
        assert ws is not None and len(ws) <= 2
        assert _apply_mirrors(q, ws, a) == b
        return
    a = data.draw(st.sampled_from(iso))
    lam = data.draw(st.integers(1, field.p - 1))
    pairing = data.draw(st.booleans())
    others = [tuple(lam * x % field.p for x in v) for v in iso
              if v != a and bool(q.b_raw(a, v)) == pairing]
    assume(others)
    b = data.draw(st.sampled_from(others))
    size = data.draw(st.integers(0, q.dim - 1))
    fixed = data.draw(st.lists(st.sampled_from(points), min_size=size,
                               max_size=size))
    ws = mirrors(q, a, b, iso, fixed)
    admissible = [r for r in iso if q.b_raw(a, r) and q.b_raw(b, r)
                  and not any(q.b_raw(r, f) for f in fixed)]
    assert (ws is None) == (not q.b_raw(a, b) and not admissible)
    if ws is None:
        return
    if not q.b_raw(a, b):
        r = admissible[0]  # the first admissible r, in pool order
        assert ws == [tuple((x - y) % field.p for x, y in zip(a, r)),
                      tuple((x - y) % field.p for x, y in zip(r, b))]
    assert len(ws) == (1 if q.b_raw(a, b) else 2)
    assert _apply_mirrors(q, ws, a) == b


RAW_FIELDS = FIELDS[:4] + FIELDS[6:]  # Q, F_3/5/7, F_2, F_4, ApproxReal


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_gram_row_matches_gram_matrix(data):
    field = data.draw(st.sampled_from(RAW_FIELDS))
    q = data.draw(forms(field))
    x = data.draw(st.tuples(*[elements(field)] * q.dim))
    gram = q.bilinear_matrix()
    want = ref_gram(q)
    assert all(same(a, b) for row, ref in zip(gram, want)
               for a, b in zip(row, ref))
    got = q.gram_row(x)
    assert len(got) == q.dim
    assert all(same(a, b) for a, b in zip(got, ref_mat_vec(gram, x)))


def test_gram_row_adds_in_mat_vec_order():
    # 1 + 1e16 - 1e16 is 0.0 added left to right and 1.0 right to left
    field = ApproxReal()
    q = QuadraticForm(field, 3, {(0, 0): 0.5, (0, 1): 1.0, (0, 2): 1.0})
    x = tuple(field.scalar(v) for v in (1.0, 1e16, -1e16))
    got = q.gram_row(x)
    assert all(same(a, b) for a, b in
               zip(got, ref_mat_vec(ref_gram(q), x)))
    assert got[0].value == 0.0


# -- one matrix format: raw rows, one product --------------------------------
# ``linalg.mat_vec_raw`` is the library's one matrix-vector product and
# ``inverse_raw`` its one inverse; ``is_isometry`` checks Q and B on the
# raw columns.  The references are the Scalar matrix algebra they
# replaced, kept in ``reference.py``.

def _matrices(data, field, nrows, ncols):
    """A Scalar matrix whose entries are often drawn from a small pool,
    so singular and repeated rows are likely."""
    pool = data.draw(st.lists(elements(field), min_size=1, max_size=3))
    entry = st.sampled_from(pool + [field.zero()]) | elements(field)
    return tuple(data.draw(st.tuples(*[entry] * ncols)) for _ in range(nrows))


def _raw_rows(m):
    return tuple(_raw(row) for row in m)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mat_vec_raw_matches_the_scalar_product(data):
    """``mat_vec_raw`` and ``mat_mul_raw`` against ``ref_mat_vec`` and
    ``ref_mat_mul`` over Q, F_3/5/7, F_2, F_4 and ApproxReal, bit for bit
    on floats."""
    field = data.draw(st.sampled_from(RAW_FIELDS))
    n, k, c = (data.draw(st.integers(1, 5)) for _ in range(3))
    a, b = _matrices(data, field, n, k), _matrices(data, field, k, c)
    x = data.draw(st.tuples(*[elements(field)] * k))
    got = linalg.mat_vec_raw(_raw_rows(a), _raw(x), field)
    assert type(got) is tuple
    assert all(map(same, linalg.vector(field, got), ref_mat_vec(a, x)))
    got = linalg.mat_mul_raw(_raw_rows(a), _raw_rows(b), field)
    want = ref_mat_mul(a, b)
    assert len(got) == len(want) == n
    for row, ref in zip(got, want):
        assert len(row) == len(ref) == c
        assert all(same(Scalar(v, field), w) for v, w in zip(row, ref))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_inverse_raw_matches_the_scalar_inverse(data):
    """``inverse_raw`` against ``ref_inverse`` (Gauss-Jordan on Scalars
    of [M | I]) over Q, F_3/5/7, F_2, F_4 and ApproxReal: None for the
    same singular matrices, the same entries, bit for bit on floats,
    for the others."""
    field = data.draw(st.sampled_from(RAW_FIELDS))
    n = data.draw(st.integers(1, 4))
    m = _matrices(data, field, n, n)
    got, want = linalg.inverse_raw(_raw_rows(m), field), ref_inverse(m, field)
    assert (got is None) == (want is None)
    if got is not None:
        for row, ref in zip(got, want):
            assert all(same(Scalar(v, field), w) for v, w in zip(row, ref))


def _reflections(q, ws):
    """The product of the reflections in the anisotropic vectors of ws,
    as ``ref_reflection_matrix`` builds them (also an isometry in
    characteristic 2)."""
    m = ref_identity_matrix(q.field, q.dim)
    for w in ws:
        if not ref_q(q, w).is_zero():
            m = ref_mat_mul(ref_reflection_matrix(q, w), m)
    return m


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_is_isometry_matches_the_scalar_check(data):
    """``is_isometry`` against ``ref_is_isometry`` over Q, F_3/5/7, F_2,
    F_4 and ApproxReal, on products of reflections (isometries over the
    exact fields), permutation matrices and arbitrary matrices."""
    field = data.draw(st.sampled_from(RAW_FIELDS))
    q = data.draw(forms(field, dims=st.integers(1, 5)))
    n = q.dim
    kind = data.draw(st.sampled_from(["reflections", "permutation", "any"]))
    if kind == "reflections":
        ws = data.draw(st.lists(st.tuples(*[elements(field)] * n),
                                max_size=3))
        m = _reflections(q, ws)
    elif kind == "permutation":
        perm = data.draw(st.permutations(range(n)))
        m = tuple(linalg.unit_vector(field, n, i) for i in perm)
    else:
        m = _matrices(data, field, n, n)
    got = is_isometry(q, m)
    assert got == ref_is_isometry(q, m)
    if kind == "reflections" and field.is_exact:
        assert got


def test_is_isometry_checks_q_not_only_the_gram_matrix():
    """Over F_2 the swap of x0 and x1 keeps B of x0 x1 + x0^2 (the x0^2
    term adds nothing to B in characteristic 2), so it passes the Gram
    identity M^T G M = G, but it moves Q(e0) = 1 to Q(e1) = 0."""
    f2 = CharTwo(2)
    q = QuadraticForm(f2, 2, {(0, 1): 1, (0, 0): 1})
    swap = (linalg.vector(f2, (0, 1)), linalg.vector(f2, (1, 0)))
    gram = ref_gram(q)
    assert ref_mat_mul(ref_mat_mul(tuple(zip(*swap)), gram), swap) == gram
    assert not is_isometry(q, swap)
    assert not ref_is_isometry(q, swap)
    assert is_isometry(q, ref_identity_matrix(f2, 2))


QQ = FIELDS[0]
# coefficients over different denominators, so the table's lcm is not
# any one of them
MIXED_DENOMINATORS = [
    QuadraticForm(QQ, 3, {(0, 0): Fraction(1, 3), (0, 1): Fraction(5, 7),
                          (1, 2): Fraction(-2, 9), (2, 2): 4}),
    QuadraticForm(QQ, 4, {(0, 0): Fraction(1, 999983),
                          (1, 3): Fraction(-7, 10**6),
                          (2, 2): Fraction(3, 2), (3, 3): -1}),
    QuadraticForm(QQ, 2, {(0, 1): Fraction(1, 6), (1, 1): Fraction(-4, 15)}),
]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rational_kernel_matches_fraction_arithmetic(data):
    """Over Q, eval_raw, b_raw, gram_row and reflect_raw sum integer
    numerators and divide once; each result must be the Fraction that
    Scalar arithmetic gives, never an int (repr and JSON print it)."""
    q = data.draw(forms(QQ) | st.sampled_from(MIXED_DENOMINATORS))
    raw = st.lists(rationals(), min_size=q.dim, max_size=q.dim)
    x, y = data.draw(raw), data.draw(raw)
    sx, sy = tuple(map(QQ.scalar, x)), tuple(map(QQ.scalar, y))
    got = [Scalar(q.eval_raw(x), QQ), Scalar(q.b_raw(x, y), QQ)]
    want = [ref_q(q, sx), ref_b(q, sx, sy)]
    got += q.gram_row(sx)
    want += ref_mat_vec(ref_gram(q), sx)
    if not ref_q(q, sx).is_zero():
        got += [Scalar(a, QQ) for a in q.reflect_raw(x, y)]
        want += ref_mat_vec(ref_reflection_matrix(q, sx), sy)
    assert len(got) == len(want)
    assert all(type(a.value) is Fraction for a in got)
    assert all(same(a, b) for a, b in zip(got, want))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rref_matches_scalar_elimination(data):
    field = data.draw(st.sampled_from(RAW_FIELDS))
    ncols = data.draw(st.integers(1, 6))
    nrows = data.draw(st.integers(1, 5))
    # a small pool makes dependent rows and zero columns likely
    pool = data.draw(st.lists(elements(field), min_size=1, max_size=4))
    entry = st.sampled_from(pool + [field.zero()]) | elements(field)
    rows = data.draw(st.lists(st.tuples(*[entry] * ncols),
                              min_size=nrows, max_size=nrows))
    red, pivots = linalg.rref(rows, field)
    want, want_pivots = ref_rref(rows, field)
    assert pivots == want_pivots
    assert len(red) == len(want)
    for row, ref in zip(red, want):
        assert all(same(a, b) for a, b in zip(row, ref))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_coordinate_map_matches_coordinates(data):
    """``coordinate_map`` gives the coordinates the Scalar elimination
    ``ref_coordinates`` solves for, bit for bit over ApproxReal, and
    None for the same vectors, on bases with dependent vectors too."""
    field = data.draw(st.sampled_from(RAW_FIELDS))
    n = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(1, n))
    pool = data.draw(st.lists(elements(field), min_size=1, max_size=3))
    entry = st.sampled_from(pool + [field.zero()]) | elements(field)
    vec = st.tuples(*[entry] * n)
    basis = data.draw(st.lists(vec, min_size=k, max_size=k))
    coeffs = data.draw(st.lists(st.tuples(*[entry] * k), max_size=4))
    vectors = [ref_combine(c, basis) for c in coeffs]
    vectors += data.draw(st.lists(vec, max_size=3))
    cols = tuple(zip(*(linalg.raw_values(field, b) for b in basis)))
    coords = linalg.coordinate_map(cols, field)
    for v in vectors:
        want = ref_coordinates(v, basis, field)
        got = coords(linalg.raw_values(field, v))
        if want is None:
            assert got is None
        else:
            assert len(got) == len(want)
            assert all(same(Scalar(a, field), b) for a, b in zip(got, want))


def test_rref_rejects_rows_of_another_field():
    f3, f5 = PrimeField(3), PrimeField(5)
    rows = (linalg.vector(f5, (1, 3, 4)), linalg.vector(f5, (2, 1, 0)))
    with pytest.raises(FieldMismatchError):
        linalg.rref(rows, f3)
    mixed = (linalg.vector(f5, (1, 3, 4)), linalg.vector(f3, (2, 1, 0)))
    with pytest.raises(FieldMismatchError):
        linalg.rref(mixed, f5)
    with pytest.raises(FieldMismatchError):
        linalg.kernel_basis(mixed, f3, 3)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_perp_is_the_orthogonal_space(data):
    field = data.draw(st.sampled_from([PrimeField(3), PrimeField(5),
                                       CharTwo(2), CharTwo(4)]))
    q = data.draw(forms(field, dims=st.integers(1, 4)))
    vectors = data.draw(st.lists(st.tuples(*[elements(field)] * q.dim),
                                 max_size=3))
    basis = q.perp(vectors)
    space = [linalg.vector(field, x) for x in linalg.all_vectors(field, q.dim)]
    orthogonal = {x for x in space
                  if all(q.b_full(v, x).is_zero() for v in vectors)}
    span = {ref_combine(linalg.vector(field, c), basis)
            for c in linalg.all_vectors(field, len(basis))} if basis \
        else {ref_zero_vector(field, q.dim)}
    assert span == orthogonal
    # q^k distinct combinations: the basis is independent
    assert len(span) == field.order ** len(basis)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_perp_points_is_the_b_raw_filter_in_order(data):
    """perp_points against the b_raw filter of projective_points, in
    order, over F_3/5/7, F_2 and F_4, dims 1-5: arbitrary tables,
    degenerate ones included, and p any raw vector, often one of the
    radical (whose perp is every point)."""
    field = data.draw(st.sampled_from([PrimeField(3), PrimeField(5),
                                       PrimeField(7), CharTwo(2),
                                       CharTwo(4)]))
    q = data.draw(forms(field, dims=st.integers(1, 5)))
    raw = [x.value for x in field.elements()]
    rad = [tuple(x.value for x in v) for v in bilinear_radical(q)]
    if rad and data.draw(st.booleans()):
        p = data.draw(st.sampled_from(rad))
    else:
        p = data.draw(st.tuples(*[st.sampled_from(raw)] * q.dim))
    points = list(linalg.projective_points(field, q.dim))
    want = [x for x in points if field._is_zero(q.b_raw(p, x))]
    assert list(q.perp_points(p)) == want


# -- the Witt oracle ------------------------------------------------------------
# ``subspaces``, ``_is_hyperbolic_space`` and ``witt_index_bruteforce`` as
# they were on Scalars, with Q and B as ``ref_q``/``ref_b``.

WITT_FIELDS = [CharTwo(2), PrimeField(3), CharTwo(4), PrimeField(5)]


def _random_form(rng, field, dim):
    """Random upper-triangular coefficients: degenerate and non-diagonal
    forms come up as often as diagonal ones."""
    elems = list(field.elements())
    pairs = [(i, j) for i in range(dim) for j in range(i, dim)]
    chosen = rng.sample(pairs, rng.randint(0, len(pairs)))
    return QuadraticForm(field, dim, {ij: rng.choice(elems) for ij in chosen})


@pytest.mark.parametrize("field", WITT_FIELDS + [PrimeField(7)],
                         ids=lambda f: f.token())
def test_witt_oracle_matches_scalar_reference(field):
    rng = random.Random(f"witt-oracle {field.token()}")
    wrap = {e.value: e for e in field.elements()}
    seen_degenerate = seen_cross = False
    indices = set()
    # dim 4 over F_7 takes seconds in the Scalar reference
    dims = (1, 2, 3, 4) if field.order <= 5 else (1, 2, 3)
    for dim in dims:
        for _ in range(24 if dim < 4 else 12):
            q = _random_form(rng, field, dim)
            seen_degenerate |= bool(bilinear_radical(q))
            seen_cross |= any(i != j for (i, j), _ in q.coeff_items())
            m = witt_index_bruteforce(q)
            assert m == ref_witt_index_bruteforce(q), q
            indices.add(m)
            # and on single spans, hyperbolic or not
            k = 2 * rng.randint(1, dim // 2) if dim > 1 else 1
            bases = list(subspaces(field, dim, k))
            for basis in rng.sample(bases, min(4, len(bases))):
                ref = tuple(tuple(wrap[a] for a in row) for row in basis)
                assert (_is_hyperbolic_space(q, basis)
                        == ref_is_hyperbolic_space(q, ref)), (q, basis)
    assert seen_degenerate and seen_cross
    assert indices == set(range(dims[-1] // 2 + 1))


def _gaussian_binomial(q, n, k):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("field", WITT_FIELDS, ids=lambda f: f.token())
def test_subspaces_are_each_k_space_once(field):
    for n in (1, 2, 3, 4):
        for k in range(n + 1):
            got = list(subspaces(field, n, k))
            ref = [tuple(tuple(a.value for a in row) for row in basis)
                   for basis in ref_subspaces(field, n, k)]
            assert got == ref
            keys = {linalg.span_key(basis, field) if basis else ()
                    for basis in got}
            assert len(keys) == len(got) == _gaussian_binomial(
                field.order, n, k)
            assert all(len(key) == k for key in keys)


# ---------------------------------------------------------------------------
# metric: translation_between, compose and invert on raw values
# ---------------------------------------------------------------------------

def same_motion(got, nf, matrix) -> bool:
    return (len(got.normal_form) == len(nf)
            and all(map(same, got.normal_form, nf))
            and all(same(a, b) for r, s in zip(got.matrix, matrix)
                    for a, b in zip(r, s)))


def check_translations(g, l, pts):
    """Every ordered pair of pts: translation_between, compose and
    invert against the Scalar references."""
    for p1, p2 in itertools.product(pts, repeat=2):
        chart, nf, matrix = ref_translation(g, l, p1, p2)
        got = translation_between(g, l, p1, p2)
        assert same_motion(got, nf, matrix), (g, l, p1, p2)
        assert same_motion(motion_from_normal_form(got.chart, nf), nf, matrix)
        _, back, _ = ref_translation(g, l, p2, p1)
        inv_nf = ref_invert(chart, nf)
        assert same_motion(invert(got), inv_nf,
                           ref_chart_matrix(chart, inv_nf))
        sum_nf = ref_compose(chart, nf, back)
        assert same_motion(compose(got, translation_between(g, l, p2, p1)),
                           sum_nf, ref_chart_matrix(chart, sum_nf))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_translation_matches_scalar_path(p):
    """On every plane class of F_p with a non-ideal line, the raw
    translation, its inverse and its composites equal the Scalar path's
    normal forms and matrices over the first 8 points of the line."""
    tested = 0
    for cls in enumerate_classes(PrimeField(p), 2):
        g = representative_geometry(cls)
        try:
            l = find_nonideal_line(g)
        except DegenerateLineError:
            continue
        check_translations(g, l, line_points(g, l)[1][:8])
        tested += 1
    assert tested == 9  # every plane class has a non-ideal line


def _model_lines():
    """(geometry, line, points) on the float hyperbolic and elliptic
    models: each line with points at a spread of parameters."""
    hyp, ell = ModelKind.HYPERBOLIC, ModelKind.ELLIPTIC
    ts = (-1.3, -0.2, 0.0, 0.45, 1.7)
    out = []
    for normal, u in (((0.0, 1.0, 0.0), (1.0, 0.0, 0.0)),
                      ((0.6, 0.8, 0.0), (-0.8, 0.6, 0.0))):
        pts = [lift_point(hyp, tuple(math.sinh(t) * a + math.cosh(t) * b
                                     for a, b in zip(u, (0.0, 0.0, 1.0)))).lift
               for t in ts]
        out.append((model_geometry(hyp), lift_line(hyp, normal).lift, pts))
    for normal, u, w in (((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
                         ((0.6, 0.0, 0.8), (0.0, 1.0, 0.0), (0.8, 0.0, -0.6))):
        pts = [lift_point(ell, tuple(math.cos(t) * a + math.sin(t) * b
                                     for a, b in zip(u, w))).lift
               for t in ts]
        out.append((model_geometry(ell), lift_line(ell, normal).lift, pts))
    return out


def test_translation_matches_scalar_path_on_float_models():
    """Bit for bit on the ApproxReal hyperbolic (split) and elliptic
    (non-split) model lines."""
    for g, l, pts in _model_lines():
        check_translations(g, l, pts)


def _rational_lines(g, count=3):
    """The first ``count`` hyperplanes l of g with small integer
    coordinates on which the Scalar path builds an exact chart, each
    with the non-ideal points Q(w) x0 - B(x0, w) w of its line space,
    for the first isotropic x0 and small integer w."""
    F = g.field
    small = range(-2, 3)
    out = []
    for v in itertools.product(small, repeat=g.form.dim):
        l = linalg.vector(F, v)
        if ref_is_zero_vector(l) or not g.form(l).is_zero() or \
                not g.form.b_full(g.l_rep, l).is_zero() or \
                g.form.b_full(g.p_rep, l).is_zero():
            continue
        try:
            space = line_space(g, l)
            build_chart(space)
        except ExactChartUnavailableError:
            continue
        vecs = [space.to_ambient(c) for c in itertools.product(small, repeat=3)
                if any(c)]
        x0 = next((x for x in vecs if g.form(x).is_zero()), None)
        if x0 is None:
            continue
        pts = {ProjPoint(ref_vec_sub(ref_vec_scale(g.form(w), x0),
                                     ref_vec_scale(g.form.b_full(x0, w), w)))
               for w in vecs if not g.form(w).is_zero()}
        pts = sorted((pt for pt in pts if not g.form.b_full(
            g.l_rep, pt.coords).is_zero()), key=ProjPoint.sort_key)
        out.append((l, pts[:6]))
        if len(out) == count:
            break
    return out


@pytest.mark.parametrize("kind", ["hyperbolic", "elliptic", "parabolic"])
def test_translation_matches_scalar_path_over_q(kind):
    """Over Q, on lines whose exact chart exists."""
    g = exact_model_geometry(ModelKind(kind))
    lines = _rational_lines(g)
    assert lines
    for l, pts in lines:
        assert len(pts) >= 3
        check_translations(g, l, pts)


def check_round_trip(chart, nf):
    """nf -> ``_chart_matrix`` -> ``_normal_form_of_matrix`` gives nf
    back, bit for bit."""
    field = chart.space.form.field
    back = _normal_form_of_matrix(chart, _chart_matrix(chart, nf))
    assert len(back) == len(nf) and all(
        same(Scalar(a, field), Scalar(b, field))
        for a, b in zip(back, nf)), (chart.kind, nf, back)


def _det3(m):
    """The determinant of a 3x3 integer matrix, by the rule of Sarrus."""
    return sum(m[0][i] * m[1][(i + 1) % 3] * m[2][(i + 2) % 3]
               - m[0][i] * m[1][(i + 2) % 3] * m[2][(i + 1) % 3]
               for i in range(3))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_chart_matrix_round_trip_on_the_stabilizer(p):
    """Every element of ``stabilizer_group`` on every plane class of F_p
    survives the round trip, and the matrices built from the normal
    forms are exactly the determinant-1 stabilizer matrices."""
    field = PrimeField(p)
    tested = 0
    for cls in enumerate_classes(field, 2):
        g = representative_geometry(cls)
        try:
            l = find_nonideal_line(g)
        except DegenerateLineError:
            continue
        group = stabilizer_group(g, l)
        assert len(group) == gamma_class(g).order(p)
        _, chart, mats = _stabilizer_raw(g, l)
        for el in group:
            check_round_trip(chart, el._nf_raw)
        det_one = {m for m in mats if _det3(m) % p == 1}
        assert {el._matrix_raw for el in group} == det_one
        tested += 1
    assert tested == 9


def test_chart_matrix_round_trip_on_translations():
    """The translations between the points of the ApproxReal model lines
    and of the rational lines of the exact models."""
    lines = list(_model_lines())
    for kind in ("hyperbolic", "elliptic", "parabolic"):
        g = exact_model_geometry(ModelKind(kind))
        lines += [(g, l, pts) for l, pts in _rational_lines(g)]
    for g, l, pts in lines:
        for p1, p2 in itertools.product(pts, repeat=2):
            got = translation_between(g, l, p1, p2)
            check_round_trip(got.chart, got._nf_raw)


class _AnyQ:
    """The form of a geometry with its Q check switched off, so a query
    reaches the checks behind it on a vector off the quadric."""

    def __init__(self, form):
        self._form = form

    def eval_raw(self, x):
        return self._form.field.zero().value

    def __getattr__(self, name):
        return getattr(self._form, name)


@pytest.mark.parametrize("ql", ["ZERO", "UNIT", "NON_RESIDUE"])
def test_translation_errors_on_raw_values(ql):
    """Each rejection of the Scalar path is raised by the raw path too:
    Q(p) != 0 and a point off the line, an ideal point, and (past a
    disabled Q check) a vanishing split coordinate or non-split norm."""
    field = PrimeField(7)
    cls = next(c for c in enumerate_classes(field, 2)
               if c.qp is SquareClass.UNIT and c.ql is SquareClass[ql])
    g = representative_geometry(cls)
    g = Geometry(g.form, g.p_rep, g.l_rep)
    l = find_nonideal_line(g)
    space, pts = line_points(g, l)
    a = pts[0]
    off_quadric = ref_vec_add(a.coords, g.p_rep)
    assert not g.form(off_quadric).is_zero()
    other = next(pt for pt in lie_quadric_points(g)
                 if g.form.b_full(g.p_rep, pt.coords).is_zero()
                 and not g.form.b_full(l.coords, pt.coords).is_zero())
    chart = build_chart(line_space(g, l))
    lc = linalg.raw_values(field, space.l_coords)
    ideal = [ProjPoint(space.to_ambient(linalg.vector(field, x)))
             for x in space.form.isotropic_points()
             if space.form.b_raw(lc, x) == 0]
    # a non-split line has no ideal point
    assert (not ideal) == (chart.kind is LineGroupClass.NON_SPLIT_TORUS)
    for bad, error in ([(off_quadric, NotOnLineError),
                        (other, NotOnLineError)]
                       + [(pt, IdealPointError) for pt in ideal]):
        for args in ((a, bad), (bad, a)):
            with pytest.raises(error):
                ref_translation(g, l, *args)
            with pytest.raises(error):
                translation_between(g, l, *args)
    # off the quadric, chart coordinates (1, 0, 1) have a zero split
    # coordinate and L = (1, 0, 0) a zero non-split norm (the norm of the
    # first point is the one divided by)
    if chart.kind is LineGroupClass.ADDITIVE:
        return
    split = chart.kind is LineGroupClass.SPLIT_TORUS
    if split:
        with pytest.raises(ZeroDivisionError):
            motion_from_normal_form(chart, (0,))
    c = (1, 0, 1) if split else (1, 0, 0)
    v = space.to_ambient(ref_mat_vec(tuple(zip(*chart.basis)),
                                     linalg.vector(field, c)))
    g.form = _AnyQ(g.form)
    for args in ([(v, a), (a, v)] if split else [(v, a)]):
        with pytest.raises(IdealPointError):
            translation_between(g, l, *args)


# -- row reduction on integers, the complement, raw restrict, tokens ---------
# Over Q ``linalg._reduce`` eliminates on integers and
# ``QuadraticForm.restrict`` on integer Gram rows; ``complement_indices``
# reads the pivots of a kernel basis.  The references are the loops they
# replaced: Gauss-Jordan on Scalars (``ref_rref``), the greedy complement
# and the per-pair restrict.

def big_rationals():
    """Numerators up to 10^30 over denominators up to 10^12."""
    return st.builds(Fraction, st.integers(-10**30, 10**30),
                     st.integers(1, 10**12))


@st.composite
def rational_matrices(draw):
    """Rows over Q with zero rows, zero columns and rows that combine
    earlier ones; entries small, large or plain ints; no rows at all
    too (0 x n)."""
    ncols = draw(st.integers(1, 6))
    nrows = draw(st.integers(0, 5))
    entry = st.builds(QQ.scalar, rationals() | big_rationals())
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["free", "zero", "combination"]))
        if kind == "zero" or (kind == "combination" and not rows):
            rows.append(ref_zero_vector(QQ, ncols))
        elif kind == "combination":
            coeffs = draw(st.lists(entry, min_size=len(rows),
                                   max_size=len(rows)))
            rows.append(ref_combine(coeffs, rows))
        else:
            rows.append(draw(st.tuples(*[entry] * ncols)))
    zero_col = draw(st.integers(-1, ncols - 1))
    if zero_col >= 0:
        rows = [r[:zero_col] + (QQ.zero(),) + r[zero_col + 1:] for r in rows]
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(rational_matrices())
def test_integer_reduction_matches_fraction_elimination(case):
    """Over Q the integer elimination gives the rows and pivots of
    Gauss-Jordan on Fractions, every entry a Fraction, and the functions
    built on it agree with that elimination."""
    rows, ncols = case
    red, pivots = linalg.rref(rows, QQ)
    want, want_pivots = ref_rref(rows, QQ)
    assert pivots == want_pivots
    assert len(red) == len(want) == len(rows)
    for row, ref in zip(red, want):
        assert all(same(a, b) for a, b in zip(row, ref))
    raw_rows = [linalg.raw_values(QQ, r) for r in rows]
    assert linalg.rank_raw(raw_rows, QQ) == len(want_pivots)
    assert linalg.span_key(raw_rows, QQ) == ref_span_key(rows, QQ) == tuple(
        tuple(x.value for x in row) for row in want[:len(want_pivots)])
    kern = linalg.kernel_basis(rows, QQ, ncols)
    want_kern = ref_kernel(rows, QQ, ncols)
    assert len(kern) == len(want_kern) == ncols - len(want_pivots)
    for v, ref in zip(kern, want_kern):
        assert all(same(a, b) for a, b in zip(v, ref))
        assert all(ref_mat_vec([r], v)[0].is_zero() for r in rows)
    if rows:
        rhs = ref_mat_vec(rows, linalg.vector(QQ, range(1, ncols + 1)))
        x = linalg.coordinate_map([linalg.raw_values(QQ, r) for r in rows],
                                  QQ)(linalg.raw_values(QQ, rhs))
        assert x is not None
        assert ref_mat_vec(rows, linalg.vector(QQ, x)) == rhs


def test_integer_reduction_of_no_rows_and_zero_rows():
    assert linalg.rref([], QQ) == ((), [])
    assert linalg.rank_raw([], QQ) == ref_rank([], QQ) == 0
    assert linalg.kernel_basis([], QQ, 2) == (
        linalg.vector(QQ, [1, 0]), linalg.vector(QQ, [0, 1]))
    zero = ref_zero_vector(QQ, 3)
    red, pivots = linalg.rref([zero, zero], QQ)
    assert pivots == [] and red == (zero, zero)
    assert all(type(x.value) is Fraction for row in red for x in row)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_kernel_basis_matches_scalar_elimination(data):
    """``kernel_basis`` (``kernel_raw`` wrapped once) against the kernel
    of the Scalar elimination, over Q, F_3/5/7, F_2, F_4 and ApproxReal,
    bit for bit on floats, no rows included."""
    field = data.draw(st.sampled_from(RAW_FIELDS))
    ncols = data.draw(st.integers(1, 6))
    pool = data.draw(st.lists(elements(field), min_size=1, max_size=3))
    entry = st.sampled_from(pool + [field.zero()]) | elements(field)
    rows = data.draw(st.lists(st.tuples(*[entry] * ncols), max_size=5))
    got, want = linalg.kernel_basis(rows, field, ncols), \
        ref_kernel(rows, field, ncols)
    assert len(got) == len(want)
    for v, ref in zip(got, want):
        assert all(same(a, b) for a, b in zip(v, ref))


def _complement_case(data, field):
    n = data.draw(st.integers(1, 6))
    if isinstance(field, ApproxReal):
        # small integers are exact in floats, so no rank hangs on the
        # tolerance
        entry = st.builds(field.scalar, st.integers(-3, 3))
    else:
        pool = data.draw(st.lists(elements(field), min_size=1, max_size=3))
        entry = st.sampled_from(pool + [field.zero()]) | elements(field)
    vectors = data.draw(st.lists(st.tuples(*[entry] * n), max_size=n + 1))
    if vectors and data.draw(st.booleans()):
        coeffs = data.draw(st.tuples(*[entry] * len(vectors)))
        vectors.append(ref_combine(coeffs, vectors))
    return vectors, n


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_complement_indices_matches_greedy_loop(data):
    """The pivots of the kernel of the vectors are the indices the
    greedy loop takes, over Q, F_3/5/7, F_2, F_4 and ApproxReal, on
    dependent, zero and spanning sets."""
    field = data.draw(st.sampled_from(RAW_FIELDS))
    vectors, n = _complement_case(data, field)
    raw = [linalg.raw_values(field, v) for v in vectors]
    assert linalg.complement_indices(raw, field, n) == \
        ref_complement_indices(vectors, field, n)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_restrict_matches_pair_loop(data):
    """``restrict`` equals Q and b_full taken per basis vector and pair,
    bit for bit over ApproxReal, on dependent and zero bases too."""
    field = data.draw(st.sampled_from(RAW_FIELDS))
    if field is QQ and data.draw(st.booleans()):
        q = data.draw(st.sampled_from(MIXED_DENOMINATORS))
    else:
        q = data.draw(forms(field))
    vec = st.tuples(*[elements(field)] * q.dim)
    basis = data.draw(st.lists(vec, min_size=1, max_size=q.dim + 1))
    if data.draw(st.booleans()):
        basis.append(ref_vec_add(basis[0], basis[-1]))
    got, want = q.restrict(basis), ref_restrict(q, basis)
    assert got.dim == want.dim
    assert [ij for ij, _ in got.coeff_items()] == \
        [ij for ij, _ in want.coeff_items()]
    assert all(same(a, b) for (_, a), (_, b)
               in zip(got.coeff_items(), want.coeff_items()))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pointspace_token_matches_scalar_path(data):
    """``cycle_equivalent`` relates two geometries over F_3/F_5 with
    arbitrary P and L, including L = P isotropic (L's coordinates then
    lie in the radical of P^perp), exactly when the Scalar-path token of
    the first under some scaling is the second's; the second is drawn
    afresh or as the first with its form rescaled."""
    g1 = data.draw(small_geometries().filter(lambda g: g.field.char != 2))
    field = g1.field
    if data.draw(st.booleans()):
        lam = data.draw(elements(field).filter(lambda x: not x.is_zero()))
        g2 = Geometry(g1.form.scaled(lam), g1.p_rep, g1.l_rep)
    else:
        g2 = data.draw(small_geometries(field, g1.form.dim))
    g1, g2 = [Geometry(g.form, g.p_rep, g.p_rep)
              if data.draw(st.booleans()) and g.qp().is_zero() else g
              for g in (g1, g2)]
    base = ref_pointspace_token(g2, field.one())
    assert cycle_equivalent(g1, g2) == any(
        ref_pointspace_token(g1, lam) == base
        for lam in _scaling_options(field))


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(5)],
                         ids=str)
def test_pointspace_token_with_l_in_the_radical(field):
    """L = P isotropic: L's coordinates span the radical of P^perp, as
    the Scalar path finds, and the geometry is cycle equivalent to
    itself only, not to the one with L off the radical."""
    form = QuadraticForm(field, 5, {(0, 1): 1, (2, 2): 1, (3, 3): 1,
                                    (4, 4): -1})
    p = linalg.vector(field, [1, 0, 0, 0, 0])
    g = Geometry(form, p, p)
    off = Geometry(form, p, linalg.vector(field, [0, 0, 1, 0, 0]))
    token = ref_pointspace_token(g, field.one())
    assert _pointspace_class(g)[:2] == (token[0], token[3]) == (1, True)
    assert _pointspace_class(off)[:2] == (1, False)
    assert cycle_equivalent(g, g)
    assert not cycle_equivalent(g, off) and not cycle_equivalent(off, g)


def _relation_digest(field, dims):
    digest = hashlib.sha256()
    for d in dims:
        reps = [representative_geometry(c) for c in enumerate_classes(field, d)]
        for (i, g1), (j, g2) in itertools.product(enumerate(reps), repeat=2):
            digest.update(repr((d, i, j, cycle_equivalent(g1, g2))).encode())
    return digest.hexdigest()


# recorded with the pointspace tokens computed once per scaling
RELATION_DIGESTS = [
    (QQ, range(1, 7),
     "d3f921dc6f56b3656767ee8f3cb11809d90923b3531bde4695c089dadf29e64b"),
    (PrimeField(3), range(1, 5),
     "0e542e43823fce61cae45f0dd81c8097c6a999bc24d76f9651ce1b2f55820964"),
    (PrimeField(5), range(1, 5),
     "0e542e43823fce61cae45f0dd81c8097c6a999bc24d76f9651ce1b2f55820964"),
]


@pytest.mark.parametrize("field,dims,digest", RELATION_DIGESTS,
                         ids=["rational", "fp:3", "fp:5"])
def test_cycle_equivalence_relation_is_pinned(field, dims, digest):
    """``cycle_equivalent`` on every ordered pair of class
    representatives is the relation the per-scaling tokens gave."""
    assert _relation_digest(field, dims) == digest


def _raw(v):
    return tuple(c.value for c in v)


@st.composite
def pairing_cases(draw):
    """A form (an arbitrary table, degenerate ones included, or over a
    finite field a non-degenerate one), y and a few x as raw values;
    over Q the raw values mix Fractions and plain ints."""
    field = draw(st.sampled_from(FIELDS))
    if field.is_finite and draw(st.booleans()):
        q = draw(nondegenerate_forms(field))
    else:
        q = draw(forms(field))
    values = rationals() if isinstance(field, Rational) else \
        elements(field).map(lambda s: s.value)
    vec = st.tuples(*[values] * q.dim)
    return q, draw(vec), draw(st.lists(vec, min_size=1, max_size=4))


@settings(max_examples=300, deadline=None)
@given(pairing_cases())
def test_pairing_raw_matches_b_raw(case):
    """pairing_raw(y)(x) is b_raw(y, x): the same value and type over the
    exact fields, within 1e-12 of the terms' size over ApproxReal."""
    q, y, xs = case
    pair = q.pairing_raw(y)
    for x in xs:
        got, want = pair(x), q.b_raw(y, x)
        if q.field.is_exact:
            assert type(got) is type(want) and got == want
        else:
            size = sum(abs(c) * (abs(y[i] * x[j]) + abs(y[j] * x[i]))
                       for i, j, c in q._terms)
            assert abs(got - want) <= 1e-12 * (1 + size)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.token())
def test_b_half_matches_the_scalar_division(field):
    """b_half is half of b_full computed as the Scalar expression
    (1 / 2) * b_full(u, v), bit for bit; characteristic 2 raises."""
    q = QuadraticForm(field, 3, {(0, 0): 3, (0, 2): 5, (1, 1): -1,
                                 (2, 2): 7})
    rng = random.Random(field.token())
    for _ in range(20):
        u, v = ([field.scalar(rng.randint(-9, 9)) for _ in range(3)]
                for _ in range(2))
        if field.char == 2:
            with pytest.raises(UnsupportedFieldError):
                q.b_half(u, v)
            continue
        want = field.one() / field.scalar(2) * q.b_full(u, v)
        assert same(q.b_half(u, v), want)


def _rational_cycles(g):
    """The quadric vectors of g with coordinates in {0, 1, -1}, lead 1,
    P and L when they are isotropic, and every third vector scaled by
    -3/7."""
    field = g.field
    cands = [x for x in itertools.product((0, 1, -1), repeat=g.form.dim)
             if next((a for a in x if a), 0) == 1 and not g.form.eval_raw(x)]
    cycles = [linalg.vector(field, x) for x in cands] + [
        v for v in (g.p_rep, g.l_rep) if g.form(v).is_zero()]
    return cycles + [ref_vec_scale(field.scalar(Fraction(-3, 7)), v)
                     for v in cycles[::3]]


def test_role_matches_scalar_loop_on_the_rational_atlas():
    """role against ref_role on cycles of every class representative of
    the rational atlas d = 1..4; off-quadric vectors raise."""
    seen = set()
    for d in range(1, 5):
        for cls in enumerate_classes(QQ, d):
            g = representative_geometry(cls)
            for c in _rational_cycles(g):
                got = role(g, c)
                assert got == ref_role(g, c)
                seen.add(got)
            off = linalg.unit_vector(QQ, g.form.dim, 0)
            if not g.form(off).is_zero():
                with pytest.raises(NotAHypercycleError):
                    role(g, off)
    assert seen == set(Role)


def _model_lifts():
    """Points, cycles and lines lifted into every float model."""
    E, H, P, M, DS, ADS, LG = (ModelKind.ELLIPTIC, ModelKind.HYPERBOLIC,
                               ModelKind.PARABOLIC, ModelKind.MINKOWSKI2,
                               ModelKind.DE_SITTER, ModelKind.ANTI_DE_SITTER,
                               ModelKind.LAGUERRE_GALILEI)
    return [
        lift_point(E, (0.6, 0.8, 0.0)), lift_cycle(E, (0.0, 0.6, 0.8), 0.3),
        lift_line(E, (0.0, 0.0, 1.0)),
        lift_line(E, (0.6, 0.0, 0.8), orientation=-1),
        lift_point(H, (0.75, 0.0, 1.25)), lift_cycle(H, (0.0, 0.0, 1.0), 0.7),
        lift_line(H, (1.0, 0.0, 0.0)), lift_paracycle((1.0, 0.0, 1.0), 0.7),
        lift_hypercycle((0.0, 1.0, 0.0), 0.4),
        lift_point(P, (2.0, 1.0)), lift_cycle(P, (1.0, -1.0), 1.5),
        lift_line(P, (0.6, 0.8), offset=0.5),
        lift_point(M, (1.0, 2.0)), lift_cycle(M, (0.5, 0.5), 1.0),
        lift_line(M, (1.0, 0.0), offset=0.5),
        lift_point(DS, (1.25, 0.0, 0.75)), lift_cycle(DS, (0.0, 0.0, 1.0), 0.5),
        lift_line(DS, (0.0, 0.0, 1.0)),
        lift_point(ADS, (0.0, 1.0, 0.0)), lift_cycle(ADS, (0.0, 0.0, 1.0), 0.5),
        lift_line(ADS, (0.0, 1.0, 0.0)),
        lift_point(LG, (2.0, 3.0)), lift_line(LG, slope=2.0, intercept=-1.0),
        lift_parabola(1.0, 0.0, 0.0),
    ]


def test_role_matches_scalar_loop_on_model_lifts():
    """role against ref_role on lifts into every float model."""
    lifts = _model_lifts()
    assert {obj.kind for obj in lifts} == set(ModelKind)
    for obj in lifts:
        g = model_geometry(obj.kind)
        assert role(g, obj.lift) == ref_role(g, obj.lift), obj


ATLAS_SWEEP_CASES = ((PrimeField(5), 4), (PrimeField(7), 3), (CharTwo(4), 3))


def _atlas_sweep_geometries():
    """The class representatives with Q(P) a nonzero square and unit
    determinant (Arf 0 in characteristic 2): three over F_5 d = 4 and
    F_7 d = 3, two over F_4 d = 3."""
    for field, d in ATLAS_SWEEP_CASES:
        for cls in enumerate_classes(field, d):
            if cls.qp is SquareClass.UNIT and \
                    cls.form_invariant in (("det", "UNIT"), ("arf", 0)):
                yield representative_geometry(cls)


# recorded with B evaluated by b_raw against P, L and each cycle
INCIDENCE_DIGEST = \
    "40d220f1a0f56e818974fb212f01628dd509832de2a499cbc710c5f116501207"


def test_incidence_outputs_are_pinned():
    """The role of every quadric point, points_of on a spread of cycles
    and cayley_klein_points of the eight representatives are the ones
    computed before the pairing kernel."""
    digest = hashlib.sha256()
    geoms = list(_atlas_sweep_geometries())
    assert len(geoms) == 8
    for k, g in enumerate(geoms):
        quad = lie_quadric_points(g)
        digest.update(repr((k, [role(g, pt).name for pt in quad])).encode())
        for c in quad[::len(quad) // 12]:
            digest.update(repr((k, _raw(c.coords),
                                [_raw(pt.coords) for pt in points_of(g, c)]))
                          .encode())
        digest.update(repr((k, [[_raw(pt.coords) for pt in cls]
                                for cls in cayley_klein_points(g)]))
                      .encode())
    assert digest.hexdigest() == INCIDENCE_DIGEST


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_normalize_raw_matches_proj_point(data):
    """normalize_raw is ProjPoint's normalisation on raw values, bit for
    bit over ApproxReal; the zero vector gives None."""
    field = data.draw(st.sampled_from(FIELDS))
    n = data.draw(st.integers(1, 6))
    v = data.draw(st.tuples(*[elements(field)] * n))
    got = linalg.normalize_raw(field, _raw(v))
    if all(c.is_zero() for c in v):
        assert got is None
        with pytest.raises(ValueError):
            ProjPoint(v)
    else:
        want = ProjPoint(v).coords
        assert all(same(Scalar(a, field), b) for a, b in zip(got, want))
        assert len(got) == len(want)


# -- the couple walk on raw values, Arf from its couples, antipodal keys -----
# ``generalized_orthogonal_basis`` splits its couples on raw tuples and
# ``arf_invariant`` sums Q(u)Q(v) over the couples of that basis;
# ``antipodal`` and ``hyperplane_through`` compare the class keys of
# ``cayley_klein_points``.  The references are the couple walk on Scalar
# vectors, the Arf invariant's own couple loop and one rank per pair.

def _outcome(f, *args):
    """f(*args), or the type and message of the ConformalError it raises."""
    try:
        return f(*args)
    except ConformalError as exc:
        return type(exc), str(exc)


def _gob_cases():
    """(form, set): every set the gen-ortho-basis suite extends (its forms
    over F_3, F_2 and F_4), four forms over Q, one over F_5, and 400
    seeded random tables over ApproxReal (about a third degenerate), half
    of them with one random vector."""
    for form in verify._gen_ortho_forms():
        if bilinear_radical(form):
            continue
        field = form.field
        vectors = [linalg.vector(field, x)
                   for x in linalg.all_vectors(field, form.dim) if any(x)]
        candidates = [()] + [(v,) for v in vectors]
        if len(vectors) <= 90:
            candidates += list(itertools.combinations(vectors, 2))
        for s in candidates:
            try:
                ref_couples_of(form, list(s))
            except InvalidInputError:
                continue
            yield form, s
    yield QuadraticForm.diagonal(QQ, [1, 1, -1]), [(1, 0, 1)]
    yield QuadraticForm.diagonal(QQ, [2, -3, 5, 7]), [(1, 1, 0, 0)]
    yield QuadraticForm.symplectic(QQ, 2), [(1, 0, 1, 0), (0, 1, 0, 0)]
    yield QuadraticForm(QQ, 3, {(0, 0): Fraction(1, 2), (0, 1): 3,
                                (1, 2): Fraction(-1, 3), (2, 2): 5}), []
    yield QuadraticForm.diagonal(PrimeField(5), [1, 1, 1, -1, -1, 2, 3]), []
    rng = random.Random(20261019)
    approx = ApproxReal()
    for _ in range(400):
        dim = rng.randint(2, 5)
        pairs = [(i, j) for i in range(dim) for j in range(i, dim)]
        chosen = rng.sample(pairs, rng.randint(1, len(pairs)))
        q = QuadraticForm(approx, dim, {ij: rng.uniform(-3, 3)
                                        for ij in chosen})
        s = [] if rng.random() < 0.5 else \
            [tuple(rng.uniform(-2, 2) for _ in range(dim))]
        yield q, s


# recorded with the couple walk on Scalar vectors (floats by repr, which
# round-trips every bit)
GOB_DIGEST = \
    "2b3f1265b057ff1bd893985bb8d85c6b0e1583f9fcbf023cc76b026af88fa9f0"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_couples_of_matches_the_scalar_validation(data):
    """``_couples_of`` on the raw tuples of ``_vectors_of`` against the
    Scalar validation ``ref_couples_of``, over Q, F_3/5/7, F_2, F_4 and
    ApproxReal: the same couples or the same error and message.  Small
    pools make dependent sets, pairings of 1 and symplectic vectors
    likely."""
    field = data.draw(st.sampled_from(RAW_FIELDS))
    q = data.draw(forms(field, dims=st.integers(1, 4)))
    pool = data.draw(st.lists(elements(field), min_size=1, max_size=2))
    entry = st.sampled_from(pool + [field.zero(), field.one()])
    s = data.draw(st.lists(st.tuples(*[entry] * q.dim), max_size=4))
    assert _outcome(_couples_of, q, _vectors_of(q, s)) == \
        _outcome(ref_couples_of, q, s)


def test_generalized_orthogonal_basis_outputs_are_pinned():
    """Every basis (raw values and couples) or error of the cases is the
    one the couple walk on Scalar vectors built."""
    digest = hashlib.sha256()
    count = 0
    for form, s in _gob_cases():
        gob = _outcome(generalized_orthogonal_basis, form, s)
        if isinstance(gob, tuple):
            out = gob[0].__name__
        else:
            out = (tuple(_raw(v) for v in gob.vectors), sorted(gob.couples))
        digest.update(repr(out).encode())
        count += 1
    assert count == 6607
    assert digest.hexdigest() == GOB_DIGEST


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_generalized_orthogonal_basis_matches_the_scalar_walk(data):
    """Arbitrary tables over Q, F_3/5/7, F_2, F_4 and ApproxReal, or
    non-degenerate ones over the finite fields, with zero to two random
    vectors: the same basis as the Scalar walk, bit for bit over
    ApproxReal, or the same error."""
    field = data.draw(st.sampled_from(RAW_FIELDS))
    if field.is_finite and field.order < 7 and data.draw(st.booleans()):
        q = data.draw(nondegenerate_forms(field))
    else:
        q = data.draw(forms(field, dims=st.integers(1, 5)))
    s = data.draw(st.lists(st.tuples(*[elements(field)] * q.dim),
                           max_size=2))
    got = _outcome(generalized_orthogonal_basis, q, s)
    want = _outcome(ref_generalized_orthogonal_basis, q, s)
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return
    vectors, couples = want
    assert got.couples == couples
    assert len(got.vectors) == len(vectors)
    for v, w in zip(got.vectors, vectors):
        assert len(v) == len(w) and all(map(same, v, w))


def _tables(field, dim, sample=None):
    """The non-degenerate forms among every table of the dimension, or
    among ``sample`` seeded random tables."""
    elems = list(field.elements())
    pairs = [(i, j) for i in range(dim) for j in range(i, dim)]
    if sample is None:
        values = itertools.product(elems, repeat=len(pairs))
    else:
        rng = random.Random(f"arf {field.token()} {dim}")
        values = ([rng.choice(elems) for _ in pairs] for _ in range(sample))
    for vals in values:
        q = QuadraticForm(field, dim, dict(zip(pairs, vals)))
        if not bilinear_radical(q):
            yield q


@pytest.mark.parametrize("field,dim,sample", [
    (CharTwo(2), 2, None), (CharTwo(2), 4, None), (CharTwo(4), 2, None),
    (CharTwo(2), 6, 400), (CharTwo(4), 4, 400)],
    ids=["f2-d2", "f2-d4", "f4-d2", "f2-d6-sample", "f4-d4-sample"])
def test_arf_invariant_matches_its_own_couple_loop(field, dim, sample):
    """Arf from the couples of the basis equals the class of the loop it
    replaced (whose mates differ by -Q(v)u), on every non-degenerate
    table of F_2 dims 2 and 4 and F_4 dim 2 and on seeded samples of F_2
    dim 6 and F_4 dim 4; both classes come up."""
    classes = set()
    for q in _tables(field, dim, sample):
        got = arf_invariant(q)
        assert same(got, ref_arf_invariant(q)), q
        classes.add(got.value)
    assert len(classes) == 2


def _antipodal_cases(g, pts, rng):
    """Pairs of points: each point with a random point, with a random
    member of its antipodal class (``ref_cayley_klein_points``) and with
    [L] when [L] is a point; the second point is sometimes scaled."""
    classes = {pt: cls for cls in ref_cayley_klein_points(g) for pt in cls}
    l_pt = ProjPoint(g.l_rep)
    nonzero = list(g.field.elements())[1:]
    for p in pts:
        for q in (rng.choice(pts), rng.choice(classes[p]),
                  l_pt if l_pt in classes else None):
            if q is not None:
                yield p, (ref_vec_scale(rng.choice(nonzero), q.coords)
                          if rng.random() < 0.5 else q)


@pytest.mark.parametrize("field,d", [(PrimeField(3), 2), (PrimeField(3), 3),
                                     (PrimeField(5), 2), (CharTwo(4), 3)],
                         ids=["fp:3-d2", "fp:3-d3", "fp:5-d2", "f4-d3"])
def test_antipodal_matches_the_rank_test(field, d):
    """On every class representative, ``antipodal`` on the pairs of
    ``_antipodal_cases`` and ``hyperplane_through`` on them and on
    seeded triples agree with one rank per pair.  A Q(L) = 0 class,
    where [L] is a point antipodal to every point, comes up."""
    rng = random.Random(f"antipodal {field.token()} {d}")
    seen, saw_l = set(), False
    for cls in enumerate_classes(field, d):
        g = representative_geometry(cls)
        pts = [pt for pt in lie_quadric_points(g)
               if ref_role(g, pt.coords) in (Role.POINT, Role.IDEAL)]
        saw_l |= ProjPoint(g.l_rep) in pts
        for p, q in _antipodal_cases(g, pts, rng):
            want = ref_antipodal(g, p, q)
            assert antipodal(g, p, q) == want, (cls, p, q)
            seen.add(want)
            assert _outcome(hyperplane_through, g, p, q) == \
                _outcome(ref_hyperplane_through, g, p, q)
        for _ in range(20):
            three = rng.sample(pts, 3)
            assert _outcome(hyperplane_through, g, *three) == \
                _outcome(ref_hyperplane_through, g, *three)
    assert saw_l and seen == {True, False}


def _model_points(kind):
    """Base coordinates of four points on one hyperplane of the elliptic
    or hyperbolic model (a great circle, a geodesic), two seeded random
    points, and the antipode -x of each."""
    rng = random.Random(kind.value)
    if kind is ModelKind.ELLIPTIC:
        pts = [(math.cos(t), 0.6 * math.sin(t), 0.8 * math.sin(t))
               for t in (0.3, 1.1, 2.0, 4.0)]
    else:
        pts = [(0.6 * math.sinh(t), 0.8 * math.sinh(t), math.cosh(t))
               for t in (-1.0, 0.2, 0.7, 1.5)]
    for _ in range(2):
        a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
        if kind is ModelKind.ELLIPTIC:
            norm = math.sqrt(a * a + b * b + 1)
            pts.append((a / norm, b / norm, 1 / norm))
        else:
            pts.append((a, b, math.sqrt(1 + a * a + b * b)))
    return pts + [tuple(-c for c in x) for x in pts]


@pytest.mark.parametrize("kind", [ModelKind.ELLIPTIC, ModelKind.HYPERBOLIC],
                         ids=lambda k: k.value)
def test_antipodal_matches_the_rank_test_on_a_float_model(kind):
    """The float model: ``antipodal`` on every pair of ``_model_points``
    and ``hyperplane_through`` on every triple agree with the rank test.
    (Over an infinite field the hyperplane through points is never
    searched, so the triples give None or an error.)"""
    g = model_geometry(kind)
    pts = [lift_point(kind, x).lift for x in _model_points(kind)]
    seen = set()
    for p, q in itertools.combinations(pts, 2):
        want = ref_antipodal(g, p, q)
        assert antipodal(g, p, q) == want
        seen.add(want)
    assert seen == {True, False}
    outcomes = set()
    for three in itertools.combinations(pts, 3):
        want = _outcome(ref_hyperplane_through, g, *three)
        assert _outcome(hyperplane_through, g, *three) == want
        outcomes.add(want if want is None else want[0])
    assert outcomes == {None, RoleError, EnumerationUnsupportedError}


# -- one subspace quadric and one unwrap per cycle -----------------------------

def _pointspace_cycles(g, ps):
    """Pointspace coordinates: the projection of every quadric cycle of
    g (checked against its Scalar path) or, where B(P, P) = 0 and there
    is no projection, every projective point of the pointspace."""
    field = g.field
    if g.form.b_full(g.p_rep, g.p_rep).is_zero():
        return [linalg.vector(field, x)
                for x in linalg.projective_points(field, ps.form.dim)]
    out = []
    for c in lie_quadric_points(g):
        proj = project_cycle_raw(g, c)
        assert all(map(same, proj, ref_project_cycle_raw(g, c)))
        out.append(ps.from_ambient(proj))
    return out


@pytest.mark.parametrize("field,d", [(PrimeField(3), 2), (PrimeField(5), 2),
                                     (PrimeField(3), 3), (CharTwo(4), 3)],
                         ids=["fp:3-d2", "fp:5-d2", "fp:3-d3", "f4-d3"])
def test_pointspace_points_of_matches_the_scalar_path(field, d):
    """On every class representative, ``pointspace_points_of`` equals the
    per-call enumeration, order included, on pointspace coordinates and
    on every seventh quadric cycle as a ``ProjPoint`` (a RoleError when
    it is off P^perp); the kept quadric maps each point as
    ``ref_combine`` does, and so does ``to_ambient``."""
    projected = set()
    for cls in enumerate_classes(field, d):
        g = representative_geometry(cls)
        ps = pointspace(g)
        projected.add(not g.form.b_full(g.p_rep, g.p_rep).is_zero())
        for coords in _pointspace_cycles(g, ps):
            assert pointspace_points_of(ps, coords) == \
                ref_pointspace_points_of(ps, coords)
        for c in lie_quadric_points(g)[::7]:
            assert _outcome(pointspace_points_of, ps, c) == \
                _outcome(ref_pointspace_points_of, ps, c)
        assert len(ps._quadric) == len(list(ps.form.isotropic_points()))
        for x, pt in ps._quadric:
            assert ps.to_ambient(x) == ref_to_ambient(ps, x)
            assert pt == ProjPoint(ref_to_ambient(ps, x))
    assert projected == ({False} if field.char == 2 else {True, False})


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_line_points_matches_the_scalar_path(p):
    """``line_points`` on every plane class with a non-ideal line equals
    the per-call enumeration of the line space's quadric."""
    lines = 0
    for cls in enumerate_classes(PrimeField(p), 2):
        g = representative_geometry(cls)
        try:
            l = find_nonideal_line(g)
        except DegenerateLineError:
            continue
        space, pts = line_points(g, l)
        want_space, want = ref_line_points(g, l)
        assert space.basis == want_space.basis and pts == want
        lines += 1
    assert lines > 0


RAW_CYCLE_FIELDS = [QQ, PrimeField(3), PrimeField(5), PrimeField(7),
                    CharTwo(2), CharTwo(4), ApproxReal()]


def _symplectic_geometry(field):
    return Geometry(QuadraticForm.symplectic(field, 2),
                    (1, 0, 0, 0), (0, 0, 1, 0))


@st.composite
def cycle_inputs(draw):
    """(geometry, cycle): a ProjPoint, a tuple or a list of Scalars of
    the field, ints, floats and Fractions (over Q and ApproxReal), of
    length 4 or a wrong length, sometimes with another field's Scalar.
    A ProjPoint of another field comes at the right length: with both
    faults ``ref_as_vector`` reports the length and ``_raw_cycle`` the
    field."""
    field = draw(st.sampled_from(RAW_CYCLE_FIELDS))
    g = _symplectic_geometry(field)
    other = PrimeField(7) if field == PrimeField(5) else PrimeField(5)
    n = draw(st.sampled_from([4, 4, 4, 0, 3, 5]))
    if draw(st.integers(0, 3)) == 0:
        on = draw(st.sampled_from([field, field, other]))
        n = n if on is field else 4
        v = [draw(elements(on)) for _ in range(n)]
        assume(any(not a.is_zero() for a in v))
        return g, ProjPoint(v)
    entries = elements(field) | st.integers(-10, 10)
    if not field.is_finite:
        entries |= st.floats(-1e6, 1e6, allow_nan=False) | \
            st.fractions(max_denominator=50)
    v = [draw(entries) for _ in range(n)]
    if v and draw(st.integers(0, 5)) == 0:
        v[draw(st.integers(0, n - 1))] = draw(elements(other))
    return g, draw(st.sampled_from([tuple, list]))(v)


def _raw_or_error(f, g, c):
    try:
        return [(type(a), repr(a)) for a in f(g, c)]
    except ConformalError as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(cycle_inputs())
def test_raw_cycle_is_the_scalar_coercion_then_raw_values(case):
    g, c = case
    assert _raw_or_error(_raw_cycle, g, c) == _raw_or_error(
        lambda g, c: linalg.raw_values(g.field, ref_as_vector(g, c)), g, c)


def _value_or_error(f, *args):
    try:
        return f(*args)
    except (ConformalError, ZeroDivisionError) as exc:
        return type(exc)


def check_powers(g, c1, c2) -> set:
    """relative_power and inversive_separation against the Scalar path,
    bit for bit; returns the outcomes' kinds."""
    kinds = set()
    for f, base in ((relative_power, g.p_rep), (inversive_separation, g.l_rep)):
        got = _value_or_error(f, g, c1, c2)
        want = _value_or_error(ref_power_with, g, c1, c2, base)
        if isinstance(want, Scalar):
            assert isinstance(got, Scalar) and same(got, want), (c1, c2)
            kinds.add(Scalar)
        else:
            assert got is want, (c1, c2)
            kinds.add(want)
    return kinds


def test_powers_match_the_scalar_path_on_float_models():
    """The separations suite's grid in the elliptic, hyperbolic and
    parabolic models, every pair of lifts of ``_model_lifts`` in one
    model, and a pair whose denominators vanish only in their product."""
    grid = (0.1, 0.5, 1.0, 2.0)
    kinds = set()
    for kind in (ModelKind.ELLIPTIC, ModelKind.HYPERBOLIC,
                 ModelKind.PARABOLIC):
        g = model_geometry(kind)
        for t in grid:
            for o1, o2 in (points_at_distance(kind, t),
                           cycles_at_angle(kind, t, 0.45, 0.35)):
                kinds |= check_powers(g, o1.lift, o2.lift)
    lifts = _model_lifts()
    for o1, o2 in itertools.product(lifts, repeat=2):
        if o1.kind is o2.kind:
            kinds |= check_powers(model_geometry(o1.kind), o1.lift, o2.lift)
    g = _symplectic_geometry(ApproxReal())
    small = (0.0, 2e-5, 0.0, 2e-5)
    assert _value_or_error(relative_power, g, small, small) is \
        ZeroDivisionError
    kinds |= check_powers(g, small, small)
    assert kinds == {Scalar, IdealDenominatorError, ZeroDivisionError}


def test_powers_match_the_scalar_path_exactly():
    """Over Q (the rational atlas d = 1..3) and F_3/5/7 (the plane
    classes), on pairs of cycles as Scalar vectors and as int tuples;
    characteristic 2 raises as the Scalar path does."""
    rng = random.Random("powers")
    kinds = set()
    for d in (1, 2, 3):
        for cls in enumerate_classes(QQ, d):
            g = representative_geometry(cls)
            cycles = _rational_cycles(g)
            for _ in range(12):
                kinds |= check_powers(g, *rng.sample(cycles, 2))
    for p in (3, 5, 7):
        for cls in enumerate_classes(PrimeField(p), 2):
            g = representative_geometry(cls)
            quad = lie_quadric_points(g)
            for _ in range(12):
                c1, c2 = rng.sample(quad, 2)
                kinds |= check_powers(g, c1, c2)
                kinds |= check_powers(g, _raw(c1.coords), _raw(c2.coords))
    assert kinds == {Scalar, IdealDenominatorError}
    g = _symplectic_geometry(CharTwo(4))
    assert check_powers(g, (1, 0, 0, 0), (0, 1, 0, 0)) == \
        {UnsupportedFieldError}
