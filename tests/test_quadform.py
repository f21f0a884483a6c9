"""Forms, bilinear forms, diagonalization, Witt machinery."""

import collections
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conformal import linalg
from conformal.fields import (CharTwo, PrimeField, Rational, SquareClass,
                              UnsupportedFieldError, canonical_nonresidue,
                              square_class)
from conformal.quadform import (DegenerateFormError, InvalidInputError,
                                IsometrySampler, QuadraticForm,
                                arf_invariant, bilinear_radical, det_class,
                                diagonalize, extend_isometry,
                                form_invariant, generalized_orthogonal_basis, is_isometry,
                                is_nondegenerate_form, isometric,
                                represents, rescaled, signature,
                                witt_index, witt_index_bruteforce)
from reference import (ref_combine, ref_identity_matrix, ref_in_span,
                       ref_independent, ref_is_zero_vector, ref_mat_mul,
                       ref_mat_vec, ref_reflection_matrix, ref_represents,
                       ref_vec_add, ref_vec_scale, ref_zero_vector)

F3, F5, F7 = PrimeField(3), PrimeField(5), PrimeField(7)
QQ = Rational()
F2, F4 = CharTwo(2), CharTwo(4)


# -- associated bilinear forms ------------------------------------------------

def test_assoc_bilinear_one_dim():
    q = QuadraticForm.diagonal(F5, [1])
    assert q.bilinear_matrix()[0][0] == F5.scalar(2)  # B(v,v) = 2Q(v)


def test_assoc_bilinear_product():
    q = QuadraticForm(QQ, 2, {(0, 1): 1})  # xy
    assert [[x.value for x in row] for row in q.bilinear_matrix()] == \
        [[0, 1], [1, 0]]


def test_char2_degenerate_vector():
    # x^2 + yz over F_2: (1,0,0) pairs to zero with everything
    q = QuadraticForm(F2, 3, {(0, 0): 1, (1, 2): 1})
    e0 = linalg.unit_vector(F2, 3, 0)
    for x in linalg.all_vectors(F2, 3):
        assert q.b_full(e0, linalg.vector(F2, x)).is_zero()
    rad = bilinear_radical(q)
    assert len(rad) == 1 and ref_in_span(e0, rad, F2)
    # yet the form is non-degenerate: Q is 1 on the radical vector
    assert is_nondegenerate_form(q)


def test_half_bilinear():
    q = QuadraticForm.diagonal(QQ, [1, -1])
    e1 = (QQ.one(), QQ.zero())
    assert q.b_half(e1, e1) == QQ.one()
    q2 = QuadraticForm(QQ, 4, {(0, 0): 1, (1, 1): 1, (2, 3): -1})
    e3, e4 = linalg.unit_vector(QQ, 4, 2), linalg.unit_vector(QQ, 4, 3)
    assert q2.b_half(e3, e4).value == Fraction(-1, 2)
    q3 = QuadraticForm.diagonal(QQ, [1, 1, -1])
    u = linalg.vector(QQ, [1, 1, 1])
    v = linalg.vector(QQ, [1, 0, 0])
    assert q3.b_half(u, v) == QQ.one()
    e = linalg.unit_vector(F2, 2, 0)
    with pytest.raises(UnsupportedFieldError):
        QuadraticForm.symplectic(F2, 1).b_half(e, e)


@pytest.mark.parametrize("field", [QQ, F3, F5, F7, F2, F4],
                         ids=lambda f: f.token())
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_polarization_identity(field, data):
    dim = data.draw(st.integers(2, 5))
    if field.is_finite:
        pool = [x.value for x in field.elements()]
        entry = st.sampled_from(pool)
    else:
        entry = st.integers(-5, 5)
    coeffs = {}
    for i in range(dim):
        for j in range(i, dim):
            coeffs[(i, j)] = data.draw(entry)
    q = QuadraticForm(field, dim, coeffs)
    u = tuple(field.scalar(data.draw(entry)) for _ in range(dim))
    v = tuple(field.scalar(data.draw(entry)) for _ in range(dim))
    assert q.b_full(u, v) == q(ref_vec_add(u, v)) - q(u) - q(v)
    lam = field.scalar(data.draw(entry))
    assert q(ref_vec_scale(lam, u)) == lam * lam * q(u)


# -- radicals and non-degeneracy ---------------------------------------------

def test_radical_examples():
    assert bilinear_radical(QuadraticForm.diagonal(F5, [1, 1, -1])) == ()
    q = QuadraticForm.diagonal(F5, [1, 0])  # x^2 plus a zero summand
    rad = bilinear_radical(q)
    assert len(rad) == 1
    assert rad[0] == linalg.unit_vector(F5, 2, 1)
    assert not is_nondegenerate_form(q)
    assert is_nondegenerate_form(QuadraticForm.diagonal(F7, [1, 1, -1]))


def test_char2_nondegeneracy_needs_q_on_radical():
    # x^2 + y^2 over F_2 = (x+y)^2: radical is 2-dimensional
    q = QuadraticForm.diagonal(F2, [1, 1])
    assert len(bilinear_radical(q)) == 2
    assert not is_nondegenerate_form(q)


# -- diagonalization ----------------------------------------------------------

def _transport_is_diagonal(q, diag):
    for i, bi in enumerate(diag.basis):
        if q(bi) != diag.entries[i]:
            return False
        for j in range(i + 1, len(diag.basis)):
            if not q.b_full(bi, diag.basis[j]).is_zero():
                return False
    return True


def test_diagonalize_conformal_unification_forms():
    # the three classical conformal forms all have signature (3,1)
    spherical = QuadraticForm(QQ, 4, {(0, 0): 1, (1, 1): 1, (2, 2): 1,
                                      (3, 3): -1})
    euclidean = QuadraticForm(QQ, 4, {(0, 0): 1, (1, 1): 1, (2, 3): -1})
    hyperbolic = QuadraticForm(QQ, 4, {(0, 0): -1, (1, 1): 1, (2, 2): 1,
                                       (3, 3): 1})
    for q in (spherical, euclidean, hyperbolic):
        diag = diagonalize(q)
        assert _transport_is_diagonal(q, diag)
        k, l, z = signature(q)
        assert (k, l, z) == (3, 1, 0)


@st.composite
def rational_tables(draw):
    """A rational table in dims 1 to 6: diagonal in one case in two,
    zero entries (so degenerate forms) frequent."""
    dim = draw(st.integers(1, 6))
    value = st.sampled_from([0, 0, 1, -1, 2, -3]) | st.fractions(
        min_value=-5, max_value=5, max_denominator=7)
    diagonal = draw(st.booleans())
    coeffs = {(i, j): draw(value) for i in range(dim) for j in range(i, dim)
              if i == j or not diagonal}
    return QuadraticForm(QQ, dim, coeffs)


@settings(max_examples=200, deadline=None)
@given(rational_tables())
def test_signature_counts_a_diagonalization(q):
    """Read off a diagonal table or counted on ``diagonalize``, the
    signature is the same."""
    classes = [square_class(a) for a in diagonalize(q).entries]
    zero, unit = classes.count(SquareClass.ZERO), classes.count(SquareClass.UNIT)
    assert signature(q) == (unit, len(classes) - unit - zero, zero)


def test_diagonalize_identity_basis_for_diagonal_input():
    q = QuadraticForm.diagonal(F5, [2, 3])
    diag = diagonalize(q)
    assert [e.value for e in diag.entries] == [2, 3]
    assert diag.basis == (linalg.unit_vector(F5, 2, 0),
                          linalg.unit_vector(F5, 2, 1))


def test_diagonalize_hyperbolic_product():
    q = QuadraticForm(F7, 2, {(0, 1): 1})  # xy
    diag = diagonalize(q)
    assert _transport_is_diagonal(q, diag)
    cls = square_class(diag.entries[0]) * square_class(diag.entries[1])
    assert cls == square_class(F7.scalar(-1))


def test_diagonalize_preserves_det_class():
    rng = random.Random(5)
    for field in (F3, F5, F7):
        for _ in range(20):
            dim = rng.randint(2, 5)
            coeffs = {(i, j): rng.randrange(field.p)
                      for i in range(dim) for j in range(i, dim)}
            q = QuadraticForm(field, dim, coeffs)
            diag = diagonalize(q)
            assert _transport_is_diagonal(q, diag)
            assert ref_independent(diag.basis, field)
            if is_nondegenerate_form(q):
                assert isometric(q, QuadraticForm.diagonal(field, diag.entries))


# -- generalized orthogonal bases ----------------------------------------------

def test_gen_ortho_empty_extension():
    q = QuadraticForm.diagonal(F5, [1, -1])
    gob = generalized_orthogonal_basis(q)
    assert len(gob.vectors) == 2


def test_gen_ortho_lone_symplectic_becomes_couple():
    q = QuadraticForm.diagonal(F7, [1, -1, 1])
    s = [linalg.vector(F7, [1, 1, 0])]  # isotropic
    gob = generalized_orthogonal_basis(q, s)
    idx = gob.vectors.index(tuple(s[0]))
    assert any(idx in pair for pair in gob.couples)
    partner = next(pair for pair in gob.couples if idx in pair)
    other = gob.vectors[partner[0] if partner[1] == idx else partner[1]]
    assert q.b_full(s[0], other) == F7.one()
    assert q(other).is_zero()


def test_gen_ortho_char2_couple():
    q = QuadraticForm(F2, 2, {(0, 0): 1, (0, 1): 1, (1, 1): 1})
    s = [linalg.vector(F2, [1, 0])]
    gob = generalized_orthogonal_basis(q, s)
    assert gob.couples  # B((1,0),(0,1)) = 1 by polarization over F_2
    assert q.b_full(linalg.vector(F2, [1, 0]),
                    linalg.vector(F2, [0, 1])) == F2.one()


def test_gen_ortho_rejects_degenerate_form():
    q = QuadraticForm.diagonal(F5, [1, 0])
    with pytest.raises(DegenerateFormError):
        generalized_orthogonal_basis(q)


def test_gen_ortho_takes_the_set_as_any_iterable():
    q = QuadraticForm.diagonal(F7, [1, -1, 1])
    s = [linalg.vector(F7, [1, 1, 0])]
    assert generalized_orthogonal_basis(q, iter(s)) == \
        generalized_orthogonal_basis(q, s)


@pytest.mark.parametrize("s", [[(1, 0)], [(1, 0, 0, 0)]], ids=["short", "long"])
def test_gen_ortho_rejects_a_vector_of_the_wrong_length(s):
    q = QuadraticForm.diagonal(F5, [1, 1, 1])
    with pytest.raises(InvalidInputError, match="vectors must have length 3"):
        generalized_orthogonal_basis(q, s)


# -- Witt index ----------------------------------------------------------------

def test_witt_examples():
    assert witt_index(QuadraticForm.diagonal(QQ, [1, 1, 1, -1, -1])) == 2
    assert witt_index(QuadraticForm.diagonal(F5, [1, 1, 1, -1, -1])) == 2
    e = canonical_nonresidue(F7)
    assert witt_index(QuadraticForm.diagonal(F7, [1, -e.value])) == 0
    # [1,-e] has no nontrivial isotropic vector: oracle by enumeration
    q = QuadraticForm.diagonal(F7, [1, -e.value])
    vectors = [linalg.vector(F7, x) for x in linalg.all_vectors(F7, 2)]
    zeros = [v for v in vectors
             if q(v).is_zero() and not ref_is_zero_vector(v)]
    assert zeros == []


def test_witt_closed_form_vs_bruteforce_sample():
    # dims 2..4 exhaustive over square-class patterns; the full dim-5
    # sweep over F_3/F_5 lives in the witt-oracle verification suite
    for field in (F3, F5, F7):
        e = canonical_nonresidue(field)
        for dim in (2, 3, 4):
            for pattern in itertools.product((field.one(), e), repeat=dim):
                q = QuadraticForm.diagonal(field, pattern)
                assert witt_index(q) == witt_index_bruteforce(q), pattern


def test_witt_requires_nondegenerate():
    with pytest.raises(DegenerateFormError):
        witt_index(QuadraticForm.diagonal(F3, [1, 0]))


# -- isometry invariants ---------------------------------------------------------

def test_isometric_examples():
    e = canonical_nonresidue(F7)
    assert not isometric(QuadraticForm.diagonal(F7, [1, 1]),
                         QuadraticForm.diagonal(F7, [1, e.value]))
    assert isometric(QuadraticForm.diagonal(F5, [1, -1]),
                     QuadraticForm.diagonal(F5, [2, -2]))
    q = QuadraticForm.diagonal(F5, [1, 2, 3])
    assert isometric(q, q)
    assert isometric(QuadraticForm.diagonal(QQ, [1, -1, 2]),
                     QuadraticForm.diagonal(QQ, [5, -3, 7]))
    assert not isometric(QuadraticForm.diagonal(QQ, [1, 1, -1]),
                         QuadraticForm.diagonal(QQ, [1, -1, -1]))


def test_det_class_well_defined():
    q1 = QuadraticForm.diagonal(F5, [1, -1])
    q2 = QuadraticForm.diagonal(F5, [2, -2])
    assert det_class(q1) == det_class(q2) == square_class(F5.scalar(-1))


def _random_nondegenerate_forms(rng, field, dim, count):
    """count seeded random non-degenerate forms: every slot of the table
    drawn from small integers (fractions over Q)."""
    out = []
    while len(out) < count:
        coeffs = {}
        for i in range(dim):
            for j in range(i, dim):
                c = rng.randint(-3, 3)
                coeffs[i, j] = Fraction(c, rng.randint(1, 3)) \
                    if field is QQ else c
        q = QuadraticForm(field, dim, coeffs)
        if is_nondegenerate_form(q):
            out.append(q)
    return out


def test_rescale_table_matches_the_scaled_form():
    """``rescaled`` predicts the invariant of the form times the
    canonical non-residue without building it."""
    rng = random.Random(40)
    for field in (QQ, F3, F5, F7):
        e = canonical_nonresidue(field)
        for dim in range(1, 7):
            for q in _random_nondegenerate_forms(rng, field, dim, 8):
                assert form_invariant(q.scaled(e)) == \
                    rescaled(form_invariant(q), q.dim), (field, repr(q))


def test_isometric_matches_value_counts():
    """Two non-degenerate forms over F_q are isometric iff they take
    each value equally often: the classification checked against
    enumeration of every vector."""
    rng = random.Random(41)
    seen = set()
    for field in (F3, F5, F7):
        for dim in range(1, 6):
            if field.p ** dim > 20_000:
                continue
            forms = _random_nondegenerate_forms(rng, field, dim, 6)
            counts = [collections.Counter(
                          q.eval_raw(x)
                          for x in linalg.all_vectors(field, dim))
                      for q in forms]
            for (q1, c1), (q2, c2) in itertools.combinations(
                    zip(forms, counts), 2):
                assert isometric(q1, q2) == (c1 == c2), (repr(q1), repr(q2))
                seen.add(c1 == c2)
    assert seen == {True, False}


# -- Arf invariant ----------------------------------------------------------------

def test_arf_examples():
    xy = QuadraticForm.symplectic(F2, 1)
    plane = QuadraticForm(F2, 2, {(0, 0): 1, (0, 1): 1, (1, 1): 1})
    assert arf_invariant(xy).is_zero()
    assert arf_invariant(plane) == F2.one()
    # zero-count oracle: xy has 2 nonzero zeros, x^2+xy+y^2 has none
    plane_vectors = [linalg.vector(F2, x) for x in linalg.all_vectors(F2, 2)]
    assert sum(1 for v in plane_vectors if xy(v).is_zero()) == 3
    assert sum(1 for v in plane_vectors if plane(v).is_zero()) == 1
    four = xy.direct_sum(plane)
    assert not arf_invariant(four).is_zero()
    assert arf_invariant(plane.direct_sum(plane)).is_zero()  # e + e = 0


def test_arf_over_f4():
    plane = QuadraticForm(F4, 2, {(0, 0): 1, (0, 1): 1, (1, 1): 1})
    # over F_4 the same polynomial splits: 1 lies in the image of t^2+t
    assert arf_invariant(plane).is_zero()
    t = F4.scalar(2)
    nontrivial = QuadraticForm(F4, 2, {(0, 0): 1, (0, 1): 1, (1, 1): t.value})
    assert arf_invariant(nontrivial) == t


def test_arf_preconditions():
    with pytest.raises(UnsupportedFieldError):
        arf_invariant(QuadraticForm.diagonal(F5, [1, 1]))
    from conformal.quadform import InvalidInputError
    with pytest.raises(InvalidInputError):
        arf_invariant(QuadraticForm(F2, 3, {(0, 1): 1, (2, 2): 1}))


# -- represents -------------------------------------------------------------------

def test_represents_symplectic_plane():
    q = QuadraticForm(F7, 2, {(0, 1): 1})
    v = represents(q, 5)
    assert v is not None and q(v) == F7.scalar(5)


def test_represents_no_witness():
    e = canonical_nonresidue(F7)
    q = QuadraticForm.diagonal(F7, [1, -e.value])
    assert represents(q, 0) is None
    assert represents(QuadraticForm.diagonal(QQ, [1]), -1) is None


@pytest.mark.parametrize("field", [F3, F5, F2, F4], ids=lambda f: f.token())
def test_represents_is_the_first_witness_of_the_scalar_scan(field):
    """Every value, 0 included, on the zero form, an anisotropic plane and
    random tables of dims 1-4 (degenerate ones included): the same
    witness as the Scalar scan, or None where it finds none."""
    rng = random.Random(field.order)
    elems = [x.value for x in field.elements()]
    plane = ({(0, 0): 1, (0, 1): 1, (1, 1): 1} if field.char == 2
             else {(0, 0): 1, (1, 1): -canonical_nonresidue(field).value})
    forms = [QuadraticForm(field, 3, {}), QuadraticForm(field, 2, plane)]
    for dim in (1, 2, 3, 4):
        for _ in range(3):
            forms.append(QuadraticForm(field, dim, {
                (i, j): rng.choice(elems)
                for i in range(dim) for j in range(i, dim)
                if rng.random() < 0.6}))
    missing = 0
    for q in forms:
        for lam in field.elements():
            want = ref_represents(q, lam)
            assert represents(q, lam) == want, (q, lam)
            missing += want is None
    assert missing  # values with no witness are covered too


def test_represents_rational_witnesses():
    q = QuadraticForm.diagonal(QQ, [1, 1, -1])
    for lam in (5, -3, 0, Fraction(7, 2)):
        v = represents(q, lam)
        assert v is not None and q(v) == QQ.scalar(lam)
    assert represents(QuadraticForm.diagonal(QQ, [1, 1]), 9) is not None


# -- Witt extension ---------------------------------------------------------------

def test_extend_identity():
    q = QuadraticForm.diagonal(F3, [1, 1, -1, -1])
    u = [linalg.unit_vector(F3, 4, 0)]
    g = extend_isometry(q, u, u)
    assert g == ref_identity_matrix(F3, 4)


def test_extend_basis_swap():
    q = QuadraticForm.diagonal(F3, [1, 1, -1, -1])
    e1 = linalg.unit_vector(F3, 4, 0)
    e2 = linalg.unit_vector(F3, 4, 1)
    g = extend_isometry(q, [e1], [e2])
    assert ref_mat_vec(g, e1) == e2
    assert is_isometry(q, g)


def test_extend_isotropic_orbit():
    q = QuadraticForm.diagonal(F3, [1, 1, 1, -1, -1])
    points = [linalg.vector(F3, x) for x in linalg.projective_points(F3, 5)]
    iso = [v for v in points if q(v).is_zero()]
    rng = random.Random(3)
    for _ in range(40):
        a, b = rng.choice(iso), rng.choice(iso)
        g = extend_isometry(q, [a], [b])
        assert ref_mat_vec(g, a) == b
        assert is_isometry(q, g)


def _random_extension_case(rng):
    """(q, u, v): a non-diagonal non-degenerate form over F_3/5/7 in dim
    2-6, independent u drawn mostly as isotropic vectors orthogonal to
    the earlier ones (so the pairing on span(u) has a radical), and
    v = M u for a product M of random reflections."""
    field = rng.choice((F3, F5, F7))
    n = rng.randint(2, 6)
    while True:
        q = QuadraticForm(field, n, {(i, j): rng.randrange(field.p)
                                     for i in range(n) for j in range(i, n)})
        if any(i != j for (i, j), _ in q.coeff_items()) \
                and not bilinear_radical(q):
            break
    rand = lambda basis: ref_combine(
        [field.scalar(rng.randrange(field.p)) for _ in basis], basis)
    whole = ref_identity_matrix(field, n)
    u = []
    for _ in range(rng.randint(1, n)):
        for _ in range(50):
            if rng.random() < 0.9:
                x = rand(q.perp(u) if u else whole)
                if not q(x).is_zero():
                    continue
            else:
                x = rand(whole)
            if ref_independent(u + [x], field):
                u.append(x)
                break
    m = whole
    for _ in range(rng.randint(1, 4)):
        w = rand(whole)
        if not q(w).is_zero():
            m = ref_mat_mul(ref_reflection_matrix(q, w), m)
    return q, u, [ref_mat_vec(m, x) for x in u]


def test_extend_isometry_random_pairing_radicals():
    """Witt extension sends u to v and preserves Q on random cases whose
    pairing on span(u) has radicals of dimension 0 to 3."""
    rng = random.Random(19)
    radical_dims = set()
    for _ in range(400):
        q, u, v = _random_extension_case(rng)
        gram = [[q.b_full(a, b) for b in u] for a in u]
        radical_dims.add(len(linalg.kernel_basis(gram, q.field, len(u))))
        g = extend_isometry(q, u, v)
        assert [ref_mat_vec(g, x) for x in u] == v
        assert is_isometry(q, g)
    assert {0, 1, 2, 3} <= radical_dims


def test_extend_isometry_empty_bases_give_identity():
    q = QuadraticForm.diagonal(F5, [1, 2, 1, 1])
    assert extend_isometry(q, [], []) == ref_identity_matrix(F5, 4)


@pytest.mark.parametrize("rows, cols", [(4, 5), (5, 4), (3, 4)])
def test_is_isometry_rejects_a_matrix_of_the_wrong_shape(rows, cols):
    """The identity with an extra column or row, or a missing row, is no
    matrix of the 4-dimensional space."""
    q = QuadraticForm.diagonal(F5, [1, 1, 1, 2])
    m = tuple(tuple(F5.scalar(int(i == j)) for j in range(cols))
              for i in range(rows))
    with pytest.raises(InvalidInputError, match="4x4"):
        is_isometry(q, m)
    assert is_isometry(q, ref_identity_matrix(F5, 4))


@pytest.mark.parametrize("u, v", [([(1, 0)], [(0, 1)]),
                                  ([(1, 0, 0, 0, 0)], [(0, 1, 0, 0, 0)]),
                                  ([(1, 0, 0, 0)], [(0, 1, 0)])])
def test_extend_isometry_rejects_wrong_lengths(u, v):
    q = QuadraticForm.diagonal(F3, [1, 1, -1, -1])
    with pytest.raises(InvalidInputError, match="length 4"):
        extend_isometry(q, u, v)


def test_isometry_sampler_rejects_wrong_lengths():
    q = QuadraticForm.diagonal(F3, [1, 1, -1, -1])
    with pytest.raises(InvalidInputError, match="length 4"):
        IsometrySampler(q, [(1, 0)])


def test_norm_orbits_under_reflections():
    """Nonzero vectors of a fixed norm form a single orbit of the group
    generated by reflections (F_3, the 5-dimensional standard form)."""
    q = QuadraticForm.diagonal(F3, [1, 1, 1, -1, -1])
    vectors = [x for x in linalg.all_vectors(F3, 5) if any(x)]
    mirrors = [w for w in linalg.projective_points(F3, 5) if q.eval_raw(w)]
    by_norm = {}
    for v in vectors:
        by_norm.setdefault(q.eval_raw(v), []).append(v)
    for norm, members in sorted(by_norm.items()):
        start = members[0]
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for m in mirrors:
                    w = q.reflect_raw(m, v)
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        assert seen == set(members), f"norm {norm}: orbit incomplete"


def test_char2_witt_index_with_radical():
    # x^2 + yz over F_2: the radical line carries Q = 1, the complement
    # is a symplectic plane
    q = QuadraticForm(F2, 3, {(0, 0): 1, (1, 2): 1})
    assert witt_index(q) == 1 == witt_index_bruteforce(q)
    five = q.direct_sum(QuadraticForm.symplectic(F2, 1))
    assert witt_index(five) == 2 == witt_index_bruteforce(five)
    # even dimension: the Arf class decides between m and m-1
    assert witt_index(QuadraticForm.symplectic(F4, 2)) == 2
    aniso = QuadraticForm(F4, 2, {(0, 0): 1, (0, 1): 1, (1, 1): 2})
    four = QuadraticForm.symplectic(F4, 1).direct_sum(aniso)
    assert witt_index(four) == 1 == witt_index_bruteforce(four)


def test_nondegeneracy_matches_radical_enumeration():
    """is_nondegenerate_form against the direct oracle: some nonzero
    radical vector with Q = 0 exists iff the form is degenerate."""
    rng = random.Random(12)
    for field in (F2, F4, F3):
        elems = [x.value for x in field.elements()]
        for _ in range(300):
            dim = rng.randint(1, 4)
            coeffs = {(i, j): rng.choice(elems)
                      for i in range(dim) for j in range(i, dim)}
            q = QuadraticForm(field, dim, coeffs)
            rad = bilinear_radical(q)
            witness = False
            if rad:
                for combo in linalg.all_vectors(field, len(rad)):
                    combo = linalg.vector(field, combo)
                    v = ref_zero_vector(field, dim)
                    for c, b in zip(combo, rad):
                        v = ref_vec_add(v, ref_vec_scale(c, b))
                    if ref_is_zero_vector(v):
                        continue
                    if q(v).is_zero():
                        witness = True
                        break
            assert is_nondegenerate_form(q) == (not witness)


@pytest.mark.parametrize("field", [F3, F5, F2, F4], ids=lambda f: f.token())
def test_perp_points_is_the_filtered_scan_in_order(field):
    """perp_points yields exactly the projective points of p^perp, in
    projective_points order, for every p (all last-nonzero indices of
    B(p, .), and over F_3 the radical, whose perp is every point) on a
    non-diagonal form."""
    coeffs = {(0, 1): 1, (1, 1): 1, (2, 3): 1, (0, 0): 1}
    form = QuadraticForm(field, 4, coeffs)
    points = list(linalg.projective_points(field, 4))
    for p in points:
        want = [x for x in points if not form.b_raw(p, x)]
        assert list(form.perp_points(p)) == want, p
