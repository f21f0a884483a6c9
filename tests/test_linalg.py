"""Exact linear algebra over the scalar fields."""

import itertools
from fractions import Fraction

import pytest

from conformal import linalg
from conformal.fields import ApproxReal, CharTwo, PrimeField, Rational
from conformal.quadform import QuadraticForm, _radical, bilinear_radical
from reference import (ref_combine, ref_coordinates, ref_in_span,
                       ref_vec_add, ref_vec_scale)


@pytest.mark.parametrize("field", [PrimeField(3), CharTwo(4)],
                         ids=lambda f: f.token())
def test_walks_yield_raw_tuples_in_order(field):
    """all_vectors yields K^n as tuples of raw values in sorted order;
    projective_points yields the points with lead coordinate 1, lead by
    lead, sorted within a lead."""
    raw = [x.value for x in field.elements()]
    one = field.one().value

    def lead(x):
        return next(i for i, a in enumerate(x) if a != field.zero().value)

    for n in range(5):
        vectors = list(linalg.all_vectors(field, n))
        assert vectors == sorted(set(vectors))
        assert len(vectors) == field.order ** n
        assert all(type(x) is tuple and set(x) <= set(raw) for x in vectors)
        points = list(linalg.projective_points(field, n))
        assert points == sorted((x for x in vectors
                                 if any(x) and x[lead(x)] == one),
                                key=lambda x: (lead(x), x))
        assert len(points) == (field.order ** n - 1) // (field.order - 1)


def test_rref_and_kernel_f5():
    f5 = PrimeField(5)
    rows = (linalg.vector(f5, [1, 2, 3]),
            linalg.vector(f5, [0, 1, 4]))
    kern = linalg.kernel_basis(rows, f5, 3)
    assert len(kern) == 1
    for row in rows:
        assert sum((a * b for a, b in zip(row, kern[0])),
                   start=f5.zero()).is_zero()


def test_solve_and_inverse_rational():
    field = Rational()
    m = tuple(tuple(map(Fraction, r)) for r in ([2, 1], [1, 1]))
    inv = linalg.inverse_raw(m, field)
    assert inv == ((1, -1), (-1, 2))
    assert all(type(x) is Fraction for row in inv for x in row)
    assert linalg.mat_mul_raw(m, inv, field) == ((1, 0), (0, 1))
    x = linalg.coordinate_map(m, field)([Fraction(3), Fraction(2)])
    assert linalg.mat_vec_raw(m, x, field) == (3, 2)


def test_singular_matrix():
    f3 = PrimeField(3)
    m = ((1, 2), (2, 1))  # det = -3 = 0
    assert linalg.inverse_raw(m, f3) is None
    assert linalg.coordinate_map(m, f3)([1, 0]) is None


@pytest.mark.parametrize("m", [((1, 1, 0),), ((1, 0), (0, 1), (1, 1)),
                               ((1, 0), (0, 1, 0))], ids=str)
def test_inverse_raw_refuses_a_non_square_matrix(m):
    """A 1x3 matrix (whose [M | I] elimination reads a 1x1 block off
    it), a 3x2 one and a ragged one raise; singular square ones give
    None (above)."""
    with pytest.raises(ValueError, match="square"):
        linalg.inverse_raw(m, PrimeField(5))


def test_kernel_over_f4():
    f4 = CharTwo(4)
    t = f4.scalar(2)
    rows = ((f4.one(), t),)
    kern = linalg.kernel_basis(rows, f4, 2)
    assert len(kern) == 1
    a, b = kern[0]
    assert (a + t * b).is_zero()


def test_projective_points_count():
    f3 = PrimeField(3)
    pts = list(linalg.projective_points(f3, 5))
    assert len(pts) == (3 ** 5 - 1) // 2  # 121
    assert len(set(pts)) == len(pts)
    for p in pts:
        assert next(x for x in p if x) == 1


def test_coordinates_and_span():
    """``coordinate_map`` with the basis as columns and the Scalar
    oracle ``ref_coordinates`` find the same coordinates, which rebuild
    v."""
    f5 = PrimeField(5)
    basis = [linalg.vector(f5, [1, 1, 0]), linalg.vector(f5, [0, 1, 1])]
    v = linalg.vector(f5, [2, 3, 1])
    co = ref_coordinates(v, basis, f5)
    assert co is not None
    rebuilt = ref_vec_add(ref_vec_scale(co[0], basis[0]),
                          ref_vec_scale(co[1], basis[1]))
    assert rebuilt == v
    cols = ((1, 0), (1, 1), (0, 1))
    coords = linalg.coordinate_map(cols, f5)
    assert coords((2, 3, 1)) == [x.value for x in co]
    assert coords((1, 0, 0)) is None
    assert ref_in_span(v, basis, f5)
    assert not ref_in_span(linalg.vector(f5, [1, 0, 0]), basis, f5)


@pytest.mark.parametrize("field", [Rational(), PrimeField(5)],
                         ids=lambda f: f.token())
def test_coordinates_in_the_empty_basis(field):
    """Only the zero vector lies in the span of no vectors; its
    coordinates are the empty tuple, as ``coordinate_map`` gives."""
    coords = linalg.coordinate_map(((), ()), field)
    zero, v = linalg.vector(field, [0, 0]), linalg.vector(field, [1, 2])
    assert ref_coordinates(zero, [], field) == ()
    assert coords([0, 0]) == []
    assert coords(linalg.raw_values(field, zero)) == []
    assert ref_coordinates(v, [], field) is None
    assert ref_coordinates((1, 2), [], field) is None
    assert coords(linalg.raw_values(field, v)) is None


def test_combine_over_f3_and_q():
    """``mat_vec_raw`` with vectors as columns combines them."""
    f3 = PrimeField(3)
    cols = tuple(zip((1, 0, 2), (0, 1, 1)))
    assert linalg.mat_vec_raw(cols, (1, 2), f3) == (1, 2, 1)
    assert linalg.mat_vec_raw(cols, (0, 0), f3) == (0, 0, 0)
    qq = Rational()
    cols = tuple(zip(*[tuple(map(Fraction, v))
                       for v in ((2, 0, 1), (1, 1, 0))]))
    out = linalg.mat_vec_raw(cols, (Fraction(1, 2), Fraction(-3)), qq)
    assert out == (-2, -3, Fraction(1, 2))
    assert all(type(x) is Fraction for x in out)


def test_combine_adds_in_order():
    # float addition is not associative: (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
    field = ApproxReal()
    out = linalg.mat_vec_raw(((0.1, 0.2, 0.3),), (1.0, 1.0, 1.0), field)
    assert out[0] == (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)


def test_complement_indices():
    f3 = PrimeField(3)
    assert linalg.complement_indices([], f3, 3) == [0, 1, 2]
    # e0 + e1 is spanned: e0 extends it, e1 is then dependent
    assert linalg.complement_indices([(1, 1, 0)], f3, 3) == [0, 2]
    # the radical of y^2 + z^2 is <e0>, so its complement starts at e1
    q = QuadraticForm.diagonal(f3, [0, 1, 1])
    assert bilinear_radical(q) == (linalg.vector(f3, [1, 0, 0]),)
    rad = _radical(q)
    assert rad == [(1, 0, 0)]
    assert linalg.complement_indices(rad, f3, 3) == [1, 2]
    qq = Rational()
    span = [tuple(map(Fraction, v)) for v in ((1, 0, 0, 0), (0, 1, -1, 0))]
    assert linalg.complement_indices(span, qq, 4) == [1, 3]


def _span(vectors, field):
    """Every linear combination of ``vectors`` (a finite field)."""
    return frozenset(ref_combine(linalg.vector(field, c), vectors)
                     for c in linalg.all_vectors(field, len(vectors)))


def test_span_key():
    """Two lists get equal keys exactly when they span the same space:
    every pair of vectors of F_3^3 and F_4^3, dependent and zero pairs
    included, against the brute-force span."""
    for field in (PrimeField(3), CharTwo(4)):
        spans_of = {}
        space = list(linalg.all_vectors(field, 3))
        for pair in itertools.product(space, repeat=2):
            spans_of.setdefault(linalg.span_key(pair, field), set()).add(
                _span([linalg.vector(field, x) for x in pair], field))
        assert all(len(spans) == 1 for spans in spans_of.values())
        assert len({spans.pop() for spans in spans_of.values()}) == \
            len(spans_of)
        assert len(spans_of) == 1 + 2 * (field.order ** 2 + field.order + 1)
    qq = Rational()
    key = lambda *rows: linalg.span_key([tuple(map(Fraction, r))
                                         for r in rows], qq)
    assert key([1, 2, 3], [2, 4, 6]) == key([-1, -2, -3]) == \
        ((1, 2, 3),)
    assert key([1, 0, 1], [0, 1, 1]) == key([1, 1, 2], [1, -1, 0])
    assert key([1, 0, 1], [0, 1, 1]) != key([1, 0, 1], [0, 1, 2])
    assert key([1, 2, 3]) != key([1, 2, 3], [0, 0, 1])
    assert key([Fraction(1, 2), 1, 0], [0, 0, 0]) == ((1, 2, 0),)
