"""Field arithmetic, square classes, canonical roots."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conformal import fields
from conformal.fields import (ApproxReal, CharTwo, FieldMismatchError,
                              PrimeField, Rational, SquareClass,
                              UnsupportedFieldError, canonical_nonresidue,
                              field_from_token, sqrt_if_square, square_class)

FIELDS = [Rational(), PrimeField(3), PrimeField(5), PrimeField(7),
          CharTwo(2), CharTwo(4)]


def _elements(field, rng_ints):
    if field.is_finite:
        pool = list(field.elements())
        return [pool[i % len(pool)] for i in rng_ints]
    return [field.scalar(i) / field.scalar(1 + abs(j) % 7)
            for i, j in zip(rng_ints, rng_ints[1:] + rng_ints[:1])]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.token())
@given(ints=st.lists(st.integers(-50, 50), min_size=3, max_size=3))
@settings(max_examples=1000, deadline=None)
def test_field_axioms(field, ints):
    """Associativity, distributivity, inverses on 1000 random triples."""
    a, b, c = _elements(field, ints)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == field.zero()
    if not a.is_zero():
        assert a * a.inverse() == field.one()


@pytest.mark.parametrize("field, x", [
    (PrimeField(5), 0.5), (PrimeField(5), 1.0), (PrimeField(5), "3"),
    (PrimeField(5), Fraction(1, 2)), (PrimeField(5), None),
    (CharTwo(4), "3"), (CharTwo(4), 2.0), (CharTwo(2), 1.0),
    (CharTwo(2), Fraction(1))], ids=repr)
def test_finite_fields_take_only_ints_and_scalars(field, x):
    """Anything else raises the TypeError ``linalg.raw_values`` raises."""
    with pytest.raises(TypeError) as exc:
        field.scalar(x)
    assert str(exc.value) == f"not a coordinate over {field}: {x!r}"


@pytest.mark.parametrize("field", [PrimeField(5), CharTwo(2), CharTwo(4)],
                         ids=lambda f: f.token())
def test_finite_fields_read_a_bool_as_0_or_1(field):
    for flag, n in ((False, 0), (True, 1)):
        value = field.scalar(flag).value
        assert type(value) is int and value == n


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(FieldMismatchError):
        PrimeField(3).scalar(1) + PrimeField(5).scalar(1)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_square_class_multiplicative_exhaustive(p):
    field = PrimeField(p)
    for a in field.elements():
        for b in field.elements():
            assert square_class(a * b) == square_class(a) * square_class(b)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_unit_class_has_half_the_units(p):
    field = PrimeField(p)
    units = [a for a in field.elements()
             if square_class(a) is SquareClass.UNIT]
    assert len(units) == (p - 1) // 2


def test_square_class_examples():
    # oracle: the nonzero squares mod 7
    squares = {(x * x) % 7 for x in range(1, 7)}
    assert squares == {1, 2, 4}
    f7 = PrimeField(7)
    assert square_class(f7.scalar(0)) is SquareClass.ZERO
    assert square_class(f7.scalar(3)) is SquareClass.NON_RESIDUE
    rational = Rational()
    from fractions import Fraction
    assert square_class(rational.scalar(Fraction(-4, 9))) is \
        SquareClass.NON_RESIDUE
    assert square_class(rational.scalar(Fraction(4, 9))) is SquareClass.UNIT


def test_square_class_scaling_invariance():
    f7 = PrimeField(7)
    for x in f7.elements():
        for s in f7.elements():
            if s.is_zero():
                continue
            assert square_class(x * s * s) == square_class(x)


def test_char2_square_classes():
    for q in (2, 4):
        field = CharTwo(q)
        for x in field.elements():
            expect = SquareClass.ZERO if x.is_zero() else SquareClass.UNIT
            assert square_class(x) is expect


def test_canonical_nonresidue():
    # oracles: smallest non-squares computed by enumeration
    for p in (3, 5, 7, 11):
        squares = {(x * x) % p for x in range(1, p)}
        smallest = min(x for x in range(1, p) if x not in squares)
        assert canonical_nonresidue(PrimeField(p)).value == smallest
    assert canonical_nonresidue(PrimeField(7)).value == 3
    assert canonical_nonresidue(PrimeField(3)).value == 2
    assert canonical_nonresidue(Rational()).value == -1
    with pytest.raises(UnsupportedFieldError):
        canonical_nonresidue(CharTwo(4))


def test_sqrt_if_square():
    f7 = PrimeField(7)
    assert sqrt_if_square(f7.scalar(4)).value == 2  # the smaller residue
    assert sqrt_if_square(f7.scalar(3)) is None
    f4 = CharTwo(4)
    assert sqrt_if_square(f4.one()) == f4.one()
    for x in f4.elements():
        r = sqrt_if_square(x)
        assert r is not None and r * r == x  # perfect field
    rational = Rational()
    from fractions import Fraction
    assert sqrt_if_square(rational.scalar(Fraction(9, 4))).value == \
        Fraction(3, 2)
    assert sqrt_if_square(rational.scalar(2)) is None
    assert sqrt_if_square(rational.scalar(-1)) is None


def test_gf4_structure():
    f4 = CharTwo(4)
    t = f4.scalar(2)
    assert t * t == t + 1           # t^2 = t + 1
    assert t * (t + 1) == f4.one()  # t^3 = 1
    assert t + t == f4.zero()
    assert repr(t) == "t" and repr(t + 1) == "t+1"
    assert f4.parse("t+1") == t + 1


def test_approx_real_rejected_by_exact_ops():
    approx = ApproxReal()
    with pytest.raises(UnsupportedFieldError):
        square_class(approx.scalar(2.0))
    with pytest.raises(UnsupportedFieldError):
        sqrt_if_square(approx.scalar(2.0))
    with pytest.raises(TypeError):
        hash(approx.scalar(1.0))


def test_one_object_per_field():
    """Each field class returns one instance per parameter value,
    however the parameter is passed, and identity is the equality: two
    tolerances are two fields, whose Scalars do not mix.  An invalid
    parameter raises and is not stored; a copy is the field itself."""
    assert PrimeField(5) is PrimeField(5) is PrimeField(p=5) \
        is field_from_token("fp:5")
    assert CharTwo(4) is CharTwo(q=4) and Rational() is Rational()
    assert ApproxReal() is ApproxReal(1e-9) is ApproxReal(eps=1e-9)
    coarse, fine = ApproxReal(1e-6), ApproxReal(1e-9)
    assert coarse is not fine and coarse != fine
    assert coarse.one() != fine.one()
    with pytest.raises(FieldMismatchError):
        coarse.one() + fine.one()
    for p in (1, 4, 9):
        with pytest.raises(UnsupportedFieldError):
            PrimeField(p)
        assert (PrimeField, p) not in fields._FIELDS
    with pytest.raises(TypeError):  # a size is an int
        CharTwo(4.0)
    for field in FIELDS + [coarse, fine]:
        assert copy.deepcopy(field) is field
        assert pickle.loads(pickle.dumps(field)) is field


def test_approx_real_tolerance():
    approx = ApproxReal(1e-9)
    assert approx.scalar(1.0) == approx.scalar(1.0 + 1e-12)
    assert approx.scalar(1.0) != approx.scalar(1.0 + 1e-6)


def test_field_tokens_round_trip():
    for token in ("rational", "fp:5", "fp:11", "f2", "f4", "approx"):
        assert field_from_token(token).token() == token
    with pytest.raises(UnsupportedFieldError):
        field_from_token("fp:4")
    with pytest.raises(UnsupportedFieldError):
        field_from_token("fp:2")  # characteristic 2 goes through f2/f4


@pytest.mark.parametrize("field", FIELDS + [ApproxReal()],
                         ids=lambda f: f.token())
def test_raw_inverse_of_zero_raises(field):
    """Every field's raw inverse refuses zero, as Scalar division does,
    and inverts every other element."""
    with pytest.raises(ZeroDivisionError):
        field._inv(field.zero().value)
    values = field.raw_elements if field.is_finite else \
        [field.scalar(x).value for x in (1, -2, 3, 0.5)]
    for a in values:
        if not field._is_zero(a):
            assert field._eq(field._mul(field._inv(a), a), field.one().value)


@pytest.mark.parametrize("field", FIELDS + [ApproxReal()],
                         ids=lambda f: f.token())
def test_raw_zero_and_one_are_the_scalar_values(field):
    """The raw constants have the value and the type of scalar(0) and
    scalar(1): Fraction over Q, float over ApproxReal, int otherwise."""
    for raw, n, scalar in ((field.raw_zero, 0, field.zero()),
                           (field.raw_one, 1, field.one())):
        value = field.scalar(n).value
        assert type(raw) is type(value) and raw == value
        assert type(scalar.value) is type(value) and scalar == field.scalar(n)
