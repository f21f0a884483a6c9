"""Field arithmetic, square classes, canonical roots, and the one
coordinate rule every public entry point reads vectors by."""

import copy
import functools
import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conformal import fields, linalg
from conformal.classify import enumerate_classes, representative_geometry
from conformal.fields import (ApproxReal, CharTwo, ConformalError,
                              FieldMismatchError, PrimeField, Rational, Scalar,
                              SquareClass, UnsupportedFieldError,
                              canonical_nonresidue, field_from_token,
                              sqrt_if_square, square_class)
from conformal.geometry import (Geometry, ProjPoint, points_of, pointspace,
                                pointspace_points_of, role)
from conformal.metric import (LineGroupClass, MotionElement, build_chart,
                              line_space, motion_from_normal_form)
from conformal.models import ModelKind, model_geometry
from conformal.quadform import IsometrySampler, QuadraticForm

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


# The coordinate rule, stated once: the inputs each field reads.  Every
# input stands for the coordinate 1; the ones a field does not read
# raise FieldMismatchError (another field's Scalar) or TypeError.
INPUTS = ("int", "bool", "scalar", "other scalar", "Fraction", "float",
          "str", "None")
_EXACT_READS = {"int", "bool", "scalar"}
RULE = [(Rational(), _EXACT_READS | {"Fraction", "float"}),
        (PrimeField(5), _EXACT_READS),
        (CharTwo(4), _EXACT_READS),
        (ApproxReal(), _EXACT_READS | {"Fraction", "float"})]


def _input(field, kind):
    other = PrimeField(3) if field is not PrimeField(3) else PrimeField(5)
    return {"int": 1, "bool": True, "scalar": field.one(),
            "other scalar": other.one(), "Fraction": Fraction(1),
            "float": 1.0, "str": "1", "None": None}[kind]


def _small_vector(field, dim, accept):
    """The first vector of {0, 1, -1}^dim led by 1 that ``accept`` takes,
    as Scalars: the search runs over every field alike."""
    for ints in itertools.product((0, 1, -1), repeat=dim):
        if any(ints) and next(a for a in ints if a) == 1:
            v = linalg.vector(field, ints)
            if accept(v):
                return v
    raise AssertionError(f"no small vector over {field}")


def _with_lead(v, x):
    """v with its leading coordinate, a 1, replaced by x."""
    i = next(i for i, a in enumerate(v) if a)
    assert v[i] == 1
    return v[:i] + (x,) + v[i + 1:]


def _raw(obj):
    """What an entry point gave, as raw values."""
    if isinstance(obj, Scalar):
        return obj.value
    if isinstance(obj, ProjPoint):
        return obj.raw
    if isinstance(obj, QuadraticForm):
        return obj.dim, obj._terms
    if isinstance(obj, Geometry):
        return obj._p_raw, obj._l_raw, obj.form._terms
    if isinstance(obj, MotionElement):
        return obj._nf_raw, obj._matrix_raw
    if isinstance(obj, IsometrySampler):
        return obj.fixed
    if isinstance(obj, (tuple, list)):
        return tuple(map(_raw, obj))
    return obj


@functools.lru_cache(maxsize=None)
def _entry_points(field):
    """name -> a call of one public entry point on a vector whose
    leading coordinate is x, chosen so the call succeeds for x = 1;
    only the entry points that run over the field."""
    d = 3 if field.char == 2 else 2  # the char-2 classes are at d = 3
    g = (model_geometry(ModelKind.ELLIPTIC) if not field.is_exact
         else representative_geometry(enumerate_classes(field, d)[0]))
    q, dim, zero = g.form, g.form.dim, field.zero()
    e = [linalg.unit_vector(field, dim, i) for i in range(dim)]
    cycle = _small_vector(field, dim, lambda v: q(v) == 0)
    p_rep, l_rep = g.p_rep, g.l_rep
    ps = pointspace(g)
    k = ps.form.dim
    inside = ProjPoint(ps.to_ambient(linalg.unit_vector(field, k, 0))).coords
    calls = {
        "form": lambda x: q(_with_lead(e[0], x)),
        "b_full": lambda x: q.b_full(_with_lead(e[0], x), cycle),
        "gram_row": lambda x: q.gram_row(_with_lead(cycle, x)),
        "perp": lambda x: q.perp([_with_lead(cycle, x)]),
        "restrict": lambda x: q.restrict([_with_lead(cycle, x), e[1]]),
        "diagonal": lambda x: QuadraticForm.diagonal(field, [x, 1, 1]),
        "Geometry": lambda x: Geometry(q, _with_lead(p_rep, x), l_rep),
        "role": lambda x: role(g, _with_lead(cycle, x)),
        "to_ambient": lambda x: ps.to_ambient((x,) + (zero,) * (k - 1)),
        "from_ambient": lambda x: ps.from_ambient(_with_lead(inside, x)),
    }
    if field.is_finite:
        calls.update({
            "points_of": lambda x: points_of(g, _with_lead(cycle, x)),
            "pointspace_points_of": lambda x: pointspace_points_of(
                ps, (x,) + (zero,) * (k - 1)),
        })
    if field.char != 2:
        line = _small_vector(field, dim, lambda v: q(v) == 0 and q.b_full(
            v, l_rep) == 0 and q.b_full(v, p_rep) != 0)
        chart = build_chart(line_space(g, line))
        width = 2 if chart.kind is LineGroupClass.NON_SPLIT_TORUS else 1
        calls["motion_from_normal_form"] = lambda x: motion_from_normal_form(
            chart, (x,) + (zero,) * (width - 1))
    if field.is_finite and field.char != 2:
        calls["IsometrySampler"] = lambda x: IsometrySampler(
            q, [_with_lead(cycle, x)])
    return calls


def _outcome(call, x):
    """("ok", the repr of the raw result, so a value of another type
    differs) or ("raises", the exception type)."""
    try:
        return "ok", repr(_raw(call(x)))
    except (ConformalError, TypeError) as exc:
        return "raises", type(exc)


@pytest.mark.parametrize("kind", INPUTS)
@pytest.mark.parametrize("field, reads", RULE,
                         ids=[field.token() for field, _ in RULE])
def test_one_coordinate_rule_at_every_entry_point(field, reads, kind):
    """Field.scalar states the rule; every entry point that takes a
    vector either reads the input as Field.scalar does, giving the same
    raw values as the field's own 1, or raises the same exception type."""
    x = _input(field, kind)
    if kind in reads:
        assert field.scalar(x) == field.one()
        assert linalg.raw_values(field, [x]) == [field.raw_one]
    else:
        want = FieldMismatchError if kind == "other scalar" else TypeError
        for coerce in (field.scalar, lambda x: linalg.raw_values(field, [x])):
            with pytest.raises(want):
                coerce(x)
    for name, call in _entry_points(field).items():
        got = _outcome(call, x)
        if kind in reads:
            assert got == _outcome(call, field.one()), name
            assert got[0] == "ok", name
        else:
            assert got == ("raises", want), name


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


def test_rational_raw_inverse_is_a_fraction():
    """A raw value over Q may be an int or a Fraction; its inverse, a
    quotient by it and a vector normalised by it are Fractions either
    way (a float would compare equal and lose exactness).  Over
    ApproxReal the inverse is 1 / a, bit for bit."""
    for a in (3.0, -0.7, 1e-300, 2):
        assert ApproxReal()._inv(a).hex() == (1 / a).hex()
    q = Rational()
    for got, want in ((q._inv(2), Fraction(1, 2)),
                      (q._inv(Fraction(-2, 3)), Fraction(-3, 2)),
                      (q._div(1, 2), Fraction(1, 2))):
        assert type(got) is Fraction and got == want
    normed = linalg.normalize_raw(q, (2, 1))
    assert [type(x) for x in normed] == [Fraction, Fraction]
    assert tuple(normed) == (1, Fraction(1, 2))


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


def test_scalars_read_plain_numbers_by_the_coordinate_rule():
    """Arithmetic and ``==`` read a plain number as ``Field.scalar``
    reads it, from either side.  A number the field does not read is
    unequal, and arithmetic with it raises TypeError; another field's
    Scalar is unequal and raises FieldMismatchError in arithmetic."""
    qq, approx, f5 = Rational(), ApproxReal(), PrimeField(5)
    assert qq.one() == Fraction(1) and Fraction(1) == qq.one()
    assert approx.one() == 1.0 and 1.0 == approx.one()
    assert qq.one() == 1 and approx.one() == Fraction(1, 1)
    for value in (qq.one() + Fraction(1, 2), Fraction(1, 2) + qq.one(),
                  Fraction(3) * qq.one() / 2, 2 - Fraction(1, 2) * qq.one()):
        assert value.field is qq and value.value == Fraction(3, 2)
    assert (1.5 - approx.one()).value == 0.5
    assert (approx.one() * Fraction(1, 4)).value == 0.25
    assert f5.one() == 6 and f5.one() != 1.0 and not f5.one() == 1.0
    for other in (PrimeField(7).one(), "1", None, approx.one()):
        assert not f5.one() == other and f5.one() != other
    assert not qq.one() == approx.one() and not qq.one() == "1"
    for other in (0.5, "1", None):
        with pytest.raises(TypeError):
            f5.one() + other
        with pytest.raises(TypeError):
            other * f5.one()
    with pytest.raises(TypeError):
        qq.one() + "1"
    with pytest.raises(FieldMismatchError):
        f5.one() + PrimeField(7).one()
    with pytest.raises(FieldMismatchError):
        qq.one() * approx.one()
    assert hash(qq.one()) == hash(Fraction(1)) == hash(1)


@pytest.mark.parametrize("field", [Rational(), PrimeField(5), CharTwo(2),
                                   CharTwo(4)], ids=lambda f: f.token())
def test_scalars_hash_as_the_numbers_they_equal(field):
    """``x in {n}`` agrees with ``x == n`` for every number that is its
    own raw value: every int and Fraction over Q, the raw values of a
    finite field; an int read to another raw value (6 over F_5) compares
    equal but hashes apart."""
    numbers = [0, 1, -3, Fraction(2, 3), Fraction(4, 1)] \
        if not field.is_finite else list(field.raw_elements)
    for n in numbers:
        x = field.scalar(n)
        assert x == n and hash(x) == hash(n)
        assert x in {n} and n in {x} and {x: 1}[n] == 1
    if field is PrimeField(5):
        assert field.scalar(6) == 6 and field.scalar(6) not in {6}
    with pytest.raises(TypeError):
        {ApproxReal().one()}
