"""Exact field arithmetic with square-class computation.

Four coefficient domains are supported:

* ``Rational`` -- exact rationals standing in for the reals.  Everything
  the classification needs from the reals is a sign, and signs are exact
  over Q.
* ``PrimeField(p)`` -- Z/pZ for an odd prime p.
* ``CharTwo(q)`` -- the perfect fields F_2 and F_4 = F_2[t]/(t^2+t+1).
* ``ApproxReal(eps)`` -- double precision with an absolute tolerance,
  used only by the floating-point model constructors.

There is one object per field: each class returns the same instance for
the same parameter, so two fields are equal exactly when they are the
same object.  A field answers its own questions on raw values: the
arithmetic hooks, and ``_square_class``, ``_sqrt`` and ``_nonresidue``,
which the public ``square_class``, ``sqrt_if_square`` and
``canonical_nonresidue`` wrap.

A :class:`Scalar` is a canonical value tagged with its field; mixing
fields in arithmetic raises :class:`FieldMismatchError`.

The coordinate rule, the one answer to "what is a coordinate over this
field": ``Field.scalar``, which ``linalg.raw_values`` maps over a vector.
A Scalar of the field is itself and one of another field raises
FieldMismatchError.  Each class lists the plain numbers it reads in
``_reads``: an int (a bool is 0 or 1) everywhere, reduced mod p over F_p;
over F_4 the ints 0..3 are the raw values 0, 1, t, t+1 and any other int
reduces mod 2, as every int does over F_2; ``Rational`` and
``ApproxReal`` also read a Fraction or a float (exactly over Q).  Anything
else, text included, raises TypeError: text enters only through ``parse``.
Scalar arithmetic and ``==`` read a plain number by the same rule, from
either side; one the field does not read compares unequal, and
arithmetic with it raises TypeError.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from fractions import Fraction
from typing import Iterator, Optional


class ConformalError(Exception):
    """Base class for all domain errors raised by this package."""


class FieldMismatchError(ConformalError):
    """Arithmetic attempted between scalars of different fields."""


class UnsupportedFieldError(ConformalError):
    """Operation not defined for this field (e.g. square classes of floats)."""


class SquareClass(Enum):
    """Value of x in K^x/(K^x)^2 together with 0.

    Over the rationals-as-reals UNIT means positive and NON_RESIDUE means
    negative; over F_p the split is by quadratic residues; over a perfect
    field of characteristic 2 every nonzero element is UNIT.
    """

    ZERO = 0
    UNIT = 1
    NON_RESIDUE = 2

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        if self is SquareClass.ZERO or other is SquareClass.ZERO:
            return SquareClass.ZERO
        if self is other:
            return SquareClass.UNIT
        return SquareClass.NON_RESIDUE

    def __repr__(self) -> str:  # pragma: no cover
        return self.name


class Scalar:
    """A canonical field element; immutable and structurally comparable."""

    __slots__ = ("value", "field")

    def __init__(self, value, field: "Field"):
        self.value = value
        self.field = field

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.field is not self.field:
                raise FieldMismatchError(
                    f"mixed fields: {self.field} and {other.field}")
            return other
        try:
            return self.field.scalar(other)
        except TypeError:  # not a coordinate over the field
            return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Scalar(self.field._add(self.value, o.value), self.field)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Scalar(self.field._sub(self.value, o.value), self.field)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Scalar(self.field._sub(o.value, self.value), self.field)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Scalar(self.field._mul(self.value, o.value), self.field)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Scalar(self.field._div(self.value, o.value), self.field)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o / self

    def __neg__(self):
        return Scalar(self.field._neg(self.value), self.field)

    def __pow__(self, n: int):
        if n < 0:
            return (self.field.one() / self) ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            try:
                other = self.field.scalar(other)
            except TypeError:  # not a coordinate over the field
                return NotImplemented
        return (other.field is self.field
                and self.field._eq(self.value, other.value))

    def __hash__(self):
        """The hash of the raw value, so that ``x in {n}`` agrees with
        ``x == n`` for every number that is its own raw value (an int or
        Fraction over Q, 0..p-1 over F_p, 0..3 over F_4).  An int that
        reads to another raw value (6 over F_5) compares equal but
        hashes apart."""
        if not self.field.is_exact:
            raise TypeError("approximate scalars are not hashable")
        return hash(self.value)

    def __bool__(self):
        return not self.is_zero()

    def is_zero(self) -> bool:
        return self.field._is_zero(self.value)

    def inverse(self) -> "Scalar":
        return self.field.one() / self

    def sort_key(self):
        return self.value

    def __repr__(self):
        return self.field.format_value(self.value)


_FIELDS: dict = {}  # (class, parameter) -> the one field object


def _interned(cls, param, **attrs) -> "Field":
    """The one instance of the field class cls for the (validated)
    parameter, built with attrs on first request."""
    field = _FIELDS.get((cls, param))
    if field is None:
        field = object.__new__(cls)
        field.__dict__.update(attrs, _param=param)
        field = _FIELDS.setdefault((cls, param), field)
    return field


class Field:
    """Abstract field; concrete subclasses provide raw-value arithmetic.

    Fields are interned (see the module docstring), so the default
    identity equality and hash are the field equality."""

    char: int = 0
    is_exact: bool = True
    is_finite: bool = False
    # the raw values of zero and one, for the raw-value kernels
    raw_zero = 0
    raw_one = 1
    # the plain number types ``scalar`` reads, each converted to a raw
    # value by ``_read`` (a method, or over the reals the number type)
    _reads: tuple = ()

    def scalar(self, x) -> Scalar:
        """x in this field, by the coordinate rule (module docstring)."""
        if isinstance(x, Scalar):
            if x.field is not self:
                raise FieldMismatchError(f"mixed fields: {self} and {x.field}")
            return x
        if not isinstance(x, self._reads):
            raise TypeError(f"not a coordinate over {self}: {x!r}")
        return Scalar(self._read(x), self)

    def zero(self) -> Scalar:
        return Scalar(self.raw_zero, self)

    def one(self) -> Scalar:
        return Scalar(self.raw_one, self)

    @property
    def raw_elements(self) -> range:
        """The raw values of a finite field's elements, in order."""
        raise UnsupportedFieldError(f"{self} is not finite")

    def elements(self) -> Iterator[Scalar]:
        return (Scalar(v, self) for v in self.raw_elements)

    @property
    def order(self) -> int:
        return len(self.raw_elements)

    def token(self) -> str:
        """Stable string identifying the field (used on the CLI and in JSON)."""
        raise NotImplementedError

    def format_value(self, value) -> str:
        return str(value)

    def parse(self, text: str) -> Scalar:
        raise NotImplementedError

    # raw-value hooks (``_inv`` raises ZeroDivisionError on zero) ------
    def _add(self, a, b):
        raise NotImplementedError

    def _sub(self, a, b):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _inv(self, a):
        raise NotImplementedError

    def _div(self, a, b):
        """a times the inverse of b; b zero (within the field's
        tolerance) raises ZeroDivisionError."""
        if self._is_zero(b):
            raise ZeroDivisionError("division by field zero")
        return self._mul(a, self._inv(b))

    def _eq(self, a, b) -> bool:
        return a == b

    def _is_zero(self, a) -> bool:
        return a == 0

    # raw-value square classes and roots ------------------------------
    def _square_class(self, a) -> SquareClass:
        """The class of the raw value a in K^x/(K^x)^2 together with 0."""
        raise UnsupportedFieldError(f"square classes over {self}")

    def _sqrt(self, a):
        """A canonical raw root r of the raw value a (r*r == a), or None."""
        raise UnsupportedFieldError(f"square roots over {self}")

    def _nonresidue(self):
        """The raw value of the canonical non-square."""
        raise UnsupportedFieldError(f"no canonical non-residue over {self}")

    def __reduce__(self):  # a copy or an unpickled field is the one object
        return type(self), () if self._param is None else (self._param,)

    def __repr__(self):
        return self.token()


class _Real(Field):
    """A stand-in for the reals: raw values are Python numbers of the
    type ``_read`` under the operators, and the square classes are
    signs (the public ``square_class`` and ``sqrt_if_square`` refuse
    the inexact one)."""

    char = 0
    _reads = (int, float, Fraction)
    _read: type  # the raw number type converts each plain number

    def parse(self, text: str) -> Scalar:
        return Scalar(self._read(text), self)

    # the operators themselves: the same values, one frame fewer an op
    _add = staticmethod(operator.add)
    _sub = staticmethod(operator.sub)
    _mul = staticmethod(operator.mul)
    _neg = staticmethod(operator.neg)

    def _inv(self, a):  # raw_one's type, so a plain int inverts exactly
        return self.raw_one / a

    def _square_class(self, a) -> SquareClass:
        if self._is_zero(a):
            return SquareClass.ZERO
        return SquareClass.UNIT if a > 0 else SquareClass.NON_RESIDUE

    def _nonresidue(self):
        return self._neg(self.raw_one)


class Rational(_Real):
    """The rationals, used as an exact stand-in for the reals."""

    _read = Fraction
    raw_zero = Fraction(0)
    raw_one = Fraction(1)

    def __new__(cls):
        return _interned(cls, None)

    def token(self) -> str:
        return "rational"

    def _sqrt(self, a):
        """The positive root when it is exactly rational."""
        if a < 0:
            return None
        num, den = math.isqrt(a.numerator), math.isqrt(a.denominator)
        if num * num == a.numerator and den * den == a.denominator:
            return Fraction(num, den)
        return None


class PrimeField(Field):
    """Z/pZ for an odd prime p; residues canonically in [0, p)."""

    is_finite = True

    def __new__(cls, p: int):
        p = operator.index(p)
        if p < 3 or p % 2 == 0 or not _is_prime(p):
            raise UnsupportedFieldError(f"p={p} is not an odd prime")
        return _interned(cls, p, p=p, char=p)

    _reads = (int,)

    def _read(self, x):
        return x % self.p  # a bool reduces to 0 or 1

    @property
    def raw_elements(self) -> range:
        return range(self.p)

    def token(self) -> str:
        return f"fp:{self.p}"

    def parse(self, text: str) -> Scalar:
        return self.scalar(int(text))

    def _add(self, a, b):
        return (a + b) % self.p

    def _sub(self, a, b):
        return (a - b) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _inv(self, a):
        if not a:
            raise ZeroDivisionError("division by field zero")
        return pow(a, self.p - 2, self.p)

    def _square_class(self, a) -> SquareClass:
        """Euler's criterion."""
        if a == 0:
            return SquareClass.ZERO
        p = self.p
        return (SquareClass.UNIT if pow(a, (p - 1) // 2, p) == 1
                else SquareClass.NON_RESIDUE)

    def _sqrt(self, a):
        """The smaller of the two roots."""
        p = self.p
        return next((r for r in range(p // 2 + 1) if r * r % p == a), None)

    def _nonresidue(self):
        """The smallest positive non-residue."""
        return next(v for v in range(2, self.p)
                    if self._square_class(v) is SquareClass.NON_RESIDUE)


# F_4 multiplication: values encode a*t + b as 2a + b, t^2 = t + 1.
_GF4_MUL = [[0, 0, 0, 0],
            [0, 1, 2, 3],
            [0, 2, 3, 1],
            [0, 3, 1, 2]]
_GF4_INV = {1: 1, 2: 3, 3: 2}
_GF4_NAMES = {0: "0", 1: "1", 2: "t", 3: "t+1"}
_GF4_PARSE = {"0": 0, "1": 1, "t": 2, "t+1": 3, "2": 2, "3": 3}


class CharTwo(Field):
    """F_2 or F_4 (as F_2[t]/(t^2+t+1)); both are perfect."""

    char = 2
    is_finite = True

    def __new__(cls, q: int):
        q = operator.index(q)
        if q not in (2, 4):
            raise UnsupportedFieldError(f"characteristic-2 field of size {q}")
        return _interned(cls, q, q=q)

    _reads = (int,)

    def _read(self, x):
        x = int(x)  # a bool is 0 or 1
        if self.q == 2 or not 0 <= x < 4:
            x %= 2  # integers reduce through the prime subfield
        return x

    @property
    def raw_elements(self) -> range:
        return range(self.q)

    def token(self) -> str:
        return f"f{self.q}"

    def parse(self, text: str) -> Scalar:
        if self.q == 4:
            if text not in _GF4_PARSE:
                raise ValueError(f"not an F_4 element: {text!r}")
            return Scalar(_GF4_PARSE[text], self)
        return self.scalar(int(text))

    def format_value(self, value) -> str:
        if self.q == 4:
            return _GF4_NAMES[value]
        return str(value)

    def _add(self, a, b):
        return a ^ b

    _sub = _add

    def _mul(self, a, b):
        if self.q == 2:
            return a & b
        return _GF4_MUL[a][b]

    def _neg(self, a):
        return a

    def _inv(self, a):
        if not a:
            raise ZeroDivisionError("division by field zero")
        return a if self.q == 2 else _GF4_INV[a]

    # squaring is onto in a perfect field of characteristic 2
    def _square_class(self, a) -> SquareClass:
        return SquareClass.UNIT if a else SquareClass.ZERO

    def _sqrt(self, a):
        """The unique root: the Frobenius x -> x^2 is inverted by
        x -> x^(q/2), and over F_4 (x^2)^2 = x^4 = x."""
        return a if self.q == 2 else self._mul(a, a)

    def _nonresidue(self):
        raise UnsupportedFieldError(
            "every element of a perfect characteristic-2 field is a square")


class ApproxReal(_Real):
    """Double precision with a single absolute comparison tolerance.

    Accepted only by the floating-point model constructors; the exact
    algorithms reject it.
    """

    is_exact = False
    _read = float
    raw_zero = 0.0
    raw_one = 1.0

    def __new__(cls, eps: float = 1e-9):
        eps = float(eps)
        return _interned(cls, eps, eps=eps)

    def token(self) -> str:
        return "approx"

    def _eq(self, a, b):
        return abs(a - b) < self.eps

    def _is_zero(self, a):
        return abs(a) < self.eps

    def _sqrt(self, a):
        """The float root; a negative within the tolerance is zero."""
        if a < 0 and not self._is_zero(a):
            return None
        return math.sqrt(max(a, 0.0))


def square_class(x: Scalar) -> SquareClass:
    """Class of x in K^x/(K^x)^2 together with {0}.

    Signs over the rationals, Euler's criterion over F_p; in a perfect
    field of characteristic 2 squaring is onto, so every nonzero element
    is UNIT.
    """
    if not x.field.is_exact:
        raise UnsupportedFieldError("square classes need an exact field")
    return x.field._square_class(x.value)


def canonical_nonresidue(field: Field) -> Scalar:
    """The canonical non-square: -1 over the rationals (and ApproxReal,
    where it plays the same role in chart normalisation), the smallest
    positive non-residue over F_p.  Unsupported in characteristic 2,
    where every element is a square."""
    return Scalar(field._nonresidue(), field)


def sqrt_if_square(x: Scalar) -> Optional[Scalar]:
    """A canonical root r with r*r == x, or None.

    Over F_p the smaller residue is returned; over F_2/F_4 the unique
    root; over the rationals the positive root when it is exactly
    rational.
    """
    field = x.field
    if not field.is_exact:
        raise UnsupportedFieldError("exact square roots need an exact field")
    r = field._sqrt(x.value)
    return None if r is None else Scalar(r, field)


def field_from_token(token: str) -> Field:
    """Parse a field descriptor: rational | fp:<p> | f2 | f4 | approx."""
    if token == "rational":
        return Rational()
    if token == "approx":
        return ApproxReal()
    if token == "f2":
        return CharTwo(2)
    if token == "f4":
        return CharTwo(4)
    if isinstance(token, str) and token.startswith("fp:") \
            and token[3:].isdigit():
        return PrimeField(int(token[3:]))
    raise UnsupportedFieldError(f"unknown field token {token!r}")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True
