"""Small exact linear algebra over the package's scalar fields.

Inside the library a vector is a tuple of raw field values and a matrix
a tuple of raw rows; ``Scalar`` tuples are the public form, unwrapped
once (``raw_values``, the coordinate rule of ``fields`` mapped over a
vector) and wrapped once (``wrap_rows``).  Every solver
but ``rref`` and ``kernel_basis``, which take and return ``Scalar``
rows, takes raw rows, and there is no ``Scalar`` vector arithmetic
here.  ``mat_vec_raw`` is the one matrix-vector product.  One
Gauss-Jordan elimination, ``_reduce``, serves every solver.  Over Q it
eliminates on integers (each row scaled by the lcm of its denominators)
and builds one Fraction per entry of the result; the other fields use
their own ops and zero test, so the same loop serves F_p, F_2/F_4 and
(tolerance-aware) floats.  The two walks of a finite space,
``all_vectors`` and ``projective_points``, yield raw tuples too.
``zero_flags`` tests one linear functional against a fixed point set
kept as byte columns, in one-byte lanes of big-int arithmetic.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from itertools import product
from typing import Iterator, Optional, Sequence

from .fields import (CharTwo, ConformalError, Field, PrimeField, Rational,
                     Scalar)

Vector = tuple


class EnumerationUnsupportedError(ConformalError):
    """Enumeration requested over an infinite field or past the size caps."""


def raw_values(field: Field, v: Vector) -> list:
    """The raw values of v's coordinates, each read by the coordinate
    rule of ``fields`` (``Field.scalar``): the one vector coercion."""
    out = []
    for x in v:  # a loop, not a comprehension: the short vectors are faster
        if type(x) is Scalar and x.field is field:
            out.append(x.value)
        else:
            out.append(field.scalar(x).value)
    return out


def normalize_raw(field: Field, x) -> Optional[tuple]:
    """The raw vector x scaled so its first nonzero value is 1 (each
    value multiplied by the lead's inverse, as ``ProjPoint`` does), or
    None for the zero vector."""
    is_zero = field._is_zero
    lead = next((a for a in x if not is_zero(a)), None)
    if lead is None:
        return None
    mul, inv = field._mul, field._inv(lead)
    return tuple([mul(inv, a) for a in x])


def quotient_key(field: Field, w):
    """x -> the key of the raw vector x modulo the nonzero raw vector w:
    with w scaled so that its first nonzero value w_i is 1, x - x_i w is
    the one direction of span(x, w) with coordinate i zero; normalised,
    it names span(x, w), and it is None when x is a multiple of w."""
    normalize, sub, mul = normalize_raw, field._sub, field._mul
    w = normalize(field, w)
    i = next(k for k, a in enumerate(w) if not field._is_zero(a))
    return lambda x: normalize(field, [sub(a, mul(x[i], b))
                                       for a, b in zip(x, w)])


def vector(field: Field, entries) -> Vector:
    """The coordinates as Scalars, by the coordinate rule of ``fields``."""
    return tuple(map(field.scalar, entries))


def unit_vector(field: Field, n: int, i: int) -> Vector:
    return tuple(field.one() if j == i else field.zero() for j in range(n))


def _dot(field: Field, row, x):
    """sum row_i x_i on raw values, added in order from zero with the
    field's ops."""
    add, mul = field._add, field._mul
    total = field.raw_zero
    for a, b in zip(row, x):
        total = add(total, mul(a, b))
    return total


def mat_vec_raw(m: Sequence, x: Sequence, field: Field) -> tuple:
    """M x for the matrix with raw rows m and the raw vector x: each
    entry is ``_dot`` of its row with x, over F_p one int sum reduced
    once."""
    if isinstance(field, PrimeField):
        p = field.p
        return tuple([sum(map(operator.mul, row, x)) % p for row in m])
    return tuple([_dot(field, row, x) for row in m])


def mat_mul_raw(a: Sequence, b: Sequence, field: Field) -> tuple:
    """A B on raw rows: ``mat_vec_raw`` of a with each column of b."""
    return tuple(zip(*(mat_vec_raw(a, col, field) for col in zip(*b))))


def wrap_rows(field: Field, rows) -> tuple:
    """Raw rows as rows of Scalars."""
    return tuple(tuple(Scalar(x, field) for x in row) for row in rows)


def rref(rows: Sequence[Vector], field: Field):
    """Reduced row echelon form; returns (rows, pivot column indices).

    Eliminates on the raw values of ``field`` and wraps only the result.
    A row entry of another field raises FieldMismatchError."""
    m = [raw_values(field, r) for r in rows]
    pivots = _reduce(m, field)
    return wrap_rows(field, m), pivots


def _reduce(m: list, field: Field, log: Optional[list] = None) -> list:
    """Bring the raw rows m to reduced row echelon form in place and
    return the pivot columns.  With ``log``, append each pivot step as
    (row, swapped row, pivot inverse, [(eliminated row, factor), ...]);
    a logged reduction always runs on the field's ops."""
    if log is None and isinstance(field, Rational):
        return _reduce_rational(m)
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    mul, sub, is_zero = field._mul, field._sub, field._is_zero
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if not is_zero(m[i][c]):
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = field._inv(m[r][c])
        m[r] = [mul(inv, x) for x in m[r]]
        steps = None if log is None else []
        for i in range(nrows):
            if i != r and not is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [sub(x, mul(f, y)) for x, y in zip(m[i], m[r])]
                if steps is not None:
                    steps.append((i, f))
        if steps is not None:
            log.append((r, pivot, inv, steps))
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


_ZERO = Fraction(0)


def _primitive(row: list) -> list:
    """The integer row divided by the gcd of its entries."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _reduce_rational(m: list) -> list:
    """``_reduce`` over Q (rows of Fractions or ints) on integers.

    Each row is scaled by the lcm of its denominators, and a pivot a
    clears the entry f of another row as row <- (a/g) row - (f/g) pivot
    row, g = gcd(a, f), with the row's gcd divided out after.  Each
    pivot row is divided by its pivot at the end, one Fraction per
    entry; the RREF is unique, so the rows and pivots are the ones
    Fraction elimination gives."""
    rows = []
    for row in m:
        den = math.lcm(*[x.denominator for x in row])
        rows.append(_primitive([x.numerator * (den // x.denominator)
                                for x in row]))
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        a = top[c]
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                g = math.gcd(a, f)
                x, y = a // g, f // g
                rows[i] = _primitive([x * s - y * t
                                      for s, t in zip(rows[i], top)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for k in range(nrows):
        if k < r:
            a = rows[k][pivots[k]]
            m[k] = [Fraction(x, a) if x else _ZERO for x in rows[k]]
        else:
            m[k] = [_ZERO] * ncols
    return pivots


def rank_raw(rows: Sequence, field: Field) -> int:
    """The rank of the matrix with the given rows of raw values."""
    return len(_reduce(list(rows), field))


def kernel_raw(rows: Sequence, field: Field, ncols: int) -> list:
    """Basis of {x : M x = 0} for the matrix with the given rows of raw
    values, as raw tuples: one vector per non-pivot column c, with 1 at
    c and 0 at the other non-pivot columns."""
    m = list(rows)
    pivots = _reduce(m, field)
    zero, one, neg = field.raw_zero, field.raw_one, field._neg
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [zero] * ncols
        v[fc] = one
        for row, pc in zip(m, pivots):
            v[pc] = neg(row[fc])
        basis.append(tuple(v))
    return basis


def kernel_basis(rows: Sequence[Vector], field: Field, ncols: int):
    """Basis of {v : M v = 0} for the matrix with the given rows."""
    return wrap_rows(field, kernel_raw([raw_values(field, r) for r in rows],
                                       field, ncols))


def span_key(rows: Sequence, field: Field) -> tuple:
    """Equal for two lists of raw vectors exactly when they span the
    same space: the non-zero rows of the RREF, as tuples of raw values."""
    m = list(rows)
    pivots = _reduce(m, field)
    return tuple(tuple(row) for row in m[:len(pivots)])


def inverse_raw(m: Sequence, field: Field) -> Optional[tuple]:
    """The inverse of the square matrix with raw rows m, from one
    elimination of [M | I]; None when M is singular.  A non-square M
    raises ValueError."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("only a square matrix has an inverse")
    zero, one = field.raw_zero, field.raw_one
    aug = [list(row) + [one if j == i else zero for j in range(n)]
           for i, row in enumerate(m)]
    if _reduce(aug, field)[:n] != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in aug)


def complement_indices(rows: Sequence, field: Field, n: int) -> list:
    """The indices i, in order, whose unit vectors extend the span of
    the raw rows to K^n, each e_i taken when it is outside the span of
    the rows and the e_j before it.

    That holds exactly when some functional vanishing on the vectors
    and on e_0, ..., e_{i-1} is non-zero at e_i, so the indices are the
    pivot columns of the RREF of a basis of those functionals: the
    kernel of the matrix with the given rows."""
    return _reduce(kernel_raw(rows, field, n), field)


def coordinate_map(rows: Sequence, field: Field):
    """The solver of M x = rhs for one matrix of raw rows and many
    right-hand sides: a function from a raw right-hand side to one raw
    solution x, or None (with the basis of a subspace as columns, the
    coordinates of a vector in it).

    M is reduced once and its row operations logged; each call replays
    them on the right-hand side, which is the elimination of [M | rhs]
    restricted to its last column, and reads x off the pivot columns.
    """
    m = [list(row) for row in rows]
    ncols = len(m[0]) if m else 0
    log = []
    pivots = _reduce(m, field, log)
    mul, sub, is_zero = field._mul, field._sub, field._is_zero
    zero, rank = field.raw_zero, len(pivots)

    def coords(x) -> Optional[list]:
        a = list(x)
        for r, pivot, inv, steps in log:
            a[r], a[pivot] = a[pivot], a[r]
            y = a[r] = mul(inv, a[r])
            for i, f in steps:
                a[i] = sub(a[i], mul(f, y))
        if not all(is_zero(t) for t in a[rank:]):
            return None
        out = [zero] * ncols
        for t, c in zip(a, pivots):
            out[c] = t
        return out
    return coords


def all_vectors(field: Field, n: int) -> Iterator[tuple]:
    """Every vector of K^n over a finite field, as a tuple of raw values,
    in sorted order."""
    return product(field.raw_elements, repeat=n)


def projective_points(field: Field, n: int) -> Iterator[tuple]:
    """Canonical representatives (first nonzero coordinate 1) of P(K^n)
    over a finite field, as tuples of raw values, lead by lead and in
    sorted order within a lead."""
    elems = field.raw_elements
    one, zero = field.raw_one, field.raw_zero
    for lead in range(n):
        prefix = (zero,) * lead + (one,)
        for tail in product(elems, repeat=n - lead - 1):
            yield prefix + tail


@functools.cache
def _lane_tables(field: Field) -> tuple:
    """The byte tables of ``zero_flags`` over the finite field, built
    once per field: for each raw r the table v -> r*v, and the table
    v -> [v is zero] of a lane's sum."""
    elems, mul = field.raw_elements, field._mul
    times = tuple(bytes([mul(r, v) for v in elems] + [0] * (256 - len(elems)))
                  for r in elems)
    if isinstance(field, PrimeField):
        is_zero = bytes(int(v % field.p == 0) for v in range(256))
    else:  # an XOR lane holds a raw value
        is_zero = bytes(int(v == 0) for v in range(256))
    return times, is_zero


def zero_flags(field: Field, cols: Sequence[bytes], row: Sequence) -> bytes:
    """One byte per point of a point set kept as columns (``cols[i]``
    holds raw coordinate i of every point, one byte each): 1 where
    sum row_i x_i = 0, else 0.

    Each column is translated through v -> row_i v and read as one
    little-endian int, so a lane is one point.  Over F_p the ints are
    added and a lane's sum, at most len(cols) (p - 1), is tested mod p
    at the end; over F_2/F_4, where addition is XOR, they are XORed.
    Lanes must not carry: raw values beyond a byte, or F_p sums past
    255, raise EnumerationUnsupportedError."""
    if not isinstance(field, (PrimeField, CharTwo)) or field.order > 256 \
            or (field.char != 2 and len(cols) * (field.p - 1) > 255):
        raise EnumerationUnsupportedError(
            f"no byte lanes for {len(cols)} coordinates over {field}")
    times, is_zero = _lane_tables(field)
    add = operator.xor if field.char == 2 else operator.add
    total = 0
    for col, r in zip(cols, row):
        if r:
            total = add(total, int.from_bytes(col.translate(times[r]),
                                              "little"))
    return total.to_bytes(len(cols[0]) if cols else 0,
                          "little").translate(is_zero)
