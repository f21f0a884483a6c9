"""Quadratic and bilinear forms over exact fields.

A form is stored as an upper-triangular coefficient table, so the
diagonal x_i^2 coefficients survive independently of the cross terms;
that distinction is what keeps characteristic 2 honest.  Two bilinear
forms are derived from Q:

* ``b_full``: B(u,v) = Q(u+v) - Q(u) - Q(v), no 1/2 factor, valid in all
  characteristics.  All orthogonality, radical, and incidence predicates
  use this one.
* ``b_half``: the classical convention with B(v,v) = Q(v), characteristic
  != 2 only.  Only the numeric separation/power values use it.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .fields import (CharTwo, ConformalError, Field, PrimeField, Rational,
                     Scalar, SquareClass, UnsupportedFieldError,
                     sqrt_if_square, square_class)
from . import linalg
from .linalg import Vector, raw_values


class DegenerateFormError(ConformalError):
    """A non-degenerate form was required."""


class InvalidInputError(ConformalError):
    """Structurally invalid input (bad orthogonal set, rank defect, ...)."""


class WitnessSearchError(ConformalError):
    """The value is representable but no exact witness was constructed."""


class QuadraticForm:
    """Q(v) = sum_{i<=j} c_ij v_i v_j with an upper-triangular table."""

    __slots__ = ("field", "dim", "_gram", "_rad", "_terms", "_p", "_den",
                 "_int_terms")

    def __init__(self, field: Field, dim: int, coeffs):
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        self._fill(field, dim, ((k, field.scalar(c).value) for k, c in items))

    @classmethod
    def _of(cls, field: Field, dim: int, pairs) -> "QuadraticForm":
        """The form of ((i, j), c) pairs with raw values c; wraps nothing."""
        q = cls.__new__(cls)
        q._fill(field, dim, pairs)
        return q

    def _fill(self, field: Field, dim: int, pairs) -> None:
        """The one table: (i, j, c) sorted by (i, j), zeros dropped."""
        if type(dim) is not int or dim < 1:
            raise InvalidInputError(
                "form dimension must be a positive integer")
        self.field = field
        self.dim = dim
        table = {}
        for (i, j), c in pairs:
            if not (type(i) is type(j) is int and 0 <= i <= j < dim):
                raise InvalidInputError(f"bad coefficient index ({i},{j})")
            if (i, j) in table:
                raise InvalidInputError(
                    f"repeated coefficient index ({i},{j})")
            table[i, j] = c
        self._gram = None
        self._rad = None
        self._terms = tuple((i, j, c) for (i, j), c in sorted(table.items())
                            if not field._is_zero(c))
        self._p = field.p if isinstance(field, PrimeField) else 0
        # over Q the table is _int_terms / _den, on integers
        self._den = 0
        if isinstance(field, Rational):
            self._den = math.lcm(*(c.denominator for _, _, c in self._terms))
            self._int_terms = tuple((i, j, int(c * self._den))
                                    for i, j, c in self._terms)

    # -- construction ---------------------------------------------------
    @classmethod
    def diagonal(cls, field: Field, entries) -> "QuadraticForm":
        """[a_1, ..., a_n]: the form sum a_i x_i^2."""
        entries = raw_values(field, entries)
        return cls._of(field, len(entries),
                       [((i, i), a) for i, a in enumerate(entries)])

    @classmethod
    def symplectic(cls, field: Field, planes: int) -> "QuadraticForm":
        """sum x_{2i} x_{2i+1} on 2*planes coordinates."""
        return cls._of(field, 2 * planes,
                       [((2 * i, 2 * i + 1), field.raw_one)
                        for i in range(planes)])

    def coeff(self, i: int, j: int) -> Scalar:
        return Scalar(next((c for a, b, c in self._terms if (a, b) == (i, j)),
                           self.field.raw_zero), self.field)

    def coeff_items(self):
        field = self.field
        return tuple(((i, j), Scalar(c, field)) for i, j, c in self._terms)

    # -- evaluation -----------------------------------------------------
    # Q and B run on raw field values: the coordinates are unwrapped once
    # per call and the result is wrapped in one Scalar.  Over F_p the
    # terms are summed as Python ints with a single reduction; over Q the
    # table and the input are brought to integer numerators, summed as
    # Python ints and divided once (a Fraction is canonical, so the value
    # is the one plain Fraction arithmetic gives); the other fields use
    # their raw ops in the order of plain Scalar arithmetic over the
    # table, so float results are bit-identical to it.
    def __call__(self, v: Vector) -> Scalar:
        return Scalar(self.eval_raw(raw_values(self.field, v)), self.field)

    def eval_raw(self, x):
        """Q on a sequence of raw field values (no field checks)."""
        if self._p:
            return sum([c * x[i] * x[j] for i, j, c in self._terms]) % self._p
        if self._den:
            xs, lx = _numerators(x)
            return Fraction(sum([c * xs[i] * xs[j]
                                 for i, j, c in self._int_terms]),
                            self._den * lx * lx)
        add, mul = self.field._add, self.field._mul
        total = self.field.raw_zero
        for i, j, c in self._terms:
            total = add(total, mul(mul(c, x[i]), x[j]))
        return total

    def b_full(self, u: Vector, v: Vector) -> Scalar:
        """B(u,v) = Q(u+v) - Q(u) - Q(v); works in every characteristic."""
        field = self.field
        return Scalar(self.b_raw(raw_values(field, u), raw_values(field, v)),
                      field)

    def b_raw(self, x, y):
        """B on two sequences of raw field values (no field checks)."""
        if self._p:
            # on the diagonal c (x_i y_i + x_i y_i) is the 2c x_i y_i term
            return sum([c * (x[i] * y[j] + x[j] * y[i])
                        for i, j, c in self._terms]) % self._p
        if self._den:
            (xs, lx), (ys, ly) = _numerators(x), _numerators(y)
            return Fraction(sum([c * (xs[i] * ys[j] + xs[j] * ys[i])
                                 for i, j, c in self._int_terms]),
                            self._den * lx * ly)
        add, mul = self.field._add, self.field._mul
        total = self.field.raw_zero
        for i, j, c in self._terms:
            if i == j:
                total = add(total, mul(mul(add(c, c), x[i]), y[i]))
            else:
                total = add(total, mul(c, add(mul(x[i], y[j]),
                                              mul(x[j], y[i]))))
        return total

    def reflect_raw(self, w, x) -> tuple:
        """The reflection x - (B(x,w)/Q(w)) w on raw values; Q(w) = 0
        raises ZeroDivisionError."""
        if self._p:
            p = self._p
            qw = self.eval_raw(w)
            if not qw:
                raise ZeroDivisionError("division by field zero")
            c = self.b_raw(x, w) * pow(qw, p - 2, p) % p
            return tuple((a - c * b) % p for a, b in zip(x, w))
        field = self.field
        sub, mul = field._sub, field._mul
        c = mul(self.b_raw(x, w), field._inv(self.eval_raw(w)))
        return tuple(sub(a, mul(c, b)) for a, b in zip(x, w))

    def gram_row(self, x: Vector) -> Vector:
        """(B(x, e_0), ..., B(x, e_{n-1})) as Scalars."""
        field = self.field
        return tuple(Scalar(t, field)
                     for t in self.gram_row_raw(raw_values(field, x)))

    def gram_row_raw(self, x):
        """``gram_row`` on raw values: the cached raw Gram matrix times x
        by ``linalg.mat_vec_raw`` (over Q: on integers, term by term
        from the table)."""
        if self._den:
            xs, lx = _numerators(x)
            den = self._den * lx
            return [Fraction(t, den) for t in self._int_gram_row(xs)]
        return linalg.mat_vec_raw(self._raw_gram(), x, self.field)

    def pairing_raw(self, y):
        """x -> B(y, x) on raw values, with y's Gram row taken once: the
        kernel under the scans that pair one fixed vector with many.
        Over F_p one int dot with ``gram_row_raw(y)``, reduced once; over
        Q y's integer row dotted with x's numerators, divided once.  The
        other fields take the row term by term from the table, as
        ``_int_gram_row`` does (a geometry pairs only P and L, each once,
        so no dense Gram matrix is built for them), and add
        its products from zero with their ops."""
        if self._p:
            p, row = self._p, self.gram_row_raw(y)
            return lambda x: sum(map(operator.mul, row, x)) % p
        if self._den:
            ys, ly = _numerators(y)
            row, den = self._int_gram_row(ys), self._den * ly

            def pair(x):
                xs, lx = _numerators(x)
                return Fraction(sum(map(operator.mul, row, xs)), den * lx)
            return pair
        field = self.field
        add, mul = field._add, field._mul
        row = [field.raw_zero] * self.dim
        for i, j, c in self._terms:
            if i == j:
                row[i] = add(row[i], mul(add(c, c), y[i]))
            else:
                row[i] = add(row[i], mul(c, y[j]))
                row[j] = add(row[j], mul(c, y[i]))
        return functools.partial(linalg._dot, field, row)

    def _int_gram_row(self, xs) -> list:
        """Over Q, _den times the Gram matrix times the integers xs."""
        sums = [0] * self.dim
        for i, j, c in self._int_terms:
            sums[i] += c * xs[j]
            sums[j] += c * xs[i]
        return sums

    def perp(self, vectors: Sequence[Vector]):
        """A basis of {x : B(v, x) = 0 for every v in vectors}."""
        field = self.field
        return linalg.wrap_rows(field, self.perp_raw(
            [raw_values(field, v) for v in vectors]))

    def perp_raw(self, vectors) -> list:
        """``perp`` on raw values: raw vectors in, raw tuples out."""
        return linalg.kernel_raw([self.gram_row_raw(x) for x in vectors],
                                 self.field, self.dim)

    def isotropic_points(self):
        """Yield the raw tuples of the projective points with Q = 0, in
        ``linalg.projective_points`` order (finite fields).

        The last two coordinates are solved as one block.  With the
        prefix y = (x_0, ..., x_{n-3}), s = x_{n-2} and t = x_{n-1},
        Q = A + r s + c_{n-2,n-2} s^2 + (B + c_{n-2,n-1} s) t + c t^2,
        where A = Q(y, 0, 0), r and B are the cross sums of y with s and
        with t, and c = c_{n-1,n-1}.  So the (s, t) solutions depend on
        y only through the key (A, r, B): each projective point y of
        K^(n-2) takes its key once, and a key's pairs are solved on
        first sight and kept for the rest of the call.  For each s the
        roots t of a + b t + c t^2 are read off ``_root_table`` when
        c != 0; otherwise t = -a/b, or every t when a = b = 0.  s and t
        are the two fastest coordinates of ``projective_points``, so
        pairs in elements order give its order; the points with lead
        n-2 are the roots at s = 1 with y = 0, and the point
        (0, ..., 0, 1) is on the quadric exactly when c = 0."""
        field, p, n = self.field, self._p, self.dim
        elems = field.raw_elements
        add, mul, is_zero = field._add, field._mul, field._is_zero
        zero = field.raw_zero
        head, lin_s, lin_t, block = [], [], [], {}
        for term in self._terms:
            i, j, k = term
            if j < n - 2:
                head.append(term)
            elif i >= n - 2:
                block[i, j] = k
            elif j == n - 2:
                lin_s.append((i, k))
            else:
                lin_t.append((i, k))
        c = block.get((n - 1, n - 1), zero)
        roots = _root_table(field, c) if not is_zero(c) else None

        def leaf(a, b):
            if roots is not None:
                return roots.get((b, a), ())
            if not is_zero(b):
                return (mul(field._neg(a), field._inv(b)),)
            return elems if is_zero(a) else ()

        ss = block.get((n - 2, n - 2), zero)
        st = block.get((n - 2, n - 1), zero)
        if p:
            def solve(a, r, b):
                return [(s, t) for s in elems
                        for t in leaf((a + (r + ss * s) * s) % p,
                                      (b + st * s) % p)]
        else:
            def solve(a, r, b):
                return [(s, t) for s in elems
                        for t in leaf(add(a, mul(add(r, mul(ss, s)), s)),
                                      add(b, mul(st, s)))]
        if n >= 2:
            blocks = {}
            for y in linalg.projective_points(field, n - 2):
                if p:
                    key = (sum([k * y[i] * y[j] for i, j, k in head]) % p,
                           sum([k * y[i] for i, k in lin_s]) % p,
                           sum([k * y[i] for i, k in lin_t]) % p)
                else:
                    a = r = b = zero
                    for i, j, k in head:
                        a = add(a, mul(mul(k, y[i]), y[j]))
                    for i, k in lin_s:
                        r = add(r, mul(k, y[i]))
                    for i, k in lin_t:
                        b = add(b, mul(k, y[i]))
                    key = (a, r, b)
                pairs = blocks.get(key)
                if pairs is None:
                    pairs = blocks[key] = solve(*key)
                for pair in pairs:
                    yield y + pair
            lead = (zero,) * (n - 2) + (field.raw_one,)
            for t in leaf(ss, st):
                yield lead + (t,)
        if roots is None:
            yield (zero,) * (n - 1) + (field.raw_one,)

    def perp_points(self, p):
        """Yield the raw tuples of the projective points x with
        B(p, x) = 0, in ``linalg.projective_points`` order, without
        visiting the others (finite fields; p holds raw values).

        With r = B(p, .) and m its last nonzero index, a point with lead
        k < m has x_m fixed by the head (x_0, ..., x_{m-1}) and any tail;
        lead m never occurs; every point with lead k > m is in p^perp.
        A p in the radical (r = 0, m = -1) is orthogonal to every point.
        The walks are lazy, as callers take first hits: the first head
        walks the tails and keeps them for the others."""
        field = self.field
        mul, is_zero = field._mul, field._is_zero
        r = self.gram_row_raw(p)
        m = max((k for k, a in enumerate(r) if not is_zero(a)), default=-1)
        n = self.dim
        if m >= 0:
            minus_inv = field._neg(field._inv(r[m]))
            tails = None
            for head in linalg.projective_points(field, m):
                x = head + (mul(minus_inv, linalg._dot(field, r, head)),)
                if tails is None:
                    tails = []
                    for tail in linalg.all_vectors(field, n - m - 1):
                        tails.append(tail)
                        yield x + tail
                else:
                    for tail in tails:
                        yield x + tail
        zeros = (field.raw_zero,) * (m + 1)
        for tail in linalg.projective_points(field, n - m - 1):
            yield zeros + tail

    def b_half(self, u: Vector, v: Vector) -> Scalar:
        """The 1/2-scaled bilinear form; satisfies B(v,v) = Q(v)."""
        field = self.field
        if field.char == 2:
            raise UnsupportedFieldError(
                "the half bilinear form needs characteristic != 2")
        mul = field._mul
        half = mul(field.raw_one, field._inv(field.scalar(2).value))
        return Scalar(mul(half, self.b_raw(raw_values(field, u),
                                           raw_values(field, v))), field)

    # -- derived data ----------------------------------------------------
    def _raw_gram(self):
        """Gram matrix of b_full on raw values (cached)."""
        if self._gram is None:
            n = self.dim
            add = self.field._add
            rows = [[self.field.raw_zero] * n for _ in range(n)]
            for i, j, c in self._terms:
                if i == j:
                    rows[i][i] = add(add(rows[i][i], c), c)
                else:
                    rows[i][j] = add(rows[i][j], c)
                    rows[j][i] = add(rows[j][i], c)
            self._gram = tuple(tuple(r) for r in rows)
        return self._gram

    def bilinear_matrix(self):
        """Gram matrix of b_full (rows of Scalars)."""
        return linalg.wrap_rows(self.field, self._raw_gram())

    def restrict(self, basis: Sequence[Vector]) -> "QuadraticForm":
        """The form in the coordinates of the given (ambient) basis."""
        return self.restrict_raw([raw_values(self.field, b) for b in basis])

    def restrict_raw(self, basis) -> "QuadraticForm":
        """``restrict`` for a basis of raw vectors.  Over Q each vector
        is brought to integer numerators once and B(b_i, b_j) is the dot
        product of b_i's integer Gram row with b_j (Q(b_i) is half of
        B(b_i, b_i)); the other fields take ``eval_raw`` and ``b_raw``."""
        coeffs = {}
        k = len(basis)
        if self._den:
            nums = [_numerators(b) for b in basis]
            for i, (xs, li) in enumerate(nums):
                row = self._int_gram_row(xs)
                coeffs[(i, i)] = Fraction(sum(map(operator.mul, row, xs)),
                                          2 * self._den * li * li)
                for j in range(i + 1, k):
                    ys, lj = nums[j]
                    coeffs[(i, j)] = Fraction(sum(map(operator.mul, row, ys)),
                                              self._den * li * lj)
            return QuadraticForm._of(self.field, k, coeffs.items())
        for i, x in enumerate(basis):
            coeffs[(i, i)] = self.eval_raw(x)
            for j in range(i + 1, k):
                coeffs[(i, j)] = self.b_raw(x, basis[j])
        return QuadraticForm._of(self.field, k, coeffs.items())

    def scaled(self, c) -> "QuadraticForm":
        c, mul = self.field.scalar(c).value, self.field._mul
        return QuadraticForm._of(self.field, self.dim, [
            ((i, j), mul(c, v)) for i, j, v in self._terms])

    def direct_sum(self, other: "QuadraticForm") -> "QuadraticForm":
        if other.field is not self.field:
            raise InvalidInputError("direct sum over mismatched fields")
        n = self.dim
        return QuadraticForm._of(
            self.field, n + other.dim,
            [((i, j), c) for i, j, c in self._terms]
            + [((i + n, j + n), c) for i, j, c in other._terms])

    # on the tables: ApproxReal coefficients compare within tolerance
    def __eq__(self, other):
        eq = self.field._eq
        return (isinstance(other, QuadraticForm)
                and self.field is other.field and self.dim == other.dim
                and len(self._terms) == len(other._terms)
                and all(i == k and j == l and eq(c, d) for (i, j, c), (k, l, d)
                        in zip(self._terms, other._terms)))

    def __hash__(self):
        if not self.field.is_exact:
            raise TypeError("approximate forms are not hashable")
        return hash((self.field, self.dim, self._terms))

    def __repr__(self):
        if all(i == j for i, j, _ in self._terms):
            diag = [self.coeff(i, i) for i in range(self.dim)]
            return f"[{', '.join(map(repr, diag))}]"
        terms = []
        for (i, j), c in self.coeff_items():
            mono = f"x{i}^2" if i == j else f"x{i}*x{j}"
            terms.append(f"{c!r}*{mono}")
        return " + ".join(terms) if terms else "0"


def _numerators(x):
    """(integers xs, l >= 1) with x_i = xs[i] / l, for rationals or ints."""
    lx = math.lcm(*[v.denominator for v in x])
    if lx == 1:
        return [v.numerator for v in x], 1
    return [v.numerator * (lx // v.denominator) for v in x], lx


@functools.cache
def _root_table(field: Field, c) -> dict:
    """{(b, a): the roots of c t^2 + b t + a, in elements order} on raw
    values of a finite field, for c != 0; (b, a) is absent when there is
    no root.  Built once per (field, c) from every pair of roots (r1, r2)
    as (-c (r1 + r2), c r1 r2), so it serves every characteristic."""
    add, mul = field._add, field._mul
    elems = field.raw_elements
    table = {}
    for k, r1 in enumerate(elems):
        for r2 in elems[k:]:
            key = (field._neg(mul(c, add(r1, r2))), mul(mul(c, r1), r2))
            table[key] = (r1,) if r1 == r2 else (r1, r2)
    return table


def _radical(q: QuadraticForm) -> list:
    """Basis of {v : B(v,u) = 0 for all u} (kernel of the Gram matrix)
    as raw tuples, computed once per form and kept on it."""
    if q._rad is None:
        q._rad = linalg.kernel_raw(q._raw_gram(), q.field, q.dim)
    return q._rad


def bilinear_radical(q: QuadraticForm):
    """Basis of {v : B(v,u) = 0 for all u} (kernel of the Gram matrix),
    as rows of Scalars."""
    return linalg.wrap_rows(q.field, _radical(q))


def is_nondegenerate_form(q: QuadraticForm) -> bool:
    """No nonzero vector of the bilinear radical has Q = 0.

    For characteristic != 2 this reduces to a trivial radical.  Over a
    perfect field of characteristic 2 the square root of Q is additive
    on the radical, so the test is the kernel of that linear functional,
    which is trivial exactly on a radical line with Q != 0.
    """
    rad = _radical(q)
    if not rad:
        return True
    return q.field.char == 2 and len(rad) == 1 and \
        not q.field._is_zero(q.eval_raw(rad[0]))


@dataclass(frozen=True)
class Diagonalization:
    """Entries [a_1,...,a_n] and the basis realizing them.

    ``basis[i]`` is a vector in the original coordinates with
    Q(sum y_i basis[i]) = sum a_i y_i^2.
    """
    entries: tuple
    basis: tuple


def diagonalize(q: QuadraticForm) -> Diagonalization:
    """Orthogonal basis in characteristic != 2.

    Pivot rule: first remaining basis vector with Q != 0; if all are
    isotropic, polarize the first non-orthogonal pair (v, u+v); zero
    entries are emitted only for a degenerate form.
    """
    entries, basis = _diagonal_raw(q)
    field = q.field
    return Diagonalization(tuple(Scalar(a, field) for a in entries),
                           linalg.wrap_rows(field, basis))


def _diagonal_raw(q: QuadraticForm):
    """``diagonalize`` on raw values: (entries, basis) as raw tuples."""
    field = q.field
    if field.char == 2:
        raise UnsupportedFieldError(
            "diagonalization needs characteristic != 2; "
            "use generalized_orthogonal_basis")
    add, sub, mul, is_zero = field._add, field._sub, field._mul, field._is_zero
    n, zero, one = q.dim, field.raw_zero, field.raw_one
    basis = [(zero,) * i + (one,) + (zero,) * (n - 1 - i) for i in range(n)]
    entries = []
    two = field.scalar(2).value
    for i in range(n):
        pivot = next((j for j in range(i, n)
                      if not is_zero(q.eval_raw(basis[j]))), None)
        if pivot is None:
            hyper = next(((j, k) for j in range(i, n) for k in range(j + 1, n)
                          if not is_zero(q.b_raw(basis[j], basis[k]))), None)
            if hyper is None:
                # remaining block is identically zero (radical part)
                entries.extend(zero for _ in range(i, n))
                break
            j, k = hyper
            basis[j] = tuple(map(add, basis[j], basis[k]))
            pivot = j
        basis[i], basis[pivot] = basis[pivot], basis[i]
        a = q.eval_raw(basis[i])
        entries.append(a)
        two_a = mul(two, a)
        for j in range(i + 1, n):
            c = field._div(q.b_raw(basis[i], basis[j]), two_a)
            if not is_zero(c):
                basis[j] = tuple([sub(x, mul(c, y))
                                  for x, y in zip(basis[j], basis[i])])
    return tuple(entries), tuple(basis)


def signature(q: QuadraticForm):
    """(positives, negatives, zeros) of a diagonalization; rationals only.
    A diagonal table is its own diagonalization (Sylvester's law of
    inertia makes the counts the same for every one)."""
    field = q.field
    if field.is_finite or not field.is_exact:
        raise UnsupportedFieldError("signatures are a real-field notion")
    if all(i == j for i, j, _ in q._terms):  # the zeros are not in the table
        entries = [c for _, _, c in q._terms]
        entries += [field.raw_zero] * (q.dim - len(entries))
    else:
        entries = _diagonal_raw(q)[0]
    count = collections.Counter(map(field._square_class, entries))
    return (count[SquareClass.UNIT], count[SquareClass.NON_RESIDUE],
            count[SquareClass.ZERO])


def _det_raw(q: QuadraticForm):
    """det Q up to a square: the diagonalized entries' raw product,
    multiplied in order from one."""
    return functools.reduce(q.field._mul, _diagonal_raw(q)[0], q.field.raw_one)


def det_class(q: QuadraticForm) -> SquareClass:
    """Square class of det Q (product of the diagonalized entries)."""
    if not q.field.is_exact:
        raise UnsupportedFieldError("square classes need an exact field")
    return q.field._square_class(_det_raw(q))


def invariant_kind(field: Field) -> str:
    """What classifies non-degenerate forms of one dimension over the
    field: "sig" (the signature) over Q, "det" (the determinant's square
    class) over odd F_q, "arf" (the Arf class) in characteristic 2; an
    inexact field, or anything else, is refused."""
    if not (isinstance(field, Field) and field.is_exact):
        raise UnsupportedFieldError(f"no classifying invariant over {field}")
    if field.char == 2:
        return "arf"
    return "det" if field.is_finite else "sig"


def form_invariant(q: QuadraticForm) -> tuple:
    """The invariant of a non-degenerate form, by ``invariant_kind``:
    ("sig", k, l), ("det", "UNIT" | "NON_RESIDUE") or ("arf", 0 | 1)."""
    kind = invariant_kind(q.field)
    if kind == "arf":
        return ("arf", 0 if arf_invariant(q).is_zero() else 1)
    if kind == "sig":
        k, l, zeros = signature(q)
        if not zeros:
            return ("sig", k, l)
    else:
        det = det_class(q)
        if det is not SquareClass.ZERO:
            return ("det", det.name)
    raise DegenerateFormError("the invariant of a degenerate form")


def rescaled(inv: tuple, dim: int) -> tuple:
    """``form_invariant(q.scaled(e))`` for the canonical non-residue e
    from ``inv = form_invariant(q)`` and ``dim = q.dim``, without building
    the scaled form: the signature swaps, det (e Q) = e^dim det Q flips
    in odd dimension only, and every rescaling keeps the Arf class."""
    if inv[0] == "sig":
        return ("sig", inv[2], inv[1])
    if inv[0] == "det" and dim % 2:
        return ("det", "UNIT" if inv[1] == "NON_RESIDUE" else "NON_RESIDUE")
    return inv


@dataclass(frozen=True)
class GenOrthoBasis:
    """A generalized orthogonal basis: marked symplectic couples, all
    other pairs orthogonal."""
    vectors: tuple
    couples: frozenset  # of index pairs (i, j), i < j


def _couples_of(q: QuadraticForm, vectors: Sequence[tuple]):
    """Validate a generalized orthogonal set of raw tuples (as
    ``_vectors_of`` gives them); return its couple index pairs."""
    field = q.field
    if vectors and linalg.rank_raw(vectors, field) < len(vectors):
        raise InvalidInputError("generalized orthogonal set must be independent")
    b, is_zero = q.b_raw, field._is_zero
    partner = {}
    couples = set()
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            bij = b(vectors[i], vectors[j])
            if is_zero(bij):
                continue
            if i in partner or j in partner:
                raise InvalidInputError(
                    "a vector participates in two non-orthogonal pairs")
            if not field._eq(bij, field.raw_one):
                raise InvalidInputError("couple pairing must equal 1")
            if not (is_zero(b(vectors[i], vectors[i]))
                    and is_zero(b(vectors[j], vectors[j]))):
                raise InvalidInputError("couple members must be symplectic")
            partner[i] = j
            partner[j] = i
            couples.add((i, j))
    return couples


def _subspace_orthogonal_to(q: QuadraticForm, space: Sequence[tuple],
                            against: Sequence[tuple]) -> list:
    """Basis of {w in span(space) : B(w, a) = 0 for all a in against} on
    raw tuples, each combination taken by ``linalg.mat_vec_raw``."""
    if not against:
        return list(space)
    rows = [[q.b_raw(a, w) for w in space] for a in against]
    cols = tuple(zip(*space))
    return [linalg.mat_vec_raw(cols, combo, q.field)
            for combo in linalg.kernel_raw(rows, q.field, len(space))]


def generalized_orthogonal_basis(q: QuadraticForm,
                                 s: Sequence[Vector] = ()) -> GenOrthoBasis:
    """Embed the generalized orthogonal set ``s`` into a full basis:
    ``_gob_raw`` on the raw values of s, wrapped once."""
    if _radical(q):
        raise DegenerateFormError(
            "generalized orthogonal bases need a form without degenerate vectors")
    vectors, couples = _gob_raw(q, _vectors_of(q, s))
    return GenOrthoBasis(linalg.wrap_rows(q.field, vectors), couples)


def _gob_raw(q: QuadraticForm, s: Sequence[tuple]) -> tuple:
    """The generalized orthogonal basis extending the set of raw tuples
    s, for a form without degenerate vectors, as (raw tuples, frozenset
    of couple index pairs).

    Follows the inductive construction: strip a non-symplectic vector,
    strip a symplectic couple, or complete a lone symplectic vector v by
    some u orthogonal to the rest with B(u,v) = 1.
    """
    field = q.field
    b, is_zero, mul, sub = q.b_raw, field._is_zero, field._mul, field._sub

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
                        if not is_zero(b(v, v))), None)
        if nonsymp is not None:
            v = todo[nonsymp]
            emit(v)
            rest = [w for k, w in enumerate(todo) if k != nonsymp]
            rest_couples = {tuple(k - (k > nonsymp) for k in pair)
                            for pair in todo_couples}
            extend(_subspace_orthogonal_to(q, space, [v]), rest, rest_couples)
            return
        if todo_couples:
            i, j = min(todo_couples)
            u, v = todo[i], todo[j]
            out_couples.add((emit(u), emit(v)))
            rest = [w for k, w in enumerate(todo) if k not in (i, j)]
            rest_couples = {tuple(k - (k > i) - (k > j) for k in pair)
                            for pair in todo_couples - {(i, j)}}
            extend(_subspace_orthogonal_to(q, space, [u, v]), rest, rest_couples)
            return
        # Only pairwise-orthogonal lone symplectic vectors remain.
        v = todo[0]
        rest = todo[1:]
        w = next((c for c in _subspace_orthogonal_to(q, space, rest)
                  if not is_zero(b(v, c))), None)
        if w is None:
            raise InvalidInputError(
                "no pairing partner found; not a generalized orthogonal set "
                "of this form")
        inv = mul(field.raw_one, field._inv(b(v, w)))
        u = [mul(inv, a) for a in w]
        qu = q.eval_raw(u)  # Q(u - Q(u)v) = 0, pairing kept
        u = tuple([sub(a, mul(qu, c)) for a, c in zip(u, v)])
        out_couples.add((emit(v), emit(u)))
        extend(_subspace_orthogonal_to(q, space, [v, u]), rest, set())

    n, zero, one = q.dim, field.raw_zero, field.raw_one
    extend([(zero,) * i + (one,) + (zero,) * (n - 1 - i) for i in range(n)],
           list(s), _couples_of(q, s))
    assert len(out_vectors) == n
    return out_vectors, frozenset(out_couples)


def witt_index(q: QuadraticForm) -> int:
    """Half the dimension of a maximal symplectic (hyperbolic) subspace.

    Closed forms on ``form_invariant``: min of the signature over Q;
    over F_p, (n-1)/2 for odd n, and for even n, n/2 when det Q lies in
    the class of (-1)^(n/2), else n/2 - 1; off the radical in
    characteristic 2, n/2 minus the Arf class.  `witt_index_bruteforce`
    is the independent oracle these formulas are tested against.
    """
    if not is_nondegenerate_form(q):
        raise DegenerateFormError("witt index of a degenerate form")
    rad = _radical(q)  # not empty only in characteristic 2
    if rad:
        return witt_index(_off_radical(q, rad))
    field, n = q.field, q.dim
    if invariant_kind(field) == "det" and n % 2 == 1:
        return (n - 1) // 2  # whatever the det class: skip diagonalizing
    return invariant_witt_index(field, n, form_invariant(q))


def invariant_witt_index(field: Field, n: int, inv: tuple) -> int:
    """The closed forms of ``witt_index`` for a non-degenerate form over
    the field of dimension n and ``form_invariant`` inv, read off inv
    alone, so no form is built."""
    if inv[0] == "sig":
        return min(inv[1], inv[2])
    if inv[0] == "arf":
        return n // 2 - inv[1]
    if n % 2 == 1:
        return (n - 1) // 2
    target = field._square_class(field._neg(field.raw_one)) \
        if (n // 2) % 2 == 1 else SquareClass.UNIT
    return n // 2 if inv[1] == target.name else n // 2 - 1


def _off_radical(q: QuadraticForm, rad) -> QuadraticForm:
    """Q restricted to the unit vectors e_i, i in
    ``linalg.complement_indices(rad)``, which complement the radical
    (raw tuples): the table of Q on those coordinates."""
    keep = linalg.complement_indices(rad, q.field, q.dim)
    at = {i: k for k, i in enumerate(keep)}
    return QuadraticForm._of(q.field, len(keep),
                             [((at[i], at[j]), c) for i, j, c in q._terms
                              if i in at and j in at])


def subspaces(field: Field, n: int, k: int):
    """All k-dimensional subspaces of K^n (finite K), as RREF bases whose
    rows are tuples of raw field values."""
    zero, one = field.raw_zero, field.raw_one
    for pivots in itertools.combinations(range(n), k):
        free_positions = []
        for r, p in enumerate(pivots):
            for c in range(p + 1, n):
                if c not in pivots:
                    free_positions.append((r, c))
        for values in linalg.all_vectors(field, len(free_positions)):
            rows = [[zero] * n for _ in range(k)]
            for r, p in enumerate(pivots):
                rows[r][p] = one
            for (r, c), v in zip(free_positions, values):
                rows[r][c] = v
            yield tuple(tuple(r) for r in rows)


def _is_hyperbolic_space(q: QuadraticForm, basis) -> bool:
    """Search a basis of pairwise-orthogonal symplectic couples for the
    span of ``basis``, independent rows of raw values.

    The search runs in the coordinates of the basis: r is Q restricted
    to it, its isotropic vectors are the multiples of the points of
    ``r.isotropic_points()``, and the complement of a couple <u, v> is
    ``r.perp_raw([u, v])``."""
    if not basis:
        return True
    if len(basis) % 2 == 1:
        return False
    r = q.restrict_raw(basis)
    is_zero = r.field._is_zero
    points = r.isotropic_points()
    # an isotropic u extends iff the space is hyperbolic
    u = next(points, None)
    if u is None:
        return False
    # every isotropic line with B(u, v) != 0 (not u's own: B(u, u) = 0):
    # u and v / B(u, v) are a couple, whose complement is <u, v>^perp
    for v in points:
        if (not is_zero(r.b_raw(u, v))
                and _is_hyperbolic_space(r, r.perp_raw([u, v]))):
            return True
    return False


def witt_index_bruteforce(q: QuadraticForm) -> int:
    """Exhaustive maximal-symplectic-subspace search (the oracle)."""
    if not q.field.is_finite:
        raise UnsupportedFieldError(
            "the brute-force oracle enumerates a finite field")
    for m in range(q.dim // 2, 0, -1):
        for basis in subspaces(q.field, q.dim, 2 * m):
            if _is_hyperbolic_space(q, basis):
                return m
    return 0


def isometric(q1: QuadraticForm, q2: QuadraticForm) -> bool:
    """Equality of the two ``form_invariant``s (of non-degenerate forms)."""
    if q1.field is not q2.field:
        raise InvalidInputError("isometry comparison needs one field")
    if q1.dim != q2.dim:
        raise InvalidInputError("isometry comparison needs equal dimensions")
    if q1.field.char == 2:
        raise UnsupportedFieldError("use arf_invariant in characteristic 2")
    return form_invariant(q1) == form_invariant(q2)


def char2_arf_rep(field: CharTwo) -> Scalar:
    """The fixed class representative e with K = {t^2+t} u {e + t^2+t}."""
    return Scalar(1 if field.q == 2 else 2, field)  # raw 2 is t over F_4


def arf_invariant(q: QuadraticForm) -> Scalar:
    """The Arf class, canonically 0 or the fixed representative e.

    Sums Q(u_i)Q(v_i) over the couples of a generalized orthogonal
    basis (``_gob_raw``; any symplectic basis gives one class: Arf's
    theorem), modulo the additive image of t^2 + t: {0} for F_2,
    {0, 1} for F_4.
    """
    field = q.field
    if field.char != 2:
        raise UnsupportedFieldError("the Arf invariant lives in characteristic 2")
    if q.dim % 2 == 1:
        raise InvalidInputError("the Arf invariant needs an even dimension")
    if _radical(q):
        raise DegenerateFormError(
            "the Arf invariant needs a non-degenerate bilinear form")
    vectors, couples = _gob_raw(q, [])  # all symplectic: couples only
    add, mul = field._add, field._mul
    total = field.raw_zero
    for i, j in couples:
        total = add(total, mul(q.eval_raw(vectors[i]), q.eval_raw(vectors[j])))
    image = {add(mul(t, t), t) for t in field.raw_elements}
    return field.zero() if total in image else char2_arf_rep(field)


def represents(q: QuadraticForm, lam) -> Optional[Vector]:
    """A nonzero witness v with Q(v) = lam, or None.

    Finite fields enumerate; the rationals decide by signature (the
    real-field question) and construct a witness from a scaled basis
    vector or an opposite-sign pair.
    """
    field = q.field
    lam = field.scalar(lam)
    if field.is_finite:
        x = next((x for x in linalg.all_vectors(field, q.dim)
                  if any(x) and q.eval_raw(x) == lam.value), None)
        return None if x is None else tuple(Scalar(a, field) for a in x)
    if not field.is_exact:
        raise UnsupportedFieldError(f"represents over {field}")
    entries, basis = _diagonal_raw(q)
    entries = [Scalar(a, field) for a in entries]
    cols = tuple(zip(*basis))

    def witness(coeffs) -> Vector:
        return tuple(Scalar(x, field) for x in linalg.mat_vec_raw(
            cols, raw_values(field, coeffs), field))

    if lam.is_zero():
        for i, a in enumerate(entries):
            if a.is_zero():
                return witness([1 if k == i else 0 for k in range(q.dim)])
        for i, a in enumerate(entries):
            for j in range(i + 1, q.dim):
                b = entries[j]
                if square_class(a) * square_class(b) is not SquareClass.NON_RESIDUE:
                    continue
                ratio = sqrt_if_square(-b / a)
                if ratio is not None:
                    co = [field.zero()] * q.dim
                    co[i], co[j] = ratio, field.one()
                    return witness(co)
        if any(square_class(a) is SquareClass.UNIT for a in entries) and \
           any(square_class(a) is SquareClass.NON_RESIDUE for a in entries):
            raise WitnessSearchError(
                "isotropic over the reals, but no exact rational witness found")
        return None
    want = square_class(lam)
    for i, a in enumerate(entries):
        if square_class(a) is not want:
            continue
        root = sqrt_if_square(lam / a)
        if root is not None:
            return witness([root if k == i else 0 for k in range(q.dim)])
    for i, a in enumerate(entries):
        for j in range(i + 1, q.dim):
            b = entries[j]
            if square_class(a) * square_class(b) is not SquareClass.NON_RESIDUE:
                continue
            s = sqrt_if_square(-b / a)
            if s is None:
                continue
            # a(x - sy)(x + sy) = lam via x - sy = lam/a, x + sy = 1
            t = lam / a
            x = (t + 1) / field.scalar(2)
            y = (field.one() - t) / (field.scalar(2) * s)
            co = [field.zero()] * q.dim
            co[i], co[j] = x, y
            out = witness(co)
            assert q(out) == lam
            return out
    if any(square_class(a) is want for a in entries):
        raise WitnessSearchError(
            f"{lam} is representable over the reals, but no exact rational "
            "witness was found")
    return None


# ---------------------------------------------------------------------------
# Isometry construction: reflections and Witt extension by reflections.
# ---------------------------------------------------------------------------

def mirrors(q: QuadraticForm, a, b, pool=(), fixed=()):
    """Mirrors w_1, ..., w_k (raw tuples) whose reflections, applied in
    turn, send the raw vector a to b; None when the pool has no r.

    Q(a) = Q(b) != 0: [a - b] if Q(a - b) != 0, else [a + b, b].  Isotropic,
    non-collinear a and b: [a - b] if B(a, b) != 0, else [a - r, r - b] for
    the first r of ``pool`` pairing with both a and b and orthogonal to
    every vector of ``fixed``.  Odd characteristic only: the two-mirror
    anisotropic case needs Q(a + b) = 4Q(a) != 0.
    """
    if a == b:
        return []
    sub = q.field._sub
    d = tuple(map(sub, a, b))
    if q.eval_raw(a):
        if q.eval_raw(d):
            return [d]
        return [tuple(map(q.field._add, a, b)), b]
    if q.b_raw(a, b):
        return [d]
    for r in pool:
        if q.b_raw(a, r) and q.b_raw(b, r) and \
                not any(q.b_raw(r, f) for f in fixed):
            return [tuple(map(sub, a, r)), tuple(map(sub, r, b))]
    return None


def is_isometry(q: QuadraticForm, m) -> bool:
    """The dim x dim matrix m (rows) preserves Q: on raw values, Q of
    column i is c_ii and B of columns i < j is c_ij (B alone would miss
    Q in characteristic 2).  Any other shape raises InvalidInputError."""
    n = q.dim
    if len(m) != n or any(len(row) != n for row in m):
        raise InvalidInputError(f"is_isometry needs a {n}x{n} matrix")
    cols = list(zip(*(raw_values(q.field, row) for row in m)))
    coeff = {(i, j): c for i, j, c in q._terms}
    zero, eq = q.field.raw_zero, q.field._eq
    for i, x in enumerate(cols):
        if not eq(q.eval_raw(x), coeff.get((i, i), zero)):
            return False
        for j in range(i + 1, n):
            if not eq(q.b_raw(x, cols[j]), coeff.get((i, j), zero)):
                return False
    return True


def _vectors_of(q: QuadraticForm, vecs) -> list:
    """The vectors as tuples of ``raw_values``; each must have length
    q.dim."""
    vecs = list(vecs)
    if any(len(v) != q.dim for v in vecs):
        raise InvalidInputError(f"vectors must have length {q.dim}")
    return [tuple(raw_values(q.field, v)) for v in vecs]


class _Extender:
    """Witt extension over a finite field of odd characteristic.

    The radical of the pairing on span(u) is completed hyperbolically,
    which makes the span non-degenerate.  An orthogonal basis of it then
    consists of anisotropic vectors, and ``mirrors`` moves each one onto
    its target: both are orthogonal to every image already placed, so
    the mirrors fix those images.  On raw tuples, the matrix kept as
    raw columns, and each mirror reflects every column.
    """

    def __init__(self, q: QuadraticForm):
        if not q.field.is_finite or q.field.char == 2:
            raise UnsupportedFieldError(
                "isometry extension is implemented for odd finite fields")
        if _radical(q):
            raise DegenerateFormError("isometry extension needs a "
                                      "non-degenerate ambient form")
        self.q = q
        self.field = q.field

    def extend(self, u_vecs, v_vecs) -> tuple:
        """The raw rows of g with g u_i = v_i, for as many raw tuples
        v_i as u_i."""
        q = self.q
        field = self.field
        n, zero, one = q.dim, field.raw_zero, field.raw_one
        cols = [(zero,) * i + (one,) + (zero,) * (n - 1 - i)
                for i in range(n)]
        if not u_vecs:
            return tuple(cols)  # the identity
        k = len(u_vecs)
        if linalg.rank_raw(u_vecs, field) < k or \
           linalg.rank_raw(v_vecs, field) < k:
            raise InvalidInputError("subspace bases must be independent")
        # Q and B on the u_i are Q and B on the v_i: one table for both
        if q.restrict_raw(u_vecs)._terms != q.restrict_raw(v_vecs)._terms:
            raise InvalidInputError("the given map is not an isometry")
        u_list, v_list = self._complete_radical(u_vecs, v_vecs)
        u_cols, v_cols = tuple(zip(*u_list)), tuple(zip(*v_list))
        for co in _diagonal_raw(q.restrict_raw(u_list))[1]:
            a = linalg.mat_vec_raw(tuple(zip(*cols)),
                                   linalg.mat_vec_raw(u_cols, co, field),
                                   field)
            for w in mirrors(q, a, linalg.mat_vec_raw(v_cols, co, field)):
                cols = [q.reflect_raw(w, c) for c in cols]
        g = tuple(zip(*cols))
        for u, v in zip(u_vecs, v_vecs):
            assert linalg.mat_vec_raw(g, u, field) == v, \
                "extension failed (internal)"
        # g preserves Q: the table of Q in the columns of g is Q's own
        assert q.restrict_raw(cols)._terms == q._terms, \
            "extension is not an isometry (internal)"
        return g

    def _complete_radical(self, u_vecs, v_vecs):
        """Hyperbolically complete the radical of B restricted to span(u)."""
        q = self.q
        field = self.field
        gram = [[q.b_raw(a, b) for b in u_vecs] for a in u_vecs]
        rad = linalg.kernel_raw(gram, field, len(u_vecs))
        if not rad:
            return list(u_vecs), list(v_vecs)
        u_cols, v_cols = tuple(zip(*u_vecs)), tuple(zip(*v_vecs))
        rad_u = [linalg.mat_vec_raw(u_cols, c, field) for c in rad]
        rad_v = [linalg.mat_vec_raw(v_cols, c, field) for c in rad]
        # complement of the radical inside the given span
        comp_idx = linalg.complement_indices(rad, field, len(u_vecs))
        u_list = rad_u + [u_vecs[i] for i in comp_idx]
        v_list = rad_v + [v_vecs[i] for i in comp_idx]
        for j in range(len(rad_u)):
            pu = self._radical_mate(rad_u[j], u_list)
            pv = self._radical_mate(rad_v[j], v_list)
            u_list.append(pu)
            v_list.append(pv)
        return u_list, v_list

    def _radical_mate(self, r, current) -> tuple:
        """Isotropic w with B(r,w) = 1, orthogonal to the rest of ``current``."""
        q = self.q
        field = self.field
        zero, one = field.raw_zero, field.raw_one
        coords = linalg.coordinate_map([q.gram_row_raw(s) for s in current],
                                       field)
        sol = coords([one if s == r else zero for s in current])
        if sol is None:
            raise InvalidInputError("radical completion failed (internal)")
        qs, sub, mul = q.eval_raw(sol), field._sub, field._mul
        w = tuple([sub(a, mul(qs, c)) for a, c in zip(sol, r)])
        assert q.eval_raw(w) == zero and q.b_raw(r, w) == one
        return w


def extend_isometry(q: QuadraticForm, u_basis, v_basis):
    """Extend the isometry u_basis[i] -> v_basis[i] to the whole space.

    Returns a matrix g with g u_i = v_i preserving Q, a product of
    reflections built after a hyperbolic completion of any radical of
    the restricted pairing; the identity for empty bases.
    """
    ext = _Extender(q)
    if len(u_basis) != len(v_basis):
        raise InvalidInputError("subspace bases differ in length")
    return linalg.wrap_rows(q.field, ext.extend(_vectors_of(q, u_basis),
                                                _vectors_of(q, v_basis)))


class IsometrySampler:
    """Random isometries of (K^n, Q) fixing a list of vectors.

    Buckets every vector of the space by norm and pairings against the
    fixed vectors, then extends (fixed + r) -> (fixed + r') for a random
    compatible r'.
    """

    def __init__(self, q: QuadraticForm, fixed):
        self.q = q
        self.field = q.field
        self.fixed = _vectors_of(q, fixed)
        pairs = [q.pairing_raw(v) for v in self.fixed]
        self.buckets = {}
        # raw tuples, as the extension takes them
        for x in linalg.all_vectors(q.field, q.dim):
            if not any(x):
                continue
            # vectors inside span(fixed) stay in the buckets; extend()
            # rejects dependent choices and sample() retries
            key = (q.eval_raw(x),) + tuple([pair(x) for pair in pairs])
            self.buckets.setdefault(key, []).append(x)
        self._keys = sorted(self.buckets)
        self._ext = _Extender(q)

    def sample(self, rng):
        """A random isometry as rows of Scalars."""
        return linalg.wrap_rows(self.field, self._sample_raw(rng))

    def _sample_raw(self, rng) -> tuple:
        """``sample`` as raw rows: the Witt extension itself."""
        while True:
            key = self._keys[rng.randrange(len(self._keys))]
            pool = self.buckets[key]
            r = pool[rng.randrange(len(pool))]
            r2 = pool[rng.randrange(len(pool))]
            try:
                return self._ext.extend(self.fixed + [r], self.fixed + [r2])
            except InvalidInputError:
                continue
