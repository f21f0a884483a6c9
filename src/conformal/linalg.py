"""Small exact linear algebra over the package's scalar fields.

Vectors are tuples of :class:`~conformal.fields.Scalar`, matrices are
tuples of row tuples.  Everything works by fraction-free-enough Gaussian
elimination with the field's own zero test, so the same code serves the
rationals, F_p, F_2/F_4 and (tolerance-aware) floats.  The two walks
of a finite space, ``all_vectors`` and ``projective_points``, yield
tuples of raw field values instead.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Optional, Sequence

from .fields import Field, FieldMismatchError, Scalar

Vector = tuple
Matrix = tuple


def raw_values(field: Field, v: Vector) -> list:
    """The raw values of v's coordinates; ints are coerced into the field,
    and a Scalar of another field raises FieldMismatchError."""
    out = []
    for x in v:
        if isinstance(x, Scalar):
            if x.field is not field and x.field != field:
                raise FieldMismatchError(
                    f"mixed fields: {field} and {x.field}")
            out.append(x.value)
        elif isinstance(x, int):
            out.append(field.scalar(x).value)
        else:
            raise TypeError(f"not a coordinate over {field}: {x!r}")
    return out


def vector(field: Field, entries) -> Vector:
    return tuple(field.scalar(e) for e in entries)


def zero_vector(field: Field, n: int) -> Vector:
    return tuple(field.zero() for _ in range(n))


def unit_vector(field: Field, n: int, i: int) -> Vector:
    return tuple(field.one() if j == i else field.zero() for j in range(n))


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c: Scalar, v: Vector) -> Vector:
    return tuple(c * a for a in v)


def is_zero_vector(v: Vector) -> bool:
    return all(a.is_zero() for a in v)


def combine(coeffs: Sequence[Scalar], vectors: Sequence[Vector]) -> Vector:
    """sum c_i v_i over non-empty ``vectors``, added in order from zero."""
    out = zero_vector(vectors[0][0].field, len(vectors[0]))
    for c, v in zip(coeffs, vectors):
        out = vec_add(out, vec_scale(c, v))
    return out


def identity_matrix(field: Field, n: int) -> Matrix:
    return tuple(unit_vector(field, n, i) for i in range(n))


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(sum((a * b for a, b in zip(row, v)),
                     start=row[0].field.zero()) for row in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(tuple(sum((x * y for x, y in zip(row, col)),
                           start=row[0].field.zero()) for col in bt)
                 for row in a)


def rref(rows: Sequence[Vector], field: Field):
    """Reduced row echelon form; returns (rows, pivot column indices).

    Eliminates on the raw values of ``field`` with its own ops, in the
    order of plain Scalar arithmetic, and wraps only the result.  A row
    entry of another field raises FieldMismatchError."""
    m = [raw_values(field, r) for r in rows]
    pivots = _reduce(m, field)
    return tuple(tuple(Scalar(x, field) for x in row) for row in m), pivots


def _reduce(m: list, field: Field, log: Optional[list] = None) -> list:
    """Bring the raw rows m to reduced row echelon form in place and
    return the pivot columns.  With ``log``, append each pivot step as
    (row, swapped row, pivot inverse, [(eliminated row, factor), ...])."""
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


def rank(rows: Sequence[Vector], field: Field) -> int:
    if not rows:
        return 0
    _, pivots = rref(rows, field)
    return len(pivots)


def kernel_basis(rows: Sequence[Vector], field: Field, ncols: int):
    """Basis of {v : M v = 0} for the matrix with the given rows."""
    if not rows:
        return tuple(unit_vector(field, ncols, i) for i in range(ncols))
    red, pivots = rref(rows, field)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [field.zero()] * ncols
        v[fc] = field.one()
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return tuple(basis)


def span_key(vectors: Sequence[Vector], field: Field) -> tuple:
    """Equal for two lists of vectors exactly when they span the same
    space: the non-zero rows of the RREF, as tuples of raw values."""
    red, pivots = rref(vectors, field)
    return tuple(tuple(x.value for x in row) for row in red[:len(pivots)])


def solve(rows: Sequence[Vector], rhs: Vector, field: Field) -> Optional[Vector]:
    """One solution x of M x = rhs, or None."""
    ncols = len(rows[0]) if rows else len(rhs)
    aug = [tuple(row) + (b,) for row, b in zip(rows, rhs)]
    red, pivots = rref(aug, field)
    if ncols in pivots:
        return None
    x = [field.zero()] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return tuple(x)


def inverse(m: Matrix, field: Field) -> Optional[Matrix]:
    n = len(m)
    aug = [tuple(m[i]) + unit_vector(field, n, i) for i in range(n)]
    red, pivots = rref(aug, field)
    if pivots[:n] != list(range(n)):
        return None
    return tuple(tuple(red[i][n:]) for i in range(n))


def independent(vectors: Sequence[Vector], field: Field) -> bool:
    return rank(vectors, field) == len(vectors)


def in_span(v: Vector, basis: Sequence[Vector], field: Field) -> bool:
    if not basis:
        return is_zero_vector(v)
    return rank(list(basis) + [v], field) == rank(basis, field)


def complement_indices(vectors: Sequence[Vector], field: Field,
                       n: int) -> list:
    """The indices i, in order, whose unit vectors extend span(vectors)
    to K^n."""
    span = list(vectors)
    out = []
    for i in range(n):
        e = unit_vector(field, n, i)
        if not in_span(e, span, field):
            span.append(e)
            out.append(i)
    return out


def coordinates(v: Vector, basis: Sequence[Vector], field: Field) -> Optional[Vector]:
    """Coefficients x with sum x_i basis_i = v, or None if v is outside."""
    cols = tuple(zip(*basis))  # matrix whose columns are the basis vectors
    return solve(cols, v, field)


def coordinate_map(basis: Sequence[Vector], field: Field):
    """``coordinates(., basis)`` on raw values: a function from the raw
    values of a vector to the raw values of its coordinates, or None.

    The basis is reduced once; each call replays on the vector the row
    operations ``coordinates`` applies to its right-hand side, so every
    value is the one ``coordinates`` gives, bit for bit over ApproxReal.
    """
    m = [list(col) for col in zip(*(raw_values(field, b) for b in basis))]
    log = []
    pivots = _reduce(m, field, log)
    mul, sub, is_zero = field._mul, field._sub, field._is_zero
    zero, rank = field.zero().value, len(pivots)

    def coords(x) -> Optional[list]:
        a = list(x)
        for r, pivot, inv, steps in log:
            a[r], a[pivot] = a[pivot], a[r]
            y = a[r] = mul(inv, a[r])
            for i, f in steps:
                a[i] = sub(a[i], mul(f, y))
        if not all(is_zero(t) for t in a[rank:]):
            return None
        out = [zero] * len(basis)
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
    one, zero = field.one().value, field.zero().value
    for lead in range(n):
        prefix = (zero,) * lead + (one,)
        for tail in product(elems, repeat=n - lead - 1):
            yield prefix + tail
