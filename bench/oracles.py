"""Oracles in plain integers, independent of the library's arithmetic.

Field elements are the library's raw values: residues 0..p-1 for F_p,
and for F_4 the integers 0..3 encoding a*t + b as 2a + b with
t^2 = t + 1.  Nothing here calls ``conformal``: forms arrive as
``((i, j), value)`` coefficient lists, vectors as tuples of ints.
"""

from __future__ import annotations

import itertools
import math


class PlainField:
    """F_p (p an odd prime) or F_4, on raw integer values."""

    def __init__(self, q: int):
        self.q = q
        if q == 4:
            self._mul = [[_gf4_mul(a, b) for b in range(4)] for a in range(4)]

    def add(self, a, b):
        return a ^ b if self.q == 4 else (a + b) % self.q

    def mul(self, a, b):
        return self._mul[a][b] if self.q == 4 else (a * b) % self.q

    def neg(self, a):
        return a if self.q == 4 else (-a) % self.q

    def inv(self, a):
        if self.q == 4:
            return next(b for b in range(1, 4) if self._mul[a][b] == 1)
        return pow(a, self.q - 2, self.q)

    def is_square(self, a) -> bool:
        """Nonzero squares (Euler's criterion); every element of F_4."""
        if self.q == 4:
            return True
        return a % self.q != 0 and pow(a, (self.q - 1) // 2, self.q) == 1

    def projective_points(self, n):
        """Canonical representatives: first nonzero coordinate 1."""
        for lead in range(n):
            prefix = (0,) * lead + (1,)
            for tail in itertools.product(range(self.q), repeat=n - lead - 1):
                yield prefix + tail


def _gf4_mul(a, b):
    a1, a0 = a >> 1, a & 1
    b1, b0 = b >> 1, b & 1
    hi = a1 & b1
    t = (a1 & b0) ^ (a0 & b1) ^ hi  # t^2 = t + 1
    c = (a0 & b0) ^ hi
    return (t << 1) | c


class PlainForm:
    """Q(v) = sum c_ij v_i v_j over a PlainField, with its Gram matrix."""

    def __init__(self, field: PlainField, dim: int, coeffs):
        self.f = field
        self.dim = dim
        self.coeffs = tuple(((i, j), c) for (i, j), c in coeffs)
        gram = [[0] * dim for _ in range(dim)]
        for (i, j), c in self.coeffs:
            if i == j:
                gram[i][i] = field.add(gram[i][i], field.add(c, c))
            else:
                gram[i][j] = field.add(gram[i][j], c)
                gram[j][i] = field.add(gram[j][i], c)
        self.gram = gram

    def q(self, v):
        f = self.f
        total = 0
        for (i, j), c in self.coeffs:
            total = f.add(total, f.mul(c, f.mul(v[i], v[j])))
        return total

    def gram_row(self, u):
        """The linear form w -> B(u, w), as a coefficient vector."""
        f = self.f
        out = []
        for j in range(self.dim):
            acc = 0
            for i in range(self.dim):
                if u[i] and self.gram[i][j]:
                    acc = f.add(acc, f.mul(u[i], self.gram[i][j]))
            out.append(acc)
        return tuple(out)

    def b(self, u, v):
        return dot(self.f, self.gram_row(u), v)

    def quadric(self):
        return [v for v in self.f.projective_points(self.dim)
                if self.q(v) == 0]


def dot(f: PlainField, a, b):
    total = 0
    for x, y in zip(a, b):
        if x and y:
            total = f.add(total, f.mul(x, y))
    return total


def rref(f: PlainField, rows, ncols):
    """Reduced row echelon form: (rows, pivot columns)."""
    m = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = f.inv(m[r][c])
        m[r] = [f.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                k = m[i][c]
                m[i] = [f.add(x, f.neg(f.mul(k, y))) for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def rank(f: PlainField, rows) -> int:
    return len(rref(f, rows, len(rows[0]))[1])


def kernel(f: PlainField, rows, ncols):
    """Basis of {v : rows . v = 0}."""
    m, pivots = rref(f, rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for row, pc in enumerate(pivots):
            v[pc] = f.neg(m[row][fc])
        basis.append(tuple(v))
    return basis


def det(f: PlainField, rows) -> int:
    m = [list(r) for r in rows]
    n = len(m)
    out = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = f.neg(out)
        out = f.mul(out, m[c][c])
        inv = f.inv(m[c][c])
        for i in range(c + 1, n):
            if m[i][c]:
                k = f.mul(m[i][c], inv)
                m[i] = [f.add(x, f.neg(f.mul(k, y))) for x, y in zip(m[i], m[c])]
    return out


def witt_sign(form: PlainForm) -> int:
    """epsilon = +1 for a hyperbolic even-dimensional form, -1 for an
    elliptic one.  Odd q: (-1)^m disc is a square, disc = det(Gram)/2^n.
    F_4: the Arf invariant on the standard symplectic pairs (2i, 2i+1)
    lies in {x^2 + x} = {0, 1}."""
    f = form.f
    m = form.dim // 2
    if f.q == 4:
        coeff = dict(form.coeffs)
        for (i, j) in coeff:
            if i != j and not (i % 2 == 0 and j == i + 1):
                raise ValueError("F_4 oracle needs symplectic pairs (2i, 2i+1)")
        arf = 0
        for i in range(m):
            if coeff.get((2 * i, 2 * i + 1)) != 1:
                raise ValueError("F_4 oracle needs B(e_2i, e_2i+1) = 1")
            arf = f.add(arf, f.mul(coeff.get((2 * i, 2 * i), 0),
                                   coeff.get((2 * i + 1, 2 * i + 1), 0)))
        return 1 if arf in (0, 1) else -1
    disc = f.mul(det(f, form.gram), f.inv(pow(2, form.dim, f.q)))
    sign = f.q - 1 if m % 2 else 1
    return 1 if f.is_square(f.mul(sign, disc)) else -1


def quadric_count(q: int, dim: int, eps: int) -> int:
    """Projective points of a non-degenerate quadric in P^{dim-1}(F_q)."""
    if dim % 2:
        m = (dim - 1) // 2
        return (q ** (2 * m) - 1) // (q - 1)
    m = dim // 2
    return (q ** (m - 1) + eps) * (q ** m - eps) // (q - 1)


def rational_atlas_count(d: int) -> int:
    """9d/2 for even d, (9d-1)/2 for odd d."""
    return 9 * d // 2 if d % 2 == 0 else (9 * d - 1) // 2


# the 3x3 table of plane geometries: rows Q(P), columns Q(L), each in the
# order (-1 or e, 0, +1)
CK_TABLE = (("elliptic", "parabolic", "hyperbolic"),
            ("dual parabolic", "Laguerre/Galilei", "dual Minkowski"),
            ("dual hyperbolic", "Minkowski", "anti-de Sitter"))


SIGNS = ("-1", "0", "1")


def plane_partners(qp: str, ql: str):
    """Cycle-equivalence partners of the rational plane class (qP, qL),
    as (qP, qL, name) rows: none unless Q(P) > 0, the class itself when
    Q(L) = 0, otherwise the class with Q(L) negated."""
    if qp != "1":
        return []
    partner = ql if ql == "0" else str(-int(ql))
    return [(qp, partner, CK_TABLE[2][SIGNS.index(partner)])]


def point_lift(model: str, coords):
    """The lift of a model point: (c, 1, 0) on the sphere and the
    hyperboloid, (c, -|c|^2, 1, 0) in the plane."""
    coords = tuple(coords)
    if model == "parabolic":
        return coords + (-sum(x * x for x in coords), 1.0, 0.0)
    return coords + (1.0, 0.0)


def point_separation(model: str, d: float) -> float:
    """Closed forms: cos d - 1, 1 - cosh d, -d^2/2."""
    if model == "elliptic":
        return math.cos(d) - 1.0
    if model == "hyperbolic":
        return 1.0 - math.cosh(d)
    if model == "parabolic":
        return -0.5 * d * d
    raise ValueError(model)


def cycle_separation(theta: float) -> float:
    return math.cos(theta) - 1.0
