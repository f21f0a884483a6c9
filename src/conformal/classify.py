"""Classification of geometries: invariants, atlases, the 3x3 table of
plane geometries, and cycle equivalence.

A geometry is determined by its form up to a scalar together with the
norm classes of P and L, so the class records the form's invariant
(``quadform.form_invariant``: signature, determinant class, or Arf
class) and the pair (Q(P), Q(L)), normalized under rescaling by the
non-residue by the one rule ``_normal``.  ``classify``, the atlas, the
partners and cycle equivalence all go through it.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field as dc_field
from typing import Optional

from .fields import (Field, SquareClass, UnsupportedFieldError,
                     canonical_nonresidue)
from . import linalg
from .quadform import (QuadraticForm, _Extender, _diagonal_raw,
                       _off_radical, _radical, char2_arf_rep, form_invariant,
                       invariant_kind, invariant_witt_index, isometric,
                       rescaled, InvalidInputError)
from .geometry import Geometry, pointspace

QUADRATICALLY_CLOSED = "qclosed"

_CK_NAMES = {
    (SquareClass.NON_RESIDUE, SquareClass.NON_RESIDUE): "elliptic",
    (SquareClass.NON_RESIDUE, SquareClass.ZERO): "parabolic",
    (SquareClass.NON_RESIDUE, SquareClass.UNIT): "hyperbolic",
    (SquareClass.ZERO, SquareClass.NON_RESIDUE): "dual parabolic",
    (SquareClass.ZERO, SquareClass.ZERO): "Laguerre/Galilei",
    (SquareClass.ZERO, SquareClass.UNIT): "dual Minkowski",
    (SquareClass.UNIT, SquareClass.NON_RESIDUE): "dual hyperbolic",
    (SquareClass.UNIT, SquareClass.ZERO): "Minkowski",
    (SquareClass.UNIT, SquareClass.UNIT): "anti-de Sitter",
}

# a norm class as labels, JSON and the table headers write it, by the
# kind of the form invariant (-1 over the reals, e over F_q)
_SYMBOLS = {kind: {SquareClass.ZERO: "0", SquareClass.UNIT: "1",
                   SquareClass.NON_RESIDUE: "-1" if kind == "sig" else "e"}
            for kind in ("sig", "det", "arf", "unique")}
# and read back: a written symbol to its norm class, over every kind
CLASS_OF_SYMBOL = {s: c for symbols in _SYMBOLS.values()
                   for c, s in symbols.items()}


def _flip(c: SquareClass) -> SquareClass:
    return SquareClass.NON_RESIDUE * c


@functools.cache  # _normal reads it for every balanced or even-dim class
def _canonical_pair(qp: SquareClass, ql: SquareClass) -> tuple:
    """The smaller of (Q(P), Q(L)) and its image under rescaling by a
    non-square."""
    return min((qp, ql), (_flip(qp), _flip(ql)),
               key=lambda pair: (pair[0].value, pair[1].value))


@dataclass(frozen=True)
class GeometryClass:
    """Isomorphism class of a geometry.

    ``form_invariant`` is ``quadform.form_invariant`` normalized by
    ``classify``, or ("unique",) for a quadratically closed field.
    """
    field_token: str
    geom_dim: int
    form_invariant: tuple
    qp: SquareClass
    ql: SquareClass
    name: Optional[str] = None
    field: Optional[Field] = dc_field(default=None, compare=False, repr=False)

    def sort_key(self):
        return (self.field_token, self.geom_dim, self.form_invariant,
                self.qp.value, self.ql.value)

    def symbol(self, c: SquareClass) -> str:
        """How the norm class c is written in labels and JSON."""
        return _SYMBOLS[self.form_invariant[0]][c]

    def label(self) -> str:
        base = (f"{self.field_token} d={self.geom_dim} {self.form_invariant} "
                f"qP={self.symbol(self.qp)} qL={self.symbol(self.ql)}")
        return f"{base} [{self.name}]" if self.name else base


def _normal(n: int, inv: tuple, qp: SquareClass, ql: SquareClass) -> tuple:
    """The rescaling rule: (inv, qp, ql) of a form of dimension n
    normalized under rescaling by the non-residue.  The larger of the
    form invariant and its rescaled image is kept (k >= l; "UNIT" >
    "NON_RESIDUE"), the norm classes flipping with it; when rescaling
    fixes the invariant the pair is canonicalized (a no-op on the
    classes 0 and 1 of characteristic 2)."""
    alt = rescaled(inv, n)
    if alt == inv:
        return (inv,) + _canonical_pair(qp, ql)
    if alt > inv:
        return alt, _flip(qp), _flip(ql)
    return inv, qp, ql


def _class(token: str, d: int, inv: tuple, qp: SquareClass, ql: SquareClass,
           field: Optional[Field]) -> GeometryClass:
    """The class record; the table names the planes of signature (3, 2)
    and over F_q."""
    name = _CK_NAMES.get((qp, ql)) \
        if d == 2 and inv in (("sig", 3, 2), ("det", "UNIT")) else None
    return GeometryClass(token, d, inv, qp, ql, name, field)


def _uncounted(inv: tuple, qp: SquareClass, ql: SquareClass) -> bool:
    """The two admissible classes the stated counts leave out: a
    balanced signature with P and L both isotropic, and Arf class 1."""
    if inv[0] == "sig":
        return inv[1] == inv[2] and qp is ql is SquareClass.ZERO
    return inv == ("arf", 1)


def classify(g: Geometry) -> GeometryClass:
    """The invariant tuple of a geometry: its form invariant and the
    norm classes of P and L, normalized by the rescaling rule
    ``_normal``.  The atlas (``enumerate_classes``) is the set of these
    normal forms over the admissible invariants, less the two classes
    ``_uncounted`` names, which ``classify`` can return."""
    field, form = g.field, g.form
    cls_of = field._square_class
    return _class(field.token(), g.n,
                  *_normal(form.dim, form_invariant(form),
                           cls_of(form.eval_raw(g._p_raw)),
                           cls_of(form.eval_raw(g._l_raw))), field)


def enumerate_classes(field, geom_dim: int):
    """The duplicate-free atlas of non-degenerate geometry classes: the
    (invariant, Q(P), Q(L)) that are their own normal form (``_normal``)
    over the invariants of Witt index at least 2, less the two classes
    ``_uncounted`` names.

    ``field`` is a field object or the token "qclosed".  Counts:
    4 for a quadratically closed field; 9d/2 (d even) or the stated
    (9d-1)/2 (d odd) over the reals; 9 / 5 / 10 over F_q for d = 2 / 1 /
    odd d >= 3; 4 in characteristic 2 (d = 3).
    """
    d = geom_dim
    if d < 1:
        raise UnsupportedFieldError("geometries need dimension >= 1")
    if field == QUADRATICALLY_CLOSED:
        out = [_class(QUADRATICALLY_CLOSED, d, ("unique",), qp, ql, None)
               for qp in (SquareClass.ZERO, SquareClass.UNIT)
               for ql in (SquareClass.ZERO, SquareClass.UNIT)]
        return tuple(sorted(out, key=GeometryClass.sort_key))
    kind, n = invariant_kind(field), d + 3
    if kind == "arf" and d != 3:
        raise UnsupportedFieldError(
            "characteristic-2 enumeration is implemented for geometry "
            "dimension 3 (even vector dimension 6)")
    invariants = {"sig": [("sig", k, n - k) for k in range(n + 1)],
                  "det": [("det", "UNIT"), ("det", "NON_RESIDUE")],
                  "arf": [("arf", 0), ("arf", 1)]}[kind]
    # the norm classes; in characteristic 2 every unit is a square
    classes = tuple(SquareClass)[:2 if kind == "arf" else 3]
    token = field.token()
    out = [_class(token, d, inv, qp, ql, field)
           for inv in invariants if invariant_witt_index(field, n, inv) >= 2
           for qp in classes for ql in classes
           if _normal(n, inv, qp, ql) == (inv, qp, ql)
           and not _uncounted(inv, qp, ql)]
    return tuple(sorted(out, key=GeometryClass.sort_key))


def ck_table(field):
    """The 3x3 table of plane geometries; rows by Q(P), columns by Q(L),
    each in the order (-1 or e, 0, +1)."""
    kind = invariant_kind(field)
    if kind == "arf":
        raise UnsupportedFieldError(
            "the table is stated for the reals and odd finite fields")
    order = (SquareClass.NON_RESIDUE, SquareClass.ZERO, SquareClass.UNIT)
    headers = tuple(_SYMBOLS[kind][c] for c in order)
    rows = tuple(tuple(_CK_NAMES[(qp, ql)] for ql in order) for qp in order)
    return headers, rows


# ---------------------------------------------------------------------------
# Canonical representatives
# ---------------------------------------------------------------------------

@functools.cache
def canonical_form(field: Field, geom_dim: int, form_invariant) -> QuadraticForm:
    """The form of a class, one object per (field, geom_dim,
    form_invariant): the radical and Gram matrix kept on it serve every
    class that shares it."""
    dim = geom_dim + 3
    kind = form_invariant[0]
    if kind == "sig":
        _, k, l = form_invariant
        return QuadraticForm.diagonal(field, [1] * k + [-1] * l)
    if kind == "det":
        det = form_invariant[1]
        e = canonical_nonresidue(field)
        entries = [field.one()] * (dim - 2) + [field.scalar(-1)]
        entries.append(field.scalar(-1) if det == "UNIT" else -e)
        return QuadraticForm.diagonal(field, entries)
    if kind == "arf":
        if form_invariant[1] == 0:
            return QuadraticForm.symplectic(field, dim // 2)
        plane = QuadraticForm(field, 2, {(0, 0): 1, (0, 1): 1,
                                         (1, 1): char2_arf_rep(field)})
        return QuadraticForm.symplectic(field, dim // 2 - 1).direct_sum(plane)
    raise UnsupportedFieldError(f"canonical forms over {field}")


def _candidates(field: Field, dim: int):
    """The raw candidate vectors of the representative search: the
    projective points over F_q, the nonzero vectors of {0, 1, -1}^dim
    over Q (lazily: a search stops long before the last)."""
    if field.is_finite:
        return linalg.projective_points(field, dim)
    return (v for v in itertools.product((0, 1, -1), repeat=dim) if any(v))


def representative_geometry(cls: GeometryClass) -> Geometry:
    """A concrete geometry in the class: the canonical form, P the first
    candidate of norm class Q(P), L the first candidate of P^perp of norm
    class Q(L) other than +-P (over F_q a walk of P^perp alone).

    Every such pair has the class's form invariant and norm classes, so
    ``classify`` answers the same for all of them: it runs once, on the
    pair found, and a class it does not return has no representative."""
    if cls.field is None:
        raise UnsupportedFieldError(
            "no concrete representatives over a symbolic field")
    field = cls.field
    form = canonical_form(field, cls.geom_dim, cls.form_invariant)
    q, cls_of = form.eval_raw, field._square_class
    sq = lambda v: cls_of(q(v))
    p_rep = next((v for v in _candidates(field, form.dim)
                  if sq(v) is cls.qp), None)
    assert p_rep is not None, "no representative for Q(P)"
    if field.is_finite:
        perp = form.perp_points(p_rep)
    else:
        # B(P, .) times the table's denominator, on the integers the
        # candidates are, taken once
        row = form._int_gram_row(p_rep)
        perp = (v for v in _candidates(field, form.dim)
                if not sum(map(operator.mul, row, v)))
    # +-P are the only candidates dependent on P
    minus_p = tuple(field._neg(a) for a in p_rep)
    l_rep = next((v for v in perp
                  if sq(v) is cls.ql and v != p_rep and v != minus_p), None)
    if l_rep is not None:
        g = Geometry(form, p_rep, l_rep)
        got = classify(g)
        if (got.qp, got.ql) == (cls.qp, cls.ql):
            return g
    raise InvalidInputError(f"no representative pair found for {cls}")


# ---------------------------------------------------------------------------
# Cycle equivalence
# ---------------------------------------------------------------------------

def _scaling_options(field: Field):
    if invariant_kind(field) == "arf":
        raise UnsupportedFieldError("cycle equivalence needs char != 2")
    return (field.one(), canonical_nonresidue(field))


def _pointspace_class(g: Geometry) -> tuple:
    """The class of (P^perp, Q^P, L) up to the overall scalar, computed
    on the first call and kept on the geometry: the dimension of the
    radical of Q^P, whether L's coordinates lie in it (exactly when L is
    orthogonal to all of P^perp), and the normal form (``_normal``) of
    the core (Q^P off its radical) with the class of Q^P(L) = Q(L)."""
    if g._ps_class is None:
        field, form = g.field, g.form
        basis = form.perp_raw([g._p_raw])
        q_p = form.restrict_raw(basis)
        rad = _radical(q_p)
        core = _off_radical(q_p, rad) if rad else q_p
        l_in_rad = bool(rad) and all(
            field._is_zero(form.b_raw(g._l_raw, b)) for b in basis)
        ql = field._square_class(form.eval_raw(g._l_raw))
        g._ps_class = (len(rad), l_in_rad) + _normal(
            core.dim, form_invariant(core), SquareClass.ZERO, ql)
    return g._ps_class


def cycle_equivalent(g1: Geometry, g2: Geometry) -> bool:
    """Are the pointspace tuples (P^perp, Q^P, L) isomorphic up to the
    overall scalar a geometry is defined modulo?"""
    if g1.field is not g2.field:
        raise InvalidInputError("cycle equivalence needs one field")
    if g1.form.dim != g2.form.dim:
        raise InvalidInputError("cycle equivalence needs equal dimensions")
    if invariant_kind(g1.field) == "arf":
        raise UnsupportedFieldError("cycle equivalence needs char != 2")
    return _pointspace_class(g1) == _pointspace_class(g2)


def cycle_equivalence_partners(cls: GeometryClass):
    """Classes cycle equivalent to ``cls`` in the plane atlas.

    Returns [] when the geometry determines its oriented-cycle structure
    uniquely, [partner] for the non-trivially paired classes, and [cls]
    itself when Q(L) = 0 (the two non-isomorphic models of one class).
    """
    if cls.geom_dim != 2:
        raise UnsupportedFieldError("partners are computed for the plane atlas")
    kind = cls.form_invariant[0]
    if kind == "sig":
        paired = cls.qp is SquareClass.UNIT
    elif kind == "det":
        paired = cls.qp is not SquareClass.ZERO
    else:
        raise UnsupportedFieldError(
            "partners are stated for the reals and odd finite fields")
    if not paired:
        return ()
    if cls.ql is SquareClass.ZERO:
        return (cls,)
    return (_class(cls.field_token, cls.geom_dim, cls.form_invariant,
                   cls.qp, _flip(cls.ql), cls.field),)


def second_model(g: Geometry) -> Geometry:
    """The other extension of g's pointspace: same Q^P, the norm of P
    multiplied by the non-residue (sign-flipped over the rationals).

    Cycle equivalent to g by construction; for Q(L) != 0 it lands in the
    partner class, for Q(L) = 0 in the same class (the two models)."""
    if g.field.char == 2:
        raise UnsupportedFieldError("model doubling is stated for char != 2")
    if g.qp().is_zero():
        raise InvalidInputError("the extension of an isotropic P is unique")
    ps = pointspace(g)
    e = _scaling_options(g.field)[1]
    form2 = QuadraticForm.diagonal(g.field, [e * g.qp()]).direct_sum(ps.form)
    p2 = linalg.unit_vector(g.field, g.form.dim, 0)
    return Geometry(form2, p2, (g.field.raw_zero,) + ps._l_raw)


# ---------------------------------------------------------------------------
# Explicit pointspace isometries (the finite-field certificate)
# ---------------------------------------------------------------------------

def _canonical_diag_basis(form: QuadraticForm):
    """Orthogonal basis (raw tuples) with Q values [1,...,1,delta],
    delta in {1,e}; odd finite fields, non-degenerate forms."""
    field = form.field
    mul, one = field._mul, field.raw_one
    e = field._nonresidue()
    basis = []
    entries = []
    for a, b in zip(*_diagonal_raw(form)):
        target = one if field._square_class(a) is SquareClass.UNIT else e
        inv = field._inv(field._sqrt(field._div(a, target)))
        basis.append(tuple([mul(inv, x) for x in b]))
        entries.append(target)
    # convert non-residue pairs [e,e] into [1,1]
    while entries.count(e) >= 2:
        i = entries.index(e)
        j = entries.index(e, i + 1)
        pair = (basis[i], basis[j])
        cols = tuple(zip(*pair))
        sub = form.restrict_raw(pair)
        w_co = next((co for co in linalg.all_vectors(field, 2)
                     if sub.eval_raw(co) == one), None)
        assert w_co is not None  # every value is a sum of two squares
        kern = sub.perp_raw([w_co])
        assert len(kern) == 1
        w2 = linalg.mat_vec_raw(cols, kern[0], field)
        s = field._sqrt(form.eval_raw(w2))
        assert s is not None  # Q(w2) ~ det [e,e] ~ 1
        inv = field._inv(s)
        basis[i] = linalg.mat_vec_raw(cols, w_co, field)
        basis[j] = tuple([mul(inv, x) for x in w2])
        entries[i] = entries[j] = one
    order = sorted(range(len(entries)),
                   key=lambda k: 0 if entries[k] == one else 1)
    return [basis[k] for k in order], [entries[k] for k in order]


def _isometry_raw(q1: QuadraticForm, q2: QuadraticForm) -> tuple:
    """``isometry_between`` on raw rows: T = B2 B1^-1 for the canonical
    diagonal bases B1, B2 as columns."""
    if not isometric(q1, q2):
        raise InvalidInputError("the forms are not isometric")
    b1, e1 = _canonical_diag_basis(q1)
    b2, e2 = _canonical_diag_basis(q2)
    assert e1 == e2
    field = q1.field
    inv1 = linalg.inverse_raw(tuple(zip(*b1)), field)
    return linalg.mat_mul_raw(tuple(zip(*b2)), inv1, field)


def isometry_between(q1: QuadraticForm, q2: QuadraticForm):
    """An explicit matrix T with Q2(T v) = Q1(v); odd finite fields."""
    return linalg.wrap_rows(q1.field, _isometry_raw(q1, q2))


def pointspace_isometry(g1: Geometry, g2: Geometry):
    """Explicit certificate of cycle equivalence for anisotropic P over
    an odd finite field: a scalar lam and a matrix h with
    Q2^P(h v) = lam Q1^P(v) and h(L1) parallel to L2; None if there is
    no such pair."""
    if not (invariant_kind(g1.field) == "det" and g1.field is g2.field):
        raise UnsupportedFieldError(
            "the certificate search runs over odd finite fields")
    if g1.qp().is_zero() or g2.qp().is_zero():
        raise UnsupportedFieldError(
            "the certificate search needs anisotropic P")
    ps1, ps2 = pointspace(g1), pointspace(g2)
    field = g1.field
    l1_raw, l2_raw = ps1._l_raw, ps2._l_raw
    ql2, cls_of = ps2.form.eval_raw(l2_raw), field._square_class
    for lam in _scaling_options(field):
        f1 = ps1.form.scaled(lam)
        if not isometric(f1, ps2.form):
            continue
        if cls_of(f1.eval_raw(l1_raw)) is not cls_of(ql2):
            continue
        t = _isometry_raw(f1, ps2.form)
        h0 = linalg.mat_vec_raw(t, l1_raw, field)
        if not field._is_zero(ql2):
            s = field._sqrt(field._div(ql2, ps2.form.eval_raw(h0)))
            assert s is not None
            h0 = tuple([field._mul(s, x) for x in h0])
        adjust = _Extender(ps2.form).extend([h0], [l2_raw])
        h = linalg.mat_mul_raw(adjust, t, field)
        image = linalg.mat_vec_raw(h, l1_raw, field)
        assert linalg.rank_raw([l2_raw, image], field) == 1
        return lam, linalg.wrap_rows(field, h)
    return None
