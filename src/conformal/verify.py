"""Brute-force verification suites.

Each suite checks one family of structural facts by independent
enumeration or sampling and returns a :class:`Report`.  The orbit-atlas
suite certifies that the class invariants cut the orthogonal (P, L)
pairs into single isometry orbits, by explicit chains of reflections: a
desk-checkable isometry, not a counting argument.  The atlas keeps
no field tables, elimination or moves of its own.  It runs on raw
values mod p with the library's form methods (``eval_raw``, ``b_raw``,
``reflect_raw``), its mirror search (``quadform.mirrors``, which
``extend_isometry`` also builds its matrices from) and the square
classes and roots of ``fields``.  The certificate factors through P.
Each P's own mirrors M are checked to send it onto the target t of its
norm class.  Each projective L in t^perp is reduced once, by mirrors
fixing t, to the target of its class.  M is an isometry, so it maps
P^perp onto t^perp and keeps Q; a pair (P, L) is then M^-1 of the pair
(t, ML), and a class holds |{P of its Q(P) class}| times
|{L in t^perp of its Q(L) class}| pairs.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field as dc_field
from typing import Callable, Dict, List, Optional

from .fields import (CharTwo, Field, PrimeField, Rational, Scalar,
                     SquareClass, UnsupportedFieldError,
                     canonical_nonresidue)
from . import linalg
from .quadform import (InvalidInputError, QuadraticForm, _couples_of,
                       _gob_raw, _radical, arf_invariant,
                       is_nondegenerate_form, IsometrySampler, mirrors,
                       witt_index, witt_index_bruteforce)
from importlib import import_module

from . import geometry as geo
from .geometry import Geometry, ProjPoint
from . import metric as met
from . import models as mod

# the package re-exports a `classify` function, which shadows the
# submodule as a package attribute; resolve the module itself
cla = import_module(__package__ + ".classify")


@dataclass
class Report:
    suite: str
    passed: bool
    details: List[str] = dc_field(default_factory=list)
    counterexample: Optional[str] = None

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        out = f"[{status}] {self.suite}"
        if self.counterexample:
            out += f"\n  counterexample: {self.counterexample}"
        return out


def _fail(report: Report, message: str) -> Report:
    report.passed = False
    if report.counterexample is None:
        report.counterexample = message
    return report


# the suites that take a field: their default primes and their cap
FIELD_SUITES = {"orbit-atlas": ((3, 5), geo.MAX_ENUM_Q),
                "gamma-orders": ((3, 5, 7, 11), met.MAX_METRIC_Q),
                "distance-additivity": ((3, 5, 7), met.MAX_METRIC_Q)}


def _primes(suite, field):
    """The primes a suite that takes a field runs over: its defaults, or
    the requested field alone, which must be an odd F_p within the
    suite's cap."""
    default, cap = FIELD_SUITES[suite]
    if field is None:
        return default
    if not (isinstance(field, Field) and field.is_finite
            and field.char != 2 and field.order == field.char):
        raise UnsupportedFieldError(f"{field} is not an odd prime field")
    if field.p > cap:
        raise geo.EnumerationUnsupportedError(
            f"field size {field.p} exceeds the cap {cap}")
    return (field.p,)


def check_field(names, field) -> None:
    """Refuse ``field`` before any of the named suites runs: raise what
    the first of them that takes a field would raise, or, when none of
    them takes one, that they take none."""
    takers = [name for name in names if name in FIELD_SUITES]
    if field is not None and not takers:
        raise UnsupportedFieldError(f"suite {', '.join(names)} takes no field")
    for name in takers:
        _primes(name, field)


# ---------------------------------------------------------------------------
# polarization
# ---------------------------------------------------------------------------

def _form_battery(field):
    dims = [2, 3, 4, 5]
    out = []
    e = 2 if field.char == 2 else None
    for d in dims:
        entries = [1, -1] * (d // 2) + [1] * (d % 2)
        if field.char != 2:
            out.append(QuadraticForm.diagonal(field, entries[:d]))
        coeffs = {(i, i + 1): field.one() for i in range(0, d - 1, 2)}
        coeffs[(0, 0)] = field.one()
        out.append(QuadraticForm(field, d, coeffs))
    return out


def suite_polarization(seed: int = 0, **_) -> Report:
    """B(u,v) = Q(u+v) - Q(u) - Q(v), homogeneity, and the half form.

    A check of the API boundary itself: the public ``__call__``,
    ``b_full`` and ``b_half`` on vectors of Scalars, summed and scaled
    with Scalar arithmetic."""
    rep = Report("polarization", True)
    rng = random.Random(seed)
    fields = [Rational(), PrimeField(3), PrimeField(5), PrimeField(7),
              CharTwo(2), CharTwo(4)]
    for field in fields:
        if field.is_finite:
            pool = list(field.elements())
            draw = lambda: pool[rng.randrange(len(pool))]
        else:
            draw = lambda: field.scalar(rng.randint(-9, 9)) / \
                field.scalar(rng.randint(1, 5))
        for form in _form_battery(field):
            for _ in range(200):
                u = tuple(draw() for _ in range(form.dim))
                v = tuple(draw() for _ in range(form.dim))
                lhs = form.b_full(u, v)
                rhs = form(tuple(a + b for a, b in zip(u, v))) \
                    - form(u) - form(v)
                if lhs != rhs:
                    return _fail(rep, f"{field} {form!r} u={u} v={v}")
                lam = draw()
                if form(tuple(lam * a for a in u)) != lam * lam * form(u):
                    return _fail(rep, f"homogeneity {field} {form!r}")
                if field.char != 2:
                    if form.b_half(u, u) != form(u):
                        return _fail(rep, f"half form {field} {form!r}")
        rep.details.append(f"{field}: 200 random pairs per form")
    return rep


# ---------------------------------------------------------------------------
# gen-ortho-basis
# ---------------------------------------------------------------------------

def _check_gob(form, vectors, couples, s):
    """Check the raw basis and couples ``quadform._gob_raw`` builds
    from the raw set s; the error, or None."""
    n = form.dim
    if len(vectors) != n:
        return "not a basis (wrong size)"
    field = form.field
    if linalg.rank_raw(vectors, field) < n:
        return "not a basis (dependent)"
    coupled = {}
    for i, j in couples:
        coupled[i] = j
        coupled[j] = i
    b, is_zero = form.b_raw, field._is_zero
    for i in range(n):
        for j in range(i + 1, n):
            bij = b(vectors[i], vectors[j])
            if coupled.get(i) == j:
                if not field._eq(bij, field.raw_one):
                    return f"couple ({i},{j}) pairing {Scalar(bij, field)!r}"
                if not is_zero(b(vectors[i], vectors[i])):
                    return f"couple member {i} not symplectic"
                if not is_zero(b(vectors[j], vectors[j])):
                    return f"couple member {j} not symplectic"
            elif not is_zero(bij):
                return f"non-couple pair ({i},{j}) not orthogonal"
    kept = set(vectors)
    if any(v not in kept for v in s):  # s holds raw tuples
        return "input set not contained in the output"
    return None


def _gen_ortho_forms():
    f3 = PrimeField(3)
    forms = [QuadraticForm.diagonal(f3, e)
             for e in ([1, 1], [1, -1], [1, 2], [1, 1, 1], [1, 1, -1],
                       [1, 2, -1], [1, 1, 1, -1], [1, 1, -1, -1],
                       [1, 2, 1, 2])]
    forms.append(QuadraticForm.symplectic(f3, 2))
    for field in (CharTwo(2), CharTwo(4)):
        plane = QuadraticForm(field, 2, {(0, 0): 1, (0, 1): 1, (1, 1): 1})
        forms.append(plane)
        forms.append(QuadraticForm.symplectic(field, 1))
        forms.append(QuadraticForm.symplectic(field, 2))
        forms.append(QuadraticForm.symplectic(field, 1).direct_sum(plane))
    return forms


def suite_gen_ortho_basis(**_) -> Report:
    """Exhaustive extension checks for all valid sets of size <= 2 in
    dimension <= 4 over F_3, plus the F_2/F_4 couple cases, on the raw
    builder ``quadform._gob_raw`` (``generalized_orthogonal_basis`` is
    its one wrap)."""
    rep = Report("gen-ortho-basis", True)
    total = 0
    for form in _gen_ortho_forms():
        if _radical(form):
            continue
        field = form.field
        vectors = [x for x in linalg.all_vectors(field, form.dim) if any(x)]
        candidates = [()] + [(v,) for v in vectors]
        if len(vectors) <= 90:  # all pairs for the desk-scale spaces
            candidates += itertools.combinations(vectors, 2)
        for s in candidates:
            try:
                _couples_of(form, s)
            except InvalidInputError:
                continue
            err = _check_gob(form, *_gob_raw(form, s), s)
            if err:
                return _fail(rep, f"{form!r} S={linalg.wrap_rows(field, s)}: "
                                  f"{err}")
            total += 1
    rep.details.append(f"{total} extensions verified")
    return rep


# ---------------------------------------------------------------------------
# witt-oracle
# ---------------------------------------------------------------------------

def suite_witt_oracle(**_) -> Report:
    """Closed-form Witt index against the exhaustive subspace search for
    all diagonal forms (entries up to squares) of dim <= 5, q in {3,5}."""
    rep = Report("witt-oracle", True)
    checked = 0
    for p in (3, 5):
        field = PrimeField(p)
        e = canonical_nonresidue(field)
        for dim in range(2, 6):
            for pattern in itertools.product((field.one(), e), repeat=dim):
                form = QuadraticForm.diagonal(field, pattern)
                fast = witt_index(form)
                slow = witt_index_bruteforce(form)
                if fast != slow:
                    return _fail(rep, f"F{p} {form!r}: {fast} != {slow}")
                checked += 1
    # entries only matter through their square class
    f5 = PrimeField(5)
    for entries in ([2, 3, 1, 4], [4, 4, 4], [2, 2, 3, 3, 1]):
        form = QuadraticForm.diagonal(f5, entries)
        if witt_index(form) != witt_index_bruteforce(form):
            return _fail(rep, f"F5 {form!r} square-scaled mismatch")
        checked += 1
    rep.details.append(f"{checked} forms cross-validated")
    return rep


# ---------------------------------------------------------------------------
# orbit-atlas
# ---------------------------------------------------------------------------

def _on_line(u, t, field):
    """Is the raw vector u a nonzero multiple of the normalised point t?"""
    c, mul = u[t.index(field.raw_one)], field._mul
    return not field._is_zero(c) and all(mul(c, a) == b
                                         for a, b in zip(t, u))


def _norm_match(form, v, target_q):
    """A scalar multiple of the raw vector v with the exact norm target_q."""
    field = form.field
    s = field._sqrt(field._mul(target_q, field._inv(form.eval_raw(v))))
    assert s is not None, "norm classes disagree (internal)"
    return tuple(field._mul(s, x) for x in v)


def _transport(form, moves, x):
    """x through the reflection in each mirror of moves in turn."""
    for w in moves:
        x = form.reflect_raw(w, x)
    return x


def _orbit_atlas_for_form(field: Field, diag, rep: Report) -> Optional[dict]:
    """{(class of Q(P), class of Q(L)): number of orthogonal pairs} for
    one form over the finite field, each class certified one orbit;
    None, with the first failure recorded in rep, when a step fails.

    Every P gets its own mirrors M, checked to send P onto the target t
    of its norm class.  Every mirror is an isometry (``reflect_raw`` with
    Q(w) = 0 is the identity), so M maps P^perp onto t^perp and keeps Q:
    the pairs (P, L) of a class are M^-1 of the pairs (t, L') of that
    class.  So each projective L in t^perp (L != t) is reduced once per
    target, and the bucket of (cp, cl) is |{P of class cp}| times
    |{L in t^perp of class cl}|.
    """
    form = QuadraticForm.diagonal(field, diag)
    q = form.eval_raw
    qcls = [field._square_class(v).value for v in field.raw_elements]
    points = list(linalg.projective_points(field, form.dim))
    iso = list(form.isotropic_points())
    # the target of each norm class of P: its first projective point
    p0 = {}
    for v in points:
        p0.setdefault(qcls[q(v)], v)
        if len(p0) == 3:
            break
    # step 1: the mirrors of each P send it onto its class target
    p_count = dict.fromkeys(p0, 0)
    for pv in points:
        cp = qcls[q(pv)]
        target_p = p0[cp]
        p_count[cp] += 1
        if pv == target_p:
            moves = []
        elif cp != 0:
            moves = mirrors(form, _norm_match(form, pv, q(target_p)),
                            target_p)
        else:
            moves = mirrors(form, pv, target_p, iso)
            assert moves is not None
        if not _on_line(_transport(form, moves, pv), target_p, field):
            _fail(rep, f"p={field.order} diag={diag} P={pv} not normalised")
            return None
    # step 2: each L orthogonal to a target is reduced to the target of
    # its norm class (the first such L) by mirrors fixing that target
    buckets = {}
    for cp, t in p0.items():
        members = [w for w in form.perp_points(t) if w != t]
        l0 = {}
        for w in members:
            l0.setdefault(qcls[q(w)], w)
        pool = [w for w in members if q(w) == 0]
        for lv in members:
            cl = qcls[q(lv)]
            if not _reduce_l(form, t, lv, l0[cl], pool):
                _fail(rep, f"p={field.order} diag={diag} pair P={t} L={lv} "
                           f"not reduced")
                return None
            buckets[cp, cl] = buckets.get((cp, cl), 0) + p_count[cp]
    return buckets


def _reduce_l(form, p0v, cur, target, iso_pool) -> bool:
    """Reduce cur (orthogonal to p0v) to a multiple of target by mirrors
    orthogonal to p0v, so the moves fix the projective point of p0v.

    The atlas calls it once for each projective point of a class
    target's perp, never per (P, L) pair: P's own mirrors carry every
    pair (P, L) to a pair (target, L') with L' in that perp.
    ``quadform.mirrors`` builds the moves, and a search that finds none
    fails the reduction.  None fails on the atlas's dimension-5 forms:
    p0v's perp, taken modulo p0v when p0v is isotropic, is
    non-degenerate, and its quadric holds an isotropic r that pairs with
    both cur and target.
    """
    field = form.field
    if _on_line(cur, target, field):
        return True
    anisotropic = form.eval_raw(cur) != 0
    if anisotropic:
        # mirrors are orthogonal to p0v automatically: both cur and
        # target are, and so are their sums and differences
        cur = _norm_match(form, cur, form.eval_raw(target))
        moves = mirrors(form, cur, target)
    else:
        moves = mirrors(form, cur, target, iso_pool, (p0v,))
    if moves is None:
        return False
    for w in moves:
        if form.b_raw(w, p0v) != 0:
            return False
        cur = form.reflect_raw(w, cur)
    return cur == target if anisotropic else _on_line(cur, target, field)


def suite_orbit_atlas(field=None, **_) -> Report:
    """Exhaustive (P, L) orbit certification over F_3 and F_5 (or the
    given F_p, p <= ``geometry.MAX_ENUM_Q``) for the standard form and its
    non-residue multiple: exactly 9 classes, each one a single orbit."""
    rep = Report("orbit-atlas", True)
    for p in _primes("orbit-atlas", field):
        fp = PrimeField(p)
        e = fp._nonresidue()
        for diag in ([1, 1, 1, -1, -1],
                     [e, e, e, -e, -e]):
            buckets = _orbit_atlas_for_form(fp, diag, rep)
            if buckets is None:
                return rep
            if len(buckets) != 9:
                return _fail(rep, f"p={p} diag={diag}: "
                                  f"{len(buckets)} classes, expected 9")
            total = sum(buckets.values())
            rep.details.append(
                f"p={p} diag={diag}: {total} pairs in 9 single-orbit classes "
                f"(sizes {sorted(buckets.values())})")
    return rep


# ---------------------------------------------------------------------------
# incidence-theorems
# ---------------------------------------------------------------------------

def _virtual_lines(g: Geometry):
    """Non-trivial virtual hyperplanes: projective points of V/P with
    B(L, x) = 0, represented in P^perp where possible."""
    out = []
    seen = set()
    for x in g.form.perp_points(g._l_raw):
        key = linalg.span_key((x, g._p_raw), g.field)
        if len(key) < 2 or key in seen:  # skip [P] itself and duplicates
            continue
        seen.add(key)
        out.append(x)
    return out


def suite_incidence_theorems(**_) -> Report:
    """Over F_3, all plane geometries: two independent virtual lines meet
    in at most two points, which are antipodal; two non-antipodal points
    lie on at most one unoriented actual line."""
    rep = Report("incidence-theorems", True)
    f3 = PrimeField(3)
    is_zero = f3._is_zero
    for cls in cla.enumerate_classes(f3, 2):
        g = cla.representative_geometry(cls)
        pair, p_raw, l_raw = g.form.b_raw, g._p_raw, g._l_raw
        points = geo._points_in_p_perp(g)[0]
        pair_count = 0
        quasi_ideal_meets = 0
        for l1, l2 in itertools.combinations(_virtual_lines(g), 2):
            if linalg.rank_raw([l1, l2, p_raw], f3) < 3:
                continue
            sub = geo.intersect_hyperplanes(
                g, *linalg.wrap_rows(f3, (l1, l2)))
            if sub.dim != 0:
                return _fail(rep, f"{cls.label()}: subplane dim {sub.dim}")
            span = [b.raw for b in sub.basis]
            dim = linalg.rank_raw(span, f3)
            meet = [pt for pt in points
                    if linalg.rank_raw(span + [pt.raw], f3) == dim]
            nonideal = [pt for pt in meet
                        if not is_zero(pair(l_raw, pt.raw))]
            if len(nonideal) > 2:
                return _fail(rep, f"{cls.label()}: {len(nonideal)} non-ideal "
                                  f"meet points")
            if len(meet) > 2:
                # a two-point line exceeds two quadric points only by
                # lying inside the quadric: the subplane is quasi-ideal
                # and every one of its points is ideal
                if not geo.quasi_ideal(g, sub):
                    return _fail(rep, f"{cls.label()}: lines meet in "
                                      f"{len(meet)} on a regular subplane")
                if nonideal:
                    return _fail(rep, f"{cls.label()}: non-ideal point on a "
                                      f"totally isotropic subplane")
                quasi_ideal_meets += 1
            for a, b in itertools.combinations(meet, 2):
                if not geo.antipodal(g, a, b):
                    return _fail(rep, f"{cls.label()}: non-antipodal meet")
            pair_count += 1
        # oriented lines, projected to unoriented classes: (raw tuple,
        # span key with P), skipping [P] itself, which has no image
        oriented = []
        for pt in geo.lie_quadric_points(g):
            x = pt.raw
            if is_zero(pair(l_raw, x)):
                key = linalg.span_key((x, p_raw), f3)
                if len(key) == 2:
                    oriented.append((x, key))
        pt_checks = 0
        for a, b in itertools.combinations(points, 2):
            if geo.antipodal(g, a, b):
                continue
            xa, xb = a.raw, b.raw
            through = {key for x, key in oriented
                       if is_zero(pair(x, xa)) and is_zero(pair(x, xb))}
            if len(through) > 1:
                return _fail(rep, f"{cls.label()}: {len(through)} lines "
                                  f"through {a} and {b}")
            lifted = geo.hyperplane_through(g, a, b)
            if (lifted is None) != (len(through) == 0):
                return _fail(rep, f"{cls.label()}: hyperplane_through "
                                  f"disagrees with the exhaustive list")
            pt_checks += 1
        note = f" ({quasi_ideal_meets} quasi-ideal meets, all ideal)" \
            if quasi_ideal_meets else ""
        rep.details.append(f"{cls.name or cls.label()}: {pair_count} line "
                           f"pairs, {pt_checks} point pairs{note}")
    return rep


# ---------------------------------------------------------------------------
# projection-identity
# ---------------------------------------------------------------------------

def suite_projection_identity(**_) -> Report:
    """For anisotropic P over F_3: points_of(c) equals the pointspace
    computation for the projected cycle, and the projected norm obeys
    Q(l^P) = -B(P,l)^2 / (4 Q(P)) for non-ideal hyperplanes.  The
    pointspace side filters its own quadric by a pairing scan, so it is
    an independent check of the byte-lane filter (``linalg.zero_flags``)
    under ``points_of`` on every quadric cycle."""
    rep = Report("projection-identity", True)
    f3 = PrimeField(3)
    four = f3.scalar(4)
    for cls in cla.enumerate_classes(f3, 2):
        if cls.qp is SquareClass.ZERO:
            continue
        g = cla.representative_geometry(cls)
        ps = geo.pointspace(g)
        cycles = geo.lie_quadric_points(g)
        for c in cycles:
            direct = geo.points_of(g, c)
            proj_raw = geo.project_cycle_raw(g, c)
            via_ps = geo.pointspace_points_of(ps, ps.from_ambient(proj_raw))
            if tuple(sorted(direct, key=ProjPoint.sort_key)) != via_ps:
                return _fail(rep, f"{cls.label()} c={c}: projection identity")
        checked = 0
        for l in cycles:
            if not f3._is_zero(g._pair_l(l.raw)):
                continue
            bpl = Scalar(g._pair_p(l.raw), f3)
            if bpl.is_zero():
                continue
            raw = geo.project_cycle_raw(g, l)
            expected = -(bpl * bpl) / (four * g.qp())
            if g.form(raw) != expected:
                return _fail(rep, f"{cls.label()} l={l}: projected norm")
            checked += 1
        rep.details.append(f"{cls.name or cls.label()}: {len(cycles)} cycles, "
                           f"{checked} hyperplanes")
    return rep


# ---------------------------------------------------------------------------
# gamma-orders
# ---------------------------------------------------------------------------

def suite_gamma_orders(field=None, **_) -> Report:
    """|Gamma| = q+1 / q / q-1 for Q(L) in class e / 0 / 1, and the full
    stabilizer has exactly twice as many elements; p in {3,5,7,11} (or
    the given F_p, p <= ``metric.MAX_METRIC_Q``)."""
    rep = Report("gamma-orders", True)
    for p in _primes("gamma-orders", field):
        fp = PrimeField(p)
        for ql, expected in ((SquareClass.NON_RESIDUE, p + 1),
                             (SquareClass.ZERO, p),
                             (SquareClass.UNIT, p - 1)):
            cls = next(c for c in cla.enumerate_classes(fp, 2)
                       if c.qp is SquareClass.UNIT and c.ql is ql)
            g = cla.representative_geometry(cls)
            gc = met.gamma_class(g)
            if gc.order(p) != expected:
                return _fail(rep, f"p={p} {cls.label()}: class order")
            l = met.find_nonideal_line(g)
            _, chart, full = met._stabilizer_raw(g, l)
            group = met._det_one(chart, full)
            if len(group) != expected:
                return _fail(rep, f"p={p} {cls.label()}: |Gamma|={len(group)}")
            if len(full) != 2 * expected:
                return _fail(rep, f"p={p} {cls.label()}: full stabilizer "
                                  f"{len(full)} != {2 * expected}")
            _, pts = met.line_points(g, l)
            if len(pts) != expected:
                return _fail(rep, f"p={p} {cls.label()}: {len(pts)} points")
            rep.details.append(f"p={p} Q(L)~{ql.name}: |Gamma|={len(group)}, "
                               f"full={len(full)}, points={len(pts)}")
    return rep


# ---------------------------------------------------------------------------
# distance-additivity (and invariance)
# ---------------------------------------------------------------------------

def suite_distance_additivity(seed: int = 0, field=None, **_) -> Report:
    """100 random collinear triples and 100 random (P,L)-fixing
    isometries per field in {F_3, F_5, F_7} (or the given F_p,
    p <= ``metric.MAX_METRIC_Q``): composition and same_distance
    invariance hold with zero failures."""
    rep = Report("distance-additivity", True)
    rng = random.Random(seed)
    for p in _primes("distance-additivity", field):
        fp = PrimeField(p)
        atlas = [c for c in cla.enumerate_classes(fp, 2)]
        geoms = []
        for cls in atlas:
            g = cla.representative_geometry(cls)
            try:
                l = met.find_nonideal_line(g)
            except met.DegenerateLineError:
                continue
            _, pts = met.line_points(g, l)
            if len(pts) < 2:
                continue
            geoms.append((cls, g, l, pts))
        for _ in range(100):
            cls, g, l, pts = geoms[rng.randrange(len(geoms))]
            a, b, c = (pts[rng.randrange(len(pts))] for _ in range(3))
            tab = met.translation_between(g, l, a, b)
            tbc = met.translation_between(g, l, b, c)
            tac = met.translation_between(g, l, a, c)
            if met.compose(tbc, tab)._nf_raw != tac._nf_raw:
                return _fail(rep, f"p={p} {cls.label()}: additivity "
                                  f"A={a} B={b} C={c}")
            if not met.same_distance(tab, met.invert(
                    met.translation_between(g, l, b, a))):
                return _fail(rep, f"p={p} {cls.label()}: swap inverse")
        # invariance under isometries fixing P and L; the sampler scans
        # the whole vector space once, so drill a fixed handful of
        # geometries rather than all nine
        drill = [geoms[rng.randrange(len(geoms))] for _ in range(3)]
        samplers = {}
        for _ in range(100):
            cls, g, l, pts = drill[rng.randrange(len(drill))]
            key = id(g)
            if key not in samplers:
                samplers[key] = IsometrySampler(g.form, [g._p_raw, g._l_raw])
            m = samplers[key]._sample_raw(rng)
            p1, p2 = pts[rng.randrange(len(pts))], pts[rng.randrange(len(pts))]
            d12 = met.translation_between(g, l, p1, p2)
            l2, q1, q2 = (linalg.mat_vec_raw(m, pt.raw, fp)
                          for pt in (l, p1, p2))
            d12_moved = met.translation_between(g, l2, q1, q2)
            if not met.same_distance(d12, d12_moved):
                return _fail(rep, f"p={p} {cls.label()}: invariance "
                                  f"p1={p1} p2={p2}")
        rep.details.append(f"p={p}: 100 triples + 100 isometries")
    return rep


# ---------------------------------------------------------------------------
# cycle-equivalence
# ---------------------------------------------------------------------------

def _check_certificate(g1, g2, lam, h) -> Optional[str]:
    """Check (lam, h) on raw F_p values: Q2^P(h v) = lam Q1^P(v) for each
    unit vector v and each sum of two (that fixes the whole form), and
    h L1 parallel to L2."""
    ps1, ps2 = geo.pointspace(g1), geo.pointspace(g2)
    field, q1, q2 = g1.field, ps1.form, ps2.form
    h = [linalg.raw_values(field, row) for row in h]
    for v in itertools.product((0, 1), repeat=q1.dim):
        if 0 < sum(v) < 3 and q2.eval_raw(linalg.mat_vec_raw(h, v, field)) \
                != field._mul(lam.value, q1.eval_raw(v)):
            return f"Q2(h v) != lam Q1(v) at v={v}"
    if linalg.normalize_raw(field, linalg.mat_vec_raw(h, ps1._l_raw, field)) \
            != linalg.normalize_raw(field, ps2._l_raw):
        return "h L1 is not parallel to L2"
    return None


def suite_cycle_equivalence(**_) -> Report:
    """The real atlas pairs exactly as stated (dual hyperbolic with
    anti-de Sitter, Minkowski self-paired); over F_3 and F_5 the
    Q(L) <-> e Q(L) partner structure is certified by explicit
    pointspace isometries."""
    rep = Report("cycle-equivalence", True)
    rc = cla.enumerate_classes(Rational(), 2)
    reps = {c.name: cla.representative_geometry(c) for c in rc}
    got = {tuple(sorted((a, b)))
           for a, b in itertools.combinations(reps, 2)
           if cla.cycle_equivalent(reps[a], reps[b])}
    if got != {("anti-de Sitter", "dual hyperbolic")}:
        return _fail(rep, f"real pairs: {sorted(got)}")
    for c in rc:
        partners = cla.cycle_equivalence_partners(c)
        if c.name in ("dual hyperbolic", "anti-de Sitter"):
            expected = {"dual hyperbolic", "anti-de Sitter"} - {c.name}
            if {p.name for p in partners} != expected:
                return _fail(rep, f"real partners of {c.name}")
        elif c.name == "Minkowski":
            if [p.name for p in partners] != ["Minkowski"]:
                return _fail(rep, "Minkowski self-pairing")
        elif partners:
            return _fail(rep, f"unexpected partner for {c.name}")
    rep.details.append("reals: dual hyperbolic ~ anti-de Sitter, "
                       "Minkowski twice, nothing else")
    for p in (3, 5):
        fp = PrimeField(p)
        atlas = cla.enumerate_classes(fp, 2)
        reps_p = {(c.qp, c.ql): cla.representative_geometry(c) for c in atlas}
        for c in atlas:
            partners = cla.cycle_equivalence_partners(c)
            if c.qp is SquareClass.ZERO:
                if partners:
                    return _fail(rep, f"F{p}: partner for isotropic P")
                continue
            if c.ql is SquareClass.ZERO:
                if [x.ql for x in partners] != [SquareClass.ZERO]:
                    return _fail(rep, f"F{p}: self-pairing of {c.label()}")
                g2 = cla.second_model(reps_p[(c.qp, c.ql)])
                if not cla.cycle_equivalent(reps_p[(c.qp, c.ql)], g2):
                    return _fail(rep, f"F{p}: second model of {c.label()}")
                continue
            partner = partners[0]
            g1 = reps_p[(c.qp, c.ql)]
            g2 = reps_p[(partner.qp, partner.ql)]
            if not cla.cycle_equivalent(g1, g2):
                return _fail(rep, f"F{p}: {c.label()} !~ partner")
            cert = cla.pointspace_isometry(g1, g2)
            if cert is None:
                return _fail(rep, f"F{p}: no certificate for {c.label()}")
            err = _check_certificate(g1, g2, *cert)
            if err:
                return _fail(rep, f"F{p}: certificate for {c.label()}: {err}")
        # equivalence must not cross the stated partner structure
        for (k1, g1), (k2, g2) in itertools.combinations(reps_p.items(), 2):
            expected = (k1[0] == k2[0] and SquareClass.ZERO not in (k1[1], k2[1])
                        and k1[0] is not SquareClass.ZERO
                        and k1[1] is not k2[1])
            if cla.cycle_equivalent(g1, g2) != expected:
                return _fail(rep, f"F{p}: pair {k1} {k2}")
        rep.details.append(f"F{p}: partner structure certified")
    return rep


# ---------------------------------------------------------------------------
# separations
# ---------------------------------------------------------------------------

def suite_separations(seed: int = 0, **_) -> Report:
    """All stated closed forms within 1e-9 on the parameter grid; lifts
    land on the quadric; tangency matches incidence; unliftable lines
    are reported as such."""
    rep = Report("separations", True)
    rng = random.Random(seed)
    grid = (0.1, 0.5, 1.0, 2.0)
    for kind in (mod.ModelKind.ELLIPTIC, mod.ModelKind.HYPERBOLIC,
                 mod.ModelKind.PARABOLIC):
        for d in grid:
            o1, o2 = mod.points_at_distance(kind, d)
            value, expected = mod.check_separation(kind, o1, o2)
            if abs(value.value - expected) > 1e-9:
                return _fail(rep, f"{kind.value} d={d}: {value.value} "
                                  f"!= {expected}")
        for theta in grid:
            c1, c2 = mod.cycles_at_angle(kind, theta, 0.45, 0.35)
            value, expected = mod.check_separation(kind, c1, c2)
            if abs(value.value - expected) > 1e-9:
                return _fail(rep, f"{kind.value} theta={theta} cycles")
        rep.details.append(f"{kind.value}: grid separations/powers ok")
    # random lifts stay on the quadric
    for kind in mod.ModelKind:
        g = mod.model_geometry(kind)
        for _ in range(1000):
            obj = _random_model_object(kind, rng)
            if abs(g.form(obj.lift).value) > 1e-9:
                return _fail(rep, f"{kind.value} lift off the quadric: "
                                  f"{obj.params}")
            got = geo.role(g, obj.lift)
            want = {"point": geo.Role.POINT}.get(obj.role_hint)
            if want is not None and got not in (want, geo.Role.IDEAL):
                return _fail(rep, f"{kind.value} {obj.params}: role {got}")
    rep.details.append("1000 random lifts per model on the quadric")
    # tangency <-> incidence with compatible orientations
    g = mod.model_geometry(mod.ModelKind.PARABOLIC)
    for r1, r2, dist, same_sign in ((1.0, 2.0, 3.0, False),
                                    (1.0, 2.0, 1.0, True),
                                    (0.5, 1.25, 1.75, False)):
        c1 = mod.lift_cycle(mod.ModelKind.PARABOLIC, (0.0, 0.0), r1)
        c2s = mod.lift_cycle(mod.ModelKind.PARABOLIC, (dist, 0.0), r2)
        c2o = mod.lift_cycle(mod.ModelKind.PARABOLIC, (dist, 0.0), -r2)
        inc_same = geo.incident(g, c1.lift, c2s.lift)
        inc_opp = geo.incident(g, c1.lift, c2o.lift)
        if (inc_same, inc_opp) != (same_sign, not same_sign):
            return _fail(rep, f"tangency orientation r1={r1} r2={r2} d={dist}")
    rep.details.append("tangency = incidence with compatible orientation")
    try:
        mod.lift_line(mod.ModelKind.MINKOWSKI2, normal=(0.0, 1.0), offset=0.0)
        return _fail(rep, "timelike Minkowski normal lifted")
    except mod.ModelError:
        pass
    try:
        mod.lift_line(mod.ModelKind.LAGUERRE_GALILEI, slope=None, intercept=None)
        return _fail(rep, "vertical Laguerre line lifted")
    except mod.ModelError:
        pass
    rep.details.append("unliftable lines rejected")
    return rep


def _random_model_object(kind, rng):
    r = rng.uniform(-3.0, 3.0)
    if kind is mod.ModelKind.ELLIPTIC:
        a, b = rng.uniform(0, 6.28), rng.uniform(0, 3.14)
        c = (math.cos(a) * math.sin(b), math.sin(a) * math.sin(b), math.cos(b))
        return mod.lift_cycle(kind, c, r) if rng.random() < 0.5 else \
            mod.lift_point(kind, c)
    if kind is mod.ModelKind.HYPERBOLIC:
        x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
        c = (x, y, math.sqrt(1 + x * x + y * y))
        return mod.lift_cycle(kind, c, r) if rng.random() < 0.5 else \
            mod.lift_point(kind, c)
    if kind in (mod.ModelKind.PARABOLIC, mod.ModelKind.MINKOWSKI2):
        c = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        return mod.lift_cycle(kind, c, r) if rng.random() < 0.5 else \
            mod.lift_point(kind, c)
    if kind is mod.ModelKind.DE_SITTER:
        t = rng.uniform(-2, 2)
        a = rng.uniform(0, 6.28)
        c = (math.cosh(t) * math.cos(a), math.cosh(t) * math.sin(a),
             math.sinh(t))
        if rng.random() < 0.5:
            return mod.lift_point(kind, c)
        x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
        return mod.lift_cycle(kind, (x, y, math.sqrt(1 + x * x + y * y)), r)
    if kind is mod.ModelKind.ANTI_DE_SITTER:
        x = rng.uniform(-2, 2)
        a = rng.uniform(0, 6.28)
        c = (x, math.sqrt(1 + x * x) * math.cos(a),
             math.sqrt(1 + x * x) * math.sin(a))
        return mod.lift_point(kind, c) if rng.random() < 0.5 else \
            mod.lift_cycle(kind, c, r)
    return mod.lift_parabola(rng.uniform(0.2, 3), rng.uniform(-3, 3),
                             rng.uniform(-3, 3))


# ---------------------------------------------------------------------------
# char2-lemmas
# ---------------------------------------------------------------------------

def _all_forms(field, dim):
    slots = [(i, j) for i in range(dim) for j in range(i, dim)]
    for values in linalg.all_vectors(field, len(slots)):
        yield QuadraticForm._of(field, dim, zip(slots, values))


def _sampled_forms(field, dim, count, rng):
    slots = [(i, j) for i in range(dim) for j in range(i, dim)]
    elems = field.raw_elements
    for _ in range(count):
        yield QuadraticForm._of(field, dim, [
            (ij, elems[rng.randrange(len(elems))]) for ij in slots])


def suite_char2_lemmas(seed: int = 0, **_) -> Report:
    """Characteristic 2: degenerate vectors of a non-degenerate form are
    a line iff the dimension is odd; the Arf invariant separates forms
    exactly as the isotropic-count oracle does."""
    rep = Report("char2-lemmas", True)
    rng = random.Random(seed)
    checked = 0
    for field, dims, sample in ((CharTwo(2), range(1, 6), None),
                                (CharTwo(4), range(1, 4), None),
                                (CharTwo(4), range(4, 6), 800)):
        for dim in dims:
            forms = _all_forms(field, dim) if sample is None else \
                _sampled_forms(field, dim, sample, rng)
            for form in forms:
                if not is_nondegenerate_form(form):
                    continue
                rad = _radical(form)
                want = 1 if dim % 2 == 1 else 0
                if len(rad) != want:
                    return _fail(rep, f"{field} {form!r}: radical {len(rad)}")
                checked += 1
    rep.details.append(f"{checked} non-degenerate forms obey the parity lemma")
    # Arf against the isotropic-count oracle
    for field in (CharTwo(2), CharTwo(4)):
        for dim in (2, 4) if field.q == 2 else (2,):
            groups = {}
            for form in _all_forms(field, dim):
                if _radical(form):
                    continue
                zeros = sum(1 for x in linalg.all_vectors(field, dim)
                            if form.eval_raw(x) == 0)
                arf = arf_invariant(form).value
                groups.setdefault(zeros, set()).add(arf)
            if len(groups) != 2 or any(len(v) != 1 for v in groups.values()):
                return _fail(rep, f"{field} dim {dim}: Arf vs zero counts "
                                  f"{groups}")
            rep.details.append(f"{field} dim {dim}: zero counts "
                               f"{sorted(groups)} split the two Arf classes")
    f2 = CharTwo(2)
    f4 = CharTwo(4)
    plane2 = QuadraticForm(f2, 2, {(0, 0): 1, (0, 1): 1, (1, 1): 1})
    plane4 = QuadraticForm(f4, 2, {(0, 0): 1, (0, 1): 1, (1, 1): 1})
    if arf_invariant(plane2).is_zero():
        return _fail(rep, "x^2+xy+y^2 must be anisotropic over F_2")
    if not arf_invariant(plane4).is_zero():
        return _fail(rep, "x^2+xy+y^2 splits over F_4")
    rep.details.append("x^2+xy+y^2: Arf 1 over F_2, Arf 0 over F_4")
    return rep


SUITES: Dict[str, Callable[..., Report]] = {
    "polarization": suite_polarization,
    "gen-ortho-basis": suite_gen_ortho_basis,
    "witt-oracle": suite_witt_oracle,
    "orbit-atlas": suite_orbit_atlas,
    "incidence-theorems": suite_incidence_theorems,
    "projection-identity": suite_projection_identity,
    "gamma-orders": suite_gamma_orders,
    "distance-additivity": suite_distance_additivity,
    "cycle-equivalence": suite_cycle_equivalence,
    "separations": suite_separations,
    "char2-lemmas": suite_char2_lemmas,
}


def run_suite(name: str, **options) -> Report:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from "
                       f"{sorted(SUITES)}")
    return SUITES[name](**options)

