"""Classification: invariants, atlases, tables, cycle equivalence."""

import hashlib
import itertools
import random

import pytest

from conformal import linalg
from conformal.fields import (PrimeField, Rational, SquareClass,
                              UnsupportedFieldError, CharTwo,
                              canonical_nonresidue, square_class)
from conformal.classify import (QUADRATICALLY_CLOSED, GeometryClass,
                                canonical_form, ck_table, classify,
                                cycle_equivalence_partners, cycle_equivalent,
                                enumerate_classes, pointspace_isometry,
                                representative_geometry, second_model)
from conformal.geometry import (Geometry, lie_quadric_points,
                                non_degenerate_geometry, non_empty,
                                pointspace, role)
from conformal.quadform import (InvalidInputError, IsometrySampler,
                                QuadraticForm, is_isometry)
from reference import (ref_in_span, ref_independent, ref_mat_vec,
                       ref_representative)

QQ = Rational()
F3, F5, F7 = PrimeField(3), PrimeField(5), PrimeField(7)


def test_atlas_counts():
    assert [len(enumerate_classes(QQ, d)) for d in (1, 2, 3, 4)] == \
        [4, 9, 13, 18]
    for d in (1, 2, 3, 4):
        assert len(enumerate_classes(QUADRATICALLY_CLOSED, d)) == 4
    for q in (3, 5, 7):
        fp = PrimeField(q)
        assert len(enumerate_classes(fp, 1)) == 5
        assert len(enumerate_classes(fp, 2)) == 9
        assert len(enumerate_classes(fp, 3)) == 10
    assert len(enumerate_classes(CharTwo(2), 3)) == 4
    assert len(enumerate_classes(CharTwo(4), 3)) == 4
    with pytest.raises(UnsupportedFieldError):
        enumerate_classes(CharTwo(2), 2)


def test_atlas_is_duplicate_free():
    for field in (QQ, F3, F5):
        for d in (1, 2, 3):
            classes = enumerate_classes(field, d)
            assert len(set(classes)) == len(classes)


def test_ck_table_cells():
    headers, rows = ck_table(QQ)
    assert headers == ("-1", "0", "1")
    assert rows[0] == ("elliptic", "parabolic", "hyperbolic")
    assert rows[1] == ("dual parabolic", "Laguerre/Galilei", "dual Minkowski")
    assert rows[2] == ("dual hyperbolic", "Minkowski", "anti-de Sitter")
    headers5, rows5 = ck_table(F5)
    assert headers5 == ("e", "0", "1")
    assert rows5 == rows  # same names, -1 replaced by e
    # the named corner cells
    assert rows[0][0] == "elliptic"
    assert rows[2][1] == "Minkowski"
    assert rows[1][2] == "dual Minkowski"


def test_classify_named_cells():
    g = Geometry(QuadraticForm.diagonal(QQ, [1, 1, 1, -1, -1]),
                 (0, 0, 0, 0, 1), (0, 0, 0, 1, 0))
    assert classify(g).name == "elliptic"
    g7 = representative_geometry(
        next(c for c in enumerate_classes(F7, 2)
             if c.qp is SquareClass.ZERO and c.ql is SquareClass.ZERO))
    assert classify(g7).name == "Laguerre/Galilei"
    assert g7.qp().is_zero() and g7.ql().is_zero()


def test_classify_invariant_under_rescaling():
    """Odd vector dimension (d even) exercises the det flip, even
    dimension (d odd) the pair rule."""
    for field, d in itertools.product((QQ, F3, F5, F7), (1, 2, 3, 4)):
        for cls in enumerate_classes(field, d):
            g = representative_geometry(cls)
            scalars = [field.scalar(-1)] if field is QQ else \
                [canonical_nonresidue(field), field.scalar(4)]
            for s in scalars:
                scaled = Geometry(g.form.scaled(s), g.p_rep, g.l_rep)
                assert classify(scaled) == classify(g), (cls.label(), s)


def test_classify_invariant_under_isometries():
    rng = random.Random(4)
    for cls in enumerate_classes(F3, 2):
        g = representative_geometry(cls)
        sampler = IsometrySampler(g.form, [])
        for _ in range(200):
            m = sampler.sample(rng)
            moved = Geometry(g.form,
                             ref_mat_vec(m, g.p_rep),
                             ref_mat_vec(m, g.l_rep))
            assert classify(moved) == cls


def test_representatives_classify_back():
    for field in (QQ, F3, F5, F7, CharTwo(2), CharTwo(4)):
        dims = (3,) if field.char == 2 else (1, 2, 3)
        for d in dims:
            for cls in enumerate_classes(field, d):
                g = representative_geometry(cls)
                assert classify(g) == cls, cls.label()


@pytest.mark.parametrize("field,dims", [
    (QQ, (1, 2, 3, 4, 5, 6)),
    (F3, (1, 2, 3)), (F5, (1, 2, 3, 4)), (F7, (1, 2, 3)),
    (CharTwo(2), (3,)), (CharTwo(4), (3,)), (PrimeField(11), (2,)),
    (PrimeField(13), (2,)),
], ids=["rational", "fp:3", "fp:5", "fp:7", "f2", "f4", "fp:11", "fp:13"])
def test_raw_representatives_match_scalar_search(field, dims):
    """The raw search (P^perp alone over F_q, one ``classify`` call) picks
    the pair of the Scalar search, which scans every candidate and
    classifies each pair that passes its tests."""
    for d in dims:
        for cls in enumerate_classes(field, d):
            g = representative_geometry(cls)
            assert (g.p_rep, g.l_rep) == ref_representative(cls), cls


def test_classes_share_their_canonical_form():
    """Classes with one form invariant get one form object, so its kept
    radical serves them all; the representatives are pinned (a digest of
    each class with its form, P and L)."""
    lines = []
    for field, dims in ((QQ, (1, 2, 3, 4)), (F3, (1, 2, 3)), (F5, (1, 2, 3))):
        for d in dims:
            forms = {}
            for cls in enumerate_classes(field, d):
                g = representative_geometry(cls)
                form = forms.setdefault(cls.form_invariant, g.form)
                assert g.form is form is canonical_form(
                    field, d, cls.form_invariant)
                lines.append(f"{cls.label()}|{g.form!r}|{g.p_rep!r}|"
                             f"{g.l_rep!r}")
            assert len(forms) < len(enumerate_classes(field, d))
    assert len(lines) == 92
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == (
        "bfb7aa865531c9fd45fc5d2626e9d96ff2202f011cd961177eb333cec2909ade")


def test_representatives_carry_the_callers_field(monkeypatch):
    """A class built from a freshly constructed PrimeField(5) gets its
    representative over that very object, after another PrimeField(5)
    filled the canonical-form cache, and ``role`` of cycles given as its
    Scalars formats no field token."""
    first = representative_geometry(enumerate_classes(PrimeField(5), 2)[0])
    fresh = PrimeField(5)
    g = representative_geometry(enumerate_classes(fresh, 2)[0])
    assert g.field is fresh and first.field is fresh
    cycles = [[fresh.scalar(a) for a in pt.raw]
              for pt in lie_quadric_points(g)]
    tokens = []
    token = PrimeField.token
    monkeypatch.setattr(PrimeField, "token",
                        lambda self: tokens.append(self) or token(self))
    for c in cycles:
        role(g, c)
    assert not tokens


@pytest.mark.parametrize("field,d,form_invariant,qp,ql", [
    (QQ, 1, ("sig", 2, 2), SquareClass.NON_RESIDUE, SquareClass.NON_RESIDUE),
    (F5, 3, ("det", "UNIT"), SquareClass.NON_RESIDUE, SquareClass.ZERO),
], ids=["rational", "fp:5"])
def test_non_canonical_class_has_no_representative(field, d, form_invariant,
                                                   qp, ql):
    """A hand-built class whose norm pair ``classify`` rescales away has
    no representative, in the raw search as in the Scalar one."""
    cls = GeometryClass(field.token(), d, form_invariant, qp, ql, None, field)
    assert cls not in enumerate_classes(field, d)
    with pytest.raises(InvalidInputError):
        representative_geometry(cls)
    with pytest.raises(InvalidInputError):
        ref_representative(cls)


def test_char2_atlas_representatives():
    for field in (CharTwo(2), CharTwo(4)):
        for cls in enumerate_classes(field, 3):
            g = representative_geometry(cls)
            got = classify(g)
            assert (got.qp, got.ql, got.form_invariant) == \
                (cls.qp, cls.ql, cls.form_invariant)
            from conformal.quadform import witt_index
            assert witt_index(g.form) >= 2  # non-degenerate geometry


def test_cycle_equivalent_reflexive_and_real_pairs():
    reps = {c.name: representative_geometry(c)
            for c in enumerate_classes(QQ, 2)}
    for name, g in reps.items():
        assert cycle_equivalent(g, g)
    assert cycle_equivalent(reps["dual hyperbolic"], reps["anti-de Sitter"])
    assert not cycle_equivalent(reps["elliptic"], reps["hyperbolic"])
    assert not cycle_equivalent(reps["elliptic"], reps["dual hyperbolic"])
    assert not cycle_equivalent(reps["parabolic"], reps["Minkowski"])


def test_cycle_equivalence_is_equivalence_relation():
    for field in (F3,):
        reps = [representative_geometry(c)
                for c in enumerate_classes(field, 2)]
        rel = {(i, j): cycle_equivalent(reps[i], reps[j])
               for i in range(len(reps)) for j in range(len(reps))}
        for i in range(len(reps)):
            assert rel[(i, i)]
            for j in range(len(reps)):
                assert rel[(i, j)] == rel[(j, i)]
                for k in range(len(reps)):
                    if rel[(i, j)] and rel[(j, k)]:
                        assert rel[(i, k)]


def _fresh(g):
    """g rebuilt on a new form: no pointspace class cached yet."""
    form = QuadraticForm(g.field, g.form.dim, dict(g.form.coeff_items()))
    return Geometry(form, g.p_rep, g.l_rep)


def test_cycle_equivalent_memo_keeps_every_answer():
    """The pointspace class cached on a geometry never changes an answer:
    every ordered pair of an atlas relates the same while the classes
    are being cached, once they all are, and on fresh geometries."""
    atlases = [(QQ, d) for d in (1, 2, 3, 4)] + [(F3, 2), (F5, 2)]
    for field, d in atlases:
        reps = [representative_geometry(c)
                for c in enumerate_classes(field, d)]
        pairs = list(itertools.product(reps, repeat=2))
        first = [cycle_equivalent(g1, g2) for g1, g2 in pairs]
        assert all(g._ps_class is not None for g in reps)
        again = [cycle_equivalent(g1, g2) for g1, g2 in pairs]
        fresh = [cycle_equivalent(_fresh(g1), _fresh(g2)) for g1, g2 in pairs]
        assert first == again == fresh, (field, d)
        assert any(first) and not all(first)


def test_uncounted_classes_classify_but_are_not_listed():
    """The two admissible classes the stated counts leave out: over Q a
    balanced signature with P and L isotropic (d = 1 and d = 3), and in
    characteristic 2 at d = 3 every class of Arf class 1.  ``classify``
    returns each for a non-degenerate geometry and ``enumerate_classes``
    does not list it."""
    zero, unit = SquareClass.ZERO, SquareClass.UNIT
    for d, p, l in [(1, (1, 0, 1, 0), (0, 1, 0, 1)),
                    (3, (1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0))]:
        k = (d + 3) // 2
        g = Geometry(QuadraticForm.diagonal(QQ, [1] * k + [-1] * k), p, l)
        assert non_degenerate_geometry(g) and non_empty(g)
        got = classify(g)
        assert (got.form_invariant, got.qp, got.ql) == \
            (("sig", k, k), zero, zero)
        assert got not in enumerate_classes(QQ, d)
    for field in (CharTwo(2), CharTwo(4)):
        atlas = enumerate_classes(field, 3)
        for qp, ql in itertools.product((zero, unit), repeat=2):
            cls = GeometryClass(field.token(), 3, ("arf", 1), qp, ql,
                                None, field)
            g = representative_geometry(cls)
            assert non_degenerate_geometry(g)
            assert classify(g) == cls and cls not in atlas


def test_partners_real():
    classes = {c.name: c for c in enumerate_classes(QQ, 2)}
    assert cycle_equivalence_partners(classes["elliptic"]) == ()
    partners = cycle_equivalence_partners(classes["Minkowski"])
    assert [p.name for p in partners] == ["Minkowski"]
    partners = cycle_equivalence_partners(classes["dual hyperbolic"])
    assert [p.name for p in partners] == ["anti-de Sitter"]


def test_partners_finite():
    classes = {(c.qp, c.ql): c for c in enumerate_classes(F5, 2)}
    partner = cycle_equivalence_partners(
        classes[(SquareClass.UNIT, SquareClass.UNIT)])
    assert [(p.qp, p.ql) for p in partner] == \
        [(SquareClass.UNIT, SquareClass.NON_RESIDUE)]
    assert cycle_equivalence_partners(
        classes[(SquareClass.ZERO, SquareClass.UNIT)]) == ()


def test_second_model_structure():
    for field in (F3, F5):
        classes = {(c.qp, c.ql): c for c in enumerate_classes(field, 2)}
        g = representative_geometry(
            classes[(SquareClass.UNIT, SquareClass.ZERO)])
        g2 = second_model(g)
        assert cycle_equivalent(g, g2)
        assert classify(g2) == classify(g)  # same class: the two models
        ga = representative_geometry(
            classes[(SquareClass.UNIT, SquareClass.UNIT)])
        ga2 = second_model(ga)
        got = classify(ga2)
        assert (got.qp, got.ql) == (SquareClass.UNIT, SquareClass.NON_RESIDUE)


def test_pointspace_isometry_certificates():
    classes = {(c.qp, c.ql): c for c in enumerate_classes(F3, 2)}
    g1 = representative_geometry(classes[(SquareClass.UNIT, SquareClass.UNIT)])
    g2 = representative_geometry(
        classes[(SquareClass.UNIT, SquareClass.NON_RESIDUE)])
    cert = pointspace_isometry(g1, g2)
    assert cert is not None
    lam, h = cert
    ps1, ps2 = pointspace(g1), pointspace(g2)
    # h carries lam * Q1^P to Q2^P and maps L1 onto the line of L2
    for x in itertools.islice(linalg.all_vectors(F3, 4), 1, 30):
        v = linalg.vector(F3, x)
        assert ps2.form(ref_mat_vec(h, v)) == lam * ps1.form(v)
    image = ref_mat_vec(h, ps1.l_coords)
    assert ref_in_span(image, [ps2.l_coords], F3)
    g3 = representative_geometry(classes[(SquareClass.UNIT, SquareClass.ZERO)])
    assert pointspace_isometry(g1, g3) is None


def _witt_extensions():
    """Every pointspace_isometry certificate between anisotropic-P plane
    classes over F_3 and F_5 as (g1, g2, cert), then, for two classes,
    (g, 10 seeded IsometrySampler draws, the rng's next draw)."""
    certs, samples = [], []
    for fp in (F3, F5):
        reps = [representative_geometry(c) for c in enumerate_classes(fp, 2)
                if c.qp is not SquareClass.ZERO]
        for g1, g2 in itertools.product(reps, repeat=2):
            certs.append((g1, g2, pointspace_isometry(g1, g2)))
    for fp, qp, ql in ((F3, SquareClass.ZERO, SquareClass.UNIT),
                       (F5, SquareClass.UNIT, SquareClass.ZERO)):
        cls = next(c for c in enumerate_classes(fp, 2)
                   if (c.qp, c.ql) == (qp, ql))
        g = representative_geometry(cls)
        sampler = IsometrySampler(g.form, [g.p_rep, g.l_rep])
        rng = random.Random(fp.p)
        draws = [sampler.sample(rng) for _ in range(10)]
        samples.append((g, draws, rng.randrange(1 << 30)))
    return certs, samples


def test_witt_extensions_are_pinned():
    """The reflections behind the certificates and the sampler build the
    same matrices, byte for byte, as when these outputs were recorded.
    Each certificate and each draw is checked, and the sampler consumes
    the rng draws it consumed before Witt extension ran on reflections
    alone."""
    text = lambda m: ";".join(",".join(str(x.value) for x in row) for row in m)
    certs, samples = _witt_extensions()
    lines = []
    for g1, g2, cert in certs:
        if cert is None:
            lines.append("-")
            continue
        lam, h = cert
        lines.append(f"{lam.value}:{text(h)}")
        # h carries lam * Q1^P to Q2^P and maps L1 onto the line of L2
        ps1, ps2 = pointspace(g1), pointspace(g2)
        for x in linalg.all_vectors(g1.field, ps1.form.dim):
            v = linalg.vector(g1.field, x)
            assert ps2.form(ref_mat_vec(h, v)) == lam * ps1.form(v)
        image = ref_mat_vec(h, ps1.l_coords)
        assert ref_in_span(image, [ps2.l_coords], g1.field)
    for g, draws, _ in samples:
        for m in draws:
            assert is_isometry(g.form, m)
            assert ref_mat_vec(m, g.p_rep) == g.p_rep
            assert ref_mat_vec(m, g.l_rep) == g.l_rep
        lines += [text(m) for m in draws]
    assert [nxt for _, _, nxt in samples] == [342308754, 342747439]
    assert len(lines) == 2 * 36 + 20
    assert [k for k, line in enumerate(lines[:72]) if line != "-"] == [
        0, 7, 8, 13, 14, 21, 28, 29, 34, 35, 36, 43, 44, 49, 50, 57, 64, 65,
        70, 71]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == (
        "dc976f38fb0889e8f016753898385b9e102c8c09630a1e91a5e92d0f057f4c5f")


def test_orbit_completeness_class_labels():
    """Sampled (P, L) pairs of the standard F_3 form fall into the nine
    atlas classes, and the class is decided by the two norm classes."""
    form = QuadraticForm.diagonal(F3, [1, 1, 1, -1, -1])
    atlas = {(c.qp, c.ql): c for c in enumerate_classes(F3, 2)}
    from conformal.fields import square_class
    seen = set()
    pts = [linalg.vector(F3, x) for x in linalg.projective_points(F3, 5)]
    rng = random.Random(9)
    for _ in range(300):
        p = rng.choice(pts)
        l = rng.choice(pts)
        if not form.b_full(p, l).is_zero():
            continue
        if not ref_independent([p, l], F3):
            continue
        g = Geometry(form, p, l)
        cls = classify(g)
        key = (square_class(form(p)), square_class(form(l)))
        assert cls == atlas[key]
        seen.add(key)
    assert len(seen) == 9


def test_atlas_beyond_acceptance_dims():
    # odd ambient dimension: one normalized form, nine norm pairs
    assert len(enumerate_classes(F7, 4)) == 9
    assert len(enumerate_classes(QQ, 5)) == 22  # 9*5/2 rounded down


def test_char2_geometry_enumeration_smoke():
    f2 = CharTwo(2)
    cls = enumerate_classes(f2, 3)[0]
    g = representative_geometry(cls)
    from conformal.geometry import lie_quadric_points, role
    pts = lie_quadric_points(g)
    assert pts
    roles = {role(g, p).value for p in pts}
    assert "point" in roles or "ideal" in roles
