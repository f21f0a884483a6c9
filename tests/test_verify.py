"""Verify suites: the orbit atlas's pinned output, its per-pair oracle
and mutations of its certificate, and library errors that must not be
taken for rejected input.

The atlas certifies through P: each P's own mirrors are checked to send
it onto its class target t, and each projective L in t^perp is reduced
once to its class target.  Mirrors are isometries, so they carry P^perp
onto t^perp with Q kept, and a class holds |P of its class| times
|L in t^perp of its class| pairs.  ``per_pair_buckets`` below is the
direct loop over every orthogonal pair, each pair reduced through its
own transported L; it is the oracle those products are checked against.
The mutations break one step of the certificate and check that the
suite fails.
"""

import ast
import re

import pytest

from conformal import geometry, linalg, quadform, verify
from conformal.fields import (PrimeField, SquareClass, canonical_nonresidue,
                              square_class)

F3 = PrimeField(3)


def per_pair_buckets(p, diag):
    """{(class of Q(P), class of Q(L)): pairs} by a loop over every
    orthogonal pair (P, L), each certified on its own: P's mirrors send
    it onto its class target, and the exact vector they send L to is
    reduced to the target of its class.  None when a step fails."""
    field = PrimeField(p)
    form = quadform.QuadraticForm.diagonal(field, diag)
    n = form.dim
    q, b = form.eval_raw, form.b_raw
    qcls = [square_class(x).value for x in field.elements()]
    points = list(linalg.projective_points(field, n))
    iso = [v for v in points if q(v) == 0]
    p0 = {}
    for v in points:
        p0.setdefault(qcls[q(v)], v)
    l0, iso_in_perp = {}, {}
    for cp, pv in p0.items():
        members = [w for w in points if b(pv, w) == 0 and w != pv]
        for w in members:
            l0.setdefault((cp, qcls[q(w)]), w)
        iso_in_perp[cp] = [w for w in members if q(w) == 0]
    buckets, reduced = {}, {}
    for pv in points:
        cp = qcls[q(pv)]
        target_p = p0[cp]
        if pv == target_p:
            moves = []
        elif cp != 0:
            moves = quadform.mirrors(
                form, verify._norm_match(form, pv, q(target_p)), target_p)
        else:
            moves = quadform.mirrors(form, pv, target_p, iso)
        if not verify._on_line(verify._transport(form, moves, pv),
                               target_p, field):
            return None
        # every L in P's perp, with its image under P's mirrors
        kernel = [tuple(x.value for x in kv)
                  for kv in form.perp([linalg.vector(field, pv)])]
        basis = [kv + verify._transport(form, moves, kv) for kv in kernel]
        combos = []
        for lead in range(len(basis)):
            level = [basis[lead]]
            for kv in basis[lead + 1:]:
                level = [tuple((a + t * c) % p for a, c in zip(both, kv))
                         for both in level for t in range(p)]
            combos += level
        for both in combos:
            lv, cur = both[:n], both[n:]
            if cp == 0 and verify._on_line(lv, pv, field):
                continue
            key = (cp, qcls[q(lv)])
            buckets[key] = buckets.get(key, 0) + 1
            proof = key + (cur,)
            if proof not in reduced:
                reduced[proof] = verify._reduce_l(
                    form, target_p, cur, l0[key], iso_in_perp[cp])
            if not reduced[proof]:
                return None
    return buckets


@pytest.mark.parametrize("p", [3, 5])
def test_factored_buckets_match_the_per_pair_loop(p):
    field = PrimeField(p)
    e = canonical_nonresidue(field).value
    for diag in ([1, 1, 1, -1, -1], [e, e, e, -e, -e]):
        rep = verify.Report("orbit-atlas", True)
        buckets = verify._orbit_atlas_for_form(field, diag, rep)
        assert rep.passed, rep.counterexample
        oracle = per_pair_buckets(p, diag)
        assert oracle is not None
        assert buckets == oracle


def test_orbit_atlas_details_are_pinned():
    rep = verify.run_suite("orbit-atlas")
    assert rep.passed, rep.counterexample
    assert rep.details == [
        "p=3 diag=[1, 1, 1, -1, -1]: 4800 pairs in 9 single-orbit classes "
        "(sizes [360, 360, 480, 540, 540, 540, 540, 720, 720])",
        "p=3 diag=[2, 2, 2, -2, -2]: 4800 pairs in 9 single-orbit classes "
        "(sizes [360, 360, 480, 540, 540, 540, 540, 720, 720])",
        "p=5 diag=[1, 1, 1, -1, -1]: 121680 pairs in 9 single-orbit classes "
        "(sizes [4680, 7800, 7800, 11700, 11700, 19500, 19500, 19500, "
        "19500])",
        "p=5 diag=[2, 2, 2, -2, -2]: 121680 pairs in 9 single-orbit classes "
        "(sizes [4680, 7800, 7800, 11700, 11700, 19500, 19500, 19500, "
        "19500])",
    ]


def test_orbit_atlas_f7_details_are_pinned():
    # the sizes are the per-pair loop's, from one run over F_7
    rep = verify.run_suite("orbit-atlas", field=PrimeField(7))
    assert rep.passed, rep.counterexample
    sizes = ("(sizes [22400, 58800, 58800, 78400, 78400, 205800, 205800, "
             "205800, 205800])")
    assert rep.details == [
        f"p=7 diag=[1, 1, 1, -1, -1]: 1120000 pairs in 9 single-orbit "
        f"classes {sizes}",
        f"p=7 diag=[3, 3, 3, -3, -3]: 1120000 pairs in 9 single-orbit "
        f"classes {sizes}",
    ]


def test_each_transported_vector_is_reduced_once(monkeypatch):
    calls = []
    reduce_l = verify._reduce_l

    def recording(form, p0v, cur, target, iso_pool):
        calls.append((form, p0v, cur, target))
        return reduce_l(form, p0v, cur, target, iso_pool)

    monkeypatch.setattr(verify, "_reduce_l", recording)
    rep = verify.run_suite("orbit-atlas", field=F3)
    assert rep.passed, rep.counterexample
    assert len(set(calls)) == len(calls)
    assert len(calls) < 2 * 4800


def test_failed_reduction_is_not_hidden_by_the_cache(monkeypatch):
    # P = (1, 0, 0, 0, 0) is the first point and its own class target, so
    # it needs no move and its L = (0, 1, 1, 0, 0) is transported to
    # itself; that L is not a multiple of its target (0, 1, 0, 1, 1)
    bad = (0, 1, 1, 0, 0)
    reduce_l = verify._reduce_l

    def failing(form, p0v, cur, target, iso_pool):
        if cur == bad:
            return False
        return reduce_l(form, p0v, cur, target, iso_pool)

    monkeypatch.setattr(verify, "_reduce_l", failing)
    rep = verify.run_suite("orbit-atlas", field=F3)
    assert not rep.passed
    assert rep.counterexample == ("p=3 diag=[1, 1, 1, -1, -1] pair "
                                  "P=(1, 0, 0, 0, 0) L=(0, 1, 1, 0, 0) "
                                  "not reduced")


def test_wrong_l_target_fails_the_l_step(monkeypatch):
    # P's class target t = (1, 0, 0, 0, 0) is anisotropic; its isotropic
    # L class gets a target outside t^perp, which no move fixing t reaches
    t, wrong = (1, 0, 0, 0, 0), (1, 0, 0, 1, 0)
    reduce_l = verify._reduce_l

    def wrong_target(form, p0v, cur, target, iso_pool):
        if p0v == t and form.eval_raw(target) == 0:
            target = wrong
        return reduce_l(form, p0v, cur, target, iso_pool)

    monkeypatch.setattr(verify, "_reduce_l", wrong_target)
    rep = verify.run_suite("orbit-atlas", field=F3)
    assert not rep.passed
    # the class's first L is its own target, so it fails first
    assert rep.counterexample == ("p=3 diag=[1, 1, 1, -1, -1] pair "
                                  "P=(1, 0, 0, 0, 0) L=(0, 1, 0, 0, 1) "
                                  "not reduced")


def test_wrong_p_mirror_fails_the_p_step(monkeypatch):
    mirrors = verify.mirrors

    def mirror_through_target(q, a, b, pool=(), fixed=()):
        if q.eval_raw(a) == 0:
            return mirrors(q, a, b, pool, fixed)
        # anisotropic: reflects b to -b instead of sending a to b
        return [b]

    monkeypatch.setattr(verify, "mirrors", mirror_through_target)
    # every L reduction succeeds, so only the P step can catch the mirror
    monkeypatch.setattr(verify, "_reduce_l", lambda *args: True)
    rep = verify.run_suite("orbit-atlas", field=F3)
    assert not rep.passed
    assert re.match(r"^p=3 diag=\[1, 1, 1, -1, -1\] P=\((\d, ){4}\d\) "
                    r"not normalised$", rep.counterexample), rep.counterexample


def _identity_certificate(g1, g2):
    n = geometry.pointspace(g1).form.dim
    field = g1.field
    return field.one(), tuple(linalg.unit_vector(field, n, i)
                              for i in range(n))


def _rescaled_certificate(g1, g2, search=verify.cla.pointspace_isometry):
    cert = search(g1, g2)
    return None if cert is None else (cert[0] * 2, cert[1])


@pytest.mark.parametrize("patch, error", [
    (_identity_certificate, "h L1 is not parallel to L2"),
    (_rescaled_certificate, r"Q2\(h v\) != lam Q1\(v\) at v=\(.*\)")],
    ids=["identity", "rescaled"])
def test_cycle_equivalence_checks_its_certificates(monkeypatch, patch, error):
    """Each certificate (lam, h) is checked, not only found: the identity
    with lam = 1, or the search's h with 2 lam, in place of the search's
    answer fails the suite."""
    rep = verify.run_suite("cycle-equivalence")
    assert rep.passed, rep.counterexample
    monkeypatch.setattr(verify.cla, "pointspace_isometry", patch)
    rep = verify.run_suite("cycle-equivalence")
    assert not rep.passed
    assert re.match(rf"^F3: certificate for .*: {error}$",
                    rep.counterexample), rep.counterexample


@pytest.mark.parametrize("p", [3, 5])
def test_certificate_check_reads_the_pair_sums(p):
    """A certificate that is right on every unit vector and on L but
    wrong on one pair sum is refused at a v with two ones: one column of
    the search's h is replaced by a vector of the same norm that is not
    orthogonal to another column, at a coordinate where L1 is zero."""
    cla = verify.cla
    field = PrimeField(p)
    atlas = cla.enumerate_classes(field, 2)
    reps = {(c.qp, c.ql): cla.representative_geometry(c) for c in atlas}
    checked = 0
    for c in atlas:
        if SquareClass.ZERO in (c.qp, c.ql):
            continue
        partner = cla.cycle_equivalence_partners(c)[0]
        g1, g2 = reps[(c.qp, c.ql)], reps[(partner.qp, partner.ql)]
        lam, h = cla.pointspace_isometry(g1, g2)
        ps1, ps2 = geometry.pointspace(g1), geometry.pointspace(g2)
        q1, q2, l1 = ps1.form, ps2.form, ps1._l_raw
        rows = tuple(tuple(linalg.raw_values(field, row)) for row in h)
        cols, n = [list(col) for col in zip(*rows)], len(rows)
        j = l1.index(0)
        w = next(w for w in linalg.all_vectors(field, n)
                 if q2.eval_raw(w) == q2.eval_raw(cols[j])
                 and any(q2.b_raw(w, col) != q2.b_raw(cols[j], col)
                         for k, col in enumerate(cols) if k != j))
        cols[j] = list(w)
        bad = tuple(zip(*cols))
        # right on every unit vector and on L
        for i in range(n):
            unit = tuple(int(k == i) for k in range(n))
            assert q2.eval_raw(cols[i]) == field._mul(lam.value,
                                                      q1.eval_raw(unit))
        assert linalg.mat_vec_raw(bad, l1, field) \
            == linalg.mat_vec_raw(rows, l1, field)
        assert verify._check_certificate(g1, g2, lam, h) is None
        err = verify._check_certificate(g1, g2, lam, bad)
        found = re.match(r"^Q2\(h v\) != lam Q1\(v\) at v=(\(.*\))$",
                         err or "")
        assert found, err
        v = ast.literal_eval(found.group(1))
        assert sorted(v)[-2:] == [1, 1] and sum(v) == 2
        checked += 1
    assert checked == 4


def test_gen_ortho_basis_does_not_swallow_library_errors(monkeypatch):
    def broken(q, vectors):
        raise TypeError("a library bug")

    monkeypatch.setattr(quadform, "_couples_of", broken)
    monkeypatch.setattr(verify, "_couples_of", broken, raising=False)
    with pytest.raises(TypeError, match="a library bug"):
        verify.run_suite("gen-ortho-basis")


def test_failed_mirror_search_fails_its_pair(monkeypatch):
    # the isotropic L reductions are the only mirror searches that fix P
    mirrors = verify.mirrors

    def no_isotropic_path(q, a, b, pool=(), fixed=()):
        if fixed:
            return None
        return mirrors(q, a, b, pool, fixed)

    monkeypatch.setattr(verify, "mirrors", no_isotropic_path)
    rep = verify.run_suite("orbit-atlas", field=F3)
    assert not rep.passed
    found = re.match(r"^p=3 diag=\[1, 1, 1, -1, -1\] pair P=(\(.*?\)) "
                     r"L=(\(.*?\)) not reduced$", rep.counterexample)
    assert found, rep.counterexample
    form = quadform.QuadraticForm.diagonal(F3, [1, 1, 1, -1, -1])
    assert form.eval_raw(ast.literal_eval(found.group(2))) == 0
