"""Verify suites: the orbit atlas's pinned output and mutations of its
certificate, and library errors that must not be taken for rejected input.

Each pair (P, L) is certified by its own P-normalising mirrors followed
by the reduction of its exact transported L, which is computed once per
vector and shared by every pair that reaches it.  The mutations below
break one step of that certificate and check that the suite fails.
"""

import ast
import re

import pytest

from conformal import quadform, verify
from conformal.fields import PrimeField

F3 = PrimeField(3)


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
