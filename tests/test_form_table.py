"""The coefficient table of ``QuadraticForm``.

A form keeps one table, ``_terms``: raw values, sorted by slot, zeros
dropped.  ``QuadraticForm(field, dim, coeffs)`` coerces each value once
and ``QuadraticForm._of`` takes raw values as they are; both end in the
same index check.  ``coeff``, ``coeff_items``, ``bilinear_matrix`` and
``repr`` wrap on the way out.  The tests check that the two
constructors build one form, that the builds on raw values
(``restrict_raw``, ``scaled``, ``direct_sum``, ``_off_radical`` and the
char2-lemmas tables) match the Scalar builds in ``reference.py`` and
make no ``Scalar``, that the forms the classification and the verify
suites build are the pinned ones, and that the methods the benchmark's
tracer wraps and the names its runner reads still exist.
"""

import ast
import hashlib
import importlib
import pathlib
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conformal import geometry, verify
from conformal.classify import (canonical_form, enumerate_classes,
                                representative_geometry, second_model)
from conformal.fields import (ApproxReal, CharTwo, PrimeField, Rational,
                              Scalar, SquareClass)
from conformal.quadform import (InvalidInputError, QuadraticForm,
                                _off_radical, _radical, bilinear_radical)
from reference import ref_direct_sum, ref_off_radical, ref_scaled

QQ = Rational()
F2, F4 = CharTwo(2), CharTwo(4)
FIELDS = [QQ, PrimeField(3), PrimeField(5), PrimeField(7), F2, F4,
          ApproxReal()]


def elements(field):
    if isinstance(field, Rational):
        return st.builds(field.scalar, st.fractions(max_denominator=50))
    if isinstance(field, ApproxReal):
        # 0 or well clear of the tolerance, so a 1e-12 nudge keeps the slot
        return st.builds(field.scalar, st.just(0.0) | st.floats(
            -1e3, 1e3).filter(lambda x: abs(x) > 1e-6))
    return st.sampled_from(list(field.elements()))


@st.composite
def scalar_tables(draw, field):
    """(dim, {(i, j): Scalar}) over the field, zeros included."""
    dim = draw(st.integers(1, 5))
    slots = [(i, j) for i in range(dim) for j in range(i, dim)]
    chosen = draw(st.lists(st.sampled_from(slots), unique=True))
    return dim, {ij: draw(elements(field)) for ij in chosen}


def same(a: Scalar, b: Scalar) -> bool:
    if a.field is not b.field:
        return False
    if isinstance(a.value, float):
        return struct.pack("<d", a.value) == struct.pack("<d", b.value)
    return type(a.value) is type(b.value) and a.value == b.value


def same_form(a: QuadraticForm, b: QuadraticForm) -> bool:
    items_a, items_b = a.coeff_items(), b.coeff_items()
    return (a.field is b.field and a.dim == b.dim
            and [ij for ij, _ in items_a] == [ij for ij, _ in items_b]
            and all(same(x, y) for (_, x), (_, y) in zip(items_a, items_b)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_raw_and_scalar_builds_are_one_form(data):
    field = data.draw(st.sampled_from(FIELDS))
    dim, scalars = data.draw(scalar_tables(field))
    a = QuadraticForm(field, dim, scalars)
    b = QuadraticForm._of(field, dim,
                          [(ij, s.value) for ij, s in scalars.items()])
    assert a == b and b == a
    if field.is_exact:
        assert hash(a) == hash(b)
    assert repr(a) == repr(b)
    assert same_form(a, b)
    for i in range(dim):
        for j in range(dim):
            assert same(a.coeff(i, j), b.coeff(i, j))
    assert all(same(x, y) for ra, rb in zip(a.bilinear_matrix(),
                                            b.bilinear_matrix())
               for x, y in zip(ra, rb))
    x = [s.value for s in data.draw(st.tuples(*[elements(field)] * dim))]
    assert same(Scalar(a.eval_raw(x), field), Scalar(b.eval_raw(x), field))
    if not field.is_exact:
        nudged = QuadraticForm._of(field, dim, [
            (ij, s.value + 1e-12) for ij, s in scalars.items()])
        assert nudged == a
        for q in (a, b, nudged) if a.coeff_items() else ():
            with pytest.raises(TypeError):
                hash(q)


@pytest.mark.parametrize("build", [QuadraticForm, QuadraticForm._of],
                         ids=["scalar", "raw"])
@pytest.mark.parametrize("dim,pairs", [
    (0, []), (-1, []), (True, [((0, 0), 1)]), (2.0, [((0, 0), 1)]),
    (2, [((0, 2), 1)]), (2, [((1, 0), 1)]), (2, [((-1, 0), 1)]),
    (2, [((True, True), 1)]), (2, [((0, 0.0), 1)]),
    (2, [((0, 0), 1), ((0, 0), 2)]), (2, [((1, 1), 0), ((1, 1), 0)]),
], ids=["dim-0", "dim-neg", "dim-bool", "dim-float", "out-of-range", "lower",
        "negative", "bool", "float", "repeated", "repeated-zero"])
def test_bad_tables_are_rejected_by_both_constructors(build, dim, pairs):
    with pytest.raises(InvalidInputError):
        build(PrimeField(5), dim, pairs)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_raw_builds_match_the_scalar_builds(data):
    """``scaled``, ``direct_sum`` and ``_off_radical`` against the
    Scalar builds they replaced (``restrict`` is checked against
    ``ref_restrict`` in test_kernel.py)."""
    field = data.draw(st.sampled_from(FIELDS))
    q = QuadraticForm(field, *data.draw(scalar_tables(field)))
    other = QuadraticForm(field, *data.draw(scalar_tables(field)))
    c = data.draw(elements(field) | st.integers(-3, 3))
    assert same_form(q.scaled(c), ref_scaled(q, c))
    assert same_form(q.direct_sum(other), ref_direct_sum(q, other))
    rad = _radical(q) if field.is_exact else None
    if rad is not None and len(rad) < q.dim:
        assert same_form(_off_radical(q, rad),
                         ref_off_radical(q, bilinear_radical(q)))


def _scalars_built(fn) -> int:
    count = 0
    init = Scalar.__init__

    def counting(self, value, field):
        nonlocal count
        count += 1
        init(self, value, field)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Scalar, "__init__", counting)
        fn()
    return count


def test_builds_on_raw_values_make_no_scalars():
    f5 = PrimeField(5)
    cases = [
        (QuadraticForm(f5, 4, {(0, 0): 2, (0, 3): 1, (1, 2): 3, (3, 3): 4}),
         [(1, 2, 0, 4), (0, 1, 1, 0), (3, 0, 0, 1)]),
        (QuadraticForm(QQ, 3, {(0, 0): Fraction(1, 2), (0, 1): 3,
                               (2, 2): Fraction(-5, 7)}),
         [(Fraction(1, 3), 2, 0), (0, 1, Fraction(-1, 2))]),
        (QuadraticForm(F4, 3, {(0, 0): 2, (0, 1): 1, (1, 2): 3}),
         [(1, 2, 3), (0, 3, 1)]),
    ]
    for q, basis in cases:
        assert _scalars_built(lambda: q.restrict_raw(basis)) == 0
        assert _scalars_built(lambda: q.direct_sum(q)) == 0
        assert _scalars_built(lambda: q.scaled(3)) <= 1
    degenerate = QuadraticForm(F2, 3, {(0, 0): 1, (1, 2): 1})
    rad = _radical(degenerate)
    assert rad and _scalars_built(lambda: _off_radical(degenerate, rad)) == 0
    assert _scalars_built(lambda: list(verify._all_forms(F4, 2))) == 0
    assert _scalars_built(lambda: list(verify._all_forms(F2, 3))) == 0
    assert _scalars_built(lambda: list(verify._sampled_forms(
        F4, 4, 20, random.Random(0)))) == 0
    # the point path: a ProjPoint keeps raw values, so the cold quadric,
    # P^perp, the antipodal classes, the roles and one cycle's points
    # of a representative built beforehand wrap nothing
    for field, d in ((PrimeField(5), 2), (PrimeField(7), 3), (F4, 3)):
        g = representative_geometry(enumerate_classes(field, d)[0])

        def walk():
            quadric = geometry.lie_quadric_points(g)
            geometry._points_in_p_perp(g)
            geometry.cayley_klein_points(g)
            for pt in quadric:
                geometry.role(g, pt)
            geometry.points_of(g, quadric[len(quadric) // 2])
        assert _scalars_built(walk) == 0, (field, d)


def test_traced_quadform_methods_exist():
    """``bench/tracer.py`` wraps these by ``cls.__dict__[name]``, and
    ``bench/run.py`` reads the recorder by dotted name (``rec.calls``,
    ``rec.self_s``): each name must be a module function or a class
    method of ``conformal``, or its count reads 0.  Both files are
    parsed, not imported."""
    bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
    tree = ast.parse((bench / "tracer.py").read_text())
    table = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["CLASS_METHODS"])
    names = table["quadform"]["QuadraticForm"]
    assert names and all(name in QuadraticForm.__dict__ for name in names)
    read = [node.args[0] for node in ast.walk(ast.parse(
                (bench / "run.py").read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("calls", "self_s")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "rec"]
    assert len(read) == 14
    for arg in read:
        assert isinstance(arg, ast.Constant)
        module, *path = arg.value.split(".")
        obj = importlib.import_module(f"conformal.{module}")
        for attr in path:
            assert attr in vars(obj), arg.value
            obj = vars(obj)[attr]
        assert callable(obj), arg.value


# The raw-arithmetic fast paths that test a field class (module, function)
# and how many such tests each makes; every other choice between fields
# reads char, is_finite, is_exact or quadform.invariant_kind.
FIELD_CLASS_TESTS = {("linalg", "mat_vec_raw"): 1, ("linalg", "_reduce"): 1,
                     ("linalg", "_lane_tables"): 1,
                     ("linalg", "zero_flags"): 1,
                     ("quadform", "_fill"): 2}
FIELD_CLASSES = {"PrimeField", "CharTwo", "Rational", "ApproxReal"}


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | \
        {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def test_field_classes_are_tested_only_in_the_fast_paths():
    """Outside ``fields.py`` no code branches on a concrete field class,
    apart from the raw fast paths of FIELD_CLASS_TESTS, and none tests
    a class's field token (``field_token ==`` or ``.startswith`` on a
    token): the source is parsed, not imported."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "conformal"
    found, token_tests = {}, []
    for path in sorted(src.glob("*.py")):
        if path.name == "fields.py":
            continue
        module = path.stem

        def visit(node, func):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = node.name
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "isinstance" \
                    and _names(node.args[1]) & FIELD_CLASSES:
                found[module, func] = found.get((module, func), 0) + 1
            if isinstance(node, ast.Compare) and "field_token" in _names(node):
                token_tests.append((module, func, ast.unparse(node)))
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "startswith" \
                    and any("token" in name
                            for name in _names(node.func.value)):
                token_tests.append((module, func, ast.unparse(node)))
            for child in ast.iter_child_nodes(node):
                visit(child, func)

        visit(ast.parse(path.read_text()), None)
    assert found == FIELD_CLASS_TESTS
    assert token_tests == []


RESCALING_RULE = {"rescaled", "_canonical_pair"}


def test_the_rescaling_rule_is_stated_once():
    """Outside ``quadform.py`` (where ``rescaled`` lives), ``rescaled``
    and ``_canonical_pair`` are referenced only inside
    ``classify._normal``, so no caller re-inlines the rule: imports and
    definitions are no references.  The source is parsed, not imported."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "conformal"
    found = set()
    for path in sorted(src.glob("*.py")):
        if path.name == "quadform.py":
            continue

        def visit(node, func):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = node.name
            if (isinstance(node, ast.Name) and node.id in RESCALING_RULE
                    or isinstance(node, ast.Attribute)
                    and node.attr in RESCALING_RULE):
                found.add((path.stem, func))
            for child in ast.iter_child_nodes(node):
                visit(child, func)

        visit(ast.parse(path.read_text()), None)
    assert found == {("classify", "_normal")}


# The functions of ``metric.py`` that may name a LineGroupClass member:
# the classification, the chart construction, the group law with its
# reader, and the per-kind steps of a translation.  ``compose``,
# ``invert``, ``is_identity`` and ``same_distance`` go through the chart
# matrix.
GROUP_LAW_READERS = {
    "LineGroupClass.order", "gamma_class", "Chart.__init__", "build_chart",
    "_build_additive_chart", "_chart_matrix", "_normal_form_of_matrix",
    "_point_coords", "translation_between", "motion_from_normal_form"}


def test_the_group_law_is_stated_once():
    """In ``metric.py`` only ``GROUP_LAW_READERS`` name a member of
    ``LineGroupClass``, so no group operation writes the law of each
    kind again.  The source is parsed, not imported."""
    path = pathlib.Path(__file__).resolve().parents[1] / "src" / "conformal"
    found = set()

    def visit(node, scope, func):
        if isinstance(node, ast.ClassDef):
            scope = node.name
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = f"{scope}.{node.name}" if scope else node.name
            scope = None
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "LineGroupClass":
            found.add(func)
        for child in ast.iter_child_nodes(node):
            visit(child, scope, func)

    visit(ast.parse((path / "metric.py").read_text()), None, None)
    assert found == GROUP_LAW_READERS


def _scalar_call(node) -> bool:
    """Is node ``<x>.scalar(...)`` or ``<x>.scalar(...).value``, or a
    conditional with such a branch?"""
    if isinstance(node, ast.IfExp):
        return _scalar_call(node.body) or _scalar_call(node.orelse)
    if isinstance(node, ast.Attribute) and node.attr == "value":
        node = node.value
    return isinstance(node, ast.Call) \
        and isinstance(node.func, ast.Attribute) and node.func.attr == "scalar"


def test_vectors_cross_the_boundary_one_way():
    """Outside ``fields.py`` and ``linalg.raw_values`` no comprehension
    reads a vector one ``scalar`` call at a time: a public vector is
    read by ``raw_values`` (or ``linalg.vector``, which maps
    ``Field.scalar``).  And no raw tuple is wrapped through the
    coordinate rule: the package never calls ``linalg.vector``, and a
    raw tuple, the model lifts' floats included, is wrapped by
    ``Scalar(v, field)``."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "conformal"
    loops, vector_calls = [], []
    for path in sorted(src.glob("*.py")):
        if path.name == "fields.py":
            continue
        module = path.stem

        def visit(node, func):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = node.name
            if isinstance(node, (ast.ListComp, ast.SetComp,
                                 ast.GeneratorExp)) \
                    and _scalar_call(node.elt) \
                    and (module, func) != ("linalg", "raw_values"):
                loops.append((module, func, ast.unparse(node)))
            if isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "vector"
                    or isinstance(node.func, ast.Name)
                    and node.func.id == "vector"):
                arg = node.args[1]
                vector_calls.append((module, func, arg.id if isinstance(
                    arg, ast.Name) else ast.unparse(arg)))
            for child in ast.iter_child_nodes(node):
                visit(child, func)

        visit(ast.parse(path.read_text()), None)
    assert loops == []
    assert vector_calls == []


def test_no_tolerance_parameter_outside_fields():
    """The float tolerance is a parameter of ``ApproxReal`` alone: no
    function of the package outside ``fields.py`` takes ``eps``."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "conformal"
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "fields.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args
                         + args.kwonlyargs]
                if "eps" in names:
                    found.append((path.stem, getattr(node, "name", None)))
    assert found == []


def _pinned_forms():
    """The canonical forms of the atlases, the second models of the F_3
    and F_5 plane classes with Q(P) != 0, the gen-ortho-basis suite's
    forms and the char2-lemmas tables (all of F_2 dim 3 and F_4 dim 2,
    and the F_4 sample at seed 0)."""
    for field, dims in ((QQ, range(1, 5)), (PrimeField(3), range(1, 5)),
                        (PrimeField(5), range(1, 5)),
                        (PrimeField(7), range(1, 5))):
        for d in dims:
            for inv in dict.fromkeys(c.form_invariant
                                     for c in enumerate_classes(field, d)):
                yield canonical_form(field, d, inv)
    for field in (F2, F4):
        for arf in (0, 1):
            yield canonical_form(field, 3, ("arf", arf))
    for p in (3, 5):
        for cls in enumerate_classes(PrimeField(p), 2):
            if cls.qp is not SquareClass.ZERO:
                yield second_model(representative_geometry(cls)).form
    yield from verify._gen_ortho_forms()
    yield from verify._all_forms(F2, 3)
    yield from verify._all_forms(F4, 2)
    rng = random.Random(0)
    for dim in (4, 5):
        yield from verify._sampled_forms(F4, dim, 800, rng)


# recorded with the three-table form (a dict and a tuple of Scalars
# beside the raw terms), every coefficient coerced by field.scalar
FORMS_DIGEST = \
    "432cf9ffe27b57fd96102f699d218d6207f5e0084e5f3232bee3df357d35bd19"


def test_built_forms_are_pinned():
    digest = hashlib.sha256()
    for q in _pinned_forms():
        digest.update(repr((q.field.token(), q.dim, repr(q),
                            [(ij, c.value) for ij, c in q.coeff_items()]))
                      .encode())
    assert digest.hexdigest() == FORMS_DIGEST
