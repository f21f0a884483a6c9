"""Differential tests of the byte-lane incidence filter.

``linalg.zero_flags`` tests one linear functional against a point set
kept as byte columns (one ``bytes`` per coordinate, one byte per
point), adding or XORing the translated columns as big ints.
``_points_in_p_perp`` keeps the P^perp points of a geometry that way
and ``points_of`` filters them with one call.  Both are checked against
the pairing scans they replaced (``ref_points_in_p_perp``,
``ref_points_of``), in order: on every quadric cycle of every plane
class over F_3/F_5/F_7 and of every d = 3 class over F_2/F_4 (the XOR
lanes), and on a seeded sample at F_5 d = 4.  ``zero_flags`` is checked
against a Scalar dot product on random columns, up to the largest lane
sum it accepts, and refuses lanes that could carry.  ``points_of``
keeps its error types, and a cap lifted past a byte still enumerates
the quadric.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conformal import linalg
from conformal.classify import enumerate_classes, representative_geometry
from conformal.fields import (ApproxReal, CharTwo, FieldMismatchError,
                              PrimeField, Rational)
from conformal.geometry import (EnumerationUnsupportedError, Geometry,
                                NotAHypercycleError, _points_in_p_perp,
                                lie_quadric_points, points_of, role)
from conformal.quadform import InvalidInputError, QuadraticForm
from reference import ref_points_in_p_perp, ref_points_of

CLASS_CASES = [(PrimeField(3), 2), (PrimeField(5), 2), (PrimeField(7), 2),
               (CharTwo(2), 3), (CharTwo(4), 3)]


def _case_id(case):
    return case.token() if not isinstance(case, int) else f"d{case}"


def _geometries(field, d):
    return [representative_geometry(cls) for cls in enumerate_classes(field, d)]


@pytest.mark.parametrize("field, d", CLASS_CASES, ids=_case_id)
def test_points_of_matches_the_scan_on_every_cycle(field, d):
    for g in _geometries(field, d):
        for c in lie_quadric_points(g):
            assert points_of(g, c) == ref_points_of(g, c), c


def test_points_of_matches_the_scan_on_a_sample_at_f5_d4():
    rng = random.Random(37)
    for g in _geometries(PrimeField(5), 4):
        quadric = lie_quadric_points(g)
        for c in rng.sample(quadric, 12):
            assert points_of(g, c) == ref_points_of(g, c), c


@pytest.mark.parametrize("field, d",
                         CLASS_CASES + [(PrimeField(5), 4), (PrimeField(7), 3)],
                         ids=_case_id)
def test_points_in_p_perp_matches_the_old_filter(field, d):
    """The points in order, and the columns holding their raw values."""
    for g in _geometries(field, d):
        points, cols = _points_in_p_perp(g)
        pairs = ref_points_in_p_perp(g)
        assert points == tuple(pt for _, pt in pairs)
        assert cols == tuple(bytes(col) for col in zip(*(x for x, _ in pairs)))
        assert _points_in_p_perp(g) is _points_in_p_perp(g)


# p = 37 at dim 7 is the largest lane sum accepted: 7 * 36 = 252
LANE_FIELDS = [PrimeField(3), PrimeField(5), PrimeField(7), PrimeField(37),
               CharTwo(2), CharTwo(4)]


@st.composite
def lane_cases(draw):
    field = draw(st.sampled_from(LANE_FIELDS))
    dim = draw(st.integers(1, 7))
    values = st.sampled_from(list(field.raw_elements))
    extreme = st.sampled_from([0, 1, len(field.raw_elements) - 1])
    entries = values | extreme
    points = draw(st.lists(st.tuples(*[entries] * dim), max_size=60))
    row = draw(st.lists(entries, min_size=dim, max_size=dim))
    return field, points, row


@settings(max_examples=300, deadline=None)
@given(lane_cases())
def test_zero_flags_matches_the_dot_product(case):
    field, points, row = case
    cols = [bytes(col) for col in zip(*points)] if points else \
        [b""] * len(row)
    scalar_row = [field.scalar(r) for r in row]
    expected = bytes(
        int(sum((r * field.scalar(x) for r, x in zip(scalar_row, point)),
                field.zero()).is_zero())
        for point in points)
    assert linalg.zero_flags(field, cols, row) == expected


def test_zero_flags_sums_every_lane_to_its_largest_value():
    """Every lane at 7 * 36 = 252 over F_37, next to lanes summing to
    zero: no lane carries into the next."""
    field = PrimeField(37)
    cols = [bytes([1, 0, 1] * 500)] * 7
    flags = linalg.zero_flags(field, cols, [36] * 7)
    assert flags == bytes([0, 1, 0] * 500)  # 252 = 30 mod 37


@pytest.mark.parametrize("field, dim", [
    (PrimeField(251), 2),   # 2 * 250 > 255
    (PrimeField(43), 7),    # 7 * 42 > 255
    (PrimeField(127), 3),   # 3 * 126 > 255
    (PrimeField(257), 1),   # a raw value past a byte
    (Rational(), 3),
    (ApproxReal(), 3),
], ids=lambda case: case.token() if not isinstance(case, int) else str(case))
def test_zero_flags_refuses_lanes_that_could_carry(field, dim):
    with pytest.raises(EnumerationUnsupportedError):
        linalg.zero_flags(field, [b"\x00\x01"] * dim, [1] * dim)


def test_points_of_keeps_its_error_types():
    f5 = PrimeField(5)
    g = representative_geometry(enumerate_classes(f5, 2)[0])
    cycle = lie_quadric_points(g)[3]
    with pytest.raises(InvalidInputError, match="5 coordinates, not 4"):
        points_of(g, (1, 0, 0, 0))
    with pytest.raises(InvalidInputError, match="zero vector"):
        points_of(g, (0,) * 5)
    with pytest.raises(InvalidInputError, match="zero vector"):
        role(g, (0,) * 5)
    off = next(x for x in linalg.all_vectors(f5, 5)
               if g.form.eval_raw(x) != 0)
    with pytest.raises(NotAHypercycleError):
        points_of(g, off)
    with pytest.raises(FieldMismatchError):
        points_of(g, tuple(PrimeField(7).scalar(a.value)
                           for a in cycle.coords))
    with pytest.raises(TypeError, match="not a coordinate over fp:5"):
        points_of(g, tuple(float(a.value) for a in cycle.coords))
    with pytest.raises(TypeError, match="not a coordinate over fp:5"):
        points_of(g, tuple(Fraction(a.value) for a in cycle.coords))
    # over Q the cycle check comes first, then the enumeration refuses
    form = QuadraticForm.diagonal(Rational(), [1, -1, 1, -1])
    gq = Geometry(form, (1, 0, 0, 0), (0, 0, 1, 0))
    with pytest.raises(EnumerationUnsupportedError):
        points_of(gq, (1, 1, 0, 0))
    with pytest.raises(NotAHypercycleError):
        points_of(gq, (1, 0, 0, 0))


def test_a_cap_lifted_past_a_byte_still_enumerates():
    """``lie_quadric_points`` builds no byte columns: F_257 enumerates
    under a lifted cap, (q + 1)^2 points on the split dim-4 quadric,
    while ``points_of`` keeps the default cap."""
    g = representative_geometry(enumerate_classes(PrimeField(257), 1)[0])
    quadric = lie_quadric_points(g, max_q=257)
    assert len(quadric) == 258 ** 2 == 66_564
    with pytest.raises(EnumerationUnsupportedError,
                       match="field size 257 exceeds the cap 7"):
        points_of(g, quadric[0])
