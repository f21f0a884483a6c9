"""JSON (de)serialization for forms, geometries and motion elements.

Forms travel as ``{"dim": n, "coeffs": [[i, j, value], ...]}`` with the
diagonal shorthand ``[a1, ..., an]`` accepted wherever a form is parsed;
geometries as ``{"field": token, "form": ..., "P": [...], "L": [...]}``.
Scalars are JSON numbers, fraction strings ("2/3"), or the F_4 names
("t", "t+1").  Input of any other shape raises
:class:`~conformal.quadform.InvalidInputError`.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .fields import Field, Scalar, field_from_token
from .geometry import Geometry
from .metric import MotionElement
from .quadform import InvalidInputError, QuadraticForm


def json_loads(text: str):
    """``json.loads`` raising InvalidInputError on malformed text."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"malformed JSON: {exc}") from None


def scalar_to_json(s: Scalar):
    v = s.value
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if s.field.char == 2:
        return s.field.format_value(v)
    return v


def scalar_from_json(field: Field, obj) -> Scalar:
    """A string through ``field.parse``, a number by the coordinate rule."""
    try:
        return field.parse(obj) if isinstance(obj, str) else field.scalar(obj)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise InvalidInputError(
            f"not an element of {field}: {obj!r}") from None


def form_to_json(q: QuadraticForm) -> dict:
    return {"dim": q.dim,
            "coeffs": [[i, j, scalar_to_json(c)]
                       for (i, j), c in q.coeff_items()]}


def form_from_json(field: Field, obj) -> QuadraticForm:
    if isinstance(obj, list):  # diagonal shorthand
        return QuadraticForm.diagonal(
            field, [scalar_from_json(field, x) for x in obj])
    if not (isinstance(obj, dict) and type(obj.get("dim")) is int
            and isinstance(obj.get("coeffs"), list)
            and all(isinstance(t, list) and len(t) == 3
                    and isinstance(t[0], int) and isinstance(t[1], int)
                    for t in obj["coeffs"])):
        raise InvalidInputError('a form is [a1, ..., an] or '
                                '{"dim": n, "coeffs": [[i, j, c], ...]}')
    return QuadraticForm(field, obj["dim"], [
        ((i, j), scalar_from_json(field, v)) for i, j, v in obj["coeffs"]])


def vector_to_json(v) -> list:
    return [scalar_to_json(x) for x in v]


def vector_from_json(field: Field, obj):
    if not isinstance(obj, list):
        raise InvalidInputError(f"a vector is a JSON array, not {obj!r}")
    return tuple(scalar_from_json(field, x) for x in obj)


def parse_vector_text(field: Field, text: str):
    """Comma-separated or JSON-array coordinates."""
    text = text.strip()
    if text.startswith("["):
        return vector_from_json(field, json_loads(text))
    return tuple(scalar_from_json(field, part.strip())
                 for part in text.split(","))


def geometry_to_json(g: Geometry) -> dict:
    return {"field": g.field.token(),
            "form": form_to_json(g.form),
            "P": vector_to_json(g.p_rep),
            "L": vector_to_json(g.l_rep)}


def geometry_from_json(obj) -> Geometry:
    keys = ("field", "form", "P", "L")
    if not isinstance(obj, dict) or any(k not in obj for k in keys):
        raise InvalidInputError(
            "a geometry is a JSON object with keys " + ", ".join(keys))
    field = field_from_token(obj["field"])
    form = form_from_json(field, obj["form"])
    return Geometry(form,
                    vector_from_json(field, obj["P"]),
                    vector_from_json(field, obj["L"]))


def motion_to_json(m: MotionElement) -> dict:
    return {"class": m.group_class.value,
            "normal_form": [scalar_to_json(x) for x in m.normal_form],
            "matrix": [[scalar_to_json(x) for x in row] for row in m.matrix]}


def class_to_json(cls) -> dict:
    return {"field": cls.field_token,
            "dim": cls.geom_dim,
            "form": list(cls.form_invariant),
            "qP": cls.symbol(cls.qp),
            "qL": cls.symbol(cls.ql),
            "name": cls.name}
