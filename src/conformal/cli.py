"""Command-line surface.

Subcommand groups: ``classify`` (atlas, table, partners), ``geom``
(describe, points, incident), ``metric`` (gamma, distance), ``examples``
(lift, separation), and ``verify``.  Exit codes: 0 success, 2 violated
precondition, 3 unsupported field or dimension, 64 usage errors.
Identical argv and --seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .fields import ConformalError, UnsupportedFieldError, field_from_token
from .quadform import InvalidInputError, witt_index
from importlib import import_module

cla = import_module(__package__ + ".classify")
geo = import_module(__package__ + ".geometry")
met = import_module(__package__ + ".metric")
mod = import_module(__package__ + ".models")
ser = import_module(__package__ + ".serialize")
ver = import_module(__package__ + ".verify")

USAGE_EXIT = 64
PRECONDITION_EXIT = 2
UNSUPPORTED_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_EXIT)


def _field(token: str):
    if token == cla.QUADRATICALLY_CLOSED:
        return token
    return field_from_token(token)


def _load_geometry(path: str):
    data = sys.stdin.read() if path == "-" else open(path).read()
    return ser.geometry_from_json(ser.json_loads(data))


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}")
    return value


def _finite_floats(text: str) -> list:
    return [_finite_float(part) for part in text.split(",")]


def _emit(rows, header, out_format):
    if out_format == "json":
        print(json.dumps(rows, indent=2, sort_keys=True))
    elif out_format == "tsv":
        print("\t".join(header))
        for row in rows:
            print("\t".join(str(row.get(h, "")) for h in header))
    else:
        widths = [max(len(h), *(len(str(r.get(h, ""))) for r in rows))
                  if rows else len(h) for h in header]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for row in rows:
            print("  ".join(str(row.get(h, "")).ljust(w)
                            for h, w in zip(header, widths)))


def _emit_classes(classes, out_format):
    """One row per class, as ``class_to_json`` writes it with the form
    dumped to one JSON string."""
    rows = [ser.class_to_json(c) for c in classes]
    for row in rows:
        row["form"] = json.dumps(row["form"])
    _emit(rows, ["field", "dim", "form", "qP", "qL", "name"], out_format)
    return 0


def cmd_classify_atlas(args) -> int:
    return _emit_classes(cla.enumerate_classes(_field(args.field), args.dim),
                         args.out)


def cmd_classify_table(args) -> int:
    field = _field(args.field)
    if field == cla.QUADRATICALLY_CLOSED:
        raise UnsupportedFieldError(
            "the 3x3 table is stated for the reals and odd finite fields")
    headers, rows = cla.ck_table(field)
    if args.out == "json":
        print(json.dumps({"headers": list(headers),
                          "rows": [list(r) for r in rows]}, indent=2))
        return 0
    table = [{"Q(P)\\Q(L)": h, **{headers[j]: rows[i][j] for j in range(3)}}
             for i, h in enumerate(headers)]
    _emit(table, ["Q(P)\\Q(L)"] + list(headers),
          "tsv" if args.out == "tsv" else "text")
    return 0


def cmd_classify_partners(args) -> int:
    spec = ser.json_loads(args.cls)
    sym = cla.CLASS_OF_SYMBOL
    try:
        token, dim = spec["field"], int(spec.get("dim", 2))
        qp, ql = sym[str(spec["qP"])], sym[str(spec["qL"])]
    except (KeyError, TypeError, ValueError, OverflowError):
        raise InvalidInputError(
            '--class wants {"field": token, "dim": d, "qP": s, "qL": s} '
            'with s one of 0, 1, e, -1') from None
    field = _field(token)
    if field == cla.QUADRATICALLY_CLOSED:
        raise UnsupportedFieldError("no partner structure for this field")
    match = [c for c in cla.enumerate_classes(field, dim)
             if c.qp is qp and c.ql is ql
             and (spec.get("form") is None
                  or list(c.form_invariant) == spec["form"])]
    if not match:
        raise ConformalError(f"no atlas class matches {spec}")
    return _emit_classes([p for c in match
                          for p in cla.cycle_equivalence_partners(c)],
                         args.out)


def cmd_geom_describe(args) -> int:
    g = _load_geometry(args.geom)
    out = {"field": g.field.token(), "n": g.n,
           "Q(P)": ser.scalar_to_json(g.qp()),
           "Q(L)": ser.scalar_to_json(g.ql())}
    if g.field.is_exact:
        cls = cla.classify(g)
        out["class"] = ser.class_to_json(cls)
        out["witt_index"] = witt_index(g.form)
        out["non_degenerate"] = geo.non_degenerate_geometry(g)
        if g.field.char != 2:
            out["non_empty"] = geo.non_empty(g)
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_geom_points(args) -> int:
    g = _load_geometry(args.geom)
    pts = geo.lie_quadric_points(g, max_q=args.max_q)
    rows = []
    for p in pts:
        rows.append({"point": json.dumps(ser.vector_to_json(p.coords)),
                     "role": geo.role(g, p).value})
    _emit(rows, ["point", "role"], args.out)
    return 0


def cmd_geom_incident(args) -> int:
    g = _load_geometry(args.geom)
    c1 = ser.parse_vector_text(g.field, args.c1)
    c2 = ser.parse_vector_text(g.field, args.c2)
    print(f"incident: {str(geo.incident(g, c1, c2)).lower()}")
    return 0


def cmd_metric_gamma(args) -> int:
    g = _load_geometry(args.geom)
    translations = met.gamma_class(g)
    rotations = met.gamma_class(g.dual())
    out = {"translations": translations.value, "rotations": rotations.value}
    if g.field.is_finite:
        q = g.field.order
        out["translation_order"] = translations.order(q)
        out["rotation_order"] = rotations.order(q)
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_metric_distance(args) -> int:
    g = _load_geometry(args.geom)
    line = ser.parse_vector_text(g.field, args.line)
    p1 = ser.parse_vector_text(g.field, args.p1)
    p2 = ser.parse_vector_text(g.field, args.p2)
    motion = met.translation_between(g, line, p1, p2)
    print(json.dumps(ser.motion_to_json(motion), indent=2, sort_keys=True))
    return 0


def _model_kind(name: str):
    for kind in mod.ModelKind:
        if kind.value == name:
            return kind
    raise UnsupportedFieldError(f"unknown model {name!r}; choose from "
                                f"{sorted(k.value for k in mod.ModelKind)}")


def cmd_examples_lift(args) -> int:
    kind = _model_kind(args.model)
    if args.point:
        obj = mod.lift_point(kind, args.point, n=args.n)
    elif args.cycle:
        obj = mod.lift_cycle(kind, args.cycle, args.radius, n=args.n)
    else:
        obj = mod.lift_line(kind, args.line, offset=args.offset, n=args.n)
    g = mod.model_geometry(kind, args.n)
    print(json.dumps({
        "model": kind.value,
        "role_hint": obj.role_hint,
        "lift": [x.value for x in obj.lift],
        "role": geo.role(g, obj.lift).value,
    }, indent=2, sort_keys=True))
    return 0


def cmd_examples_separation(args) -> int:
    kind = _model_kind(args.model)
    if args.theta is not None:
        o1, o2 = mod.cycles_at_angle(kind, args.theta, args.r1, args.r2)
    else:
        o1, o2 = mod.points_at_distance(kind, args.d)
    value, expected = mod.check_separation(kind, o1, o2)
    print(json.dumps({"model": kind.value,
                      "computed": value.value,
                      "closed_form": expected,
                      "difference": abs(value.value - expected)},
                     indent=2, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    options = {"seed": args.seed}
    if args.field:
        options["field"] = _field(args.field)
    names = sorted(ver.SUITES) if args.all else [args.suite]
    ver.check_field(names, options.get("field"))
    reports = []
    for name in names:
        report = ver.run_suite(name, **options)
        reports.append(report)
        if args.out == "json":
            continue
        print(report.line())
        if args.verbose:
            for detail in report.details:
                print(f"    {detail}")
    if args.out == "json":
        print(json.dumps([{"suite": r.suite, "passed": r.passed,
                           "details": r.details,
                           "counterexample": r.counterexample}
                          for r in reports], indent=2, sort_keys=True))
    return 0 if all(r.passed for r in reports) else PRECONDITION_EXIT


def _common_options() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--out", choices=("text", "json", "tsv"),
                        default=argparse.SUPPRESS)
    return common


def build_parser() -> _Parser:
    common = _common_options()
    # a parser of its own: set_defaults rewrites the defaults of the
    # option objects a parent shares, and the leaves must keep SUPPRESS
    # so that an option given before the command survives
    parser = _Parser(prog="conformal", parents=[_common_options()],
                     description="universal conformal geometries: "
                                 "construction, classification, measurement")
    parser.set_defaults(seed=0, out="text")
    sub = parser.add_subparsers(dest="group", required=True)

    def leaf(group_sub, name):
        return group_sub.add_parser(name, parents=[common])

    p_cl = sub.add_parser("classify", help="atlases and tables")
    cl_sub = p_cl.add_subparsers(dest="command", required=True)
    p = leaf(cl_sub, "atlas")
    p.add_argument("--field", required=True,
                   help="rational | fp:<p> | f2 | f4 | qclosed")
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(func=cmd_classify_atlas)
    p = leaf(cl_sub, "table")
    p.add_argument("--field", required=True)
    p.set_defaults(func=cmd_classify_table)
    p = leaf(cl_sub, "partners")
    p.add_argument("--class", dest="cls", required=True,
                   help='JSON like {"field":"fp:5","dim":2,"qP":"1","qL":"1"}')
    p.set_defaults(func=cmd_classify_partners)

    p_geom = sub.add_parser("geom", help="geometry files")
    geom_sub = p_geom.add_subparsers(dest="command", required=True)
    p = leaf(geom_sub, "describe")
    p.add_argument("--geom", required=True, help="geometry JSON file, or -")
    p.set_defaults(func=cmd_geom_describe)
    p = leaf(geom_sub, "points")
    p.add_argument("--geom", required=True)
    p.add_argument("--max-q", type=int, dest="max_q", default=geo.MAX_ENUM_Q)
    p.set_defaults(func=cmd_geom_points)
    p = leaf(geom_sub, "incident")
    p.add_argument("--geom", required=True)
    p.add_argument("--c1", required=True, help="comma-separated coordinates")
    p.add_argument("--c2", required=True)
    p.set_defaults(func=cmd_geom_incident)

    p_met = sub.add_parser("metric", help="translation groups and distance")
    met_sub = p_met.add_subparsers(dest="command", required=True)
    p = leaf(met_sub, "gamma")
    p.add_argument("--geom", required=True)
    p.set_defaults(func=cmd_metric_gamma)
    p = leaf(met_sub, "distance")
    p.add_argument("--geom", required=True)
    p.add_argument("--line", required=True)
    p.add_argument("--p1", required=True)
    p.add_argument("--p2", required=True)
    p.set_defaults(func=cmd_metric_distance)

    p_ex = sub.add_parser("examples", help="the classical real models")
    ex_sub = p_ex.add_subparsers(dest="command", required=True)
    p = leaf(ex_sub, "lift")
    p.add_argument("--model", required=True)
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--point", type=_finite_floats)
    what.add_argument("--cycle", type=_finite_floats)
    what.add_argument("--line", type=_finite_floats)
    p.add_argument("--radius", type=_finite_float, default=1.0)
    p.add_argument("--offset", type=_finite_float, default=0.0)
    p.add_argument("--n", type=int, default=2)
    p.set_defaults(func=cmd_examples_lift)
    p = leaf(ex_sub, "separation")
    p.add_argument("--model", required=True)
    p.add_argument("--d", type=_finite_float, default=1.0)
    p.add_argument("--theta", type=_finite_float)
    p.add_argument("--r1", type=_finite_float, default=0.45)
    p.add_argument("--r2", type=_finite_float, default=0.35)
    p.set_defaults(func=cmd_examples_separation)

    p_ver = sub.add_parser("verify", parents=[common],
                            help="brute-force verification suites")
    which = p_ver.add_mutually_exclusive_group(required=True)
    which.add_argument("--suite", choices=sorted(ver.SUITES))
    which.add_argument("--all", action="store_true")
    p_ver.add_argument("--field")
    p_ver.add_argument("--verbose", action="store_true")
    p_ver.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> _Parser:
    """build_parser(), once per process: building costs more than most
    commands, and parsing leaves the parser unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (UnsupportedFieldError, geo.EnumerationUnsupportedError) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return UNSUPPORTED_EXIT
    except ConformalError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return PRECONDITION_EXIT
    except OverflowError as exc:  # a finite float too large for the model
        print(f"precondition violated: value out of range ({exc})",
              file=sys.stderr)
        return PRECONDITION_EXIT
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PRECONDITION_EXIT


if __name__ == "__main__":
    sys.exit(main())
