"""The four benchmark workloads.

Each workload has a plan, made from the seed alone, and a runner.  The
seed picks the query streams (cycles, point pairs, arguments and their
order) and the pairs of classes compared; it never picks the (field,
dimension) cases or the classes built, so every seed does about the
same work.
Queries run in a closed loop: one caller issues the next query only
after the last one returns, in this single-threaded process.

A runner makes one pass and times every item once, in one of three
phases:

* ``build`` - cold construction of the objects the workload queries
  (``build_s``),
* ``search`` - one-off searches and full scans over the built objects
  (``stabilizer_s``),
* ``query`` - the closed-loop stream, one latency sample per query.

The build comes first; the searches are then spread evenly through the
query stream (``interleave``), so that the two sample the same stretch
of the machine's time.  ``wall_s`` is the sum of the three phases.
Oracle work (plain-int recomputation, property checks, the CLI replay)
runs outside the timed items, and each check counts once in ``Checks``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import json
import math
import random
import sys
import time

import oracles as orc

clock = time.perf_counter

LIBRARY_MODULES = ("fields", "linalg", "quadform", "geometry", "metric",
                   "classify", "models", "serialize", "cli", "verify")

# query streams are sized per this many seconds of --seconds budget
BASE_SECONDS = 15


def load_library():
    """Import the package fresh (the import is part of set-up time)."""
    for name in [n for n in sys.modules
                 if n == "conformal" or n.startswith("conformal.")]:
        del sys.modules[name]
    return {name: importlib.import_module(f"conformal.{name}")
            for name in LIBRARY_MODULES}


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class Checks:
    """Counts checked outputs; a raised exception is a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(str(what))
        return ok


class Timer:
    """The wall time of every timed item, by phase, each item timed once.
    The time ``speed`` spends sampling the machine's speed inside an
    item (hostspeed.py) is not the item's.  With ``scaled``, ``result``
    multiplies each item by the host-speed factor ``speed`` gives for
    its span."""

    def __init__(self, speed, scaled=False):
        self.items = {"build": [], "search": [], "query": []}
        self.spans = {"build": [], "search": [], "query": []}
        self.speed = speed
        self.scaled = scaled

    def run(self, phase, fn, *args, errors=()):
        t0 = clock()
        stolen = self.speed.stolen
        try:
            out = fn(*args)
        except errors as exc:
            out = exc
        t1 = clock()
        self.items[phase].append(t1 - t0 - (self.speed.stolen - stolen))
        self.spans[phase].append((t0, t1))
        return out

    def result(self, **extra):
        """The phase totals and query latencies, scaled, and unscaled."""
        scaled = self.items
        if self.scaled:
            scaled = {phase: [t * self.speed.factor(*span)
                              for t, span in zip(times, self.spans[phase])]
                      for phase, times in self.items.items()}
        return {**_totals(scaled), "unscaled": _totals(self.items), **extra}


def _totals(items):
    total = {phase: sum(times) for phase, times in items.items()}
    return {"build_s": total["build"], "stabilizer_s": total["search"],
            "wall_s": sum(total.values()), "latencies": items["query"]}


def interleave(searches, queries):
    """Run the closed-loop query stream with the searches spread evenly
    through it, one search after every len(queries)/(len(searches)+1)
    queries, so that both phases sample the same stretch of the
    machine's time.  Both are lists of thunks; returns their results."""
    found, answers = [], []
    n = len(searches) + 1
    for k in range(n):
        lo, hi = k * len(queries) // n, (k + 1) * len(queries) // n
        answers += [q() for q in queries[lo:hi]]
        if k < len(searches):
            found.append(searches[k]())
    return found, answers


def _quota(base, seconds):
    return max(1, round(base * seconds / BASE_SECONDS))


def _values(v):
    return tuple(x.value for x in (v.coords if hasattr(v, "coords") else v))


def _plain(g):
    """The geometry's form, P and L in plain integers."""
    pf = orc.PlainField(g.field.order)
    form = orc.PlainForm(pf, g.form.dim,
                         [(ij, c.value) for ij, c in g.form.coeff_items()])
    return pf, form, _values(g.p_rep), _values(g.l_rep)


def _proj(lib, field, values):
    Scalar = lib["fields"].Scalar
    return lib["geometry"].ProjPoint(tuple(Scalar(x, field) for x in values))


def _normalize(pf, v):
    lead = next(x for x in v if x)
    inv = pf.inv(lead)
    return tuple(pf.mul(inv, x) for x in v)


# ---------------------------------------------------------------------------
# atlas-sweep
# ---------------------------------------------------------------------------

# (field token, geometry dimension d); the form has dimension d+3.
# (F_7, d=4) is left out: its cold build alone takes 5-15 s, and F_5 d=4
# enumerates the same dimension 7.  Every case builds all its classes
# with Q(P) a nonzero square (and, in even dimension, unit determinant):
# three over F_5 and F_7 (one per class of Q(L)), two over F_4 that
# share one form, as classes of a real atlas sweep do.  Their costs
# differ by up to 1.8x, so the seed picks none of them: it would make
# build_s depend on the seed.
ATLAS_CASES = (("fp:5", 4), ("fp:7", 3), ("f4", 3))

# The query kinds in the proportions the library's own callers use
# them: the calls `conformal verify --all` makes at seed 0, counted with
# tracer.py (`python3 bench/callmix.py` recounts them).  incidence-
# theorems makes the antipodal and hyperplane_through calls (every point
# pair, and d = 2 points per hyperplane), projection-identity the
# points_of calls (every quadric cycle), separations the incident calls.
CALLER_MIX = (("antipodal", 1161), ("hyperplane_through", 657),
              ("points_of", 240), ("incident", 6))
# queries per case per BASE_SECONDS of budget, dealt round-robin to the
# case's classes
ATLAS_QUERIES = 80


def mix_counts(total, mix):
    """Split ``total`` queries in proportion to ``mix`` by largest
    remainder, keeping at least one query of every kind."""
    weight = sum(n for _, n in mix)
    exact = [total * n / weight for _, n in mix]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(mix)), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[:total - sum(counts)]:
        counts[i] += 1
    for i, c in enumerate(counts):
        if c == 0:
            counts[i] = 1
            counts[counts.index(max(counts))] -= 1
    return [[kind, c] for (kind, _), c in zip(mix, counts)]


def _atlas_stratum(classes):
    return [c for c in classes if c.qp.name == "UNIT"
            and c.form_invariant in (("det", "UNIT"), ("arf", 0))]


def plan_atlas(seed, seconds):
    rng = random.Random(f"atlas-sweep/{seed}")
    return {"cases": [list(case) for case in ATLAS_CASES],
            "mix": mix_counts(_quota(ATLAS_QUERIES, seconds), CALLER_MIX),
            "stream_seed": rng.randrange(1 << 62)}


class _AtlasOracle:
    """Plain-int view of one built geometry: quadric, points, hyperplanes."""

    def __init__(self, g):
        self.pf, self.form, self.P, self.L = _plain(g)
        pf, form = self.pf, self.form
        self.quadric = form.quadric()
        self.rowP = form.gram_row(self.P)
        self.rowL = form.gram_row(self.L)
        self.points = [w for w in self.quadric if orc.dot(pf, self.rowP, w) == 0]
        self.hyperplanes = [w for w in self.quadric
                            if orc.dot(pf, self.rowL, w) == 0
                            and orc.rank(pf, [w, self.P]) == 2]

    def role(self, w):
        on_p = orc.dot(self.pf, self.rowP, w) == 0
        on_l = orc.dot(self.pf, self.rowL, w) == 0
        if on_p and on_l:
            return "IDEAL"
        return "POINT" if on_p else ("HYPERPLANE" if on_l else "GENERIC_CYCLE")

    def antipodal(self, a, b):
        return orc.rank(self.pf, [a, b, self.L]) <= 2

    def points_of(self, c):
        row = self.form.gram_row(c)
        return {w for w in self.points if orc.dot(self.pf, row, w) == 0}

    def hyperplanes_through(self, pts):
        rows = [self.form.gram_row(p) for p in pts]
        return [h for h in self.hyperplanes
                if all(orc.dot(self.pf, r, h) == 0 for r in rows)]

    def ck_classes(self):
        """Points grouped by the plane they span with L."""
        groups = {}
        dim = self.form.dim
        for w in self.points:
            span = orc.kernel(self.pf, orc.kernel(self.pf, [w, self.L], dim),
                              dim)
            key = tuple(sorted(_normalize(self.pf, v) for v in span))
            groups.setdefault(key, set()).add(w)
        return {frozenset(s) for s in groups.values()}


def _atlas_stream(plan, slots, geoms, oracles):
    """Resolve the seeded stream into concrete queries with their
    expected answers (plain-int oracle).  Every case gets the same mix;
    the i-th query of a kind goes to the case's (i mod n)-th class."""
    rng = random.Random(plan["stream_seed"])
    queries = []
    for case in plan["cases"]:
        members = [gi for gi, (c, _) in enumerate(slots) if list(c) == case]
        for kind, count in plan["mix"]:
            for i in range(count):
                gi = members[i % len(members)]
                queries.append(_atlas_query(gi, kind, geoms[gi], oracles[gi],
                                            rng))
    rng.shuffle(queries)
    return queries


def _atlas_query(gi, kind, g, orac, rng):
    if kind == "points_of":
        c = rng.choice(orac.quadric)
        return gi, kind, (c,), orac.points_of(c)
    if kind == "incident":
        c1, c2 = rng.choice(orac.quadric), rng.choice(orac.quadric)
        return gi, kind, (c1, c2), orac.form.b(c1, c2) == 0
    if kind == "antipodal":
        a, b = rng.sample(orac.points, 2)
        return gi, kind, (a, b), orac.antipodal(a, b)
    return _hyperplane_query(gi, orac, rng, g.n)


def _hyperplane_query(gi, orac, rng, n):
    """n pairwise non-antipodal points through which the constraints
    single out at most one hyperplane modulo P (the library raises
    otherwise)."""
    pf = orac.pf
    for _ in range(200):
        pts = rng.sample(orac.points, n)
        if any(orac.antipodal(a, b) for i, a in enumerate(pts)
               for b in pts[i + 1:]):
            continue
        sols = orac.hyperplanes_through(pts)
        if sols and any(orc.rank(pf, [h, sols[0], orac.P]) > 2 for h in sols):
            continue
        return (gi, "hyperplane_through", tuple(pts), set(sols))
    raise RuntimeError("no admissible point set for hyperplane_through")


def _check_atlas_build(checks, cls, quad, roles, ck, orac):
    expected = orc.quadric_count(orac.pf.q, orac.form.dim,
                                 orc.witt_sign(orac.form))
    label = cls.label()
    checks.check(len(quad) == expected == len(orac.quadric),
                 f"{label}: quadric {len(quad)} vs closed form {expected}")
    checks.check({_values(p) for p in quad} == set(orac.quadric),
                 f"{label}: quadric point set")
    checks.check([r.name for r in roles] == [orac.role(_values(p)) for p in quad],
                 f"{label}: roles")
    checks.check({frozenset(_values(p) for p in c) for c in ck}
                 == orac.ck_classes(), f"{label}: antipodal classes")


def _check_atlas_answer(checks, what, kind, expected, out):
    if isinstance(out, Exception):
        checks.check(False, f"{what}: raised {out!r}")
    elif kind == "points_of":
        checks.check({_values(p) for p in out} == expected, what)
    elif kind == "hyperplane_through":
        checks.check(out is None if not expected
                     else _values(out) in expected, what)
    else:
        checks.check(out == expected, what)


def run_atlas(lib, plan, checks, timer):
    geo, cla, fields = lib["geometry"], lib["classify"], lib["fields"]
    slots = []
    for token, d in plan["cases"]:
        slots += [((token, d), cls) for cls in _atlas_stratum(
            cla.enumerate_classes(fields.field_from_token(token), d))]

    def build(cls):
        g = cla.representative_geometry(cls)
        return g, geo.lie_quadric_points(g)

    def scan(g, quad):
        return [geo.role(g, pt) for pt in quad], geo.cayley_klein_points(g)

    built = [timer.run("build", build, cls) for _, cls in slots]
    geoms = [g for g, _ in built]
    oracles = [_AtlasOracle(g) for g in geoms]
    stream = _atlas_stream(plan, slots, geoms, oracles)
    queries = [functools.partial(timer.run, "query", getattr(geo, kind),
                                 geoms[gi],
                                 *[_proj(lib, geoms[gi].field, a) for a in qa],
                                 errors=fields.ConformalError)
               for gi, kind, qa, _ in stream]
    scans, answers = interleave(
        [functools.partial(timer.run, "search", scan, g, quad)
         for g, quad in built], queries)
    for (_, cls), (_, quad), (roles, ck), orac in zip(slots, built, scans,
                                                      oracles):
        _check_atlas_build(checks, cls, quad, roles, ck, orac)
    by_kind = {}
    for (gi, kind, qa, expected), out, t in zip(stream, answers,
                                               timer.items["query"]):
        label = slots[gi][1].label()
        _check_atlas_answer(checks, f"{label} {kind} {qa}", kind, expected,
                            out)
        token, d = slots[gi][0]
        by_kind.setdefault(f"{token} d={d} {kind}", []).append(t)
    return timer.result(
        info={"geometries": [cls.label() for _, cls in slots],
              "quadric_sizes": [len(b[1]) for b in built],
              "mix_per_case": plan["mix"],
              "queries": len(stream),
              "median_ms_by_kind": {k: 1000 * sorted(v)[len(v) // 2]
                                    for k, v in sorted(by_kind.items())}},
        inputs=[[gi, kind, list(qa)] for gi, kind, qa, _ in stream])


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------

DISTANCE_FIELDS = (11, 13)
# collinear triples per class per BASE_SECONDS; each is three queries
DISTANCE_TRIPLES = 30


def _stabilizer_class(cls):
    """stabilizer_group runs once, on the class's first non-ideal line,
    for the six classes over F_11 with Q(P) != 0: two of each
    translation-group type.  The other twelve would add 12-20 s to a
    run."""
    return cls.field.order == 11 and cls.qp.name != "ZERO"


def plan_distance(seed, seconds):
    rng = random.Random(f"distance/{seed}")
    return {"cases": [[f"fp:{p}", 2] for p in DISTANCE_FIELDS],
            "triples": _quota(DISTANCE_TRIPLES, seconds),
            "full_check": rng.randrange(1 << 30),
            "stream_seed": rng.randrange(1 << 62)}


def _gamma_oracle(g, line):
    """|Gamma| by plain counting on the line space <P, l>^perp: the
    conic has q+1 points, k of them pair to 0 with L, and k = 1 exactly
    when Q(L) = 0."""
    pf, form, P, L = _plain(g)
    basis = orc.kernel(pf, [form.gram_row(P), form.gram_row(_values(line))],
                       form.dim)
    rowL = form.gram_row(L)
    count = ideal = 0
    for x in pf.projective_points(len(basis)):
        v = [0] * form.dim
        for c, b in zip(x, basis):
            v = [pf.add(s, pf.mul(c, t)) for s, t in zip(v, b)]
        if form.q(v) == 0:
            if orc.dot(pf, rowL, v) == 0:
                ideal += 1
            else:
                count += 1
    q = pf.q
    ok = (len(basis) == 3 and count + ideal == q + 1
          and (ideal == 1) == (form.q(L) == 0) and count in (q - 1, q, q + 1))
    return count, ok


def _check_lines(met, checks, plan, classes, lines, groups):
    stab = sorted(groups)
    full_at = stab[plan["full_check"] % len(stab)]
    for i, (cls, (g, gamma, line, pts)) in enumerate(zip(classes, lines)):
        if not checks.check(line is not None, f"{cls.label()}: no line"):
            continue
        expected, ok = _gamma_oracle(g, line)
        label = cls.label()
        checks.check(ok, f"{label}: line-space conic count")
        checks.check(gamma.order(g.field.order) == expected,
                     f"{label}: gamma class")
        checks.check(len(pts) == expected, f"{label}: line points")
        if i in groups:
            checks.check(len(groups[i]) == expected,
                         f"{label}: |Gamma|={len(groups[i])} "
                         f"expected {expected}")
        if i == full_at:
            _, _, full = met.stabilizer_matrices(g, line)
            checks.check(len(full) == 2 * expected,
                         f"{label}: full stabilizer {len(full)}")


def _check_triples(met, checks, classes, stream, answers):
    for t, (li, abc) in enumerate(stream):
        tab, tbc, tac = answers[3 * t:3 * t + 3]
        what = f"{classes[li].label()} triple {abc}"
        checks.check(met.compose(tbc, tab).normal_form == tac.normal_form,
                     f"{what}: additivity")
        checks.check(met.compose(tab, met.invert(tab)).is_identity(),
                     f"{what}: inverse")
        checks.check(met.same_distance(met.invert(tac), tac),
                     f"{what}: same_distance")


def run_distance(lib, plan, checks, timer):
    met, cla, fields = lib["metric"], lib["classify"], lib["fields"]
    classes = [cls for token, d in plan["cases"]
               for cls in cla.enumerate_classes(fields.field_from_token(token),
                                                d)]

    def build(cls):
        g = cla.representative_geometry(cls)
        gamma = met.gamma_class(g)
        try:
            line = met.find_nonideal_line(g)
        except met.DegenerateLineError:
            return g, gamma, None, ()
        return g, gamma, line, met.line_points(g, line)[1]

    lines = [timer.run("build", build, cls) for cls in classes]
    searched = [i for i, (cls, x) in enumerate(zip(classes, lines))
                if x[2] is not None and _stabilizer_class(cls)]
    rng = random.Random(plan["stream_seed"])
    stream = [(i, tuple(rng.randrange(len(x[3])) for _ in range(3)))
              for i, x in enumerate(lines) if len(x[3]) >= 2
              for _ in range(plan["triples"])]
    rng.shuffle(stream)
    queries = []
    for li, (a, b, c) in stream:
        g, _, line, pts = lines[li]
        queries += [functools.partial(timer.run, "query",
                                      met.translation_between, g, line,
                                      pts[p1], pts[p2])
                    for p1, p2 in ((a, b), (b, c), (a, c))]
    found, answers = interleave(
        [functools.partial(timer.run, "search", met.stabilizer_group,
                           lines[i][0], lines[i][2]) for i in searched],
        queries)
    groups = dict(zip(searched, found))
    _check_lines(met, checks, plan, classes, lines, groups)
    _check_triples(met, checks, classes, stream, answers)
    return timer.result(
        info={"lines": [cls.label() for cls, x in zip(classes, lines)
                        if x[2] is not None],
              "stabilizer_classes": [classes[i].label() for i in sorted(groups)],
              "queries": len(answers)},
        inputs=[[li, list(abc)] for li, abc in stream])


# ---------------------------------------------------------------------------
# verify-core
# ---------------------------------------------------------------------------

# The suites only `conformal verify` runs: the private mod-p orbit-atlas
# path, the exhaustive Witt oracle, and the cheap suites that span every
# field.  The other five suites would add 35-45 s to every run; distance
# and atlas-sweep cover their code.
VERIFY_SUITES = ("polarization", "witt-oracle", "orbit-atlas",
                 "projection-identity", "cycle-equivalence", "separations")
# the atlas build is the build phase and the exhaustive isotropic
# search the search phase; the other suites are the query samples
VERIFY_PHASE = {"orbit-atlas": "build", "witt-oracle": "search"}


def plan_verify(seed, seconds):
    return {"seed": seed, "cases": list(VERIFY_SUITES)}


def run_verify(lib, plan, checks, timer):
    ver = lib["verify"]
    suite_s = {}
    for name in plan["cases"]:
        phase = VERIFY_PHASE.get(name, "query")
        report = timer.run(phase, _suite, ver, name, plan["seed"])
        suite_s[name] = timer.items[phase][-1]
        checks.check(report.passed, f"{name}: {report.counterexample}")
    return timer.result(info={"suite_s": suite_s}, inputs=plan["cases"])


def _suite(ver, name, seed):
    return ver.run_suite(name, seed=seed)


# ---------------------------------------------------------------------------
# reals-cli
# ---------------------------------------------------------------------------

REAL_DIMS = (1, 2, 3, 4, 5, 6)
REAL_PAIRS = 25          # cycle_equivalent pairs per dimension
# in-process CLI calls of each kind per BASE_SECONDS
REAL_CLI = (("atlas", 24), ("table", 12), ("partners", 18), ("lift", 48),
            ("sep-d", 48), ("sep-theta", 48))
REAL_GRID = 180          # separation grid points per model, points and cycles
CURVED = ("elliptic", "hyperbolic", "parabolic")


def plan_reals(seed, seconds):
    """The seed draws the arguments; the dimension of each atlas call
    and the model of each model call cycle in a fixed order, so every
    seed does the same work."""
    rng = random.Random(f"reals-cli/{seed}")
    argvs = [_cli_argv(kind, i, rng) for kind, n in REAL_CLI
             for i in range(_quota(n, seconds))]
    grid = []
    for kind in CURVED:
        for _ in range(_quota(REAL_GRID, seconds)):
            grid.append([kind, "point", round(rng.uniform(0.05, 2.5), 6)])
            grid.append([kind, "cycle", round(rng.uniform(0.05, 2.5), 6)])
    pairs = [[d, rng.randrange(1 << 30), rng.randrange(1 << 30)]
             for d in REAL_DIMS for _ in range(_quota(REAL_PAIRS, seconds))]
    ops = [["cli", a] for a in argvs] + [["grid", x] for x in grid]
    rng.shuffle(ops)
    return {"cases": [["rational", d] for d in REAL_DIMS], "pairs": pairs,
            "ops": ops}


def _cli_argv(kind, i, rng):
    if kind == "atlas":
        return ["classify", "atlas", "--field", "rational", "--dim",
                str(REAL_DIMS[i % len(REAL_DIMS)]), "--out", "json"]
    if kind == "table":
        return ["classify", "table", "--field", "rational", "--out", "json"]
    if kind == "partners":
        spec = {"field": "rational", "dim": 2, "qP": rng.choice(orc.SIGNS),
                "qL": rng.choice(orc.SIGNS)}
        return ["classify", "partners", "--class",
                json.dumps(spec, sort_keys=True), "--out", "json"]
    model = CURVED[i % len(CURVED)]
    if kind == "lift":
        a, b = rng.uniform(0, 2 * math.pi), rng.uniform(-1.2, 1.2)
        if model == "elliptic":
            c = (math.cos(a) * math.cos(b), math.sin(a) * math.cos(b),
                 math.sin(b))
        elif model == "hyperbolic":
            c = (math.sinh(b) * math.cos(a), math.sinh(b) * math.sin(a),
                 math.cosh(b))
        else:
            c = (a, b)
        return ["examples", "lift", "--model", model,
                "--point=" + ",".join(repr(x) for x in c)]
    value = repr(round(rng.uniform(0.05, 2.5), 6))
    flag = "--d" if kind == "sep-d" else "--theta"
    return ["examples", "separation", "--model", model, f"{flag}={value}"]


def _run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _check_cli(checks, argv, code, text):
    what = " ".join(argv)
    if not checks.check(code == 0, f"{what}: exit {code}"):
        return
    data = json.loads(text)
    if argv[1] == "atlas":
        checks.check(len(data) == orc.rational_atlas_count(int(argv[5])), what)
    elif argv[1] == "table":
        checks.check(data["headers"] == list(orc.SIGNS) and
                     [tuple(r) for r in data["rows"]] == list(orc.CK_TABLE),
                     what)
    elif argv[1] == "partners":
        spec = json.loads(argv[3])
        checks.check([(r["qP"], r["qL"], r["name"]) for r in data]
                     == orc.plane_partners(spec["qP"], spec["qL"]), what)
    elif argv[1] == "lift":
        model = argv[3]
        coords = [float(x) for x in argv[4].split("=", 1)[1].split(",")]
        expected = orc.point_lift(model, coords)
        checks.check(data["model"] == model and data["role"] == "point"
                     and data["role_hint"] == "point"
                     and len(data["lift"]) == len(expected)
                     and all(abs(x - y) < 1e-12
                             for x, y in zip(data["lift"], expected)), what)
    else:
        model = argv[3]
        flag, value = argv[4].split("=")
        expected = orc.point_separation(model, float(value)) \
            if flag == "--d" else orc.cycle_separation(float(value))
        checks.check(abs(data["computed"] - expected) < 1e-9, what)


def run_reals(lib, plan, checks, timer):
    cla, fields, mod, cli = (lib["classify"], lib["fields"], lib["models"],
                             lib["cli"])
    QQ = fields.Rational()
    kinds = {k.value: k for k in mod.ModelKind}

    def build(d):
        classes = cla.enumerate_classes(QQ, d)
        geoms = [cla.representative_geometry(c) for c in classes]
        return classes, geoms, [cla.classify(g) for g in geoms]

    def grid(kind, what, x):
        k = kinds[kind]
        pair = mod.points_at_distance(k, x) if what == "point" \
            else mod.cycles_at_angle(k, x, 0.45, 0.35)
        return mod.check_separation(k, *pair)[0].value

    atlas = {d: timer.run("build", build, d) for _, d in plan["cases"]}
    pairs = []
    for d, r1, r2 in plan["pairs"]:
        geoms = atlas[d][1]
        pairs.append(functools.partial(timer.run, "search",
                                       cla.cycle_equivalent,
                                       geoms[r1 % len(geoms)],
                                       geoms[r2 % len(geoms)]))
    queries = [functools.partial(timer.run, "query", _run_cli, cli, arg)
               if op == "cli" else
               functools.partial(timer.run, "query", grid, *arg)
               for op, arg in plan["ops"]]
    equiv, answers = interleave(pairs, queries)
    _check_reals(cla, checks, plan, atlas, equiv, answers)
    # the same argv must print the same bytes: replay the CLI calls, untimed
    stdout = []
    for (op, arg), out in zip(plan["ops"], answers):
        if op == "cli":
            stdout.append(out[1])
            checks.check(_run_cli(cli, arg) == out,
                         f"{' '.join(arg)}: stdout differs on replay")
    return timer.result(
        info={"classes": {d: len(v[0]) for d, v in atlas.items()},
              "pairs": len(plan["pairs"]), "queries": len(answers),
              "cli_stdout_sha256": digest(stdout)},
        inputs=plan["ops"])


def _check_reals(cla, checks, plan, atlas, equiv, answers):
    for d, (classes, geoms, got) in atlas.items():
        checks.check(len(classes) == orc.rational_atlas_count(d),
                     f"rational d={d}: {len(classes)} classes")
        checks.check(list(got) == list(classes), f"rational d={d}: classify")
    for j, ((d, r1, r2), eq) in enumerate(zip(plan["pairs"], equiv)):
        geoms = atlas[d][1]
        i, k = r1 % len(geoms), r2 % len(geoms)
        if i == k:
            checks.check(eq, f"d={d} class {i} not self-equivalent")
        elif j % 4 == 0:  # symmetry, on a quarter of the pairs
            checks.check(eq == cla.cycle_equivalent(geoms[k], geoms[i]),
                         f"d={d} classes {i},{k}: asymmetric")
    for (op, arg), out in zip(plan["ops"], answers):
        if op == "cli":
            _check_cli(checks, arg, *out)
        else:
            kind, what, x = arg
            expected = orc.point_separation(kind, x) if what == "point" \
                else orc.cycle_separation(x)
            checks.check(abs(out - expected) < 1e-9, f"grid {arg}")


# name -> (plan, runner)
WORKLOADS = {
    "atlas-sweep": (plan_atlas, run_atlas),
    "distance": (plan_distance, run_distance),
    "verify-core": (plan_verify, run_verify),
    "reals-cli": (plan_reals, run_reals),
}
