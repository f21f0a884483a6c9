"""The repository benchmark: one command, four seeded workloads.

    python3 bench/run.py --workload atlas-sweep --seed 1 --seconds 15 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced run.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record (run
environment, sample counts, check failures, input digests) goes to
``bench/results/``.  Every end-to-end time is scaled by the host-speed
factor of the stretch of the run it was measured in (hostspeed.py).  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

SETUP_REPEATS = 11


def _fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def environment(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sources = hashlib.sha256()
    pkg = os.path.join(SRC, "conformal")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                sources.update(name.encode() + b"\0" + fh.read())
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "commit": _commit(),
            "source_sha256": sources.hexdigest(), "seed": seed}


def _commit():
    """HEAD of the checkout when it is a git repository, else unknown."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(samples, p):
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def setup(wl, plan_fn, seed, seconds, timer):
    """Import the package fresh and make the plan, SETUP_REPEATS times,
    each timed as one query of ``timer``; set-up time is their median."""
    for _ in range(SETUP_REPEATS):
        gc.collect()
        lib, plan = timer.run("query", _load, wl, plan_fn, seed, seconds)
    return lib, plan


def _load(wl, plan_fn, seed, seconds):
    return wl.load_library(), plan_fn(seed, seconds)


def determinism(wl, plan_fn, seed, seconds, plan, checks):
    """Same seed, same inputs; another seed, other streams, same cases."""
    again = plan_fn(seed, seconds)
    checks.check(wl.digest(again) == wl.digest(plan),
                 "plan differs for one seed")
    other = plan_fn(seed + 1, seconds)
    checks.check(other.get("cases") == plan.get("cases"),
                 "another seed changed the cases")
    checks.check(wl.digest(other) != wl.digest(plan),
                 "another seed left the streams unchanged")
    return wl.digest(plan)


def op_ns(lib, reps=5, n=3000):
    """Scalar add/mul/eq mix per field, ns per operation (median of reps)."""
    fields = lib["fields"]
    out = {}
    for name, field in (("rational", fields.Rational()),
                        ("fp7", fields.PrimeField(7)),
                        ("fp13", fields.PrimeField(13)),
                        ("f4", fields.CharTwo(4))):
        rng = random.Random(name)
        if name == "rational":
            vals = [field.scalar(rng.randrange(1, 50)) / field.scalar(
                rng.randrange(1, 50)) for _ in range(64)]
        else:
            vals = [fields.Scalar(rng.randrange(field.order), field)
                    for _ in range(64)]
        a = [vals[i % 64] for i in range(n)]
        b = [vals[(7 * i + 3) % 64] for i in range(n)]
        times = []
        for _ in range(reps):
            t0 = time.perf_counter_ns()
            for x, y in zip(a, b):
                s = x + y
                m = x * y
                s == m
            times.append((time.perf_counter_ns() - t0) / (3 * n))
        out[name] = statistics.median(times)
    return out


def end_to_end(res, setup_s, checks):
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"setup_s": (setup_s, "s"),
            "wall_s": (res["wall_s"], "s"),
            "build_s": (res["build_s"], "s"),
            "stabilizer_s": (res["stabilizer_s"], "s"),
            "query_p50_ms": (1000 * percentile(res["latencies"], 50), "ms"),
            "query_p95_ms": (1000 * percentile(res["latencies"], 95), "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
            "pass_ratio": ((checks.attempted - checks.failed)
                           / checks.attempted, "ratio")}


def per_layer(rec, ops, suites, suite_s, overhead):
    m = {f"fields.op_ns.{k}": (v, "ns") for k, v in ops.items()}
    m["fields.token_calls"] = (rec.token_count(), "count")
    calls, self_s = rec.layer("linalg")
    m.update({"linalg.self_s": (self_s, "s"), "linalg.calls": (calls, "count"),
              "linalg.rref.calls": (rec.calls("linalg.rref"), "count"),
              "linalg.kernel_basis.calls":
                  (rec.calls("linalg.kernel_basis"), "count"),
              "linalg.projective_points.yielded":
                  (rec.yielded["linalg.projective_points"], "count")})
    m.update({"quadform.self_s": (rec.layer("quadform")[1], "s"),
              "quadform.Q_calls":
                  (rec.calls("quadform.QuadraticForm.__call__"), "count"),
              "quadform.b_full_calls":
                  (rec.calls("quadform.QuadraticForm.b_full"), "count"),
              "quadform.bilinear_radical.calls":
                  (rec.calls("quadform.bilinear_radical"), "count"),
              "quadform.witt_index_bruteforce.self_s":
                  (rec.self_s("quadform.witt_index_bruteforce"), "s")})
    scanned = rec.quadric_scanned
    m.update({"geometry.self_s": (rec.layer("geometry")[1], "s"),
              "geometry.lie_quadric_points.calls":
                  (rec.calls("geometry.lie_quadric_points"), "count"),
              "geometry.quadric_enumerations":
                  (rec.quadric_enumerations, "count"),
              "geometry.quadric_yield":
                  (rec.quadric_points / scanned if scanned else 0.0, "ratio"),
              "geometry.points_of.self_s":
                  (rec.self_s("geometry.points_of"), "s")})
    m.update({"metric.self_s": (rec.layer("metric")[1], "s"),
              "metric.line_space.calls":
                  (rec.calls("metric.line_space"), "count"),
              "metric.build_chart.calls":
                  (rec.calls("metric.build_chart"), "count"),
              "metric.translation_between.self_s":
                  (rec.self_s("metric.translation_between"), "s"),
              "metric.stabilizer_matrices.self_s":
                  (rec.self_s("metric.stabilizer_matrices"), "s")})
    m.update({"classify.self_s": (rec.layer("classify")[1], "s"),
              "classify.representative_geometry.calls":
                  (rec.calls("classify.representative_geometry"), "count"),
              "classify.cycle_equivalent.self_s":
                  (rec.self_s("classify.cycle_equivalent"), "s"),
              "models.self_s": (rec.layer("models")[1], "s"),
              "serialize.self_s": (rec.layer("serialize")[1], "s"),
              "cli.self_s": (rec.layer("cli")[1], "s")})
    for name in suites:
        m[f"verify.{name}_s"] = (suite_s.get(name, 0.0), "s")
    m["verify.self_s"] = (rec.layer("verify")[1], "s")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "conformal", "__init__.py")):
        _fail(f"no library source under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import hostspeed
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(wl.WORKLOADS)}")
    if args.seconds < 1:
        _fail("--seconds must be positive")

    plan_fn, run_fn = wl.WORKLOADS[args.workload]
    # the end-to-end run samples the machine's speed; the traced run not
    speed = hostspeed.HostSpeed()
    scaled = args.trace == 0
    sampling = speed if scaled else contextlib.nullcontext()
    checks = wl.Checks()
    with sampling:
        setup_timer = wl.Timer(speed, scaled)
        lib, plan = setup(wl, plan_fn, args.seed, args.seconds, setup_timer)
        plan_digest = determinism(wl, plan_fn, args.seed, args.seconds,
                                  plan, checks)
        if scaled:
            res = run_fn(lib, plan, checks, wl.Timer(speed, scaled))
    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "env": environment(args.seed),
              "plan_sha256": plan_digest}
    os.makedirs(RESULTS, exist_ok=True)

    if scaled:
        setup_times = setup_timer.result()
        metrics = end_to_end(
            res, statistics.median(setup_times["latencies"]), checks)
        unscaled = end_to_end(
            res["unscaled"],
            statistics.median(setup_times["unscaled"]["latencies"]), checks)
        record["samples"] = {"query_p50_ms": len(res["latencies"]),
                             "query_p95_ms": len(res["latencies"]),
                             "setup_s": SETUP_REPEATS,
                             "host_speed_loops": speed.loops}
        record["host_speed"] = {
            "run_factor": speed.factor(), "ref_s": hostspeed.REF_S,
            "pad_s": hostspeed.PAD_S, "loops": speed.loops,
            "loop_s": speed.loop_s, "stolen_s": speed.stolen,
            "unscaled": {k: v for k, (v, _) in unscaled.items()}}
    else:
        # an untraced run of the same plan, then the traced run
        import tracer
        ops = op_ns(lib)
        ref = run_fn(lib, plan, checks, wl.Timer(speed))
        rec = tracer.Recorder()
        rec.install()
        try:
            res = run_fn(lib, plan, checks, wl.Timer(speed))
        finally:
            rec.uninstall()
        suite_s = ref["info"].get("suite_s", {})
        metrics = per_layer(rec, ops, wl.VERIFY_SUITES, suite_s,
                            res["wall_s"] / ref["wall_s"])
        rec.write(os.path.join(
            RESULTS, f"spans-{args.workload}-seed{args.seed}.json"))
        record["overhead_reference"] = {"untraced_s": ref["wall_s"],
                                        "traced_s": res["wall_s"]}
    record["info"] = res["info"]
    record["inputs_sha256"] = wl.digest(res["inputs"])
    record["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    record["failures"] = checks.failures
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    print("env: " + json.dumps(record["env"], sort_keys=True))
    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": checks.attempted,
                      "failed": checks.failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
