"""Count the geometry queries the library's own callers make.

    python3 bench/callmix.py

Run from the repository root.  It runs every ``conformal verify`` suite
at seed 0 under the span recorder of ``tracer.py`` and prints, per
suite, the calls of ``points_of``, ``incident``, ``antipodal`` and
``hyperplane_through``.  Their totals are ``CALLER_MIX`` in
``workloads.py``, the query mix of the atlas-sweep workload; the exit
code is 1 when they differ.  It takes two to three minutes.
"""

from __future__ import annotations

import importlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
from workloads import CALLER_MIX  # noqa: E402


def main():
    verify = importlib.import_module("conformal.verify")
    kinds = [kind for kind, _ in CALLER_MIX]
    totals = dict.fromkeys(kinds, 0)
    for name in verify.SUITES:
        rec = tracer.Recorder(keep_spans=0)
        rec.install()
        try:
            verify.run_suite(name, seed=0)
        finally:
            rec.uninstall()
        counts = {k: rec.calls(f"geometry.{k}") for k in kinds}
        for k, n in counts.items():
            totals[k] += n
        print(name, json.dumps({k: n for k, n in counts.items() if n}),
              flush=True)
    print("total", json.dumps(totals))
    return 0 if totals == dict(CALLER_MIX) else 1


if __name__ == "__main__":
    sys.exit(main())
