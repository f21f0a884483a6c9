"""Byte-identical CLI output against recorded golden files.

Each case runs ``python -m conformal.cli`` and compares stdout with
``tests/golden/<name>.out``.  The golden files were recorded with the
library as it stood before ``QuadraticForm`` evaluated Q and B on raw
field values, so any answer the raw-value kernel changed would show up
here.  To re-record after a deliberate output change, run this file as a
script (``PYTHONPATH=src python tests/test_golden_cli.py``) and review
the diff.
"""

import os
import subprocess
import sys

import pytest

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

CASES = {
    "atlas_rational_d2": "classify atlas --field rational --dim 2",
    "atlas_rational_d3": "classify atlas --field rational --dim 3 --out json",
    "atlas_fp5_d2": "classify atlas --field fp:5 --dim 2 --out tsv",
    "atlas_fp5_d3": "classify atlas --field fp:5 --dim 3",
    "points_fp5": "geom points --geom {g}/fp5_elliptic.json",
    "points_f4": "geom points --geom {g}/f4_d3.json --max-q 4",
    "gamma_fp11_unit": "metric gamma --geom {g}/fp11_unit.json",
    "gamma_fp11_zero": "metric gamma --geom {g}/fp11_zero.json",
    "gamma_fp11_nonresidue": "metric gamma --geom {g}/fp11_non_residue.json",
    "distance_fp11_unit": "metric distance --geom {g}/fp11_unit.json "
                          "--line 1,0,0,0,1 --p1 0,1,0,1,0 --p2 0,1,2,4,0",
    "distance_fp11_zero": "metric distance --geom {g}/fp11_zero.json "
                          "--line 1,0,0,1,0 --p1 0,0,1,0,1 --p2 0,1,0,0,10",
    "distance_fp11_nonresidue": "metric distance --geom "
                                "{g}/fp11_non_residue.json --line 1,0,0,1,0 "
                                "--p1 0,0,1,0,1 --p2 0,1,0,0,1",
    "separation_elliptic": "examples separation --model elliptic --d 0.7",
    "separation_hyperbolic": "examples separation --model hyperbolic --d 1.5",
    "separation_parabolic": "examples separation --model parabolic "
                            "--theta 1.0",
    "lift_elliptic_point": "examples lift --model elliptic --point 1,0,0",
    "lift_hyperbolic_cycle": "examples lift --model hyperbolic "
                             "--cycle 0,0,1 --radius 0.5",
    "lift_parabolic_line": "examples lift --model parabolic --line 1,0 "
                           "--offset 2",
}


def _run(name):
    argv = CASES[name].format(g=GOLDEN).split()
    return subprocess.run([sys.executable, "-m", "conformal.cli", *argv],
                          capture_output=True, text=True)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    with open(os.path.join(GOLDEN, name + ".out")) as fh:
        expected = fh.read()
    r = _run(name)
    assert r.returncode == 0, r.stderr
    assert r.stdout == expected


if __name__ == "__main__":
    for name in sorted(CASES):
        r = _run(name)
        if r.returncode != 0:
            sys.exit(f"{name}: exit {r.returncode}\n{r.stderr}")
        with open(os.path.join(GOLDEN, name + ".out"), "w") as fh:
            fh.write(r.stdout)
        print(f"wrote {name}.out")
