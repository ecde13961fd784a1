"""End-to-end runs of the example scripts."""

import os
import re
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return out


def test_sphere_conjugate_script():
    out = _run("sphere_conjugate.py")
    first = re.search(r"t = ([0-9.]+)\s+multiplicity", out.stdout)
    assert first is not None, out.stdout
    assert abs(float(first.group(1)) - np.pi) < 1e-8


def test_spray_timing_script():
    out = _run("spray_timing.py", "--repeat", "1", "--number", "1")
    header, *lines = out.stdout.splitlines()
    assert header.split()[3:] == ["real1", "cs_n", "cs_2n", "stack192"]
    rows = {tuple(line.split()[:3]): line.split()[3:] for line in lines}
    kinds = ("euclidean", "sphere_stereo", "riemannian_expr", "randers",
             "quadratic_expr", "zermelo", "fermat", "from_callables")
    for kind in kinds:
        for dim in ("2", "3"):
            spray = rows[kind, dim, "spray"]
            second = rows[kind, dim, "second_derivatives"]
            assert all(float(c) > 0.0 for c in spray), (kind, dim, spray)
            assert second[1:3] == ["-", "-"] and float(second[0]) > 0.0
            assert float(second[3]) > 0.0
            for caller in ("shoot_rhs", "frame_rhs"):
                cells = rows[kind, dim, caller]
                assert cells[0] == cells[2] == cells[3] == "-" and float(cells[1]) > 0.0
            for caller in ("geodesic_rhs", "spray_jacobians"):
                cells = rows[kind, dim, caller]
                assert cells[1:] == ["-", "-", "-"] and float(cells[0]) > 0.0
    assert len(rows) == 2 * 6 * len(kinds)


def test_warped_sweep_script():
    # the first Dirichlet crossing of the warped family sits at (pi/2)^2
    out = _run("warped_sweep.py").stdout
    mu = re.search(r"^mu = ([0-9.]+)  \((.*)\)$", out, re.M)
    assert mu is not None, out
    assert mu.group(1) == f"{(np.pi / 2) ** 2:.8f}"
    assert mu.group(2) == "sufficient-condition met"
    assert out.splitlines()[-1] == "diagnosis: (iii)-like"


def test_zermelo_demo_script():
    out = _run("zermelo_demo.py").stdout
    times = re.findall(r"geodesic time ([0-9.]+), closed form ([0-9.]+)", out)
    assert len(times) == 3, out
    for geodesic, closed in times:
        assert geodesic == closed


def test_output_digests_script():
    # one round at seed 1: the digests pin every output of the three
    # workloads bit for bit, so a change that moves one must say so here
    out = _run("output_digests.py", "--seed", "1", "--rounds", "1").stdout
    digests = dict(re.findall(r"^(\w+) digest ([0-9a-f]{64})$", out, re.M))
    assert digests == {
        "sweep": "9eda7f9bb534edc49fd21dc5f0520de71668c40f59aef858ca048c9b3ae74567",
        "shoot": "6e2e2cbee9e0bdc75d1985ca8eba773a6504bf4af0836008853db0be4127882b",
        "cli": "d01f8c92f8ed02ce40a832e96a1ff95296e6137783b9bb2f63b621e5f2396632",
    }, out
    misses = re.findall(r"^(\w+) misses per round: _generate (\d+), _shape (\d+)$", out, re.M)
    assert [name for name, *_ in misses] == ["sweep", "shoot", "cli"], out
