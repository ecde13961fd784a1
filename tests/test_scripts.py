"""End-to-end runs of the example scripts."""

import os
import re
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_sphere_conjugate_script():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "sphere_conjugate.py")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    first = re.search(r"t = ([0-9.]+)\s+multiplicity", out.stdout)
    assert first is not None, out.stdout
    assert abs(float(first.group(1)) - np.pi) < 1e-8
