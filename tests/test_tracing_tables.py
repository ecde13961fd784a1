"""The traced benchmark run (perfbench/run.py --trace 1) wraps the fbt
functions named in the RECORDED and HOT tables of perfbench/tracing.py.  A
rename inside fbt would leave an entry dangling and break that run, so every
entry must resolve here."""

import importlib.util
import pathlib
import sys

import pytest

import fbt
from fbt.geoflow import integrate_geodesic
from fbt.metric import PhaseState
from fbt.morse import _assemble, eigh

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    # loaded from its file without writing a bytecode cache next to it
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.dont_write_bytecode = saved
    return mod


def test_recorded_entries_resolve(tracing):
    names = set()
    for owner, attr, name, _ in tracing.RECORDED:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr}"
        names.add(name)
    assert {"jacobi.frame", "morse.spectral", "morse.eigh", "bifurc.sweep"} <= names


def test_hot_entries_resolve(tracing):
    for owner, attr, name in tracing.HOT:
        # classes are patched through vars(), so the method must be defined
        # on the class itself, not inherited
        found = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        assert callable(found), f"{name}: {owner.__name__}.{attr}"
    pairs = {(owner.__name__, attr) for owner, attr, _ in tracing.HOT}
    assert {("fbt.jacobi", "spray_jacobians"), ("GeodesicPath", "state"),
            ("MetricField", "second_derivatives"), ("MetricField", "spray")} <= pairs


def test_eigh_dof_reads_the_pencil(tracing):
    # morse.eigh.dof_max is read off eigh's arguments: K must stay first
    path = integrate_geodesic(fbt.sphere_stereo(1.0, dim=3),
                              PhaseState([0, 0, -1], [0.3, 0, 0.2]), 2.0)
    args = _assemble(path, None, 16)
    w = eigh(*args)
    assert tracing._dof(args, {}, w) == {"dof": len(w)} == {"dof": 2 * 15}
