import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

import fbt


@pytest.fixture
def euclid():
    return fbt.euclidean(2)


@pytest.fixture
def sphere():
    return fbt.sphere_stereo(1.0)


@pytest.fixture
def sphere3():
    return fbt.sphere_stereo(1.0, dim=3)


@pytest.fixture
def randers_const():
    return fbt.randers_expr(2, [["1", "0"], ["0", "1"]], ["0.5", "0"])


@pytest.fixture
def no_randers_check(monkeypatch):
    """Factories build definite metrics whose one-form reaches |beta|_h >= 1."""
    monkeypatch.setattr(fbt.metric, "RANDERS_CHECK", False)


@pytest.fixture
def minkowski():
    return fbt.quadratic_expr(2, [["1", "0"], ["0", "-1"]])


def catalog_metrics():
    """Sampling catalog for randomized oracle sweeps: (metric, base point,
    velocity scale) triples on safe chart regions."""
    from _oracles import warped_metric
    import fbt.nav as nav

    z = nav.ZermeloData.from_exprs(2, [["1", "0"], ["0", "1"]], ["0.4", "0.1"])
    s = nav.StationaryData.from_exprs(2, [["1", "0"], ["0", "1"]], ["0.3", "0"])
    return [
        (fbt.euclidean(2), np.zeros(2), 1.0),
        (fbt.sphere_stereo(1.0), np.array([0.0, -1.0]), 1.0),
        (fbt.sphere_stereo(2.0), np.array([0.3, 0.4]), 1.0),
        (fbt.randers_expr(2, [["1", "0"], ["0", "1"]], ["0.5", "0"]),
         np.zeros(2), 1.0),
        (nav.zermelo_to_randers(z), np.zeros(2), 1.0),
        (warped_metric(1.3), np.array([-0.5, 0.2]), 1.0),
        (nav.fermat_metric(s)[0], np.zeros(2), 1.0),
    ]


def locally_constant(dim, kind, h, beta=None, dbeta=None, **kw):
    """from_callables with h(x) locally constant and beta(x) affine with the
    constant gradient dbeta (derivative index first; zero when None), given
    their exact chart derivatives: zero, but dbeta."""
    n = dim
    zeros = lambda *shape: (lambda x: np.zeros(shape))
    if beta is not None:
        grad = np.zeros((n, n)) if dbeta is None else np.asarray(dbeta, dtype=float)
        kw.update(dbeta=lambda x: grad, d2beta=zeros(n, n, n))
    return fbt.from_callables(n, kind, h, beta, dh=zeros(n, n, n),
                              d2h=zeros(n, n, n, n), **kw)
