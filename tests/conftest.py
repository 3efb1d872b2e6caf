import functools
import os
from types import SimpleNamespace

import numpy as np
import pytest

import netforge
from netforge.interaction import load_or_build

CACHE_DIR = os.path.abspath(os.environ.get(
    "NETFORGE_CACHE",
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                 ".cache")))
# Directory holding the imported ``netforge`` package (``src/`` or
# site-packages), so CLI child processes run the same code as these tests.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(
    netforge.__file__)))


@pytest.fixture(scope="session")
def table():
    return load_or_build(directory=CACHE_DIR)


@functools.cache
def scipy_splines(table):
    """scipy's CubicSplines through the table's four knot sets (u0, u0',
    ln Upsilon and its inverse): the reference that the table's own
    splines equal bit for bit."""
    from scipy.interpolate import CubicSpline
    return SimpleNamespace(u=CubicSpline(table.r, table.u0),
                           du=CubicSpline(table.r, table.du0),
                           ls=CubicSpline(table.s, table.ln_ups),
                           inv=CubicSpline(table.ln_ups[::-1],
                                           table.s[::-1]))


@pytest.fixture(scope="session")
def cache_env():
    """Environment for ``python -m netforge.cli`` children run in tmp_path.

    Paths are absolute, since a relative ``PYTHONPATH`` or cache directory
    inherited from the parent would not resolve from the child's cwd.
    """
    env = dict(os.environ)
    env["NETFORGE_CACHE"] = CACHE_DIR
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = PACKAGE_ROOT + (os.pathsep + rest if rest else "")
    return env


def random_network(rng, n=None):
    """Connected-ish random embedded network for property tests."""
    from netforge.network import Network, edge_key
    if n is None:
        n = int(rng.integers(3, 13))
    verts = {}
    while len(verts) < n:
        z = complex(*rng.uniform(-5, 5, 2))
        if all(abs(z - w) > 1e-3 for w in verts.values()):
            verts[f"p{len(verts)}"] = z
    ids = sorted(verts)
    weights = {}
    for i in range(1, n):
        j = int(rng.integers(0, i))
        weights[edge_key(ids[i], ids[j])] = float(rng.uniform(0.2, 3.0)
                                                  * rng.choice([-1, 1]))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        i, j = rng.integers(0, n, 2)
        if i == j:
            continue
        k = edge_key(ids[int(i)], ids[int(j)])
        if k not in weights:
            weights[k] = float(rng.uniform(0.2, 3.0) * rng.choice([-1, 1]))
    return Network(verts, weights)


def fd_jacobian(fun, x, f0=None, step=1e-7):
    """Forward-difference Jacobian of fun at x, a reference for analytic
    Jacobians."""
    if f0 is None:
        f0 = fun(x)
    n = len(x)
    J = np.empty((len(f0), n))
    for i in range(n):
        h = step * max(1.0, abs(x[i]))
        xp = x.copy()
        xp[i] += h
        J[:, i] = (fun(xp) - f0) / h
    return J
