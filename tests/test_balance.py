import cmath
import math

import numpy as np
import pytest

from netforge.balance import balance_nearby, realize_triangle
from netforge.catalog import polygon_center, regular_polygon, triangle
from netforge.network import forces
from netforge.solvers import SolverError


def _perturbed_positions(net, sigma, seed):
    rng = np.random.default_rng(seed)
    return {v: z + complex(*rng.normal(0, sigma, 2))
            for v, z in net.vertices.items()}


def test_balance_nearby_polygon_center():
    net = polygon_center(5)
    phi = _perturbed_positions(net, 0.02, 7)
    res = balance_nearby(net, phi)
    moved = net.with_positions(phi).with_weights(res.a_tilde)
    F = forces(moved)
    assert max(abs(F[v]) for v in moved.ids) < 1e-10
    assert abs(res.e) < 1e-8
    assert abs(res.t) < 1e-8
    # weights stay near the originals for a small move
    assert max(abs(res.a_tilde[e] - net.weights[e])
               for e in net.edges) < 0.2


def test_balance_nearby_identity_is_noop():
    net = polygon_center(5)
    res = balance_nearby(net, dict(net.vertices))
    assert res.a_tilde == net.weights
    assert res.residual < 1e-11


def test_balance_nearby_rejects_unbalanced():
    net = regular_polygon(5)
    with pytest.raises(SolverError):
        balance_nearby(net, dict(net.vertices))


def test_realize_triangle_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        f0 = complex(*rng.normal(0, 1, 2))
        f1 = complex(*rng.normal(0, 1, 2))
        f2 = -f0 - f1
        theta, w, unique = realize_triangle(f0, f1, f2)
        net = triangle(theta, w)
        F = forces(net)
        for fj, vid in ((f0, "z0"), (f1, "z1"), (f2, "z2")):
            assert abs(F[vid] - fj) < 1e-9


def test_realize_triangle_branches():
    f0 = 1.0 + 0.2j
    f1 = -0.4 + 0.3j
    f2 = -f0 - f1
    for target in (1.0, -1.0):
        theta, w, _ = realize_triangle(f0, f1, f2, sign_product=target)
        prod = math.copysign(1.0, w[0]) * math.copysign(1.0, w[1]) \
            * math.copysign(1.0, w[2])
        assert prod == target
        F = forces(triangle(theta, w))
        assert abs(F["z0"] - f0) < 1e-9


def test_realize_triangle_rejects_bad_forces():
    with pytest.raises(ValueError):
        realize_triangle(0j, 0j, 0j)
    with pytest.raises(ValueError):
        realize_triangle(1.0, 1.0, 1.0)  # does not sum to zero


def test_realize_triangle_degenerate_direction():
    # f_j proportional to zeta^(2j): the determining form vanishes but a
    # realization still exists (scan branch)
    zeta = cmath.exp(2j * math.pi / 3)
    f = [zeta ** (2 * j) for j in range(3)]
    theta, w, unique = realize_triangle(*f)
    assert not unique
    F = forces(triangle(theta, w))
    for j in range(3):
        assert abs(F[f"z{j}"] - f[j]) < 1e-8
