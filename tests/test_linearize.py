import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_network
from netforge.catalog import catalog, catalog_names, polygon_center, triangle
from netforge.linearize import (adjointness_defect, augmented_df_a,
                                build_differentials, certify, lambda_matrix,
                                lambda_ring_matrix, numerical_rank,
                                nv_closability_criterion)
from netforge.network import edge_key, forces, is_connected, total_weight


def _torque(net):
    F = forces(net)
    return sum((net.vertices[v].conjugate() * F[v]).imag for v in net.ids)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_force_sum_and_torque_vanish(seed):
    net = random_network(np.random.default_rng(seed))
    scale = max(total_weight(net), 1.0)
    F = forces(net)
    assert abs(sum(F.values())) < 1e-12 * scale
    assert abs(_torque(net)) < 1e-12 * scale * max(net.diameter(), 1.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_adjointness_random(seed):
    net = random_network(np.random.default_rng(seed))
    assert adjointness_defect(build_differentials(net)) < 1e-12


def test_adjointness_catalog():
    for name in catalog_names():
        assert adjointness_defect(build_differentials(catalog(name))) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_df_phi_kills_translations_and_rotates_forces(seed):
    # translations are in the kernel; the rotation generator maps the
    # force vector to its 90-degree rotation
    net = random_network(np.random.default_rng(seed))
    sysm = build_differentials(net)
    n = net.n
    tx = np.zeros(2 * n)
    tx[0::2] = 1.0
    ty = np.zeros(2 * n)
    ty[1::2] = 1.0
    rot = np.zeros(2 * n)
    for i, v in enumerate(net.ids):
        z = net.vertices[v]
        rot[2 * i] = -z.imag
        rot[2 * i + 1] = z.real
    scale = max(np.abs(sysm.df_phi).max(), 1.0)
    for vec in (tx, ty):
        assert np.max(np.abs(sysm.df_phi @ vec)) < 1e-12 * scale
    F = forces(net)
    got = sysm.df_phi @ rot
    for i, v in enumerate(net.ids):
        expect = 1j * F[v]
        assert abs(complex(got[2 * i], got[2 * i + 1]) - expect) \
            < 1e-11 * scale


def test_numerical_rank_known():
    M = np.diag([3.0, 1.0, 1e-14])
    rank, sv, gap = numerical_rank(M)
    assert rank == 2
    assert gap > 1e10
    rank0, _, gap0 = numerical_rank(np.zeros((3, 3)))
    assert rank0 == 0 and math.isinf(gap0)


def test_lambda_shapes():
    net = polygon_center(4)
    sysm = build_differentials(net)
    lam = lambda_matrix(sysm)
    assert lam.shape == (2 * net.n + net.m, 2 * net.n + net.m)
    ring = lambda_ring_matrix(sysm)
    assert ring.shape == (2 * net.n + net.m, 2 * net.n + net.m + 1)


def test_certify_polygon_center():
    cert6 = certify(polygon_center(6))
    assert cert6.balanced and cert6.flexible
    assert cert6.closable is False
    cert5 = certify(polygon_center(5))
    assert cert5.flexible and cert5.closable
    assert cert5.gap_ratio > 10
    assert not cert5.borderline


def test_certify_triangle_weight_sum():
    assert certify(triangle(0.0, (1.0, 1.0, 1.0))).flexible
    assert not certify(triangle(0.0, (1.0, 1.0, -2.0))).flexible


def test_certify_json_roundtrip():
    cert = certify(polygon_center(5))
    import json
    obj = json.loads(cert.to_json())
    assert obj["flexible"] is True
    assert obj["closable"] is True


# the side-sum criterion for polygons, a reference for certify's verdict
def _cycle_order(net):
    """Vertex ids of a simple cycle network, in traversal order."""
    if net.m != net.n or net.n < 3:
        raise ValueError("not a cycle: m must equal n >= 3")
    adj = {vid: [] for vid in net.ids}
    for (u, v) in net.edges:
        adj[u].append(v)
        adj[v].append(u)
    if any(len(nb) != 2 for nb in adj.values()) or not is_connected(net):
        raise ValueError("not a cycle: every vertex needs degree 2")
    order = [net.ids[0]]
    prev = None
    while True:
        cur = order[-1]
        nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
        if nxt == order[0]:
            break
        order.append(nxt)
        prev = cur
    return order


def polygon_flexibility_criterion(net, tol=1e-9):
    """Independence test of the two side-weighted direction sums A and B.

    A = sum Re(z_{j+1}-z_j)/a_j (z_{j+1}-z_j), B likewise with Im; the
    polygon is flexible iff A and B are R-linearly independent.
    """
    order = _cycle_order(net)
    A = 0j
    B = 0j
    scale = 0.0
    for j, u in enumerate(order):
        v = order[(j + 1) % len(order)]
        d = net.vertices[v] - net.vertices[u]
        a = net.weights[edge_key(u, v)]
        A += d.real / a * d
        B += d.imag / a * d
        scale += abs(d) ** 2 / abs(a)
    wedge = A.real * B.imag - A.imag * B.real
    return abs(wedge) > tol * max(scale, 1e-300) ** 2


def test_polygon_flexibility_criterion_matches_certify():
    for w in ((1.0, 1.0, 1.0), (1.0, 1.0, -2.0), (2.0, -1.0, 0.5)):
        net = triangle(0.1, w)
        assert polygon_flexibility_criterion(net) == certify(net).flexible


def test_nv_closability_positive_on_grid():
    for theta in np.linspace(math.pi / 12, math.pi / 4.5, 12):
        assert nv_closability_criterion(float(theta)) > 0
    with pytest.raises(ValueError):
        nv_closability_criterion(2.0)


def test_nv_closability_value_at_pi_4():
    # sin = cos = sqrt(2)/2 there, so the value is ln(sqrt(2))
    assert nv_closability_criterion(math.pi / 4) == pytest.approx(
        math.log(math.sqrt(2.0)), abs=1e-12)


def test_augmented_df_a_columns():
    net = random_network(np.random.default_rng(5))
    M = augmented_df_a(net)
    m = net.m
    assert M.shape == (2 * net.n, m + 3)
    assert np.array_equal(M[:, :m], build_differentials(net).df_a)
    # the appended columns give e + i t z at every vertex
    e, t = 0.3 - 0.7j, 1.9
    z = np.array([net.vertices[v] for v in net.ids])
    got = M[:, m:] @ [e.real, e.imag, t]
    assert np.allclose(got, (e + 1j * t * z).view(float), atol=1e-14)
