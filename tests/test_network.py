import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_network
from netforge.network import (Network, NetworkError, bond_forces, edge_key,
                              forces, is_balanced, is_connected, is_embedded,
                              is_unitary, lengths, load_network, save_network,
                              total_weight)


def two_point(a=2.0):
    return Network({"p": 0j, "q": 3 + 4j}, {("p", "q"): a})


def test_edge_key_sorts():
    assert edge_key("b", "a") == ("a", "b")
    assert edge_key("a", "b") == ("a", "b")


def test_two_point_forces():
    net = two_point(2.0)
    F = forces(net)
    u = (3 + 4j) / 5
    assert abs(F["p"] - 2.0 * u) < 1e-15
    assert abs(F["q"] + 2.0 * u) < 1e-15


def test_three_point_forces_oracle():
    # right triangle, hand-evaluated
    net = Network({"a": 0j, "b": 1 + 0j, "c": 1j},
                  {("a", "b"): 1.0, ("a", "c"): -2.0, ("b", "c"): 0.5})
    F = forces(net)
    s = 1 / math.sqrt(2)
    assert abs(F["a"] - (1.0 + 0j) - (-2.0) * 1j) < 1e-14
    assert abs(F["b"] - (-1.0 + 0j) - 0.5 * complex(-s, s)) < 1e-14
    assert abs(F["c"] - (-2.0) * (-1j) - 0.5 * complex(s, -s)) < 1e-14


def test_forces_match_per_edge_loop():
    rng = np.random.default_rng(11)
    for _ in range(30):
        net = random_network(rng)
        expect = {v: 0j for v in net.ids}
        for (u, v), a in net.weights.items():
            d = net.vertices[v] - net.vertices[u]
            expect[u] += a * d / abs(d)
            expect[v] -= a * d / abs(d)
        F = forces(net)
        assert list(F) == net.ids
        assert all(abs(F[v] - expect[v]) < 1e-12 for v in net.ids)
        assert abs(sum(F.values())) < 1e-12


def test_bond_forces_pull_both_ends():
    # two bonds between vertices 0 and 1, given by their vectors (second
    # end minus first); vertex 2 has no bond
    F = bond_forces(3, np.array([0, 1]), np.array([1, 0]),
                    np.array([2 + 0j, -3j]), np.array([1.5, -2.0]))
    assert np.array_equal(F, [1.5 - 2j, -1.5 + 2j, 0j])


def test_edge_ends_follow_canonical_order():
    net = Network({"b": 1j, "a": 0j, "c": 1 + 0j},
                  {("c", "a"): 1.0, ("b", "c"): 2.0})
    first, second = net.ends
    assert net.edges == [("a", "c"), ("b", "c")]
    assert first.tolist() == [0, 1]
    assert second.tolist() == [2, 2]


def test_lengths_and_total_weight():
    net = two_point(-1.5)
    assert lengths(net) == {("p", "q"): 5.0}
    assert total_weight(net) == 1.5


def test_construction_errors():
    with pytest.raises(NetworkError):
        Network({"p": 0j}, {("p", "p"): 1.0})
    with pytest.raises(NetworkError):
        Network({"p": 0j, "q": 1j}, {("p", "r"): 1.0})
    with pytest.raises(NetworkError):
        Network({"p": 0j, "q": 1j}, {("p", "q"): 0.0})
    with pytest.raises(NetworkError):
        Network({"p": 0j, "q": 1j}, {("p", "q"): math.nan})
    with pytest.raises(NetworkError):
        Network({"p": 0j, "q": 0j}, {("p", "q"): 1.0})
    with pytest.raises(NetworkError):
        Network({"p": complex(math.inf, 0)}, {})


def test_predicates():
    net = Network({"a": 0j, "b": 1 + 0j, "c": 5 + 5j}, {("a", "b"): 1.0})
    assert not is_connected(net)
    assert is_unitary(net)
    net2 = Network({"a": 0j, "b": 1 + 0j}, {("a", "b"): 1.0})
    assert is_connected(net2)
    assert not is_balanced(net2)
    # crossing edges are not embedded
    net3 = Network({"a": 0j, "b": 1 + 1j, "c": 1j, "d": 1 + 0j},
                   {("a", "b"): 1.0, ("c", "d"): 1.0})
    assert not is_embedded(net3)


def test_neighbors_and_index():
    net = Network({"a": 0j, "b": 1 + 0j, "c": 1j},
                  {("a", "b"): 1.0, ("a", "c"): 1.0})
    assert net.neighbors("a") == ["b", "c"]
    assert net.neighbors("b") == ["a"]
    assert net.index() == {"a": 0, "b": 1, "c": 2}


def test_with_positions_and_weights():
    net = two_point()
    moved = net.with_positions({"p": 1j, "q": 2j})
    assert moved.vertices["p"] == 1j
    assert moved.weights == net.weights
    rewt = net.with_weights({("p", "q"): -7.0})
    assert rewt.weights[("p", "q")] == -7.0
    assert rewt.vertices == net.vertices


def test_save_load_roundtrip(tmp_path):
    net = Network({"a": 0.25 + 0.125j, "b": 1 + 0j, "c": 1j},
                  {("a", "b"): 1.5, ("a", "c"): -0.75})
    path = tmp_path / "net.json"
    save_network(net, path)
    back = load_network(path)
    assert back.vertices == net.vertices
    assert back.weights == net.weights


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_save_load_roundtrip_random(tmp_path_factory, seed):
    net = random_network(np.random.default_rng(seed))
    path = tmp_path_factory.mktemp("net") / "net.json"
    save_network(net, path)
    back = load_network(path)
    assert back.vertices == net.vertices
    assert back.weights == net.weights
    assert back.ids == net.ids and back.edges == net.edges


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    with pytest.raises(NetworkError):
        load_network(path)
