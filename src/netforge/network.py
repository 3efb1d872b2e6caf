"""Weighted planar networks: construction, forces, lengths, predicates.

Vertices live in the plane and are stored as complex numbers. Edges are
unordered pairs of vertex ids with a nonzero real weight. The canonical
edge key is the lexicographically sorted id pair; canonical vertex and edge
orderings fix the row/column layout of every downstream matrix.
"""

import json
import math
from functools import cached_property

import numpy as np

from . import geometry

GEOM_TOL = 1e-12


def edge_key(u, v):
    return (u, v) if u <= v else (v, u)


class NetworkError(ValueError):
    pass


class Network:
    """A weighted planar network.

    vertices: dict id -> complex position
    weights:  dict (u, v) -> nonzero float, keys canonical
    """

    def __init__(self, vertices, weights):
        if not vertices:
            raise NetworkError("network has no vertices")
        self.vertices = {}
        for vid, pos in vertices.items():
            z = complex(pos)
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise NetworkError(f"non-finite position for vertex {vid!r}")
            if vid in self.vertices:
                raise NetworkError(f"duplicate vertex id {vid!r}")
            self.vertices[vid] = z
        self.weights = {}
        for (u, v), a in weights.items():
            if u == v:
                raise NetworkError(f"self-loop at {u!r}")
            if u not in self.vertices or v not in self.vertices:
                raise NetworkError(f"edge ({u!r},{v!r}) references unknown vertex")
            k = edge_key(u, v)
            if k in self.weights:
                raise NetworkError(f"duplicate edge {k}")
            a = float(a)
            if not math.isfinite(a) or a == 0.0:
                raise NetworkError(f"edge {k} needs a nonzero finite weight")
            if abs(self.vertices[u] - self.vertices[v]) == 0.0:
                raise NetworkError(f"zero-length edge {k}")
            self.weights[k] = a
        self.ids = sorted(self.vertices)
        self.edges = sorted(self.weights)

    @property
    def n(self):
        return len(self.ids)

    @property
    def m(self):
        return len(self.edges)

    def index(self):
        return {vid: i for i, vid in enumerate(self.ids)}

    @cached_property
    def ends(self):
        """(first, second): vertex indices of each edge's ends, as int
        arrays in canonical edge order."""
        idx = self.index()
        return (np.array([idx[u] for u, _ in self.edges], dtype=int),
                np.array([idx[v] for _, v in self.edges], dtype=int))

    def positions(self):
        return np.array([self.vertices[v] for v in self.ids], dtype=complex)

    def weight_array(self):
        return np.array([self.weights[e] for e in self.edges], dtype=float)

    def neighbors(self, vid):
        out = []
        for (u, v) in self.edges:
            if u == vid:
                out.append(v)
            elif v == vid:
                out.append(u)
        return out

    def diameter(self):
        """Bounding-box diameter; scale for geometric tolerances."""
        if not self.ids:
            return 0.0
        xs = [z.real for z in self.vertices.values()]
        ys = [z.imag for z in self.vertices.values()]
        return math.hypot(max(xs) - min(xs), max(ys) - min(ys))

    def with_positions(self, phi):
        """Same combinatorics, new positions (phi: id -> complex)."""
        return Network({v: phi[v] for v in self.vertices}, dict(self.weights))

    def with_weights(self, weights):
        return Network(dict(self.vertices), dict(weights))


def bond_forces(n, first, second, d, w):
    """Force at each of n vertices from bonds of weight w and vector d
    (second end minus first end): each bond pulls its first end by
    w d/|d| and its second end back by as much."""
    pull = w * d / np.abs(d)
    out = np.zeros(n, dtype=complex)
    np.add.at(out, first, pull)
    np.add.at(out, second, -pull)
    return out


def forces(net):
    """Force at each vertex: weighted sum of unit vectors toward neighbors."""
    first, second = net.ends
    z = net.positions()
    F = bond_forces(net.n, first, second, z[second] - z[first],
                    net.weight_array())
    return dict(zip(net.ids, F.tolist()))


def lengths(net):
    return {e: abs(net.vertices[e[1]] - net.vertices[e[0]]) for e in net.edges}


def total_weight(net):
    return sum(abs(a) for a in net.weights.values())


def is_connected(net):
    if net.n <= 1:
        return True
    adj = {vid: [] for vid in net.ids}
    for (u, v) in net.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {net.ids[0]}
    stack = [net.ids[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == net.n


def is_embedded(net):
    """Every pair of distinct edges disjoint or meeting at a shared endpoint."""
    return geometry.embedded(
        [geometry.segment(net.vertices[u], net.vertices[v])
         for u, v in net.edges], GEOM_TOL * max(net.diameter(), 1.0))


def is_unitary(net, tol=1e-9):
    return all(abs(l - 1.0) <= tol for l in lengths(net).values())


def is_balanced(net, tol=1e-9):
    scale = max(total_weight(net), 1e-300)
    return max(abs(f) for f in forces(net).values()) < tol * scale


# --- JSON I/O ---------------------------------------------------------

def _finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def network_to_obj(net):
    return {
        "vertices": [{"id": v, "x": net.vertices[v].real, "y": net.vertices[v].imag}
                     for v in net.ids],
        "edges": [{"u": u, "v": v, "weight": net.weights[(u, v)]}
                  for (u, v) in net.edges],
    }


def _json_object(obj, what):
    if not isinstance(obj, dict):
        raise NetworkError(f"{what} must be a JSON object, "
                           f"got {type(obj).__name__}")
    return obj


def json_member(obj, key, what, kind=None):
    """obj[key] of the JSON object `obj` (`what` names it in errors),
    checked to be a `kind` (list or dict) when given."""
    if key not in _json_object(obj, what):
        raise NetworkError(f"{what} has no {key!r}")
    val = obj[key]
    if kind is not None and not isinstance(val, kind):
        raise NetworkError(f"{what}'s {key!r} must be a JSON "
                           f"{'array' if kind is list else 'object'}")
    return val


def write_json(obj, path, **kw):
    """Write `obj` to `path` as indented, key-sorted JSON and a newline;
    `kw` goes on to json.dump."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True, **kw)
        fh.write("\n")


def read_json(path):
    """The JSON value in the file `path`; invalid JSON is a NetworkError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise NetworkError(f"invalid JSON: {exc}") from exc


def network_from_obj(obj):
    verts = {}
    for rec in json_member(obj, "vertices", "network", list):
        vid = _json_object(rec, "vertex record").get("id")
        if not isinstance(vid, str):
            raise NetworkError("vertex id must be a string")
        if vid in verts:
            raise NetworkError(f"duplicate vertex id {vid!r}")
        if not (_finite(rec.get("x")) and _finite(rec.get("y"))):
            raise NetworkError(f"vertex {vid!r} has non-finite coordinates")
        verts[vid] = complex(rec["x"], rec["y"])
    weights = {}
    for rec in json_member(obj, "edges", "network", list):
        rec = _json_object(rec, "edge record")
        u, v, a = rec.get("u"), rec.get("v"), rec.get("weight")
        if not (isinstance(u, str) and isinstance(v, str)):
            raise NetworkError(f"edge ends must be vertex ids, "
                               f"got ({u!r}, {v!r})")
        if not _finite(a):
            raise NetworkError(f"edge ({u},{v}) has non-finite weight")
        k = edge_key(u, v)
        if k in weights:
            raise NetworkError(f"duplicate edge {k}")
        weights[k] = a
    return Network(verts, weights)


def save_network(net, path):
    write_json(network_to_obj(net), path)


def load_network(path):
    return network_from_obj(read_json(path))
