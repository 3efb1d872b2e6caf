"""Catalog assemblies: the polygon subdivision examples and the
nonsymmetric ones built from realized triangles."""

import cmath
import math

import numpy as np

from .assembly import Assembly, SubNetwork, singleton_at
from .balance import balance_nearby, realize_triangle
from .catalog import n_c, n_v, polygon_center, regular_polygon, triangle
from .network import NetworkError, edge_key


def example_5_1(k=7):
    """Polygon-with-center master (ring weight -1, spokes +2 sin(pi/k));
    a regular k-gon sub-network at the center, singletons on the ring."""
    master = polygon_center(k, flip_signs=True)
    center_sub = SubNetwork(regular_polygon(k),
                            {f"v{j}": f"z{j}" for j in range(k)})
    subs = {"c": center_sub}
    for j in range(k):
        subs[f"v{j}"] = singleton_at(master, f"v{j}")
    return Assembly(master, subs)


def _triangle_sub(asm_master, p, order=None):
    """Triangle sub-network at master vertex p whose anchor forces cancel
    the pulls of the three incident master edges. `order` fixes which
    neighbor lands on which triangle vertex; the default sorts by pull
    direction and then swaps the last two, which keeps the realized
    vertices facing their rays on the polygon examples."""
    qs = asm_master.neighbors(p)
    if len(qs) != 3:
        raise NetworkError(f"vertex {p!r} needs degree 3 for a triangle sub")
    pulls = {}
    for q in qs:
        d = asm_master.vertices[q] - asm_master.vertices[p]
        pulls[q] = -asm_master.weights[edge_key(p, q)] * d / abs(d)
    if order is None:
        s = sorted(qs, key=lambda q: cmath.phase(pulls[q]))
        order = [s[0], s[2], s[1]]
    f = [pulls[q] for q in order]
    theta, w, _ = realize_triangle(f[0], f[1], f[2], sign_product=1.0)
    sub_net = triangle(theta, w)
    return SubNetwork(sub_net, {order[l]: f"z{l}" for l in range(3)})


def example_5_2(k=4):
    """Same master as the first example; a singleton at the center and
    realized triangles at the ring vertices."""
    if k not in (4, 5):
        raise NetworkError("triangle-subdivision example needs k in {4, 5}")
    master = polygon_center(k)
    subs = {"c": singleton_at(master, "c")}
    for j in range(k):
        subs[f"v{j}"] = _triangle_sub(master, f"v{j}")
    return Assembly(master, subs)


def n_c_assembly(a=0.03, b=0.06, perturbation=0.0, seed=0):
    """Nonsymmetric assembly on the square-with-center network: singleton
    at the center, realized triangles at the corners. Master weights are
    rescaled so the largest magnitude is 1 (keeps it balanced, bounds the
    length corrections). `perturbation` moves the master vertices and
    re-balances the weights before the sub-networks are built.

    At each corner the spoke force is realized on the first triangle
    vertex and the clockwise ring neighbor on the second; that orientation
    keeps every triangle vertex clear of the chain rays. The separation
    degrades as the center moves off-origin, so keep a, b below about
    0.05 when a fully verifying assembly is needed."""
    master = n_c(a, b)
    if perturbation:
        rng = np.random.default_rng(seed)
        phi = {v: z + complex(*rng.normal(0.0, perturbation, 2))
               for v, z in master.vertices.items()}
        shift = sum(phi.values()) / len(phi)
        phi = {v: z - shift for v, z in phi.items()}
        # tol=0 always solves: a move small enough to pass the default
        # tolerance unsolved still leaves a force defect that the corner
        # triangles cannot realize.
        res = balance_nearby(master, phi, tol=0.0)
        master = master.with_positions(phi).with_weights(res.a_tilde)
    scale = max(abs(w) for w in master.weights.values())
    master = master.with_weights({e: w / scale
                                  for e, w in master.weights.items()})
    subs = {"c": singleton_at(master, "c")}
    for p in ("ne", "nw", "sw", "se"):
        qs = master.neighbors(p)
        rings = [q for q in qs if q != "c"]
        zp = master.vertices[p]
        if (zp.conjugate() * master.vertices[rings[0]]).imag > 0:
            rings = [rings[1], rings[0]]
        subs[p] = _triangle_sub(master, p, order=["c", rings[0], rings[1]])
    return Assembly(master, subs)


def n_v_assembly(theta=math.pi / 12):
    """All-singleton assembly on the V-shaped network. Experimental: the
    ray-separation condition is tight near the flat vertices, so the
    verification report should be inspected rather than assumed clean."""
    master = n_v(theta)
    subs = {p: singleton_at(master, p) for p in master.ids}
    return Assembly(master, subs)


_ASSEMBLIES = {
    "example_5_1": lambda k=7: example_5_1(int(k)),
    "example_5_2": lambda k=4: example_5_2(int(k)),
    "n_c": lambda a=0.03, b=0.06, perturbation=0.0, seed=0:
        n_c_assembly(float(a), float(b), float(perturbation), int(seed)),
    "n_v": lambda theta=math.pi / 12: n_v_assembly(float(theta)),
}


def assembly_catalog(name, **params):
    if name not in _ASSEMBLIES:
        raise NetworkError(f"unknown assembly {name!r}")
    return _ASSEMBLIES[name](**params)


def assembly_names():
    return sorted(_ASSEMBLIES)
