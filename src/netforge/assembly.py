"""Sub-network assemblies: verification of the placement conditions
(i)-(vii), edge quantization, the coupled master solve, point-cloud
generation with signs, and closest-neighbor bands."""

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .geometry import Piece, embedded, segment
from .linearize import augmented_df_a
from .network import (Network, NetworkError, bond_forces, edge_key,
                      json_member, network_from_obj, network_to_obj,
                      read_json, write_json)
from .solvers import NewtonInfo, SolverError, damped_newton

GEOM_TOL = 1e-9
MU_MAX = 2.5                     # largest dilation the quantization tries
# Largest ray index j that condition (vi) searches. A pair of rays takes a
# grid of jmax^2 distances; the catalog's largest is 446^2 (example_5_1 at
# k 64), and the cap holds a grid to 2^22 cells, 32 MiB a float array.
RAY_J_MAX = 2048


@dataclass
class SubNetwork:
    net: Network                 # local coordinates, unitary
    anchors: dict                # master neighbor id -> local vertex id


@dataclass
class Assembly:
    master: Network
    subs: dict                   # master vertex id -> SubNetwork
    signs: dict = field(default_factory=dict)  # p -> {r -> +-1}, optional

    def __post_init__(self):
        for p in self.master.ids:
            if p not in self.subs:
                raise NetworkError(f"missing sub-network at {p!r}")
        for p, sub in self.subs.items():
            if p not in self.master.vertices:
                raise NetworkError(f"sub-network at unknown vertex {p!r}")
            for q, r in sub.anchors.items():
                if edge_key(p, q) not in self.master.weights:
                    raise NetworkError(f"anchor {p!r}->{q!r} without edge")
                if r not in sub.net.vertices:
                    raise NetworkError(f"anchor {p!r}->{q!r} at unknown "
                                       f"vertex {r!r}")
            for q in self.master.neighbors(p):
                if q not in sub.anchors:
                    raise NetworkError(f"edge {p!r}-{q!r} has no anchor "
                                       f"in the sub-network at {p!r}")


def singleton_at(master, p):
    return SubNetwork(Network({"o": 0j}, {}),
                      {q: "o" for q in master.neighbors(p)})


# --- JSON ---------------------------------------------------------------

def assembly_to_obj(asm):
    subs = {}
    for p, sub in asm.subs.items():
        rec = {"network": network_to_obj(sub.net),
               "anchors": {f"{p}->{q}": r for q, r in sub.anchors.items()}}
        if p in asm.signs:
            rec["signs"] = dict(asm.signs[p])
        subs[p] = rec
    return {"master": network_to_obj(asm.master), "subassembly": subs}


def assembly_from_obj(obj):
    master = network_from_obj(json_member(obj, "master", "assembly"))
    subs = {}
    signs = {}
    for p, rec in json_member(obj, "subassembly", "assembly", dict).items():
        what = f"sub-network {p!r}"
        anchors = {}
        for key, r in json_member(rec, "anchors", what, dict).items():
            src, _, q = key.partition("->")
            if src != p or not q:
                raise NetworkError(f"bad anchor key {key!r} at {p!r}")
            anchors[q] = r
        subs[p] = SubNetwork(network_from_obj(json_member(rec, "network",
                                                          what)), anchors)
        if "signs" in rec:
            signs[p] = {r: int(s) for r, s in
                        json_member(rec, "signs", what, dict).items()}
    return Assembly(master, subs, signs)


def save_assembly(asm, path):
    write_json(assembly_to_obj(asm), path)


def load_assembly(path):
    return assembly_from_obj(read_json(path))


# --- layout ----------------------------------------------------------------

class Layout(NamedTuple):
    """An assembly numbered globally. Sub vertices come master vertex by
    master vertex in canonical order, each sub's in its own, and sub
    edges likewise. The bonds are the sub edges, then one per master edge
    (p, q) from its anchor at p to its anchor at q."""
    keys: list                   # (p, r) of each sub vertex
    owner: np.ndarray            # master vertex index of each sub vertex
    starts: np.ndarray           # first sub vertex of each master vertex
    edges: list                  # (p, edge) of each sub edge
    first: np.ndarray            # first and second end of each bond
    second: np.ndarray
    pos: np.ndarray              # local position of each sub vertex
    weights: np.ndarray          # weight of each sub edge
    anchored: np.ndarray         # master edges anchored at each sub vertex


def layout(asm):
    """The Layout of `asm` as it is now (an Assembly can be edited)."""
    master = asm.master
    nets = [asm.subs[p].net for p in master.ids]
    sizes = np.array([net.n for net in nets], dtype=int)
    starts = np.cumsum(sizes) - sizes
    keys = [(p, r) for p, net in zip(master.ids, nets) for r in net.ids]
    vert = {key: i for i, key in enumerate(keys)}
    anchors = np.array([[vert[(p, asm.subs[p].anchors[q])],
                         vert[(q, asm.subs[q].anchors[p])]]
                        for p, q in master.edges], dtype=int).reshape(-1, 2)
    first, second = (np.concatenate([net.ends[k] + s for net, s
                                     in zip(nets, starts)] + [anchors[:, k]])
                     for k in (0, 1))
    return Layout(keys, np.repeat(np.arange(len(nets)), sizes), starts,
                  [(p, ek) for p, net in zip(master.ids, nets)
                   for ek in net.edges], first, second,
                  np.concatenate([net.positions() for net in nets]),
                  np.concatenate([net.weight_array() for net in nets]),
                  np.bincount(anchors.ravel(), minlength=len(keys)))


# --- conditions (i)-(vii) ------------------------------------------------

@dataclass
class AssemblyReport:
    conditions: dict             # name -> bool
    details: dict                # name -> string
    eta: dict                    # p -> {r -> +-1} (filled when (vii) holds)

    @property
    def ok(self):
        return all(self.conditions.values())

    def failing(self):
        return sorted(k for k, v in self.conditions.items() if not v)


def _rays(asm, p):
    """Anchor rays of the sub at p: (local origin, unit direction, q)."""
    sub = asm.subs[p]
    out = []
    for q, r in sub.anchors.items():
        d = asm.master.vertices[q] - asm.master.vertices[p]
        out.append((sub.net.vertices[r], d / abs(d), q))
    return out


def _check_barycenters(lay):
    total = np.add.reduceat(lay.pos, lay.starts)
    n = np.diff(lay.starts, append=len(lay.keys))
    worst = float(np.max(np.hypot(total.real / n, total.imag / n)))
    return worst <= GEOM_TOL, f"max |barycenter| = {worst:.2e}"


def _check_embedded_with_rays(asm):
    for p, sub in asm.subs.items():
        pieces = [segment(sub.net.vertices[u], sub.net.vertices[v])
                  for u, v in sub.net.edges]
        pieces += [Piece(o, u, math.inf) for o, u, _ in _rays(asm, p)]
        if not embedded(pieces, GEOM_TOL):
            return False, f"conflicting pieces in sub at {p!r}"
    return True, ""


def _balance_defects(asm, lay):
    """|force| at each sub vertex in layout order: its sub edges' unit
    pulls, and at an anchor the pulls of its master bonds, each along its
    master edge and weighted by the master weight."""
    master = asm.master
    d = lay.pos[lay.second] - lay.pos[lay.first]
    z = master.positions()
    d[len(lay.edges):] = z[master.ends[1]] - z[master.ends[0]]
    return np.abs(bond_forces(len(lay.keys), lay.first, lay.second, d,
                              np.concatenate([lay.weights,
                                              master.weight_array()])))


def _check_balance(asm, lay, anchored):
    """Force balance at sub vertices; `anchored` selects which half of the
    condition pair is being checked."""
    defect = np.where((lay.anchored > 0) == anchored,
                      _balance_defects(asm, lay), 0.0)
    k = int(np.argmax(defect))
    worst = float(defect[k])
    return worst <= 1e-9, (f"max defect {worst:.2e} at {lay.keys[k]}"
                           if worst > 0 else "")


def _check_min_distance(asm):
    """No two sub vertices closer than 1 unless joined by a (unit) edge."""
    for p, sub in asm.subs.items():
        ids = sub.net.ids
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                d = abs(sub.net.vertices[ids[i]] - sub.net.vertices[ids[j]])
                if edge_key(ids[i], ids[j]) in sub.net.weights:
                    if abs(d - 1.0) > 1e-9:
                        return False, f"non-unit edge in sub at {p!r}"
                elif d < 1.0 + GEOM_TOL:
                    return False, (f"vertices {ids[i]!r},{ids[j]!r} of sub "
                                   f"at {p!r} at distance {d:.6f} <= 1")
    return True, ""


def _check_ray_separation(asm):
    """Integer points along anchor rays keep distance > 1 from sub vertices
    and from the integer points of other rays; the search ranges are finite
    because the distance provably exceeds 1 beyond them. Each ray takes
    one array of distances to the sub vertices, each pair of rays one grid
    over j, j'; a failure names the first violation in that order. A
    search past RAY_J_MAX fails before it allocates."""
    for p, sub in asm.subs.items():
        diam = sub.net.diameter()
        if not math.isfinite(diam):
            return False, f"sub at {p!r} has a non-finite diameter"
        rays = _rays(asm, p)
        jmax_v = math.ceil(diam + 2)
        if jmax_v > RAY_J_MAX:
            return False, (f"sub at {p!r} of diameter {diam:.6g} needs ray "
                           f"points past j={RAY_J_MAX}")
        for (o, u, q) in rays:
            ids = [r for r in sub.net.ids if sub.net.vertices[r] != o]
            v = np.array([sub.net.vertices[r] for r in ids], dtype=complex)
            j = np.arange(1.0, jmax_v + 1.0)
            # o + j u - v, rounded as the complex scalars round it
            d = np.hypot((o.real + j * u.real) - v.real[:, None],
                         (o.imag + j * u.imag) - v.imag[:, None])
            bad = np.flatnonzero(d < 1.0 + GEOM_TOL)
            if bad.size:
                i, j = divmod(int(bad[0]), jmax_v)
                return False, (f"sub vertex {ids[i]!r} at {p!r} within "
                               f"{d[i, j]:.9f} of ray point j={j + 1} "
                               f"toward {q!r}")
        for i in range(len(rays)):
            for k in range(i + 1, len(rays)):
                o1, u1, q1 = rays[i]
                o2, u2, q2 = rays[k]
                cosg = max(-1.0, min(1.0, (u1 * u2.conjugate()).real))
                half = math.sqrt(max(0.0, (1.0 - cosg) / 2.0))  # sin(g/2)
                if half < 1e-6:
                    # near-parallel rays: min distance over lattice offsets
                    lat = abs((o2 - o1).imag * u1.real
                              - (o2 - o1).real * u1.imag)
                    if lat < 1.0 + GEOM_TOL and abs(o1 - o2) > GEOM_TOL:
                        return False, (f"parallel rays toward {q1!r},{q2!r} "
                                       f"at {p!r} separated by {lat:.6f}")
                    continue
                jmax = math.ceil((diam + 2) / (math.sqrt(2.0) * half)) + 1
                if jmax > RAY_J_MAX:
                    return False, (f"rays toward {q1!r} and {q2!r} at "
                                   f"{p!r} need points up to j={jmax}, "
                                   f"past {RAY_J_MAX}")
                j = np.arange(1.0, jmax + 1.0)
                # o1 + j u1 - o2 - j' u2 over the grid of j (rows), j'
                d = np.hypot(((o1.real + j * u1.real) - o2.real)[:, None]
                             - j * u2.real,
                             ((o1.imag + j * u1.imag) - o2.imag)[:, None]
                             - j * u2.imag)
                bad = np.flatnonzero(d < 1.0 + GEOM_TOL)
                if bad.size:
                    j, jp = divmod(int(bad[0]), jmax)
                    return False, (f"rays toward {q1!r} and {q2!r} "
                                   f"at {p!r}: points j={j + 1}, "
                                   f"j'={jp + 1} at distance "
                                   f"{d[j, jp]:.9f}")
    return True, ""


def solve_signs(asm):
    """Sign assignment satisfying the parity constraints, or an odd-cycle
    witness: (eta, witness) with eta p -> {r -> +-1}, or None when the
    constraints are inconsistent (see _sign_array)."""
    lay = layout(asm)
    eta, witness = _sign_array(asm, lay)
    if eta is None:
        return None, witness
    signs = iter(eta.tolist())   # layout order: each sub's vertices in turn
    return {p: dict(zip(asm.subs[p].net.ids, signs))
            for p in asm.master.ids}, ""


def _sign_array(asm, lay):
    """The signs of the sub vertices in layout order, or None, and an
    odd-cycle witness.

    Constraints: eta_r * eta_r' = sign(a) across each sub edge, and the two
    anchors of every master edge carry equal signs. The root of each
    component of the constraint forest carries +1; supplied signs are
    honored when consistent."""
    parent = list(range(len(lay.keys)))
    parity = [1] * len(lay.keys)    # sign relative to parent

    def find(i):
        if parent[i] == i:
            return i, 1
        root, s = find(parent[i])
        parent[i] = root
        parity[i] *= s
        return root, parity[i]

    def union(i, j, s):
        ri, si = find(i)
        rj, sj = find(j)
        if ri == rj:
            return si * sj == s
        parent[rj] = ri
        parity[rj] = si * s * sj
        return True

    ne = len(lay.edges)
    signs = np.where(lay.weights > 0, 1, -1).tolist() + [1] * asm.master.m
    for b, bond in enumerate(zip(lay.first.tolist(), lay.second.tolist(),
                                 signs)):
        if union(*bond):
            continue
        if b < ne:
            p, (u, v) = lay.edges[b]
            return None, f"odd cycle through sub edge {u!r}-{v!r} at {p!r}"
        p, q = asm.master.edges[b - ne]
        return None, f"odd cycle through master edge {p!r}-{q!r}"
    index = {key: i for i, key in enumerate(lay.keys)}
    pinned = {}
    for p in sorted(asm.signs):
        for r, s in asm.signs[p].items():
            root, rel = find(index[(p, r)])
            if root in pinned and pinned[root] != s * rel:
                return None, f"supplied signs inconsistent at ({p!r},{r!r})"
            pinned[root] = s * rel
    return np.array([pinned.get(root, 1) * rel
                     for root, rel in map(find, range(len(lay.keys)))],
                    dtype=int), ""


def verify_assembly(asm):
    conditions = {}
    details = {}
    lay = layout(asm)
    checks = [
        ("i_barycenter", lambda: _check_barycenters(lay)),
        ("ii_embedded_rays", lambda: _check_embedded_with_rays(asm)),
        ("iii_interior_balance", lambda: _check_balance(asm, lay, False)),
        ("iv_anchor_balance", lambda: _check_balance(asm, lay, True)),
        ("v_min_distance", lambda: _check_min_distance(asm)),
        ("vi_ray_separation", lambda: _check_ray_separation(asm)),
    ]
    for name, fn in checks:
        conditions[name], details[name] = fn()
    eta, witness = solve_signs(asm)
    conditions["vii_sign_compatibility"] = eta is not None
    details["vii_sign_compatibility"] = witness
    return AssemblyReport(conditions, details, eta or {})


# --- quantization ---------------------------------------------------------

def _estimate_weights(asm, f_total):
    """First-order master weights realizing the vertex forces f_total
    (modulo a shift e and rotation rate t) at the unmoved positions.
    Used to quantize against the weights the solve will actually find."""
    master = asm.master
    g = np.array([f_total.get(v, 0j) for v in master.ids], dtype=complex)
    sol, *_ = np.linalg.lstsq(augmented_df_a(master), g.view(float),
                              rcond=None)
    return {e: master.weights[e] + sol[k]
            for k, e in enumerate(master.edges)}


def coordinate_quantization(asm, kappa, ell, table, weights=None):
    """Chain counts chosen jointly with a global dilation factor mu.

    The rounded-up per-edge counts can be geometrically frustrated: the
    anchor gaps must close around master cycles once the sub-network
    anchor offsets are subtracted, and independent rounding can demand
    anchor offsets the sub-networks cannot provide. This picks the
    dilation mu (realized later by the solver's dilation unknown) whose
    nearest-integer counts minimize the worst per-edge defect between the
    quantized target 2m(1-alpha) and the dilated gap kappa*mu*|q-p| plus
    the anchor allowance read off the sub-network geometry. `weights`
    overrides the master weights the length corrections are taken at."""
    master = asm.master
    if weights is None:
        weights = master.weights
    edges = master.edges
    lay = layout(asm)
    z = master.positions()
    d = z[master.ends[1]] - z[master.ends[0]]
    r = np.hypot(d.real, d.imag)
    ne = len(lay.edges)
    gap = lay.pos[lay.second[ne:]] - lay.pos[lay.first[ne:]]
    # the gap along d / r, divided part by part as Python divides a complex
    # by a float (numpy's complex division rounds otherwise)
    allowance = gap.real * (d.real / r) + gap.imag * (d.imag / r)
    one_m_alpha = 1.0 - table.alpha_ell(
        np.array([weights[ek] for ek in edges]), ell)
    mus = np.linspace(1.0, MU_MAX, 3001)
    g = mus[:, None] * kappa * r + allowance          # (mu, edge)
    counts = np.maximum(1.0, np.rint(g / (2.0 * one_m_alpha)))
    defect = np.max(np.abs(2 * counts * one_m_alpha - g), axis=1,
                    initial=0.0)
    # the first mu whose defect beats the best so far by more than 1e-12
    best = 0
    while True:
        better = np.flatnonzero(defect[best + 1:] < defect[best] - 1e-12)
        if not better.size:
            break
        best += 1 + int(better[0])
    return ({ek: int(m) for ek, m in zip(edges, counts[best])},
            float(mus[best]))


# --- master solve ----------------------------------------------------------

@dataclass
class MasterSolveResult:
    """A solved assembly: positions and weights as arrays, the master's in
    canonical vertex and edge order, the subs' in `layout` order."""
    assembly: Assembly
    kappa: float
    ell: float
    m_map: dict                  # master edge -> chain count m
    layout: Layout
    master_positions: np.ndarray  # complex, one per master vertex
    master_weights: np.ndarray   # one per master edge
    sub_positions: np.ndarray    # complex, one per layout sub vertex
    sub_weights: np.ndarray      # one per layout sub edge
    e: complex
    t: float
    residuals: dict              # condition letter -> max residual
    info: NewtonInfo


def solve_master(asm, kappa, ell, table, f=None, tol=1e-11, skip_verify=False):
    """Positions and weights (master and sub-networks) realizing the
    quantized lengths and the anchored force balance, with the dilation
    directions of the weight and position blocks carried as explicit
    unknowns. Chain counts come from the coordinated quantization, which
    keeps the targets consistent around master cycles at finite kappa.
    Newton runs on the system's analytic Jacobian. `f` maps sub vertices
    (p, r) to the forces applied at them; a key that names no sub vertex
    raises ValueError."""
    if not skip_verify:
        report = verify_assembly(asm)
        if not report.ok:
            raise SolverError(f"assembly conditions fail: {report.failing()}")
    fun, jac, x0, finish = _master_system(asm, kappa, ell, table, f)
    try:
        x, info = damped_newton(fun, x0, jac=jac, tol=tol, maxiter=200,
                                max_step=0.25)
    except ValueError as exc:    # a trial weight left the alpha_ell table
        raise SolverError(f"master solve failed: {exc}") from exc
    if not info.converged:
        raise SolverError(f"master solve stalled: residual "
                          f"{info.residual:.3e} at equation "
                          f"{info.worst_equation}")
    return finish(x, info)


def _null_space(a):
    """Orthonormal basis of the null space of the matrix `a`, as columns,
    bit for bit as scipy.linalg.null_space finds it: the rows of V^T from
    the SVD past the singular values above eps * max(a.shape) times the
    largest."""
    _, s, vh = np.linalg.svd(a)
    tol = np.amax(s, initial=0.0) * (np.finfo(s.dtype).eps * max(a.shape))
    return vh[np.sum(s > tol, dtype=int):].T


def _master_system(asm, kappa, ell, table, f=None):
    """The master solve's equations as (fun, jac, x0, finish).

    fun(x) stacks the residual groups (a)-(f), jac(x) is its Jacobian in
    closed form, x0 the starting point, and finish(x, info) unpacks a
    solution into a MasterSolveResult."""
    master = asm.master
    n, m = master.n, master.m
    edges = master.edges
    lay = layout(asm)
    known = set(lay.keys)
    for key in f or ():
        if key not in known:
            raise ValueError(f"f key {key!r} names no sub vertex")
    w_est = None
    if f and any(abs(complex(v)) for v in f.values()):
        f_total = {}
        for (p, _r), val in f.items():
            f_total[p] = f_total.get(p, 0j) + complex(val)
        w_est = _estimate_weights(asm, f_total)
    try:
        m_map, mu0 = coordinate_quantization(asm, kappa, ell, table,
                                             weights=w_est)
    except ValueError as exc:    # a weight has no alpha_ell at ell
        raise SolverError(f"chain quantization failed: {exc}") from exc

    # The master block x[:nm] moves the master positions (x, y
    # interleaved) and weights by the affine maps pvec + dP x[:nm] and
    # avec + dA x[:nm]: their null-space directions, then the dilation
    # rates cdot and ddot.
    zv = master.positions()
    pvec = zv.view(float)
    avec = master.weight_array()
    nm = 2 * n + m               # reparametrized master block size
    dP = np.zeros((2 * n, nm))
    dP[:, :2 * n - 1] = _null_space(pvec[None, :])
    dP[:, nm - 2] = -(2 * ell - 1) / 2 * pvec
    dP[:, nm - 1] = pvec
    dA = np.zeros((m, nm))
    dA[:, 2 * n - 1:nm - 2] = _null_space(avec[None, :])
    dA[:, nm - 2] = -ell ** 2 * avec

    # Sub-network unknowns follow the master block, e and t: per master
    # vertex in canonical order, the sub's positions (x, y interleaved)
    # then its weights: the layout's order, which is also the row order
    # of groups (a), (c)/(d).
    owner, starts, first, second = lay.owner, lay.starts, lay.first, lay.second
    n_sub_edges = len(lay.edges)
    edge_owner = owner[first[:n_sub_edges]]
    # a sub takes 2 n + m entries, so a vertex's x comes after two entries
    # per earlier vertex and one per sub edge of earlier subs, and a sub
    # edge's weight after two per vertex up to its sub's last and one per
    # earlier sub edge
    pos_at = (nm + 3 + 2 * np.arange(len(owner))
              + np.searchsorted(edge_owner, owner))
    w_at = (nm + 3 + 2 * np.searchsorted(owner, edge_owner, side="right")
            + np.arange(n_sub_edges))
    N = nm + 3 + 2 * len(owner) + n_sub_edges
    mp, mq = master.ends         # master vertex index of each edge's ends
    twice_m = 2 * np.array([m_map[ek] for ek in edges], dtype=float)
    fvec = np.array([complex((f or {}).get(key, 0)) for key in lay.keys],
                    dtype=complex)
    sub_n = np.diff(starts, append=len(owner)).astype(float)

    def unpack(x):
        pv = pvec + dP @ x[:nm]
        phi = pv[0::2] + 1j * pv[1::2]
        spos = x[pos_at] + 1j * x[pos_at + 1]
        return (phi, avec + dA @ x[:nm], complex(x[nm], x[nm + 1]),
                x[nm + 2], spos, x[w_at])

    def bond_vectors(phi, spos):
        # sub edges, then master-edge anchor gaps
        d = spos[second] - spos[first]
        d[n_sub_edges:] += kappa * (phi[mq] - phi[mp])
        return d

    def residual_groups(phi, aw, e_vec, t, spos, sw):
        weights = np.concatenate([sw, aw])
        one_m_alpha = 1.0 - table.alpha_ell(weights, ell)
        d = bond_vectors(phi, spos)
        length = np.abs(d)
        # (a) sub edge lengths, (b) quantized lengths of master edges
        ra = length[:n_sub_edges] - one_m_alpha[:n_sub_edges]
        rb = length[n_sub_edges:] - twice_m * one_m_alpha[n_sub_edges:]
        # (c)/(d) force balance at every sub vertex
        F = bond_forces(len(owner), first, second, d, weights)
        g = F - fvec - (e_vec + 1j * t * zv[owner]) / sub_n[owner]
        # (e) sub barycenters
        bary = np.add.reduceat(spos, starts)
        # (f) master translation and rotation gauges
        moved = phi - zv
        tr = moved.sum()
        rf = np.array([tr.real, tr.imag, (zv.conj() * moved).imag.sum()])
        return ra, rb, g.view(float), bary.view(float), rf

    def fun(x):
        ra, rb, rcd, re_, rf = residual_groups(*unpack(x))
        return np.concatenate([ra, rb / kappa, rcd, re_, rf])

    # Jacobian. Bond b has five rows: its length row b in (a)/(b) and the
    # x, y force rows of its first and second ends in (c)/(d). Its bond
    # vector d moves with the x, y of both ends' sub positions (local
    # columns) and, for a master edge, with kappa times its master
    # endpoints' offset (master block, through dP). Its weight is one
    # column for a sub edge and a row of dA for a master edge.
    cd = n_sub_edges + m         # first row of (c)/(d)
    rows = np.column_stack([np.arange(len(first)),
                            cd + 2 * first, cd + 2 * first + 1,
                            cd + 2 * second, cd + 2 * second + 1])
    cols = np.column_stack([pos_at[first], pos_at[first] + 1,
                            pos_at[second], pos_at[second] + 1])
    sparse_rows = np.concatenate([
        np.broadcast_to(rows[:, :, None], rows.shape + (4,)).ravel(),
        rows[:n_sub_edges].ravel()])
    sparse_cols = np.concatenate([
        np.broadcast_to(cols[:, None, :], rows.shape + (4,)).ravel(),
        np.repeat(w_at, 5)])
    row_scale = np.concatenate([np.ones(n_sub_edges), np.full(m, 1 / kappa)])
    dw_scale = row_scale * np.concatenate([np.ones(n_sub_edges), twice_m])
    # d(x, y of a master edge's bond vector)/d(master block): (m, 2, nm)
    dd_master = kappa * (dP[2 * mq[:, None] + [0, 1]]
                         - dP[2 * mp[:, None] + [0, 1]])
    # the e, t columns of (c)/(d) and the rows (e), (f) are constant
    J0 = np.zeros((N, N))
    vrow = cd + 2 * np.arange(len(owner))
    J0[vrow, nm] = J0[vrow + 1, nm + 1] = -1.0 / sub_n[owner]
    J0[vrow, nm + 2] = zv[owner].imag / sub_n[owner]
    J0[vrow + 1, nm + 2] = -zv[owner].real / sub_n[owner]
    erow = cd + 2 * len(owner) + 2 * owner
    J0[erow, pos_at] = J0[erow + 1, pos_at + 1] = 1.0
    J0[N - 3] = np.pad(dP[0::2].sum(axis=0), (0, N - nm))
    J0[N - 2] = np.pad(dP[1::2].sum(axis=0), (0, N - nm))
    J0[N - 1] = np.pad(zv.real @ dP[1::2] - zv.imag @ dP[0::2], (0, N - nm))

    def jac(x):
        phi, aw, _e, _t, spos, sw = unpack(x)
        weights = np.concatenate([sw, aw])
        d = bond_vectors(phi, spos)
        length = np.abs(d)
        u = np.column_stack([d.real, d.imag]) / length[:, None]
        # force w u: d/dd = w (I - u u^T)/|d|, d/dw = u
        K = (weights / length)[:, None, None] * (
            np.eye(2) - u[:, :, None] * u[:, None, :])
        # row b: d|d|/dd = u, and d(1 - alpha)/dw = -dalpha_da
        by_d = np.concatenate([(row_scale[:, None] * u)[:, None, :],
                               K, -K], axis=1)              # (bonds, 5, 2)
        by_w = np.column_stack([dw_scale * table.dalpha_da(weights, ell),
                                u, -u])                      # (bonds, 5)
        # d = second - first: columns first x, y, second x, y
        local = np.tile(by_d, 2) * [-1, -1, 1, 1]
        J = J0.copy()
        np.add.at(J, (sparse_rows, sparse_cols),
                  np.concatenate([local.ravel(), by_w[:n_sub_edges].ravel()]))
        master_rows = (by_d[n_sub_edges:] @ dd_master
                       + by_w[n_sub_edges:, :, None] * dA[:, None, :])
        np.add.at(J[:, :nm], rows[n_sub_edges:].ravel(),
                  master_rows.reshape(-1, nm))
        return J

    x0 = np.zeros(N)
    x0[nm - 1] = mu0 - 1.0       # seed the dilation at the quantized scale
    x0[pos_at] = lay.pos.real
    x0[pos_at + 1] = lay.pos.imag
    x0[w_at] = lay.weights

    def finish(x, info):
        phi, aw, e_vec, t, spos, sw = unpack(x)
        groups = residual_groups(phi, aw, e_vec, t, spos, sw)
        res = {name: float(np.max(np.abs(vals), initial=0.0))
               for name, vals in zip(("a", "b", "cd", "e", "f"), groups)}
        return MasterSolveResult(asm, kappa, ell, m_map, lay, phi, aw, spos,
                                 sw, e_vec, float(t), res, info)

    return fun, jac, x0, finish


# --- point cloud -----------------------------------------------------------

class CloudPoint(NamedTuple):
    """One point of a cloud, as `Configuration.points` lists it."""
    z: complex
    sign: int
    provenance: str


class CloudPoints(Sequence):
    """Read-only view of a Configuration point by point: its length is
    the point count, and item i, the CloudPoint of point i, is built when
    it is read."""

    def __init__(self, config):
        self._config = config

    def __len__(self):
        return len(self._config.positions)

    def __getitem__(self, i):
        c = self._config
        return CloudPoint(c.positions[i].item(), c.signs[i].item(),
                          c.provenance[i])


def _read_only(a):
    a.flags.writeable = False
    return a


def _runs(start, stop):
    """The positions range(a, b) for each pair of start and stop, one run
    after another (a run with b <= a is empty)."""
    n = np.maximum(stop - start, 0)
    return np.arange(n.sum()) + np.repeat(start - (np.cumsum(n) - n), n)


class CloudIndex:
    """A grid of square cells of side `cell` over the (x, y) of a cloud's
    finite points. Each point's cell key row * ncol + col is sorted once,
    so the points of one row of cells between two columns are one run of
    the sorted order, which searchsorted finds.

    Queries return candidates: every point the radius reaches and perhaps
    a few just beyond it, in ascending index order. Callers re-apply their
    own distance test to them, so results do not depend on how the index
    rounds distances. Points at non-finite positions pass no distance
    test and are left out of the grid. A query costs least when its
    radius is about a cell."""

    def __init__(self, positions, cell):
        if not 0.0 < cell < math.inf:
            raise ValueError(f"cell side must be positive and finite, "
                             f"not {cell}")
        finite = np.isfinite(positions)
        z = positions[finite]
        x0, y0 = (z.real.min(), z.imag.min()) if z.size else (0.0, 0.0)
        # radius slack: many times the rounding of a distance computed
        # from these coordinates
        self._slack = 1e-9 * (1.0 + float(np.max(
            np.abs(np.concatenate((z.real, z.imag))), initial=0.0)))
        # at most 2**30 cells a side, so that every key fits an int64; a
        # coarser cell only adds candidates
        spread = max(np.ptp(z.real), np.ptp(z.imag)) if z.size else 0.0
        self._cell = max(float(cell), spread / 2.0 ** 30)
        self._origin = complex(x0, y0)
        col = ((z.real - x0) / self._cell).astype(np.int64)
        row = ((z.imag - y0) / self._cell).astype(np.int64)
        self._ncol = int(col.max(initial=0)) + 1
        key = row * self._ncol + col
        order = np.argsort(key, kind="stable")
        self._key, self._row, self._col = key[order], row[order], col[order]
        self._ids = np.flatnonzero(finite)[order]
        self._size = len(positions)
        self._z = z[order]
        self._occupied = np.unique(row)      # the rows holding a point

    def near(self, center, r):
        """Candidate indices (an int array) of the points within r of the
        complex center."""
        c = complex(center)
        reach = r + self._slack
        if not (cmath.isfinite(c) and reach >= 0.0):
            return self._ids[:0]
        # the cells of the square [c - reach, c + reach]^2, clipped near
        # the grid before they become integers
        o = c - self._origin
        x_lo, y_lo, x_hi, y_hi = (
            math.floor(min(max(t / self._cell, -1.0), 2.0 ** 31))
            for t in (o.real - reach, o.imag - reach,
                      o.real + reach, o.imag + reach))
        a, b = np.searchsorted(self._occupied, (y_lo, y_hi + 1))
        k = _runs(*np.searchsorted(
            self._key, self._occupied[a:b] * self._ncol
            + [[max(x_lo, 0)], [min(x_hi, self._ncol - 1) + 1]]))
        k = k[np.abs(self._z[k] - c) <= reach]
        return np.sort(self._ids[k])

    def pairs(self, r):
        """Candidate index pairs (i < j) at distance <= r, as a (k, 2)
        array in lexicographic order."""
        reach = r + self._slack
        if not reach >= 0.0:
            return np.empty((0, 2), dtype=self._ids.dtype)
        # rings of cells that can hold a point within reach
        k = math.ceil(min(reach / self._cell, 2.0 ** 31))
        # each point against the occupied rows from its own to k above
        # it, columns col - k to col + k; on its own row (the first of
        # its runs) only against the points after it in the sorted order
        first = np.searchsorted(self._occupied, self._row)
        count = np.searchsorted(self._occupied, self._row + k + 1) - first
        p = np.repeat(np.arange(len(self._key)), count)
        base = self._occupied[_runs(first, first + count)] * self._ncol
        col = self._col[p]
        start, stop = np.searchsorted(self._key, (
            base + np.maximum(col - k, 0),
            base + np.minimum(col + k, self._ncol - 1) + 1))
        start[np.cumsum(count) - count] = np.arange(1, len(self._key) + 1)
        a, b = np.repeat(p, stop - start), _runs(start, stop)
        keep = np.abs(self._z[a] - self._z[b]) <= reach
        i, j = self._ids[a[keep]], self._ids[b[keep]]
        # i < j in lexicographic order, by the key i n + j
        n = self._size
        return np.column_stack(np.divmod(
            np.sort(np.minimum(i, j) * n + np.maximum(i, j)), n))


@dataclass(eq=False)
class Configuration:
    """A point cloud as arrays, one entry per point: complex `positions`,
    int `signs` (+-1) and `provenance` labels, plus what generation knew.
    `band` is the half width C of neighbor_graph's near band |d - ell| <=
    C. `expected_degree[i]` is the near-neighbor count point i should
    have, or -1 where it is not known (all -1 when not given). The arrays
    are read-only copies of what the constructor is given."""
    positions: np.ndarray
    signs: np.ndarray
    provenance: list
    ell: float
    band: float = 0.5
    expected_degree: np.ndarray = None

    def __post_init__(self):
        self.positions = _read_only(np.array(self.positions, dtype=complex,
                                             ndmin=1))
        self.signs = _read_only(np.array(self.signs, dtype=int, ndmin=1))
        self.provenance = list(self.provenance)
        expected = (np.full(len(self.positions), -1)
                    if self.expected_degree is None else self.expected_degree)
        self.expected_degree = _read_only(np.array(expected, dtype=int,
                                                   ndmin=1))

    @property
    def points(self):
        """The points as a read-only sequence of CloudPoint."""
        return CloudPoints(self)

    @cached_property
    def index(self):
        """The CloudIndex of `positions` in cells of side ell, built on
        first use and kept."""
        return CloudIndex(self.positions, self.ell)


def generate_cloud(result, table):
    """The point cloud of a solved assembly: every sub-network vertex at
    ell (kappa P_p + z_r), then each master edge's 2m - 1 chain points
    spaced ell - lambda_e from its p-side anchor toward its q-side one.
    The near band is the largest |lambda_e| of any bond plus 0.1, as the
    intended neighbor distances are ell - lambda_e."""
    asm, lay = result.assembly, result.layout
    ell, kappa = result.ell, result.kappa
    eta, witness = _sign_array(asm, lay)
    if eta is None:
        raise SolverError(f"sign conditions unsatisfiable: {witness}")
    ne = len(lay.edges)
    sub_z = ell * (kappa * result.master_positions[lay.owner]
                   + result.sub_positions)
    lam = ell * table.alpha_ell(
        np.concatenate([result.sub_weights, result.master_weights]), ell)
    ap, aq = sub_z[lay.first[ne:]], sub_z[lay.second[ne:]]
    d = aq - ap
    r = np.hypot(d.real, d.imag)
    # parts divided one by one, as Python divides a complex by a float
    e_pq = np.column_stack([d.real / r, d.imag / r]).view(complex).ravel()
    # chain point i lies on master edge b[i], j[i] = 1 .. 2m - 1 steps out
    m = np.array([result.m_map[ek] for ek in asm.master.edges], dtype=int)
    b = np.repeat(np.arange(len(m)), 2 * m - 1)
    j = _runs(np.ones_like(m), 2 * m)
    chain = ap[b] + (j * (ell - lam[ne:][b])) * e_pq[b]
    # the chain of a negative edge alternates its signs
    alternate = np.where(result.master_weights[b] < 0, 1 - 2 * (j % 2), 1)
    provenance = [f"{'anchor' if a else 'internal'}:{p}:{r}"
                  for (p, r), a in zip(lay.keys, lay.anchored.tolist())]
    provenance += [f"chain:{p}:{q}:{i}" for (p, q), mk
                   in zip(asm.master.edges, m.tolist())
                   for i in range(1, 2 * mk)]
    # a sub vertex expects a near neighbor across each of its bonds
    degree = np.bincount(np.concatenate([lay.first, lay.second]),
                         minlength=len(lay.keys))
    return Configuration(
        np.concatenate([sub_z, chain]),
        np.concatenate([eta, eta[lay.first[ne:]][b] * alternate]),
        provenance, ell,
        float(np.max(np.abs(lam))) + 0.1 if lam.size else 0.5,
        np.concatenate([degree, np.full(len(b), 2)]))


CLOUD_HEADER = "x,y,sign,provenance"


def save_cloud(config, path):
    """Write the cloud as CSV: x and y with 17 significant digits (enough
    to read back every double exactly), sign, provenance."""
    n = len(config.positions)
    cells = [None] * (4 * n)
    cells[0::4] = config.positions.real.tolist()
    cells[1::4] = config.positions.imag.tolist()
    cells[2::4] = config.signs.tolist()
    cells[3::4] = config.provenance
    with open(path, "w") as fh:
        fh.write(CLOUD_HEADER + "\n")
        fh.write(("%.17g,%.17g,%d,%s\n" * n) % tuple(cells))


def load_cloud(path, ell):
    """Read a cloud CSV written by save_cloud. Lines are stripped and blank
    ones skipped; a provenance may hold commas. Each line goes straight
    into the columns, which keeps the transient memory of a large cloud
    at about that of its arrays."""
    x, y, signs, provenance = [], [], [], []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CLOUD_HEADER:
            raise NetworkError(f"unexpected cloud header {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            xs, ys, s, prov = line.split(",", 3)
            x.append(float(xs))
            y.append(float(ys))
            signs.append(int(s))
            provenance.append(prov)
    positions = np.empty(len(x), dtype=complex)
    positions.real = x
    positions.imag = y
    return Configuration(positions, signs, provenance, ell)


# --- closest neighbors ------------------------------------------------------

@dataclass(eq=False)
class NeighborReport:
    near_pairs: np.ndarray       # (k, 2) near index pairs i < j, sorted
    violations: list             # (i, j, distance) outside both bands
    degree_mismatches: list      # (i, expected, got)
    size: int                    # number of points

    @property
    def ok(self):
        return not self.violations and not self.degree_mismatches

    @cached_property
    def neighbors(self):
        """index -> sorted list of near indices, built on first use (in
        pair order each list gets its smaller partners, then its larger
        ones, each ascending)."""
        neighbors = [[] for _ in range(self.size)]
        for a, b in self.near_pairs.tolist():
            neighbors[a].append(b)
            neighbors[b].append(a)
        return neighbors


def neighbor_graph(config, delta=0.05):
    """Classify all pairwise distances into the near band |d - ell| <= C or
    the far band d >= (1+delta) ell; anything in between is a violation.
    Near-neighbor counts are checked against the generation-time expected
    degrees where the configuration knows them.

    C is the cloud's `band`: generate_cloud sets it to the largest length
    correction |lambda_e| plus 0.1, since intended neighbor distances are
    ell - lambda_e; a cloud read from a file has the default 0.5."""
    C = config.band
    z = config.positions
    ell = config.ell
    far = (1.0 + delta) * ell
    # every near or in-between pair is within the larger band edge; fmax
    # skips a NaN edge, which no distance can pass
    ij = config.index.pairs(float(np.fmax(far, ell + C)))
    i, j = ij.T
    d = np.abs(z[j] - z[i])
    near = np.abs(d - ell) <= C
    bad = ~near & (d < far)
    violations = list(zip(i[bad].tolist(), j[bad].tolist(),
                          d[bad].tolist()))
    got = np.bincount(ij[near].ravel(), minlength=len(z))
    expect = config.expected_degree
    off = np.flatnonzero((expect >= 0) & (expect != got))
    mismatches = list(zip(off.tolist(), expect[off].tolist(),
                          got[off].tolist()))
    return NeighborReport(ij[near], violations, mismatches, len(z))


def diagnostic_chain_cloud(table, ell, m, a=1.0, eta0=1):
    """Two anchors plus 2m-1 chain points on the x-axis: the two-vertex
    master diagnostic (bypasses the master solve)."""
    lam = ell * table.alpha_ell(a, ell)
    j = np.arange(2 * m + 1)
    positions = (j * (ell - lam)).astype(complex)
    signs = eta0 * (1 - 2 * (j % 2)) if a < 0 else np.full(len(j), eta0)
    provenance = (["anchor:p:o"]
                  + [f"chain:p:q:{i}" for i in j[1:-1].tolist()]
                  + ["anchor:q:o"])
    expected = np.full(len(j), 2)
    expected[[0, -1]] = 1
    return Configuration(positions, signs, provenance, ell, abs(lam) + 0.1,
                         expected)
