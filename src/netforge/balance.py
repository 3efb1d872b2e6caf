"""Perturbation solvers: re-balance moved networks, realize prescribed
forces and lengths, and the explicit triangle realization."""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .catalog import triangle
from .linearize import build_differentials, certify
from .network import Network, forces, total_weight
from .solvers import NewtonInfo, SolverError, damped_newton


@dataclass
class PerturbationResult:
    phi: dict            # id -> complex
    a_tilde: dict        # edge -> float
    e: complex
    t: float
    residual: float
    iterations: int


def _force_defect(net, phi, weights, e, t):
    moved = net.with_positions(phi).with_weights(weights)
    F = forces(moved)
    return max(abs(F[v] + e + 1j * t * phi[v]) for v in net.ids)


def balance_nearby(net, phi, tol=1e-11):
    """Weights near a making the moved network balanced (m = 2n-2 case).

    The augmented system force + e + i t phi_p = 0 with gauge
    <a_tilde - a, a> = 0 is linear in (a_tilde, e, t), so one solve
    suffices; the returned e and t vanish when the solve succeeds, which
    tests assert rather than assume.
    """
    cert = certify(net)
    if not (cert.balanced and cert.flexible):
        raise SolverError("balance_nearby needs a balanced flexible network")
    if net.m != 2 * net.n - 2 or cert.df_a_rank != 2 * net.n - 3:
        raise SolverError("balance_nearby needs m = 2n-2 with df_a rank 2n-3")
    a0 = np.array([net.weights[e] for e in net.edges])
    scale = max(total_weight(net), 1.0)
    if _force_defect(net, phi, net.weights, 0j, 0.0) < tol * scale:
        return PerturbationResult(dict(phi), dict(net.weights), 0j, 0.0,
                                  _force_defect(net, phi, net.weights, 0j, 0.0), 0)
    moved = net.with_positions(phi)
    sysm = build_differentials(moved)
    n, m = net.n, net.m
    M = np.zeros((2 * n + 1, m + 3))
    M[:2 * n, :m] = sysm.df_a
    for i, vid in enumerate(moved.ids):
        M[2 * i, m] = 1.0
        M[2 * i + 1, m + 1] = 1.0
        z = phi[vid]
        M[2 * i, m + 2] = -z.imag
        M[2 * i + 1, m + 2] = z.real
    M[2 * n, :m] = a0
    rhs = np.zeros(2 * n + 1)
    rhs[2 * n] = float(a0 @ a0)
    try:
        sol = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError("balance system is singular; phi too far from Id"
                          ) from exc
    w = {e: sol[k] for k, e in enumerate(net.edges)}
    if any(v == 0.0 for v in w.values()):
        raise SolverError("balanced weights hit zero")
    e = complex(sol[m], sol[m + 1])
    t = float(sol[m + 2])
    res = _force_defect(net, phi, w, e, t)
    return PerturbationResult(dict(phi), w, e, t, res, 1)


def _pack_unbalanced(net, f, alpha_of, tol):
    """Shared driver for the unbalanced perturbation solvers.

    alpha_of(weights array) -> per-edge alpha array (may depend on the
    solved weights).
    """
    cert = certify(net)
    if cert.balanced or not cert.flexible:
        raise SolverError("needs an unbalanced flexible network")
    ids = net.ids
    idx = net.index()
    edges = net.edges
    n, m = net.n, net.m
    a0 = np.array([net.weights[e] for e in edges])
    p0 = np.array([c for v in ids for c in (net.vertices[v].real,
                                            net.vertices[v].imag)])
    F0 = forces(net)
    fv = {v: complex(f.get(v, 0)) if f else 0j for v in ids}

    def unpack(x):
        pos = {v: complex(x[2 * i], x[2 * i + 1]) for v, i in idx.items()}
        w = x[2 * n:2 * n + m]
        e = complex(x[2 * n + m], x[2 * n + m + 1])
        return pos, w, e

    def fun(x):
        pos, w, e = unpack(x)
        out = np.empty(2 * n + m + 2)
        F = {v: 0j for v in ids}
        for k, (u, v) in enumerate(edges):
            d = pos[v] - pos[u]
            r = abs(d)
            F[u] += w[k] * d / r
            F[v] -= w[k] * d / r
        for v, i in idx.items():
            g = F[v] - F0[v] - fv[v] - e
            out[2 * i] = g.real
            out[2 * i + 1] = g.imag
        al = alpha_of(w)
        for k, (u, v) in enumerate(edges):
            out[2 * n + k] = abs(pos[v] - pos[u]) - (1.0 - al[k])
        bary = sum(pos[v] - net.vertices[v] for v in ids)
        out[2 * n + m] = bary.real
        out[2 * n + m + 1] = bary.imag
        return out

    x0 = np.concatenate([p0, a0, [0.0, 0.0]])
    x, info = damped_newton(fun, x0, tol=tol, scale=1.0)
    if not info.converged:
        raise SolverError(f"Newton stalled: residual {info.residual:.3e} "
                          f"at equation {info.worst_equation}")
    pos, w, e = unpack(x)
    return PerturbationResult(pos, {ek: w[k] for k, ek in enumerate(edges)},
                              e, 0.0, info.residual, info.iterations)


def perturb_unbalanced(net, f=None, alpha=None, tol=1e-11):
    """Realize shifted forces f_p + e and edge lengths 1 - alpha_[p,q] on an
    unbalanced flexible unitary network, with barycenter gauge."""
    al = np.array([float(alpha.get(e, 0)) if alpha else 0.0
                   for e in net.edges])
    return _pack_unbalanced(net, f, lambda w: al, tol)


def perturb_unbalanced_coupled(net, f, ell, table=None, tol=1e-11):
    """Same but the length corrections are alpha_ell of the solved weights
    themselves. ell = inf runs the uncoupled alpha = 0 limit."""
    if math.isinf(ell):
        return _pack_unbalanced(net, f, lambda w: np.zeros(len(w)), tol)
    if table is None:
        raise SolverError("finite ell needs an interaction table")
    return _pack_unbalanced(net, f, lambda w: table.alpha_ell(w, ell), tol)


ZETA = cmath.exp(2j * math.pi / 3)


def _triangle_matrix(theta):
    verts = [cmath.exp(1j * theta) * ZETA ** l / math.sqrt(3)
             for l in range(3)]
    M = np.zeros((6, 3))
    for k, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
        u = verts[j] - verts[i]  # unit by construction
        M[2 * i, k] += u.real
        M[2 * i + 1, k] += u.imag
        M[2 * j, k] -= u.real
        M[2 * j + 1, k] -= u.imag
    return M, verts


def realize_triangle(f0, f1, f2, sign_product=None, tol=1e-12):
    """Rotation theta and weights (a01, a12, a20) such that the rotated unit
    triangle has exactly the prescribed vertex forces.

    Requires f0 + f1 + f2 = 0 with not all zero. Returns
    (theta, weights, unique); unique is False when f_j = zeta^2 f_{j-1}
    (the determining linear form vanishes). The solution comes in two
    branches (theta, a) and (theta + pi, -a); pass sign_product = +-1 to
    select the branch whose weight signs multiply to that value.
    """
    f = [complex(f0), complex(f1), complex(f2)]
    scale = max(abs(v) for v in f)
    if scale == 0.0:
        raise ValueError("all-zero forces: weights would vanish")
    if abs(sum(f)) > 1e-12 * max(scale, 1.0) * 10:
        raise ValueError("forces must sum to zero")
    w = (ZETA ** 2 * f[1] - f[2]) / (1 - ZETA ** 2)
    unique = abs(w) > tol * scale
    if unique:
        candidates = [cmath.phase(w) % math.pi]
    else:
        candidates = [k * math.pi / 180.0 for k in range(180)]
    rhs = np.array([c for v in f for c in (v.real, v.imag)])
    best = None
    for theta in candidates:
        M, _ = _triangle_matrix(theta)
        sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        res = float(np.max(np.abs(M @ sol - rhs)))
        if best is None or res < best[2]:
            best = (theta, sol, res)
    theta, sol, res = best
    if res > 1e-9 * max(scale, 1.0):
        raise ValueError(f"no consistent triangle realization (defect {res:.2e})")
    if any(s == 0.0 for s in sol):
        raise ValueError("realized weights vanish")
    if sign_product is not None:
        prod = 1.0
        for s in sol:
            prod *= math.copysign(1.0, s)
        if prod != sign_product:
            theta = (theta + math.pi) % (2 * math.pi)
            sol = -sol
    return theta, tuple(float(s) for s in sol), unique


def realized_triangle_network(theta, weights):
    return triangle(theta, weights)
