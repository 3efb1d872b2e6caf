"""Perturbation solvers: re-balance moved networks, and the explicit
triangle realization."""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linearize import augmented_df_a, certify
from .network import bond_forces, total_weight
# damped_newton is unused here: perfbench/spans.py patches it by name
from .solvers import SolverError, damped_newton


@dataclass
class PerturbationResult:
    phi: dict            # id -> complex
    a_tilde: dict        # edge -> float
    e: complex
    t: float
    residual: float
    iterations: int


def _force_defect(net, z, w, e, t):
    """max |force + e + i t z| over the vertices of net moved to positions
    z with weights w (arrays in canonical order)."""
    first, second = net.ends
    F = bond_forces(net.n, first, second, z[second] - z[first], w)
    return float(np.max(np.abs(F + e + 1j * t * z)))


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
    a0 = net.weight_array()
    z = np.array([phi[v] for v in net.ids], dtype=complex)
    scale = max(total_weight(net), 1.0)
    res = _force_defect(net, z, a0, 0j, 0.0)
    if res < tol * scale:
        return PerturbationResult(dict(phi), dict(net.weights), 0j, 0.0,
                                  res, 0)
    m = net.m
    M = np.vstack([augmented_df_a(net.with_positions(phi)),
                   np.concatenate([a0, np.zeros(3)])])
    rhs = np.zeros(len(M))
    rhs[-1] = float(a0 @ a0)
    try:
        sol = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError("balance system is singular; phi too far from Id"
                          ) from exc
    if np.any(sol[:m] == 0.0):
        raise SolverError("balanced weights hit zero")
    e = complex(sol[m], sol[m + 1])
    t = float(sol[m + 2])
    res = _force_defect(net, z, sol[:m], e, t)
    return PerturbationResult(dict(phi), dict(zip(net.edges, sol[:m])),
                              e, t, res, 1)


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

