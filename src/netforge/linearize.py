"""Differentials of the force and length maps, rank certificates.

Conventions. Vertex displacement coordinates are (x_0, y_0, x_1, y_1, ...)
in canonical vertex order; edge rows/columns follow canonical edge order.
The force definition uses unit vectors (q-p)/|q-p| toward the neighbor, so
the weight differential satisfies df_a = -(dl)^T exactly (the length
differential rows carry (p-q)/|p-q|).
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .network import is_balanced, is_connected, is_embedded, is_unitary

RANK_SAFETY = 1e3
GAP_CONFIDENT = 10.0


@dataclass
class DifferentialSystem:
    net: object
    dl: np.ndarray        # m x 2n
    df_phi: np.ndarray    # 2n x 2n
    df_a: np.ndarray      # 2n x m
    t_vector: np.ndarray  # m


def build_differentials(net):
    n, m = net.n, net.m
    idx = net.index()
    dl = np.zeros((m, 2 * n))
    df_phi = np.zeros((2 * n, 2 * n))
    df_a = np.zeros((2 * n, m))
    t_vec = np.zeros(m)
    for k, (u, v) in enumerate(net.edges):
        p = net.vertices[u]
        q = net.vertices[v]
        a = net.weights[(u, v)]
        d = q - p
        r = abs(d)
        iu, iv = idx[u], idx[v]
        ux, uy = d.real / r, d.imag / r
        # length differential: <p-q, phidot_p - phidot_q>/|p-q|
        dl[k, 2 * iu:2 * iu + 2] = (-ux, -uy)
        dl[k, 2 * iv:2 * iv + 2] = (ux, uy)
        # weight differential: unit vector toward the neighbor at each end
        df_a[2 * iu:2 * iu + 2, k] = (ux, uy)
        df_a[2 * iv:2 * iv + 2, k] = (-ux, -uy)
        # position differential: a * (I - uu^T)/r acting on phidot_q - phidot_p
        proj = (np.eye(2) - np.outer((ux, uy), (ux, uy))) * (a / r)
        for (i, j, s) in ((iu, iv, 1.0), (iu, iu, -1.0),
                          (iv, iu, 1.0), (iv, iv, -1.0)):
            df_phi[2 * i:2 * i + 2, 2 * j:2 * j + 2] += s * proj
        t_vec[k] = r * math.log(abs(a))
    return DifferentialSystem(net, dl, df_phi, df_a, t_vec)


def augmented_df_a(net):
    """df_a with three columns appended: the force of a translation e
    (x, then y) and of a rotation rate t, i.e. of e + i t z_p at each
    vertex p."""
    m = net.m
    z = net.positions()
    M = np.zeros((2 * net.n, m + 3))
    M[:, :m] = build_differentials(net).df_a
    M[0::2, m] = 1.0
    M[1::2, m + 1] = 1.0
    M[0::2, m + 2] = -z.imag
    M[1::2, m + 2] = z.real
    return M


def adjointness_defect(sys):
    return float(np.max(np.abs(sys.df_a.T + sys.dl))) if sys.dl.size else 0.0


def lambda_matrix(sys):
    """The combined differential: (phidot, adot) -> (force dot, length dot)."""
    n2 = sys.df_phi.shape[0]
    m = sys.dl.shape[0]
    top = np.hstack([sys.df_phi, sys.df_a])
    bot = np.hstack([sys.dl, np.zeros((m, m))])
    return np.vstack([top, bot])


def lambda_ring_matrix(sys):
    """Lambda augmented by the extra length-scaling column (0; T)."""
    lam = lambda_matrix(sys)
    n2 = sys.df_phi.shape[0]
    col = np.concatenate([np.zeros(n2), sys.t_vector])
    return np.hstack([lam, col[:, None]])


def numerical_rank(mat):
    """(rank, singular values, gap_ratio) with the documented threshold."""
    if mat.size == 0:
        return 0, np.zeros(0), math.inf
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv[0] == 0.0:
        return 0, sv, math.inf
    tau = max(mat.shape) * np.finfo(float).eps * sv[0] * RANK_SAFETY
    rank = int(np.sum(sv > tau))
    if rank == 0 or rank == len(sv) or sv[rank] == 0.0:
        gap = math.inf
    else:
        gap = float(sv[rank - 1] / sv[rank])
    return rank, sv, gap


@dataclass
class Certificate:
    n: int
    m: int
    connected: bool
    embedded: bool
    unitary: bool
    balanced: bool
    lambda_rank: int
    required_rank_flexible: int
    flexible: bool
    closable_rank: int | None
    closable: bool | None
    df_a_rank: int | None
    singular_values: list = field(default_factory=list)
    gap_ratio: float = math.inf
    borderline: bool = False

    def to_obj(self):
        return {
            "n": self.n, "m": self.m,
            "connected": self.connected, "embedded": self.embedded,
            "unitary": self.unitary, "balanced": self.balanced,
            "lambda_rank": self.lambda_rank,
            "required_rank_flexible": self.required_rank_flexible,
            "flexible": self.flexible,
            "closable_rank": self.closable_rank,
            "closable": self.closable,
            "df_a_rank": self.df_a_rank,
            # an infinite ratio (no gap: no edges, or full rank) as null
            "gap_ratio": (self.gap_ratio if math.isfinite(self.gap_ratio)
                          else None),
            "borderline": self.borderline,
            "singular_values": list(map(float, self.singular_values)),
        }

    def to_json(self):
        return json.dumps(self.to_obj(), indent=1, sort_keys=True,
                          allow_nan=False)


def certify(net, tol=1e-9):
    n, m = net.n, net.m
    balanced = is_balanced(net, tol)
    sys = build_differentials(net)
    lam = lambda_matrix(sys)
    rank, sv, gap = numerical_rank(lam)
    required = 2 * n + m - (4 if balanced else 2)
    # count bounds: flexible is impossible when m exceeds the stated bound
    bound_ok = (m <= 2 * n - 2) if balanced else (m <= 2 * n - 3)
    flexible = bound_ok and rank == required
    gaps = [gap]
    closable_rank = None
    closable = None
    if balanced and flexible:
        cr, _, cgap = numerical_rank(lambda_ring_matrix(sys))
        closable_rank = cr
        closable = (cr == 2 * n + m - 3)
        gaps.append(cgap)
    df_a_rank = None
    if balanced and m == 2 * n - 2:
        df_a_rank, _, dgap = numerical_rank(sys.df_a)
        gaps.append(dgap)
        # cross-check: flexibility is equivalent to df_a rank m-1 here
        if flexible != (df_a_rank == m - 1):
            flexible = False  # disagreement: refuse to certify flexible
    gap_ratio = min(gaps)
    return Certificate(
        n=n, m=m,
        connected=is_connected(net),
        embedded=is_embedded(net),
        unitary=is_unitary(net, max(tol, 1e-12)),
        balanced=balanced,
        lambda_rank=rank,
        required_rank_flexible=required,
        flexible=flexible,
        closable_rank=closable_rank,
        closable=closable,
        df_a_rank=df_a_rank,
        singular_values=[float(s) for s in sv],
        gap_ratio=gap_ratio,
        borderline=bool(gap_ratio <= GAP_CONFIDENT),
    )


def nv_closability_criterion(theta):
    """sin^2 t ln(2 sin t) + cos^2 t ln(2 cos t); closable iff nonzero."""
    if not 0 < theta < math.pi / 2:
        raise ValueError("theta must lie in (0, pi/2)")
    s, c = math.sin(theta), math.cos(theta)
    return s * s * math.log(2 * s) + c * c * math.log(2 * c)
