"""Damped Newton iteration for nonlinear systems with dense or sparse
Jacobians."""

from dataclasses import dataclass, field

import numpy as np


class SolverError(RuntimeError):
    pass


@dataclass
class NewtonInfo:
    residual: float
    iterations: int
    converged: bool
    worst_equation: int = -1
    history: list = field(default_factory=list)  # max|f| per accepted step
    fun_evals: int = 0           # calls of fun, finite differences included
    jac_evals: int = 0           # Jacobians formed, analytic or FD


def fd_jacobian(fun, x, f0=None, step=1e-7):
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


def damped_newton(fun, x0, jac=None, tol=1e-11, scale=1.0, maxiter=100,
                  fd_step=1e-7, max_step=None):
    """Solve fun(x) = 0 by Newton with backtracking line search.

    Convergence: max|fun(x)| < tol * scale. Returns (x, NewtonInfo); its
    history holds max|fun| at the start and after each accepted step.
    A sparse Jacobian from `jac` is factorised with splu, a dense one
    solved directly (least squares when it is not square); without `jac`
    each step takes a forward-difference Jacobian, len(x) more calls of
    fun. max_step caps the sup-norm of each Newton step, which keeps the
    iteration inside the basin when the Jacobian has a soft mode.
    """
    x = np.asarray(x0, dtype=float).copy()
    f = fun(x)
    fun_evals, jac_evals = 1, 0
    best = float(np.max(np.abs(f))) if f.size else 0.0
    history = [best]
    it = 0
    while best >= tol * scale and it < maxiter:
        if jac is not None:
            J = jac(x)
        else:
            J = fd_jacobian(fun, x, f, fd_step)
            fun_evals += len(x)
        jac_evals += 1
        try:
            if not isinstance(J, np.ndarray):     # a scipy.sparse matrix
                from scipy.sparse.linalg import splu
                dx = splu(J.tocsc()).solve(-f)
            elif J.shape[0] == J.shape[1]:
                dx = np.linalg.solve(J, -f)
            else:
                dx = np.linalg.lstsq(J, -f, rcond=None)[0]
        except (np.linalg.LinAlgError, RuntimeError) as exc:
            raise SolverError(f"singular Jacobian at iteration {it}") from exc
        frac = 1.0
        if max_step is not None:
            nrm = float(np.max(np.abs(dx)))
            if nrm > max_step:
                frac = max_step / nrm
                dx *= frac
        lam = 1.0
        accepted = False
        for _ in range(40):
            xt = x + lam * dx
            ft = fun(xt)
            fun_evals += 1
            if np.max(np.abs(ft)) < best * (1.0 - 0.25 * lam * frac) or \
               np.max(np.abs(ft)) < tol * scale:
                x, f = xt, ft
                best = float(np.max(np.abs(f)))
                history.append(best)
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            return x, NewtonInfo(best, it, False, int(np.argmax(np.abs(f))),
                                 history, fun_evals, jac_evals)
        it += 1
    converged = best < tol * scale
    worst = int(np.argmax(np.abs(f))) if f.size else -1
    return x, NewtonInfo(best, it, converged, worst, history, fun_evals,
                         jac_evals)
