"""Damped Newton iteration for square nonlinear systems with an analytic
Jacobian."""

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
    fun_evals: int = 0           # calls of fun
    jac_evals: int = 0           # Jacobians formed


def damped_newton(fun, x0, jac, tol=1e-11, maxiter=100, max_step=None):
    """Solve fun(x) = 0 by Newton with backtracking line search.

    Convergence: max|fun(x)| < tol. Returns (x, NewtonInfo); its history
    holds max|fun| at the start and after each accepted step. Each step
    solves the square system jac(x) dx = -fun(x). max_step caps the
    sup-norm of each Newton step, which keeps the iteration inside the
    basin when the Jacobian has a soft mode.
    """
    x = np.asarray(x0, dtype=float).copy()
    f = fun(x)
    fun_evals, jac_evals = 1, 0
    best = float(np.max(np.abs(f))) if f.size else 0.0
    history = [best]
    it = 0
    while best >= tol and it < maxiter:
        J = jac(x)
        jac_evals += 1
        try:
            dx = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError as exc:
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
               np.max(np.abs(ft)) < tol:
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
    converged = best < tol
    worst = int(np.argmax(np.abs(f))) if f.size else -1
    return x, NewtonInfo(best, it, converged, worst, history, fun_evals,
                         jac_evals)
