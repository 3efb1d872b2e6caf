import numpy as np
import pytest

from conftest import fd_jacobian
from netforge.solvers import SolverError, damped_newton


def _jac_x_squared(x):
    return np.array([[2.0 * x[0]]])


def test_scalar_root():
    x, info = damped_newton(lambda x: np.array([x[0] ** 2 - 4.0]),
                            np.array([3.0]), jac=_jac_x_squared)
    assert info.converged
    assert abs(x[0] - 2.0) < 1e-10


def test_2d_system_with_jacobian():
    def fun(x):
        return np.array([x[0] ** 2 + x[1] ** 2 - 1.0, x[0] - x[1]])

    def jac(x):
        return np.array([[2 * x[0], 2 * x[1]], [1.0, -1.0]])

    x, info = damped_newton(fun, np.array([1.0, 0.2]), jac=jac)
    assert info.converged
    r = 1 / np.sqrt(2)
    assert np.allclose(x, [r, r], atol=1e-10)


def test_fd_jacobian_matches_analytic():
    def fun(x):
        return np.array([np.sin(x[0]) + x[1], x[0] * x[1]])

    x = np.array([0.3, -0.7])
    J = fd_jacobian(fun, x)
    exact = np.array([[np.cos(0.3), 1.0], [-0.7, 0.3]])
    assert np.max(np.abs(J - exact)) < 1e-6


def test_evaluation_counts():
    # every step of a linear system is taken in full: one trial point per
    # step after the start. The calls of fun inside a finite-difference
    # Jacobian are the caller's and not counted; their rounding leaves a
    # second step to take
    A = np.array([[2.0, 1.0], [0.5, 3.0]])
    b = np.array([1.0, -2.0])

    def fun(x):
        return A @ x - b

    _, info = damped_newton(fun, np.zeros(2), jac=lambda x: A)
    assert (info.iterations, info.jac_evals, info.fun_evals) == (1, 1, 2)
    _, info = damped_newton(fun, np.zeros(2),
                            jac=lambda x: fd_jacobian(fun, x))
    assert info.converged and info.jac_evals == info.iterations >= 1
    assert info.fun_evals == 1 + info.iterations


def test_singular_jacobian_raises():
    with pytest.raises(SolverError):
        damped_newton(lambda x: np.array([x[0] + x[1], x[0] + x[1]]),
                      np.array([1.0, 1.0]),
                      jac=lambda x: np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_stall_reports_worst_equation():
    # no root: |f| has a positive floor, Newton must give up
    x, info = damped_newton(lambda x: np.array([x[0] ** 2 + 1.0]),
                            np.array([0.5]), jac=_jac_x_squared,
                            maxiter=50)
    assert not info.converged
    assert info.worst_equation == 0
    assert info.residual >= 1.0


def test_max_step_caps_update():
    trace = []

    def fun(x):
        trace.append(x.copy())
        return np.array([x[0] - 100.0])

    x, info = damped_newton(fun, np.array([0.0]),
                            jac=lambda x: np.ones((1, 1)), max_step=1.0,
                            maxiter=200)
    assert info.converged
    steps = np.abs(np.diff([t[0] for t in trace]))
    assert steps.max() <= 1.0 + 1e-12


def test_sparse_jacobian_and_history():
    c = np.linspace(-3.0, 3.0, 50)

    def fun(x):
        return x ** 3 + x - c

    # a diagonal Jacobian, held as a dense array
    x, info = damped_newton(fun, np.zeros(50),
                            jac=lambda x: np.diag(3 * x ** 2 + 1))
    assert info.converged
    assert np.max(np.abs(fun(x))) < 1e-11
    # max|f| at the start, then after each accepted step
    assert len(info.history) == info.iterations + 1
    assert info.history[0] == np.max(np.abs(c))
    assert info.history[-1] == info.residual
    assert all(b < a for a, b in zip(info.history, info.history[1:]))


def test_history_on_stall():
    x, info = damped_newton(lambda x: np.array([x[0] ** 2 + 1.0]),
                            np.array([0.5]), jac=_jac_x_squared,
                            maxiter=50)
    assert not info.converged
    assert len(info.history) == info.iterations + 1
    assert info.history[-1] == info.residual
