"""Finite-difference oracles for the analytic derivatives under test.

The suite checks every analytic gradient, Hessian and loss derivative
against these central differences (the NLS gradient against those of
``nls_objective``, which the package does not need); the package itself
never uses them.
"""

import numpy as np

from mestcert import InvalidInputError
from mestcert.numkit import as_parameter, as_vector


def fd_jacobian(f, theta, h):
    """Central-difference Jacobian of a vector-valued callable.

    Column ``j`` is ``(f(theta + h e_j) - f(theta - h e_j)) / (2 h)``.

    Parameters
    ----------
    f : callable
        Maps a 1-d array to a scalar or 1-d array; must be pure.
    theta : (q,) array_like
        Evaluation point.
    h : float
        Step size, strictly positive.
    """
    t0 = as_vector(theta, "theta")
    h = float(h)
    if not h > 0.0:
        raise InvalidInputError(f"step size must be positive, got {h}")
    cols = []
    for j in range(t0.size):
        tp = t0.copy()
        tm = t0.copy()
        tp[j] += h
        tm[j] -= h
        cols.append((np.atleast_1d(np.asarray(f(tp), dtype=float))
                     - np.atleast_1d(np.asarray(f(tm), dtype=float))) / (2.0 * h))
    return np.column_stack(cols)


def loss_derivative_check(family, u, y, h):
    """Worst finite-difference discrepancy of a loss family's derivatives.

    Returns ``max(|fd(l) - l'|, |fd(l') - l''|)`` with central differences of
    step ``h`` at the point ``(u, y)``; small values certify consistency of
    the three evaluators.
    """
    h = float(h)
    if not h > 0.0:
        raise InvalidInputError(f"step size must be positive, got {h}")
    u = float(u)
    y = float(y)
    fd1 = (float(family.eval0(u + h, y)) - float(family.eval0(u - h, y))) / (2 * h)
    fd2 = (float(family.eval1(u + h, y)) - float(family.eval1(u - h, y))) / (2 * h)
    return max(abs(fd1 - float(family.eval1(u, y))),
               abs(fd2 - float(family.eval2(u, y))))


def nls_objective(data, link, theta):
    """Mean squared residual ``(1/n) sum_i (y_i - g(X_i @ theta))^2``, the
    objective whose gradient is ``nls_grad``."""
    theta = as_parameter(theta, data.n_features)
    r = data.y - np.asarray(link.g(data.X @ theta), dtype=float)
    return float(np.mean(r * r))
