"""Equality-constrained minimization: KKT solving and expansion certificates.

For ``min F(beta) s.t. A beta = b`` with ``A`` of full row rank, a
constrained stationary point is a root of the stacked map

    g(beta, nu) = [ grad F(beta) + A^T nu ;  A beta - b ]

whose Jacobian is the KKT matrix ``[[H, A^T], [A, 0]]``. The certificate at
a feasible target ``(beta0, nu0)`` uses

    delta = 1.5 (1 + ||(A H^-1 A^T)^-1 A||_op) ||H^-1 (grad F + A^T nu0)||_2

together with a caller-certified Hoelder bound ``||H(beta0)^-1 (H(beta) -
H(beta0))||_op <= L ||beta - beta0||^alpha`` on the ball of radius
``(3L)^(-1/alpha)`` (for GLM objectives,
:func:`mestcert.glm.hessian_holder_constant` produces one). When
``delta <= (3L)^(-1/alpha)``, a KKT solution exists and the primal Newton
correction -- the beta block of ``-K^-1 [g0; 0]``, equal to
``-(I - H^-1 A^T (A H^-1 A^T)^-1 A) H^-1 (grad F + A^T nu0)`` -- misses the
solution by at most ``L delta^(1+alpha)``. The step is always computed from
the stacked block solve; the projector difference ``I - H^-1 A^T (...) A``
is singular on the constraint normals and is never inverted.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (InfeasiblePointError, InvalidInputError,
                     RankDeficientError)
from .numkit import (as_matrix, as_parameter, as_vector, damped_newton,
                     lu_factorization, op_norm, solve_linear,
                     solve_linear_many)

#: allowed constraint violation of a certificate target
FEASIBILITY_TOL = 1e-9


@dataclass(frozen=True)
class KktPoint:
    """Primal/multiplier pair with its two stationarity residuals."""

    beta: np.ndarray
    nu: np.ndarray
    primal_residual: float
    dual_residual: float


@dataclass(frozen=True)
class ConstrainedCertificate:
    """Certificate at a feasible target: when ``condition_ok``, a KKT point
    exists and ``target + step`` misses its primal part by at most
    ``remainder_bound``."""

    target: np.ndarray
    target_nu: np.ndarray
    delta: float
    holder_l: float
    alpha: float
    condition_ok: bool
    step: np.ndarray
    remainder_bound: float


def check_constraints(a, b):
    """Validate the constraint system; returns ``(A, b)`` as arrays.

    Raises :class:`RankDeficientError` unless ``A`` has full row rank (rank
    measured against ``1e-12`` times the largest singular value).
    """
    a = as_matrix(a, "A")
    b = as_vector(b, "b")
    if a.shape[0] != b.shape[0]:
        raise InvalidInputError(
            f"A has {a.shape[0]} rows but b has length {b.shape[0]}")
    if a.shape[0] > a.shape[1]:
        raise RankDeficientError(
            f"more constraints ({a.shape[0]}) than variables ({a.shape[1]})")
    svals = np.linalg.svd(a, compute_uv=False)
    if svals[-1] <= 1e-12 * svals[0]:
        raise RankDeficientError(
            f"constraint matrix is rank deficient (singular values "
            f"{svals[0]:.3e} .. {svals[-1]:.3e})")
    return a, b


def kkt_matrix(hess_val, a):
    """Assemble the stacked KKT matrix ``[[H, A^T], [A, 0]]``."""
    h = as_matrix(hess_val, "Hessian")
    d = a.shape[0]
    return np.block([[h, a.T], [a, np.zeros((d, d))]])


def least_squares_multiplier(grad_val, a):
    """Default multiplier ``nu = -(A A^T)^-1 A grad`` for a target beta."""
    g = as_vector(grad_val, "gradient")
    return -solve_linear(a @ a.T, a @ g)


def kkt_solve(grad, hess, a, b, init=None, tol=1e-10, max_iter=100):
    """Solve the KKT equations by damped Newton on the stacked residual.

    Parameters
    ----------
    grad, hess : callable
        Gradient and Hessian of the objective.
    a, b : array_like
        Equality constraints ``A beta = b``; ``A`` must have full row rank.
    init : KktPoint or None
        Starting point; defaults to the minimum-norm feasible ``beta`` with
        zero multipliers.
    tol : float
        Both residuals (``||A beta - b||`` and ``||grad F + A^T nu||``) must
        fall below this.

    Returns
    -------
    KktPoint
    """
    a, b = check_constraints(a, b)
    p = a.shape[1]
    d = a.shape[0]
    if init is None:
        beta = a.T @ solve_linear(a @ a.T, b)
        nu = np.zeros(d)
    else:
        beta = as_vector(init.beta, "init.beta")
        nu = as_vector(init.nu, "init.nu")
        if beta.shape[0] != p or nu.shape[0] != d:
            raise InvalidInputError(
                f"init has beta length {beta.shape[0]} / nu length "
                f"{nu.shape[0]}, expected {p} / {d}")

    def evaluate(x):  # the stacked residual; no objective
        dual = np.asarray(grad(x[:p]), dtype=float) + a.T @ x[p:]
        return (dual, a @ x[:p] - b), None

    def newton_step(x, r):
        k = kkt_matrix(np.asarray(hess(x[:p]), dtype=float), a)
        return -solve_linear(k, np.concatenate(r))

    x, (dual, primal) = damped_newton(
        np.concatenate([beta, nu]), evaluate, newton_step, tol, max_iter,
        norm=lambda r: (np.linalg.norm(r[0]), np.linalg.norm(r[1])))
    return KktPoint(beta=x[:p], nu=x[p:],
                    primal_residual=float(np.linalg.norm(primal)),
                    dual_residual=float(np.linalg.norm(dual)))


def certify_constrained(grad, hess, a, b, beta0, nu0=None,
                        holder_l=0.0, alpha=1.0):
    """Expansion certificate for the constrained problem at ``(beta0, nu0)``.

    ``beta0`` must satisfy the constraints to ``1e-9``; ``nu0`` defaults to
    the least-squares multiplier of the gradient at ``beta0``. The caller
    certifies ``(holder_l, alpha)`` for the unconstrained Hessian variation
    around ``beta0`` (see module docstring). ``holder_l = 0`` -- a quadratic
    objective -- certifies unconditionally with zero remainder.
    """
    a, b = check_constraints(a, b)
    beta0 = as_parameter(beta0, a.shape[1], "beta0")
    violation = float(np.linalg.norm(a @ beta0 - b))
    if violation > FEASIBILITY_TOL:
        raise InfeasiblePointError(
            f"target violates the constraints by {violation:.3e} "
            f"(> {FEASIBILITY_TOL:.0e})")
    holder_l = float(holder_l)
    alpha = float(alpha)
    if holder_l < 0.0:
        raise InvalidInputError(f"Hoelder constant must be >= 0, got {holder_l}")
    if not 0.0 < alpha <= 1.0:
        raise InvalidInputError(f"Hoelder exponent must lie in (0, 1], got {alpha}")

    grad0 = np.asarray(grad(beta0), dtype=float)
    if nu0 is None:
        nu0 = least_squares_multiplier(grad0, a)
    else:
        nu0 = as_parameter(nu0, a.shape[0], "nu0")
    g0 = grad0 + a.T @ nu0

    h = as_matrix(np.asarray(hess(beta0), dtype=float), "Hessian")
    hsolve = lu_factorization(h)
    schur = a @ hsolve(a.T)
    multiplier_gain = op_norm(solve_linear_many(schur, a))
    dlt = 1.5 * (1.0 + multiplier_gain) * float(np.linalg.norm(hsolve(g0)))

    p = a.shape[1]
    d = a.shape[0]
    k = kkt_matrix(h, a)
    z = -solve_linear(k, np.concatenate([g0, np.zeros(d)]))
    step = z[:p]

    ok = holder_l == 0.0 or dlt <= (3.0 * holder_l) ** (-1.0 / alpha)
    return ConstrainedCertificate(
        target=beta0,
        target_nu=nu0,
        delta=dlt,
        holder_l=holder_l,
        alpha=alpha,
        condition_ok=ok,
        step=step,
        remainder_bound=holder_l * dlt ** (1.0 + alpha),
    )
