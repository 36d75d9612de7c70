"""Equality-constrained minimization: KKT solving and expansion certificates.

For ``min F(beta) s.t. A beta = b`` with ``A`` of full row rank ``d <= p``,
:func:`kkt_solve` runs damped Newton on the KKT map ``[grad F + A^T nu;
A beta - b]``, whose Jacobian is ``[[H, A^T], [A, 0]]``.

The certificate works in the null space of ``A`` (Nocedal and Wright,
*Numerical Optimization*, 2nd ed., section 16.2). With ``N`` an orthonormal
basis of ``null(A)`` (trailing right singular vectors), a feasible ``beta0 +
N gamma`` has a multiplier exactly when ``gamma`` is a root of ``f(gamma) =
N^T grad F(beta0 + N gamma)``, whose Jacobian is ``N^T H N``. With ``M0 =
N^T H0 N``, ``M0^-1 (f' - M0) = (M0^-1 N^T H0) H0^-1 (H - H0) N``, so the
caller's ``||H0^-1 (H(beta) - H0)|| <= L ||beta - beta0||^alpha`` gives
``L_red = ||M0^-1 N^T H0|| L >= L`` (as ``M0^-1 N^T H0 N = I``). The
certificate is :func:`~mestcert.certify.newton_step_certificate`
(affine-covariant Newton-Kantorovich; Deuflhard, *Newton Methods for
Nonlinear Problems*, 2004) for ``f`` at ``0`` with ``(L_red, alpha)``; its
ball lies in the ``(3L)^(-1/alpha)`` ball that the caller's bound covers.

Norms are Euclidean; ``N`` is an isometry onto the feasible directions.
With ``s = -M0^-1 f(0)`` the certificate reports ``delta = 1.5 ||s||``,
``holder_l = L_red``, ``step = N s`` (the beta block of the KKT Newton
step, whatever ``nu0``) and ``remainder_bound = L_red delta^(1+alpha)``.
If ``condition_ok``, that is ``delta <= (3 L_red)^(-1/alpha)``, exactly one
KKT point has its primal part ``beta*`` in the feasible ball of radius
``delta`` around ``beta0``, and ``||beta0 + step - beta*|| <=
remainder_bound``. A square ``A`` leaves one feasible point, ``beta0``:
all four are zero and the condition holds.
"""

from dataclasses import dataclass

import numpy as np

from .certify import newton_step_certificate
from .errors import (InfeasiblePointError, InvalidInputError,
                     RankDeficientError)
from .numkit import (_sized_vector, as_matrix, as_parameter, as_vector,
                     damped_newton, op_norm, solve_linear, solve_linear_many)

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
    ``remainder_bound`` (fields as in the module docstring)."""

    target: np.ndarray
    target_nu: np.ndarray
    delta: float
    holder_l: float
    alpha: float
    condition_ok: bool
    step: np.ndarray
    remainder_bound: float


def check_constraints(a, b):
    """Validate the constraint system; returns ``(A, b, N)``, ``N`` an
    orthonormal basis of ``null(A)``. Raises :class:`RankDeficientError`
    unless ``A`` has full row rank (rank measured against ``1e-12`` times
    the largest singular value)."""
    a = as_matrix(a, "A")
    b = as_vector(b, "b")
    if a.shape[0] != b.shape[0]:
        raise InvalidInputError(
            f"A has {a.shape[0]} rows but b has length {b.shape[0]}")
    if a.shape[0] > a.shape[1]:
        raise RankDeficientError(
            f"more constraints ({a.shape[0]}) than variables ({a.shape[1]})")
    _, svals, vt = np.linalg.svd(a)
    if svals[-1] <= 1e-12 * svals[0]:
        raise RankDeficientError(
            f"constraint matrix is rank deficient (singular values "
            f"{svals[0]:.3e} .. {svals[-1]:.3e})")
    return a, b, vt[a.shape[0]:].T


def _hessian(hess_val, p):
    """``hess_val`` as a finite ``(p, p)`` matrix."""
    h = as_matrix(hess_val, "Hessian")
    if h.shape != (p, p):
        raise InvalidInputError(
            f"Hessian has shape {h.shape}, expected {(p, p)}")
    return h


def _kkt_matrix(hess_val, a):
    """The stacked KKT matrix ``[[H, A^T], [A, 0]]``."""
    d, p = a.shape
    return np.block([[_hessian(hess_val, p), a.T], [a, np.zeros((d, d))]])


def _least_squares_multiplier(grad_val, a):
    """Default multiplier ``nu = -(A A^T)^-1 A grad`` for a target beta."""
    return -solve_linear(a @ a.T, a @ grad_val)


def kkt_solve(grad, hess, a, b, tol=1e-10, max_iter=100):
    """Solve the KKT equations by damped Newton on the stacked residual.

    Parameters
    ----------
    grad, hess : callable
        Gradient and Hessian of the objective.
    a, b : array_like
        Equality constraints ``A beta = b``; ``A`` must have full row rank.
        The iteration starts at the minimum-norm feasible ``beta`` with zero
        multipliers.
    tol : float
        Both residuals (``||A beta - b||`` and ``||grad F + A^T nu||``) must
        fall below this.

    Returns
    -------
    KktPoint
    """
    a, b, _ = check_constraints(a, b)
    d, p = a.shape

    def evaluate(x):  # the stacked residual; no objective
        # a non-finite gradient at a candidate is the line search's to reject
        g = _sized_vector(grad(x[:p]), p, "gradient", finite=False)
        return (g + a.T @ x[p:], a @ x[:p] - b), None

    def newton_step(x, r):
        return -solve_linear(_kkt_matrix(hess(x[:p]), a), np.concatenate(r))

    x, (dual, primal) = damped_newton(
        np.concatenate([a.T @ solve_linear(a @ a.T, b), np.zeros(d)]),
        evaluate, newton_step, tol, max_iter,
        norm=lambda r: (np.linalg.norm(r[0]), np.linalg.norm(r[1])))
    return KktPoint(beta=x[:p], nu=x[p:],
                    primal_residual=float(np.linalg.norm(primal)),
                    dual_residual=float(np.linalg.norm(dual)))


def certify_constrained(grad, hess, a, b, beta0, nu0=None,
                        holder_l=0.0, alpha=1.0):
    """Expansion certificate for the constrained problem at ``beta0``.

    ``beta0`` must satisfy the constraints to ``1e-9``; ``nu0`` (reported
    only) defaults to the least-squares multiplier at ``beta0``. The caller
    certifies ``(holder_l, alpha)`` on the ``(3 holder_l)^(-1/alpha)`` ball
    (see module docstring); ``holder_l = 0``, a quadratic objective,
    certifies unconditionally with zero remainder."""
    a, b, null = check_constraints(a, b)
    d, p = a.shape
    beta0 = as_parameter(beta0, p, "beta0")
    violation = float(np.linalg.norm(a @ beta0 - b))
    if violation > FEASIBILITY_TOL:
        raise InfeasiblePointError(
            f"target violates the constraints by {violation:.3e} "
            f"(> {FEASIBILITY_TOL:.0e})")

    grad0 = as_parameter(grad(beta0), p, "gradient")
    nu0 = (_least_squares_multiplier(grad0, a) if nu0 is None
           else as_parameter(nu0, d, "nu0"))
    h0 = _hessian(hess(beta0), p)
    if d == p:  # beta0 is the one feasible point
        return ConstrainedCertificate(beta0, nu0, 0.0, 0.0, float(alpha),
                                      True, np.zeros(p), 0.0)
    nh0 = null.T @ h0
    m0 = nh0 @ null
    # the certificate reads the reduced map and its Jacobian at the center
    cert = newton_step_certificate(
        lambda gamma: null.T @ grad0, lambda gamma: m0, np.zeros(p - d),
        op_norm(solve_linear_many(m0, nh0)) * float(holder_l), alpha)
    return ConstrainedCertificate(
        target=beta0, target_nu=nu0, delta=cert.ball_radius,
        holder_l=cert.holder_l, alpha=cert.alpha, condition_ok=cert.valid,
        step=null @ cert.newton_step, remainder_bound=cert.remainder_bound)
