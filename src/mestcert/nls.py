"""Nonlinear least-squares regression certificates.

The objective is ``F_n(theta) = (1/n) sum_i (y_i - g(X_i @ theta))^2`` for a
smooth link ``g``; it is non-convex in general, so certificates are local:
they assert a unique critical point of ``F_n`` inside an explicit ball
around the chosen target, which is how the landscape of a non-convex sample
loss gets pinned down one basin at a time (multi-start over several targets
covers several basins).

A :class:`LinkSpec` carries the link derivatives and, crucially, per-row
smoothness certificates: functions ``c0, c1, c2`` of the covariate row such
that for all parameter pairs,

    |g(x@t1)  - g(x@t2)|  <= c0(x) ||t1 - t2||,
    |g'(x@t1) - g'(x@t2)| <= c1(x) ||t1 - t2||,
    |g''(x@t1)- g''(x@t2)|<= c2(x) ||t1 - t2||^alpha.

From these, four curvature constants ``L_2, L_{1+alpha}, L_1, L_alpha`` at
the target control the relative Hessian variation through the modulus

    omega(r) = L_2 r^2 + L_{1+alpha} r^{1+alpha} + L_1 r + L_alpha r^alpha,

and the certificate condition is ``delta <= (12 L_j)^(-1/j)`` for each term
with ``L_j > 0``, where ``delta = 1.5 ||H^-1 grad||`` (vacuously true for a
quadratic objective, where all four vanish). On success there is a unique
root of the gradient in ``B(theta0, delta)`` and the one-step expansion
misses it by at most ``omega(delta) * delta``.

Built-in links: the logistic link ships global constants (``c0 = ||x||/4``,
``c1 = ||x|| * sqrt(3)/18``, ``c2 = ||x|| / 8``, ``alpha = 1``; the two
suprema of ``|sigma''|`` and ``|sigma'''|`` are exact and re-verified on a
dense grid in the test suite), the identity link reduces everything to
ordinary least squares with all four constants zero. Links that violate
global smoothness (e.g. ``g(t) = t^2`` for phase retrieval) are supported
only through caller-supplied ball-restricted constants.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .losses import sigmoid
from .numkit import (as_parameter, damped_newton, lu_factorization, op_norm,
                     row_weights, solve_linear)

#: exact sup of |sigma''| over the reals, nudged up for float safety
SIGMOID_D2_SUP = math.nextafter(math.sqrt(3.0) / 18.0, math.inf)
#: exact sup of |sigma'''| (attained at 0)
SIGMOID_D3_SUP = 0.125


@dataclass(frozen=True)
class LinkSpec:
    """Link function with derivative evaluators and smoothness certificates.

    ``g``, ``g1``, ``g2`` are vectorized scalar maps; ``c0``, ``c1``, ``c2``
    map a covariate row to the nonnegative constants described in the module
    docstring; ``alpha`` is the Hoelder exponent of the second derivative.
    """

    g: Callable
    g1: Callable
    g2: Callable
    c0: Callable
    c1: Callable
    c2: Callable
    alpha: float = 1.0
    name: str = ""


def logistic_link():
    """Sigmoid link with globally valid smoothness constants."""
    def g1(u):
        s = sigmoid(u)
        return s * (1.0 - s)

    def g2(u):
        s = sigmoid(u)
        return s * (1.0 - s) * (1.0 - 2.0 * s)

    return LinkSpec(
        g=sigmoid, g1=g1, g2=g2,
        c0=lambda x: 0.25 * float(np.linalg.norm(x)),
        c1=lambda x: SIGMOID_D2_SUP * float(np.linalg.norm(x)),
        c2=lambda x: SIGMOID_D3_SUP * float(np.linalg.norm(x)),
        alpha=1.0,
        name="logistic",
    )


def identity_link():
    """Identity link; the objective becomes ordinary least squares."""
    return LinkSpec(
        g=lambda u: np.asarray(u, dtype=float) + 0.0,
        g1=lambda u: np.ones_like(np.asarray(u, dtype=float)),
        g2=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
        c0=lambda x: float(np.linalg.norm(x)),
        c1=lambda x: 0.0,
        c2=lambda x: 0.0,
        alpha=1.0,
        name="identity",
    )


@dataclass(frozen=True)
class NlsConstants:
    """The four curvature constants at a target, by the power of the radius
    they multiply in the variation modulus."""

    l2: float
    l_1_plus_alpha: float
    l1: float
    l_alpha: float

    def as_tuple(self):
        return (self.l2, self.l_1_plus_alpha, self.l1, self.l_alpha)


@dataclass(frozen=True)
class NlsCertificate:
    """Local certificate: when ``condition_ok``, a unique critical point of
    the least-squares objective lies in ``B(target, delta)`` and
    ``target + newton_step`` misses it by at most ``remainder_bound``."""

    target: np.ndarray
    delta: float
    l_constants: NlsConstants
    alpha: float
    condition_ok: bool
    newton_step: np.ndarray
    remainder_bound: float


def nls_objective(data, link, theta):
    """Mean squared residual ``(1/n) sum_i (y_i - g(X_i @ theta))^2``."""
    theta = as_parameter(theta, data.n_features)
    r = data.y - np.asarray(link.g(data.X @ theta), dtype=float)
    return float(np.mean(r * r))


def nls_grad(data, link, theta):
    """Gradient ``-(2/n) sum_i (y_i - g(u_i)) g'(u_i) X_i``."""
    theta = as_parameter(theta, data.n_features)
    u = data.X @ theta
    r = data.y - np.asarray(link.g(u), dtype=float)
    gp = np.asarray(link.g1(u), dtype=float)
    return -(2.0 / data.n_obs) * (data.X.T @ (r * gp))


def nls_hess(data, link, theta):
    """Hessian ``(2/n) sum_i [g'(u_i)^2 - (y_i - g(u_i)) g''(u_i)] X_i X_i^T``."""
    theta = as_parameter(theta, data.n_features)
    u = data.X @ theta
    r = data.y - np.asarray(link.g(u), dtype=float)
    gp = np.asarray(link.g1(u), dtype=float)
    gpp = np.asarray(link.g2(u), dtype=float)
    c = gp * gp - r * gpp
    return (2.0 / data.n_obs) * (data.X.T @ (data.X * c[:, None]))


def nls_constants(data, link, theta0):
    """The four curvature constants of the variation modulus at ``theta0``.

    Each is the operator norm of ``H^-1 M_j`` with ``M_j = (2/n) sum_i
    coef_i X_i X_i^T`` and coefficients built from the link's smoothness
    certificates; requires the Hessian at the target to be invertible.
    """
    theta0 = as_parameter(theta0, data.n_features)
    return _nls_constants(data, link, theta0,
                          lu_factorization(nls_hess(data, link, theta0)))


def _nls_constants(data, link, theta0, hsolve):
    """:func:`nls_constants` given the factored Hessian at the target."""
    u = data.X @ theta0
    r = data.y - np.asarray(link.g(u), dtype=float)
    gp_abs = np.abs(np.asarray(link.g1(u), dtype=float))
    gpp_abs = np.abs(np.asarray(link.g2(u), dtype=float))
    c0, c1, c2 = (row_weights(c, data.X) for c in (link.c0, link.c1, link.c2))

    def norm_of(coefs):
        if not np.any(coefs):
            return 0.0
        m = (2.0 / data.n_obs) * (data.X.T @ (data.X * coefs[:, None]))
        return op_norm(hsolve(m))

    return NlsConstants(
        l2=norm_of(c1 * c1),
        l_1_plus_alpha=norm_of(c0 * c2),
        l1=norm_of(2.0 * c1 * gp_abs + c0 * gpp_abs),
        l_alpha=norm_of(c2 * np.abs(r)),
    )


def variation_modulus(constants, alpha, r):
    """``omega(r)``: certified bound on the relative Hessian variation at
    distance ``r`` from the target."""
    r = float(r)
    return (constants.l2 * r ** 2
            + constants.l_1_plus_alpha * r ** (1.0 + alpha)
            + constants.l1 * r
            + constants.l_alpha * r ** alpha)


def certify_nls(data, link, theta0):
    """Local root certificate for the least-squares gradient at ``theta0``.

    ``condition_ok`` requires ``delta <= (12 L_j)^(-1/j)`` for every term
    with a positive constant (a fully quadratic problem certifies
    unconditionally); the remainder bound is ``omega(delta) * delta``.
    """
    theta0 = as_parameter(theta0, data.n_features)
    grad = nls_grad(data, link, theta0)
    hsolve = lu_factorization(nls_hess(data, link, theta0))
    step = -hsolve(grad)
    dlt = 1.5 * float(np.linalg.norm(step))

    consts = _nls_constants(data, link, theta0, hsolve)
    alpha = float(link.alpha)
    exponents = (2.0, 1.0 + alpha, 1.0, alpha)
    ok = True
    for l_j, j in zip(consts.as_tuple(), exponents):
        if l_j > 0.0 and dlt > (12.0 * l_j) ** (-1.0 / j):
            ok = False
    return NlsCertificate(
        target=theta0,
        delta=dlt,
        l_constants=consts,
        alpha=alpha,
        condition_ok=ok,
        newton_step=step,
        remainder_bound=variation_modulus(consts, alpha, dlt) * dlt,
    )


def fit_nls(data, link, init, tol=1e-10, max_iter=200):
    """Find a critical point of the objective near ``init``.

    Damped Newton on the gradient with step halving against the gradient
    norm; the objective is non-convex, so this is a local root finder and
    the returned point depends on the start. Used as the oracle that
    certificates are checked against.
    """
    theta = as_parameter(init, data.n_features)
    return damped_newton(
        theta, lambda t: (nls_grad(data, link, t), None),
        lambda t, grad: -solve_linear(nls_hess(data, link, t), grad),
        tol, max_iter)[0]
