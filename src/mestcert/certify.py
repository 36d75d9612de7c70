"""Generic root-existence and one-Newton-step certificates.

Two deterministic statements about a differentiable map ``f`` near a center
``theta0`` are implemented here.

Contraction certificate
    Given an invertible matrix ``A`` and a caller-certified bound
    ``epsilon >= sup_{||theta - theta0|| <= r} ||A^-1 (A - f'(theta))||_op``,
    if ``||A^-1 f(theta0)|| <= r (1 - epsilon)`` then ``f`` has exactly one
    root in the closed ball of radius ``r`` and its distance to the center
    is bracketed by ``||A^-1 f(theta0)|| / (1 + epsilon)`` from below and
    ``/ (1 - epsilon)`` from above.

Newton-step certificate
    Given a Hoelder modulus ``||J0^-1 (J0 - f'(theta))||_op <=
    L ||theta - theta0||^alpha`` around the center (J0 the Jacobian at the
    center), if the Newton step ``s = -J0^-1 f(theta0)`` satisfies
    ``||s|| <= 2 / (3 (3L)^(1/alpha))`` then a unique root lives in the ball
    of radius ``1.5 ||s||`` and ``theta0 + s`` approximates it with error at
    most ``1.5^(1+alpha) L ||s||^(1+alpha)``.

The ball suprema cannot be verified soundly by sampling, so both entry
points take the modulus (``variation_bound`` respectively ``(L, alpha)``) as
a caller-certified input; the concrete model modules derive closed forms for
their losses. Certificates whose hypotheses fail are returned with
``valid=False`` and a reason, never raised, so sweeps over many centers can
aggregate outcomes.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .numkit import (as_matrix, as_vector, lu_factorization, op_norm,
                     solve_linear)

#: slack applied to the center self-check of a contraction certificate
_CENTER_CHECK_RTOL = 1e-12


@dataclass(frozen=True)
class RootCertificate:
    """Outcome of a contraction (existence + bracket) certificate.

    When ``valid`` is true there is exactly one root in the ball
    ``B(center, radius)`` and its distance to the center lies in
    ``[bracket_lo, bracket_hi]``.
    """

    center: np.ndarray
    radius: float
    epsilon: float
    step_norm: float
    bracket_lo: float
    bracket_hi: float
    valid: bool
    failure_reason: str = ""


@dataclass(frozen=True)
class ExpansionCertificate:
    """Outcome of a one-Newton-step (expansion) certificate.

    When ``valid`` is true there is a unique root in ``B(center,
    ball_radius)`` and ``center + newton_step`` misses it by at most
    ``remainder_bound``.
    """

    center: np.ndarray
    newton_step: np.ndarray
    step_norm: float
    holder_l: float
    alpha: float
    ball_radius: float
    remainder_bound: float
    valid: bool
    failure_reason: str = ""


def contraction_certificate(f, jac, a_matrix, theta0, radius, variation_bound):
    """Certify existence and a two-sided error bracket for a root of ``f``.

    Parameters
    ----------
    f : callable
        Maps a 1-d array to a 1-d array of the same length.
    jac : callable
        Jacobian of ``f``; used only for a cheap center self-check of the
        caller's bound (the claimed supremum includes the center, so a
        violation there disproves the bound and invalidates the
        certificate).
    a_matrix : (q, q) array_like
        The linearization ``A``; must be invertible.
    theta0 : (q,) array_like
        Center of the candidate ball.
    radius : float
        Ball radius ``r > 0``.
    variation_bound : callable
        ``r -> epsilon``, a certified upper bound for the operator norm of
        ``A^-1 (A - f'(theta))`` over the closed ball of radius ``r``.

    Returns
    -------
    RootCertificate
    """
    theta0 = as_vector(theta0, "theta0").copy()  # the certificate owns it
    a = as_matrix(a_matrix, "A")
    radius = float(radius)
    if not radius > 0.0:
        raise InvalidInputError(f"radius must be positive, got {radius}")
    eps = float(variation_bound(radius))
    if eps < 0.0 or not np.isfinite(eps):
        raise InvalidInputError(
            f"variation bound must be finite and nonnegative, got {eps}")

    a_solve = lu_factorization(a)
    step = a_solve(as_vector(f(theta0), "right-hand side"))
    step_norm = float(np.linalg.norm(step))

    def reject(reason):
        return RootCertificate(center=theta0, radius=radius, epsilon=eps,
                               step_norm=step_norm, bracket_lo=0.0,
                               bracket_hi=np.inf, valid=False,
                               failure_reason=reason)

    if eps > 1.0:
        return reject(f"contraction constant {eps:.6g} exceeds 1")
    j0 = as_matrix(np.asarray(jac(theta0), dtype=float), "jac(theta0)")
    center_var = op_norm(np.eye(a.shape[0]) - a_solve(j0))
    if center_var > eps * (1.0 + _CENTER_CHECK_RTOL) + _CENTER_CHECK_RTOL:
        return reject(
            f"variation bound {eps:.6g} is already violated at the "
            f"center ({center_var:.6g}); the supplied bound is not a "
            f"valid supremum")
    if step_norm > radius * (1.0 - eps):
        return reject(
            f"step norm {step_norm:.6g} exceeds radius * (1 - epsilon) = "
            f"{radius * (1.0 - eps):.6g}")

    # eps == 1 forces step_norm == 0 here: the center is itself a root, but
    # the upper bracket degenerates and is reported as infinite.
    hi = step_norm / (1.0 - eps) if eps < 1.0 else np.inf
    return RootCertificate(
        center=theta0,
        radius=radius,
        epsilon=eps,
        step_norm=step_norm,
        bracket_lo=step_norm / (1.0 + eps),
        bracket_hi=hi,
        valid=True,
    )


def newton_step_certificate(f, jac, theta0, holder_l, alpha):
    """Certify a one-Newton-step expansion around ``theta0``.

    Parameters
    ----------
    f, jac : callable
        The map and its Jacobian.
    theta0 : (q,) array_like
        Expansion center.
    holder_l : float
        Caller-certified Hoelder constant ``L >= 0`` of the relative
        Jacobian variation around the center. ``L = 0`` (affine map)
        certifies unconditionally with zero remainder.
    alpha : float
        Hoelder exponent in ``(0, 1]``.

    Returns
    -------
    ExpansionCertificate
    """
    theta0 = as_vector(theta0, "theta0").copy()  # the certificate owns it
    holder_l, alpha = float(holder_l), float(alpha)
    if holder_l < 0.0:
        raise InvalidInputError(f"Hoelder constant must be >= 0, got {holder_l}")
    if not 0.0 < alpha <= 1.0:
        raise InvalidInputError(f"Hoelder exponent must lie in (0, 1], got {alpha}")

    j0 = as_matrix(np.asarray(jac(theta0), dtype=float), "jac(theta0)")
    step = -solve_linear(j0, np.asarray(f(theta0), dtype=float))
    step_norm = float(np.linalg.norm(step))
    threshold = np.inf if holder_l == 0.0 else \
        2.0 / (3.0 * (3.0 * holder_l) ** (1.0 / alpha))
    remainder = (1.5 ** (1.0 + alpha)) * holder_l * step_norm ** (1.0 + alpha)
    ok = step_norm <= threshold
    return ExpansionCertificate(
        center=theta0,
        newton_step=step,
        step_norm=step_norm,
        holder_l=holder_l,
        alpha=alpha,
        ball_radius=1.5 * step_norm,
        remainder_bound=remainder,
        valid=ok,
        failure_reason="" if ok else (
            f"step norm {step_norm:.6g} exceeds admissible "
            f"{threshold:.6g} = 2 / (3 (3L)^(1/alpha))"),
    )
