"""M-estimation for weighted convex losses of a linear predictor.

The objective is ``(1/n) sum_i h(X_i) l(X_i @ theta, y_i)`` for a
:class:`~mestcert.losses.LossFamily`. Everything a certificate needs is a
score/Hessian pair at the target plus the family's curvature bound:

* ``delta(theta0) = 1.5 ||Qhat^-1 Zhat||_2`` (1.5 times the Newton step),
* if ``max_i cbound(||X_i|| * delta) <= 4/3`` then the estimating equation
  has a root ``theta_hat`` with ``delta/2 <= ||theta_hat - theta0|| <=
  delta`` and the one-step expansion ``theta_hat ~ theta0 - Qhat^-1 Zhat``
  is off by at most ``(max_i cbound(||X_i|| delta) - 1) * delta``.

Swapping the empirical Hessian for a caller-supplied reference matrix adds
the reference mismatch ``||Qref^-1 Qhat - I||_op`` to the bound coefficient;
the library never estimates a reference itself.

The ``fit`` solver is plumbing (:func:`~mestcert.numkit.damped_newton`)
used to *check* certificates against exact roots; certificates themselves
never iterate.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError, InvalidInputError, SingularMatrixError
from .numkit import (_DatasetCore, as_matrix, as_parameter, as_vector,
                     damped_newton, lu_factorization, op_norm, solve_linear)

#: curvature-ratio threshold of the certificate condition
CONDITION_LIMIT = 4.0 / 3.0
#: radius doublings hessian_holder_constant tries before giving up
HOLDER_MAX_GROWTH = 200


@dataclass(frozen=True)
class Dataset(_DatasetCore):
    """Immutable regression data: design matrix ``X (n, p)`` and response
    ``y (n,)`` with finite entries. Intercepts are not implicit; append a
    ones column if one is wanted. ``X`` and ``y`` are read-only copies of
    the arrays passed in, so a later write to those arrays changes no
    result. Row weights are evaluated once per dataset and weight function,
    and a row subset keeps the weights of its rows. The row terms at the
    last point evaluated are kept too (one slot), so the score, objective
    and Hessian at one point share its predictor and family evaluations."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = as_matrix(self.X, "X")
        y = as_vector(self.y, "y")
        if x.shape[0] != y.shape[0]:
            raise InvalidInputError(
                f"X has {x.shape[0]} rows but y has length {y.shape[0]}")
        self._own(X=x, y=y)
        # (theta.tobytes(), family, weights, X @ theta, terms by order) of
        # the last point _row_terms evaluated
        self._keep(_weight_memo={}, _last_terms=None)

    def subset_rows(self, keep):
        # weights are per row, so the retained rows keep the memoised ones
        sub = Dataset(self.X[keep], self.y[keep])
        sub._weight_memo.update((key, (fn, w[keep])) for key, (fn, w)
                                in self._weight_memo.items())
        return sub

    def subset_columns(self, cols):
        # fresh weights: the weight function reads the whole covariate row
        return Dataset(self.X[:, list(cols)], self.y)


@dataclass(frozen=True)
class GlmCertificate:
    """Deterministic certificate for one target vector.

    ``condition_ok`` reports whether the curvature condition
    ``condition_max_c <= 4/3`` holds; only then do the bracket fields
    ``[delta/2, delta]`` bound the distance from the target to the root, and
    the expansion bounds cover the one-step approximation error. Reference
    fields are ``None`` unless a reference Hessian was supplied.
    """

    target: np.ndarray
    delta: float
    condition_max_c: float
    condition_ok: bool
    bracket_lo: float
    bracket_hi: float
    newton_step: np.ndarray
    expansion_bound_empirical: float
    expansion_bound_reference: Optional[float] = None
    reference_mismatch: Optional[float] = None


def _row_terms(data, family, theta, order):
    """``h(X_i) l^(order)(X_i @ theta, y_i)`` per row (order 0, 1 or 2), with
    ``theta`` validated and ``h`` evaluated once per dataset and weight.

    The result is read-only: it is kept in the dataset's one-slot memo,
    which serves every order at the last ``theta`` (compared by bytes) and
    ``family`` (by identity) from one predictor ``X @ theta``."""
    theta = as_parameter(theta, data.n_features)
    key = theta.tobytes()
    last = data._last_terms
    if last is None or last[0] != key or last[1] is not family:
        memo, fn = data._weight_memo, family.weight
        if id(fn) not in memo:  # the entry keeps fn, so its id stays unique
            memo[id(fn)] = (fn, family.row_weights(data.X))
        last = (key, family, memo[id(fn)][1], data.X @ theta, [None] * 3)
        data._keep(_last_terms=last)
    weights, eta, terms = last[2:]
    if terms[order] is None:
        evaluate = (family.eval0, family.eval1, family.eval2)[order]
        rows = weights * np.asarray(evaluate(eta, data.y), dtype=float)
        rows.flags.writeable = False
        terms[order] = rows
    return terms[order]


def _curvature_ratio(family, gaps):
    """``family.cbound`` at ``gaps`` as a float array. An overflow reads as
    ``inf`` (a failed curvature condition), not as a warning."""
    with np.errstate(over="ignore"):
        return np.asarray(family.cbound(gaps), dtype=float)


def objective(data, family, theta):
    """Average weighted loss at ``theta``."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.mean(_row_terms(data, family, theta, 0)))


def score(data, family, theta):
    """Gradient ``(1/n) sum_i l'(X_i @ theta, y_i) h(X_i) X_i``."""
    return data.X.T @ _row_terms(data, family, theta, 1) / data.n_obs


def hessian(data, family, theta):
    """Hessian ``(1/n) sum_i l''(X_i @ theta, y_i) h(X_i) X_i X_i^T``."""
    c = _row_terms(data, family, theta, 2)
    return data.X.T @ (data.X * c[:, None]) / data.n_obs


def fit(data, family, init=None, tol=1e-10, max_iter=100):
    """Solve the estimating equation by damped Newton.

    Newton steps with up to 50 step halvings against objective increase;
    stops when ``||score||_2 <= tol`` and the Newton correction has shrunk
    accordingly (the latter distinguishes a genuine root from the slowly
    vanishing score of e.g. separated classification data, whose root sits
    at infinity and which raises
    :class:`~mestcert.errors.ConvergenceError` instead, as does an
    exhausted iteration budget). Singular Hessians raise
    :class:`~mestcert.errors.SingularMatrixError`.
    """
    theta = (np.zeros(data.n_features) if init is None
             else as_parameter(init, data.n_features))

    def newton_step(theta, z):
        try:
            return -solve_linear(hessian(data, family, theta), z)
        except SingularMatrixError:
            if not np.any(_row_terms(data, family, theta, 2)):
                # the curvature underflowed to zero everywhere: the "root"
                # is float saturation of a score whose true root sits at
                # infinity (e.g. separable classification data)
                raise ConvergenceError(
                    "curvature saturated to zero; the root lies at infinity "
                    "(e.g. separable classification data)") from None
            raise

    return damped_newton(
        theta, lambda t: (score(data, family, t), objective(data, family, t)),
        newton_step, tol, max_iter, step_tol=np.sqrt(float(tol)))[0]


def certify(data, family, theta0, q_ref=None):
    """Certificate of root existence, bracketing and expansion at ``theta0``.

    Parameters
    ----------
    data : Dataset
    family : LossFamily
    theta0 : (p,) array_like
        Arbitrary target vector; no root property is required of it.
    q_ref : (p, p) array_like, optional
        Reference Hessian (e.g. a population curvature matrix). When given,
        the certificate's ``newton_step`` inverts the reference instead of
        the empirical Hessian and the reference expansion bound picks up the
        mismatch term ``||q_ref^-1 Qhat - I||_op``.

    Returns
    -------
    GlmCertificate
        A failed curvature condition is reported via ``condition_ok=False``,
        not raised; singular Hessians do raise.
    """
    theta0 = as_parameter(theta0, data.n_features)
    zhat = score(data, family, theta0)
    qhat = hessian(data, family, theta0)
    step_emp = -solve_linear(qhat, zhat)
    dlt = 1.5 * float(np.linalg.norm(step_emp))

    row_norms = np.linalg.norm(data.X, axis=1)
    max_c = float(np.max(_curvature_ratio(family, row_norms * dlt)))
    ok = max_c <= CONDITION_LIMIT
    bound_emp = (max_c - 1.0) * dlt

    mismatch = None
    bound_ref = None
    step = step_emp
    if q_ref is not None:
        q_ref = as_matrix(q_ref, "q_ref")
        if q_ref.shape != qhat.shape:
            raise InvalidInputError(
                f"q_ref has shape {q_ref.shape}, expected {qhat.shape}")
        ref_solve = lu_factorization(q_ref)
        mismatch = op_norm(ref_solve(qhat) - np.eye(qhat.shape[0]))
        bound_ref = (max_c - 1.0 + mismatch) * dlt
        step = -ref_solve(zhat)

    return GlmCertificate(
        target=theta0,
        delta=dlt,
        condition_max_c=max_c,
        condition_ok=ok,
        bracket_lo=dlt / 2.0,
        bracket_hi=dlt,
        newton_step=step,
        expansion_bound_empirical=bound_emp,
        expansion_bound_reference=bound_ref,
        reference_mismatch=mismatch,
    )


def hessian_holder_constant(data, family, theta0):
    """Certified Lipschitz constant of the relative Hessian variation.

    Returns ``(L, 1.0)`` with ``||Qhat(theta0)^-1 (Qhat(theta) -
    Qhat(theta0))||_op <= L ||theta - theta0||`` for all ``theta`` within
    radius ``1/(3L)`` of the target, the ball the constrained certificate
    needs it on. Derived from the family's curvature bound: ``|l''(s) -
    l''(t)| <= (cbound(|s-t|) - 1) l''(t)`` and ``(cbound(u) - 1)/u`` is
    nondecreasing for the convex built-in bounds, so a single evaluation at
    the ball edge covers the interior.

    The radius/constant pair is found by growing the trial radius until it
    self-consistently covers ``1/(3L)``, doubling it at most
    ``HOLDER_MAX_GROWTH`` times; quadratic objectives short-circuit
    to ``L = 0``. A singular ``Qhat(theta0)`` raises
    :class:`~mestcert.errors.SingularMatrixError`.
    """
    d2 = _row_terms(data, family, theta0, 2)
    row_norms = np.linalg.norm(data.X, axis=1)
    base = d2 * row_norms ** 2 / data.n_obs
    qhat = hessian(data, family, theta0)
    hinv_norm = op_norm(lu_factorization(qhat)(np.eye(data.n_features)))

    def l_at(radius):
        gaps = row_norms * radius
        cvals = _curvature_ratio(family, gaps)
        return hinv_norm * float(np.sum(base * (cvals - 1.0))) / radius

    r = 1e-3
    l_val = l_at(r)
    if l_val == 0.0:
        return 0.0, 1.0
    for _ in range(HOLDER_MAX_GROWTH):
        if 1.0 / (3.0 * l_val) <= r:
            return l_val, 1.0
        r *= 2.0
        l_val = l_at(r)
        if not np.isfinite(l_val):
            break
    raise ConvergenceError(
        "could not find a self-consistent Hoelder radius; curvature grows "
        "too quickly around the target")
