"""Weighted Cox partial likelihood: score, Jacobian, curvature geometry and
certificates.

The objective sums, over observed events, the log relative risk of the
failing subject within its risk set ``{j : T_j >= s}``:

    sum_{i : event} H1(X_i) [ log R_n(T_i, beta) - beta @ X_i ],
    R_n(s, beta) = sum_j H2(X_j) 1{T_j >= s} exp(beta @ X_j).

``H1``/``H2`` are optional nonnegative down-weighting functions (default 1).
Tied event times are processed one event row at a time against the common
risk set, which matches the counting-process form of the objective exactly
(Breslow-style, no tie correction).

Curvature stability of the certificate is governed by the geometry term

    mu_n(s) = max_i || X_i - Xbar_{n,s}(beta0) ||_2,

the largest covariate distance to the exponentially tilted risk-set mean.
The certificate condition is ``sup_s mu_n(s) * delta <= 1/16`` with
``delta = 1.5 ||Qhat^-1 Zhat||_2``, and the one-step expansion error is
bounded by ``8 e^{1/4} delta^2 sup_s mu_n(s)``. The max over ``i`` runs over
*all* rows (the conservative, literal form); the per-event profile also
reports the risk-set-restricted variant for diagnostics.

``softmax_ratio_check`` exposes the underlying scalar inequality -- the
second derivative of ``t -> log sum_i w_i exp(a_i t)`` moves by at most the
factor ``4 mu |t| exp(4 mu |t|)`` relative to ``t = 0`` -- as a standalone
checkable oracle.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DegenerateRiskSetError, InvalidInputError
from .numkit import (as_matrix, as_parameter, as_vector, damped_newton,
                     row_weights, solve_linear)

#: certificate threshold for sup_s mu_n(s) * delta
COX_CONDITION_LIMIT = 1.0 / 16.0
#: constant of the expansion bound 8 e^{1/4} delta^2 sup mu
COX_EXPANSION_CONST = 8.0 * np.exp(0.25)


@dataclass(frozen=True)
class SurvivalDataset:
    """Right-censored survival data with time-constant covariates.

    ``status`` flags events (True) versus censorings; at least one event is
    required. ``h1``/``h2`` take a covariate row and return a nonnegative
    weight; ``None`` means unit weights.
    """

    X: np.ndarray
    time: np.ndarray
    status: np.ndarray
    h1: Optional[Callable] = None
    h2: Optional[Callable] = None

    def __post_init__(self):
        x = as_matrix(self.X, "X")
        t = as_vector(self.time, "time")
        s = np.asarray(self.status, dtype=bool)
        if s.ndim != 1:
            raise InvalidInputError("status must be 1-dimensional")
        if not (x.shape[0] == t.shape[0] == s.shape[0]):
            raise InvalidInputError(
                f"inconsistent lengths: X has {x.shape[0]} rows, time "
                f"{t.shape[0]}, status {s.shape[0]}")
        if np.any(t < 0.0):
            raise InvalidInputError("event/censoring times must be >= 0")
        if not np.any(s):
            raise InvalidInputError("at least one event is required")
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "time", t)
        object.__setattr__(self, "status", s)

    @property
    def n_obs(self):
        return self.X.shape[0]

    @property
    def n_features(self):
        return self.X.shape[1]


@dataclass(frozen=True)
class CoxCertificate:
    """Certificate at a target ``beta0``: valid bracket ``[delta/2, delta]``
    and expansion bound ``8 e^{1/4} delta^2 mu_sup`` whenever
    ``condition_ok`` (i.e. ``mu_sup * delta <= 1/16``)."""

    target: np.ndarray
    delta: float
    mu_sup: float
    condition_ok: bool
    bracket_lo: float
    bracket_hi: float
    newton_step: np.ndarray
    expansion_bound: float


@dataclass(frozen=True)
class MuProfile:
    """Per-event-time curvature geometry at the target.

    ``mu_risk_set`` restricts the distance maximum to subjects still at
    risk; ``mu_all_rows`` is the literal all-rows maximum used by the
    certificate (conservative: it dominates the risk-set value).
    """

    event_times: np.ndarray
    mu_risk_set: np.ndarray
    mu_all_rows: np.ndarray
    sup_risk_set: float
    sup_all_rows: float


class SoftmaxRatioCheck(NamedTuple):
    lhs: float
    rhs: float
    ok: bool


def _event_order(data):
    """Event row indices in ascending (time, index) order."""
    idx = np.flatnonzero(data.status)
    return idx[np.lexsort((idx, data.time[idx]))]


def _risk_terms(data, beta, event_index, h2):
    """Tilted risk-set weights at the event's time.

    Returns ``(active, v, logr)``: indices with positive mass, their softmax
    weights, and ``log R_n``. Linear predictors are max-shifted before
    exponentiation.
    """
    s = data.time[event_index]
    at_risk = np.flatnonzero((data.time >= s) & (h2 > 0.0))
    if at_risk.size == 0:
        raise DegenerateRiskSetError(
            f"risk set at event time {s} carries no positive weight")
    g = data.X[at_risk] @ beta
    shift = float(np.max(g))
    w = h2[at_risk] * np.exp(g - shift)
    total = float(np.sum(w))
    return at_risk, w / total, shift + np.log(total)


def cox_objective(data, beta):
    """Negative weighted log partial likelihood."""
    beta = as_parameter(beta, data.n_features, "beta")
    h1 = row_weights(data.h1, data.X)
    h2 = row_weights(data.h2, data.X)
    total = 0.0
    for i in _event_order(data):
        _, _, logr = _risk_terms(data, beta, i, h2)
        total += h1[i] * (logr - float(data.X[i] @ beta))
    return total


def cox_score(data, beta):
    """Score: sum over events of ``H1(X_i) (Xbar_{n,T_i} - X_i)``."""
    beta = as_parameter(beta, data.n_features, "beta")
    h1 = row_weights(data.h1, data.X)
    h2 = row_weights(data.h2, data.X)
    out = np.zeros(data.n_features)
    for i in _event_order(data):
        active, v, _ = _risk_terms(data, beta, i, h2)
        xbar = v @ data.X[active]
        out += h1[i] * (xbar - data.X[i])
    return out


def cox_jacobian(data, beta):
    """Jacobian of the score: per-event tilted covariate covariances.

    Censored rows enter only through the risk sets; the result is symmetric
    positive semidefinite for nonnegative ``H1``.
    """
    beta = as_parameter(beta, data.n_features, "beta")
    h1 = row_weights(data.h1, data.X)
    h2 = row_weights(data.h2, data.X)
    out = np.zeros((data.n_features, data.n_features))
    for i in _event_order(data):
        active, v, _ = _risk_terms(data, beta, i, h2)
        xa = data.X[active]
        xbar = v @ xa
        xc = xa - xbar
        out += h1[i] * (xc.T @ (xc * v[:, None]))
    return out


def mu_profile(data, beta0):
    """Covariate spread around the tilted risk-set means at each event time."""
    beta0 = as_parameter(beta0, data.n_features, "beta")
    h2 = row_weights(data.h2, data.X)
    events = _event_order(data)
    times = data.time[events]
    mu_risk = np.empty(events.size)
    mu_all = np.empty(events.size)
    for k, i in enumerate(events):
        active, v, _ = _risk_terms(data, beta0, i, h2)
        xbar = v @ data.X[active]
        at_risk = data.time >= data.time[i]
        dists = np.linalg.norm(data.X - xbar, axis=1)
        mu_risk[k] = float(np.max(dists[at_risk]))
        mu_all[k] = float(np.max(dists))
    return MuProfile(event_times=times, mu_risk_set=mu_risk,
                     mu_all_rows=mu_all,
                     sup_risk_set=float(np.max(mu_risk)),
                     sup_all_rows=float(np.max(mu_all)))


def certify_cox(data, beta0):
    """Root-existence, bracket and expansion certificate at ``beta0``.

    Requires an invertible score Jacobian at the target; a failed curvature
    condition is reported through ``condition_ok``, never raised.
    """
    beta0 = as_parameter(beta0, data.n_features, "beta")
    zhat = cox_score(data, beta0)
    qhat = cox_jacobian(data, beta0)
    step = -solve_linear(qhat, zhat)
    dlt = 1.5 * float(np.linalg.norm(step))
    mu_sup = mu_profile(data, beta0).sup_all_rows
    return CoxCertificate(
        target=beta0,
        delta=dlt,
        mu_sup=mu_sup,
        condition_ok=mu_sup * dlt <= COX_CONDITION_LIMIT,
        bracket_lo=dlt / 2.0,
        bracket_hi=dlt,
        newton_step=step,
        expansion_bound=COX_EXPANSION_CONST * dlt ** 2 * mu_sup,
    )


def fit_cox(data, init=None, tol=1e-10, max_iter=100):
    """Partial-likelihood root by damped Newton (oracle-quality plumbing)."""
    beta = (np.zeros(data.n_features) if init is None
            else as_parameter(init, data.n_features, "beta").copy())
    return damped_newton(beta, lambda b: cox_score(data, b),
                         lambda b, z: -solve_linear(cox_jacobian(data, b), z),
                         tol, max_iter,
                         objective=lambda b: cox_objective(data, b))[0]


def softmax_ratio_check(weights, a, s, t):
    """Check the tilted-curvature ratio inequality for one weight profile.

    With ``K(r) = log sum_i w_i exp(a_i r)`` and ``mu = max_i |a_i -
    K'(0)|``, verifies

        max(|K''(s)/K''(0) - 1|, |K''(0)/K''(s) - 1|)
            <= 4 mu |t| exp(4 mu |t|)        for |s| <= |t|.

    Returns ``(lhs, rhs, ok)``. Raises for negative or all-zero weights,
    ``|s| > |t|``, or zero curvature at 0 (all ``a_i`` equal among positive
    weights).
    """
    w = as_vector(weights, "weights")
    a = as_vector(a, "a")
    if w.shape != a.shape:
        raise InvalidInputError("weights and a must have equal length")
    if np.any(w < 0.0):
        raise InvalidInputError("weights must be nonnegative")
    if not np.any(w > 0.0):
        raise InvalidInputError("at least one weight must be positive")
    s = float(s)
    t = float(t)
    if abs(s) > abs(t):
        raise InvalidInputError(f"requires |s| <= |t|, got |{s}| > |{t}|")

    pos = w > 0.0

    def kpp(r):
        logits = np.log(w[pos]) + a[pos] * r
        logits -= logits.max()
        v = np.exp(logits)
        v /= v.sum()
        abar = float(v @ a[pos])
        return float(v @ (a[pos] - abar) ** 2), abar

    kpp0, abar0 = kpp(0.0)
    if kpp0 <= 0.0:
        raise InvalidInputError(
            "zero curvature at 0: all a_i equal among positive weights")
    kpps, _ = kpp(s)
    mu = float(np.max(np.abs(a - abar0)))
    if kpps <= 0.0:
        lhs = np.inf
    else:
        lhs = max(abs(kpps / kpp0 - 1.0), abs(kpp0 / kpps - 1.0))
    rhs = 4.0 * mu * abs(t) * np.exp(4.0 * mu * abs(t))
    return SoftmaxRatioCheck(lhs=lhs, rhs=rhs, ok=lhs <= rhs)
