"""Weighted Cox partial likelihood: score, Jacobian, curvature geometry and
certificates.

The objective sums, over observed events, the log relative risk of the
failing subject within its risk set ``{j : T_j >= s}``:

    sum_{i : event} H1(X_i) [ log R_n(T_i, beta) - beta @ X_i ],
    R_n(s, beta) = sum_j H2(X_j) 1{T_j >= s} exp(beta @ X_j).

``H1``/``H2`` are optional nonnegative down-weighting functions (default 1),
evaluated once per row when the dataset is built. Tied event times are
processed one event row at a time against the common risk set, which
matches the counting-process form of the objective exactly (Breslow-style,
no tie correction).

All four quantities -- objective, score, Jacobian and the tilted risk-set
means behind ``mu_profile`` -- come from one vectorised pass that costs
``O(n p^2)`` on top of an ``O(n log n)`` set-up made once per dataset:

* Rows are sorted once by descending time, so every risk set is a prefix of
  the sorted order; ``searchsorted`` finds each event's prefix, which puts
  tied times in the same set.
* Covariates are centred at the unweighted mean ``c`` of the rows that are
  ever at risk. The partial likelihood is translation invariant, so this
  changes no value, but it keeps the sums small when covariates carry a
  large common offset. Rows never at risk are dropped before any sum.
* Everything above is free of ``beta``: building a ``SurvivalDataset``
  stores the risk-set ends, the centred sorted rows and their squared
  norms, the centred event rows and the ``H1``/``H2`` weights in sorted
  order, and every pass reads them.
* Reverse cumulative sums of ``r = H2 exp(eta - shift)`` and ``r x`` give
  every ``R_n`` and tilted mean. A single global shift would underflow the
  late, small risk sets when ``eta`` spans hundreds of units, so the shift
  follows the running maximum of ``eta`` in sorted order and is re-based
  (the partial sums rescaled) whenever that maximum has risen by more than
  ``_REBASE_MARGIN``; there are at most ``range(eta) / _REBASE_MARGIN + 1``
  re-bases.
* The Jacobian is ``Xc^T diag(r A) Xc - sum_i H1_i xbar_i xbar_i^T`` with
  ``A_j = sum_{events i : s_i <= T_j} H1_i / R_n(s_i)``, both in centred
  coordinates, so no ``n x p^2`` array is formed. Every pass computes it.

Each dataset keeps its last pass in one slot, keyed on the exact bytes of
``beta``, so there is one pass per distinct ``beta``: ``cox_score``,
``cox_objective``, ``cox_jacobian`` and ``mu_profile`` at the ``beta`` of
the last pass reuse it. A ``fit_cox`` evaluation and the Newton step from
the accepted point share one pass, and ``certify_cox`` at the fitted root
needs none. Any other ``beta`` -- ``-0.0`` in place of ``0.0`` included --
replaces the slot; a pass that raises leaves it as it was. Copies, pickles
and ``dataclasses.replace`` start with an empty slot.

Accuracy limit: the Jacobian is a difference of two sums, so its rounding
error scales with ``eps * sum_i H1_i ||xbar_i - c||^2``. That is harmless
unless some risk set's tilt concentrates on a single row far from ``c``,
where the true covariance is small and the absolute error is not.

Curvature stability of the certificate is governed by the geometry term

    mu_n(s) = max_i || X_i - Xbar_{n,s}(beta0) ||_2,

the largest covariate distance to the exponentially tilted risk-set mean.
The certificate condition is ``sup_s mu_n(s) * delta <= 1/16`` with
``delta = 1.5 ||Qhat^-1 Zhat||_2``, and the one-step expansion error is
bounded by ``8 e^{1/4} delta^2 sup_s mu_n(s)``. The max over ``i`` runs over
*all* rows, censored ones and rows never at risk included (the literal
form). ``mu_profile`` picks each event's farthest row from a chunked Gram
product and recomputes that row's distance from the direct difference.

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
#: rise of the running max of eta that triggers a re-based shift; terms
#: stay below exp(300), far from overflow
_REBASE_MARGIN = 300.0
#: elements per Gram block in mu_profile
_MU_CHUNK = 1 << 18


@dataclass(frozen=True)
class SurvivalDataset:
    """Right-censored survival data with time-constant covariates.

    ``status`` flags events (True) versus censorings; at least one event is
    required. ``h1``/``h2`` take a covariate row and return a nonnegative
    weight; ``None`` means unit weights.

    Construction also sets plain (non-field) attributes that every Cox pass
    reuses: ``time_order`` (rows by descending time, ties in index order),
    ``event_rows`` (event rows in ascending (time, index) order) and the
    per-row weights ``h1_weights``/``h2_weights``, one callback call per
    row, plus the private ``beta``-free geometry of the pass (see the
    module docstring). All these arrays are read-only. ``X``, ``time`` and
    ``status`` are still views of the arrays passed in, not copies, but
    every Cox quantity is computed from what construction took from them
    (centred copies of the rows, the order, the event times and the
    weights), so a later write to the caller's arrays shows in ``data.X``
    but changes no score, objective, Jacobian, ``mu_profile`` or
    certificate.
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
        events = np.flatnonzero(s)
        order = np.argsort(-t, kind="stable")
        event_rows = events[np.argsort(t[events], kind="stable")]
        h1w, h2w = row_weights(self.h1, x), row_weights(self.h2, x)
        # the beta-free part of every risk-set pass
        ends = np.searchsorted(-t[order], -t[event_rows], side="right")
        m = int(ends[0])                      # rows ever at risk
        xs = x[order]
        centre = np.mean(xs[:m], axis=0)
        xs -= centre
        for name, value in (
                ("X", x), ("time", t), ("status", s),
                ("time_order", order), ("event_rows", event_rows),
                ("h1_weights", h1w), ("h2_weights", h2w),
                ("_event_times", t[event_rows]), ("_ends", ends),
                ("_xs", xs), ("_h2", h2w[order[:m]]),
                ("_h1", h1w[event_rows]), ("_xe", x[event_rows] - centre),
                ("_sq", np.einsum("ij,ij->i", xs, xs))):
            value = value.view()
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        # (beta.tobytes(), _RiskPass) of the last pass, see _risk_pass
        object.__setattr__(self, "_last_pass", None)

    @property
    def n_obs(self):
        return self.X.shape[0]

    @property
    def n_features(self):
        return self.X.shape[1]

    def __reduce__(self):
        # copies and pickles rebuild, so their arrays are read-only too
        return SurvivalDataset, (self.X, self.time, self.status, self.h1,
                                 self.h2)


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

    ``mu_all_rows[k]`` is ``mu_n`` at ``event_times[k]``: the largest
    distance from any row to that event's tilted risk-set mean.
    ``sup_all_rows`` is its maximum, the value the certificate reads.
    """

    event_times: np.ndarray
    mu_all_rows: np.ndarray
    sup_all_rows: float


class SoftmaxRatioCheck(NamedTuple):
    lhs: float
    rhs: float
    ok: bool


class _RiskPass(NamedTuple):
    """One sweep over the sorted risk sets, in centred coordinates."""

    xbar: np.ndarray      # tilted risk-set mean per event, minus the centre
    objective: float
    score: np.ndarray
    jacobian: np.ndarray


def _empty_risk_set(data, k):
    return DegenerateRiskSetError(
        f"risk set at event time {data._event_times[k]} carries no "
        "positive weight")


def _risk_pass(data, beta):
    """The pass at ``beta``, served from the dataset's one-slot memo when
    ``beta`` has the bytes of the last pass's coefficients."""
    key = beta.tobytes()
    last = data._last_pass
    if last is not None and last[0] == key:
        return last[1]
    rp = _sweep(data, beta)
    object.__setattr__(data, "_last_pass", (key, rp))
    return rp


def _sweep(data, beta):
    """Objective, score, tilted means and Jacobian at ``beta``.

    Events are taken in ``data.event_rows`` order. Raises
    ``DegenerateRiskSetError`` if some event's risk set has no positive
    ``H2`` weight.
    """
    ends = data._ends
    m = int(ends[0])
    x, h2 = data._xs[:m], data._h2
    eta = x @ beta

    # shift blocks: a new block starts where the running max of eta over
    # positive-weight rows exceeds the current base by the margin
    top = np.maximum.accumulate(np.where(h2 > 0.0, eta, -np.inf))
    if top[-1] == -np.inf:
        raise _empty_risk_set(data, 0)
    starts = [int(np.searchsorted(top, -np.inf, side="right"))]
    while True:
        nxt = int(np.searchsorted(top, top[starts[-1]] + _REBASE_MARGIN,
                                  side="right"))
        if nxt >= m:
            break
        starts.append(nxt)
    bases = top[starts]
    edges = np.array([0] + starts[1:] + [m])
    base = np.repeat(bases, np.diff(edges))
    r = h2 * np.exp(np.where(h2 > 0.0, eta - base, -np.inf))

    # prefix sums of r and r x, each block in its own base's units
    s0 = np.empty(m)
    s1 = np.empty_like(x)
    for b in range(len(starts)):
        lo, hi = edges[b], edges[b + 1]
        s0[lo:hi] = np.cumsum(r[lo:hi])
        s1[lo:hi] = np.cumsum(r[lo:hi, None] * x[lo:hi], axis=0)
        if b:
            scale = np.exp(bases[b - 1] - bases[b])
            s0[lo:hi] += s0[lo - 1] * scale
            s1[lo:hi] += s1[lo - 1] * scale

    last = ends - 1                       # sorted position closing each set
    r0 = s0[last]
    empty = np.flatnonzero(r0 <= 0.0)
    if empty.size:
        raise _empty_risk_set(data, empty[0])
    h1, xe = data._h1, data._xe
    xbar = s1[last] / r0[:, None]
    objective = float(h1 @ (base[last] + np.log(r0) - xe @ beta))
    score = h1 @ (xbar - xe)

    # A_j: suffix sums over the events whose sets reach position j,
    # carried right to left and rescaled into each block's units
    g = np.bincount(last, weights=h1 / r0, minlength=m)
    a = np.empty(m)
    carry = 0.0
    for b in range(len(starts) - 1, -1, -1):
        lo, hi = edges[b], edges[b + 1]
        a[lo:hi] = np.cumsum(g[lo:hi][::-1])[::-1] + carry
        if b:
            carry = a[lo] * np.exp(bases[b - 1] - bases[b])
    jac = ((x * (r * a)[:, None]).T @ x
           - (xbar * h1[:, None]).T @ xbar)
    return _RiskPass(xbar, objective, score, jac)


def cox_objective(data, beta):
    """Negative weighted log partial likelihood."""
    beta = as_parameter(beta, data.n_features, "beta")
    return _risk_pass(data, beta).objective


def cox_score(data, beta):
    """Score: sum over events of ``H1(X_i) (Xbar_{n,T_i} - X_i)``."""
    beta = as_parameter(beta, data.n_features, "beta")
    return _risk_pass(data, beta).score.copy()


def cox_jacobian(data, beta):
    """Jacobian of the score: per-event tilted covariate covariances.

    Censored rows enter only through the risk sets; the result is symmetric
    positive semidefinite for nonnegative ``H1``.
    """
    beta = as_parameter(beta, data.n_features, "beta")
    return _risk_pass(data, beta).jacobian.copy()


def mu_profile(data, beta0):
    """Largest distance from any row to each event's tilted risk-set mean."""
    beta0 = as_parameter(beta0, data.n_features, "beta")
    xbar = _risk_pass(data, beta0).xbar
    xs, sq = data._xs, data._sq
    n_obs, n_ev = xs.shape[0], xbar.shape[0]
    mu = np.empty(n_ev)
    step = max(1, _MU_CHUNK // n_obs)
    for lo in range(0, n_ev, step):
        hi = min(lo + step, n_ev)
        xb = xbar[lo:hi]
        # ||x_j - xbar||^2 up to a per-event constant: it only picks the
        # farthest row, whose distance is recomputed without cancellation
        d2 = xb @ xs.T
        d2 *= -2.0
        d2 += sq
        far = np.argmax(d2, axis=1)
        mu[lo:hi] = np.linalg.norm(xs[far] - xb, axis=1)
    return MuProfile(event_times=data._event_times.copy(), mu_all_rows=mu,
                     sup_all_rows=float(np.max(mu)))


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
            else as_parameter(init, data.n_features, "beta"))
    return damped_newton(
        beta, lambda b: (cox_score(data, b), cox_objective(data, b)),
        lambda b, z: -solve_linear(cox_jacobian(data, b), z), tol, max_iter)[0]


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
