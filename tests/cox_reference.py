"""Per-event reference for the Cox partial likelihood (test oracle only).

This is the direct transcription of the definitions: every event time
rescans all rows for its risk set ``{j : T_j >= s}``, max-shifts the linear
predictors of that set alone and sums them. It costs ``O(events * n * p)``
and exists so the one-pass engine in ``mestcert.cox`` can be checked
against it; the weight callbacks are evaluated afresh here rather than read
from the dataset.

``gram_mu_profile`` is the other kind of oracle: the all-rows Gram scan that
``mestcert.cox.mu_profile`` ran before it pruned its search, kept to check
that the pruned search returns the same bits.
"""

import numpy as np

from mestcert import cox
from mestcert.errors import DegenerateRiskSetError
from mestcert.numkit import row_weights


def event_order(data):
    """Event row indices in ascending (time, index) order."""
    idx = np.flatnonzero(data.status)
    return idx[np.lexsort((idx, data.time[idx]))]


def risk_terms(data, beta, event_index, h2):
    """``(active, v, logr)``: rows with positive mass in the risk set at the
    event's time, their softmax weights, and ``log R_n``."""
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


def _weights(data):
    return row_weights(data.h1, data.X), row_weights(data.h2, data.X)


def objective(data, beta):
    beta = np.asarray(beta, dtype=float)
    h1, h2 = _weights(data)
    total = 0.0
    for i in event_order(data):
        _, _, logr = risk_terms(data, beta, i, h2)
        total += h1[i] * (logr - float(data.X[i] @ beta))
    return total


def tilted_means(data, beta):
    """Tilted risk-set mean at each event, in ``event_order``."""
    beta = np.asarray(beta, dtype=float)
    _, h2 = _weights(data)
    out = []
    for i in event_order(data):
        active, v, _ = risk_terms(data, beta, i, h2)
        out.append(v @ data.X[active])
    return np.array(out)


def score(data, beta):
    beta = np.asarray(beta, dtype=float)
    h1, h2 = _weights(data)
    out = np.zeros(data.n_features)
    for i in event_order(data):
        active, v, _ = risk_terms(data, beta, i, h2)
        xbar = v @ data.X[active]
        out += h1[i] * (xbar - data.X[i])
    return out


def jacobian(data, beta):
    beta = np.asarray(beta, dtype=float)
    h1, h2 = _weights(data)
    out = np.zeros((data.n_features, data.n_features))
    for i in event_order(data):
        active, v, _ = risk_terms(data, beta, i, h2)
        xa = data.X[active]
        xc = xa - v @ xa
        out += h1[i] * (xc.T @ (xc * v[:, None]))
    return out


def mu_profile(data, beta):
    """``mu_all_rows`` per event, in ``event_order``: the largest distance
    from any row, at risk or not, to the event's tilted risk-set mean."""
    beta = np.asarray(beta, dtype=float)
    _, h2 = _weights(data)
    events = event_order(data)
    mu = np.empty(events.size)
    for k, i in enumerate(events):
        active, v, _ = risk_terms(data, beta, i, h2)
        xbar = v @ data.X[active]
        mu[k] = float(np.max(np.linalg.norm(data.X - xbar, axis=1)))
    return mu


def gram_mu_profile(data, beta):
    """``mu_all_rows`` by the all-rows scan: each event's farthest row is
    the first maximum of a chunked Gram product over every row of the
    dataset's centred rows, and its distance is recomputed directly."""
    xbar = cox._risk_pass(data, np.asarray(beta, dtype=float)).xbar
    xs, sq = data._xs, data._sq
    n_obs, n_ev = xs.shape[0], xbar.shape[0]
    mu = np.empty(n_ev)
    step = max(1, cox._MU_CHUNK // n_obs)
    for lo in range(0, n_ev, step):
        hi = min(lo + step, n_ev)
        xb = xbar[lo:hi]
        d2 = xb @ xs.T
        d2 *= -2.0
        d2 += sq
        far = np.argmax(d2, axis=1)
        mu[lo:hi] = np.linalg.norm(xs[far] - xb, axis=1)
    return mu
