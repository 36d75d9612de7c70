"""Independent correctness oracles for the benchmark.

Every root here comes from the benchmark's own numpy Newton code: the loss
derivatives, the Cox partial likelihood and the KKT system are written out
again from their definitions, and nothing calls ``glm.fit``, ``fit_cox``,
``fit_nls``, ``kkt_solve`` or ``loo_exact``. A certificate is *checked*
only when it makes a claim (its condition holds) and the oracle's Newton
iteration converged; a checked certificate whose claim the exact root
contradicts is *unsound*.

Comparisons allow the oracle's own resolution: a relative slack of
``REL_SLACK`` on each bound plus ``ATOL * (1 + ||root||)``, the accuracy to
which a double-precision Newton root is known.
"""

import numpy as np

REL_SLACK = 1e-8
ATOL = 1e-10

_MAX_ITER = 200


def _expit(u):
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return out


def _newton(parts, x0):
    """Damped Newton on a gradient system.

    ``parts(x)`` returns ``(merit, residual, jacobian)``. A step is halved
    until the merit or the residual norm decreases; the iteration stops two
    steps after the full step falls to rounding level. Returns ``(root,
    converged)``.
    """
    x = np.array(x0, dtype=float)
    polish = 0
    for _ in range(_MAX_ITER):
        merit, res, jac = parts(x)
        try:
            step = np.linalg.solve(jac, res)
        except np.linalg.LinAlgError:
            return x, False
        if not np.all(np.isfinite(step)):
            return x, False
        if polish or np.linalg.norm(step) <= 1e-12 * (1.0 + np.linalg.norm(x)):
            x = x - step
            polish += 1
            if polish == 2:
                return x, True
            continue
        rnorm = np.linalg.norm(res)
        t = 1.0
        while t > 1e-12:
            cand = x - t * step
            with np.errstate(over="ignore", invalid="ignore"):
                m1, r1, _ = parts(cand)
            if np.isfinite(m1) and (m1 <= merit or np.linalg.norm(r1) < rnorm):
                break
            t *= 0.5
        else:
            return x, False
        x = cand
    return x, False


# ------------------------------------------------------------------ #
# exact roots
# ------------------------------------------------------------------ #

def glm_root(X, y, w, kind, init):
    """Root of ``sum_i w_i l'(X_i @ theta, y_i) X_i`` for ``kind`` in
    ``{"logistic", "poisson"}``."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]

    def parts(theta):
        u = X @ theta
        if kind == "logistic":
            mu = _expit(u)
            loss = np.logaddexp(0.0, u) - y * u
            curv = mu * (1.0 - mu)
        elif kind == "poisson":
            mu = np.exp(u)
            loss = mu - y * u
            curv = mu
        else:
            raise ValueError(f"no oracle for family {kind!r}")
        grad = X.T @ (w * (mu - y)) / n
        hess = X.T @ (X * (w * curv)[:, None]) / n
        return float(np.sum(w * loss)) / n, grad, hess

    return _newton(parts, init)


def cox_root(X, time, status, h2, init):
    """Root of the Breslow partial-likelihood score (unit ``H1``), computed
    over an explicit event-by-row risk-set matrix."""
    X = np.asarray(X, dtype=float)
    ev = np.flatnonzero(status)
    risk = (time[None, :] >= time[ev][:, None]) * h2[None, :]
    outer = (X[:, :, None] * X[:, None, :]).reshape(X.shape[0], -1)
    p = X.shape[1]

    def parts(beta):
        eta = X @ beta
        shift = float(np.max(eta))
        wts = risk * np.exp(eta - shift)[None, :]
        s0 = wts.sum(axis=1)
        xbar = (wts @ X) / s0[:, None]
        second = ((wts @ outer) / s0[:, None]).reshape(-1, p, p)
        merit = float(np.sum(np.log(s0) + shift - eta[ev]))
        score = np.sum(xbar - X[ev], axis=0)
        jac = np.sum(second - xbar[:, :, None] * xbar[:, None, :], axis=0)
        return merit, score, jac

    return _newton(parts, init)


def nls_root(X, y, init):
    """Critical point of ``(1/n) sum_i (y_i - sigmoid(X_i @ theta))^2``
    reached by Newton from ``init``."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]

    def parts(theta):
        s = _expit(X @ theta)
        d1 = s * (1.0 - s)
        d2 = d1 * (1.0 - 2.0 * s)
        r = y - s
        grad = -(2.0 / n) * (X.T @ (r * d1))
        hess = (2.0 / n) * (X.T @ (X * (d1 * d1 - r * d2)[:, None]))
        return float(np.mean(r * r)), grad, hess

    return _newton(parts, init)


def kkt_root(X, y, kind, A, b, beta0, nu0):
    """KKT point of the GLM objective under ``A beta = b`` by Newton on the
    stacked system, started at ``(beta0, nu0)``."""
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    d = A.shape[0]

    def parts(z):
        beta, nu = z[:p], z[p:]
        u = X @ beta
        if kind == "poisson":
            mu = np.exp(u)
            curv = mu
        else:
            mu = _expit(u)
            curv = mu * (1.0 - mu)
        grad = X.T @ (mu - y) / n
        hess = X.T @ (X * curv[:, None]) / n
        res = np.concatenate([grad + A.T @ nu, A @ beta - b])
        jac = np.block([[hess, A.T], [A, np.zeros((d, d))]])
        return float(np.linalg.norm(res)), res, jac

    z, ok = _newton(parts, np.concatenate([beta0, nu0]))
    return z[:p], ok


# ------------------------------------------------------------------ #
# claim checks: True means the exact root agrees with the certificate
# ------------------------------------------------------------------ #

def _atol(root):
    return ATOL * (1.0 + float(np.linalg.norm(root)))


def bracket_holds(root, target, lo, hi):
    """``lo <= ||root - target|| <= hi`` up to the oracle's resolution."""
    dist = float(np.linalg.norm(np.asarray(root) - np.asarray(target)))
    tol = _atol(root)
    return lo * (1.0 - REL_SLACK) - tol <= dist <= hi * (1.0 + REL_SLACK) + tol


def within(root, estimate, bound):
    """``||root - estimate|| <= bound`` up to the oracle's resolution."""
    err = float(np.linalg.norm(np.asarray(root) - np.asarray(estimate)))
    return err <= bound * (1.0 + REL_SLACK) + _atol(root)


def check_glm_cert(root, cert):
    """Bracket and one-step expansion claims of a GLM or Cox certificate.

    ``cert`` is a mapping with ``target``, ``bracket_lo``, ``bracket_hi``,
    ``newton_step`` and ``expansion_bound`` (a CLI report or a dataclass
    converted by the caller).
    """
    target = np.asarray(cert["target"], dtype=float)
    step = np.asarray(cert["newton_step"], dtype=float)
    return (bracket_holds(root, target, cert["bracket_lo"], cert["bracket_hi"])
            and within(root, target + step, cert["expansion_bound"]))
