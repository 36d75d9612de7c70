"""Per-fold reference for the one-step deletion estimates (test oracle only).

This is the direct transcription of the leverage-factor certificate: every
fold solves with the full-data Hessian for its gradient sum and for its
curvature sum, takes the operator norm of that p x p product by SVD, and
evaluates the curvature bound on every retained row. Its one departure
from the literal formula is shared with the kernel: a leverage denominator
up to ``resample._DENOM_FLOOR`` counts as collapsed. A singleton sweep costs
``O(n^2 + n p^3)``; the module exists so the batched kernel in
``mestcert.resample`` can be checked against it.
"""

import numpy as np

from mestcert import glm
from mestcert.numkit import lu_factorization, op_norm
from mestcert.resample import _DENOM_FLOOR, LooEntry


def loo_entries(data, family, theta_hat, index_sets):
    """One :class:`~mestcert.resample.LooEntry` per index tuple, in order.

    ``theta_hat`` must be a full-data root and every index tuple sorted,
    duplicate-free and in range; nothing is checked here.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    n = data.n_obs
    grad_rows = data.X * glm._row_terms(data, family, theta_hat, 1)[:, None]
    curv_rows = glm._row_terms(data, family, theta_hat, 2)
    row_norms = np.linalg.norm(data.X, axis=1)
    qhat_solve = lu_factorization(glm.hessian(data, family, theta_hat))
    return [_entry(data, family, theta_hat, n, grad_rows, curv_rows,
                   row_norms, qhat_solve, tuple(idx)) for idx in index_sets]


def _entry(data, family, theta_hat, n, grad_rows, curv_rows, row_norms,
           qhat_solve, idx):
    sub = np.asarray(idx, dtype=int)
    grad_sum = grad_rows[sub].sum(axis=0)
    x_i = data.X[sub]
    hess_sum = x_i.T @ (x_i * curv_rows[sub, None])

    shift = qhat_solve(grad_sum) / n
    approx = theta_hat + shift
    curv_op = op_norm(qhat_solve(hess_sum)) / n
    denom = 1.0 - curv_op

    if denom <= _DENOM_FLOOR:
        return LooEntry(indices=idx, approx_estimate=approx, delta_i=np.inf,
                        certified=False, deviation_bound=np.inf)
    delta_i = float(np.linalg.norm(shift)) / denom
    keep = np.ones(n, dtype=bool)
    keep[sub] = False
    with np.errstate(over="ignore"):
        max_c = float(np.max(np.asarray(family.cbound(
            1.5 * delta_i * row_norms[keep]), dtype=float)))
    certified = max_c <= glm.CONDITION_LIMIT
    bound = 1.5 * delta_i * (max_c - 1.0 + curv_op)
    return LooEntry(indices=idx, approx_estimate=approx, delta_i=delta_i,
                    certified=certified, deviation_bound=bound)
