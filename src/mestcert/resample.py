"""Certified fast approximations for refit-heavy workflows.

Three workflows that classically require many exact refits are served by
one-step approximations with deterministic deviation bounds, all built on
the GLM engine:

Leave-one/k-out
    With ``theta_hat`` the full-data root and ``I`` the deleted rows, the
    reduced-data root is approximated by ``theta_hat + n^-1 Qhat^-1
    sum_{i in I} grad_i``. The leverage factor

        delta_I = n^-1 ||Qhat^-1 sum_I grad_i|| / (1 - n^-1 ||Qhat^-1
                  sum_I hess_i||_op)

    certifies, whenever its denominator is positive and ``cbound(1.5
    delta_I ||X_i||) <= 4/3`` for all retained rows, that the true reduced
    root differs from the approximation by at most ``1.5 delta_I
    (max_c - 1 + n^-1 ||Qhat^-1 sum_I hess_i||_op)``. One Hessian
    factorization serves every index set.

Marginal screening
    Each coordinate is certified through its one-dimensional submodel; the
    per-coordinate radius+expansion envelopes majorize how far the max
    coordinate statistic can move, giving ``|max_j est_j - max_j target_j|
    <= max_j (delta_j + bound_j)``.

Submodel sweeps
    A list of column subsets is certified model by model; the report states
    whether the curvature condition held uniformly over the list. The
    caller supplies the list explicitly (with a hard cap): enumerating all
    subsets of a given size is combinatorially hopeless and deliberately
    unsupported.

Throughout, targets are caller-supplied or plug-in roots; the library never
estimates population quantities. Report entries are ordered by sorted key
so output is deterministic.
"""

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from . import glm
from .errors import ConvergenceError, InvalidInputError, SingularMatrixError
from .numkit import lu_factorization, op_norm

#: default tolerance on ||score(theta_hat)|| for accepting a root input
ROOT_SCORE_TOL = 1e-8


@dataclass(frozen=True)
class LooEntry:
    """One-step deletion result for one index set.

    ``certified`` requires a positive leverage denominator and the
    curvature check on retained rows; only then does ``deviation_bound``
    cover ``||exact refit - approx_estimate||``. ``exact_estimate`` is
    filled when an oracle refit was requested.
    """

    indices: Tuple[int, ...]
    approx_estimate: np.ndarray
    delta_i: float
    certified: bool
    deviation_bound: float
    exact_estimate: Optional[np.ndarray] = None


@dataclass(frozen=True)
class LooReport:
    theta_hat: np.ndarray
    entries: List[LooEntry]


@dataclass(frozen=True)
class ScreenCoordinate:
    """Certificate summary of one marginal (single-covariate) model."""

    index: int
    estimate: float
    target: float
    delta: float
    expansion_bound: float
    certified: bool


@dataclass(frozen=True)
class ScreenReport:
    """Per-coordinate marginal certificates plus the deterministic envelope
    ``max_stat_bound`` on the movement of the max statistic (infinite when
    any coordinate failed to certify). ``q_source`` records whether bounds
    used the plug-in curvature (mismatch term zero) or caller references."""

    coordinates: List[ScreenCoordinate]
    max_stat_bound: float
    all_certified: bool
    target_source: str
    q_source: str = "plug-in"


@dataclass(frozen=True)
class PosiModel:
    indices: Tuple[int, ...]
    certificate: glm.GlmCertificate
    exact_estimate: Optional[np.ndarray] = None


@dataclass(frozen=True)
class PosiReport:
    models: List[PosiModel]
    uniform_condition_ok: bool


class _DeletionContext:
    """Shared full-data quantities for a deletion sweep: per-row gradient
    and curvature pieces plus one factorization of the full Hessian."""

    def __init__(self, data, family, theta_hat, score_tol):
        theta_hat = np.asarray(theta_hat, dtype=float)
        score_norm = float(np.linalg.norm(glm.score(data, family, theta_hat)))
        if score_norm > score_tol:
            raise InvalidInputError(
                f"theta_hat is not a root of the full-data score "
                f"(||score|| = {score_norm:.3e} > {score_tol:.0e}); fit first")
        self.data = data
        self.family = family
        self.theta_hat = theta_hat
        self.n = data.n_obs
        self.grad_rows = data.X * glm._row_terms(data, family, theta_hat,
                                                 1)[:, None]
        self.curv_rows = glm._row_terms(data, family, theta_hat, 2)
        self.row_norms = np.linalg.norm(data.X, axis=1)
        self.qhat_solve = lu_factorization(glm.hessian(data, family, theta_hat))

    def entry(self, index_set):
        idx = _check_index_set(index_set, self.n)
        sub = np.asarray(idx, dtype=int)
        grad_sum = self.grad_rows[sub].sum(axis=0)
        x_i = self.data.X[sub]
        hess_sum = x_i.T @ (x_i * self.curv_rows[sub, None])

        shift = self.qhat_solve(grad_sum) / self.n
        approx = self.theta_hat + shift
        curv_op = op_norm(self.qhat_solve(hess_sum)) / self.n
        denom = 1.0 - curv_op

        if denom <= 0.0:
            return LooEntry(indices=idx, approx_estimate=approx,
                            delta_i=np.inf, certified=False,
                            deviation_bound=np.inf)
        delta_i = float(np.linalg.norm(shift)) / denom
        keep = np.ones(self.n, dtype=bool)
        keep[sub] = False
        max_c = float(np.max(np.asarray(self.family.cbound(
            1.5 * delta_i * self.row_norms[keep]), dtype=float)))
        certified = max_c <= glm.CONDITION_LIMIT
        bound = 1.5 * delta_i * (max_c - 1.0 + curv_op)
        return LooEntry(indices=idx, approx_estimate=approx, delta_i=delta_i,
                        certified=certified, deviation_bound=bound)


def _check_index_set(index_set, n):
    idx = tuple(sorted(int(i) for i in index_set))
    if len(idx) == 0:
        raise InvalidInputError("index set must be nonempty")
    if len(set(idx)) != len(idx):
        raise InvalidInputError(f"index set has duplicates: {idx}")
    if idx[0] < 0 or idx[-1] >= n:
        raise InvalidInputError(
            f"index set {idx} out of range for {n} observations")
    if len(idx) >= n:
        raise InvalidInputError("cannot delete every observation")
    return idx


def loo_approx(data, family, theta_hat, index_set, score_tol=ROOT_SCORE_TOL):
    """One-step deletion estimate and certified deviation bound for one
    index set. ``theta_hat`` must solve the full-data score equation to
    ``score_tol``. Never raises on a failed certificate condition; see
    :class:`LooEntry`."""
    ctx = _DeletionContext(data, family, theta_hat, score_tol)
    return ctx.entry(index_set)


def loo_exact(data, family, index_set, tol=1e-12, init=None, max_iter=200):
    """Oracle refit on the retained rows (no approximation).

    Non-convergent or degenerate reduced problems raise, e.g. deleting all
    but a handful of rows can leave a singular design.
    """
    idx = _check_index_set(index_set, data.n_obs)
    keep = np.ones(data.n_obs, dtype=bool)
    keep[list(idx)] = False
    return glm.fit(data.subset_rows(keep), family, init=init, tol=tol,
                   max_iter=max_iter)


def loo_sweep(data, family, theta_hat, index_sets=None, exact=False,
              score_tol=ROOT_SCORE_TOL, exact_tol=1e-12):
    """Deletion sweep sharing one Hessian factorization across index sets.

    ``index_sets=None`` sweeps all singletons. Entries are ordered by their
    sorted index tuple. With ``exact=True`` each entry also carries the
    oracle refit (initialized at the full-data root).
    """
    ctx = _DeletionContext(data, family, theta_hat, score_tol)
    if index_sets is None:
        sets = [(i,) for i in range(data.n_obs)]
    else:
        sets = sorted({_check_index_set(s, data.n_obs) for s in index_sets})
    entries = []
    for idx in sets:
        e = ctx.entry(idx)
        if exact:
            e = replace(e, exact_estimate=loo_exact(
                data, family, idx, tol=exact_tol, init=ctx.theta_hat))
        entries.append(e)
    return LooReport(theta_hat=ctx.theta_hat, entries=entries)


def screen_marginal(data, family, targets="plug-in", fit_tol=1e-12,
                    q_refs=None):
    """Certify every single-covariate marginal model.

    Parameters
    ----------
    targets : "plug-in" or (p,) array_like
        Per-coordinate target values; plug-in uses each marginal root
        itself (bounds then act as near-zero sanity checks).
    q_refs : (p,) array_like, optional
        Per-coordinate reference curvature scalars; when given, expansion
        bounds carry the reference-mismatch term.

    Coordinates whose marginal Hessian is singular (or whose marginal fit
    diverges under plug-in targets) are marked uncertified rather than
    raising; the max-statistic envelope is then infinite.
    """
    p = data.n_features
    plug_in = isinstance(targets, str)
    if plug_in:
        if targets != "plug-in":
            raise InvalidInputError(f"unknown target spec {targets!r}")
        tvec = None
    else:
        tvec = np.asarray(targets, dtype=float)
        if tvec.shape != (p,):
            raise InvalidInputError(
                f"targets must have shape ({p},), got {tvec.shape}")
    if q_refs is not None:
        q_refs = np.asarray(q_refs, dtype=float)
        if q_refs.shape != (p,):
            raise InvalidInputError(
                f"q_refs must have shape ({p},), got {q_refs.shape}")

    coords = []
    for j in range(p):
        sub = data.subset_columns([j])
        try:
            estimate = float(glm.fit(sub, family, tol=fit_tol)[0])
        except (SingularMatrixError, ConvergenceError):
            estimate = np.nan
        target_j = estimate if plug_in else float(tvec[j])
        cert = None
        if np.isfinite(target_j):
            try:
                qr = None if q_refs is None else np.array([[q_refs[j]]])
                cert = glm.certify(sub, family, np.array([target_j]), q_ref=qr)
            except SingularMatrixError:
                cert = None
        if cert is None:
            coords.append(ScreenCoordinate(index=j, estimate=estimate,
                                           target=target_j, delta=np.inf,
                                           expansion_bound=np.inf,
                                           certified=False))
            continue
        bound = (cert.expansion_bound_empirical if q_refs is None
                 else cert.expansion_bound_reference)
        coords.append(ScreenCoordinate(index=j, estimate=estimate,
                                       target=target_j, delta=cert.delta,
                                       expansion_bound=bound,
                                       certified=cert.condition_ok))
    all_ok = all(c.certified for c in coords)
    envelope = (max(c.delta + c.expansion_bound for c in coords)
                if all_ok else np.inf)
    return ScreenReport(coordinates=coords, max_stat_bound=envelope,
                        all_certified=all_ok,
                        target_source="plug-in" if plug_in else "supplied",
                        q_source="plug-in" if q_refs is None else "reference")


def posi_sweep(data, family, models, targets="plug-in", cap=10000,
               exact=False, fit_tol=1e-12):
    """Certify a list of column-subset submodels.

    Parameters
    ----------
    models : iterable of iterables of int
        Column index sets (0-based). Duplicates are removed silently; the
        deduplicated list must stay within ``cap``.
    targets : "plug-in" or mapping
        Per-model target vectors keyed by the sorted index tuple, or
        plug-in roots.
    exact : bool
        Also carry the exact submodel refit per model.

    Returns
    -------
    PosiReport
        Models ordered by their index tuple; ``uniform_condition_ok`` is the
        conjunction of every per-model curvature condition.
    """
    p = data.n_features
    keys = set()
    for m in models:
        key = tuple(sorted(int(j) for j in m))
        if len(key) == 0:
            raise InvalidInputError("submodels must be nonempty")
        if len(set(key)) != len(key):
            raise InvalidInputError(f"submodel has duplicate columns: {key}")
        if key[0] < 0 or key[-1] >= p:
            raise InvalidInputError(
                f"submodel {key} out of range for {p} columns")
        keys.add(key)
    if len(keys) > cap:
        raise InvalidInputError(
            f"{len(keys)} submodels exceed the cap of {cap}; pass an "
            f"explicit smaller list or raise cap=")
    plug_in = isinstance(targets, str)
    if plug_in and targets != "plug-in":
        raise InvalidInputError(f"unknown target spec {targets!r}")

    entries = []
    for key in sorted(keys):
        sub = data.subset_columns(key)
        if plug_in:
            target = glm.fit(sub, family, tol=fit_tol)
        else:
            if key not in targets:
                raise InvalidInputError(f"no target supplied for model {key}")
            target = np.asarray(targets[key], dtype=float)
        cert = glm.certify(sub, family, target)
        refit = None
        if exact:
            refit = (target.copy() if plug_in
                     else glm.fit(sub, family, tol=fit_tol))
        entries.append(PosiModel(indices=key, certificate=cert,
                                 exact_estimate=refit))
    return PosiReport(models=entries,
                      uniform_condition_ok=all(
                          e.certificate.condition_ok for e in entries))
