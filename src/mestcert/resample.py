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
    (max_c - 1 + n^-1 ||Qhat^-1 sum_I hess_i||_op)``. A denominator within
    rounding of zero (at most ``1e-12``) counts as collapsed: the set then
    carries a whole direction of the curvature and nothing is certified.

    One batched kernel serves every index set. One Hessian factorization
    and one multi-right-hand-side solve give the rows ``Qhat^-1 x_i``, from
    which every shift is a weighted sum. With ``hess_i = c_i x_i x_i^T`` a
    singleton's curvature term is rank one,

        ||Qhat^-1 x_i x_i^T c_i||_op = |c_i| ||x_i|| ||Qhat^-1 x_i||,

    and for ``|I| = k > 1`` it is the norm of the k x k core ``R_A R_B^T``
    from thin QRs of ``A = Qhat^-1 X_I^T`` and ``B = X_I^T diag(c_I)``;
    sets are batched by size in chunks of bounded memory. ``cbound`` is
    nondecreasing (the :class:`~mestcert.losses.LossFamily` contract, which
    custom families are grid-checked against), so the maximum over the
    retained rows is ``cbound`` at the largest retained row norm, the first
    of the k+1 largest norms that ``I`` does not delete, found by a sorted
    search. An all-singleton sweep thus costs ``O(n p^2 + p^3)``, with no
    ``O(n)`` work per fold.

    The per-row terms come from the dataset's memo, so a sweep at the root
    ``glm.fit`` just returned evaluates no loss derivative. The top rows
    by norm are found once per sweep, for the largest set size, by a
    partition and a stable sort of its candidates (ties in index order, as
    a full stable sort would give). Same-size integer index sets are
    validated and deduplicated as one array, and each chunk's entries are
    built by filling the frozen instances' dicts, with the fields and bits
    the constructor would give.

Marginal screening
    Each coordinate is certified through its one-dimensional submodel; the
    per-coordinate radius+expansion envelopes majorize how far the max
    coordinate statistic can move, giving ``|max_j est_j - max_j target_j|
    <= max_j (delta_j + bound_j)``.

Submodel sweeps
    A list of column subsets is certified model by model; the report states
    whether the curvature condition held uniformly over the list. The
    caller supplies the list explicitly, at most ``POSI_CAP`` distinct
    models: enumerating all subsets of a given size is combinatorially
    hopeless and deliberately unsupported.

Throughout, targets are caller-supplied or plug-in roots; the library never
estimates population quantities. Index sets and submodels take distinct
0-based integer indices (a float is rejected, not truncated, and a bool is
rejected, not read as 0 or 1). Report entries are ordered by sorted key so
output is deterministic.
"""

import itertools
import operator
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from . import glm
from .errors import ConvergenceError, InvalidInputError, SingularMatrixError
from .numkit import as_parameter, lu_factorization

#: tolerance on ||score(theta_hat)|| for accepting a root input
ROOT_SCORE_TOL = 1e-8
#: root tolerance of the exact refits and the submodel fits
FIT_TOL = 1e-12
#: iteration budget of an exact deletion refit
REFIT_MAX_ITER = 200
#: most distinct submodels one posi_sweep certifies
POSI_CAP = 10000
#: leverage denominators up to this count as collapsed: a set that carries
#: a whole direction of the curvature has denominator zero, which rounding
#: puts a few ulps to either side
_DENOM_FLOOR = 1e-12
#: element budget of one chunk of same-size index sets in the deletion kernel
_CHUNK_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class LooEntry:
    """One-step deletion result for one index set.

    ``certified`` requires a leverage denominator above ``1e-12`` and the
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
    """Shared full-data quantities for a deletion sweep: the per-row
    gradient and curvature terms (read from the dataset's row-term memo,
    which ``glm.fit`` leaves at the root), the row norms and the rows
    ``Qhat^-1 x_i`` from one multi-right-hand-side solve."""

    def __init__(self, data, family, theta_hat):
        theta_hat = as_parameter(theta_hat, data.n_features, "theta_hat")
        score_norm = float(np.linalg.norm(glm.score(data, family, theta_hat)))
        if score_norm > ROOT_SCORE_TOL:
            raise InvalidInputError(
                f"theta_hat is not a root of the full-data score "
                f"(||score|| = {score_norm:.3e} > {ROOT_SCORE_TOL:.0e}); "
                f"fit first")
        self.X = data.X
        self.family = family
        self.theta_hat = theta_hat
        self.n = data.n_obs
        self.grad_terms = glm._row_terms(data, family, theta_hat, 1)
        self.curv_terms = glm._row_terms(data, family, theta_hat, 2)
        self.row_norms = np.linalg.norm(data.X, axis=1)
        qhat_solve = lu_factorization(glm.hessian(data, family, theta_hat))
        self.lever = np.ascontiguousarray(qhat_solve(data.X.T).T)

    def entries(self, sets):
        """One :class:`LooEntry` per validated index tuple, in the given
        order; sets of one size go through the kernel in bounded chunks."""
        out = [None] * len(sets)
        sizes = np.fromiter(map(len, sets), dtype=np.intp, count=len(sets))
        ks = np.unique(sizes).tolist()
        # a set of size k reads the k+1 largest norms
        top = _top_rows(self.row_norms, ks[-1] + 1) if ks else None
        for k in ks:
            positions = np.flatnonzero(sizes == k).tolist()
            step = max(1, _CHUNK_ELEMENTS // (k * self.X.shape[1]))
            for lo in range(0, len(positions), step):
                part = positions[lo:lo + step]
                for pos, entry in zip(part, self._chunk_entries(
                        [sets[pos] for pos in part], top[:k + 1])):
                    out[pos] = entry
        return out

    def _chunk_entries(self, chunk, top):
        """Entries of one chunk of size-k sets; ``top`` holds the k+1 rows
        of largest norm, ties in index order."""
        m, k = len(chunk), len(chunk[0])
        rows = np.fromiter(itertools.chain.from_iterable(chunk),
                           dtype=np.intp, count=m * k).reshape(m, k)
        n = self.n
        lever = self.lever[rows]  # (m, k, p): Qhat^-1 x_i per deleted row
        shift = (lever * self.grad_terms[rows][:, :, None]).sum(axis=1) / n
        if k == 1:
            # rank one: ||Qhat^-1 x_i x_i^T c_i||_op
            #           = |c_i| ||x_i|| ||Qhat^-1 x_i||
            i = rows[:, 0]
            curv_op = (np.abs(self.curv_terms[i]) * self.row_norms[i]
                       * np.linalg.norm(lever[:, 0], axis=1)) / n
        else:
            # ||A B^T||_op with A = Qhat^-1 X_I^T and B = X_I^T diag(c_I) is
            # the norm of the k x k core R_A R_B^T of their thin QRs
            r_a = np.linalg.qr(lever.transpose(0, 2, 1), mode="r")
            b = self.X[rows] * self.curv_terms[rows][:, :, None]
            r_b = np.linalg.qr(b.transpose(0, 2, 1), mode="r")
            core = r_a @ r_b.transpose(0, 2, 1)
            curv_op = np.linalg.svd(core, compute_uv=False)[:, 0] / n
        denom = 1.0 - curv_op
        ok = denom > _DENOM_FLOOR
        delta = np.full(m, np.inf)
        delta[ok] = np.linalg.norm(shift[ok], axis=1) / denom[ok]
        # cbound is nondecreasing, so its maximum over the retained rows sits
        # at the largest retained norm
        max_norm = self.row_norms[_first_retained(rows, top, n)]
        max_c = np.full(m, np.inf)
        max_c[ok] = glm._curvature_ratio(self.family,
                                         1.5 * delta[ok] * max_norm[ok])
        certified = max_c <= glm.CONDITION_LIMIT
        bound = 1.5 * delta * (max_c - 1.0 + curv_op)
        # the frozen __init__ makes six object.__setattr__ calls per entry,
        # more than the kernel's arithmetic per fold; filling each instance
        # dict in field order builds the same entries
        out = [object.__new__(LooEntry) for _ in range(m)]
        for entry, idx, estimate, d, c, b in zip(
                out, chunk, list(self.theta_hat + shift), delta.tolist(),
                certified.tolist(), bound.tolist()):
            attrs = entry.__dict__
            attrs["indices"] = idx
            attrs["approx_estimate"] = estimate
            attrs["delta_i"] = d
            attrs["certified"] = c
            attrs["deviation_bound"] = b
            attrs["exact_estimate"] = None
        return out


def _first_retained(rows, top, n):
    """The first entry of ``top`` that each sorted set of ``rows`` (indices
    into ``n`` rows) keeps. Set ``j`` offset by ``j n`` sorts the chunk, so
    one search finds the deleted top rows, ``O(k log(m k))`` per set."""
    offset = np.arange(rows.shape[0])[:, None] * n
    flat = (rows + offset).ravel()
    query = top + offset
    found = np.searchsorted(flat, query)
    hit = flat[np.minimum(found, flat.size - 1)] == query
    return top[np.argmin(hit, axis=1)]


def _top_rows(norms, c):
    """``np.argsort(-norms, kind="stable")[:c]``: the rows of the ``c``
    largest norms, ties in index order, from a partition and a stable sort
    of the candidates at or above the ``c``-th largest norm."""
    neg = -norms
    if c >= neg.size:  # all rows, as when the one row of n=1 is deleted
        return np.argsort(neg, kind="stable")[:c]
    cut = np.partition(neg, c - 1)[c - 1]
    candidates = np.flatnonzero(neg <= cut)
    return candidates[np.argsort(neg[candidates], kind="stable")[:c]]


def _index_tuple(entries, n, name, unit):
    """``entries`` as a sorted tuple of distinct indices into ``n`` rows or
    columns (``unit``); ``name`` says what the set is in error messages."""
    try:
        entries = list(entries)
        if bool in map(type, entries):  # operator.index reads True as 1
            raise TypeError("a bool is not an index")
        idx = tuple(sorted(map(operator.index, entries)))
    except TypeError as exc:
        raise InvalidInputError(
            f"{name} entries must be integers ({exc})") from None
    if len(idx) == 0:
        raise InvalidInputError(f"{name} must be nonempty")
    if len(set(idx)) != len(idx):
        raise InvalidInputError(f"{name} has duplicates: {idx}")
    if idx[0] < 0 or idx[-1] >= n:
        raise InvalidInputError(f"{name} {idx} out of range for {n} {unit}")
    return idx


def _check_index_set(index_set, n):
    idx = _index_tuple(index_set, n, "index set", "observations")
    if len(idx) >= n:
        raise InvalidInputError("cannot delete every observation")
    return idx


def _check_index_sets(index_sets, n):
    """The sorted distinct index tuples of ``index_sets``, each validated as
    by :func:`_check_index_set`. Same-size tuples, lists or arrays of
    integers (no bools) that are all valid are checked as one array; any
    other input goes through the per-set check, which raises the error of
    the first invalid set."""
    index_sets = list(index_sets)
    rows = _same_size_rows(index_sets)
    if rows is not None and 0 < rows.shape[1] < n:
        rows.sort(axis=1)
        if (rows[:, 0].min() >= 0 and rows[:, -1].max() < n
                and (np.diff(rows, axis=1) > 0).all()):
            # deduplicate in lexicographic order, the order of sorted tuples
            rows = rows[np.lexsort(rows.T[::-1])]
            rows = rows[np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]]
            return list(map(tuple, rows.tolist()))
    return sorted({_check_index_set(s, n) for s in index_sets})


def _same_size_rows(index_sets):
    """``index_sets`` as an ``(m, k)`` integer array when every set is a
    tuple, list or array of ``k`` integer entries, else ``None``."""
    try:
        if (not index_sets
                or not {tuple, list, np.ndarray}.issuperset(
                    map(type, index_sets))
                or len(set(map(len, index_sets))) != 1
                or not all(t is int or issubclass(t, np.integer) for t in set(
                    map(type, itertools.chain.from_iterable(index_sets))))):
            return None
        m, k = len(index_sets), len(index_sets[0])
        return np.fromiter(itertools.chain.from_iterable(index_sets),
                           dtype=np.int64, count=m * k).reshape(m, k)
    except (TypeError, OverflowError):  # a 0-d array; an entry past int64
        return None


def loo_exact(data, family, index_set, init=None):
    """Oracle refit on the retained rows (no approximation), to ``FIT_TOL``
    within ``REFIT_MAX_ITER`` iterations.

    Non-convergent or degenerate reduced problems raise, e.g. deleting all
    but a handful of rows can leave a singular design.
    """
    idx = _check_index_set(index_set, data.n_obs)
    keep = np.ones(data.n_obs, dtype=bool)
    keep[list(idx)] = False
    return glm.fit(data.subset_rows(keep), family, init=init, tol=FIT_TOL,
                   max_iter=REFIT_MAX_ITER)


def loo_sweep(data, family, theta_hat, index_sets=None, exact=False):
    """Deletion sweep sharing one Hessian factorization and one batched
    kernel across index sets.

    ``theta_hat`` must solve the full-data score equation to
    ``ROOT_SCORE_TOL``. ``index_sets=None`` sweeps all singletons. Entries
    are ordered by their sorted index tuple; a failed certificate condition
    is reported in its entry (see :class:`LooEntry`), never raised. With
    ``exact=True`` each entry also carries the oracle refit (initialized at
    the full-data root, to ``FIT_TOL``).
    """
    ctx = _DeletionContext(data, family, theta_hat)
    if index_sets is None:
        sets = [(i,) for i in range(data.n_obs)]
    else:
        sets = _check_index_sets(index_sets, data.n_obs)
    entries = ctx.entries(sets)
    if exact:
        entries = [replace(e, exact_estimate=loo_exact(
            data, family, e.indices, init=ctx.theta_hat)) for e in entries]
    return LooReport(theta_hat=ctx.theta_hat, entries=entries)


def screen_marginal(data, family, targets="plug-in", q_refs=None):
    """Certify every single-covariate marginal model.

    Parameters
    ----------
    targets : "plug-in" or (p,) array_like
        Per-coordinate target values; plug-in uses each marginal root
        itself (bounds then act as near-zero sanity checks).
    q_refs : (p,) array_like, optional
        Per-coordinate reference curvature scalars; when given, expansion
        bounds carry the reference-mismatch term.

    Marginal roots are fitted to ``FIT_TOL``. Coordinates whose marginal
    Hessian is singular (or whose marginal fit diverges under plug-in
    targets) are marked uncertified rather than raising; the max-statistic
    envelope is then infinite.
    """
    p = data.n_features
    plug_in = isinstance(targets, str)
    if plug_in:
        if targets != "plug-in":
            raise InvalidInputError(f"unknown target spec {targets!r}")
        tvec = None
    else:
        tvec = as_parameter(targets, p, "targets")
    if q_refs is not None:
        q_refs = as_parameter(q_refs, p, "q_refs")

    coords = []
    for j in range(p):
        sub = data.subset_columns([j])
        try:
            estimate = float(glm.fit(sub, family, tol=FIT_TOL)[0])
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


def posi_sweep(data, family, models, targets="plug-in", exact=False):
    """Certify a list of column-subset submodels.

    Parameters
    ----------
    models : iterable of iterables of int
        Column index sets (0-based). Duplicates are removed silently; the
        deduplicated list must stay within ``POSI_CAP``.
    targets : "plug-in" or mapping
        Per-model target vectors keyed by the sorted index tuple, or
        plug-in roots (fitted to ``FIT_TOL``).
    exact : bool
        Also carry the exact submodel refit per model.

    Returns
    -------
    PosiReport
        Models ordered by their index tuple; ``uniform_condition_ok`` is the
        conjunction of every per-model curvature condition.
    """
    keys = {_index_tuple(m, data.n_features, "submodel", "columns")
            for m in models}
    if len(keys) > POSI_CAP:
        raise InvalidInputError(
            f"{len(keys)} submodels exceed the cap of {POSI_CAP}; pass an "
            f"explicit smaller list")
    plug_in = isinstance(targets, str)
    if plug_in and targets != "plug-in":
        raise InvalidInputError(f"unknown target spec {targets!r}")

    entries = []
    for key in sorted(keys):
        sub = data.subset_columns(key)
        if plug_in:
            target = glm.fit(sub, family, tol=FIT_TOL)
        else:
            if key not in targets:
                raise InvalidInputError(f"no target supplied for model {key}")
            target = as_parameter(targets[key], len(key),
                                  f"target of model {key}")
        cert = glm.certify(sub, family, target)
        refit = None
        if exact:
            refit = target if plug_in else glm.fit(sub, family, tol=FIT_TOL)
        entries.append(PosiModel(indices=key, certificate=cert,
                                 exact_estimate=refit))
    return PosiReport(models=entries,
                      uniform_condition_ok=all(
                          e.certificate.condition_ok for e in entries))
