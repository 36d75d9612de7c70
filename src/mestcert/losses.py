"""GLM-type loss families with curvature-ratio bounds.

A loss family packages the per-observation loss ``l(u, y)`` in the linear
predictor ``u = x @ theta``, its first two derivatives in ``u``, an optional
nonnegative per-row weight ``h(x)``, and a closed-form *curvature ratio
bound* ``cbound``: a nondecreasing function with ``cbound(0) == 1`` such that

    l''(s, y) / l''(t, y) <= cbound(|s - t|)   for every response y.

That single function is what turns a Newton step into a certificate: every
certified radius and expansion bound downstream is expressed through it.
The built-in bounds are

    squared       cbound(u) = 1
    poisson       cbound(u) = exp(u)
    logistic      cbound(u) = exp(3 u)
    negbinomial   cbound(u) = exp(3 u)

The bounds are uniform in ``y`` and may exceed the exact worst-case ratio,
so certificates are conservative but never optimistic.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidInputError
from .numkit import row_weights

#: u-grid used to sanity-check a curvature bound at construction time
_CHECK_GRID = np.arange(-3.0, 3.0 + 1e-9, 0.25)
#: responses the construction check evaluates l'' at
_CHECK_YS = (0.0, 1.0, 3.0)
_CHECK_RTOL = 1e-9
#: the make_family arguments each kind reads besides ``weight``
_KIND_READS = {"squared": (), "logistic": (), "poisson": (),
               "negbinomial": ("alpha",),
               "custom": ("eval0", "eval1", "eval2", "cbound")}


@dataclass(frozen=True)
class LossFamily:
    """Immutable bundle of loss evaluators and their curvature bound.

    Attributes
    ----------
    kind : str
        Identifier: ``"squared"``, ``"logistic"``, ``"poisson"``,
        ``"negbinomial"`` or ``"custom"``.
    eval0, eval1, eval2 : callable
        ``(u, y) -> value`` for the loss and its first/second derivative in
        the linear predictor; vectorized over numpy arrays; ``eval2`` must be
        strictly positive wherever certificates are requested.
    cbound : callable
        ``u >= 0 -> ratio bound >= 1``; nondecreasing with ``cbound(0) = 1``.
    weight : callable or None
        Per-row weight ``h(x) >= 0`` taking the covariate row; ``None``
        means unit weights. The GLM functions evaluate it once per row of a
        dataset and keep the weights with the dataset for every later call
        with the same weight function, so it must be a pure function of the
        row.
    """

    kind: str
    eval0: Callable
    eval1: Callable
    eval2: Callable
    cbound: Callable
    weight: Optional[Callable] = None

    def row_weights(self, x):
        """Evaluate the weight function on each row of the design matrix."""
        return row_weights(self.weight, np.asarray(x, dtype=float))


def sigmoid(u):
    """Logistic function, evaluated without overflow for either sign."""
    u = np.asarray(u, dtype=float)
    e = np.exp(-np.abs(u))
    out = np.where(u >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return out if out.ndim else float(out)


def make_family(kind, alpha=None, eval0=None, eval1=None, eval2=None,
                cbound=None, weight=None):
    """Construct a built-in or custom loss family.

    Parameters
    ----------
    kind : str
        One of ``"squared"``, ``"logistic"``, ``"poisson"``,
        ``"negbinomial"``, ``"custom"``.
    alpha : float, optional
        Overdispersion parameter for ``"negbinomial"``; must be positive
        and finite.
    eval0, eval1, eval2, cbound : callable, optional
        Required for ``kind="custom"``; the asserted ``cbound`` is checked
        against ``eval2`` on a fixed grid (at the responses ``_CHECK_YS``)
        and a violation is a hard error.
    weight : callable, optional
        Per-row weight ``h(x)``; defaults to unit weights.

    An argument the kind does not read (``alpha`` for a kind other than
    ``"negbinomial"``, an evaluator for a built-in kind) is an error, not
    ignored.
    """
    if not isinstance(kind, str) or kind not in _KIND_READS:
        raise InvalidInputError(f"unknown loss kind {kind!r}")
    given = {"alpha": alpha, "eval0": eval0, "eval1": eval1, "eval2": eval2,
             "cbound": cbound}
    unread = [name for name, value in given.items()
              if value is not None and name not in _KIND_READS[kind]]
    if unread:
        raise InvalidInputError(
            f"{kind} family does not read {', '.join(unread)}")
    if kind == "squared":
        return LossFamily(
            kind="squared",
            eval0=lambda u, y: (np.asarray(u, float) - y) ** 2,
            eval1=lambda u, y: 2.0 * (np.asarray(u, float) - y),
            eval2=lambda u, y: 2.0 * np.ones_like(np.asarray(u, float) + 0.0 * y),
            cbound=lambda u: np.ones_like(np.asarray(u, dtype=float)) + 0.0,
            weight=weight,
        )
    if kind == "logistic":
        def l0(u, y):
            u = np.asarray(u, float)
            return np.logaddexp(0.0, u) - y * u

        def l2(u, y):
            s = sigmoid(u)
            return s * (1.0 - s) + 0.0 * np.asarray(y, float)

        return LossFamily(
            kind="logistic",
            eval0=l0,
            eval1=lambda u, y: sigmoid(u) - y,
            eval2=l2,
            cbound=lambda u: np.exp(3.0 * np.asarray(u, dtype=float)),
            weight=weight,
        )
    if kind == "poisson":
        return LossFamily(
            kind="poisson",
            eval0=lambda u, y: np.exp(np.asarray(u, float)) - y * np.asarray(u, float),
            eval1=lambda u, y: np.exp(np.asarray(u, float)) - y,
            eval2=lambda u, y: np.exp(np.asarray(u, float)) + 0.0 * np.asarray(y, float),
            cbound=lambda u: np.exp(np.asarray(u, dtype=float)),
            weight=weight,
        )
    if kind == "negbinomial":
        if alpha is None or not 0.0 < alpha < np.inf:
            raise InvalidInputError(
                f"negbinomial requires a positive alpha, got {alpha}")
        a = float(alpha)
        log_a = np.log(a)

        def nb0(u, y):
            u = np.asarray(u, float)
            return -y * u + (y + 1.0 / a) * np.logaddexp(0.0, u + log_a)

        def nb1(u, y):
            s = sigmoid(np.asarray(u, float) + log_a)
            return -y + (y + 1.0 / a) * s

        def nb2(u, y):
            s = sigmoid(np.asarray(u, float) + log_a)
            return (y + 1.0 / a) * s * (1.0 - s)

        return LossFamily(
            kind="negbinomial",
            eval0=nb0,
            eval1=nb1,
            eval2=nb2,
            cbound=lambda u: np.exp(3.0 * np.asarray(u, dtype=float)),
            weight=weight,
        )
    # the one kind left is "custom"
    if not all(callable(f) for f in (eval0, eval1, eval2, cbound)):
        raise InvalidInputError(
            "custom families need eval0, eval1, eval2 and cbound callables")
    fam = LossFamily(kind="custom", eval0=eval0, eval1=eval1, eval2=eval2,
                     cbound=cbound, weight=weight)
    _validate_cbound(fam)
    return fam


def _validate_cbound(family):
    """Grid check of the asserted curvature bound; violations are fatal.

    A sampled check cannot prove the bound, but a single counterexample on
    the grid disproves it, and shipping a disproven bound would poison every
    certificate built on the family.
    """
    c0 = float(np.asarray(family.cbound(0.0)))
    if abs(c0 - 1.0) > _CHECK_RTOL:
        raise InvalidInputError(f"cbound(0) must equal 1, got {c0!r}")
    gaps = np.arange(0.0, 6.0 + 1e-9, 0.25)
    cvals = np.asarray(family.cbound(gaps), dtype=float)
    if np.any(np.diff(cvals) < -_CHECK_RTOL):
        raise InvalidInputError("cbound must be nondecreasing")
    grid = _CHECK_GRID
    for y in _CHECK_YS:
        d2 = np.asarray(family.eval2(grid, np.full_like(grid, float(y))), float)
        if np.any(d2 <= 0.0) or not np.all(np.isfinite(d2)):
            raise InvalidInputError(
                f"second derivative must be finite and positive on the check "
                f"grid (y={y})")
        ratio = d2[:, None] / d2[None, :]
        gap = np.abs(grid[:, None] - grid[None, :])
        bound = np.asarray(family.cbound(gap), float)
        if np.any(ratio > bound * (1.0 + _CHECK_RTOL)):
            i, j = np.unravel_index(np.argmax(ratio / bound), ratio.shape)
            raise InvalidInputError(
                f"curvature bound violated at y={y}: "
                f"l''({grid[i]}, y)/l''({grid[j]}, y) = {ratio[i, j]:.6g} > "
                f"cbound({gap[i, j]}) = {bound[i, j]:.6g}")
