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

Sums of families stay tractable: the ratio of a sum of positive quadratic
forms lies between the extreme ratios of its terms (mediant inequality), so
``combine_families`` simply takes the pointwise max of the two bounds.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InvalidInputError
from .numkit import row_weights

#: u-grid used to sanity-check a curvature bound at construction time
_CHECK_GRID = np.arange(-3.0, 3.0 + 1e-9, 0.25)
#: responses the construction check evaluates l'' at
_CHECK_YS = (0.0, 1.0, 3.0)
_CHECK_RTOL = 1e-9


@dataclass(frozen=True)
class LossFamily:
    """Immutable bundle of loss evaluators and their curvature bound.

    Attributes
    ----------
    kind : str
        Identifier: ``"squared"``, ``"logistic"``, ``"poisson"``,
        ``"negbinomial"``, ``"custom"`` or a ``"combine(...)"`` tag.
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
    params : dict
        Extra shape parameters (``alpha`` for negative binomial).
    """

    kind: str
    eval0: Callable
    eval1: Callable
    eval2: Callable
    cbound: Callable
    weight: Optional[Callable] = None
    params: dict = field(default_factory=dict)

    def row_weights(self, x):
        """Evaluate the weight function on each row of the design matrix."""
        return row_weights(self.weight, np.asarray(x, dtype=float))


def sigmoid(u):
    """Logistic function, evaluated without overflow for either sign."""
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
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
        Overdispersion parameter for ``"negbinomial"``; must be positive.
    eval0, eval1, eval2, cbound : callable, optional
        Required for ``kind="custom"``; the asserted ``cbound`` is checked
        against ``eval2`` on a fixed grid (at the responses ``_CHECK_YS``)
        and a violation is a hard error.
    weight : callable, optional
        Per-row weight ``h(x)``; defaults to unit weights.
    """
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
        if alpha is None or not alpha > 0.0:
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
            params={"alpha": a},
        )
    if kind == "custom":
        if not all(callable(f) for f in (eval0, eval1, eval2, cbound)):
            raise InvalidInputError(
                "custom families need eval0, eval1, eval2 and cbound callables")
        fam = LossFamily(kind="custom", eval0=eval0, eval1=eval1, eval2=eval2,
                         cbound=cbound, weight=weight)
        _validate_cbound(fam)
        return fam
    raise InvalidInputError(f"unknown loss kind {kind!r}")


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


def combine_families(a, family1, b, family2):
    """Positive combination ``a * L1 + b * L2`` of two loss families.

    The combined curvature bound is the pointwise maximum of the two input
    bounds: for positive quadratic forms, ``(a1 + a2) / (b1 + b2)`` lies
    between ``a1/b1`` and ``a2/b2``, so the worse of the two ratios bounds
    the ratio of the sum. The scale factors cancel and do not appear.

    Both families must share the same weight function (weights multiply the
    whole per-row loss, so mixing two different weights has no single-family
    representation).
    """
    a = float(a)
    b = float(b)
    if not (a > 0.0 and b > 0.0):
        raise InvalidInputError(f"combination weights must be positive, "
                                f"got a={a}, b={b}")
    if family1.weight is not family2.weight:
        raise InvalidInputError(
            "combine_families requires both families to share one weight "
            "function (use weight=None on both for unit weights)")

    e0_1, e0_2 = family1.eval0, family2.eval0
    e1_1, e1_2 = family1.eval1, family2.eval1
    e2_1, e2_2 = family1.eval2, family2.eval2
    c1, c2 = family1.cbound, family2.cbound
    return LossFamily(
        kind=f"combine({a}*{family1.kind},{b}*{family2.kind})",
        eval0=lambda u, y: a * e0_1(u, y) + b * e0_2(u, y),
        eval1=lambda u, y: a * e1_1(u, y) + b * e1_2(u, y),
        eval2=lambda u, y: a * e2_1(u, y) + b * e2_2(u, y),
        cbound=lambda u: np.maximum(np.asarray(c1(u), float),
                                    np.asarray(c2(u), float)),
        weight=family1.weight,
    )
