import numpy as np
import pytest

from finite_differences import loss_derivative_check

from mestcert import InvalidInputError, make_family
from mestcert.losses import sigmoid

GRID = np.arange(-3.0, 3.0 + 1e-9, 0.25)


def _grid_ys(rng, kind):
    if kind == "squared":
        return rng.normal(size=4) * 2.0
    if kind == "logistic":
        return np.array([0.0, 1.0])
    return rng.poisson(2.0, size=4).astype(float)  # counts for poisson/negbin


def _assert_curvature_bound(family, ys):
    for y in ys:
        d2 = np.asarray(family.eval2(GRID, np.full_like(GRID, y)), dtype=float)
        assert np.all(d2 > 0)
        ratio = d2[:, None] / d2[None, :]
        bound = np.asarray(family.cbound(np.abs(GRID[:, None] - GRID[None, :])),
                           dtype=float)
        assert np.all(ratio <= bound * (1 + 1e-9)), \
            f"curvature bound violated for {family.kind} at y={y}"


class TestBuiltins:
    def test_squared_cbound_constant(self):
        fam = make_family("squared")
        assert float(fam.cbound(5.0)) == 1.0
        assert float(fam.cbound(0.0)) == 1.0

    def test_poisson_cbound(self):
        fam = make_family("poisson")
        assert float(fam.cbound(np.log(4.0 / 3.0))) == pytest.approx(4.0 / 3.0,
                                                                     rel=1e-12)

    def test_logistic_cbound(self):
        fam = make_family("logistic")
        assert float(fam.cbound(0.0)) == 1.0
        assert float(fam.cbound(1.0)) == pytest.approx(np.exp(3.0), rel=1e-12)

    def test_negbinomial_cbound_and_params(self):
        fam = make_family("negbinomial", alpha=0.7)
        assert float(fam.cbound(1.0)) == pytest.approx(np.exp(3.0), rel=1e-12)
        # alpha lives in the evaluators: l''(0, 0) = 1 / (1 + alpha)^2
        assert float(fam.eval2(0.0, 0.0)) == pytest.approx(1.0 / 1.7 ** 2,
                                                          rel=1e-12)

    def test_negbinomial_requires_positive_alpha(self):
        with pytest.raises(InvalidInputError):
            make_family("negbinomial", alpha=0.0)
        with pytest.raises(InvalidInputError):
            make_family("negbinomial", alpha=-1.0)
        with pytest.raises(InvalidInputError):
            make_family("negbinomial")
        for bad in (np.inf, np.nan):
            with pytest.raises(InvalidInputError,
                               match="negbinomial requires a positive alpha"):
                make_family("negbinomial", alpha=bad)

    def test_unread_arguments_rejected(self):
        # an argument the kind does not read is an error, not ignored
        f = lambda u, y: np.asarray(u, float)
        for kind, kwargs, unread in (
                ("logistic", {"alpha": 2.0}, "alpha"),
                ("logistic", {"eval0": f}, "eval0"),
                ("squared", {"alpha": 1.0, "cbound": f}, "alpha, cbound"),
                ("negbinomial", {"alpha": 1.0, "eval2": f}, "eval2"),
                ("custom", {"alpha": 1.0, "eval0": f, "eval1": f,
                            "eval2": f, "cbound": f}, "alpha")):
            with pytest.raises(InvalidInputError,
                               match=f"{kind} family does not read {unread}$"):
                make_family(kind, **kwargs)
        # weight is read by every kind, and None leaves an argument unset
        w = lambda x: 1.0
        assert make_family("poisson", alpha=None, weight=w).weight is w

    def test_unknown_kind(self):
        for kind in ("huber", ["logistic"], None):
            with pytest.raises(InvalidInputError, match="unknown loss kind"):
                make_family(kind)

    def test_curvature_bound_grid(self):
        rng = np.random.default_rng(21)
        for kind, alpha in (("squared", None), ("logistic", None),
                            ("poisson", None), ("negbinomial", 0.7),
                            ("negbinomial", 2.5)):
            fam = (make_family(kind) if alpha is None
                   else make_family(kind, alpha=alpha))
            _assert_curvature_bound(fam, _grid_ys(rng, kind))

    def test_cbound_normalized_and_monotone(self):
        fams = [make_family(k) for k in ("squared", "logistic", "poisson")]
        fams.append(make_family("negbinomial", alpha=1.3))
        pos_grid = np.arange(0.0, 6.0 + 1e-9, 0.25)
        for fam in fams:
            vals = np.asarray(fam.cbound(pos_grid), dtype=float)
            assert vals[0] == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.diff(vals) >= -1e-12)
            assert np.all(vals >= 1.0 - 1e-12)


class TestDerivativeCheck:
    def test_squared(self):
        fam = make_family("squared")
        assert loss_derivative_check(fam, 1.0, 0.0, 1e-5) < 1e-8
        assert float(fam.eval1(1.0, 0.0)) == pytest.approx(2.0)
        assert float(fam.eval2(1.0, 0.0)) == pytest.approx(2.0)

    def test_logistic(self):
        fam = make_family("logistic")
        assert loss_derivative_check(fam, 0.0, 1.0, 1e-5) < 1e-8
        assert float(fam.eval2(0.0, 1.0)) == pytest.approx(0.25, rel=1e-12)

    def test_poisson(self):
        fam = make_family("poisson")
        assert loss_derivative_check(fam, 0.0, 3.0, 1e-5) < 1e-8
        assert float(fam.eval2(0.0, 3.0)) == pytest.approx(1.0, rel=1e-12)

    def test_negbinomial(self):
        fam = make_family("negbinomial", alpha=0.5)
        assert loss_derivative_check(fam, 0.3, 2.0, 1e-5) < 1e-7

    def test_bad_step(self):
        with pytest.raises(InvalidInputError):
            loss_derivative_check(make_family("squared"), 0.0, 0.0, 0.0)

    def test_extreme_arguments_stay_finite(self):
        # stable evaluation far in the tails
        for fam in (make_family("logistic"), make_family("negbinomial", alpha=0.5)):
            for u in (-40.0, 40.0):
                assert np.isfinite(float(fam.eval0(u, 1.0)))
                assert np.isfinite(float(fam.eval1(u, 1.0)))


def _masked_sigmoid(u):
    """The two-branch form ``losses.sigmoid`` replaced, kept as reference."""
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return out


class TestSigmoid:
    def test_bytes_match_masked_form(self):
        rng = np.random.default_rng(50)
        special = [sign * v for sign in (1.0, -1.0)
                   for v in (0.0, 1e-300, 709.8, 745.5, np.inf)]
        for u in [np.array(special)] + [rng.normal(size=20000) * scale
                                        for scale in (0.5, 3.0, 30.0, 800.0)]:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                assert sigmoid(u).tobytes() == _masked_sigmoid(u).tobytes()
        assert type(sigmoid(-3.0)) is float and sigmoid(0.0) == 0.5


class TestCombine:
    def test_combined_bound_validity_on_grid(self):
        # a positive combination of two families is a custom family whose
        # bound is the pointwise max of theirs: the ratio of a sum of
        # positive quadratic forms lies between the ratios of its terms
        # (mediant inequality), so the construction grid check accepts it
        f1, f2 = make_family("poisson"), make_family("logistic")
        comb = make_family(
            "custom",
            eval0=lambda u, y: 0.5 * f1.eval0(u, y) + 1.5 * f2.eval0(u, y),
            eval1=lambda u, y: 0.5 * f1.eval1(u, y) + 1.5 * f2.eval1(u, y),
            eval2=lambda u, y: 0.5 * f1.eval2(u, y) + 1.5 * f2.eval2(u, y),
            cbound=lambda u: np.maximum(f1.cbound(u), f2.cbound(u)))
        _assert_curvature_bound(comb, (0.0, 1.0, 3.0))

    def test_nonpositive_scale_rejected(self):
        # without a positive scale the combined curvature is not positive
        # everywhere, and the custom construction check refuses it
        sq = make_family("squared")
        for a, b in ((0.0, 0.0), (1.0, -2.0)):
            with pytest.raises(InvalidInputError,
                               match="second derivative must be finite and "
                                     "positive"):
                make_family(
                    "custom",
                    eval0=lambda u, y: a * sq.eval0(u, y) + b * sq.eval0(u, y),
                    eval1=lambda u, y: a * sq.eval1(u, y) + b * sq.eval1(u, y),
                    eval2=lambda u, y: a * sq.eval2(u, y) + b * sq.eval2(u, y),
                    cbound=sq.cbound)


class TestCustom:
    def test_valid_custom(self):
        fam = make_family(
            "custom",
            eval0=lambda u, y: 3.0 * (np.asarray(u, float) - y) ** 2,
            eval1=lambda u, y: 6.0 * (np.asarray(u, float) - y),
            eval2=lambda u, y: 6.0 * np.ones_like(np.asarray(u, float)),
            cbound=lambda u: np.ones_like(np.asarray(u, float)) + 0.0,
        )
        assert fam.kind == "custom"

    def test_disproven_bound_is_hard_error(self):
        # exponential curvature asserted constant: counterexample on the grid
        with pytest.raises(InvalidInputError, match="curvature bound violated"):
            make_family(
                "custom",
                eval0=lambda u, y: np.exp(u) - y * np.asarray(u, float),
                eval1=lambda u, y: np.exp(u) - y,
                eval2=lambda u, y: np.exp(u) + 0.0 * np.asarray(y, float),
                cbound=lambda u: np.ones_like(np.asarray(u, float)) + 0.0,
            )

    def test_unnormalized_bound_is_hard_error(self):
        with pytest.raises(InvalidInputError, match="cbound"):
            make_family(
                "custom",
                eval0=lambda u, y: (np.asarray(u, float) - y) ** 2,
                eval1=lambda u, y: 2.0 * (np.asarray(u, float) - y),
                eval2=lambda u, y: 2.0 * np.ones_like(np.asarray(u, float)),
                cbound=lambda u: 2.0 * np.ones_like(np.asarray(u, float)),
            )

    def test_missing_callables(self):
        with pytest.raises(InvalidInputError):
            make_family("custom", eval0=lambda u, y: u)

    def test_decreasing_bound_is_hard_error(self):
        with pytest.raises(InvalidInputError, match="nondecreasing"):
            make_family(
                "custom",
                eval0=lambda u, y: (np.asarray(u, float) - y) ** 2,
                eval1=lambda u, y: 2.0 * (np.asarray(u, float) - y),
                eval2=lambda u, y: 2.0 * np.ones_like(np.asarray(u, float)),
                cbound=lambda u: np.exp(-np.asarray(u, float) ** 2) + 0.0,
            )
