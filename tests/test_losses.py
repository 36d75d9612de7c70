import numpy as np
import pytest

from finite_differences import loss_derivative_check

from mestcert import InvalidInputError, combine_families, make_family

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
        assert fam.params["alpha"] == 0.7

    def test_negbinomial_requires_positive_alpha(self):
        with pytest.raises(InvalidInputError):
            make_family("negbinomial", alpha=0.0)
        with pytest.raises(InvalidInputError):
            make_family("negbinomial", alpha=-1.0)
        with pytest.raises(InvalidInputError):
            make_family("negbinomial")

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            make_family("huber")

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
        fams.append(combine_families(1.0, fams[0], 2.0, fams[2]))
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


class TestCombine:
    def test_same_family_keeps_bound(self):
        sq = make_family("squared")
        comb = combine_families(1.0, sq, 1.0, sq)
        assert float(comb.cbound(2.0)) == 1.0
        assert float(comb.eval0(1.5, 0.5)) == pytest.approx(2.0 * (1.5 - 0.5) ** 2)

    def test_squared_plus_poisson(self):
        comb = combine_families(1.0, make_family("squared"), 1.0,
                                make_family("poisson"))
        u = np.linspace(0.0, 3.0, 13)
        np.testing.assert_allclose(np.asarray(comb.cbound(u)), np.exp(u),
                                   rtol=1e-12)

    def test_logistic_plus_poisson_at_one(self):
        comb = combine_families(2.0, make_family("logistic"), 3.0,
                                make_family("poisson"))
        assert float(comb.cbound(1.0)) == pytest.approx(np.exp(3.0), rel=1e-12)

    def test_order_independence(self):
        f1 = make_family("logistic")
        f2 = make_family("poisson")
        a = combine_families(2.0, f1, 3.0, f2)
        b = combine_families(3.0, f2, 2.0, f1)
        rng = np.random.default_rng(22)
        ys = rng.poisson(1.0, size=GRID.size).astype(float)
        np.testing.assert_array_equal(np.asarray(a.eval0(GRID, ys)),
                                      np.asarray(b.eval0(GRID, ys)))
        np.testing.assert_array_equal(np.asarray(a.cbound(np.abs(GRID))),
                                      np.asarray(b.cbound(np.abs(GRID))))

    def test_combined_bound_validity_on_grid(self):
        comb = combine_families(0.5, make_family("poisson"), 1.5,
                                make_family("logistic"))
        _assert_curvature_bound(comb, (0.0, 1.0, 3.0))

    def test_nonpositive_scale_rejected(self):
        sq = make_family("squared")
        with pytest.raises(InvalidInputError):
            combine_families(0.0, sq, 1.0, sq)
        with pytest.raises(InvalidInputError):
            combine_families(1.0, sq, -2.0, sq)

    def test_mismatched_weights_rejected(self):
        w = lambda x: 1.0
        f1 = make_family("squared", weight=w)
        f2 = make_family("squared", weight=lambda x: 2.0)
        combine_families(1.0, f1, 1.0, make_family("squared", weight=w))
        with pytest.raises(InvalidInputError):
            combine_families(1.0, f1, 1.0, f2)


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
