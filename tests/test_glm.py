import copy
import dataclasses
import pickle
import warnings

import numpy as np
import pytest
from conftest import assert_certificate_owns_inputs, bits, gen_glm_instance
from finite_differences import fd_jacobian

from mestcert import (ConvergenceError, Dataset, InvalidInputError,
                      SingularMatrixError, certify, fit, hessian,
                      hessian_holder_constant, loo_sweep, make_family,
                      op_norm, posi_sweep, score, screen_marginal,
                      solve_linear)
from mestcert import glm, resample
from mestcert.cli import dump_json
from mestcert.glm import objective
from mestcert.numkit import row_weights

SQ = make_family("squared")


class TestScoreHessian:
    def test_score_hand_example(self):
        data = Dataset(X=[[1.0], [1.0]], y=[0.0, 2.0])
        np.testing.assert_allclose(score(data, SQ, [0.0]), [-2.0], atol=1e-15)

    def test_score_stationary_single_row(self):
        data = Dataset(X=[[1.0, 2.0]], y=[3.0])
        theta = np.array([1.0, 1.0])  # u = 3 = y, so l' = 0
        np.testing.assert_allclose(score(data, SQ, theta), [0.0, 0.0], atol=1e-15)

    def test_poisson_score_at_root(self):
        data = Dataset(X=[[1.0]], y=[1.0])
        np.testing.assert_allclose(score(data, make_family("poisson"), [0.0]),
                                   [0.0], atol=1e-15)

    def test_hessian_hand_examples(self):
        data = Dataset(X=[[1.0], [1.0]], y=[0.0, 2.0])
        np.testing.assert_allclose(hessian(data, SQ, [0.0]), [[2.0]], atol=1e-15)
        d1 = Dataset(X=[[1.0]], y=[1.0])
        np.testing.assert_allclose(hessian(d1, make_family("logistic"), [0.0]),
                                   [[0.25]], atol=1e-15)

    def test_zero_column_gives_zero_row_col(self):
        data = Dataset(X=[[1.0, 0.0], [2.0, 0.0]], y=[1.0, 2.0])
        h = hessian(data, SQ, [0.0, 0.0])
        np.testing.assert_allclose(h[1], [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(h[:, 1], [0.0, 0.0], atol=1e-15)

    def test_dimension_mismatch(self):
        data = Dataset(X=[[1.0, 2.0]], y=[1.0])
        with pytest.raises(InvalidInputError):
            score(data, SQ, [1.0])

    def test_weighted_score(self):
        w = lambda x: float(x[0] ** 2)
        fam = make_family("squared", weight=w)
        data = Dataset(X=[[1.0], [2.0]], y=[1.0, 1.0])
        # (1/2) [2*(0-1)*1*1 + 2*(0-1)*4*2] = -9
        np.testing.assert_allclose(score(data, fam, [0.0]), [-9.0], atol=1e-14)

    @pytest.mark.parametrize("kind,alpha", [("squared", None),
                                            ("logistic", None),
                                            ("poisson", None),
                                            ("negbinomial", 0.8)])
    def test_matches_finite_differences(self, kind, alpha):
        data, fam = gen_glm_instance(kind, 40, 3, seed=101,
                                     alpha=alpha if alpha else 1.0)
        rng = np.random.default_rng(102)
        for _ in range(5):
            theta = rng.normal(size=3) * 0.3
            g = score(data, fam, theta)
            g_fd = fd_jacobian(lambda t: objective(data, fam, t), theta, 1e-6)[0]
            assert np.linalg.norm(g - g_fd) <= 1e-5 * (1 + np.linalg.norm(g))
            h = hessian(data, fam, theta)
            h_fd = fd_jacobian(lambda t: score(data, fam, t), theta, 1e-6)
            assert np.linalg.norm(h - h_fd) <= 1e-5 * (1 + np.linalg.norm(h))


class TestDelta:
    def test_hand_example(self):
        data = Dataset(X=[[1.0], [1.0]], y=[0.0, 2.0])
        assert certify(data, SQ, [0.0]).delta == pytest.approx(1.5, rel=1e-14)

    def test_zero_at_root(self):
        data = Dataset(X=[[1.0], [1.0]], y=[0.0, 2.0])
        assert certify(data, SQ, [1.0]).delta == pytest.approx(0.0, abs=1e-14)

    def test_homogeneous_in_y_for_squared(self):
        data, _ = gen_glm_instance("squared", 30, 2, seed=103)
        scaled = Dataset(X=data.X, y=3.0 * data.y)
        assert certify(scaled, SQ, [0.0, 0.0]).delta == pytest.approx(
            3.0 * certify(data, SQ, [0.0, 0.0]).delta, rel=1e-12)


class TestFit:
    def test_ols_single_step(self):
        data = Dataset(X=[[1.0], [1.0]], y=[0.0, 2.0])
        np.testing.assert_allclose(fit(data, SQ), [1.0], atol=1e-12)

    def test_init_at_root_returned_unchanged(self):
        data, fam = gen_glm_instance("logistic", 60, 2, seed=104)
        root = fit(data, fam, tol=1e-12)
        again = fit(data, fam, init=root, tol=1e-10)
        np.testing.assert_array_equal(again, root)

    def test_matches_lstsq_for_squared(self):
        data, _ = gen_glm_instance("squared", 80, 4, seed=105)
        ols = np.linalg.lstsq(data.X, data.y, rcond=None)[0]
        np.testing.assert_allclose(fit(data, SQ, tol=1e-12), ols,
                                   rtol=1e-9, atol=1e-11)

    def test_separated_logistic_diverges(self):
        x = np.concatenate([np.ones(5), -np.ones(5)])[:, None]
        y = np.concatenate([np.ones(5), np.zeros(5)])
        with pytest.raises(ConvergenceError):
            fit(Dataset(X=x, y=y), make_family("logistic"), max_iter=80)

    def test_sign_flipped_score_stalls_line_search(self):
        # eval1 = -l': the Newton step climbs, so neither the objective nor
        # the score norm can decrease along it
        flipped = make_family(
            "custom", eval0=lambda u, y: (u - y) ** 2,
            eval1=lambda u, y: -2.0 * (u - y),
            eval2=lambda u, y: 2.0 + 0.0 * u,
            cbound=lambda u: 1.0 + 0.0 * np.asarray(u, dtype=float))
        data, _ = gen_glm_instance("squared", 40, 2, seed=110)
        with pytest.raises(ConvergenceError) as err:
            fit(data, flipped)
        assert err.value.iterations is None
        assert err.value.residual == pytest.approx(
            np.linalg.norm(score(data, SQ, np.zeros(2))), rel=1e-12)

    def test_iteration_budget_exhausted(self):
        data, fam = gen_glm_instance("logistic", 60, 2, seed=111)
        with pytest.raises(ConvergenceError) as err:
            fit(data, fam, max_iter=1)
        assert err.value.iterations == 1
        assert err.value.residual > 1e-10

    def test_singular_hessian(self):
        data = Dataset(X=[[1.0, 2.0]], y=[1.0])
        with pytest.raises(SingularMatrixError):
            fit(data, SQ)


class TestCertify:
    def test_squared_exact(self):
        data, _ = gen_glm_instance("squared", 50, 3, seed=106)
        rng = np.random.default_rng(107)
        theta0 = rng.normal(size=3)
        cert = certify(data, SQ, theta0)
        assert cert.condition_max_c == 1.0
        assert cert.condition_ok
        assert cert.expansion_bound_empirical == 0.0
        ols = np.linalg.lstsq(data.X, data.y, rcond=None)[0]
        np.testing.assert_allclose(theta0 + cert.newton_step, ols, atol=1e-10)

    def test_poisson_condition_reduces_to_row_norm_bound(self):
        data, fam = gen_glm_instance("poisson", 60, 2, seed=108)
        rng = np.random.default_rng(109)
        for scale in (0.005, 0.05, 0.5):
            theta0 = fit(data, fam, tol=1e-12) + rng.normal(size=2) * scale
            cert = certify(data, fam, theta0)
            max_norm = np.linalg.norm(data.X, axis=1).max()
            assert cert.condition_ok == (max_norm * cert.delta
                                         <= np.log(4.0 / 3.0) * (1 + 1e-12))

    def test_certify_at_root_is_tiny(self):
        data, fam = gen_glm_instance("logistic", 80, 3, seed=110)
        tol = 1e-11
        root = fit(data, fam, tol=tol)
        cert = certify(data, fam, root)
        qinv_norm = op_norm(np.linalg.inv(hessian(data, fam, root)))
        assert cert.delta <= 1.5 * qinv_norm * tol
        assert cert.condition_ok

    def test_reference_equal_to_empirical(self):
        data, fam = gen_glm_instance("logistic", 50, 2, seed=111)
        theta0 = np.array([0.1, -0.2])
        qhat = hessian(data, fam, theta0)
        cert = certify(data, fam, theta0, q_ref=qhat)
        assert cert.reference_mismatch == pytest.approx(0.0, abs=1e-12)
        assert cert.expansion_bound_reference == pytest.approx(
            cert.expansion_bound_empirical, rel=1e-9, abs=1e-15)

    def test_reference_step_is_solve_linear_bitwise(self):
        # the reference step meets solve_linear's residual contract: an
        # ill-conditioned reference gets the same refinement step
        data, fam = gen_glm_instance("logistic", 40, 3, seed=113)
        theta0 = np.array([0.2, -0.1, 0.3])
        q = np.linalg.qr(np.random.default_rng(113).normal(size=(3, 3)))[0]
        for cond in (1e1, 1e11):
            q_ref = (q * np.geomspace(1.0, cond, 3)) @ q.T * 0.2
            cert = certify(data, fam, theta0, q_ref=q_ref)
            assert cert.newton_step.tobytes() == (
                -solve_linear(q_ref, score(data, fam, theta0))).tobytes()

    def test_squared_reference_bound_is_pure_mismatch(self):
        # constant curvature ratio: the reference bound reduces to
        # mismatch * delta exactly
        data, _ = gen_glm_instance("squared", 40, 2, seed=112)
        q_ref = 2.0 * np.eye(2)
        cert = certify(data, SQ, np.array([0.3, -0.1]), q_ref=q_ref)
        assert cert.expansion_bound_reference == pytest.approx(
            cert.reference_mismatch * cert.delta, rel=1e-12)

    def test_certificate_owns_its_target(self):
        data, fam = gen_glm_instance("logistic", 40, 3, seed=114)
        assert_certificate_owns_inputs(lambda t: certify(data, fam, t),
                                       np.zeros(3))

    def test_singular_hessian_raises(self):
        data = Dataset(X=[[1.0, 2.0]], y=[1.0])
        with pytest.raises(SingularMatrixError):
            certify(data, SQ, [0.0, 0.0])
        with pytest.raises(SingularMatrixError):
            certify(Dataset(X=[[1.0], [1.0]], y=[0.0, 1.0]), SQ, [0.0],
                    q_ref=[[0.0]])

    def test_overflowing_curvature_bound_is_uncertified_not_a_warning(self):
        # exp(3 * ||X_i|| * delta) overflows far from the root: the
        # condition reads as failed (infinite), with no RuntimeWarning
        rng = np.random.default_rng(3)
        x = rng.normal(size=(200, 3))
        y = (rng.uniform(size=200) < 0.5).astype(float)
        data = Dataset(X=x, y=y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = certify(data, make_family("logistic"), np.full(3, 5.0))
        assert not cert.condition_ok
        assert cert.condition_max_c == np.inf
        assert cert.expansion_bound_empirical == np.inf


BRACKET_KINDS = ("squared", "logistic", "poisson", "negbinomial")


def _bracket_suite():
    cases = []
    seed = 5000
    for kind in BRACKET_KINDS:
        for n in (50, 200):
            for p in (1, 2, 5):
                cases.append((kind, n, p, seed))
                seed += 1
    return cases


class TestBracketingAndExpansion:
    def test_zero_violations_on_seeded_suite(self):
        rng = np.random.default_rng(5999)
        certified = 0
        total = 0
        for kind, n, p, seed in _bracket_suite():
            alpha = 0.8 if kind == "negbinomial" else 1.0
            data, fam = gen_glm_instance(kind, n, p, seed=seed, alpha=alpha)
            root = fit(data, fam, tol=1e-12)
            for scale in (0.005, 0.02):
                theta0 = root + rng.normal(size=p) * scale
                cert = certify(data, fam, theta0,
                               q_ref=hessian(data, fam, root))
                total += 1
                if not cert.condition_ok:
                    continue
                certified += 1
                dist = np.linalg.norm(root - theta0)
                assert cert.delta / 2 * (1 - 1e-8) <= dist <= cert.delta * (1 + 1e-8)
                emp = np.linalg.norm(
                    root - theta0 + np.linalg.solve(
                        hessian(data, fam, theta0), score(data, fam, theta0)))
                assert emp <= cert.expansion_bound_empirical * (1 + 1e-8) + 1e-13
                ref = np.linalg.norm(root - theta0 - cert.newton_step)
                assert ref <= cert.expansion_bound_reference * (1 + 1e-8) + 1e-13
        # the suite must actually exercise the certified path
        assert certified >= total * 0.6, (certified, total)

    def test_ols_error_is_two_thirds_delta(self):
        rng = np.random.default_rng(6100)
        for seed in range(6101, 6121):
            data, _ = gen_glm_instance("squared", 60, 3, seed=seed)
            theta0 = rng.normal(size=3)
            d = certify(data, SQ, theta0).delta
            root = np.linalg.lstsq(data.X, data.y, rcond=None)[0]
            assert abs(np.linalg.norm(root - theta0) - 2.0 * d / 3.0) \
                <= 1e-10 * (1 + d)

    def test_half_sample_target_logistic(self):
        # at n=200, p=5 the half-sample fit sits too far from the full root
        # for the 4/3 condition to fire, but the expansion inequality itself
        # can still be checked against the exact refit
        data, fam = gen_glm_instance("logistic", 200, 5, seed=6200)
        half = Dataset(X=data.X[:100], y=data.y[:100])
        theta0 = fit(half, fam, tol=1e-12)
        cert = certify(data, fam, theta0)
        root = fit(data, fam, init=theta0, tol=1e-12)
        err = np.linalg.norm(root - theta0 - cert.newton_step)
        assert err <= cert.expansion_bound_empirical * (1 + 1e-8)

    def test_half_sample_target_logistic_certified(self):
        # a sample size where the half-sample target does certify
        data, fam = gen_glm_instance("logistic", 12000, 2, seed=6201,
                                     x_scale=0.7)
        half = Dataset(X=data.X[:6000], y=data.y[:6000])
        theta0 = fit(half, fam, tol=1e-12)
        cert = certify(data, fam, theta0)
        assert cert.condition_ok
        root = fit(data, fam, init=theta0, tol=1e-12)
        dist = np.linalg.norm(root - theta0)
        assert cert.delta / 2 * (1 - 1e-8) <= dist <= cert.delta * (1 + 1e-8)
        err = np.linalg.norm(root - theta0 - cert.newton_step)
        assert err <= cert.expansion_bound_empirical * (1 + 1e-8)


class TestInvariances:
    def test_affine_reparametrization(self):
        data, fam = gen_glm_instance("logistic", 120, 3, seed=6300)
        rng = np.random.default_rng(6301)
        g = rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
        mapped = Dataset(X=data.X @ g.T, y=data.y)
        root = fit(data, fam, tol=1e-13)
        root_mapped = fit(mapped, fam, tol=1e-13)
        np.testing.assert_allclose(root_mapped,
                                   np.linalg.solve(g.T, root), atol=1e-8)


class TestExpansionPackaging:
    def test_sources(self):
        # the certificate carries the one-step expansion: reference fields
        # are set only when a reference Hessian was supplied, and the step
        # from q_ref = Qhat is the empirical step
        data, fam = gen_glm_instance("poisson", 40, 2, seed=6400)
        theta0 = np.array([0.05, -0.05])
        emp = certify(data, fam, theta0)
        assert emp.expansion_bound_reference is None
        assert emp.reference_mismatch is None
        ref = certify(data, fam, theta0, q_ref=hessian(data, fam, theta0))
        assert ref.expansion_bound_reference is not None
        assert ref.reference_mismatch is not None
        np.testing.assert_allclose(ref.newton_step, emp.newton_step,
                                   rtol=1e-10)


class TestHolderConstant:
    def test_quadratic_is_zero(self):
        data, _ = gen_glm_instance("squared", 30, 2, seed=6500)
        l, alpha = hessian_holder_constant(data, SQ, np.zeros(2))
        assert l == 0.0 and alpha == 1.0

    def test_sampled_validity_poisson(self):
        data, fam = gen_glm_instance("poisson", 50, 2, seed=6501)
        theta0 = fit(data, fam, tol=1e-10)
        l, alpha = hessian_holder_constant(data, fam, theta0)
        assert l > 0.0 and alpha == 1.0
        h0 = hessian(data, fam, theta0)
        radius = 1.0 / (3.0 * l)
        rng = np.random.default_rng(6502)
        for _ in range(20):
            direction = rng.normal(size=2)
            direction /= np.linalg.norm(direction)
            r = rng.uniform(0.0, radius)
            h = hessian(data, fam, theta0 + r * direction)
            observed = op_norm(np.linalg.solve(h0, h - h0))
            assert observed <= l * r * (1 + 1e-9) + 1e-15

    def test_matches_explicit_inverse(self, monkeypatch):
        # the checked LU solve against the identity may move the last bit
        # of ||Qhat^-1||_op relative to an explicit inverse, nothing more
        cases = []
        for seed in range(6510, 6530):
            kind = ("logistic", "poisson", "negbinomial")[seed % 3]
            data, fam = gen_glm_instance(kind, 40, 3, seed=seed)
            theta0 = fit(data, fam, tol=1e-10)
            cases.append((data, fam, theta0,
                          hessian_holder_constant(data, fam, theta0)[0]))
        monkeypatch.setattr(glm, "lu_factorization",
                            lambda a: lambda rhs: np.linalg.inv(a) @ rhs)
        for data, fam, theta0, l in cases:
            l_inv = hessian_holder_constant(data, fam, theta0)[0]
            assert l > 0.0
            assert l == pytest.approx(l_inv, rel=1e-14, abs=0.0)

    def test_singular_hessian_raises(self):
        # a duplicated column makes Qhat exactly singular
        data, fam = gen_glm_instance("logistic", 30, 2, seed=6540)
        dup = Dataset(X=np.column_stack([data.X, data.X[:, 0]]), y=data.y)
        for family in (fam, SQ):
            with pytest.raises(SingularMatrixError):
                hessian_holder_constant(dup, family, np.zeros(3))


def _weight(row):
    return 1.0 / (1.0 + float(row @ row))


def _fresh_row_terms(data, family, theta, order):
    # the kernel without its memo: weights recomputed on every call
    w = row_weights(family.weight, np.asarray(data.X, dtype=float))
    evaluate = (family.eval0, family.eval1, family.eval2)[order]
    return w * np.asarray(evaluate(data.X @ theta, data.y), dtype=float)


class TestWeightsOnce:
    def test_callback_runs_once_per_row(self):
        calls = []

        def counted(row):
            calls.append(1)
            return _weight(row)

        data, fam = gen_glm_instance("logistic", 60, 3, seed=6600)
        fam = dataclasses.replace(fam, weight=counted)
        theta = fit(data, fam, tol=1e-12)
        loo_sweep(data, fam, theta)
        certify(data, fam, theta)
        # another family with the same weight function shares the weights
        certify(data, make_family("poisson", weight=counted), theta)
        assert len(calls) == data.n_obs

    @pytest.mark.parametrize("kind", ["squared", "logistic", "poisson",
                                      "negbinomial"])
    def test_matches_fresh_weights_bitwise(self, kind, monkeypatch):
        data, fam = gen_glm_instance(kind, 50, 3, seed=6610)
        fam = dataclasses.replace(fam, weight=_weight)
        theta = fit(data, fam, tol=1e-12)
        x, y, n = data.X, data.y, data.n_obs
        w = row_weights(_weight, np.asarray(x, dtype=float))
        u = x @ theta
        assert objective(data, fam, theta) == float(np.mean(
            w * np.asarray(fam.eval0(u, y), dtype=float)))
        assert score(data, fam, theta).tobytes() == (
            x.T @ (w * np.asarray(fam.eval1(u, y), dtype=float)) / n).tobytes()
        c = w * np.asarray(fam.eval2(u, y), dtype=float)
        assert hessian(data, fam, theta).tobytes() == (
            x.T @ (x * c[:, None]) / n).tobytes()

        def reports():
            return dump_json([objective(data, fam, theta),
                              score(data, fam, theta),
                              hessian(data, fam, theta),
                              certify(data, fam, theta + 0.01),
                              hessian_holder_constant(data, fam, theta),
                              loo_sweep(data, fam, theta).entries])

        memoised = reports()
        monkeypatch.setattr(glm, "_row_terms", _fresh_row_terms)
        assert reports() == memoised
        # unit weights on the same dataset are a separate memo entry
        monkeypatch.undo()
        unit = dataclasses.replace(fam, weight=None)
        assert score(data, unit, theta).tobytes() == (
            x.T @ np.asarray(fam.eval1(u, y), dtype=float) / n).tobytes()

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda d: pickle.loads(pickle.dumps(d))],
        ids=["copy", "deepcopy", "pickle"])
    def test_copies_rebuild(self, clone):
        # the memo's keys are ids of live objects, so no copy may inherit it
        data, fam = gen_glm_instance("poisson", 20, 2, seed=6615)
        fam = dataclasses.replace(fam, weight=_weight)
        theta = np.array([0.2, -0.1])
        expected = score(data, fam, theta)
        twin = clone(data)
        assert twin._weight_memo == {}
        assert not twin.X.flags.writeable and not twin.y.flags.writeable
        assert score(twin, fam, theta).tobytes() == expected.tobytes()

    def test_results_keep_their_bits_after_the_caller_writes(self):
        # the first round fills the weight memo, which must never meet
        # rows written after construction
        base, _ = gen_glm_instance("logistic", 40, 3, seed=6619)
        x, y = base.X.copy(), base.y.copy()
        fam = make_family("logistic", weight=_weight)
        data = Dataset(X=x, y=y)
        theta = np.array([0.1, -0.2, 0.3])

        def results():
            root = fit(data, fam, tol=1e-12)
            return (data.X, data.y, score(data, fam, theta),
                    hessian(data, fam, theta), objective(data, fam, theta),
                    certify(data, fam, theta), root,
                    loo_sweep(data, fam, root, [(0,), (1, 2)]),
                    screen_marginal(data, fam),
                    posi_sweep(data, fam, [(0, 1), (2,)]))

        before = bits(results())
        x[...] = np.random.default_rng(6619).normal(size=x.shape)
        y[...] = 1.0 - y
        assert bits(results()) == before

    def test_arrays_are_read_only(self):
        data, _ = gen_glm_instance("squared", 10, 2, seed=6620)
        with pytest.raises(ValueError):
            data.X[0, 0] = 1.0
        with pytest.raises(ValueError):
            data.y[0] = 1.0

    def test_exact_refits_reuse_weights(self):
        calls = []

        def counted(row):
            calls.append(1)
            return _weight(row)

        data, fam = gen_glm_instance("logistic", 30, 3, seed=6640)
        fam = dataclasses.replace(fam, weight=counted)
        theta = fit(data, fam, tol=1e-12)
        assert len(calls) == data.n_obs
        report = loo_sweep(data, fam, theta, exact=True)
        assert len(calls) == data.n_obs
        for entry in report.entries:
            keep = np.ones(data.n_obs, dtype=bool)
            keep[list(entry.indices)] = False
            fresh = Dataset(X=np.array(data.X[keep]), y=np.array(data.y[keep]))
            refit = fit(fresh, fam, init=theta, tol=resample.FIT_TOL)
            assert entry.exact_estimate.tobytes() == refit.tobytes()

    def test_subset_columns_gets_fresh_weights(self):
        # the weight reads the whole row, so a column subset changes it
        data, fam = gen_glm_instance("poisson", 40, 3, seed=6630)
        fam = dataclasses.replace(fam, weight=_weight)
        theta = np.array([0.1, -0.2, 0.3])
        score(data, fam, theta)
        sub = data.subset_columns([0, 2])
        w = row_weights(_weight, np.asarray(sub.X, dtype=float))
        u = sub.X @ theta[[0, 2]]
        expected = sub.X.T @ (w * np.asarray(fam.eval1(u, sub.y),
                                             dtype=float)) / sub.n_obs
        assert score(sub, fam, theta[[0, 2]]).tobytes() == expected.tobytes()


def _counting_logistic(counts):
    # the logistic loss as a custom family that counts its evaluations
    base = make_family("logistic")
    counts.update(eval0=0, eval1=0, eval2=0)

    def counted(name):
        def evaluate(u, y):
            counts[name] += 1
            return getattr(base, name)(u, y)
        return evaluate

    fam = make_family("custom", eval0=counted("eval0"), eval1=counted("eval1"),
                      eval2=counted("eval2"), cbound=base.cbound,
                      weight=_weight)
    counts.update(eval0=0, eval1=0, eval2=0)  # drop the grid check's calls
    return fam


class TestRowTermMemo:
    def test_alternating_points_and_families_match_a_fresh_dataset(self):
        data, fam = gen_glm_instance("logistic", 50, 3, seed=6650)
        families = (fam, make_family("poisson", weight=_weight),
                    dataclasses.replace(fam))  # equal fields, another object
        thetas = (np.array([0.1, -0.2, 0.3]), np.array([-0.3, 0.2, 0.0]),
                  np.array([-0.3, 0.2, -0.0]))
        for _ in range(2):
            for theta in thetas:
                for family in families:
                    fresh = Dataset(X=data.X, y=data.y)
                    for f in (objective, score, hessian, objective):
                        assert bits(f(data, family, theta)) == bits(
                            f(fresh, family, theta))

    def test_row_terms_are_read_only(self):
        data, fam = gen_glm_instance("poisson", 20, 2, seed=6655)
        for order in (0, 1, 2):
            terms = glm._row_terms(data, fam, np.array([0.2, -0.1]), order)
            assert not terms.flags.writeable
            with pytest.raises(ValueError):
                terms[0] = 1.0

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda d: pickle.loads(pickle.dumps(d)),
        dataclasses.replace, lambda d: d.subset_rows(np.arange(d.n_obs)),
        lambda d: d.subset_columns(range(d.n_features))],
        ids=["copy", "deepcopy", "pickle", "replace", "subset_rows",
             "subset_columns"])
    def test_copies_start_with_an_empty_slot(self, clone):
        data, fam = gen_glm_instance("logistic", 20, 2, seed=6660)
        theta = np.array([0.2, -0.1])
        expected = hessian(data, fam, theta)
        assert data._last_terms is not None
        twin = clone(data)
        assert twin._last_terms is None
        assert hessian(twin, fam, theta).tobytes() == expected.tobytes()

    def test_sweep_after_fit_evaluates_no_derivative(self):
        counts = {}
        fam = _counting_logistic(counts)
        data, _ = gen_glm_instance("logistic", 60, 3, seed=6665)
        theta = fit(data, fam, tol=1e-12)
        assert counts["eval1"] > 0 and counts["eval2"] > 0
        counts.update(eval0=0, eval1=0, eval2=0)
        report = loo_sweep(data, fam, theta)
        assert len(report.entries) == data.n_obs
        assert counts == {"eval0": 0, "eval1": 0, "eval2": 0}


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known false claim, ROADMAP item 1A: the Euclidean bracket and "
    "expansion bound ignore cond(Qhat); drop this marker when it passes"))
def test_ill_conditioned_poisson_claims_hold():
    # cond(Qhat) ~ 1e4 at the target. The certificate reports
    # condition_ok, yet the root lies 1.92 delta away and the Newton step
    # misses it by 11.3 times expansion_bound_empirical.
    data = Dataset(X=[[-0.3, -1.3], [0.3, 1.4], [0.1, 0.4]], y=[2.0, 1.0, 3.0])
    fam = make_family("poisson")
    theta0 = np.array([37.7, -8.7])
    cert = certify(data, fam, theta0)
    root = fit(data, fam, init=theta0, tol=1e-13)
    dist = np.linalg.norm(root - theta0)
    miss = np.linalg.norm(root - theta0 - cert.newton_step)
    assert not cert.condition_ok or (
        cert.bracket_lo <= dist <= cert.bracket_hi
        and miss <= cert.expansion_bound_empirical)
