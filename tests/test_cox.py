import numpy as np
import pytest
from conftest import gen_survival_instance

from mestcert import (ConvergenceError, DegenerateRiskSetError,
                      InvalidInputError, SingularMatrixError, SurvivalDataset,
                      certify_cox, cox, cox_jacobian, cox_objective, cox_score,
                      fd_jacobian, fit_cox, mu_profile, softmax_ratio_check)
from mestcert.cox import COX_CONDITION_LIMIT, COX_EXPANSION_CONST


def two_subject_data():
    # event for subject 1 at time 1 (both at risk), subject 2 censored later
    return SurvivalDataset(X=[[0.0], [1.0]], time=[1.0, 2.0],
                           status=[True, False])


class TestDataValidation:
    def test_no_events_rejected(self):
        with pytest.raises(InvalidInputError):
            SurvivalDataset(X=[[1.0]], time=[1.0], status=[False])

    def test_negative_times_rejected(self):
        with pytest.raises(InvalidInputError):
            SurvivalDataset(X=[[1.0]], time=[-1.0], status=[True])


class TestScoreJacobian:
    def test_identical_rows_zero_score(self):
        data = SurvivalDataset(X=[[0.7], [0.7]], time=[1.0, 2.0],
                               status=[True, True])
        for beta in ([0.0], [1.3], [-2.0]):
            np.testing.assert_allclose(cox_score(data, beta), [0.0], atol=1e-14)
            np.testing.assert_allclose(cox_jacobian(data, beta), [[0.0]],
                                       atol=1e-14)

    def test_two_subject_hand_values(self):
        data = two_subject_data()
        # risk-set mean at beta=0 is (x1 + x2)/2; score = mean - x1
        np.testing.assert_allclose(cox_score(data, [0.0]), [0.5], atol=1e-14)
        # Bernoulli(1/2) variance of {0, 1} is 1/4
        np.testing.assert_allclose(cox_jacobian(data, [0.0]), [[0.25]],
                                   atol=1e-14)

    def test_censored_rows_enter_only_through_risk_sets(self):
        # a subject censored before every event time never joins a risk
        # set: its covariate value cannot matter
        base = dict(time=[0.5, 1.0, 2.0], status=[False, True, True])
        d1 = SurvivalDataset(X=[[9.0], [1.0], [2.0]], **base)
        d2 = SurvivalDataset(X=[[-4.0], [1.0], [2.0]], **base)
        beta = [0.3]
        np.testing.assert_array_equal(cox_score(d1, beta), cox_score(d2, beta))
        np.testing.assert_array_equal(cox_jacobian(d1, beta),
                                      cox_jacobian(d2, beta))

    def test_location_invariance(self):
        data = gen_survival_instance(25, 2, seed=201)
        shifted = SurvivalDataset(X=data.X + np.array([3.0, -2.0]),
                                  time=data.time, status=data.status)
        beta = np.array([0.2, -0.4])
        np.testing.assert_allclose(cox_score(shifted, beta),
                                   cox_score(data, beta), atol=1e-10)
        np.testing.assert_allclose(cox_jacobian(shifted, beta),
                                   cox_jacobian(data, beta), atol=1e-10)

    def test_matches_finite_differences(self):
        data = gen_survival_instance(30, 2, seed=202)
        rng = np.random.default_rng(203)
        for _ in range(5):
            beta = rng.normal(size=2) * 0.4
            j = cox_jacobian(data, beta)
            j_fd = fd_jacobian(lambda b: cox_score(data, b), beta, 1e-6)
            assert np.linalg.norm(j - j_fd) <= 1e-5 * (1 + np.linalg.norm(j))
            s = cox_score(data, beta)
            s_fd = fd_jacobian(lambda b: np.array([cox_objective(data, b)]),
                               beta, 1e-6)[0]
            assert np.linalg.norm(s - s_fd) <= 1e-5 * (1 + np.linalg.norm(s))

    def test_weight_functions_enter(self):
        data = two_subject_data()
        h1 = lambda x: 2.0
        weighted = SurvivalDataset(X=data.X, time=data.time,
                                   status=data.status, h1=h1)
        np.testing.assert_allclose(cox_score(weighted, [0.0]), [1.0],
                                   atol=1e-14)

    def test_h2_zero_rows_leave_risk_set(self):
        # subject 2 has h2 = 0: the risk set at the event is subject 1 alone
        data = SurvivalDataset(X=[[0.0], [1.0]], time=[1.0, 2.0],
                               status=[True, False],
                               h2=lambda x: 0.0 if x[0] > 0.5 else 1.0)
        np.testing.assert_allclose(cox_score(data, [0.0]), [0.0], atol=1e-14)

    def test_empty_weighted_risk_set_is_error(self):
        data = SurvivalDataset(X=[[0.0], [1.0]], time=[2.0, 1.0],
                               status=[False, True],
                               h2=lambda x: 0.0)
        with pytest.raises(DegenerateRiskSetError):
            cox_score(data, [0.0])


class TestMuProfile:
    def test_identical_rows(self):
        data = SurvivalDataset(X=[[0.7], [0.7]], time=[1.0, 2.0],
                               status=[True, True])
        prof = mu_profile(data, [0.0])
        assert prof.sup_risk_set == 0.0
        assert prof.sup_all_rows == 0.0

    def test_two_subject_mean_half(self):
        data = two_subject_data()
        prof = mu_profile(data, [0.0])
        np.testing.assert_allclose(prof.mu_risk_set, [0.5], atol=1e-14)
        np.testing.assert_allclose(prof.mu_all_rows, [0.5], atol=1e-14)

    def test_single_subject_at_risk(self):
        # event at the latest time: only that subject remains at risk, so
        # the risk-set spread is zero while the all-rows spread is not
        data = SurvivalDataset(X=[[0.0], [1.0]], time=[1.0, 2.0],
                               status=[False, True])
        prof = mu_profile(data, [0.0])
        np.testing.assert_allclose(prof.mu_risk_set, [0.0], atol=1e-14)
        np.testing.assert_allclose(prof.mu_all_rows, [1.0], atol=1e-14)
        assert prof.sup_all_rows >= prof.sup_risk_set

    def test_all_rows_dominates_risk_set(self):
        data = gen_survival_instance(40, 2, seed=204)
        prof = mu_profile(data, np.array([0.1, 0.2]))
        assert np.all(prof.mu_all_rows >= prof.mu_risk_set - 1e-15)


class TestCertificate:
    def test_at_root_is_tiny(self):
        data = gen_survival_instance(50, 2, seed=205)
        root = fit_cox(data, tol=1e-12)
        cert = certify_cox(data, root)
        assert cert.delta <= 1e-10
        assert cert.condition_ok
        assert cert.expansion_bound <= 1e-18

    def test_constants_literal(self):
        data = gen_survival_instance(30, 2, seed=206)
        cert = certify_cox(data, np.array([0.05, -0.05]))
        assert COX_CONDITION_LIMIT == 1.0 / 16.0
        assert cert.condition_ok == (cert.mu_sup * cert.delta <= 1.0 / 16.0)
        assert cert.expansion_bound == pytest.approx(
            8.0 * np.exp(0.25) * cert.delta ** 2 * cert.mu_sup, rel=1e-12)
        assert COX_EXPANSION_CONST == pytest.approx(8.0 * np.exp(0.25),
                                                    rel=1e-15)

    def test_identical_covariates_degenerate(self):
        # fully identical rows: mu = 0 but the Jacobian is identically zero,
        # so no certificate can be computed (singular curvature)
        data = SurvivalDataset(X=[[0.7], [0.7]], time=[1.0, 2.0],
                               status=[True, True])
        with pytest.raises(SingularMatrixError):
            certify_cox(data, [0.0])

    def test_near_identical_covariates_tiny_bound(self):
        # nearly flat covariate geometry: mu is tiny, so targets certify in
        # a huge radius and the expansion bound is almost exact
        rng = np.random.default_rng(207)
        x = 0.7 + 1e-4 * rng.normal(size=(20, 1))
        data = SurvivalDataset(X=x, time=rng.exponential(size=20),
                               status=np.ones(20, dtype=bool))
        root = fit_cox(data, tol=1e-13)
        beta0 = root + 0.3
        cert = certify_cox(data, beta0)
        assert cert.mu_sup <= 1e-3
        assert cert.condition_ok
        dist = np.linalg.norm(root - beta0)
        assert cert.delta / 2 * (1 - 1e-8) <= dist <= cert.delta * (1 + 1e-8)
        err = np.linalg.norm(root - beta0 - cert.newton_step)
        assert err <= cert.expansion_bound * (1 + 1e-8) + 1e-15

    def test_seeded_suite_zero_violations(self):
        rng = np.random.default_rng(208)
        certified = 0
        total = 0
        for seed in range(300, 340):
            n = int(rng.integers(20, 61))
            p = int(rng.integers(1, 4))
            data = gen_survival_instance(n, p, seed=seed)
            try:
                root = fit_cox(data, tol=1e-12)
            except Exception:
                continue
            for scale in (0.002, 0.01):
                beta0 = root + rng.normal(size=p) * scale
                cert = certify_cox(data, beta0)
                total += 1
                if not cert.condition_ok:
                    continue
                certified += 1
                dist = np.linalg.norm(root - beta0)
                assert cert.delta / 2 * (1 - 1e-8) <= dist <= cert.delta * (1 + 1e-8)
                err = np.linalg.norm(root - beta0 - cert.newton_step)
                assert err <= cert.expansion_bound * (1 + 1e-8) + 1e-15
        assert certified >= 40, (certified, total)


class TestSoftmaxRatio:
    def test_worked_example(self):
        # K(t) = log(e^t + e^-t): K'' = sech^2, mu = 1
        chk = softmax_ratio_check([1.0, 1.0], [1.0, -1.0], 0.1, 0.1)
        sech2 = 1.0 / np.cosh(0.1) ** 2
        assert chk.lhs == pytest.approx(max(1 - sech2, 1 / sech2 - 1), rel=1e-12)
        assert chk.rhs == pytest.approx(0.4 * np.exp(0.4), rel=1e-12)
        assert chk.ok

    def test_s_zero(self):
        chk = softmax_ratio_check([1.0, 2.0], [0.5, -0.3], 0.0, 0.7)
        assert chk.lhs == 0.0
        assert chk.ok

    def test_equal_a_degenerate(self):
        with pytest.raises(InvalidInputError):
            softmax_ratio_check([1.0, 1.0], [2.0, 2.0], 0.1, 0.1)

    def test_zero_weight_rows_ignored_for_curvature(self):
        # the zero-weight atom cannot create curvature but still enters mu
        chk = softmax_ratio_check([1.0, 1.0, 0.0], [1.0, -1.0, 50.0], 0.1, 0.1)
        assert chk.ok
        assert chk.rhs > 100.0  # mu picks up the inactive atom

    def test_requires_s_within_t(self):
        with pytest.raises(InvalidInputError):
            softmax_ratio_check([1.0, 1.0], [1.0, -1.0], 0.5, 0.1)

    def test_negative_weights_rejected(self):
        with pytest.raises(InvalidInputError):
            softmax_ratio_check([1.0, -1.0], [1.0, -1.0], 0.1, 0.1)

    def test_fuzz_thousand_draws(self):
        rng = np.random.default_rng(209)
        checked = 0
        while checked < 1000:
            n = int(rng.integers(2, 9))
            w = rng.uniform(0.0, 1.0, size=n)
            w[rng.uniform(size=n) < 0.2] = 0.0
            if not np.any(w > 0):
                continue
            a = rng.normal(size=n)
            t = rng.uniform(-1.0, 1.0)
            s = rng.uniform(-abs(t), abs(t))
            active = a[w > 0]
            if active.size < 2 or np.ptp(active) < 1e-12:
                continue
            chk = softmax_ratio_check(w, a, s, t)
            assert chk.ok, (w, a, s, t, chk)
            checked += 1


class TestFitCox:
    def test_root_has_zero_score(self):
        data = gen_survival_instance(40, 2, seed=210)
        root = fit_cox(data, tol=1e-12)
        assert np.linalg.norm(cox_score(data, root)) <= 1e-12

    def test_wrong_sign_jacobian_stalls_line_search(self, monkeypatch):
        data = gen_survival_instance(40, 2, seed=211)
        jacobian = cox.cox_jacobian
        monkeypatch.setattr(cox, "cox_jacobian",
                            lambda d, beta: -jacobian(d, beta))
        with pytest.raises(ConvergenceError) as err:
            fit_cox(data)
        assert err.value.iterations is None
        assert err.value.residual == pytest.approx(
            np.linalg.norm(cox_score(data, np.zeros(2))), rel=1e-12)

    def test_iteration_budget_exhausted(self):
        data = gen_survival_instance(40, 2, seed=212)
        with pytest.raises(ConvergenceError) as err:
            fit_cox(data, max_iter=1)
        assert err.value.iterations == 1
        assert err.value.residual > 1e-10

    def test_ties_processed_breslow_style(self):
        # duplicate event times: each event row is matched against the full
        # risk set {T_j >= t}, so permuting the two tied rows changes nothing
        d1 = SurvivalDataset(X=[[1.0], [2.0], [3.0]], time=[1.0, 1.0, 2.0],
                             status=[True, True, False])
        d2 = SurvivalDataset(X=[[2.0], [1.0], [3.0]], time=[1.0, 1.0, 2.0],
                             status=[True, True, False])
        np.testing.assert_allclose(cox_score(d1, [0.4]), cox_score(d2, [0.4]),
                                   atol=1e-14)
