import copy
import dataclasses
import hashlib
import pickle

import cox_reference as ref
import numpy as np
import pytest
from conftest import assert_certificate_owns_inputs, gen_survival_instance
from finite_differences import fd_jacobian
from hypothesis import given, settings
from hypothesis import strategies as st

from mestcert import (ConvergenceError, DegenerateRiskSetError,
                      InvalidInputError, SingularMatrixError, SurvivalDataset,
                      certify_cox, cox, cox_jacobian, cox_objective, cox_score,
                      fit_cox, mu_profile, softmax_ratio_check)
from mestcert.cox import COX_CONDITION_LIMIT, COX_EXPANSION_CONST

EPS = np.finfo(float).eps
#: see TestMuProfile.test_all_rows_bits_pinned
_MU_ALL_ROWS_SHA256 = \
    "8b7ae77c739442dd81ce758aedb3b5ce7531ce29d4402b5a739d46c5078db795"


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

    def test_invalid_weight_rejected_at_construction(self):
        with pytest.raises(InvalidInputError):
            SurvivalDataset(X=[[1.0], [2.0]], time=[1.0, 2.0],
                            status=[True, True], h2=lambda x: -1.0)

    def test_weights_evaluated_once_per_row(self):
        calls = []

        def h2(row):
            calls.append(1)
            return 1.0

        data = gen_survival_instance(30, 2, seed=213)
        data = dataclasses.replace(data, h2=h2)
        assert len(calls) == 30
        root = fit_cox(data)
        certify_cox(data, root)
        assert len(calls) == 30
        np.testing.assert_array_equal(data.h2_weights, np.ones(30))

    def test_arrays_are_read_only(self):
        # time_order and the weights are derived from these at construction
        data = gen_survival_instance(10, 2, seed=214)
        for copy in (data, pickle.loads(pickle.dumps(data))):
            with pytest.raises(ValueError):
                copy.X[0, 0] = 1.0
            with pytest.raises(ValueError):
                copy.time[0] = 1.0
            with pytest.raises(ValueError):
                copy.status[0] = False


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
        assert prof.sup_all_rows == 0.0

    def test_two_subject_mean_half(self):
        data = two_subject_data()
        prof = mu_profile(data, [0.0])
        np.testing.assert_allclose(prof.mu_all_rows, [0.5], atol=1e-14)

    def test_single_subject_at_risk(self):
        # event at the latest time: only that subject remains at risk, but
        # the maximum runs over all rows, so the earlier censored row counts
        data = SurvivalDataset(X=[[0.0], [1.0]], time=[1.0, 2.0],
                               status=[False, True])
        prof = mu_profile(data, [0.0])
        np.testing.assert_allclose(prof.mu_all_rows, [1.0], atol=1e-14)

    def test_all_rows_bits_pinned(self):
        # sha256 of mu_all_rows over the adversarial cases, taken when
        # mu_profile also computed a risk-set maximum and clamped to it:
        # dropping both moved no bit
        digest = hashlib.sha256()
        for seed in (230, 231, 232):
            for data, beta in _adversarial_cases(seed):
                digest.update(mu_profile(data, beta).mu_all_rows.tobytes())
        assert digest.hexdigest() == _MU_ALL_ROWS_SHA256


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


# ---------------------------------------------------------------------- #
# agreement of the one-pass engine with the per-event reference
# ---------------------------------------------------------------------- #

def _event_scales(data, beta):
    """Rounding-error scales over events, with ``c`` the mean of the rows
    ever at risk: ``sum_i H1_i ||X_i - xbar_i||`` for the score,
    ``sum_i H1_i ||X_i - c||`` for the rounding of the centred event rows
    (the score's floor when a risk set holds a single weighted row) and
    ``sum_i H1_i ||xbar_i - c||^2`` for the Jacobian."""
    events = ref.event_order(data)
    h1 = data.h1_weights[events]
    xbar = ref.tilted_means(data, beta)
    c = data.X[data.time >= data.time[events[0]]].mean(axis=0)
    return (float(h1 @ np.linalg.norm(data.X[events] - xbar, axis=1)),
            float(h1 @ np.linalg.norm(data.X[events] - c, axis=1)),
            float(h1 @ np.sum((xbar - c) ** 2, axis=1)))


def assert_agrees(engine_data, beta, reference_data=None):
    """Engine on ``engine_data`` against the reference on
    ``reference_data`` (default: the same data), within the documented
    tolerances."""
    data = engine_data if reference_data is None else reference_data
    beta = np.asarray(beta, dtype=float)
    score_scale, row_scale, jac_scale = _event_scales(data, beta)
    weight = float(np.sum(data.h1_weights[data.status]))

    obj = ref.objective(data, beta)
    assert abs(cox_objective(engine_data, beta) - obj) <= \
        1e-11 * max(abs(obj), weight)
    score = ref.score(data, beta)
    assert np.linalg.norm(cox_score(engine_data, beta) - score) <= \
        1e-11 * score_scale + 16 * EPS * row_scale
    jac = ref.jacobian(data, beta)
    assert np.linalg.norm(cox_jacobian(engine_data, beta) - jac) <= \
        1e-11 * np.linalg.norm(jac) + 1e-12 * jac_scale
    prof = mu_profile(engine_data, beta)
    mu_all = ref.mu_profile(data, beta)
    floor = 1e-15 * mu_all.max()
    np.testing.assert_allclose(prof.mu_all_rows, mu_all, rtol=1e-13,
                               atol=floor)
    np.testing.assert_array_equal(prof.event_times,
                                  data.time[ref.event_order(data)])


def _h1(row):
    return 1.0 + row[0] ** 2


def _h2_with_zeros(row):
    return 0.0 if row[-1] > 0.8 else 1.0 + 0.5 * np.tanh(row[0])


def _spread_instance(sign, n=80, seed=220):
    """eta = 400 x_1 spans 800 units, x_1 monotone in time (increasing for
    ``sign=1``, decreasing for ``sign=-1``)."""
    rng = np.random.default_rng(seed)
    t = np.sort(rng.exponential(size=n))
    x = np.column_stack([sign * np.linspace(-1.0, 1.0, n)
                         + 0.01 * rng.normal(size=n), rng.normal(size=n)])
    return (SurvivalDataset(X=x, time=t, status=rng.uniform(size=n) < 0.8),
            np.array([400.0, 0.3]))


def _adversarial_cases(seed):
    """``(data, beta)`` pairs built on ``gen_survival_instance(60, 3, seed)``:
    rows equidistant from the tilted mean (ties in the argmax), a far
    outlier censored before the first event, ``|beta|`` in the hundreds,
    and every row tied in time."""
    rng = np.random.default_rng(seed + 1000)
    base = gen_survival_instance(60, 3, seed=seed)
    # the eight corners of [-1, 1]^3 at each of six times: every risk set
    # is symmetric, so at beta = 0 all rows are equidistant from its mean,
    # and along an axis the four corners on each side stay tied
    corners = np.array(np.meshgrid(*[[-1.0, 1.0]] * 3)).reshape(3, -1).T
    cube = SurvivalDataset(X=np.tile(corners, (6, 1)),
                           time=np.repeat(np.arange(1.0, 7.0), 8),
                           status=rng.uniform(size=48) < 0.7)
    yield cube, np.zeros(3)
    yield cube, np.array([1.5, 0.0, 0.0])
    x = base.X.copy()
    x[0] = 1e3
    time = base.time.copy()
    time[0] = 0.5 * base.time[base.status].min()
    status = base.status.copy()
    status[0] = False
    yield SurvivalDataset(X=x, time=time, status=status), rng.normal(size=3)
    yield base, rng.normal(size=3) * 200.0
    yield (SurvivalDataset(X=base.X, time=np.ones(60), status=base.status),
           rng.normal(size=3))


def _seeded_variants(seed):
    """``gen_survival_instance(60, 3, seed)`` as is, with times tied on a
    1/3 grid, with ``H1`` weights, and with all three plus zero-``H2``
    rows."""
    base = gen_survival_instance(60, 3, seed=seed)
    tied = np.round(base.time * 3.0) / 3.0
    return [
        base,
        SurvivalDataset(X=base.X, time=tied, status=base.status),
        SurvivalDataset(X=base.X, time=base.time, status=base.status, h1=_h1),
        SurvivalDataset(X=base.X, time=tied, status=base.status,
                        h1=_h1, h2=_h2_with_zeros),
    ]


class TestEngineMatchesReference:
    @pytest.mark.parametrize("seed", [230, 231, 232])
    def test_seeded_variants(self, seed):
        rng = np.random.default_rng(seed)
        for data in _seeded_variants(seed):
            for scale in (0.0, 0.5, 2.0):
                assert_agrees(data, rng.normal(size=3) * scale)
        for data, beta in _adversarial_cases(seed):
            assert_agrees(data, beta)

    def test_covariate_offset(self):
        # X on a 2^-30 grid makes X + 1e3 exact, so both datasets are the
        # same instance translated; the reference is run on the untranslated
        # copy because its own uncentred sums lose eps * 1e3 in the means
        rng = np.random.default_rng(233)
        for seed in (234, 235):
            base = gen_survival_instance(60, 3, seed=seed)
            x = np.round(base.X * 2.0 ** 30) / 2.0 ** 30
            near = SurvivalDataset(X=x, time=base.time, status=base.status)
            far = SurvivalDataset(X=x + 1e3, time=base.time,
                                  status=base.status)
            assert_agrees(far, rng.normal(size=3), reference_data=near)

    def test_near_identical_rows(self):
        # the instance of test_near_identical_covariates_tiny_bound; x - 0.7
        # is exact (Sterbenz), so the reference runs on the centred copy
        rng = np.random.default_rng(207)
        x = 0.7 + 1e-4 * rng.normal(size=(20, 1))
        t = rng.exponential(size=20)
        events = np.ones(20, dtype=bool)
        data = SurvivalDataset(X=x, time=t, status=events)
        centred = SurvivalDataset(X=x - 0.7, time=t, status=events)
        for beta in ([0.0], [0.3], [50.0]):
            assert_agrees(data, beta, reference_data=centred)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_eta_spread_800(self, sign):
        data, beta = _spread_instance(sign)
        eta = data.X @ beta
        assert np.ptp(eta) >= 790.0
        # at this spread the tilt concentrates on single rows: the Jacobian
        # is held to the documented limit eps-scale * sum H1 ||xbar - c||^2
        # alone, objective and score to the usual tolerances
        jac_scale = _event_scales(data, beta)[2]
        jac = ref.jacobian(data, beta)
        assert np.linalg.norm(cox_jacobian(data, beta) - jac) <= \
            1e-12 * jac_scale
        assert_agrees(data, beta)

    def test_rows_sharing_a_time_share_the_risk_set(self):
        data = SurvivalDataset(X=[[1.0], [2.0], [3.0], [0.5]],
                               time=[1.0, 1.0, 1.0, 0.5],
                               status=[True, False, True, True])
        prof = mu_profile(data, [0.2])
        assert_agrees(data, [0.2])
        np.testing.assert_array_equal(prof.event_times, [0.5, 1.0, 1.0])


# ---------------------------------------------------------------------- #
# one risk-set pass per distinct beta
# ---------------------------------------------------------------------- #

@pytest.fixture
def sweeps(monkeypatch):
    """The bytes of ``beta`` at every uncached risk-set pass, in order."""
    keys = []
    sweep = cox._sweep

    def counted(data, beta):
        keys.append(beta.tobytes())
        return sweep(data, beta)

    monkeypatch.setattr(cox, "_sweep", counted)
    return keys


def _fresh(data):
    """The same instance with an empty pass memo."""
    return dataclasses.replace(data)


def _assert_fields_equal(got, want):
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name


class TestOnePass:
    def test_one_pass_per_beta(self, sweeps):
        data = gen_survival_instance(40, 2, seed=240)
        beta = np.array([0.3, -0.2])
        cox_score(data, beta)
        cox_objective(data, list(beta))
        cox_jacobian(data, beta.copy())
        mu_profile(data, beta)
        certify_cox(data, beta)
        assert sweeps == [beta.tobytes()]

    def test_fit_and_certify_sweep_each_beta_once(self, sweeps, monkeypatch):
        # the benchmark's Cox job: fit, then certify at the root and at 0
        seen = []
        for name in ("cox_score", "cox_objective", "cox_jacobian"):
            def recorded(data, beta, fn=getattr(cox, name)):
                seen.append(np.asarray(beta, dtype=float).tobytes())
                return fn(data, beta)
            monkeypatch.setattr(cox, name, recorded)
        data = gen_survival_instance(150, 5, seed=241)
        root = fit_cox(data)
        assert len(seen) > 2 * len(set(seen))
        assert sweeps == list(dict.fromkeys(seen))
        fitted = len(sweeps)
        certify_cox(data, root)
        assert len(sweeps) == fitted
        certify_cox(data, np.zeros(5))
        assert len(sweeps) == fitted + 1 <= 6

    def test_bits_match_a_fresh_dataset_per_call(self):
        cases = [_spread_instance(1), _spread_instance(-1)]
        for seed in (230, 231):
            rng = np.random.default_rng(seed)
            cases += [(d, rng.normal(size=3)) for d in _seeded_variants(seed)]
            cases += list(_adversarial_cases(seed))
        for data, beta in cases:
            # alternate two coefficient vectors on one dataset
            for b in (beta, -0.5 * beta, beta, beta):
                for fn in (cox_objective, cox_score, cox_jacobian):
                    assert np.asarray(fn(data, b)).tobytes() == \
                        np.asarray(fn(_fresh(data), b)).tobytes()
                _assert_fields_equal(mu_profile(data, b),
                                     mu_profile(_fresh(data), b))

    def test_copies_start_with_an_empty_memo(self):
        data = gen_survival_instance(20, 2, seed=242)
        cox_score(data, [0.1, 0.2])
        assert data._last_pass is not None
        for other in (copy.copy(data), copy.deepcopy(data),
                      pickle.loads(pickle.dumps(data)),
                      dataclasses.replace(data)):
            assert other._last_pass is None

    def test_signed_zeros_are_distinct_keys(self, sweeps):
        data = gen_survival_instance(20, 2, seed=243)
        betas = (np.zeros(2), np.array([-0.0, 0.0]), np.zeros(2))
        scores = [cox_score(data, b) for b in betas]
        assert sweeps == [b.tobytes() for b in betas]
        for b, z in zip(betas, scores):
            assert z.tobytes() == cox_score(_fresh(data), b).tobytes()

    def test_returned_arrays_do_not_alias_the_memo(self):
        data = gen_survival_instance(20, 2, seed=244)
        beta = np.array([0.1, 0.2])
        score, jac = cox_score(data, beta), cox_jacobian(data, beta)
        want = (score.copy(), jac.copy())
        score += 1.0
        jac += 1.0
        assert cox_score(data, beta).tobytes() == want[0].tobytes()
        assert cox_jacobian(data, beta).tobytes() == want[1].tobytes()

    def test_degenerate_risk_set_raises_on_every_call(self):
        data = SurvivalDataset(X=[[0.0], [1.0]], time=[1.0, 2.0],
                               status=[False, True], h2=lambda x: 0.0)
        for fn in (cox_score, cox_objective, cox_jacobian, mu_profile,
                   certify_cox, cox_score):
            with pytest.raises(DegenerateRiskSetError):
                fn(data, [0.0])
            assert data._last_pass is None

    def test_results_read_the_arrays_as_they_were_at_construction(self):
        base = gen_survival_instance(30, 2, seed=245)
        x, t = base.X.copy(), base.time.copy()
        data = SurvivalDataset(X=x, time=t, status=base.status)
        beta = np.array([0.2, -0.3])
        before = (cox_score(data, beta), mu_profile(data, beta),
                  certify_cox(data, beta))
        cox_score(data, np.zeros(2))  # the memo no longer holds beta
        x[...] = np.random.default_rng(245).normal(size=x.shape)
        t[...] = t[::-1].copy()
        assert data.X[0, 0] == x[0, 0]  # data.X is still a view
        assert cox_score(data, beta).tobytes() == before[0].tobytes()
        _assert_fields_equal(mu_profile(data, beta), before[1])
        _assert_fields_equal(certify_cox(data, beta), before[2])

    def test_certificate_owns_its_target(self):
        data = gen_survival_instance(30, 2, seed=246)
        assert_certificate_owns_inputs(lambda b: certify_cox(data, b),
                                       np.array([0.1, -0.2]))


@st.composite
def survival_cases(draw):
    """Small instances with ties, censoring, H1 weights and rows of zero
    H2 weight, plus a coefficient vector."""
    n = draw(st.integers(1, 40))
    p = draw(st.integers(1, 3))
    levels = draw(st.integers(1, n))
    censored = draw(st.sampled_from([0.0, 0.3, 0.7]))
    zero_h2 = draw(st.sampled_from([0.0, 0.3]))
    weighted = draw(st.booleans())
    scale = draw(st.sampled_from([0.0, 0.3, 1.0, 3.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.normal(size=(n, p))
    time = rng.integers(0, levels, size=n).astype(float)
    status = rng.uniform(size=n) >= censored
    status[rng.integers(n)] = True
    cut = np.quantile(x[:, -1], 1.0 - zero_h2) if zero_h2 else np.inf

    def h2(row):
        return 0.0 if row[-1] > cut else 1.0 + 0.5 * np.tanh(row[0])

    data = SurvivalDataset(X=x, time=time, status=status,
                           h1=_h1 if weighted else None,
                           h2=h2 if zero_h2 else None)
    return data, rng.normal(size=p) * scale


@settings(max_examples=200, deadline=None, derandomize=True)
@given(survival_cases())
def test_engine_matches_reference_property(case):
    data, beta = case
    try:
        ref.objective(data, beta)
    except DegenerateRiskSetError:
        for fn in (cox_objective, cox_score, cox_jacobian, mu_profile):
            with pytest.raises(DegenerateRiskSetError):
                fn(data, beta)
        return
    assert_agrees(data, beta)
