import numpy as np
import pytest
from conftest import assert_certificate_owns_inputs

from mestcert import (InvalidInputError, SingularMatrixError,
                      contraction_certificate, newton_step_certificate,
                      solve_linear)


def bisect_root(f, lo, hi, tol=1e-14):
    """Independent scalar root oracle (sign-change bisection)."""
    flo, fhi = f(lo), f(hi)
    assert flo * fhi <= 0, "oracle needs a bracketing interval"
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


class TestContraction:
    def test_factors_a_once(self, factor_calls):
        # the step and the center check of the bound share one factorization
        f = lambda t: np.array([np.sin(t[0]) + t[1], t[1] ** 3 + 2.0 * t[0]])
        jac = lambda t: np.array([[np.cos(t[0]), 1.0],
                                  [2.0, 3.0 * t[1] ** 2]])
        theta0 = np.array([0.3, -0.2])
        a = jac(theta0)
        step_norm = float(np.linalg.norm(solve_linear(a, f(theta0))))
        del factor_calls[:]
        cert = contraction_certificate(f, jac, a, theta0, radius=1.0,
                                       variation_bound=lambda r: 0.5)
        assert cert.valid
        assert len(factor_calls) == 1
        assert cert.step_norm == step_norm

    def test_certificate_owns_its_center(self):
        f = lambda t: np.array([t[0] ** 2 - 1.0])
        jac = lambda t: np.array([[2.0 * t[0]]])
        assert_certificate_owns_inputs(
            lambda t: contraction_certificate(f, jac, np.array([[2.4]]), t,
                                              radius=1.0,
                                              variation_bound=lambda r: 0.5),
            np.array([1.2]))

    def test_linear_map_exact_bracket(self):
        theta0 = np.array([0.3, 0.4])
        cert = contraction_certificate(
            f=lambda t: t, jac=lambda t: np.eye(2), a_matrix=np.eye(2),
            theta0=theta0, radius=1.0, variation_bound=lambda r: 0.0)
        assert cert.valid
        assert cert.step_norm == pytest.approx(0.5, abs=1e-15)
        assert cert.bracket_lo == pytest.approx(0.5, abs=1e-15)
        assert cert.bracket_hi == pytest.approx(0.5, abs=1e-15)

    def test_epsilon_one_boundary(self):
        # f = 2*theta with A = I has relative variation exactly 1; only a
        # zero step can certify, and then with an infinite upper bracket.
        f = lambda t: 2.0 * t
        jac = lambda t: 2.0 * np.eye(1)
        bad = contraction_certificate(f, jac, np.eye(1), np.array([0.7]),
                                      radius=1.0, variation_bound=lambda r: 1.0)
        assert not bad.valid
        good = contraction_certificate(f, jac, np.eye(1), np.array([0.0]),
                                       radius=1.0, variation_bound=lambda r: 1.0)
        assert good.valid
        assert good.step_norm == 0.0
        assert good.bracket_lo == 0.0
        assert good.bracket_hi == np.inf

    def test_scalar_quadratic_bracket_contains_root(self):
        # f(t) = t^2 - 1 around 1.2 with A = f'(1.2) = 2.4. On [0.9, 1.5]
        # the relative variation is max|2.4 - 2t|/2.4 = 0.25.
        f = lambda t: t * t - 1.0
        cert = contraction_certificate(
            f=lambda t: np.array([f(t[0])]),
            jac=lambda t: np.array([[2.0 * t[0]]]),
            a_matrix=np.array([[2.4]]),
            theta0=np.array([1.2]), radius=0.3,
            variation_bound=lambda r: 0.25)
        assert cert.valid
        assert cert.step_norm == pytest.approx(0.44 / 2.4, rel=1e-12)
        assert cert.bracket_lo == pytest.approx(0.44 / 2.4 / 1.25, rel=1e-12)
        assert cert.bracket_hi == pytest.approx(0.44 / 2.4 / 0.75, rel=1e-12)
        root = bisect_root(f, 0.9, 1.5)
        dist = abs(root - 1.2)
        assert cert.bracket_lo * (1 - 1e-9) <= dist <= cert.bracket_hi * (1 + 1e-9)

    def test_center_self_check_rejects_false_bound(self):
        # claiming zero variation for a genuinely curved map is disproven
        # at the center itself
        cert = contraction_certificate(
            f=lambda t: np.array([t[0] ** 2 - 1.0]),
            jac=lambda t: np.array([[2.0 * t[0]]]),
            a_matrix=np.array([[2.4]]),
            theta0=np.array([1.0]), radius=0.3,
            variation_bound=lambda r: 0.0)
        assert not cert.valid
        assert "center" in cert.failure_reason

    def test_epsilon_above_one_invalid(self):
        cert = contraction_certificate(
            f=lambda t: t, jac=lambda t: np.eye(1), a_matrix=np.eye(1),
            theta0=np.array([0.0]), radius=1.0,
            variation_bound=lambda r: 1.5)
        assert not cert.valid
        assert "exceeds 1" in cert.failure_reason

    def test_singular_a_raises(self):
        with pytest.raises(SingularMatrixError):
            contraction_certificate(
                f=lambda t: t, jac=lambda t: np.eye(2),
                a_matrix=np.zeros((2, 2)),
                theta0=np.zeros(2), radius=1.0, variation_bound=lambda r: 0.0)

    def test_negative_bound_rejected(self):
        with pytest.raises(InvalidInputError):
            contraction_certificate(
                f=lambda t: t, jac=lambda t: np.eye(1), a_matrix=np.eye(1),
                theta0=np.zeros(1), radius=1.0, variation_bound=lambda r: -0.1)


class TestNewtonStep:
    def test_affine_exact(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
        b = rng.normal(size=4)
        cert = newton_step_certificate(
            f=lambda t: a @ t - b, jac=lambda t: a,
            theta0=rng.normal(size=4), holder_l=0.0, alpha=1.0)
        assert cert.valid
        assert cert.remainder_bound == 0.0
        root = cert.center + cert.newton_step
        assert np.linalg.norm(a @ root - b) <= 1e-9

    def test_worked_scalar_quadratic(self):
        # f(t) = t^2 - 1 at 1.2: the relative Jacobian variation is
        # |2.4 - 2t|/2.4 = |t - 1.2|/1.2, i.e. L = 1/1.2 with alpha = 1.
        f = lambda t: np.array([t[0] ** 2 - 1.0])
        jac = lambda t: np.array([[2.0 * t[0]]])
        cert = newton_step_certificate(f, jac, np.array([1.2]),
                                       holder_l=1.0 / 1.2, alpha=1.0)
        assert cert.valid
        assert cert.step_norm == pytest.approx(0.44 / 2.4, rel=1e-12)
        assert cert.step_norm <= 2.0 / (3.0 * 3.0 / 1.2)
        assert cert.remainder_bound == pytest.approx(
            2.25 * (1.0 / 1.2) * (0.44 / 2.4) ** 2, rel=1e-12)
        root = bisect_root(lambda t: t * t - 1.0, 0.9, 1.5)
        observed = abs(root - (1.2 + cert.newton_step[0]))
        assert observed <= cert.remainder_bound * (1 + 1e-9)
        assert abs(root - 1.2) <= cert.ball_radius

    def test_certificate_owns_its_center(self):
        assert_certificate_owns_inputs(
            lambda t: newton_step_certificate(
                lambda u: np.array([u[0] ** 2 - 1.0]),
                lambda u: np.array([[2.0 * u[0]]]), t, holder_l=1.0 / 1.2,
                alpha=1.0),
            np.array([1.2]))

    def test_already_root(self):
        cert = newton_step_certificate(
            f=lambda t: np.array([np.exp(t[0]) - 1.0]),
            jac=lambda t: np.array([[np.exp(t[0])]]),
            theta0=np.array([0.0]), holder_l=2.0, alpha=1.0)
        assert cert.valid
        assert cert.step_norm == 0.0
        assert cert.remainder_bound == 0.0

    def test_large_l_invalidates(self):
        cert = newton_step_certificate(
            f=lambda t: np.array([t[0] ** 2 - 1.0]),
            jac=lambda t: np.array([[2.0 * t[0]]]),
            theta0=np.array([1.2]), holder_l=50.0, alpha=1.0)
        assert not cert.valid
        assert "exceeds admissible" in cert.failure_reason

    def test_bad_parameters(self):
        f = lambda t: t
        jac = lambda t: np.eye(1)
        with pytest.raises(InvalidInputError):
            newton_step_certificate(f, jac, np.zeros(1), holder_l=-1.0, alpha=1.0)
        with pytest.raises(InvalidInputError):
            newton_step_certificate(f, jac, np.zeros(1), holder_l=0.0, alpha=0.0)
        with pytest.raises(InvalidInputError):
            newton_step_certificate(f, jac, np.zeros(1), holder_l=0.0, alpha=1.5)

    def test_singular_jacobian_raises(self):
        with pytest.raises(SingularMatrixError):
            newton_step_certificate(
                f=lambda t: np.array([t[0] ** 2]),
                jac=lambda t: np.array([[2.0 * t[0]]]),
                theta0=np.array([0.0]), holder_l=1.0, alpha=1.0)

    def test_polynomial_map_hand_constant(self):
        # f_k(t) = t_k + a_k t_k^2: J0 - J(t) = diag(2 a_k (t0_k - t_k)), so
        # ||J0^-1 (J0 - J(t))|| <= max_k |2 a_k / (1 + 2 a_k t0_k)| * ||t - t0||.
        a = np.array([0.5, -0.3, 0.8, 0.2, -0.6])
        theta0 = np.array([0.05, -0.04, 0.03, 0.06, -0.02])
        l_hand = float(np.max(np.abs(2.0 * a / (1.0 + 2.0 * a * theta0))))

        def f(t):
            return t + a * t * t

        def jac(t):
            return np.diag(1.0 + 2.0 * a * t)

        cert = newton_step_certificate(f, jac, theta0, holder_l=l_hand, alpha=1.0)
        assert cert.valid
        # coordinatewise bisection oracle: each component root of t(1 + a t)
        root = np.array([bisect_root(lambda t, k=k: t * (1.0 + a[k] * t),
                                     -0.4, 0.4) for k in range(5)])
        assert np.linalg.norm(root - theta0) <= cert.ball_radius * (1 + 1e-9)
        observed = np.linalg.norm(root - theta0 - cert.newton_step)
        assert observed <= cert.remainder_bound * (1 + 1e-9)


class TestZeroModulusAgreement:
    def test_contraction_and_newton_agree_on_affine(self):
        rng = np.random.default_rng(32)
        a = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
        b = rng.normal(size=3)
        theta0 = rng.normal(size=3)
        f = lambda t: a @ t - b
        jac = lambda t: a
        newton = newton_step_certificate(f, jac, theta0, holder_l=0.0, alpha=1.0)
        contraction = contraction_certificate(
            f, jac, a, theta0, radius=2.0 * newton.step_norm,
            variation_bound=lambda r: 0.0)
        assert newton.valid and contraction.valid
        # with zero modulus both pin the root at exactly one distance
        assert contraction.bracket_lo == pytest.approx(newton.step_norm, rel=1e-12)
        assert contraction.bracket_hi == pytest.approx(newton.step_norm, rel=1e-12)
        assert newton.remainder_bound == 0.0


def test_public_names():
    # __all__ is derived from the package imports: every public function and
    # class, no submodule, and ``certify`` is the GLM certificate
    import types

    import mestcert
    from mestcert import glm
    values = [getattr(mestcert, name) for name in mestcert.__all__]
    assert not any(isinstance(v, types.ModuleType) for v in values)
    assert mestcert.certify is glm.certify
    assert {"contraction_certificate", "loo_sweep", "solve_linear",
            "SingularMatrixError", "certify_cox"} <= set(mestcert.__all__)


#: every exported name, sorted; a new public name is an edit here
PUBLIC_NAMES = [
    "ConstrainedCertificate", "ConvergenceError", "CoxCertificate",
    "Dataset", "DegenerateRiskSetError", "ExpansionCertificate",
    "GlmCertificate", "InfeasiblePointError", "InvalidInputError",
    "KktPoint", "LinkSpec", "LooEntry", "LooReport", "LossFamily",
    "MestcertError", "MuProfile", "NlsCertificate", "NlsConstants",
    "PosiModel", "PosiReport", "RankDeficientError", "RootCertificate",
    "ScreenCoordinate", "ScreenReport", "SingularMatrixError",
    "SurvivalDataset", "certify", "certify_constrained", "certify_cox",
    "certify_nls", "contraction_certificate", "cox_jacobian",
    "cox_objective", "cox_score", "fit", "fit_cox", "fit_nls", "hessian",
    "hessian_holder_constant", "identity_link", "kkt_solve",
    "logistic_link", "loo_exact", "loo_sweep", "make_family", "mu_profile",
    "newton_step_certificate", "nls_constants", "nls_grad", "op_norm",
    "posi_sweep", "score", "screen_marginal", "softmax_ratio_check",
    "solve_linear"
]


def test_public_names_pinned():
    import mestcert
    assert mestcert.__all__ == PUBLIC_NAMES
