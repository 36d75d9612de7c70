import numpy as np
import pytest
import scipy.linalg
from conftest import assert_certificate_owns_inputs, gen_glm_instance

from mestcert import (ConvergenceError, InfeasiblePointError,
                      InvalidInputError, RankDeficientError,
                      certify_constrained, hessian_holder_constant, kkt_solve,
                      op_norm, solve_linear)
from mestcert import glm
from mestcert.constrained import _least_squares_multiplier, check_constraints
from mestcert.numkit import solve_linear_many


def glm_callables(data, family):
    return (lambda b: glm.score(data, family, b),
            lambda b: glm.hessian(data, family, b))


def constrained_ols_oracle(x, y, a, b):
    """Closed-form equality-constrained least squares via the stacked
    normal equations (independent of the package solver)."""
    n = x.shape[0]
    h = 2.0 * x.T @ x / n
    g = -2.0 * x.T @ y / n
    k = np.block([[h, a.T], [a, np.zeros((a.shape[0], a.shape[0]))]])
    rhs = np.concatenate([-g, b])
    sol = np.linalg.solve(k, rhs)
    return sol[: x.shape[1]]


class TestKktSolve:
    def test_quadratic_single_newton(self):
        data, fam = gen_glm_instance("squared", 40, 3, seed=501)
        grad, hess = glm_callables(data, fam)
        a = np.ones((1, 3))
        b = np.zeros(1)
        point = kkt_solve(grad, hess, a, b, tol=1e-12)
        assert point.primal_residual <= 1e-12
        assert point.dual_residual <= 1e-12
        oracle = constrained_ols_oracle(data.X, data.y, a, b)
        np.testing.assert_allclose(point.beta, oracle, atol=1e-9)

    def test_feasible_unconstrained_optimum(self):
        data, fam = gen_glm_instance("squared", 40, 2, seed=502)
        grad, hess = glm_callables(data, fam)
        unconstrained = glm.fit(data, fam, tol=1e-13)
        a = np.array([[1.0, 2.0]])
        b = a @ unconstrained
        point = kkt_solve(grad, hess, a, b, tol=1e-11)
        np.testing.assert_allclose(point.beta, unconstrained, atol=1e-9)
        np.testing.assert_allclose(point.nu, [0.0], atol=1e-9)

    def test_sum_to_one_matches_lagrange_closed_form(self):
        data, fam = gen_glm_instance("squared", 30, 2, seed=503)
        grad, hess = glm_callables(data, fam)
        a = np.array([[1.0, 1.0]])
        b = np.array([1.0])
        point = kkt_solve(grad, hess, a, b, tol=1e-12)
        oracle = constrained_ols_oracle(data.X, data.y, a, b)
        np.testing.assert_allclose(point.beta, oracle, atol=1e-9)
        assert abs(point.beta.sum() - 1.0) <= 1e-12

    def test_poisson_constrained_solve(self):
        data, fam = gen_glm_instance("poisson", 60, 3, seed=504)
        grad, hess = glm_callables(data, fam)
        a = np.array([[1.0, 1.0, 1.0]])
        b = np.zeros(1)
        point = kkt_solve(grad, hess, a, b, tol=1e-12)
        assert point.primal_residual <= 1e-12
        assert point.dual_residual <= 1e-12

    def test_rank_deficient_constraints_rejected(self):
        data, fam = gen_glm_instance("squared", 20, 3, seed=505)
        grad, hess = glm_callables(data, fam)
        a = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]])
        with pytest.raises(RankDeficientError):
            kkt_solve(grad, hess, a, np.zeros(2))
        with pytest.raises(RankDeficientError):
            check_constraints(np.ones((4, 3)), np.zeros(4))

    def test_wrong_sign_hessian_stalls_line_search(self):
        data, fam = gen_glm_instance("squared", 40, 3, seed=7400)
        grad, hess = glm_callables(data, fam)
        a = np.ones((1, 3))
        b = np.array([0.5])
        with pytest.raises(ConvergenceError) as err:
            kkt_solve(grad, lambda beta: -hess(beta), a, b)
        # the stall is at the start: the minimum-norm feasible point with
        # zero multipliers, where only the dual residual is nonzero
        start = np.full(3, 0.5 / 3.0)
        assert err.value.iterations is None
        assert err.value.residual == pytest.approx(
            np.linalg.norm(grad(start)), rel=1e-12)

    def test_iteration_budget_exhausted(self):
        data, fam = gen_glm_instance("poisson", 60, 3, seed=7401)
        grad, hess = glm_callables(data, fam)
        with pytest.raises(ConvergenceError) as err:
            kkt_solve(grad, hess, np.ones((1, 3)), np.array([0.5]),
                      max_iter=1)
        assert err.value.iterations == 1
        assert err.value.residual > 1e-10


class TestCertifyConstrained:
    def test_quadratic_exact(self):
        data, fam = gen_glm_instance("squared", 40, 3, seed=506)
        grad, hess = glm_callables(data, fam)
        a = np.array([[1.0, -1.0, 0.5]])
        b = np.array([0.25])
        beta0 = np.array([0.25, 0.25, 0.5])  # feasible by construction
        assert abs(a @ beta0 - b) <= 1e-12
        cert = certify_constrained(grad, hess, a, b, beta0, holder_l=0.0)
        assert cert.condition_ok
        assert cert.remainder_bound == 0.0
        point = kkt_solve(grad, hess, a, b, tol=1e-12)
        np.testing.assert_allclose(beta0 + cert.step, point.beta, atol=1e-10)

    def test_delta_solves_like_solve_linear(self):
        # the ||H^-1 g0|| factor of delta has solve_linear's bits on an
        # ill-conditioned quadratic, where solve_linear keeps a refinement
        # step (it lowers the residual about eightfold here)
        rng = np.random.default_rng(529)
        q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        h = (q * np.geomspace(1e-10, 1.0, 3)) @ q.T
        c = rng.normal(size=3)
        a, b = np.array([[1.0, 1.0, 1.0]]), np.array([0.0])
        beta0 = np.array([0.5, -0.25, -0.25])
        cert = certify_constrained(lambda t: h @ t - c, lambda t: h, a, b,
                                   beta0, nu0=np.array([0.3]))
        g0 = h @ beta0 - c + 0.3
        assert solve_linear(h, g0).tobytes() != scipy.linalg.lu_solve(
            scipy.linalg.lu_factor(h), g0).tobytes()
        gain = op_norm(solve_linear_many(a @ solve_linear_many(h, a.T), a))
        assert cert.delta == 1.5 * (1.0 + gain) * float(
            np.linalg.norm(solve_linear(h, g0)))

    def test_step_is_feasible_direction(self):
        data, fam = gen_glm_instance("poisson", 50, 3, seed=507)
        grad, hess = glm_callables(data, fam)
        a = np.array([[1.0, 1.0, 1.0]])
        b = np.zeros(1)
        beta0 = np.array([0.1, -0.3, 0.2])
        cert = certify_constrained(grad, hess, a, b, beta0, holder_l=1.0)
        assert np.linalg.norm(a @ (beta0 + cert.step) - b) <= 1e-9

    def test_poisson_bound_holds_against_oracle(self):
        data, fam = gen_glm_instance("poisson", 60, 3, seed=508)
        grad, hess = glm_callables(data, fam)
        a = np.array([[1.0, 1.0, 1.0]])
        b = np.zeros(1)
        point = kkt_solve(grad, hess, a, b, tol=1e-12)
        rng = np.random.default_rng(509)
        checked = 0
        for scale in (0.001, 0.005, 0.02):
            shift = rng.normal(size=3) * scale
            shift -= a[0] * (a[0] @ shift) / (a[0] @ a[0])  # stay feasible
            beta0 = point.beta + shift
            holder_l, alpha = hessian_holder_constant(data, fam, beta0)
            cert = certify_constrained(grad, hess, a, b, beta0,
                                       holder_l=holder_l, alpha=alpha)
            if not cert.condition_ok:
                continue
            checked += 1
            err = np.linalg.norm(point.beta - beta0 - cert.step)
            assert err <= cert.remainder_bound * (1 + 1e-8) + 1e-14
        assert checked >= 2

    def test_exact_kkt_point_has_tiny_delta(self):
        data, fam = gen_glm_instance("poisson", 40, 2, seed=510)
        grad, hess = glm_callables(data, fam)
        a = np.array([[1.0, 1.0]])
        b = np.zeros(1)
        point = kkt_solve(grad, hess, a, b, tol=1e-13)
        cert = certify_constrained(grad, hess, a, b, point.beta, nu0=point.nu,
                                   holder_l=1.0)
        assert cert.delta <= 1e-10
        assert cert.condition_ok

    def test_default_multiplier_is_least_squares(self):
        data, fam = gen_glm_instance("squared", 30, 2, seed=511)
        grad, hess = glm_callables(data, fam)
        a = np.array([[1.0, 1.0]])
        b = np.array([1.0])
        beta0 = np.array([0.5, 0.5])
        cert = certify_constrained(grad, hess, a, b, beta0, holder_l=0.0)
        np.testing.assert_allclose(
            cert.target_nu, _least_squares_multiplier(grad(beta0), a),
            atol=1e-12)

    def test_certificate_owns_its_target(self):
        data, fam = gen_glm_instance("poisson", 50, 3, seed=514)
        grad, hess = glm_callables(data, fam)
        a, b = np.array([[1.0, 1.0, 1.0]]), np.zeros(1)
        assert_certificate_owns_inputs(
            lambda beta0, nu0: certify_constrained(grad, hess, a, b, beta0,
                                                   nu0=nu0, holder_l=1.0),
            np.array([0.1, -0.3, 0.2]), np.array([0.4]))

    def test_infeasible_target_rejected(self):
        data, fam = gen_glm_instance("squared", 30, 2, seed=512)
        grad, hess = glm_callables(data, fam)
        with pytest.raises(InfeasiblePointError):
            certify_constrained(grad, hess, np.array([[1.0, 1.0]]),
                                np.array([1.0]), np.array([0.0, 0.0]),
                                holder_l=0.0)

    def test_bad_holder_parameters(self):
        data, fam = gen_glm_instance("squared", 30, 2, seed=513)
        grad, hess = glm_callables(data, fam)
        a = np.array([[1.0, 1.0]])
        b = np.array([1.0])
        beta0 = np.array([0.5, 0.5])
        with pytest.raises(InvalidInputError):
            certify_constrained(grad, hess, a, b, beta0, holder_l=-1.0)
        with pytest.raises(InvalidInputError):
            certify_constrained(grad, hess, a, b, beta0, holder_l=1.0,
                                alpha=2.0)


class TestCallbackValues:
    """p = 3 with one constraint; callbacks of the wrong shape."""

    def problem(self):
        data, fam = gen_glm_instance("poisson", 50, 3, seed=515)
        return (*glm_callables(data, fam), np.ones((1, 3)), np.zeros(1))

    def test_short_gradient_is_a_typed_error(self):
        grad, hess, a, b = self.problem()
        short = lambda beta: grad(beta)[:2]  # noqa: E731
        with pytest.raises(InvalidInputError, match="gradient has length 2"):
            certify_constrained(short, hess, a, b, np.zeros(3))
        with pytest.raises(InvalidInputError, match="gradient has length 2"):
            kkt_solve(short, hess, a, b)

    def test_small_hessian_is_a_typed_error(self):
        grad, hess, a, b = self.problem()
        small = lambda beta: hess(beta)[:2, :2]  # noqa: E731
        with pytest.raises(InvalidInputError, match=r"Hessian has shape"):
            kkt_solve(grad, small, a, b)
        with pytest.raises(InvalidInputError, match=r"Hessian has shape"):
            certify_constrained(grad, small, a, b, np.zeros(3))

    def test_non_finite_gradient_at_a_candidate_is_rejected(self):
        # the first full Newton step lands on a NaN gradient: the line
        # search halves the step instead of raising
        grad, hess, a, b = self.problem()
        calls = []

        def flaky(beta):
            calls.append(1)
            return grad(beta) * (np.nan if len(calls) == 2 else 1.0)

        point = kkt_solve(flaky, hess, a, b, tol=1e-12)
        assert len(calls) > 2
        assert point.primal_residual <= 1e-12
        assert point.dual_residual <= 1e-12


class TestProjectorGeometry:
    def test_projector_identity(self):
        # P = H^-1 A^T (A H^-1 A^T)^-1 A is idempotent; conjugating by
        # H^(1/2) makes it an orthogonal projector of spectral norm exactly
        # one. In the raw Euclidean norm P is an oblique projector with
        # norm >= 1.
        rng = np.random.default_rng(514)
        for _ in range(10):
            p, d = 5, 2
            m = rng.normal(size=(p, p))
            h = m @ m.T + p * np.eye(p)
            a = rng.normal(size=(d, p))
            hinv_at = np.linalg.solve(h, a.T)
            proj = hinv_at @ np.linalg.solve(a @ hinv_at, a)
            assert op_norm(proj @ proj - proj) <= 1e-8
            w, v = np.linalg.eigh(h)
            h_sqrt = (v * np.sqrt(w)) @ v.T
            h_isqrt = (v / np.sqrt(w)) @ v.T
            sym = h_sqrt @ proj @ h_isqrt
            assert op_norm(sym) == pytest.approx(1.0, abs=1e-8)
            assert op_norm(proj) >= 1.0 - 1e-8
