import mpmath
import numpy as np
import pytest
import scipy.linalg
from conftest import assert_certificate_owns_inputs, gen_glm_instance
from hypothesis import given, settings
from hypothesis import strategies as st

from mestcert import (ConvergenceError, Dataset, InfeasiblePointError,
                      InvalidInputError, RankDeficientError,
                      certify_constrained, hessian_holder_constant, kkt_solve,
                      make_family, newton_step_certificate, op_norm,
                      solve_linear)
from mestcert import glm
from mestcert.constrained import _least_squares_multiplier, check_constraints


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
        # delta and step have the bits of newton_step_certificate on the
        # reduced map; its reduced Jacobian N^T H N has condition 1e10 here,
        # so solve_linear keeps a refinement step (it lowers the residual
        # about sixfold)
        a, b = np.array([[1.0, 1.0, 1.0]]), np.array([0.0])
        null = check_constraints(a, b)[2]
        rng = np.random.default_rng(539)
        rot = np.linalg.qr(rng.normal(size=(2, 2)))[0]
        v = np.column_stack([null @ rot, a[0] / np.sqrt(3.0)])
        h = (v * np.array([1e-10, 1.0, 1e-5])) @ v.T
        c = rng.normal(size=3)
        beta0 = np.array([0.5, -0.25, -0.25])
        cert = certify_constrained(lambda t: h @ t - c, lambda t: h, a, b,
                                   beta0, nu0=np.array([0.3]))
        m0, f0 = null.T @ h @ null, null.T @ (h @ beta0 - c)
        assert solve_linear(m0, f0).tobytes() != scipy.linalg.lu_solve(
            scipy.linalg.lu_factor(m0), f0).tobytes()
        reduced = newton_step_certificate(lambda g: f0, lambda g: m0,
                                          np.zeros(2), 0.0, 1.0)
        assert cert.delta == reduced.ball_radius
        assert cert.step.tobytes() == (null @ reduced.newton_step).tobytes()

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


def tilted_quadratic(eps):
    """``F(beta) = beta^T H beta / 2 - beta_1 + (kappa/6) (n^T beta)^3`` with
    ``H = diag(1, eps)``, ``n = (sqrt(eps), sqrt(1 - eps))`` and ``kappa =
    0.14 eps``, constrained to the line ``A beta = 0`` spanned by ``n``.
    ``||H^-1 (H(beta) - H(0))|| = kappa |n^T beta| ||H^-1 n||``, so
    ``L = kappa ||H^-1 n||`` with ``alpha = 1`` holds globally."""
    h = np.diag([1.0, eps])
    n = np.array([np.sqrt(eps), np.sqrt(1.0 - eps)])
    kappa = 0.14 * eps

    def grad(t):
        return h @ t - [1.0, 0.0] + 0.5 * kappa * (n @ t) ** 2 * n

    def hess(t):
        return h + kappa * (n @ t) * np.outer(n, n)

    a = np.array([[-n[1], n[0]]])
    return grad, hess, a, kappa * np.linalg.norm(np.linalg.solve(h, n))


class TestNullSpaceReduction:
    def test_ill_conditioned_counterexample(self):
        # cond(H) = 1e4: the 1.5 (1 + ||(A H^-1 A^T)^-1 A||) ||H^-1 g0||
        # radius once certified this target with a bound of 0.709 and a
        # Newton step 23.9 from the KKT point
        grad, hess, a, holder_l = tilted_quadratic(1e-4)
        cert = certify_constrained(grad, hess, a, np.zeros(1), np.zeros(2),
                                   nu0=np.zeros(1), holder_l=holder_l)
        with mpmath.workdps(50):
            eps = mpmath.mpf(1e-4)
            kappa = mpmath.mpf(0.14) * eps
            n1, n2 = mpmath.sqrt(eps), mpmath.sqrt(1 - eps)
            m0 = n1 ** 2 + eps * n2 ** 2  # n^T H n
            # the KKT point t n solves (kappa/2) t^2 + m0 t - n_1 = 0
            t = (mpmath.sqrt(m0 ** 2 + 2 * kappa * n1) - m0) / kappa
            root = np.array([float(t * n1), float(t * n2)])
            # L_red = ||n^T H|| / m0 L, and the reduced step is n_1 / m0
            l_red = float(mpmath.sqrt(n1 ** 2 + (eps * n2) ** 2) / m0
                          * holder_l)
            delta = float(1.5 * n1 / m0)
        miss = np.linalg.norm(root - cert.step)
        assert not cert.condition_ok or miss <= cert.remainder_bound
        assert cert.holder_l == pytest.approx(l_red, rel=1e-12)
        assert cert.delta == pytest.approx(delta, rel=1e-12)
        assert not cert.condition_ok
        np.testing.assert_allclose(
            kkt_solve(grad, hess, a, np.zeros(1), tol=1e-13).beta, root,
            rtol=1e-9)

    def test_square_constraints_leave_one_point(self):
        grad, hess = glm_callables(
            *gen_glm_instance("poisson", 40, 3, seed=516))
        a = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
        b = np.array([0.5, 0.1, -0.2])
        beta0 = np.linalg.solve(a, b)
        cert = certify_constrained(grad, hess, a, b, beta0, nu0=np.zeros(3),
                                   holder_l=50.0)
        assert cert.condition_ok
        assert (cert.delta, cert.holder_l, cert.remainder_bound) == (0, 0, 0)
        np.testing.assert_array_equal(cert.step, np.zeros(3))
        np.testing.assert_allclose(kkt_solve(grad, hess, a, b).beta, beta0,
                                   atol=1e-12)

    @pytest.mark.parametrize("kind", ["poisson", "logistic"])
    def test_certified_targets_hold_against_kkt_solve(self, kind):
        # nearly collinear designs, cond(H) from 7 to 4e6 at the KKT point,
        # targets along the null space, nu0 both default and zero
        family = make_family(kind)
        rng = np.random.default_rng(4200 if kind == "poisson" else 4300)
        certified = 0
        for eps in np.geomspace(1.0, 1e-3, 5):
            x = rng.normal(size=(60, 3)) / np.sqrt(3.0)
            x[:, 1] = x[:, 0] + eps * x[:, 1]
            theta = rng.normal(size=3) * 0.5
            u = x @ theta
            y = (rng.poisson(np.exp(u)) if kind == "poisson"
                 else rng.uniform(size=60) < 1.0 / (1.0 + np.exp(-u)))
            data = Dataset(X=x, y=y.astype(float))
            grad, hess = glm_callables(data, family)
            a = rng.normal(size=(1, 3))
            b = a @ theta
            point = kkt_solve(grad, hess, a, b, tol=1e-13)
            null = check_constraints(a, b)[2]
            # the float KKT point is off by about its own Newton correction
            slack = 2.0 * np.linalg.norm(solve_linear(
                null.T @ hess(point.beta) @ null, null.T @ grad(point.beta)))
            for scale in (1e-8, 1e-5, 1e-2):
                beta0 = point.beta + scale * null @ rng.normal(size=2)
                holder_l, alpha = hessian_holder_constant(data, family, beta0)
                for nu0 in (None, np.zeros(1)):
                    cert = certify_constrained(grad, hess, a, b, beta0,
                                               nu0=nu0, holder_l=holder_l,
                                               alpha=alpha)
                    if not cert.condition_ok:
                        continue
                    certified += 1
                    assert np.linalg.norm(point.beta - beta0) <= \
                        cert.delta * (1 + 1e-8) + slack
                    assert np.linalg.norm(point.beta - beta0 - cert.step) <= \
                        cert.remainder_bound * (1 + 1e-8) + slack + 1e-15
        assert certified >= 12


@st.composite
def scaled_problems(draw):
    """A quadratic-plus-cubic objective with ``cond(H)`` up to 1e6, ``d``
    random constraints, a feasible target, a Hoelder pair and a scale."""
    p = draw(st.integers(2, 5))
    d = draw(st.integers(1, p - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q = np.linalg.qr(rng.normal(size=(p, p)))[0]
    h = (q * np.geomspace(10.0 ** -draw(st.floats(0.0, 6.0)), 1.0, p)) @ q.T
    c, m = rng.normal(size=p), rng.normal(size=p)
    a, beta0 = rng.normal(size=(d, p)), rng.normal(size=p)
    holder_l = 10.0 ** draw(st.floats(-4.0, 2.0))
    alpha = draw(st.sampled_from([0.5, 1.0]))
    w = 10.0 ** draw(st.floats(-3.0, 3.0))

    def problem(scale):
        return certify_constrained(
            lambda t: scale * (h @ t - c + 0.5 * (m @ t) ** 2 * m),
            lambda t: scale * (h + (m @ t) * np.outer(m, m)),
            a, a @ beta0, beta0, holder_l=holder_l, alpha=alpha)
    return problem(1.0), problem(w)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scaled_problems())
def test_scaling_the_objective_changes_no_claim(certs):
    # the reduced Newton step and L_red are invariant under F -> w F, and
    # so is the KKT point
    cert, scaled = certs
    assert scaled.delta == pytest.approx(cert.delta, rel=1e-6)
    np.testing.assert_allclose(scaled.step, cert.step, rtol=1e-6,
                               atol=1e-6 * np.linalg.norm(cert.step))
    assert scaled.remainder_bound == pytest.approx(cert.remainder_bound,
                                                   rel=1e-5)
    threshold = (3.0 * cert.holder_l) ** (-1.0 / cert.alpha)
    if abs(cert.delta / threshold - 1.0) > 1e-6:
        assert scaled.condition_ok == cert.condition_ok
