import numpy as np
import pytest
from conftest import assert_certificate_owns_inputs
from finite_differences import fd_jacobian, nls_objective

from mestcert import (ConvergenceError, Dataset, InvalidInputError, LinkSpec,
                      certify_nls, fit_nls, identity_link, logistic_link,
                      make_family, nls_constants, nls_grad, op_norm)
from mestcert import certify as glm_certify
from mestcert.nls import (SIGMOID_D2_SUP, SIGMOID_D3_SUP, _link_terms,
                          _nls_hess, _variation_modulus)
from mestcert.numkit import lu_factorization, solve_linear

LINK = logistic_link()


def _sig(u):
    return 1.0 / (1.0 + np.exp(-u))


def gen_nls_instance(n, p, seed, noise=0.05, x_scale=0.8):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p)) * x_scale
    theta = rng.normal(size=p) * 0.7
    y = _sig(x @ theta) + rng.normal(size=n) * noise
    return Dataset(X=x, y=y)


class TestGradHess:
    def test_identity_link_is_ols(self):
        data = gen_nls_instance(30, 2, seed=401)
        link = identity_link()
        theta = np.array([0.3, -0.2])
        expected = -(2.0 / 30) * data.X.T @ (data.y - data.X @ theta)
        np.testing.assert_allclose(nls_grad(data, link, theta), expected,
                                   atol=1e-14)
        np.testing.assert_allclose(
            _nls_hess(data, _link_terms(data, link, theta)),
            (2.0 / 30) * data.X.T @ data.X, atol=1e-14)

    def test_logistic_link_hand_value(self):
        data = Dataset(X=[[1.0]], y=[1.0])
        # -2 (1 - 1/2) * 1/4 = -1/4
        np.testing.assert_allclose(nls_grad(data, LINK, np.array([0.0])),
                                   [-0.25], atol=1e-15)

    def test_residual_free_gradient_vanishes(self):
        rng = np.random.default_rng(402)
        x = rng.normal(size=(20, 2))
        theta = np.array([0.4, -0.6])
        data = Dataset(X=x, y=_sig(x @ theta))
        np.testing.assert_allclose(nls_grad(data, LINK, theta),
                                   np.zeros(2), atol=1e-14)

    def test_matches_finite_differences(self):
        data = gen_nls_instance(40, 3, seed=403)
        rng = np.random.default_rng(404)
        for _ in range(5):
            theta = rng.normal(size=3) * 0.4
            g = nls_grad(data, LINK, theta)
            g_fd = fd_jacobian(lambda t: nls_objective(data, LINK, t),
                               theta, 1e-6)[0]
            assert np.linalg.norm(g - g_fd) <= 1e-5 * (1 + np.linalg.norm(g))
            h = _nls_hess(data, _link_terms(data, LINK, theta))
            h_fd = fd_jacobian(lambda t: nls_grad(data, LINK, t), theta, 1e-6)
            assert np.linalg.norm(h - h_fd) <= 1e-5 * (1 + np.linalg.norm(h))


class TestLinkConstants:
    def test_sigmoid_derivative_suprema_on_dense_grid(self):
        u = np.linspace(-25.0, 25.0, 400001)
        s = _sig(u)
        d1 = s * (1 - s)
        d2 = d1 * (1 - 2 * s)
        d3 = d1 * (1 - 6 * s + 6 * s * s)
        assert np.max(np.abs(d1)) <= 0.25
        assert np.max(np.abs(d2)) <= SIGMOID_D2_SUP
        assert np.max(np.abs(d3)) <= SIGMOID_D3_SUP
        # and each constant is attained up to grid resolution
        assert np.max(np.abs(d1)) >= 0.25 - 1e-6
        assert np.max(np.abs(d2)) >= SIGMOID_D2_SUP - 1e-6
        assert np.max(np.abs(d3)) >= SIGMOID_D3_SUP - 1e-6

    def test_link_derivatives_consistent(self):
        u0 = 0.37
        for f, fp in ((LINK.g, LINK.g1), (LINK.g1, LINK.g2)):
            fd = (float(f(np.array([u0 + 1e-6]))[0])
                  - float(f(np.array([u0 - 1e-6]))[0])) / 2e-6
            assert fd == pytest.approx(float(fp(np.array([u0]))[0]), abs=1e-8)

    def test_smoothness_certificates_on_pairs(self):
        rng = np.random.default_rng(405)
        for _ in range(200):
            x = rng.normal(size=3)
            t1 = rng.normal(size=3) * 2.0
            t2 = rng.normal(size=3) * 2.0
            gap = np.linalg.norm(t1 - t2)
            u1, u2 = float(x @ t1), float(x @ t2)
            assert abs(float(LINK.g(np.array([u1]))[0])
                       - float(LINK.g(np.array([u2]))[0])) \
                <= LINK.c0(x) * gap * (1 + 1e-9) + 1e-15
            assert abs(float(LINK.g1(np.array([u1]))[0])
                       - float(LINK.g1(np.array([u2]))[0])) \
                <= LINK.c1(x) * gap * (1 + 1e-9) + 1e-15
            assert abs(float(LINK.g2(np.array([u1]))[0])
                       - float(LINK.g2(np.array([u2]))[0])) \
                <= LINK.c2(x) * gap ** LINK.alpha * (1 + 1e-9) + 1e-15


class TestConstants:
    def test_identity_link_all_zero(self):
        data = gen_nls_instance(30, 2, seed=406)
        consts = nls_constants(data, identity_link(), np.array([0.1, 0.2]))
        assert consts.as_tuple() == (0.0, 0.0, 0.0, 0.0)

    def test_perfect_fit_kills_residual_constant(self):
        rng = np.random.default_rng(407)
        x = rng.normal(size=(25, 2))
        theta = np.array([0.5, -0.3])
        data = Dataset(X=x, y=np.asarray(LINK.g(x @ theta)))
        consts = nls_constants(data, LINK, theta)
        assert consts.l_alpha == 0.0
        assert consts.l2 > 0.0

    def test_sampled_variation_below_modulus(self):
        # directional samples give a lower bound on the true variation; the
        # certified modulus must dominate them
        data = gen_nls_instance(40, 2, seed=408)
        theta0 = fit_nls(data, LINK, np.zeros(2), tol=1e-12)
        consts = nls_constants(data, LINK, theta0)
        h0 = _nls_hess(data, _link_terms(data, LINK, theta0))
        rng = np.random.default_rng(409)
        for _ in range(30):
            direction = rng.normal(size=2)
            direction /= np.linalg.norm(direction)
            r = rng.uniform(0.0, 0.3)
            h = _nls_hess(data, _link_terms(data, LINK,
                                                theta0 + r * direction))
            sampled = op_norm(np.linalg.solve(h0, h - h0))
            assert sampled <= _variation_modulus(consts, LINK.alpha, r) \
                * (1 + 1e-9) + 1e-14

    @staticmethod
    def custom_link(**constants):
        """The logistic link with per-row constants replaced."""
        parts = {"c0": lambda x: 0.3 * abs(x[0]) + 0.1,
                 "c1": lambda x: 0.2 * float(np.linalg.norm(x)),
                 "c2": lambda x: 0.5 * abs(x[1]), **constants}
        return LinkSpec(g=LINK.g, g1=LINK.g1, g2=LINK.g2, alpha=1.0, **parts)

    def test_custom_link_constants(self):
        data = gen_nls_instance(40, 2, seed=411)
        link = self.custom_link()
        theta0 = np.array([0.4, -0.2])
        u = data.X @ theta0
        r = np.abs(data.y - LINK.g(u))
        c0, c1, c2 = (np.array([float(c(row)) for row in data.X])
                      for c in (link.c0, link.c1, link.c2))
        hsolve = lu_factorization(
            _nls_hess(data, _link_terms(data, link, theta0)))

        def norm_of(coefs):
            return op_norm(hsolve((2.0 / 40) * (data.X.T @ (
                data.X * coefs[:, None]))))

        expected = (norm_of(c1 * c1), norm_of(c0 * c2),
                    norm_of(2.0 * c1 * np.abs(LINK.g1(u))
                            + c0 * np.abs(LINK.g2(u))),
                    norm_of(c2 * r))
        assert nls_constants(data, link, theta0).as_tuple() == expected

    @pytest.mark.parametrize("name, value", [
        ("c0", np.inf), ("c1", np.nan), ("c2", -0.5)])
    def test_negative_or_non_finite_link_constant_rejected(self, name, value):
        data = gen_nls_instance(20, 2, seed=412)
        link = self.custom_link(**{name: lambda x: value})
        with pytest.raises(InvalidInputError, match="negative or non-finite"):
            nls_constants(data, link, np.zeros(2))
        with pytest.raises(InvalidInputError, match="negative or non-finite"):
            certify_nls(data, link, np.zeros(2))

    def test_modulus_monotone(self):
        data = gen_nls_instance(40, 2, seed=410)
        cert = certify_nls(data, LINK, np.zeros(2))
        radii = np.linspace(0.0, cert.delta, 30)
        vals = [_variation_modulus(cert.l_constants, cert.alpha, r)
                for r in radii]
        assert np.all(np.diff(vals) >= -1e-15)


class TestCertify:
    def test_factors_hessian_once(self, factor_calls):
        # the step and the constants share one factorization, with the
        # same bits as solving and factoring separately
        data = gen_nls_instance(50, 3, seed=415)
        theta0 = np.array([0.2, -0.1, 0.4])
        step = -solve_linear(_nls_hess(data, _link_terms(data, LINK, theta0)),
                             nls_grad(data, LINK, theta0))
        consts = nls_constants(data, LINK, theta0)
        del factor_calls[:]
        cert = certify_nls(data, LINK, theta0)
        assert len(factor_calls) == 1
        assert cert.newton_step.tobytes() == step.tobytes()
        assert cert.l_constants == consts

    def test_identity_link_matches_squared_glm(self):
        data = gen_nls_instance(50, 3, seed=411)
        theta0 = np.array([0.2, -0.1, 0.4])
        nls_cert = certify_nls(data, identity_link(), theta0)
        glm_cert = glm_certify(data, make_family("squared"), theta0)
        assert nls_cert.delta == pytest.approx(glm_cert.delta, rel=1e-10)
        assert nls_cert.remainder_bound == 0.0
        assert nls_cert.condition_ok
        np.testing.assert_allclose(nls_cert.newton_step, glm_cert.newton_step,
                                   rtol=1e-10)

    def test_at_root_certifies(self):
        data = gen_nls_instance(60, 2, seed=412)
        root = fit_nls(data, LINK, np.zeros(2), tol=1e-13)
        cert = certify_nls(data, LINK, root)
        assert cert.delta <= 1e-11
        assert cert.condition_ok

    def test_certificate_owns_its_target(self):
        data = gen_nls_instance(50, 3, seed=416)
        assert_certificate_owns_inputs(lambda t: certify_nls(data, LINK, t),
                                       np.array([0.2, -0.1, 0.4]))

    def test_condition_formula_verbatim(self):
        data = gen_nls_instance(60, 2, seed=413)
        root = fit_nls(data, LINK, np.zeros(2), tol=1e-12)
        rng = np.random.default_rng(414)
        for scale in (0.002, 0.02, 0.2):
            theta0 = root + rng.normal(size=2) * scale
            cert = certify_nls(data, LINK, theta0)
            thresholds = [(12.0 * l) ** (-1.0 / j)
                          for l, j in zip(cert.l_constants.as_tuple(),
                                          (2.0, 1.0 + cert.alpha, 1.0,
                                           cert.alpha))
                          if l > 0.0]
            assert cert.condition_ok == (cert.delta <= min(thresholds))

    def test_certified_ball_contains_local_root(self):
        rng = np.random.default_rng(415)
        checked = 0
        for seed in range(900, 912):
            data = gen_nls_instance(80, 2, seed=seed)
            root = fit_nls(data, LINK, np.zeros(2), tol=1e-13)
            theta0 = root + rng.normal(size=2) * 0.005
            cert = certify_nls(data, LINK, theta0)
            if not cert.condition_ok:
                continue
            checked += 1
            found = fit_nls(data, LINK, theta0, tol=1e-13)
            assert np.linalg.norm(found - theta0) <= cert.delta * (1 + 1e-9)
            err = np.linalg.norm(found - theta0 - cert.newton_step)
            assert err <= cert.remainder_bound * (1 + 1e-8) + 1e-14
        assert checked >= 10

    def test_two_disjoint_certified_balls(self):
        # two-point design whose squared-error landscape has three critical
        # points; the gradient changes sign on both sides of each, which the
        # scan below verifies independently of the solver
        data = Dataset(X=[[1.0], [4.0]], y=[0.1, 0.9])
        grid = np.linspace(-6.0, 6.0, 2401)
        gvals = np.array([nls_grad(data, LINK, np.array([t]))[0]
                          for t in grid])
        flips = np.flatnonzero(np.sign(gvals[:-1]) != np.sign(gvals[1:]))
        assert len(flips) == 3

        starts = [grid[i] for i in flips]
        roots = [float(fit_nls(data, LINK, np.array([s]), tol=1e-13)[0])
                 for s in starts]
        # certify near the outermost critical points
        targets = (roots[0] + 3e-5, roots[2] + 8e-3)
        balls = []
        for t0, root in zip(targets, (roots[0], roots[2])):
            cert = certify_nls(data, LINK, np.array([t0]))
            assert cert.condition_ok
            assert abs(root - t0) <= cert.delta * (1 + 1e-9)
            err = abs(root - t0 - cert.newton_step[0])
            assert err <= cert.remainder_bound * (1 + 1e-8) + 1e-14
            balls.append((t0 - cert.delta, t0 + cert.delta))
        # the two certified balls are disjoint and each holds one root only
        assert balls[0][1] < balls[1][0]
        for (lo, hi), root in zip(balls, (roots[0], roots[2])):
            inside = [r for r in roots if lo - 1e-12 <= r <= hi + 1e-12]
            assert inside == [root]


class TestFitNls:
    def test_wrong_link_derivative_stalls_line_search(self):
        # g1 = -1 flips the gradient of the identity link, so the Newton step
        # points away from the root and the gradient norm only grows
        ident = identity_link()
        bad = LinkSpec(g=ident.g, g1=lambda u: -np.ones_like(u), g2=ident.g2,
                       c0=ident.c0, c1=ident.c1, c2=ident.c2)
        data = gen_nls_instance(40, 2, seed=7300)
        with pytest.raises(ConvergenceError) as err:
            fit_nls(data, bad, np.zeros(2))
        assert err.value.iterations is None
        assert err.value.residual == pytest.approx(
            np.linalg.norm(nls_grad(data, bad, np.zeros(2))), rel=1e-12)

    def test_iteration_budget_exhausted(self):
        data = gen_nls_instance(60, 2, seed=7301)
        with pytest.raises(ConvergenceError) as err:
            fit_nls(data, LINK, np.zeros(2), max_iter=1)
        assert err.value.iterations == 1
        assert err.value.residual > 1e-10
