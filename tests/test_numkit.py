import numpy as np
import pytest
import scipy.linalg

from conftest import gen_glm_instance, gen_survival_instance
from finite_differences import fd_jacobian

from mestcert import (Dataset, InvalidInputError, SingularMatrixError, cox,
                      glm, kkt_solve, nls, op_norm, solve_linear)
from mestcert.numkit import _refined_solve, lu_factorization


class TestOpNorm:
    def test_identity(self):
        assert op_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert op_norm(np.diag([3.0, 4.0])) == pytest.approx(4.0, abs=1e-12)

    def test_nilpotent_block(self):
        # M = [[0,1],[0,0]]: M^T M = diag(0, 1), so the singular values are
        # 0 and 1 by direct computation.
        assert op_norm([[0.0, 1.0], [0.0, 0.0]]) == pytest.approx(1.0, abs=1e-12)

    def test_rectangular(self):
        m = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        assert op_norm(m) == pytest.approx(2.0, abs=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            op_norm([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(InvalidInputError):
            op_norm([[np.inf, 0.0], [0.0, 1.0]])

    def test_matches_transpose(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = rng.normal(size=(5, 5))
            assert abs(op_norm(m) - op_norm(m.T)) <= 1e-9

    def test_submultiplicative(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            a = rng.normal(size=(5, 5))
            b = rng.normal(size=(5, 5))
            assert op_norm(a @ b) <= op_norm(a) * op_norm(b) * (1 + 1e-9)


class TestSolveLinear:
    def test_identity(self):
        np.testing.assert_allclose(solve_linear(np.eye(2), [1.0, 2.0]),
                                   [1.0, 2.0], atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(solve_linear(np.diag([2.0, 4.0]), [2.0, 4.0]),
                                   [1.0, 1.0], atol=1e-14)

    def test_hand_elimination(self):
        # 2x + y = 3, x + 2y = 3  =>  x = y = 1
        np.testing.assert_allclose(
            solve_linear([[2.0, 1.0], [1.0, 2.0]], [3.0, 3.0]),
            [1.0, 1.0], atol=1e-12)

    def test_singular_reports_pivot(self):
        with pytest.raises(SingularMatrixError) as err:
            solve_linear([[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0])
        assert err.value.smallest_pivot >= 0.0

    def test_zero_matrix(self):
        with pytest.raises(SingularMatrixError):
            solve_linear(np.zeros((2, 2)), [1.0, 1.0])

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            solve_linear(np.eye(2), [1.0, 2.0, 3.0])
        with pytest.raises(InvalidInputError):
            solve_linear(np.ones((2, 3)), [1.0, 2.0])

    def test_residual_contract_well_conditioned(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
            # singular values spread over [1e-3, 1e3]: condition number 1e6
            s = np.geomspace(1e-3, 1e3, 8)
            a = (q * s) @ q.T
            b = rng.normal(size=8)
            x = solve_linear(a, b)
            assert np.linalg.norm(a @ x - b) <= 1e-9 * (1 + np.linalg.norm(b))


class TestRefinedSolve:
    def test_matches_solve_linear_bitwise(self):
        # covers both branches: the refinement step runs only on the
        # ill-conditioned systems
        rng = np.random.default_rng(46)
        for cond in (1e2, 1e12):
            q = np.linalg.qr(rng.normal(size=(8, 8)))[0]
            a = (q * np.geomspace(1.0, cond, 8)) @ q.T
            b = rng.normal(size=8)
            assert _refined_solve(a, lu_factorization(a), b).tobytes() == \
                solve_linear(a, b).tobytes()


class TestLuFactorization:
    def test_matches_scipy_lu_solve_bitwise(self):
        rng = np.random.default_rng(44)
        a = rng.normal(size=(5, 5)) + 5.0 * np.eye(5)
        solve = lu_factorization(a)
        lu_piv = scipy.linalg.lu_factor(a)
        for rhs in (rng.normal(size=5), rng.normal(size=(5, 3))):
            assert solve(rhs).tobytes() == scipy.linalg.lu_solve(
                lu_piv, rhs).tobytes()

    def test_rejects_bad_rhs(self):
        solve = lu_factorization(np.eye(2))
        with pytest.raises(InvalidInputError):
            solve([1.0, np.nan])
        with pytest.raises(InvalidInputError):
            solve([1.0, 2.0, 3.0])

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            lu_factorization([[1.0, 2.0], [2.0, 4.0]])


class TestFdJacobian:
    def test_linear_map(self):
        theta = np.array([0.4, -1.2, 2.0])
        jac = fd_jacobian(lambda t: t, theta, 1e-5)
        np.testing.assert_allclose(jac, np.eye(3), atol=1e-10)

    def test_componentwise_square(self):
        jac = fd_jacobian(lambda t: t ** 2, np.array([1.0, 2.0]), 1e-5)
        np.testing.assert_allclose(jac, np.diag([2.0, 4.0]), atol=1e-6)

    def test_constant_map(self):
        jac = fd_jacobian(lambda t: np.array([3.0, 7.0]), np.array([1.0, 2.0]), 1e-5)
        np.testing.assert_allclose(jac, np.zeros((2, 2)), atol=1e-12)

    def test_scalar_output(self):
        jac = fd_jacobian(lambda t: float(t @ t), np.array([1.0, 2.0]), 1e-6)
        np.testing.assert_allclose(jac, [[2.0, 4.0]], atol=1e-6)

    def test_bad_step(self):
        with pytest.raises(InvalidInputError):
            fd_jacobian(lambda t: t, np.array([1.0]), 0.0)
        with pytest.raises(InvalidInputError):
            fd_jacobian(lambda t: t, np.array([1.0]), -1e-5)

    def test_evaluator_failure_propagates(self):
        def bad(_):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            fd_jacobian(bad, np.array([1.0]), 1e-5)


class TestDampedNewtonEvaluatesEachPointOnce:
    """The fitters hand ``damped_newton`` one evaluate callback, and the
    accepted candidate's residual and objective serve the next iteration, so
    no residual or objective callback sees the same point twice."""

    @staticmethod
    def recorder(fn, points):
        def recorded(*args):
            points.append(np.asarray(args[-1], dtype=float).tobytes())
            return fn(*args)
        return recorded

    def record(self, monkeypatch, module, *names):
        seen = {name: [] for name in names}
        for name in names:
            monkeypatch.setattr(module, name,
                                self.recorder(getattr(module, name), seen[name]))
        return seen

    @staticmethod
    def assert_each_point_once(seen):
        for name, points in seen.items():
            assert len(points) >= 4, name  # several Newton iterations ran
            assert len(set(points)) == len(points), name

    def test_glm_fit(self, monkeypatch):
        data, family = gen_glm_instance("logistic", 200, 3, seed=9100)
        seen = self.record(monkeypatch, glm, "score", "objective")
        glm.fit(data, family)
        self.assert_each_point_once(seen)

    def test_fit_cox(self, monkeypatch):
        data = gen_survival_instance(80, 3, seed=9101)
        seen = self.record(monkeypatch, cox, "cox_score", "cox_objective")
        cox.fit_cox(data)
        self.assert_each_point_once(seen)

    def test_fit_nls(self, monkeypatch):
        rng = np.random.default_rng(9102)
        x = rng.normal(size=(60, 2))
        y = 1.0 / (1.0 + np.exp(-(x @ np.array([1.2, -0.7]))))
        data = Dataset(X=x, y=y + 0.05 * rng.normal(size=60))
        seen = self.record(monkeypatch, nls, "nls_grad")
        nls.fit_nls(data, nls.logistic_link(), np.zeros(2))
        self.assert_each_point_once(seen)

    def test_kkt_solve(self):
        data, family = gen_glm_instance("poisson", 150, 3, seed=9103)
        points = []
        grad = self.recorder(lambda b: glm.score(data, family, b), points)
        kkt_solve(grad, lambda b: glm.hessian(data, family, b),
                  np.ones((1, 3)), np.array([0.5]))
        self.assert_each_point_once({"grad": points})
