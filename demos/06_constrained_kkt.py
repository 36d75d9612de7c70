"""
Equality-constrained estimation with an expansion certificate
=============================================================

Minimize a Poisson objective subject to sum(beta) = 0. The KKT system is
solved by Newton on the stacked residual; the certificate at a feasible
target bounds how far the one-step correction can sit from the true
constrained solution. The required Hoelder constant L for the Hessian
variation is derived from the loss family's curvature bound; the
certificate works in the null space of the constraints, where it becomes
the reduced constant L_red >= L.
"""

import numpy as np

from mestcert import (Dataset, certify_constrained, fit,
                      hessian_holder_constant, kkt_solve, make_family)
from mestcert import hessian, score

rng = np.random.default_rng(31)
n, p = 150, 3
X = rng.normal(size=(n, p)) * 0.5
theta_true = np.array([0.4, -0.2, 0.1])
y = rng.poisson(np.exp(X @ theta_true)).astype(float)
data = Dataset(X=X, y=y)
family = make_family("poisson")

grad = lambda b: score(data, family, b)
hess = lambda b: hessian(data, family, b)
A = np.ones((1, p))
b = np.zeros(1)

point = kkt_solve(grad, hess, A, b, tol=1e-12)
print("constrained solution:", np.round(point.beta, 6),
      f"(sum = {point.beta.sum():.2e})")
print("multiplier:", np.round(point.nu, 6))
print("unconstrained fit:  ", np.round(fit(data, family, tol=1e-12), 6))

# certify at a feasible target near the solution
shift = rng.normal(size=p) * 0.01
shift -= A[0] * (A[0] @ shift) / (A[0] @ A[0])
beta0 = point.beta + shift
holder_l, alpha = hessian_holder_constant(data, family, beta0)
print(f"\nderived Hoelder constant: L = {holder_l:.4f} (alpha = {alpha})")

cert = certify_constrained(grad, hess, A, b, beta0,
                           holder_l=holder_l, alpha=alpha)
print(f"reduced constant: L_red = {cert.holder_l:.4f}")
print("condition delta <= (3 L_red)^(-1/alpha):", cert.condition_ok)
predicted = beta0 + cert.step
print("one-step prediction:", np.round(predicted, 6),
      f"(sum = {predicted.sum():.2e}, still feasible)")
err = np.linalg.norm(point.beta - predicted)
print("actual error:", err, "<= bound:", cert.remainder_bound)
assert err <= cert.remainder_bound
