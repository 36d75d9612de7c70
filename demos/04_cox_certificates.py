"""
Cox partial-likelihood certificates
===================================

The partial likelihood is not an average, but the same machinery applies:
the curvature geometry is governed by mu(s), the largest covariate distance
to the tilted risk-set mean at each event time, and the certificate fires
when sup_s mu(s) * delta <= 1/16.
"""

import numpy as np

from mestcert import (SurvivalDataset, certify_cox, fit_cox, mu_profile,
                      softmax_ratio_check)

rng = np.random.default_rng(23)
n, p = 120, 2
X = rng.normal(size=(n, p)) * 0.6
beta_true = np.array([0.5, -0.3])
raw = rng.exponential(size=n) * np.exp(-X @ beta_true)
censor = rng.uniform(0.5, 4.0, size=n)
data = SurvivalDataset(X=X, time=np.minimum(raw, censor),
                       status=raw <= censor)
print("events:", int(data.status.sum()), "of", n)

beta_hat = fit_cox(data, tol=1e-12)
beta0 = beta_hat + rng.normal(size=p) * 0.01

prof = mu_profile(data, beta0)
print("sup_s mu(s):", prof.sup_all_rows)

cert = certify_cox(data, beta0)
print("condition mu * delta <= 1/16:", cert.condition_ok,
      f"(mu*delta = {cert.mu_sup * cert.delta:.5f})")
print(f"bracket: [{cert.bracket_lo:.6f}, {cert.bracket_hi:.6f}]")
print("actual distance:", np.linalg.norm(beta_hat - beta0))
one_step_err = np.linalg.norm(beta_hat - beta0 - cert.newton_step)
print("one-step error:", one_step_err, "<= bound:", cert.expansion_bound)
assert one_step_err <= cert.expansion_bound

# the scalar inequality the certificate rests on, checkable on its own:
# the curvature of log sum w_i exp(a_i t) moves slowly relative to t = 0
chk = softmax_ratio_check(weights=[1.0, 2.0, 0.5], a=[0.3, -0.2, 1.1],
                          s=0.05, t=0.1)
print("\nsoftmax curvature ratio check:",
      f"lhs={chk.lhs:.5f} <= rhs={chk.rhs:.5f}: {chk.ok}")
