"""
Certified approximate leave-one-out
===================================

Leave-one-out cross-validation classically costs n refits. The one-step
approximation costs one Hessian factorization plus one multi-right-hand-side
solve shared by all n folds, and each fold comes with a deterministic
deviation bound, so you know fold by fold how far the shortcut can be from
the exact refit.
"""

import time

import numpy as np

from mestcert import Dataset, fit, loo_exact, loo_sweep, make_family

rng = np.random.default_rng(11)
n, p = 500, 5
X = rng.uniform(-1, 1, size=(n, p)) * 0.8
theta_true = rng.normal(size=p) * 0.5
y = (rng.uniform(size=n) < 1 / (1 + np.exp(-X @ theta_true))).astype(float)
data = Dataset(X=X, y=y)
family = make_family("logistic")

theta_hat = fit(data, family, tol=1e-12)

t0 = time.perf_counter()
report = loo_sweep(data, family, theta_hat)
t_sweep = time.perf_counter() - t0
print(f"approximate sweep over {n} folds: {t_sweep * 1e3:.1f} ms")
print("certified folds:", sum(e.certified for e in report.entries), "/", n)

# check a handful of folds against exact refits
t0 = time.perf_counter()
worst_ratio = 0.0
for i in range(0, n, 50):
    entry = report.entries[i]
    exact = loo_exact(data, family, (i,))
    observed = np.linalg.norm(exact - entry.approx_estimate)
    print(f"fold {i:3d}: observed deviation {observed:.3e}  "
          f"<= bound {entry.deviation_bound:.3e}")
    assert observed <= entry.deviation_bound
    worst_ratio = max(worst_ratio, observed / entry.deviation_bound)
t_refits = time.perf_counter() - t0
print(f"\n10 exact refits alone took {t_refits * 1e3:.1f} ms "
      f"(vs {t_sweep * 1e3:.1f} ms for all {n} certified approximations)")
print(f"worst observed/bound ratio: {worst_ratio:.3f}")

# leave-k-out works the same way: pass explicit index sets
subsets = [(0, 1), (10, 20, 30, 40, 50)]
k_report = loo_sweep(data, family, theta_hat, index_sets=subsets, exact=True)
for entry in k_report.entries:
    print(f"delete {entry.indices}: certified={entry.certified}, "
          f"bound={entry.deviation_bound:.3e}")
