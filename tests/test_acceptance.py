"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Every tolerance is pinned here; the oracles (least-squares solves,
bisection, exact refits, finite differences) are independent of the
certificate code paths they check.
"""

import json
import time

import numpy as np
from conftest import gen_glm_instance, gen_survival_instance
from finite_differences import fd_jacobian

import mestcert as mc
from mestcert.cli import main as cli_main
from mestcert.glm import objective


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status}: {description}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} failed: {description} {detail}"


def bisect_root(f, lo, hi, tol=1e-14):
    flo, fhi = f(lo), f(hi)
    assert flo * fhi <= 0
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


def test_criterion_1_ols_exactness():
    rng = np.random.default_rng(9001)
    worst_gap = 0.0
    min_slack = np.inf
    count = 0
    sq = mc.make_family("squared")
    for trial in range(102):
        p = (1, 3, 5)[trial % 3]
        data, _ = gen_glm_instance("squared", 100, p, seed=9100 + trial)
        theta0 = rng.normal(size=p)
        qref_data, _ = gen_glm_instance("squared", 100, p, seed=9500 + trial)
        q_ref = mc.hessian(qref_data, sq, np.zeros(p))
        cert = mc.certify(data, sq, theta0, q_ref=q_ref)
        root = np.linalg.lstsq(data.X, data.y, rcond=None)[0]  # oracle
        gap = abs(np.linalg.norm(root - theta0) - 2.0 * cert.delta / 3.0)
        assert gap <= 1e-10 * (1 + cert.delta)
        worst_gap = max(worst_gap, gap / (1 + cert.delta))
        observed = np.linalg.norm(root - theta0 - cert.newton_step)
        slack = cert.expansion_bound_reference - observed
        assert slack >= 0.0
        min_slack = min(min_slack, slack)
        count += 1
    report(1, "OLS error equals 2*delta/3 and reference expansion bound "
              "holds with nonnegative slack",
           count >= 100,
           f"{count} instances, worst gap {worst_gap:.2e}, "
           f"min slack {min_slack:.2e}")


def test_criterion_2_bracketing_soundness():
    rng = np.random.default_rng(9002)
    certified = 0
    violations = 0
    total = 0
    for kind, alpha in (("logistic", None), ("poisson", None),
                        ("negbinomial", 0.9)):
        for trial in range(100):
            p = (1, 2, 5)[trial % 3]
            n = 150
            data, fam = gen_glm_instance(kind, n, p, seed=9200 + total,
                                         alpha=alpha if alpha else 1.0)
            total += 1
            root = mc.fit(data, fam, tol=1e-12)
            theta0 = root + rng.normal(size=p) * rng.choice((0.005, 0.02))
            cert = mc.certify(data, fam, theta0)
            if not cert.condition_ok:
                continue
            certified += 1
            dist = np.linalg.norm(root - theta0)
            if not (cert.delta / 2 * (1 - 1e-8) <= dist
                    <= cert.delta * (1 + 1e-8)):
                violations += 1
            err = np.linalg.norm(root - theta0 - cert.newton_step)
            if err > cert.expansion_bound_empirical * (1 + 1e-8) + 1e-14:
                violations += 1
    report(2, "exact roots live in [delta/2, delta] with expansion error "
              "within bound on every certified instance",
           certified >= 200 and violations == 0,
           f"{certified} certified of {total}, {violations} violations")


def test_criterion_3_newton_step_certificate():
    # scalar worked example: f(t) = t^2 - 1 at 1.2 with hand L = 1/1.2
    cert = mc.newton_step_certificate(
        f=lambda t: np.array([t[0] ** 2 - 1.0]),
        jac=lambda t: np.array([[2.0 * t[0]]]),
        theta0=np.array([1.2]), holder_l=1.0 / 1.2, alpha=1.0)
    ok = cert.valid
    ok &= abs(cert.step_norm - 0.183333) < 1e-6
    ok &= abs(cert.remainder_bound - 0.063021) < 1e-6
    root = bisect_root(lambda t: t * t - 1.0, 0.9, 1.5)
    ok &= abs(root - 1.2) <= cert.ball_radius * (1 + 1e-12)
    observed = abs(root - (1.2 + cert.newton_step[0]))
    ok &= observed <= cert.remainder_bound * (1 + 1e-9)

    # 5-dim polynomial map with hand-derived Hoelder constant
    a = np.array([0.5, -0.3, 0.8, 0.2, -0.6])
    theta0 = np.array([0.05, -0.04, 0.03, 0.06, -0.02])
    l_hand = float(np.max(np.abs(2.0 * a / (1.0 + 2.0 * a * theta0))))
    cert5 = mc.newton_step_certificate(
        f=lambda t: t + a * t * t,
        jac=lambda t: np.diag(1.0 + 2.0 * a * t),
        theta0=theta0, holder_l=l_hand, alpha=1.0)
    root5 = np.array([bisect_root(lambda t, k=k: t * (1.0 + a[k] * t),
                                  -0.4, 0.4) for k in range(5)])
    ok &= cert5.valid
    ok &= np.linalg.norm(root5 - theta0) <= cert5.ball_radius * (1 + 1e-9)
    obs5 = np.linalg.norm(root5 - theta0 - cert5.newton_step)
    ok &= obs5 <= cert5.remainder_bound * (1 + 1e-9)
    report(3, "Newton-step certificates hold for scalar and 5-dim "
              "polynomial maps; worked values reproduced to 6 digits",
           ok, f"step_norm {cert.step_norm:.6f}, "
               f"bound {cert.remainder_bound:.6f}")


def test_criterion_4_cox():
    # softmax curvature-ratio fuzz
    rng = np.random.default_rng(9004)
    fuzz_failures = 0
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
        if not mc.softmax_ratio_check(w, a, s, t).ok:
            fuzz_failures += 1
        checked += 1

    # certificate suite vs exact partial-likelihood roots
    certified = 0
    violations = 0
    seed = 9300
    while certified < 50 and seed < 9450:
        seed += 1
        n = int(rng.integers(25, 61))
        p = int(rng.integers(1, 4))
        data = gen_survival_instance(n, p, seed=seed)
        try:
            root = mc.fit_cox(data, tol=1e-12)
        except mc.MestcertError:
            continue
        beta0 = root + rng.normal(size=p) * rng.choice((0.002, 0.01))
        cert = mc.certify_cox(data, beta0)
        if cert.condition_ok != (cert.mu_sup * cert.delta <= 1.0 / 16.0):
            violations += 1
        if not cert.condition_ok:
            continue
        certified += 1
        dist = np.linalg.norm(root - beta0)
        if not (cert.delta / 2 * (1 - 1e-8) <= dist <= cert.delta * (1 + 1e-8)):
            violations += 1
        err = np.linalg.norm(root - beta0 - cert.newton_step)
        bound = 8.0 * np.exp(0.25) * cert.delta ** 2 * cert.mu_sup
        if err > bound * (1 + 1e-8) + 1e-15:
            violations += 1
    report(4, "softmax lemma fuzz (1000 draws) and Cox certificates "
              "(threshold 1/16) sound against exact roots",
           fuzz_failures == 0 and certified >= 50 and violations == 0,
           f"{fuzz_failures} fuzz failures, {certified} certified, "
           f"{violations} violations")


def test_criterion_5_certified_loo():
    rng = np.random.default_rng(801)
    n, p = 500, 5
    x = rng.uniform(-1.0, 1.0, size=(n, p)) * 0.8
    theta_true = rng.normal(size=p) * 0.5
    y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-(x @ theta_true)))
         ).astype(float)
    data = mc.Dataset(X=x, y=y)
    fam = mc.make_family("logistic")
    theta_hat = mc.fit(data, fam, tol=1e-12)

    t_approx = np.inf
    for _ in range(3):  # min-of-3 to resist scheduler noise
        t0 = time.perf_counter()
        sweep = mc.loo_sweep(data, fam, theta_hat)
        t_approx = min(t_approx, time.perf_counter() - t0)

    # timing baseline: exact refits in their default configuration
    t0 = time.perf_counter()
    refits = [mc.loo_exact(data, fam, (i,), tol=1e-12) for i in range(n)]
    t_exact = time.perf_counter() - t0

    all_certified = all(e.certified for e in sweep.entries)
    violations = 0
    for entry, refit in zip(sweep.entries, refits):
        observed = np.linalg.norm(refit - entry.approx_estimate)
        if observed > entry.deviation_bound * (1 + 1e-8) + 1e-15:
            violations += 1

    # leave-k-out on 100 random subsets, |I| in {2, 5}
    rng2 = np.random.default_rng(802)
    sets = [tuple(sorted(rng2.choice(n, size=k, replace=False)))
            for k in (2, 5) for _ in range(50)]
    k_report = mc.loo_sweep(data, fam, theta_hat, index_sets=sets, exact=True)
    k_certified = 0
    k_violations = 0
    for entry in k_report.entries:
        if not entry.certified:
            continue
        k_certified += 1
        observed = np.linalg.norm(entry.exact_estimate - entry.approx_estimate)
        if observed > entry.deviation_bound * (1 + 1e-8) + 1e-15:
            k_violations += 1

    ok = (all_certified and violations == 0 and t_approx <= 0.1 * t_exact
          and k_certified >= 50 and k_violations == 0)
    report(5, "all 500 LOO folds certified and sound; approximate sweep "
              "within 10% of exact wall clock; leave-{2,5}-out sound",
           ok, f"{violations} violations, approx {t_approx:.3f}s vs exact "
               f"{t_exact:.3f}s, {k_certified} leave-k certified, "
               f"{k_violations} leave-k violations")


def test_criterion_6_nls():
    rng = np.random.default_rng(9006)
    link = mc.logistic_link()
    certified = 0
    failures = 0
    for seed in range(900, 916):
        data_rng = np.random.default_rng(seed)
        x = data_rng.normal(size=(80, 2)) * 0.8
        theta_true = data_rng.normal(size=2) * 0.7
        y = (1.0 / (1.0 + np.exp(-(x @ theta_true)))
             + data_rng.normal(size=80) * 0.05)
        data = mc.Dataset(X=x, y=y)
        root = mc.fit_nls(data, link, np.zeros(2), tol=1e-13)
        theta0 = root + rng.normal(size=2) * 0.004
        cert = mc.certify_nls(data, link, theta0)
        # condition formula verbatim
        thresholds = [(12.0 * l) ** (-1.0 / j)
                      for l, j in zip(cert.l_constants.as_tuple(),
                                      (2.0, 2.0, 1.0, 1.0)) if l > 0.0]
        if cert.condition_ok != (cert.delta <= min(thresholds)):
            failures += 1
        if not cert.condition_ok:
            continue
        certified += 1
        # multi-start oracle: every start that lands in the certified ball
        # must land on the same root
        roots_in_ball = []
        for start in ([0.0, 0.0], theta0, theta0 + 0.3, theta0 - 0.3,
                      theta0 + np.array([0.5, -0.5])):
            try:
                found = mc.fit_nls(data, link, np.asarray(start, float),
                                   tol=1e-13)
            except mc.MestcertError:
                continue
            if np.linalg.norm(found - theta0) <= cert.delta * (1 + 1e-9):
                if not any(np.linalg.norm(found - r) < 1e-7
                           for r in roots_in_ball):
                    roots_in_ball.append(found)
        if len(roots_in_ball) != 1:
            failures += 1
            continue
        err = np.linalg.norm(roots_in_ball[0] - theta0 - cert.newton_step)
        if err > cert.remainder_bound * (1 + 1e-8) + 1e-14:
            failures += 1
    report(6, "NLS certificates: verbatim (12 L_j)^(-1/j) condition, unique "
              "root in each certified ball, remainder within omega(delta)*delta",
           certified >= 12 and failures == 0,
           f"{certified} certified, {failures} failures")


def test_criterion_7_constrained():
    sq = mc.make_family("squared")
    data, _ = gen_glm_instance("squared", 60, 3, seed=9007)
    grad = lambda b: mc.score(data, sq, b)
    hess = lambda b: mc.hessian(data, sq, b)
    a = np.array([[1.0, 1.0, 1.0]])
    b_vec = np.array([1.0])
    beta0 = np.array([0.2, 0.3, 0.5])
    cert = mc.certify_constrained(grad, hess, a, b_vec, beta0, holder_l=0.0)
    point = mc.kkt_solve(grad, hess, a, b_vec, tol=1e-13)
    quad_gap = np.linalg.norm(beta0 + cert.step - point.beta)
    ok = cert.remainder_bound == 0.0 and quad_gap <= 1e-10

    # Poisson objective with a sum-to-zero constraint
    pdata, pfam = gen_glm_instance("poisson", 80, 3, seed=9107)
    pgrad = lambda b: mc.score(pdata, pfam, b)
    phess = lambda b: mc.hessian(pdata, pfam, b)
    a2 = np.array([[1.0, 1.0, 1.0]])
    b2 = np.zeros(1)
    ppoint = mc.kkt_solve(pgrad, phess, a2, b2, tol=1e-13)
    rng = np.random.default_rng(9207)
    checked = 0
    for scale in (0.002, 0.01):
        shift = rng.normal(size=3) * scale
        shift -= a2[0] * (a2[0] @ shift) / (a2[0] @ a2[0])
        beta_t = ppoint.beta + shift
        holder_l, alpha = mc.hessian_holder_constant(pdata, pfam, beta_t)
        pcert = mc.certify_constrained(pgrad, phess, a2, b2, beta_t,
                                       holder_l=holder_l, alpha=alpha)
        if not pcert.condition_ok:
            continue
        checked += 1
        err = np.linalg.norm(ppoint.beta - beta_t - pcert.step)
        ok &= err <= pcert.remainder_bound * (1 + 1e-8) + 1e-14

    # projector identity: the proof's oblique projector, conjugated by
    # H^(1/2), is an orthogonal projector of spectral norm exactly 1
    prng = np.random.default_rng(9307)
    proj_ok = True
    for _ in range(10):
        m = prng.normal(size=(4, 4))
        h = m @ m.T + 4.0 * np.eye(4)
        amat = prng.normal(size=(2, 4))
        hinv_at = np.linalg.solve(h, amat.T)
        proj = hinv_at @ np.linalg.solve(amat @ hinv_at, amat)
        w, v = np.linalg.eigh(h)
        sym = ((v * np.sqrt(w)) @ v.T) @ proj @ ((v / np.sqrt(w)) @ v.T)
        proj_ok &= abs(mc.op_norm(sym) - 1.0) <= 1e-8
        proj_ok &= mc.op_norm(proj @ proj - proj) <= 1e-8
    ok &= proj_ok and checked >= 2
    report(7, "constrained: quadratic case exact, Poisson sum-to-zero bound "
              "holds vs KKT oracle, projector-norm identity = 1 within 1e-8",
           ok, f"quadratic gap {quad_gap:.2e}, {checked} certified "
               f"poisson targets")


def test_criterion_8_derivative_oracles():
    rng = np.random.default_rng(9008)
    worst = 0.0

    def check(analytic, fd, scale):
        nonlocal worst
        gap = np.linalg.norm(np.asarray(analytic) - np.asarray(fd)) \
            / (1 + np.linalg.norm(np.asarray(analytic)))
        worst = max(worst, gap)
        assert gap <= 1e-5 * scale

    for kind, alpha in (("squared", None), ("logistic", None),
                        ("poisson", None), ("negbinomial", 1.1)):
        data, fam = gen_glm_instance(kind, 30, 2, seed=9408,
                                     alpha=alpha if alpha else 1.0)
        for _ in range(50):
            theta = rng.normal(size=2) * 0.4
            check(mc.score(data, fam, theta),
                  fd_jacobian(lambda t: objective(data, fam, t),
                              theta, 1e-6)[0], 1.0)
            check(mc.hessian(data, fam, theta),
                  fd_jacobian(lambda t: mc.score(data, fam, t),
                              theta, 1e-6), 1.0)

    sdata = gen_survival_instance(25, 2, seed=9508)
    for _ in range(50):
        beta = rng.normal(size=2) * 0.4
        check(mc.cox_score(sdata, beta),
              fd_jacobian(lambda bb: np.array([mc.cox_objective(sdata, bb)]),
                          beta, 1e-6)[0], 1.0)
        check(mc.cox_jacobian(sdata, beta),
              fd_jacobian(lambda bb: mc.cox_score(sdata, bb), beta, 1e-6),
              1.0)

    link = mc.logistic_link()
    ndata, _ = gen_glm_instance("squared", 30, 2, seed=9608)
    for _ in range(50):
        theta = rng.normal(size=2) * 0.4
        check(mc.nls_grad(ndata, link, theta),
              fd_jacobian(lambda t: mc.nls_objective(ndata, link, t),
                          theta, 1e-6)[0], 1.0)
        check(mc.nls_hess(ndata, link, theta),
              fd_jacobian(lambda t: mc.nls_grad(ndata, link, t),
                          theta, 1e-6), 1.0)
    report(8, "analytic gradients/Hessians in glm+cox+nls match central "
              "finite differences (50 random points each)",
           True, f"worst relative gap {worst:.2e}")


def test_criterion_9_cli_determinism(tmp_path):
    rng = np.random.default_rng(9009)
    n = 80
    x = rng.normal(size=(n, 2)) * 0.7
    theta = np.array([0.6, -0.4])
    y_logit = (rng.uniform(size=n)
               < 1.0 / (1.0 + np.exp(-(x @ theta)))).astype(float)
    lines = ["y,x1,x2"] + [f"{y_logit[i]},{x[i, 0]},{x[i, 1]}"
                           for i in range(n)]
    glm_csv = tmp_path / "glm.csv"
    glm_csv.write_text("\n".join(lines) + "\n")

    times = rng.exponential(size=n) * np.exp(-(x @ theta) * 0.5)
    status = (rng.uniform(size=n) < 0.8).astype(int)
    status[int(np.argmin(times))] = 1
    lines = ["y,x1,x2,time,status"] + [
        f"0,{x[i, 0]},{x[i, 1]},{times[i]},{status[i]}" for i in range(n)]
    surv_csv = tmp_path / "surv.csv"
    surv_csv.write_text("\n".join(lines) + "\n")

    models = tmp_path / "models.txt"
    models.write_text("1\n2\n1,2\n")
    cons = tmp_path / "cons.csv"
    cons.write_text("1.0,1.0,0.0\n")

    suite = [
        ["fit", str(glm_csv), "--family", "logistic"],
        ["certify", str(glm_csv), "--family", "logistic", "--target",
         "plug-in"],
        ["loo", str(glm_csv), "--family", "logistic", "--exact",
         "--subsets", "1,5-8", "--subsets", "12"],
        ["screen", str(glm_csv), "--family", "logistic"],
        ["posi", str(glm_csv), "--family", "logistic", "--models",
         str(models), "--exact"],
        ["cox-certify", str(surv_csv)],
        ["nls-certify", str(glm_csv), "--link", "logistic", "--target",
         "plug-in"],
        ["kkt", str(glm_csv), "--family", "logistic", "--constraints",
         str(cons)],
    ]
    identical = True
    for i, cmd in enumerate(suite):
        out1 = tmp_path / f"run1_{i}.json"
        out2 = tmp_path / f"run2_{i}.json"
        code1 = cli_main(cmd + ["--out", str(out1)])
        code2 = cli_main(cmd + ["--out", str(out2)])
        assert code1 == 0 and code2 == 0, (cmd, code1, code2)
        payload1 = out1.read_bytes()
        identical &= payload1 == out2.read_bytes()
        json.loads(payload1)  # every report is valid JSON
    report(9, "repeated runs of the full CLI suite produce byte-identical "
              "JSON", identical, f"{len(suite)} commands")
