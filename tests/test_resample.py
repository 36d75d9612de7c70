import dataclasses
import pickle
import warnings

import loo_reference as ref
import numpy as np
import pytest
from conftest import gen_glm_instance
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mestcert import (ConvergenceError, Dataset, InvalidInputError,
                      SingularMatrixError, loo_exact, loo_sweep, make_family,
                      posi_sweep, screen_marginal)
from mestcert import certify, fit, hessian, resample
from mestcert.numkit import op_norm

SQ = make_family("squared")


class TestLooApprox:
    def test_squared_always_certified_and_bound_shape(self):
        data, _ = gen_glm_instance("squared", 50, 2, seed=601)
        theta_hat = fit(data, SQ, tol=1e-12)
        entry = loo_sweep(data, SQ, theta_hat, [(3,)]).entries[0]
        assert entry.certified
        # with a constant curvature ratio the bound collapses to
        # 1.5 * delta_I * curvature-mass term
        qhat = hessian(data, SQ, theta_hat)
        i = 3
        h_i = 2.0 * np.outer(data.X[i], data.X[i])
        t = op_norm(np.linalg.solve(qhat, h_i)) / data.n_obs
        assert entry.deviation_bound == pytest.approx(1.5 * entry.delta_i * t,
                                                      rel=1e-12)

    def test_zero_residual_duplicate_row(self):
        # exact-fit data with a duplicated observation: deleting one copy
        # moves nothing, and the certificate says so exactly
        rng = np.random.default_rng(602)
        x = rng.normal(size=(20, 2))
        x[7] = x[12]  # duplicate
        theta_star = np.array([0.8, -0.5])
        data = Dataset(X=x, y=x @ theta_star)
        theta_hat = fit(data, SQ, tol=1e-13)
        entry = loo_sweep(data, SQ, theta_hat, [(7,)]).entries[0]
        np.testing.assert_allclose(entry.approx_estimate, theta_hat,
                                   atol=1e-12)
        assert entry.deviation_bound >= 0.0
        refit = loo_exact(data, SQ, (7,))
        np.testing.assert_allclose(refit, theta_hat, atol=1e-10)

    def test_requires_root(self):
        data, fam = gen_glm_instance("logistic", 40, 2, seed=603)
        with pytest.raises(InvalidInputError, match="not a root"):
            loo_sweep(data, fam, np.array([5.0, 5.0]), [(0,)])

    def test_index_validation(self):
        data, _ = gen_glm_instance("squared", 10, 1, seed=604)
        theta_hat = fit(data, SQ, tol=1e-12)
        for bad in ((), (10,), (-1,), (0, 0), tuple(range(10))):
            with pytest.raises(InvalidInputError):
                loo_sweep(data, SQ, theta_hat, [bad])

    def test_non_integer_indices_rejected(self):
        # a float index is an error, not truncated to the row below it
        data, _ = gen_glm_instance("squared", 10, 1, seed=604)
        theta_hat = fit(data, SQ, tol=1e-12)
        # a bool is not read as row 0 or 1, whether Python's or numpy's
        for bad in ((1.7, 2.9), (np.float64(3.0),), ("1",), (True, False),
                    (np.True_,)):
            with pytest.raises(InvalidInputError, match="integers"):
                loo_sweep(data, SQ, theta_hat, index_sets=[bad])
            with pytest.raises(InvalidInputError, match="integers"):
                loo_exact(data, SQ, bad)
        # numpy integers are indices
        entry = loo_sweep(data, SQ, theta_hat, [(np.int64(3),)]).entries[0]
        assert entry.indices == (3,)

    def test_denominator_collapse_not_certified(self):
        # one observation carries the entire curvature of its direction:
        # the leverage denominator is exactly zero and no bound is claimed
        x = np.zeros((6, 2))
        x[:5, 0] = 1.0
        x[5, 1] = 1.0
        y = np.zeros(6)
        data = Dataset(X=x, y=y)
        theta_hat = fit(data, SQ, tol=1e-13)
        entry = loo_sweep(data, SQ, theta_hat, [(5,)]).entries[0]
        assert not entry.certified
        assert entry.delta_i == np.inf
        assert entry.deviation_bound == np.inf

    def test_singleton_matches_sweep_bitwise(self):
        data, fam = gen_glm_instance("logistic", 60, 2, seed=605)
        theta_hat = fit(data, fam, tol=1e-12)
        report = loo_sweep(data, fam, theta_hat)
        for i in (0, 17, 59):
            single = loo_sweep(data, fam, theta_hat, [(i,)]).entries[0]
            entry = report.entries[i]
            assert entry.indices == (i,)
            assert single.delta_i == entry.delta_i
            assert single.deviation_bound == entry.deviation_bound
            np.testing.assert_array_equal(single.approx_estimate,
                                          entry.approx_estimate)

    def test_report_owns_theta_hat(self):
        # a twin of conftest.assert_certificate_owns_inputs for a report
        data, fam = gen_glm_instance("logistic", 30, 2, seed=617)
        theta_hat = fit(data, fam)
        report = loo_sweep(data, fam, theta_hat)
        want = report.theta_hat.copy()
        theta_hat[...] = 7.0
        assert report.theta_hat.tobytes() == want.tobytes()


class TestLooSoundness:
    @pytest.mark.parametrize("kind,n,floor", [("squared", 100, 100),
                                              ("logistic", 120, 30),
                                              ("poisson", 100, 30)])
    def test_singletons_within_bound(self, kind, n, floor):
        data, fam = gen_glm_instance(kind, n, 3, seed=606)
        theta_hat = fit(data, fam, tol=1e-12)
        report = loo_sweep(data, fam, theta_hat, exact=True)
        certified = 0
        for entry in report.entries:
            if not entry.certified:
                continue
            certified += 1
            observed = np.linalg.norm(entry.exact_estimate
                                      - entry.approx_estimate)
            assert observed <= entry.deviation_bound * (1 + 1e-8) + 1e-15
        # squared certifies unconditionally; curvature conditions thin the
        # exponential families out at this modest sample size
        assert certified >= floor

    def test_leave_k_out(self):
        data, fam = gen_glm_instance("squared", 150, 3, seed=607)
        theta_hat = fit(data, SQ, tol=1e-12)
        rng = np.random.default_rng(608)
        sets = [tuple(sorted(rng.choice(150, size=k, replace=False)))
                for k in (2, 5) for _ in range(15)]
        report = loo_sweep(data, SQ, theta_hat, index_sets=sets, exact=True)
        assert len(report.entries) == len(set(sets))
        certified = 0
        for entry in report.entries:
            assert entry.certified  # constant curvature ratio
            certified += 1
            observed = np.linalg.norm(entry.exact_estimate
                                      - entry.approx_estimate)
            assert observed <= entry.deviation_bound * (1 + 1e-8) + 1e-15
        assert certified == 30

    def test_exact_refit_failure_surfaces(self):
        data, _ = gen_glm_instance("squared", 10, 2, seed=609)
        with pytest.raises(SingularMatrixError):
            loo_exact(data, SQ, tuple(range(9)))  # one row left, p = 2


def _tilt(row):
    return 1.0 + 0.5 * np.tanh(row[0])


class TestLooOverflow:
    def test_overflowing_fold_is_uncertified_not_a_warning(self):
        # a far-reaching fold overflows exp(3 * 1.5 * delta_I * ||X_i||):
        # it reads as uncertified with an infinite bound, with no
        # RuntimeWarning
        data, _ = gen_glm_instance("logistic", 60, 20, seed=5)
        fam = make_family("logistic", weight=_tilt)
        theta_hat = fit(data, fam, tol=1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = loo_sweep(data, fam, theta_hat)
        overflowed = [e for e in report.entries if np.isfinite(e.delta_i)
                      and e.deviation_bound == np.inf]
        assert overflowed
        assert not any(e.certified for e in overflowed)


def _logcosh_family(weight):
    # l(u, y) = log cosh(u - y): sech^2(s) / sech^2(t) <= exp(2 |s - t|)
    return make_family(
        "custom",
        eval0=lambda u, y: np.logaddexp(u - y, y - u) - np.log(2.0),
        eval1=lambda u, y: np.tanh(u - y),
        eval2=lambda u, y: 1.0 / np.cosh(u - y) ** 2,
        cbound=lambda u: np.exp(2.0 * np.asarray(u, dtype=float)),
        weight=weight)


def _logistic_poisson_family(weight):
    # logistic + 0.5 poisson: the ratio of a sum of positive curvatures lies
    # between the ratios of its terms, so the larger bound covers the sum
    lg, po = make_family("logistic"), make_family("poisson")
    return make_family(
        "custom",
        eval0=lambda u, y: lg.eval0(u, y) + 0.5 * po.eval0(u, y),
        eval1=lambda u, y: lg.eval1(u, y) + 0.5 * po.eval1(u, y),
        eval2=lambda u, y: lg.eval2(u, y) + 0.5 * po.eval2(u, y),
        cbound=lambda u: np.maximum(lg.cbound(u), po.cbound(u)),
        weight=weight)


@st.composite
def deletion_cases(draw):
    """A dataset, a family and a list of index sets of mixed sizes.

    Families: the built-ins, a combined family and a custom one, with or
    without row weights. Rows may tie for the largest norm (sign flips of
    the max-norm row keep its norm bit for bit), and a block of one or two
    rows may alone carry an extra direction, so that deleting the block
    collapses the leverage denominator. The sets include the max-norm row,
    the top k rows, the collapsing block and random sets of sizes 1-5.
    """
    kind = draw(st.sampled_from(["squared", "logistic", "poisson", "combine",
                                 "custom"]))
    n = draw(st.integers(8, 60))
    p = draw(st.integers(1, 4))
    ties = draw(st.integers(0, 3))
    block = draw(st.sampled_from([0, 1, 2]))
    weight = _tilt if draw(st.booleans()) else None
    scale = draw(st.sampled_from([0.3, 1.0, 2.0]))
    all_singletons = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    x = rng.normal(size=(n, p)) * scale / np.sqrt(p)
    top = int(np.argmax(np.linalg.norm(x, axis=1)))
    for j in range(1, ties + 1):
        x[(top + j) % n] = x[top] * rng.choice([-1.0, 1.0], size=p)
    u = x @ (rng.normal(size=p) * 0.5)
    if kind in ("logistic", "combine"):
        y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-u))).astype(float)
    elif kind == "poisson":
        y = rng.poisson(np.exp(u)).astype(float)
    else:
        y = u + rng.normal(size=n)
    if block:
        # a root exists in the extra direction: y = 1/2 for one row, 0 and
        # 1 for two
        x = np.block([[x, np.zeros((n, 1))],
                      [np.zeros((block, p)), np.full((block, 1), scale)]])
        y = np.concatenate([y, [0.5] if block == 1 else [0.0, 1.0]])
    data = Dataset(X=x, y=y)
    if kind == "combine":
        family = _logistic_poisson_family(weight)
    elif kind == "custom":
        family = _logcosh_family(weight)
    else:
        family = make_family(kind, weight=weight)

    rows = data.n_obs
    by_norm = np.argsort(-np.linalg.norm(x, axis=1), kind="stable")
    sets = [tuple(by_norm[:k]) for k in (1, 2, 3)]
    sets += [(i,) for i in range(rows)] if all_singletons else []
    sets += [tuple(rng.choice(rows, size=draw(st.integers(1, 5)),
                              replace=False))
             for _ in range(draw(st.integers(1, 12)))]
    if block:
        sets.append(tuple(range(n, rows)))
    return data, family, sets


@settings(max_examples=150, deadline=None, derandomize=True)
@given(deletion_cases())
def test_kernel_matches_reference_property(case):
    data, family, sets = case
    try:
        theta_hat = fit(data, family, tol=1e-12)
    except (ConvergenceError, SingularMatrixError):
        assume(False)
    report = loo_sweep(data, family, theta_hat, index_sets=sets)
    expected = ref.loo_entries(data, family, theta_hat,
                               sorted({tuple(sorted(s)) for s in sets}))
    assert len(report.entries) == len(expected)
    scale = 1.0 + np.linalg.norm(theta_hat)
    for got, want in zip(report.entries, expected):
        assert got.indices == want.indices
        np.testing.assert_allclose(got.approx_estimate, want.approx_estimate,
                                   rtol=0.0, atol=1e-12 * scale)
        np.testing.assert_allclose(got.delta_i, want.delta_i, rtol=1e-9)
        np.testing.assert_allclose(got.deviation_bound, want.deviation_bound,
                                   rtol=1e-9)
        assert got.certified == want.certified


class TestBulkEntries:
    def test_bulk_built_entries_match_constructed_ones(self):
        data, fam = gen_glm_instance("logistic", 40, 3, seed=690)
        theta_hat = fit(data, fam, tol=1e-12)
        report = loo_sweep(data, fam, theta_hat,
                           index_sets=[(0,), (5,), (1, 2), (3, 4, 9)])
        for entry in report.entries:
            built = resample.LooEntry(entry.indices, entry.approx_estimate,
                                      entry.delta_i, entry.certified,
                                      entry.deviation_bound)
            assert list(vars(entry).items()) == list(vars(built).items())
            assert repr(entry) == repr(built)
            refit = np.full(3, 0.5)
            assert repr(dataclasses.replace(entry, exact_estimate=refit)) == \
                repr(dataclasses.replace(built, exact_estimate=refit))
            assert pickle.dumps(entry) == pickle.dumps(built)
            assert repr(pickle.loads(pickle.dumps(entry))) == repr(built)
            with pytest.raises(dataclasses.FrozenInstanceError):
                entry.delta_i = 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_top_rows_match_a_full_stable_sort(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        levels = rng.choice([1, 2, 3, n], p=[0.3, 0.3, 0.2, 0.2])
        norms = rng.integers(0, levels, size=n) * 0.5  # heavy ties
        for c in range(n + 2):
            assert resample._top_rows(norms, c).tolist() == \
                np.argsort(-norms, kind="stable")[:c].tolist()

    @pytest.mark.parametrize("seed", range(4))
    def test_first_retained_row_is_the_largest_retained_norm(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        levels = rng.choice([1, 2, 3, n], p=[0.3, 0.3, 0.2, 0.2])
        norms = rng.integers(0, levels, size=n) * 0.5  # heavy ties
        for k in range(1, n):
            top = resample._top_rows(norms, k + 1)
            rows = np.sort(np.array([rng.choice(n, size=k, replace=False)
                                     for _ in range(6)]), axis=1)
            chosen = resample._first_retained(rows, top, n)
            broadcast = top[np.argmin((rows[:, :, None] == top).any(axis=1),
                                      axis=1)]
            np.testing.assert_array_equal(chosen, broadcast)
            for row, pick in zip(rows, chosen):
                kept = np.setdiff1d(np.arange(n), row)
                assert pick == kept[np.argmax(norms[kept])]


def test_one_row_sweep_reports_a_collapsed_fold():
    data = Dataset(X=[[2.0]], y=[1.0])
    entry, = loo_sweep(data, SQ, fit(data, SQ)).entries
    assert entry.indices == (0,) and entry.delta_i == np.inf
    assert not entry.certified and entry.deviation_bound == np.inf


def _outcome(f, *args):
    """``f(*args)`` or the message of the error it raised."""
    try:
        return "ok", repr(f(*args))
    except InvalidInputError as exc:
        return "error", str(exc)


@st.composite
def index_set_lists(draw):
    """Lists of index sets that are mostly same-size and valid, with the
    kinds of entry and set the per-set check rejects mixed in: bools,
    floats, out-of-range values, duplicates, empty and ragged sets."""
    n = draw(st.integers(1, 9))
    size = draw(st.integers(0, 4))
    plain = st.integers(0, n - 1) | st.integers(0, n - 1).map(np.int64)
    odd = (st.integers(-2, n + 1) | st.booleans() | st.just(np.True_)
           | st.sampled_from([0.0, 1.0, 2.5]) | st.integers(0, n).map(np.int32))
    entries = plain | odd if draw(st.booleans()) else plain
    ragged = draw(st.booleans())
    sets = []
    for _ in range(draw(st.integers(0, 8))):
        k = draw(st.integers(0, 4)) if ragged else size
        items = draw(st.lists(entries, min_size=k, max_size=k))
        sets.append(draw(st.sampled_from([tuple, list, np.array]))(items))
    return sets, n


@settings(max_examples=300, deadline=None, derandomize=True)
@given(index_set_lists())
def test_bulk_index_set_check_matches_per_set_check(case):
    sets, n = case
    assert _outcome(resample._check_index_sets, sets, n) == _outcome(
        lambda: sorted({resample._check_index_set(s, n) for s in sets}))


def test_same_size_integer_sets_take_the_bulk_path():
    sets = [(3, 1), (np.int64(1), 3), [0, 2], np.array([4, 0])]
    assert resample._same_size_rows(sets).tolist() == [[3, 1], [1, 3],
                                                       [0, 2], [4, 0]]
    assert resample._check_index_sets(sets, 5) == [(0, 2), (0, 4), (1, 3)]
    for other in ([(1, True)], [(1, 2), (3,)], [(1.0, 2)], [{1, 2}], []):
        assert resample._same_size_rows(other) is None


class TestScreenMarginal:
    def test_single_coordinate_reduces_to_glm_certificate(self):
        data, fam = gen_glm_instance("logistic", 80, 1, seed=610)
        report = screen_marginal(data, fam, targets=np.array([0.1]))
        coord = report.coordinates[0]
        cert = certify(data, fam, np.array([0.1]))
        assert coord.delta == pytest.approx(cert.delta, rel=1e-12)
        assert coord.expansion_bound == pytest.approx(
            cert.expansion_bound_empirical, rel=1e-12, abs=1e-15)
        assert coord.certified == cert.condition_ok

    def test_plug_in_squared_is_near_zero(self):
        data, _ = gen_glm_instance("squared", 60, 4, seed=611)
        report = screen_marginal(data, SQ)
        assert report.all_certified
        assert report.target_source == "plug-in"
        assert report.max_stat_bound <= 1e-10
        for coord in report.coordinates:
            assert coord.target == coord.estimate

    def test_poisson_envelope_against_refits(self):
        data, fam = gen_glm_instance("poisson", 150, 10, seed=612)
        rng = np.random.default_rng(613)
        fits = np.array([
            fit(data.subset_columns([j]), fam, tol=1e-12)[0]
            for j in range(10)])
        targets = fits + rng.normal(size=10) * 0.01
        report = screen_marginal(data, fam, targets=targets)
        assert report.all_certified
        for j, coord in enumerate(report.coordinates):
            dist = abs(fits[j] - targets[j])
            assert coord.delta / 2 * (1 - 1e-8) <= dist <= coord.delta * (1 + 1e-8)
        assert abs(fits.max() - targets.max()) <= report.max_stat_bound

    def test_uncertified_coordinate_blanks_envelope(self):
        x = np.zeros((10, 2))
        x[:, 0] = np.linspace(1.0, 2.0, 10)  # second column identically zero
        data = Dataset(X=x, y=x[:, 0] * 2.0)
        report = screen_marginal(data, SQ)
        assert not report.all_certified
        assert report.max_stat_bound == np.inf
        assert not report.coordinates[1].certified

    def test_reference_curvatures_flagged_and_used(self):
        data, _ = gen_glm_instance("squared", 40, 2, seed=622)
        plugin = screen_marginal(data, SQ, targets=np.array([0.1, -0.2]))
        assert plugin.q_source == "plug-in"
        q_refs = np.array([
            2.0 * float(np.mean(data.X[:, j] ** 2)) * 1.1 for j in range(2)])
        refd = screen_marginal(data, SQ, targets=np.array([0.1, -0.2]),
                               q_refs=q_refs)
        assert refd.q_source == "reference"
        for cp, cr in zip(plugin.coordinates, refd.coordinates):
            assert cr.expansion_bound > cp.expansion_bound  # mismatch term

    def test_bad_targets(self):
        data, _ = gen_glm_instance("squared", 20, 2, seed=614)
        with pytest.raises(InvalidInputError):
            screen_marginal(data, SQ, targets="bogus")
        with pytest.raises(InvalidInputError):
            screen_marginal(data, SQ, targets=np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_inputs_raise_before_any_fit(self, bad, monkeypatch):
        data, _ = gen_glm_instance("squared", 20, 3, seed=616)
        fits = []
        monkeypatch.setattr(resample.glm, "fit",
                            lambda *args, **kw: fits.append(1))
        with pytest.raises(InvalidInputError, match="targets"):
            screen_marginal(data, SQ, targets=[bad, 0.0, 0.0])
        with pytest.raises(InvalidInputError, match="q_refs"):
            screen_marginal(data, SQ, q_refs=[1.0, 1.0, bad])
        assert fits == []


class TestPosiSweep:
    def test_squared_models_exact(self):
        data, _ = gen_glm_instance("squared", 50, 2, seed=615)
        report = posi_sweep(data, SQ, [[0], [1], [0, 1]], exact=True)
        assert report.uniform_condition_ok
        assert [m.indices for m in report.models] == [(0,), (0, 1), (1,)]
        for m in report.models:
            cert = m.certificate
            assert cert.expansion_bound_empirical == 0.0
            np.testing.assert_allclose(cert.target + cert.newton_step,
                                       m.exact_estimate, atol=1e-10)

    def test_singletons_match_screen(self):
        data, fam = gen_glm_instance("logistic", 70, 3, seed=616)
        report = posi_sweep(data, fam, [[j] for j in range(3)])
        screen = screen_marginal(data, fam)
        for m, coord in zip(report.models, screen.coordinates):
            assert m.certificate.delta == pytest.approx(coord.delta,
                                                        rel=1e-10, abs=1e-12)

    def test_logistic_all_small_subsets(self):
        data, fam = gen_glm_instance("logistic", 200, 6, seed=617)
        models = [[j] for j in range(6)]
        models += [[i, j] for i in range(6) for j in range(i + 1, 6)]
        assert len(models) == 21
        rng = np.random.default_rng(618)
        targets = {}
        for m in models:
            key = tuple(m)
            refit = fit(data.subset_columns(key), fam, tol=1e-12)
            targets[key] = refit + rng.normal(size=len(key)) * 0.005
        report = posi_sweep(data, fam, models, targets=targets, exact=True)
        certified = 0
        for m in report.models:
            cert = m.certificate
            if not cert.condition_ok:
                continue
            certified += 1
            dist = np.linalg.norm(m.exact_estimate - cert.target)
            assert cert.delta / 2 * (1 - 1e-8) <= dist <= cert.delta * (1 + 1e-8)
            err = np.linalg.norm(m.exact_estimate - cert.target
                                 - cert.newton_step)
            assert err <= cert.expansion_bound_empirical * (1 + 1e-8) + 1e-14
        assert certified >= 15
        assert report.uniform_condition_ok == all(
            m.certificate.condition_ok for m in report.models)

    def test_duplicates_deduplicated_silently(self):
        data, _ = gen_glm_instance("squared", 30, 2, seed=619)
        report = posi_sweep(data, SQ, [[0], [0], (0,), [1, 0], [0, 1]])
        assert [m.indices for m in report.models] == [(0,), (0, 1)]

    def test_cap_enforced(self, monkeypatch):
        data, _ = gen_glm_instance("squared", 30, 3, seed=620)
        monkeypatch.setattr(resample, "POSI_CAP", 2)
        with pytest.raises(InvalidInputError, match="cap of 2"):
            posi_sweep(data, SQ, [[0], [1], [2]])
        # duplicates count once
        assert len(posi_sweep(data, SQ, [[0], [0], [1, 0], [0, 1]]).models) == 2

    def test_model_validation(self):
        data, _ = gen_glm_instance("squared", 30, 2, seed=621)
        with pytest.raises(InvalidInputError):
            posi_sweep(data, SQ, [[]])
        with pytest.raises(InvalidInputError):
            posi_sweep(data, SQ, [[2]])
        with pytest.raises(InvalidInputError):
            posi_sweep(data, SQ, [[0]], targets={})

    def test_non_integer_columns_rejected(self):
        data, _ = gen_glm_instance("squared", 30, 2, seed=621)
        for bad in ([0.5, 1.2], [np.float64(1.0)], [True], [np.True_]):
            with pytest.raises(InvalidInputError, match="integers"):
                posi_sweep(data, SQ, [bad])
