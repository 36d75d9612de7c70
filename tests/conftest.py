"""Shared data generators for the test suite.

Everything is seeded: the suite asserts zero violations over fixed instance
pools, so draws must be reproducible run to run.
"""

import copy
import dataclasses

import numpy as np
import pytest

from mestcert import Dataset, SurvivalDataset, make_family, numkit


def _expit(u):
    return 1.0 / (1.0 + np.exp(-u))


@pytest.fixture
def factor_calls(monkeypatch):
    """A list that grows by one on every call of the package's LU core."""
    calls = []
    factor = numkit._factor

    def counted(a):
        calls.append(1)
        return factor(a)

    monkeypatch.setattr(numkit, "_factor", counted)
    return calls


def assert_certificate_owns_inputs(certify, *arrays):
    """``certify(*arrays)`` returns a certificate none of whose fields moves
    when every input array is overwritten after the call."""
    cert = certify(*arrays)
    before = copy.deepcopy(cert)
    for a in arrays:
        a[...] = 7.0
    for field in dataclasses.fields(cert):
        np.testing.assert_array_equal(getattr(cert, field.name),
                                      getattr(before, field.name),
                                      err_msg=field.name)


def bits(obj):
    """Every array and scalar inside ``obj`` -- dataclasses, lists and
    tuples of them -- as bytes, for bitwise comparison of whole results."""
    if dataclasses.is_dataclass(obj):
        return tuple(bits(getattr(obj, f.name))
                     for f in dataclasses.fields(obj))
    if isinstance(obj, (list, tuple)):
        return tuple(map(bits, obj))
    return None if obj is None else np.asarray(obj).tobytes()


def gen_glm_instance(kind, n, p, seed, x_scale=None, alpha=1.0):
    """Seeded dataset + family for one of the built-in kinds.

    Covariates are scaled so that linear predictors stay moderate, which
    keeps count responses bounded and certificate conditions attainable at
    targets near the root.
    """
    rng = np.random.default_rng(seed)
    if x_scale is None:
        x_scale = 1.0 / np.sqrt(p)
    x = rng.normal(size=(n, p)) * x_scale
    theta = rng.normal(size=p) * 0.5
    u = x @ theta
    if kind == "squared":
        y = u + rng.normal(size=n)
        family = make_family("squared")
    elif kind == "logistic":
        y = (rng.uniform(size=n) < _expit(u)).astype(float)
        family = make_family("logistic")
    elif kind == "poisson":
        y = rng.poisson(np.exp(u)).astype(float)
        family = make_family("poisson")
    elif kind == "negbinomial":
        y = rng.poisson(np.exp(u)).astype(float)
        family = make_family("negbinomial", alpha=alpha)
    else:
        raise ValueError(kind)
    return Dataset(X=x, y=y), family


def gen_survival_instance(n, p, seed, beta_scale=0.5, x_scale=None):
    """Seeded survival data: exponential-like times tilted by the linear
    predictor, independent uniform censoring, at least one event."""
    rng = np.random.default_rng(seed)
    if x_scale is None:
        x_scale = 1.0 / np.sqrt(p)
    x = rng.normal(size=(n, p)) * x_scale
    beta = rng.normal(size=p) * beta_scale
    raw = rng.exponential(size=n) * np.exp(-(x @ beta))
    censor = rng.uniform(0.5, 4.0, size=n)
    time = np.minimum(raw, censor)
    status = raw <= censor
    if not status.any():
        status[int(np.argmin(time))] = True
    return SurvivalDataset(X=x, time=time, status=status)
