"""Seeded inputs and job cycles of the three benchmark workloads.

A workload builds its inputs from the seed once (that is part of set-up)
and exposes a fixed *cycle* of jobs. A job is one public-API pipeline that
produces one report; the timed loop runs whole cycles, so every run sees
the same job mix whatever its length. ``rationale.json`` records why each
workload exists and which layers it loads or bypasses.

Each workload answers, for one job: run it (the timed part), turn the raw
return into an :class:`Outcome` (untimed), and check a seeded sample of its
certificates against the independent oracles in :mod:`oracle`.
"""

import dataclasses
import hashlib
import json
import math
import os
from typing import Any, Optional

import numpy as np

import oracle
from mestcert import cli, cox, glm, losses, resample

SIZES = {
    "full": {
        "deletion": {"p": 20, "ns": (500, 1000, 2000), "n_sets": 200,
                     "set_size": 5},
        "cox": {"p": 5, "ns": (150, 300, 600), "tie_levels": 20,
                "replicates": 3},
        "cli": {"logit": (10000, 20), "pois": (2000, 10), "surv": (300, 5),
                "models": 20, "subsets": 4},
    },
    # tiny inputs for the self-test: every code path, a fraction of a second
    "smoke": {
        "deletion": {"p": 4, "ns": (60, 90, 120), "n_sets": 10,
                     "set_size": 3},
        "cox": {"p": 3, "ns": (30, 45, 60), "tie_levels": 8,
                "replicates": 1},
        "cli": {"logit": (300, 5), "pois": (200, 4), "surv": (60, 3),
                "models": 4, "subsets": 2},
    },
}

#: rows of the CSV timed by the cold-start samples
COLD_START_ROWS = 50
#: rows of the CSVs the cli warm-up runs every subcommand on
WARM_UP_ROWS = 200
#: per-job caps on how many certificates the oracle recomputes
ORACLE_PER_JOB = {"deletion": 2, "screen": 5, "posi": 5}


class BenchError(Exception):
    """A job returned output of the wrong shape."""


@dataclasses.dataclass
class Job:
    """One pipeline call: ``key`` names it, ``spec`` holds its inputs."""

    key: str
    spec: Any


@dataclasses.dataclass
class Outcome:
    """What one job produced, as the benchmark judges it."""

    failed: bool            # raised, or a non-zero CLI exit code
    certs: int              # certificates emitted
    digest: Optional[str]   # hash of the full output, for rerun identity
    value: Any              # the output itself, for the oracle


def _row_weight(row):
    """Per-row weight callback handed to the library (one Python call per
    row, as a user-supplied ``weight=`` would be)."""
    return 1.0 + 0.5 * math.tanh(row[0])


def _row_weights_oracle(x):
    return 1.0 + 0.5 * np.tanh(x[:, 0])


def _h2(row):
    """Cox risk-set weight callback."""
    return 1.0 + 0.5 * math.tanh(row[-1])


def _h2_oracle(x):
    return 1.0 + 0.5 * np.tanh(x[:, -1])


def _true_coef(rng, p):
    """Coefficients of norm ``0.5 sqrt(p)`` in a seeded direction: the
    seed moves the data, not how hard the fit is."""
    v = rng.normal(size=p)
    return v / np.linalg.norm(v) * 0.5 * np.sqrt(p)


def _glm_arrays(rng, kind, n, p):
    x = rng.normal(size=(n, p)) / np.sqrt(p)
    u = x @ _true_coef(rng, p)
    if kind == "logistic":
        y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-u))).astype(float)
    else:
        y = rng.poisson(np.exp(u)).astype(float)
    return x, y


def _survival_arrays(rng, n, p, tie_levels=None):
    x = rng.normal(size=(n, p)) / np.sqrt(p)
    raw = rng.exponential(size=n) * np.exp(-(x @ _true_coef(rng, p)))
    censor = rng.uniform(0.5, 4.0, size=n)
    time = np.minimum(raw, censor)
    status = raw <= censor
    if not status.any():
        status[int(np.argmin(time))] = True
    if tie_levels:
        top = float(time.max())
        time = np.ceil(time / top * tie_levels) / tie_levels * top
    return x, time, status


def _hash_arrays(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h


def _pick(rng, items, k):
    items = list(items)
    if len(items) <= k:
        return items
    return [items[i] for i in sorted(rng.choice(len(items), k, replace=False))]


class Workload:
    """Common shape of a workload; subclasses fill in the job semantics."""

    name = ""

    def __init__(self, seed, size, workdir):
        self.seed = int(seed)
        self.size = SIZES[size][self.name]
        self.workdir = workdir
        self.rng = np.random.default_rng([self.seed, _TAGS[self.name]])
        self.jobs = []

    def execute(self, job):
        """The timed call; returns the raw result."""
        raise NotImplementedError

    def outcome(self, job, raw):
        """Judge a raw result (untimed); raises BenchError when malformed."""
        raise NotImplementedError

    def oracle(self, job, out, rng):
        """Recompute a sample of the job's certificates; one bool per
        checked certificate, True when the exact root agrees."""
        raise NotImplementedError

    def traced_jobs(self, tracer):
        """The job cycle with the benchmark-built families and callbacks
        wrapped for tracing."""
        return self.jobs

    def warm_up(self):
        self.execute(self.jobs[0])

    def cold_start_argv(self):
        """Arguments of the CLI process the cold-start samples time."""
        raise NotImplementedError


# ------------------------------------------------------------------ #
# deletion: glm.fit + one loo_sweep per job
# ------------------------------------------------------------------ #

@dataclasses.dataclass
class _DeletionSpec:
    kind: str
    data: glm.Dataset
    family: losses.LossFamily
    weights: np.ndarray       # the oracle's own copy of the row weights
    sets: Optional[list]      # None: all singletons


class DeletionWorkload(Workload):
    """GLM fits followed by certified leave-one/k-out sweeps."""

    name = "deletion"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        s = self.size
        for kind in ("logistic", "poisson"):
            for weighted in (False, True):
                for n in s["ns"]:
                    x, y = _glm_arrays(self.rng, kind, n, s["p"])
                    data = glm.Dataset(X=x, y=y)
                    family = losses.make_family(
                        kind, weight=_row_weight if weighted else None)
                    w = _row_weights_oracle(x) if weighted else np.ones(n)
                    tag = f"{kind}{'-w' if weighted else ''}-n{n}"
                    self.jobs.append(Job(f"{tag}-singletons", _DeletionSpec(
                        kind, data, family, w, None)))
                    # leave-k jobs on the n=1000 and n=2000 datasets only:
                    # with 12 singleton and 8 leave-k jobs a cycle, the
                    # median falls inside the n=500 singleton group and the
                    # p90 inside the n=2000 one, never in a gap between
                    # groups of jobs
                    if n != s["ns"][0]:
                        sets = [tuple(self.rng.choice(n, s["set_size"],
                                                      replace=False))
                                for _ in range(s["n_sets"])]
                        self.jobs.append(Job(
                            f"{tag}-leave{s['set_size']}",
                            _DeletionSpec(kind, data, family, w, sets)))
        self._small = glm.Dataset(*_glm_arrays(self.rng, "poisson",
                                               COLD_START_ROWS, 5))

    def execute(self, job):
        spec = job.spec
        theta = glm.fit(spec.data, spec.family)
        return theta, resample.loo_sweep(spec.data, spec.family, theta,
                                         index_sets=spec.sets)

    def outcome(self, job, raw):
        theta, report = raw
        spec = job.spec
        expected = (spec.data.n_obs if spec.sets is None
                    else len({tuple(sorted(int(i) for i in s))
                              for s in spec.sets}))
        if len(report.entries) != expected:
            raise BenchError(f"{job.key}: {len(report.entries)} folds, "
                             f"expected {expected}")
        if not np.all(np.isfinite(theta)):
            raise BenchError(f"{job.key}: non-finite estimate")
        h = _hash_arrays(theta)
        for e in report.entries:
            h.update(np.asarray(e.indices, dtype=np.int64).tobytes())
            h.update(e.approx_estimate.tobytes())
            h.update(np.array([e.delta_i, e.deviation_bound,
                               float(e.certified)]).tobytes())
        return Outcome(False, len(report.entries), h.hexdigest(), raw)

    def oracle(self, job, out, rng):
        spec = job.spec
        _, report = out.value
        x, y = spec.data.X, spec.data.y
        checks = []
        certified = [e for e in report.entries if e.certified]
        for e in _pick(rng, certified, ORACLE_PER_JOB["deletion"]):
            keep = np.ones(x.shape[0], dtype=bool)
            keep[list(e.indices)] = False
            root, ok = oracle.glm_root(x[keep], y[keep], spec.weights[keep],
                                       spec.kind, e.approx_estimate)
            if ok:
                checks.append(oracle.within(root, e.approx_estimate,
                                            e.deviation_bound))
        return checks

    def traced_jobs(self, tracer):
        wrapped = {}
        jobs = []
        for job in self.jobs:
            fam = job.spec.family
            if id(fam) not in wrapped:
                wrapped[id(fam)] = tracer.wrap_family(fam)
            jobs.append(Job(job.key, dataclasses.replace(
                job.spec, family=wrapped[id(fam)])))
        return jobs

    def cold_start_argv(self):
        path = os.path.join(self.workdir, "cold.csv")
        _write_csv(path, self._small.X, {"y": self._small.y})
        return ["loo", path, "--family", "poisson", "--subsets", "1",
                "--subsets", "2-4"]


# ------------------------------------------------------------------ #
# cox: fit_cox + certify_cox at the root and at zero
# ------------------------------------------------------------------ #

@dataclasses.dataclass
class _CoxSpec:
    data: cox.SurvivalDataset
    h2: np.ndarray            # the oracle's own copy of the risk weights


class CoxWorkload(Workload):
    """Cox partial-likelihood fits and certificates, with and without ties
    and risk-set weights."""

    name = "cox"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        s = self.size
        for rep in range(s["replicates"]):
            for variant in ("plain", "ties", "h2"):
                for n in s["ns"]:
                    x, t, st = _survival_arrays(
                        self.rng, n, s["p"],
                        s["tie_levels"] if variant == "ties" else None)
                    weighted = variant == "h2"
                    data = cox.SurvivalDataset(X=x, time=t, status=st,
                                               h2=_h2 if weighted else None)
                    h2 = _h2_oracle(x) if weighted else np.ones(n)
                    self.jobs.append(Job(f"{variant}-n{n}-r{rep}",
                                         _CoxSpec(data, h2)))
        self._small = _survival_arrays(self.rng, COLD_START_ROWS, 3)

    def execute(self, job):
        data = job.spec.data
        beta = cox.fit_cox(data)
        return (beta, cox.certify_cox(data, beta),
                cox.certify_cox(data, np.zeros(data.n_features)))

    def outcome(self, job, raw):
        beta, *certs = raw
        h = _hash_arrays(beta)
        for c in certs:
            if not (np.isfinite(c.delta) and np.isfinite(c.mu_sup)):
                raise BenchError(f"{job.key}: non-finite certificate")
            h.update(np.array([c.delta, c.mu_sup, c.expansion_bound,
                               float(c.condition_ok)]).tobytes())
            h.update(c.newton_step.tobytes())
        return Outcome(False, len(certs), h.hexdigest(), raw)

    def oracle(self, job, out, rng):
        data = job.spec.data
        _, *certs = out.value
        claims = [c for c in certs if c.condition_ok]
        if not claims:
            return []
        root, ok = oracle.cox_root(data.X, data.time, data.status,
                                   job.spec.h2, np.zeros(data.n_features))
        if not ok:
            return []
        return [oracle.check_glm_cert(root, {
            "target": c.target, "bracket_lo": c.bracket_lo,
            "bracket_hi": c.bracket_hi, "newton_step": c.newton_step,
            "expansion_bound": c.expansion_bound}) for c in claims]

    def traced_jobs(self, tracer):
        jobs = []
        for job in self.jobs:
            data = job.spec.data
            if data.h2 is not None:
                data = dataclasses.replace(
                    data, h2=tracer.count("cox.weight_fn", data.h2))
            jobs.append(Job(job.key, dataclasses.replace(job.spec, data=data)))
        return jobs

    def cold_start_argv(self):
        x, t, st = self._small
        path = os.path.join(self.workdir, "cold.csv")
        _write_csv(path, x, {"y": np.zeros(len(t)), "time": t,
                             "status": st.astype(float)})
        return ["cox-certify", path]


# ------------------------------------------------------------------ #
# cli: in-process cli.main over all eight subcommands
# ------------------------------------------------------------------ #

def _write_csv(path, x, extra):
    """Data CSV: covariates ``x1..xp`` then the named extra columns, every
    float at 17 significant digits so the file parses back bit-exactly."""
    cols = [x] + [np.asarray(v, dtype=float)[:, None] for v in extra.values()]
    table = np.hstack(cols)
    header = [f"x{j + 1}" for j in range(x.shape[1])] + list(extra)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in table:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def _write_lines(path, rows):
    with open(path, "w") as fh:
        fh.write("".join(line + "\n" for line in rows))


@dataclasses.dataclass
class _CliSpec:
    command: str
    argv: list
    out: str


class CliWorkload(Workload):
    """Whole CLI invocations, CSV in and JSON report out."""

    name = "cli"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        s = self.size
        rng = self.rng
        path = lambda name: os.path.join(workdir, name)  # noqa: E731

        self.logit = _glm_arrays(rng, "logistic", *s["logit"])
        self.pois = _glm_arrays(rng, "poisson", *s["pois"])
        self.surv = _survival_arrays(rng, *s["surv"])
        _write_csv(path("logit.csv"), self.logit[0], {"y": self.logit[1]})
        _write_csv(path("pois.csv"), self.pois[0], {"y": self.pois[1]})
        xs, ts, st = self.surv
        _write_csv(path("surv.csv"), xs, {"y": np.zeros(len(ts)), "time": ts,
                                          "status": st.astype(float)})

        # certificate targets a small perturbation away from the exact root,
        # so the certify and cox-certify brackets make a checkable claim
        p_logit = s["logit"][1]
        self.logit_root, _ = oracle.glm_root(*self.logit, np.ones(s["logit"][0]),
                                             "logistic", np.zeros(p_logit))
        self.cox_root, _ = oracle.cox_root(xs, ts, st, np.ones(len(ts)),
                                           np.zeros(xs.shape[1]))
        _write_lines(path("target_certify.txt"), [format(v, ".17g") for v in
                     self.logit_root + rng.normal(size=p_logit) * 0.003])
        _write_lines(path("target_cox.txt"), [format(v, ".17g") for v in
                     self.cox_root + rng.normal(size=xs.shape[1]) * 0.003])
        # reference Hessian for certify --q-ref: the curvature at the root
        lx = self.logit[0]
        mu = 1.0 / (1.0 + np.exp(-(lx @ self.logit_root)))
        _write_lines(path("q_ref.csv"), [
            ",".join(format(v, ".17g") for v in row) for row in
            lx.T @ (lx * (mu * (1.0 - mu))[:, None]) / lx.shape[0]])

        models = set()
        while len(models) < s["models"]:
            k = int(rng.integers(2, min(6, p_logit) + 1))
            models.add(tuple(sorted(int(j) + 1 for j in
                                    rng.choice(p_logit, k, replace=False))))
        self.models = sorted(models)
        _write_lines(path("models.txt"),
                     [",".join(map(str, m)) for m in self.models])

        n_pois, p_pois = s["pois"]
        self.subsets = []
        for _ in range(s["subsets"]):
            k = int(rng.integers(1, 6))
            self.subsets.append(tuple(sorted(
                int(i) + 1 for i in rng.choice(n_pois, k, replace=False))))
        self.constraints = np.column_stack([
            rng.normal(size=(2, p_pois)) / np.sqrt(p_pois), [0.1, -0.1]])
        _write_lines(path("constraints.csv"),
                     [",".join(format(v, ".17g") for v in r)
                      for r in self.constraints])

        subsets = [a for sub in self.subsets
                   for a in ("--subsets", ",".join(map(str, sub)))]
        target = ["--target", path("target_certify.txt")]
        # certify three ways and fit once: the ten-job cycle then has four
        # fast jobs, four middle ones and two slow ones, so the median and
        # the p90 land inside a group of jobs rather than between groups
        commands = [
            ("certify", "certify", ["logit.csv", "--family", "logistic"]
             + target),
            ("certify-qref", "certify", ["logit.csv", "--family", "logistic",
                                         "--q-ref", path("q_ref.csv")]
             + target),
            ("certify-plugin", "certify", ["logit.csv", "--family",
                                           "logistic", "--target",
                                           "plug-in"]),
            ("fit", "fit", ["logit.csv", "--family", "logistic"]),
            ("screen", "screen", ["logit.csv", "--family", "logistic"]),
            ("posi", "posi", ["logit.csv", "--family", "logistic",
                              "--models", path("models.txt")]),
            ("loo", "loo", ["pois.csv", "--family", "poisson"] + subsets),
            ("nls-certify", "nls-certify", ["pois.csv", "--link", "logistic",
                                            "--target", "plug-in"]),
            ("kkt", "kkt", ["pois.csv", "--family", "poisson",
                            "--constraints", path("constraints.csv")]),
            ("cox-certify", "cox-certify",
             ["surv.csv", "--target", path("target_cox.txt")]),
        ]
        for key, cmd, args in commands:
            out = path(f"out-{key}.json")
            argv = [cmd, path(args[0])] + args[1:] + ["--out", out]
            self.jobs.append(Job(key, _CliSpec(cmd, argv, out)))

        for name, arrays in (("warm-logit.csv",
                              _glm_arrays(rng, "logistic", WARM_UP_ROWS, 3)),
                             ("warm-pois.csv",
                              _glm_arrays(rng, "poisson", WARM_UP_ROWS, 3))):
            _write_csv(path(name), arrays[0], {"y": arrays[1]})
        wx, wt, wst = _survival_arrays(rng, WARM_UP_ROWS, 3)
        _write_csv(path("warm-surv.csv"), wx, {"y": np.zeros(len(wt)),
                                               "time": wt,
                                               "status": wst.astype(float)})
        _write_lines(path("warm-models.txt"), ["1,2", "2,3"])
        _write_lines(path("warm-constraints.csv"), ["1,1,1,0.5"])
        self._cold = path("cold.csv")
        cx, cy = _glm_arrays(rng, "logistic", COLD_START_ROWS, 5)
        _write_csv(self._cold, cx, {"y": cy})

    def warm_up(self):
        """One call per subcommand on small files, so the timed cycle pays
        no first-call costs."""
        w = lambda name: os.path.join(self.workdir, name)  # noqa: E731
        out = ["--out", w("out-warm.json")]
        logit = [w("warm-logit.csv"), "--family", "logistic"]
        pois = [w("warm-pois.csv"), "--family", "poisson"]
        for argv in (["certify"] + logit, ["fit"] + logit, ["screen"] + logit,
                     ["posi"] + logit + ["--models", w("warm-models.txt")],
                     ["loo"] + pois + ["--subsets", "1,2"],
                     ["nls-certify", w("warm-pois.csv")],
                     ["kkt"] + pois + ["--constraints",
                                       w("warm-constraints.csv")],
                     ["cox-certify", w("warm-surv.csv")]):
            cli.main(argv + out)

    def execute(self, job):
        return cli.main(job.spec.argv)

    def outcome(self, job, raw):
        spec = job.spec
        with open(spec.out, "rb") as fh:
            text = fh.read()
        report = json.loads(text)
        if raw != 0:
            return Outcome(True, 0, None, report)
        if report.get("command") != spec.command:
            raise BenchError(f"{job.key}: report is {text[:200]!r}")
        expected = {"screen": self.size["logit"][1],
                    "posi": len(self.models),
                    "loo": len(self.subsets)}
        lists = {"screen": "per_coordinate", "posi": "per_model",
                 "loo": "per_fold"}
        if spec.command in lists:
            certs = len(report[lists[spec.command]])
            if certs != expected[spec.command]:
                raise BenchError(f"{job.key}: {certs} certificates, "
                                 f"expected {expected[spec.command]}")
        elif spec.command == "fit":
            certs = 0
            if not report["score_norm"] <= 1e-10:
                raise BenchError(f"{job.key}: score norm "
                                 f"{report['score_norm']} above tolerance")
        else:
            certs = 1
        return Outcome(False, certs, hashlib.sha256(text).hexdigest(), report)

    def oracle(self, job, out, rng):
        r = out.value
        cmd = job.spec.command
        checks = []
        if cmd == "certify" and r["condition_ok"]:
            # with --q-ref the step inverts the reference Hessian and the
            # reference bound is the claim that covers it
            bound = (r["expansion_bound_reference"]
                     if r["expansion_bound_reference"] is not None
                     else r["expansion_bound_empirical"])
            checks.append(oracle.check_glm_cert(self.logit_root, dict(
                r, expansion_bound=bound)))
        elif cmd == "cox-certify" and r["condition_ok"]:
            checks.append(oracle.check_glm_cert(self.cox_root, r))
        elif cmd == "screen":
            x, y = self.logit
            coords = [c for c in r["per_coordinate"] if c["certified"]]
            for c in _pick(rng, coords, ORACLE_PER_JOB["screen"]):
                col = x[:, [c["index"] - 1]]
                root, ok = oracle.glm_root(col, y, np.ones(len(y)),
                                           "logistic", np.zeros(1))
                if ok:
                    checks.append(oracle.bracket_holds(
                        root, [c["target"]], c["delta"] / 2.0, c["delta"]))
        elif cmd == "posi":
            x, y = self.logit
            models = [m for m in r["per_model"] if m["condition_ok"]]
            for m in _pick(rng, models, ORACLE_PER_JOB["posi"]):
                cols = [i - 1 for i in m["indices"]]
                root, ok = oracle.glm_root(x[:, cols], y, np.ones(len(y)),
                                           "logistic", np.zeros(len(cols)))
                if ok:
                    checks.append(oracle.check_glm_cert(root, dict(
                        m, expansion_bound=m["expansion_bound_empirical"])))
        elif cmd == "loo":
            x, y = self.pois
            for fold in r["per_fold"]:
                if not fold["certified"]:
                    continue
                keep = np.ones(len(y), dtype=bool)
                keep[[i - 1 for i in fold["indices"]]] = False
                est = np.asarray(fold["approx_estimate"])
                root, ok = oracle.glm_root(x[keep], y[keep], np.ones(keep.sum()),
                                           "poisson", est)
                if ok:
                    checks.append(oracle.within(root, est,
                                                fold["deviation_bound"]))
        elif cmd == "nls-certify" and r["condition_ok"]:
            x, y = self.pois
            target = np.asarray(r["target"])
            root, ok = oracle.nls_root(x, y, target)
            if ok:
                checks.append(
                    oracle.within(root, target, r["delta"])
                    and oracle.within(root, target + np.asarray(
                        r["newton_step"]), r["remainder_bound"]))
        elif cmd == "kkt" and r["condition_ok"]:
            x, y = self.pois
            a, b = self.constraints[:, :-1], self.constraints[:, -1]
            target = np.asarray(r["target"])
            root, ok = oracle.kkt_root(x, y, "poisson", a, b, target,
                                       np.asarray(r["target_nu"]))
            if ok:
                checks.append(oracle.within(
                    root, target + np.asarray(r["step"]),
                    r["remainder_bound"]))
        return checks

    def cold_start_argv(self):
        return ["certify", self._cold, "--family", "logistic"]


_TAGS = {"deletion": 1, "cox": 2, "cli": 3}
WORKLOADS = {w.name: w for w in (DeletionWorkload, CoxWorkload, CliWorkload)}
