"""Self-test of the benchmark itself, not of the library.

    python3 bench/selftest.py

1. Every workload runs in smoke size with ``--trace 0`` and ``--trace 1``;
   the result line must carry every metric ``BENCHMARK.json`` names, with
   its unit, be correct and report no failure, and the table must print
   ``failed_frac`` and ``unsound_frac`` with a unit.
2. The oracle must flag deliberately shrunken brackets and bounds, and
   accept the genuine ones (this tests the checker, not the library).
3. ``run.py`` must refuse, without printing a result, to run where only
   ``BENCHMARK.json`` and ``bench/`` exist.
4. ``rationale.json`` must map every per-layer metric and describe every
   workload of ``BENCHMARK.json``.

Exits non-zero on the first failed expectation.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracle  # noqa: E402
from mestcert import cox, glm, losses, resample  # noqa: E402
from workloads import _glm_arrays, _survival_arrays  # noqa: E402


class SelfTestError(Exception):
    pass


def expect(cond, what):
    if not cond:
        raise SelfTestError(what)


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_runs(spec):
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(w["name"], trace)
            expect(proc.returncode == 0,
                   f"{w['name']} trace={trace} exited {proc.returncode}: "
                   f"{proc.stderr[-2000:]}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"result keys {set(result)}")
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{w['name']} trace={trace}: {lines[-1][:300]}")
            metrics = result["metrics"]
            wanted = {m["name"]: m["unit"] for m in spec[group]}
            expect(set(metrics) == set(wanted),
                   f"{w['name']} trace={trace}: metrics differ by "
                   f"{set(metrics) ^ set(wanted)}")
            for name, unit in wanted.items():
                value = metrics[name]["value"]
                expect(metrics[name]["unit"] == unit, f"unit of {name}")
                expect(isinstance(value, (int, float)) and np.isfinite(value),
                       f"{name} = {value!r}")
            table = "\n".join(lines[:-1])
            for name in ("failed_frac", "unsound_frac"):
                expect(any(ln.split()[:1] == [name] and "ratio" in ln
                           for ln in lines[:-1]),
                       f"{name} missing from the table:\n{table}")
            if group == "end_to_end":
                expect(all(metrics[m["name"]]["value"] > 0
                           for m in spec[group]),
                       f"an end-to-end metric is 0: {metrics}")
            print(f"ok  {w['name']} trace={trace}: {len(metrics)} metrics")


def shrink(cert, factor, fields):
    return dataclasses.replace(cert, **{f: getattr(cert, f) * factor
                                        for f in fields})


def check_oracle():
    rng = np.random.default_rng(11)
    x, y = _glm_arrays(rng, "logistic", 400, 3)
    data = glm.Dataset(x, y)
    fam = losses.make_family("logistic")
    root, ok = oracle.glm_root(x, y, np.ones(400), "logistic", np.zeros(3))
    expect(ok, "oracle GLM Newton did not converge")
    cert = glm.certify(data, fam, root + np.array([0.01, -0.01, 0.005]))
    expect(cert.condition_ok, "GLM test certificate does not certify")

    def as_map(c, bound):
        return {"target": c.target, "bracket_lo": c.bracket_lo,
                "bracket_hi": c.bracket_hi, "newton_step": c.newton_step,
                "expansion_bound": bound}

    expect(oracle.check_glm_cert(root, as_map(
        cert, cert.expansion_bound_empirical)), "genuine GLM bracket rejected")
    small = shrink(cert, 0.1, ("bracket_lo", "bracket_hi"))
    expect(not oracle.check_glm_cert(root, as_map(
        small, cert.expansion_bound_empirical)),
        "shrunken GLM bracket not flagged")
    expect(not oracle.check_glm_cert(root, as_map(
        cert, cert.expansion_bound_empirical * 1e-3)),
        "shrunken GLM expansion bound not flagged")

    theta = glm.fit(data, fam, tol=1e-12)
    entry = resample.loo_sweep(data, fam, theta, index_sets=[(0, 1, 2)]
                               ).entries[0]
    keep = np.arange(400) > 2
    sub_root, ok = oracle.glm_root(x[keep], y[keep], np.ones(397),
                                   "logistic", entry.approx_estimate)
    expect(ok and entry.certified, "LOO test entry unusable")
    expect(oracle.within(sub_root, entry.approx_estimate,
                         entry.deviation_bound), "genuine LOO bound rejected")
    expect(not oracle.within(sub_root, entry.approx_estimate,
                             entry.deviation_bound * 1e-6),
           "shrunken LOO bound not flagged")

    xs, ts, st = _survival_arrays(rng, 300, 3)
    sdata = cox.SurvivalDataset(xs, ts, st)
    croot, ok = oracle.cox_root(xs, ts, st, np.ones(300), np.zeros(3))
    expect(ok, "oracle Cox Newton did not converge")
    ccert = cox.certify_cox(sdata, croot + np.array([0.004, -0.003, 0.002]))
    expect(ccert.condition_ok, "Cox test certificate does not certify")
    cmap = {"target": ccert.target, "bracket_lo": ccert.bracket_lo,
            "bracket_hi": ccert.bracket_hi, "newton_step": ccert.newton_step,
            "expansion_bound": ccert.expansion_bound}
    expect(oracle.check_glm_cert(croot, cmap), "genuine Cox bracket rejected")
    expect(not oracle.check_glm_cert(croot, dict(
        cmap, bracket_lo=ccert.bracket_lo * 0.1,
        bracket_hi=ccert.bracket_hi * 0.1)), "shrunken Cox bracket not flagged")
    print("ok  oracle flags shrunken GLM, LOO and Cox claims")


def check_bare_checkout():
    bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run_bench("cli", 0, cwd=bare)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        expect(proc.returncode != 0 and not last.startswith("{"),
               f"bare checkout: exit {proc.returncode}, stdout {last!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run without src/mestcert")


def check_rationale(spec):
    with open(os.path.join(HERE, "rationale.json")) as fh:
        rationale = json.load(fh)
    mapped = [m for row in rationale["layer_map"] for m in row["metrics"]]
    names = [m["name"] for m in spec["per_layer"]]
    expect(sorted(mapped) == sorted(names),
           f"layer_map and per_layer differ by {set(mapped) ^ set(names)}")
    expect(set(rationale["workloads"]) == {w["name"] for w in
                                           spec["workloads"]},
           "rationale workloads differ from BENCHMARK.json")
    e2e = {m["name"] for m in spec["end_to_end"]}
    expect(e2e <= set(rationale["end_to_end"]), "end-to-end metric unexplained")
    print("ok  rationale covers every metric and workload")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_rationale(spec)
    check_oracle()
    check_bare_checkout()
    check_runs(spec)


if __name__ == "__main__":
    try:
        main()
    except SelfTestError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        sys.exit(1)
