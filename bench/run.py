"""mestcert benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 bench/run.py --workload {deletion,cox,cli} --seed N \\
        --seconds S --trace {0,1} [--size smoke]

Each workload runs in child processes of its own, with
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` set to
1 and ``src`` on ``PYTHONPATH``; the package is imported from this checkout's
``src`` only. With ``--trace 0`` the set-up is repeated in fresh processes
and its median reported, then one process measures the end-to-end metrics;
with ``--trace 1`` one process measures the per-layer metrics. Metric names
and units come from ``BENCHMARK.json``; ``bench/rationale.json`` says which
layer metric should move which end-to-end metric on which workload.

Stdout carries the environment, a table of every metric with its unit, and
as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``failed_frac`` and ``unsound_frac`` are in the
table; in the JSON they are ``failed`` / ``attempted`` and ``correct``.
Scratch files go to ``.bench_out/`` in the checkout, where each run also
leaves its result with counts and environment
(``result-<workload>-<seed>-trace<t>.json``) and a traced run its spans
(``spans-<workload>.npz``).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(ROOT, "bench", "worker.py")
WORKLOAD_NAMES = ("deletion", "cox", "cli")
#: set-up samples per end-to-end run: fresh set-up processes plus the
#: measuring process's own set-up
SETUP_SAMPLES = {"full": 3, "smoke": 2}
#: a run must finish within this, whatever --seconds says
DEADLINE_S = 170.0


class RunError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONPATH=os.path.join(ROOT, "src"))
    return env


def run_worker(args, mode, tag, deadline):
    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{tag}")
    cmd = [sys.executable, WORKER, "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--workdir", workdir]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time before the measuring process started")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, timeout=remaining,
                              text=True)
    except subprocess.TimeoutExpired:
        raise RunError(f"{mode} process exceeded the {DEADLINE_S:.0f} s "
                       f"deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{mode} process exited with {proc.returncode}")
    result = json.loads(lines[-1])
    src = os.path.join(ROOT, "src", "mestcert")
    if os.path.dirname(os.path.abspath(result["mestcert"])) != src:
        raise RunError(f"measured {result['mestcert']}, not {src}")
    return result


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs for the self-test")
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "mestcert",
                                       "__init__.py")):
        raise RunError(f"no mestcert sources under {ROOT}/src")
    spec = load_spec()
    os.makedirs(OUT, exist_ok=True)

    setups = []
    if not args.trace:
        for k in range(SETUP_SAMPLES[args.size] - 1):
            setups.append(run_worker(args, "setup", f"setup{k}",
                                     deadline)["setup_s"])
    result = run_worker(args, "run", "run", deadline)
    setups.append(result["setup_s"])
    values = dict(result["values"], setup_s=statistics.median(setups))
    counts = result["counts"]

    group = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[group]:
        if m["name"] not in values:
            raise RunError(f"no value for metric {m['name']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    checked = counts["checked"]
    extra = {
        "failed_frac": (counts["failed"] / counts["attempted"], "ratio",
                        f"{counts['failed']} of {counts['attempted']} "
                        f"attempted"),
        "unsound_frac": (counts["unsound"] / checked if checked else 0.0,
                         "ratio", f"{counts['unsound']} of {checked} "
                         f"checked"),
    }
    # sound, well-formed, actually checked, and (traced) spans that add up
    correct = (counts["unsound"] == 0 and counts["invalid"] == 0
               and checked > 0 and counts.get("root_mismatches", 0) == 0)

    print(f"mestcert benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print("env: " + json.dumps(result["env"], sort_keys=True))
    print("counts: " + json.dumps(counts, sort_keys=True))
    if not args.trace:
        print(f"samples: {counts['jobs']} jobs in {counts['cycles']} cycles, "
              f"{len(setups)} set-ups, {counts['cold_starts']} cold starts")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    for name, (value, unit, note) in extra.items():
        print(f"  {name:40s} {value:>16.6g} {unit}  ({note})")
    for name, value in sorted(result["info"].items()):
        print(f"  {name:40s} {value:>16.6g}  (info: wall clock, not scaled)"
              if name.startswith("wall") else
              f"  {name:40s} {value:>16.6g}  (info: reference / measured "
              f"calibration time)")
    line = {"correct": correct, "attempted": counts["attempted"],
            "failed": counts["failed"], "metrics": metrics}
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace"
                                f"{args.trace}.json"), "w") as fh:
        json.dump(dict(line, counts=counts, info=result["info"],
                       env=result["env"]), fh, indent=1)
    print(json.dumps(line))


if __name__ == "__main__":
    try:
        main()
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(2)
