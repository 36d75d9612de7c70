"""One workload in one process: set-up, timed closed loop, checks.

Started by ``run.py`` with the BLAS thread variables pinned and ``src`` on
``PYTHONPATH``; prints one JSON object on its last stdout line. Not meant
to be run by hand (``run.py`` is the entry point).

Modes:

``setup``  import, build the inputs and warm up; report the set-up time.
``run``    the same set-up, then the measurement. With ``--trace 0`` it
           times whole job cycles, checks a seeded sample of certificates
           against the oracles, reruns a few jobs for bit/byte identity and
           samples CLI cold starts. With ``--trace 1`` it times an untraced
           half and a traced half of the budget and reports per-layer values
           per job cycle, plus the tracing overhead.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import mestcert  # noqa: E402
from calibrate import (PROCESS_REF_S, REF_S, WINDOW, Calibrator,  # noqa: E402
                       process_reference)
from tracer import Tracer  # noqa: E402
from workloads import SIZES, WORKLOADS, BenchError  # noqa: E402

#: jobs each timed run needs, so at least ten lie beyond the p90
MIN_JOBS = {"full": 100, "smoke": 1}
#: seeded jobs of the first cycle whose certificates the oracles recompute
ORACLE_JOBS = {"deletion": 4, "cox": 9, "cli": 10}
#: seeded jobs of the first cycle rerun for identical output
RERUN_JOBS = 2
#: cold-start processes timed per run
COLD_STARTS = {"full": 7, "smoke": 1}
#: calibration samples that scale the set-up time
SETUP_CALIBRATIONS = 5
#: a cold start taking longer than this is killed and counted as failed
COLD_START_TIMEOUT_S = 30.0


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least ``q`` of
    the sample at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Loop:
    """Closed-loop measurement: one client, the next job starts when the
    previous one returns, whole cycles only. The calibration kernel runs
    before every job, outside the job's interval."""

    def __init__(self, wl, jobs, cal, tracer=None):
        self.wl = wl
        self.jobs = jobs
        self.cal = cal
        self.tracer = tracer
        self.walls = []
        self.cal_at = []
        self.cycle_certs = []
        self.failed = 0
        self.invalid = 0
        self.first = []       # outcome of each job of the first cycle

    def run(self, seconds, min_jobs, hard_stop, between_cycles=None):
        """Run whole cycles until ``seconds`` of job time and ``min_jobs``
        jobs, or ``hard_stop`` seconds; ``between_cycles()`` runs after
        each cycle, outside every job's interval."""
        elapsed = 0.0
        while True:
            certs = 0
            for k, job in enumerate(self.jobs):
                out = self._one(k, job)
                elapsed += self.walls[-1]
                if out is not None:
                    certs += out.certs
                if not self.cycle_certs:
                    self.first.append(out)
            self.cycle_certs.append(certs)
            if between_cycles is not None:
                between_cycles()
            if elapsed >= seconds and len(self.walls) >= min_jobs:
                break
            if elapsed >= hard_stop:
                break
        for _ in range(WINDOW):
            self.cal.sample()
        return self

    def _one(self, k, job):
        wl = self.wl
        self.cal_at.append(len(self.cal.samples))
        self.cal.sample()
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                raw = wl.execute(job)
            else:
                raw = self.tracer.run_job(len(self.walls), wl.execute, job)
        except Exception:
            self.walls.append(time.perf_counter() - t0)
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        self.walls.append(time.perf_counter() - t0)
        try:
            out = wl.outcome(job, raw)
        except (BenchError, KeyError, TypeError, ValueError) as exc:
            print(f"invalid output of {job.key}: {exc}", file=sys.stderr)
            self.invalid += 1
            return None
        if out.failed:
            self.failed += 1
        return out

    @property
    def cycles(self):
        return len(self.cycle_certs)

    def durations(self):
        """Job times at reference speed, in seconds."""
        return [w * self.cal.scale(i) for w, i in zip(self.walls, self.cal_at)]

    def cycle_rates(self):
        """Certificates per second of (reference-speed) job time, per
        cycle."""
        d = self.durations()
        size = len(self.jobs)
        return [certs / sum(d[c * size:(c + 1) * size])
                for c, certs in enumerate(self.cycle_certs)]


def check_outputs(wl, loop, seed):
    """Oracle sample and reruns over the first cycle's outputs.

    Returns ``(checked, unsound, reruns, mismatched)``."""
    rng = np.random.default_rng([seed, 7])
    picked = sorted(rng.choice(len(loop.jobs), min(ORACLE_JOBS[wl.name],
                                                   len(loop.jobs)),
                               replace=False))
    checks = []
    for k in picked:
        if loop.first[k] is not None:
            checks += wl.oracle(loop.jobs[k], loop.first[k], rng)
    mismatched = 0
    reruns = sorted(rng.choice(len(loop.jobs), RERUN_JOBS, replace=False))
    for k in reruns:
        job, before = loop.jobs[k], loop.first[k]
        try:
            again = wl.outcome(job, wl.execute(job))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            mismatched += 1
            continue
        if before is None or again.digest != before.digest:
            print(f"rerun of {job.key} differs from its first run",
                  file=sys.stderr)
            mismatched += 1
    return len(checks), checks.count(False), len(reruns), mismatched


class ColdStarts:
    """Fresh ``python -m mestcert.cli`` processes, one at a time, each right
    after a reference process that scales it; taken one per cycle so that
    they spread over the run."""

    def __init__(self, wl, samples):
        self.argv = [sys.executable, "-m", "mestcert.cli"] + \
            wl.cold_start_argv() + ["--out", os.path.join(wl.workdir,
                                                          "out-cold.json")]
        self.samples = samples
        self.scaled_ms = []
        self.wall_ms = []
        self.failed = 0

    def take(self):
        if len(self.wall_ms) + self.failed >= self.samples:
            return
        try:
            ref = process_reference(COLD_START_TIMEOUT_S)
            t0 = time.perf_counter()
            proc = subprocess.run(self.argv, stdout=subprocess.DEVNULL,
                                  timeout=COLD_START_TIMEOUT_S)
            wall = time.perf_counter() - t0
        except (subprocess.TimeoutExpired, subprocess.CalledProcessError):
            self.failed += 1
            return
        if proc.returncode != 0:
            self.failed += 1
            return
        self.wall_ms.append(wall * 1e3)
        self.scaled_ms.append(wall * PROCESS_REF_S / ref * 1e3)

    def finish(self):
        while len(self.wall_ms) + self.failed < self.samples:
            self.take()
        return self


def environment(args):
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version")}
    except (KeyError, TypeError, ValueError):
        pass
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
        "seed": args.seed,
        "size": args.size,
    }


def end_to_end(wl, cal, args):
    cold = ColdStarts(wl, COLD_STARTS[args.size])
    loop = Loop(wl, wl.jobs, cal).run(args.seconds, MIN_JOBS[args.size],
                                       hard_stop(args.seconds), cold.take)
    cold.finish()
    checked, unsound, reruns, mismatched = check_outputs(wl, loop, args.seed)
    ms = [d * 1e3 for d in loop.durations()]
    wall_ms = [w * 1e3 for w in loop.walls]
    values = {
        "job_ms_p50": statistics.median(ms),
        "job_ms_p90": percentile(ms, 90),
        "certs_per_s": statistics.median(loop.cycle_rates()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "cold_start_ms": (statistics.median(cold.scaled_ms)
                          if cold.scaled_ms else float("nan")),
    }
    info = {
        "wall_job_ms_p50": statistics.median(wall_ms),
        "wall_job_ms_p90": percentile(wall_ms, 90),
        "wall_cold_start_ms": (statistics.median(cold.wall_ms)
                               if cold.wall_ms else float("nan")),
        "speed_factor": REF_S / statistics.median(cal.samples),
    }
    attempted = len(loop.walls) + reruns + cold.samples
    counts = {
        "jobs": len(loop.walls), "cycles": loop.cycles,
        "attempted": attempted,
        "failed": loop.failed + mismatched + cold.failed,
        "invalid": loop.invalid, "checked": checked, "unsound": unsound,
        "reruns": reruns, "rerun_mismatches": mismatched,
        "cold_starts": len(cold.wall_ms),
    }
    return values, info, counts


def per_layer(wl, cal, args):
    half = args.seconds / 2.0
    stop = hard_stop(args.seconds) / 2.0
    plain = Loop(wl, wl.jobs, cal).run(half, 0, stop)
    tracer = Tracer()
    tracer.install()
    try:
        traced = Loop(wl, wl.traced_jobs(tracer), cal, tracer).run(
            half, 0, stop)
    finally:
        tracer.uninstall()
    values = tracer.layer_metrics(traced.cycles)
    values["trace.overhead_ratio"] = (statistics.median(traced.durations())
                                      / statistics.median(plain.durations()))
    mismatches = tracer.root_mismatches()
    tracer.save(os.path.join(os.path.dirname(wl.workdir),
                             f"spans-{wl.name}.npz"))
    checked, unsound, reruns, mismatched = check_outputs(wl, traced, args.seed)
    jobs = len(plain.walls) + len(traced.walls)
    counts = {
        "jobs": jobs, "cycles": plain.cycles + traced.cycles,
        "traced_cycles": traced.cycles,
        "attempted": jobs + reruns,
        "failed": plain.failed + traced.failed + mismatched,
        "invalid": plain.invalid + traced.invalid,
        "checked": checked, "unsound": unsound, "reruns": reruns,
        "rerun_mismatches": mismatched, "root_mismatches": mismatches,
        "spans": len(tracer.start),
    }
    info = {"speed_factor": REF_S / statistics.median(cal.samples)}
    return values, info, counts


def hard_stop(seconds):
    """Job time after which a run stops even short of ``MIN_JOBS``; room for
    100 slow jobs, within the run's deadline."""
    return min(max(4.0 * seconds, 60.0), 120.0)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, args.size, args.workdir)
        wl.warm_up()
        setup_wall = time.perf_counter() - _T0
        cal = Calibrator()
        for _ in range(SETUP_CALIBRATIONS):
            cal.sample()
        result = {
            "setup_s": setup_wall * REF_S / statistics.median(cal.samples),
            "mestcert": mestcert.__file__,
        }
        if args.mode == "run":
            measure = per_layer if args.trace else end_to_end
            values, info, counts = measure(wl, cal, args)
            result.update(values=values, info=info, counts=counts,
                          env=environment(args))
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
