"""Machine-speed calibration for the benchmark's time metrics.

On a shared host the CPU speed drifts by about 20% over tens of seconds,
longer than a run, so raw wall times of one run say as much about the
neighbours as about the code. The benchmark therefore times this fixed
kernel right before every job and reports each interval at *reference
speed*: ``wall * REF_S / local``, where ``local`` is the median of the
kernel times nearest the interval.

The kernel does the three kinds of work the jobs do, in about the same
proportions: Python-level parsing (``float()`` per token, as ``read_csv``
does), masked numpy gathers and small matrix products on a thousand rows (as
the Cox risk sets and GLM score/Hessian do) and small dense SVDs (as the
deletion sweep's ``op_norm`` does). It uses only numpy and the interpreter,
never ``mestcert``, so a change to the library cannot move it.

A fresh process spends its time loading modules, which the in-process
kernel does not track. Cold starts are therefore scaled by a reference
process instead: a bare interpreter importing the same numpy and scipy the
CLI loads, timed right before each cold start.
"""

import statistics
import subprocess
import sys
import time

import numpy as np

#: the kernel's median time on the 2-core Xeon host the benchmark was
#: defined on; reported times are scaled to this speed
REF_S = 0.005
#: calibration samples on each side of an interval that its scale uses
WINDOW = 2
#: the reference process's median time on that host
PROCESS_REF_S = 0.45
PROCESS_REF_ARGV = [sys.executable, "-c", "import numpy, scipy.linalg"]


class Calibrator:
    """Times the reference kernel; inputs are fixed, not seeded."""

    def __init__(self):
        rng = np.random.default_rng(20181001)
        self._tokens = [repr(float(v)) for v in rng.normal(size=4000)]
        self._x = rng.normal(size=(1000, 5))
        self._t = rng.uniform(size=1000)
        self._b = rng.normal(size=5)
        self._a = rng.normal(size=(20, 20))
        self.samples = []

    def sample(self):
        """Run the kernel once; returns and records its wall time."""
        t0 = time.perf_counter()
        total = 0.0
        for tok in self._tokens:
            total += float(tok)
        for k in range(30):
            xa = self._x[self._t >= self._t[30 * k]]
            g = xa @ self._b
            np.exp(g - g.max()) @ xa
        for _ in range(40):
            np.linalg.svd(self._a, compute_uv=False)
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def scale(self, index):
        """Reference-speed factor for the interval after sample ``index``."""
        near = self.samples[max(0, index - WINDOW + 1): index + WINDOW + 1]
        return REF_S / statistics.median(near)



def process_reference(timeout):
    """Wall time of one reference process (seconds)."""
    t0 = time.perf_counter()
    subprocess.run(PROCESS_REF_ARGV, stdout=subprocess.DEVNULL, check=True,
                   timeout=timeout)
    return time.perf_counter() - t0
