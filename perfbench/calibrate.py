"""Reference kernels that track the machine's speed while a run measures.

On a small shared machine the same code can run 1.5-1.8x slower for
tens of seconds at a time, so raw wall time varies more between runs
than any change worth detecting. The runner therefore times three fixed
kernels every CADENCE_S seconds between operations, and divides each
operation's time by the kernels' slowdown around it (measured over
nominal), which gives its time on a machine of nominal speed. Each
kernel resembles one kind of work in the program:

- "quad_py": adaptive quadrature of a pure-Python math integrand (the
  Tricomi quadratures of the series route, scalar closed forms);
- "quad_np": quadrature of an integrand that runs small numpy
  reductions (the quadrature route of dep, and the solvers built on it);
- "bulk_np": Gaussian draws and a row reduction (Monte Carlo).

Each operation kind names the mix of kernels it is scaled by. Set-up
probes are whole processes, so they are scaled by a reference process
instead (REFERENCE_PROCESS: interpreter start and the numpy and scipy
imports covertcomm needs) timed before and after each probe. Neither
uses any part of covertcomm, so a change to the program cannot move
them. Raw (unscaled) times are reported next to the scaled ones.
"""

import bisect
import math
import statistics
import sys
import time

import numpy as np
# bound at import, so the tracer's wrapper of scipy.integrate.quad never
# times the kernels
from scipy.integrate import quad

# kernel times on a quiet 2-core Xeon (2.1 GHz) VM, Python 3.11,
# numpy 2.4, scipy 1.17: the 10th percentile of 300 back-to-back calls
NOMINAL_S = {"quad_py": 1.40e-3, "quad_np": 1.85e-3, "bulk_np": 1.35e-3}
REFERENCE_PROCESS = [sys.executable, "-c", "import numpy; from scipy import integrate"]
REFERENCE_PROCESS_NOMINAL_S = 0.80  # the same VM, rounded
CADENCE_S = 0.15
WINDOW_S = 0.5  # samples this far around an operation describe its speed

_gen = np.random.default_rng(12345)
_weights = np.arange(1.0, 1801.0) / 1800.0


def _quad_py():
    return sum(
        quad(lambda t: math.exp(-0.3 * t + 2.0 * math.log1p(t)), 0.0, 60.0 + i)[0]
        for i in range(80)
    )


def _quad_np():
    def f(g):
        return math.exp(-g) * float(np.cumprod(np.full(1800, 0.999 * g / (g + 1.0))) @ _weights)

    return sum(quad(f, 0.0, 5.0 + i)[0] for i in range(6))


def _bulk_np():
    z = _gen.standard_normal((96, 1024))
    return float(np.einsum("ij,ij->i", z, z).sum())


KERNELS = {"quad_py": _quad_py, "quad_np": _quad_np, "bulk_np": _bulk_np}


class Calibrator:
    def __init__(self):
        self.times = []  # sample midpoints
        self.slowdown = {name: [] for name in KERNELS}  # measured / nominal
        self._last = -math.inf

    def sample(self, force=False):
        now = time.perf_counter()
        if not force and now - self._last < CADENCE_S:
            return
        for name, kernel in KERNELS.items():
            t0 = time.perf_counter()
            kernel()
            self.slowdown[name].append((time.perf_counter() - t0) / NOMINAL_S[name])
        self._last = time.perf_counter()
        self.times.append((now + self._last) / 2)

    def factor(self, start, end, mix):
        """Slowdown over [start, end] for a {kernel: weight} mix (weights sum to 1)."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        # at least the samples either side of the interval
        lo = max(0, min(lo, bisect.bisect_left(self.times, start) - 1))
        hi = min(len(self.times), max(hi, bisect.bisect_right(self.times, end) + 1))
        return math.exp(sum(
            w * math.log(statistics.median(self.slowdown[name][lo:hi]))
            for name, w in mix.items()
        ))
