"""The pace of the machine, measured with a fixed reference kernel.

The benchmark runs on shared hosts whose speed drifts by 10-30% over
minutes, so wall times taken minutes apart differ by more than the
bounds in BENCHMARK.json even when the program is unchanged.  A run
therefore times, between its operations, a fixed kernel that never calls
reggespec and does the kinds of work the program does:

* a Python loop of RK4 steps on a small complex batch, with a rescale
  check every 16 steps (the marcher's pattern);
* a block of complex log1p (the Hadamard product's pattern);
* an adaptive scipy integration of a grid-potential problem through
  ``reference.py``, whose many Python calls load the caches the way the
  program's own call chains do.

The kernel runs once for every EVERY_S of wall time, between operations.
An operation's wall time is scaled by REF_KERNEL_S over the median of
the passes made within WINDOW_S of it: seconds at the pace of the
machine the bounds were set on.  The host's speed swings by up to 2x
over a few seconds, so the passes around each operation follow it more
closely than one median over the whole run.  A change to the program
moves the operation times and leaves the kernel alone.
"""

import statistics
import time

import numpy as np

import reference as R

# median kernel pass on the machine the bounds were set on (a 2-vCPU
# Intel Xeon VM at 2.1 GHz, Python 3.11, numpy 2, scipy 1)
REF_KERNEL_S = 0.090
EVERY_S = 0.75      # one kernel pass for every this much wall time
MAX_PASSES = 4      # most passes taken at once
WINDOW_S = 3.0      # passes this close to an operation scale it

_STEPS = 512
_QV = np.cos(np.linspace(0.0, 3.0, 2 * _STEPS + 1))
_LAM2 = np.array([3.0 + 1.0j, 5.0, 7.0j, 2.0 - 0.5j]) ** 2
_Z = (np.arange(16) + 0.5j) * 0.3
_ZEROS = np.arange(1, 4097) * 3.1 + 0.2j
_GRID = R.Problem(R.problem_dict(
    1.0, 2.0, 0.3, 0.5, -0.2,
    {"type": "grid", "interpolation": "cubic",
     "samples": [float(v) for v in np.cos(np.linspace(0.0, 3.0, 33))]},
    True))
_GRID_LAMS = np.array([5.0 + 1.0j, 12.0 - 0.5j, 20.0 + 2.0j])


def kernel() -> complex:
    """One pass of the reference work; returns a value so none is skipped."""
    h = 1.0 / _STEPS
    u = np.ones((1, 4), dtype=complex)
    du = np.full((1, 4), 0.3 + 2.0j)
    for j in range(_STEPS):             # classical RK4 on u'' = (q - lam^2) u
        w0 = _QV[2 * j] - _LAM2
        wm = _QV[2 * j + 1] - _LAM2
        w1 = _QV[2 * j + 2] - _LAM2
        k1d = w0 * u
        u2 = u + (0.5 * h) * du
        k2u = du + (0.5 * h) * k1d
        k2d = wm * u2
        u3 = u + (0.5 * h) * k2u
        k3u = du + (0.5 * h) * k2d
        k3d = wm * u3
        k4u = du + h * k3d
        k4d = w1 * (u + h * k3u)
        u = u + (h / 6.0) * (du + 2.0 * k2u + 2.0 * k3u + k4u)
        du = du + (h / 6.0) * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        if j % 16 == 15:
            mag = np.maximum(np.abs(u), np.abs(du)).max(axis=0)
            need = (mag > 1e8) | ((mag < 1e-8) & (mag > 0.0))
            if np.any(need):
                f = np.where(need, mag, 1.0)
                u, du = u / f, du / f
    acc = complex(u.sum())
    for _ in range(6):
        x = _Z[:, None] / _ZEROS[None, :]
        acc += complex((np.log1p(-x) + x).sum())
    return acc + complex(R.charfns(_GRID, _GRID_LAMS)["plus"].sum())


class Pace:
    """Kernel passes taken through one phase of a run."""

    def __init__(self):
        self.samples = []
        self._mids = []
        self._last = -float("inf")

    def sample(self, passes: int = 1):
        for _ in range(passes):
            t0 = time.perf_counter()
            kernel()
            self._last = time.perf_counter()
            self.samples.append(self._last - t0)
            self._mids.append(0.5 * (t0 + self._last))

    def catch_up(self, least: int = 0):
        """One pass for every EVERY_S of wall time since the last pass, so
        the passes spread over the phase as evenly as the gaps between
        operations allow; at least least passes, at most MAX_PASSES."""
        due = (time.perf_counter() - self._last) / EVERY_S
        self.sample(int(max(least, min(MAX_PASSES, due))))

    def median(self) -> float:
        return statistics.median(self.samples)

    def factor(self) -> float:
        """Wall seconds -> seconds at the reference pace, for the phase."""
        return REF_KERNEL_S / self.median()

    def scale(self, t0: float, t1: float) -> float:
        """The wall time from t0 to t1 at the reference pace, by the passes
        within WINDOW_S of it (all passes when none is)."""
        near = [d for d, m in zip(self.samples, self._mids)
                if t0 - WINDOW_S <= m <= t1 + WINDOW_S] or self.samples
        return (t1 - t0) * REF_KERNEL_S / statistics.median(near)
