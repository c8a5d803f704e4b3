"""Characteristic functions rebuilt from their zeros.

An entire function of exponential type with the two-frequency
asymptotics f(z) = z[c1 cos z + c2 sin z] + O(e^|Im z|) is pinned down
by its zeros plus one nonzero coefficient c0 from {c1, c2, c1+c2,
c1-c2}: Hadamard factorization gives f = c e^{bz} E(z) with E the
genus-1 canonical product over the zeros, and b, c follow from limits
of ln E / z and e^{bz} E(z)/z along real sampling points where the
trig combination attached to c0 dominates.

Numerically the limits need care on three fronts.  Truncating the
product at N zeros bends ln E(x) by -x^2 sum' 1/z_k^2 plus higher
powers of x over the excluded zeros, which no short polynomial basis
absorbs once x is large; since the excluded zeros continue the edge
lattice of the supplied ones, that tail is restored analytically (a
direct block of model factors plus Euler-Maclaurin power sums), and
the sample fit against {1, 1/n, ln n / n, n, n^2} only has to pick up
the genuine finite-size corrections of the limits plus the small
lattice-model mismatch.  Second, shifting b by i m (integer m) leaves
every sample at x = 2n pi + t0 unchanged (e^{i m x} is periodic), so
the log-limit only determines Im b modulo 1; the true branch is
recovered by checking which candidate makes c e^{bz} E(z)/z fit the
two-frequency class at off-lattice probe points.  Third, per-factor principal logs
are used throughout, which is exact for the product's value and keeps
the imaginary part of ln E single-valued.

The module also inverts the spectral relations tying the two boundary
sign choices together: the even-problem square root recovering the
minus function from the plus function (with branch tracking across the
double zeros of the radicand), the normalized difference recovering
the interior value function, and the half-sum recovering the Robin
characteristic function.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .charfn import delta
from .errors import (
    BranchAmbiguity,
    InconsistentInput,
    LimitNotConverged,
    OutOfDomain,
    ValidationError,
    ZeroAtOrigin,
)
from .model import ReggeProblem, Sign, _csv_numbers, write_csv

__all__ = [
    "ZeroSet",
    "read_zeroset_csv",
    "write_zeroset_csv",
    "HadamardModel",
    "hadamard_build",
    "EvenMinusEvaluator",
    "even_delta_minus",
    "even_minus",
    "delta0_from_pair",
    "two_spectra_robin",
]

# selector -> (sampling offset t0 from 2 n pi, weight w with
# c1 cos x + c2 sin x = w * c0 at those points)
_SELECTORS = {
    "c1": (0.0, 1.0),
    "c2": (0.5 * math.pi, 1.0),
    "c1+c2": (0.25 * math.pi, 1.0 / math.sqrt(2.0)),
    "c1-c2": (-0.25 * math.pi, 1.0 / math.sqrt(2.0)),
}


@dataclass
class ZeroSet:
    """Nonzero zeros with multiplicities plus the order at the origin."""

    zeros: list
    order_at_origin: int = 0

    def __post_init__(self):
        if self.order_at_origin < 0:
            raise InconsistentInput("order_at_origin must be >= 0")
        norm = []
        for z, m in self.zeros:
            z = complex(z)
            m = int(m)
            if m < 1:
                raise InconsistentInput(f"multiplicity {m} < 1 at {z}")
            if not cmath.isfinite(z):
                raise InconsistentInput(f"zero {z} is not finite")
            if z == 0:
                raise InconsistentInput(
                    "zero at the origin belongs in order_at_origin")
            norm.append((z, m))
        norm.sort(key=lambda t: (abs(t[0]), t[0].real, t[0].imag))
        for (z1, _), (z2, _) in zip(norm, norm[1:]):
            if abs(z1 - z2) < 1e-9 * (1.0 + abs(z1)):
                raise InconsistentInput(
                    f"duplicate zeros {z1} and {z2}; merge into multiplicity")
        self.zeros = norm

    @property
    def values(self) -> np.ndarray:
        return np.array([z for z, _ in self.zeros], dtype=complex)

    @property
    def weights(self) -> np.ndarray:
        return np.array([m for _, m in self.zeros], dtype=float)


def write_zeroset_csv(path: str, zs: ZeroSet) -> None:
    write_csv(path, f"# order_at_origin={zs.order_at_origin}\n"
              "re,im,multiplicity", zs.zeros)


def read_zeroset_csv(path: str) -> ZeroSet:
    order = 0
    zeros = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, val = line.lstrip("# ").partition("=")
                if key.strip() == "order_at_origin":
                    [order] = _csv_numbers(path, line, [val], [int])
                continue
            if line.startswith("re,"):
                continue
            cells = line.split(",")
            if len(cells) != 3:
                raise InconsistentInput(
                    f"{path}: expected re,im,multiplicity rows, "
                    f"got {line!r}")
            zr, zi, m = _csv_numbers(path, line, cells, (float, float, int))
            zeros.append((complex(zr, zi), m))
    return ZeroSet(zeros=zeros, order_at_origin=order)


# ---- Hadamard factorization -------------------------------------------------

@dataclass
class HadamardModel:
    """f(z) = c e^{bz} z^s prod (1 - z/z_n) e^{z/z_n}, truncated at N zeros."""

    zeroset: ZeroSet
    b: complex
    c: complex
    selector: str
    c0_value: complex
    truncation: int
    branch_shift: int = 0       # integer added to Im b by the class fit
    class_residual: float = 0.0  # relative misfit of the winning branch
    _vals: np.ndarray = field(default=None, repr=False)
    _wts: np.ndarray = field(default=None, repr=False)
    _rays: tuple = field(default=None, repr=False)

    def __post_init__(self):
        if self._vals is None:
            self._vals, self._wts = _truncated(self.zeroset, self.truncation)
        if self._rays is None:
            self._rays = _tail_rays(self._vals)

    def log_E(self, z) -> np.ndarray:
        """ln E(z) with the continued-lattice tail.

        Raises OutOfDomain for a non-finite point or one beyond the
        tail's reach (see _tail_reach), where the capped tail sum would
        return a silently inaccurate value.
        """
        z = np.asarray(z, dtype=complex)
        zmax = float(np.max(np.abs(z), initial=0.0))
        reach = _tail_reach(self._rays)
        if not (math.isfinite(zmax) and zmax <= reach):
            raise OutOfDomain(
                f"Hadamard model evaluated at |z| = {zmax:.6g}; it needs "
                f"finite |z| <= {reach:.6g}, the reach of its lattice tail")
        return (_log_E(z, self._vals, self._wts, self.zeroset.order_at_origin)
                + _tail_log(z, self._rays))

    def eval(self, z):
        """f(z): a complex for a scalar z, else an array of z's shape."""
        zs = np.atleast_1d(np.asarray(z, dtype=complex))
        out = np.exp(np.log(self.c) + self.b * zs + self.log_E(zs))
        if self.zeroset.order_at_origin > 0:
            out[zs == 0] = 0.0
        elif np.any(zs == 0):
            out[zs == 0] = self.c
        return complex(out[0]) if np.ndim(z) == 0 else out

    __call__ = eval


def _truncated(zs: ZeroSet, n: int):
    vals, wts = zs.values, zs.weights
    if len(vals) == 0:
        return vals, wts
    counts = np.cumsum(wts)
    idx = int(np.searchsorted(counts, n))
    idx = min(idx, len(vals) - 1)
    # extend across magnitude ties so symmetric partners are not split
    cut = abs(vals[idx])
    while idx + 1 < len(vals) and abs(vals[idx + 1]) <= cut * (1 + 1e-9):
        idx += 1
    return vals[:idx + 1], wts[:idx + 1]


# zeros per block of the product sums; each point's sum adds the blocks
# in order, so its rounding does not depend on the other points
_BLOCK = 4096
# complex elements per (points, zeros) temporary of a product sum
# (1 MiB: 16 points x one full block)
_TILE_ELEMENTS = 1 << 16


def _add_product_sum(out: np.ndarray, zf: np.ndarray, zeros: np.ndarray,
                     wts: np.ndarray | None = None) -> None:
    """out += sum over zeros of w (log1p(-z/zeta) + z/zeta), for one block.

    The points are taken a tile of _TILE_ELEMENTS // len(zeros) at a time,
    so the temporaries stay at _TILE_ELEMENTS elements whatever the number
    of points.  wts None means unit weights (not multiplied, which would
    turn a -inf term into nan).
    """
    rows = max(1, _TILE_ELEMENTS // len(zeros))
    for r in range(0, len(zf), rows):
        u = zf[r:r + rows, None] / zeros[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.log1p(-u) + u
        if wts is not None:
            term *= wts[None, :]
        out[r:r + rows] += term.sum(axis=1)


def _log_E(z: np.ndarray, vals: np.ndarray, wts: np.ndarray,
           s: int) -> np.ndarray:
    """Sum of per-factor principal logs of the genus-1 product.

    Ordered block reduction over _BLOCK zeros at a time, each block
    tiled so no temporary exceeds _TILE_ELEMENTS complex elements (1 MiB):
    deterministic regardless of evaluation batch shape, and the working
    set does not grow with the number of points.  Exact for the
    product's value since exp undoes each factor's log individually.
    """
    zf = z.reshape(-1)
    out = np.zeros(zf.shape, dtype=complex)
    if s > 0:
        zero = zf == 0
        lz = s * np.log(np.where(zero, 1.0, zf))
        lz[zero] = complex(-math.inf, 0.0)
        out += lz
    for i in range(0, len(vals), _BLOCK):
        _add_product_sum(out, zf, vals[i:i + _BLOCK], wts[i:i + _BLOCK])
    return out.reshape(z.shape)


@dataclass(frozen=True)
class _TailRay:
    """Arithmetic continuation of one side of a zero set beyond its edge."""

    side: float   # +1 or -1: sign of the real parts on this ray
    start: float  # |Re| of the outermost supplied zero
    step: float
    imag: float   # shared imaginary offset of the continued zeros

    def zero(self, j: np.ndarray) -> np.ndarray:
        return self.side * (self.start + j * self.step) + 1j * self.imag


def _tail_rays(vals: np.ndarray) -> tuple[_TailRay, ...]:
    """Fit a lattice ray to the outer 48 zeros on each side of the
    imaginary axis.  A side with under 16 zeros or non-increasing
    spacing gets no ray (its truncation error is left to the sample fit)."""
    rays = []
    for side in (1.0, -1.0):
        zs = vals[vals.real * side > 1e-12]
        if len(zs) < 16:
            continue
        zs = zs[np.argsort(zs.real * side)][-48:]
        steps = np.diff(zs.real * side)
        step = float(np.median(steps))
        if not step > 1e-9:
            continue
        rays.append(_TailRay(side=side, start=float(zs.real[-1] * side),
                             step=step, imag=float(np.median(zs.imag))))
    return tuple(rays)


# the direct tail sum runs until |z| / |zero| <= 1 / _TAIL_RATIO, over
# at most _TAIL_CAP continued zeros per ray
_TAIL_RATIO = 50.0
_TAIL_CAP = 2_000_000


def _tail_reach(rays: tuple[_TailRay, ...]) -> float:
    """Largest |z| for which the capped tail keeps its 1/_TAIL_RATIO rule."""
    return min(((ray.start + _TAIL_CAP * ray.step) / _TAIL_RATIO
                for ray in rays), default=math.inf)


def _powsum(c0: complex, a: int, p: int) -> complex:
    """Euler-Maclaurin value of sum_{j>=a} (c0+j)^-p for Re(c0+a) >> 1."""
    w = c0 + a
    return (w ** (1 - p) / (p - 1) + w ** (-p) / 2.0
            + p * w ** (-p - 1) / 12.0
            - p * (p + 1) * (p + 2) * w ** (-p - 3) / 720.0)


def _tail_log(z: np.ndarray, rays: tuple[_TailRay, ...]) -> np.ndarray:
    """ln of the product over the continued-lattice zeros.

    Factors up to j0 (chosen so |z| / |zero| <= 1/50 beyond it, capped
    at _TAIL_CAP) are summed directly; the remainder uses the power
    series of log1p through z^6 with Euler-Maclaurin sums of (c0+j)^-p,
    so the O(1/j) decay of the quadratic term never has to be summed
    term by term.
    """
    zf = z.reshape(-1)
    out = np.zeros(zf.shape, dtype=complex)
    zmax = float(np.max(np.abs(zf))) if zf.size else 0.0
    for ray in rays:
        j0 = max(4096, int(math.ceil((_TAIL_RATIO * zmax - ray.start)
                                     / ray.step)))
        j0 = min(j0, _TAIL_CAP)
        for i in range(1, j0 + 1, _BLOCK):
            _add_product_sum(out, zf, ray.zero(
                np.arange(i, min(i + _BLOCK, j0 + 1), dtype=float)))
        c0 = (ray.start + 1j * ray.side * ray.imag) / ray.step
        for p in range(2, 7):
            s_p = _powsum(c0, j0 + 1, p) * (ray.side * ray.step) ** (-p)
            out -= zf ** p * (s_p / p)
    return out.reshape(z.shape)


def _basis_fit(ns: np.ndarray, ys: np.ndarray) -> tuple[complex, np.ndarray]:
    """Least squares on {1, 1/n, ln n / n, n, n^2}; returns the constant.

    After the lattice-tail compensation the drift left in the samples
    is the genuine finite-size correction of the limits (1/n and
    ln n / n scales) plus the residual model mismatch of the continued
    tail, for which the n and n^2 columns act as a safety margin.
    """
    A = np.stack([np.ones_like(ns), 1.0 / ns, np.log(ns) / ns, ns, ns * ns],
                 axis=1)
    coef, *_ = np.linalg.lstsq(A.astype(complex), ys, rcond=None)
    return complex(coef[0]), coef


_PROBE_OFFSETS = np.array([0.37, 1.03, 1.71, 2.39, 3.17, 3.91, 4.63, 5.41])


def hadamard_build(zs: ZeroSet, selector: str, c0_value: complex,
                   N: int = 10000, tol: float = 1e-4) -> HadamardModel:
    """Recover b and c of f = c e^{bz} E(z) from the zero set.

    selector names which coefficient of the leading z[c1 cos z +
    c2 sin z] is known; sampling points are placed where that
    combination carries the full amplitude (2n pi for c1, (2n+1/2) pi
    for c2, offsets -+ pi/4 for c1 -+ c2).  Raises LimitNotConverged
    when the extrapolated limits do not settle within tol or the
    exponential branch cannot be decided.
    """
    if selector not in _SELECTORS:
        raise InconsistentInput(
            f"selector {selector!r} not one of {sorted(_SELECTORS)}")
    c0_value = complex(c0_value)
    if c0_value == 0:
        raise InconsistentInput("the known coefficient must be nonzero")
    vals, wts = _truncated(zs, N)
    if len(vals) < 32:
        raise LimitNotConverged(
            f"{len(vals)} zeros is too few to estimate the limits")
    t0, w = _SELECTORS[selector]
    # octave ladder n = 2^6 .. 2^12; the lattice-tail compensation keeps
    # the samples meaningful even past the reach of the supplied zeros
    ns = np.array([64.0 * 2 ** j for j in range(7)])
    s = zs.order_at_origin
    rays = _tail_rays(vals)
    xs = 2.0 * math.pi * ns + t0
    # fit against x/2pi rather than n: the s ln x / x part of the drift
    # then sits exactly in the span of the 1/t and ln t / t columns
    ts = xs / (2.0 * math.pi)
    lE = (_log_E(xs.astype(complex), vals, wts, s)
          + _tail_log(xs.astype(complex), rays))
    b_ns = -lE / xs
    b_est, _ = _basis_fit(ts, b_ns)
    b_drop, _ = _basis_fit(ts[:-1], b_ns[:-1])
    if abs(b_est - b_drop) > tol * max(1.0, abs(b_est)):
        raise LimitNotConverged(
            f"b estimates {b_est:.6g} and {b_drop:.6g} disagree beyond {tol:g}")

    # Branch repair: b + i m is invisible at the sampling lattice, so
    # test which m keeps e^{bz}E(z)/z inside span{cos z, sin z} at
    # off-lattice probes.  Per-block fits keep the test immune to the
    # slowly varying truncation damping of E.
    probe_ns = ns[:min(6, len(ns))]
    # only bm * ys depends on m: the product terms are evaluated once per
    # probe block, and the sum keeps its left-to-right rounding order
    probes = []
    for n in probe_ns:
        ys = 2.0 * math.pi * n + _PROBE_OFFSETS
        probes.append((ys, _log_E(ys.astype(complex), vals, wts, s),
                       _tail_log(ys.astype(complex), rays), np.log(ys)))
    scores = {}
    for m in range(-3, 4):
        bm = b_est + 1j * m
        resid = []
        for ys, le, tl, ly in probes:
            lv = bm * ys + le + tl - ly
            v = np.exp(lv)
            A = np.stack([np.cos(ys), np.sin(ys)], axis=1).astype(complex)
            coef, *_ = np.linalg.lstsq(A, v, rcond=None)
            r = np.linalg.norm(v - A @ coef) / np.linalg.norm(v)
            resid.append(r)
        scores[m] = float(np.mean(resid))
    order = sorted(scores, key=scores.get)
    m_best, m_next = order[0], order[1]
    if scores[m_best] > 0.3 or (scores[m_next] < 1.8 * scores[m_best]
                                and scores[m_next] - scores[m_best] < 0.15):
        raise LimitNotConverged(
            "exponential branch undecided: class residuals "
            f"{scores[m_best]:.3g} (m={m_best}) vs {scores[m_next]:.3g} "
            f"(m={m_next})")
    b = b_est + 1j * m_best

    # c-limit in log space: magnitudes span many orders across the
    # schedule, so fitting L_n directly would let the largest samples
    # swamp the constant term.
    log_L = b * xs + lE - np.log(xs)
    log_L = log_L.real + 1j * np.unwrap(log_L.imag)
    lL_est, _ = _basis_fit(ts, log_L)
    lL_drop, _ = _basis_fit(ts[:-1], log_L[:-1])
    if abs(lL_est - lL_drop) > tol * max(1.0, abs(lL_est)):
        raise LimitNotConverged(
            f"c-limit log estimates {lL_est:.6g} and {lL_drop:.6g} disagree "
            f"beyond {tol:g}")
    c = c0_value * w / np.exp(lL_est)
    return HadamardModel(zeroset=zs, b=b, c=c, selector=selector,
                         c0_value=c0_value, truncation=N,
                         branch_shift=m_best,
                         class_residual=scores[m_best],
                         _vals=vals, _wts=wts, _rays=rays)


# ---- even problem: minus function from the plus function -------------------

class EvenMinusEvaluator:
    """Square-root branch of Delta_+(lam) Delta_+(-lam) - 4 a^2 lam^2.

    For an even problem the minus function squared equals that
    radicand, and its value at 0 equals Delta_+(0).  The branch is
    tracked along the real axis from 0; each step picks the root
    closer to a linear extrapolation of the previous two values, which
    flips the sign across simple real zeros (double zeros of the
    radicand) exactly as the continuous branch does.  Off-axis queries
    continue the tracking vertically from the nearest real anchor.
    """

    def __init__(self, dplus, alpha: float, path: np.ndarray):
        self.dplus = dplus
        self.alpha = float(alpha)
        path = np.asarray(path, dtype=float)
        if path.ndim != 1 or len(path) < 2:
            raise InconsistentInput("path must be a 1-D grid of >= 2 points")
        if path[0] != 0.0:
            raise InconsistentInput("path must start at 0")
        if np.any(np.diff(path) <= 0):
            raise InconsistentInput("path must increase strictly")
        v0 = complex(np.atleast_1d(dplus(np.array([0.0 + 0.0j])))[0])
        if abs(v0) < 1e-10:
            raise ZeroAtOrigin(
                "Delta_+(0) = 0: the even reconstruction is excluded "
                "(two even potentials share these eigenvalues)")
        self.path = path
        self._cache: dict[complex, complex] = {}
        self._prime(path)
        # even in lam: the branch leaves 0 with zero slope
        self.values = np.array(self._walk(path[0], v0, 0j, path[1:]))

    def radicand(self, lam):
        lam = np.asarray(lam, dtype=complex)
        return (np.asarray(self.dplus(lam)) * np.asarray(self.dplus(-lam))
                - 4.0 * self.alpha ** 2 * lam * lam)

    def _prime(self, points) -> None:
        """Batch the underlying evaluator over the uncached points; the
        walks then read scalars from the cache."""
        new = sorted({complex(t) for t in points} - self._cache.keys(),
                     key=lambda t: (t.real, t.imag))
        if not new:
            return
        vals = np.atleast_1d(self.radicand(np.array(new, dtype=complex)))
        for t, r in zip(new, vals):
            self._cache[t] = complex(r)

    def _step(self, t0: complex, v0: complex, slope: complex, t1: complex,
              depth: int) -> complex:
        self._prime([t1])
        c = cmath.sqrt(self._cache[complex(t1)])
        pred = v0 + slope * (t1 - t0)
        v1 = c if abs(c - pred) <= abs(-c - pred) else -c
        # candidates closer to each other than the step jump: refine
        if 2.0 * abs(c) < abs(v1 - v0) and abs(v1 - v0) > 1e-12:
            if depth >= 10:
                raise BranchAmbiguity(
                    f"square-root branch undecidable near lam = {t1}")
            tm = 0.5 * (t0 + t1)
            vm = self._step(t0, v0, slope, tm, depth + 1)
            sm = (vm - v0) / (tm - t0)
            return self._step(tm, vm, sm, t1, depth + 1)
        return v1

    def _walk(self, t, v, slope, nodes) -> list:
        """Branch values from (t, v) through each node in turn, [v, ...];
        every step extrapolates with the slope of the one before."""
        out = [v]
        for t1 in nodes:
            vn = self._step(t, v, slope, t1, 0)
            if t1 != t:
                slope = (vn - v) / (t1 - t)
            v, t = vn, t1
            out.append(v)
        return out

    def _nodes(self, lam: complex):
        """(anchor index j, x, real nodes, vertical nodes) carrying the
        branch from path[j - 1] along the real axis to x = |Re lam|, then
        vertically to lam (reflected into Re >= 0: even in lam)."""
        if lam.real < 0:
            lam = -lam
        x, y = lam.real, lam.imag
        if x > self.path[-1] + 1e-12:
            raise InconsistentInput(
                f"|Re lam| = {x:.6g} beyond the tracked path end "
                f"{self.path[-1]:.6g}")
        j = int(np.searchsorted(self.path, x))
        j = min(max(j, 1), len(self.path) - 1)
        real = np.linspace(self.path[j - 1], x, 5)[1:]
        if y == 0.0:
            return j, x, real, ()
        h = max(self.path[1] - self.path[0], 1e-3)
        nsub = max(4, int(math.ceil(abs(y) / h)))
        return j, x, real, x + 1j * np.linspace(0.0, y, nsub + 1)[1:]

    def _value(self, j: int, x: float, real, vertical) -> complex:
        t0, v0 = self.path[j - 1], self.values[j - 1]
        if j >= 2:
            slope = (v0 - self.values[j - 2]) / (t0 - self.path[j - 2])
        else:
            slope = 0.0 + 0.0j
        v = self._walk(t0, v0, slope, real)[-1]
        return self._walk(complex(x), v, 0.0 + 0.0j, vertical)[-1]

    def __call__(self, lam):
        arr = np.atleast_1d(np.asarray(lam, dtype=complex))
        plans = [self._nodes(complex(z)) for z in arr.reshape(-1)]
        self._prime([t for _, _, real, vert in plans for t in (*real, *vert)])
        out = np.array([self._value(*plan) for plan in plans],
                       dtype=complex).reshape(arr.shape)
        if np.ndim(lam) == 0:
            return complex(out.reshape(())[()])
        return out


def even_delta_minus(dplus, alpha: float, path) -> EvenMinusEvaluator:
    """Minus-sign characteristic function of an even problem from the
    plus-sign one, as a branch-tracked evaluator along the given real
    path (a strictly increasing grid starting at 0)."""
    return EvenMinusEvaluator(dplus, alpha, np.asarray(path, dtype=float))


def even_minus(p: ReggeProblem, path,
               nsteps: int | None = None) -> EvenMinusEvaluator:
    """even_delta_minus on p's own Delta_+, once p is checked to be even:
    alpha0 = alpha and beta0 = beta to 1e-12, and a grid q equal to its
    reverse to 1e-10 (1 + max |q|).  Raises ValidationError otherwise."""
    if abs(p.alpha0 - p.alpha) > 1e-12 or abs(p.beta0 - p.beta) > 1e-12:
        raise ValidationError(
            "even mode needs matching ends: alpha0 = alpha, beta0 = beta")
    q = p.potential
    if q.kind not in ("zero", "constant"):
        s = q.samples
        if np.abs(s - s[::-1]).max() > 1e-10 * (1.0 + float(np.abs(s).max())):
            raise ValidationError("even mode needs q(x) = q(a - x)")
    return even_delta_minus(lambda z: delta(p, Sign.PLUS, z, nsteps=nsteps),
                            p.alpha, path)


# ---- pairwise combinations --------------------------------------------------

def delta0_from_pair(dplus, dminus, alpha: float, lam):
    """Interior value function from the pair: (D+ - D-)/(2 i alpha lam).

    At lam = 0 the quotient is resolved by a central difference of the
    numerator (which vanishes at 0 by construction), of step h = 1e-5.
    """
    h = 1e-5
    arr = np.atleast_1d(np.asarray(lam, dtype=complex))
    out = np.empty(arr.shape, dtype=complex)
    big = np.abs(arr) >= 1e-8
    if np.any(big):
        zb = arr[big]
        num = (np.asarray(dplus(zb), dtype=complex)
               - np.asarray(dminus(zb), dtype=complex))
        out[big] = num / (2j * alpha * zb)
    if np.any(~big):
        for idx in np.argwhere(~big):
            z = arr[tuple(idx)]
            num = (complex(np.atleast_1d(dplus(z + h))[0])
                   - complex(np.atleast_1d(dminus(z + h))[0])
                   - complex(np.atleast_1d(dplus(z - h))[0])
                   + complex(np.atleast_1d(dminus(z - h))[0]))
            out[tuple(idx)] = num / (4j * alpha * h)
    if np.ndim(lam) == 0:
        return complex(out.reshape(())[()])
    return out


def two_spectra_robin(dplus, dminus, lam):
    """Characteristic function of the lam-independent Robin problem:
    the average of the two sign choices."""
    arr = np.atleast_1d(np.asarray(lam, dtype=complex))
    out = 0.5 * (np.asarray(dplus(arr), dtype=complex)
                 + np.asarray(dminus(arr), dtype=complex))
    if np.ndim(lam) == 0:
        return complex(out.reshape(-1)[0])
    return out

