"""Zero location in rectangles by the argument principle.

Winding numbers are computed from adaptively refined boundary samples
(phase increments kept below pi/2), rectangles are quadrisected until
each cell isolates one zero counted with multiplicity, and zeros are
polished by (multiplicity-aware) Newton iteration.  Evaluators must be
numpy-vectorised callables of a complex argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.optimize import brentq, linear_sum_assignment

from .charfn import (delta, delta_dot, delta_zero, delta_zero_dot,
                     robin_charfn, robin_dot)
from .odecore import DEFAULT_STEPS
from .errors import (
    BoundaryZero,
    CountMismatch,
    InconsistentInput,
    MultiplicityCap,
    NewtonDivergence,
    Overflow,
)
from .asympt import lattice_indices
from .model import ReggeProblem, Sign, write_csv
from .reconstruct import two_spectra_robin

__all__ = [
    "Rectangle",
    "SpectrumEntry",
    "Spectrum",
    "winding_count",
    "newton_refine",
    "find_zeros",
    "locate_zeros",
    "compute_spectrum",
    "robin_zeros",
    "index_eigenvalues",
    "imaginary_axis_zeros",
    "interlace_and_signs",
    "InterlaceReport",
    "pair_symmetry_check",
    "pair_zeros",
    "write_spectrum_csv",
]

_PER_EDGE = 16          # initial boundary samples per edge, at least
_MAX_ROUNDS = 16        # boundary refinement rounds before BoundaryZero
_FLOOR_REL = 1e-13      # |f| below this share of the boundary scale: a zero
# cut offsets, in units of the side, tried in turn when a zero meets a cut
_CUTS = (0.0, -0.0381966, 0.0527864, -0.0901699, 0.1180340, -0.1458980)
_MIN_CELL_REL = 1e-6    # smallest cell, relative to max(1, diameter)
_MULTIPLICITY_CAP = 4   # largest winding a smallest cell may report
_NEWTON_MAX_ITER = 50
_AXIS_SCAN = 2000       # scan points for imaginary_axis_zeros
_AXIS_ROOT_TOL = 1e-9   # |Delta_+| a bracketed axis root must reach
_INTERLACE_SCAN = 400   # scan points between consecutive tau_j


@dataclass(frozen=True)
class Rectangle:
    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise InconsistentInput("rectangle must have positive extent")

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.re_min + self.re_max),
                       0.5 * (self.im_min + self.im_max))

    @property
    def diameter(self) -> float:
        return float(np.hypot(self.re_max - self.re_min,
                              self.im_max - self.im_min))

    def contains(self, z: complex) -> bool:
        return (self.re_min <= z.real <= self.re_max
                and self.im_min <= z.imag <= self.im_max)

    def quadrisect(self, shift: float = 0.0) -> list["Rectangle"]:
        """Four children that tile self, cut shift sides off the middle."""
        w, h = self.re_max - self.re_min, self.im_max - self.im_min
        cr = 0.5 * (self.re_min + self.re_max) + shift * w
        ci = 0.5 * (self.im_min + self.im_max) + shift * h
        return [Rectangle(self.re_min, cr, self.im_min, ci),
                Rectangle(cr, self.re_max, self.im_min, ci),
                Rectangle(self.re_min, cr, ci, self.im_max),
                Rectangle(cr, self.re_max, ci, self.im_max)]


@dataclass
class SpectrumEntry:
    k: int | None
    lam: complex
    multiplicity: int
    residual: float


@dataclass
class Spectrum:
    entries: list[SpectrumEntry]
    sign: Sign | None               # None for the interior function Delta_0
    region: Rectangle

    def lambdas(self) -> np.ndarray:
        return np.array([e.lam for e in self.entries], dtype=complex)

    def by_index(self) -> dict:
        return {e.k: e for e in self.entries}


# ---- winding numbers ------------------------------------------------------

def _param_to_point(rect: Rectangle, t: np.ndarray) -> np.ndarray:
    t = np.mod(t, 4.0)
    w = rect.re_max - rect.re_min
    h = rect.im_max - rect.im_min
    z = np.empty(t.shape, dtype=complex)
    e0 = t < 1.0
    e1 = (t >= 1.0) & (t < 2.0)
    e2 = (t >= 2.0) & (t < 3.0)
    e3 = t >= 3.0
    z[e0] = rect.re_min + w * t[e0] + 1j * rect.im_min
    z[e1] = rect.re_max + 1j * (rect.im_min + h * (t[e1] - 1.0))
    z[e2] = rect.re_max - w * (t[e2] - 2.0) + 1j * rect.im_max
    z[e3] = rect.re_min + 1j * (rect.im_max - h * (t[e3] - 3.0))
    return z


class _BoundaryZeroMark(Exception):
    pass


def _evaluate(f, z):
    """f(z) as a complex array.

    Overflow is left to _require_finite and Newton's own checks, which
    report it, so numpy's overflow warnings are kept quiet here.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return np.asarray(f(z), dtype=complex)


def _require_finite(*values, where: str):
    """Raise Overflow when an evaluator returned inf or nan."""
    for vals in values:
        if not np.all(np.isfinite(vals)):
            raise Overflow(
                f"characteristic function not finite on {where}; the "
                f"integration mesh cannot represent this lambda range")


def _winding_multi(f, rects: list[Rectangle], samples_per_unit: float = 1.0):
    """Winding numbers for several rectangles with shared f batches.

    One call to f per refinement round evaluates the pending boundary
    points of every rectangle at once.  Returns a list whose entries are
    either an int count or a _BoundaryZeroMark instance.
    """
    # per rectangle: boundary parameters t in [0, 4) sampled so far (one
    # unit per edge, counterclockwise), f there, t still to evaluate, and
    # the result once known
    ts = [np.empty(0)] * len(rects)
    fs = [np.empty(0, dtype=complex)] * len(rects)
    pending, result = [], [None] * len(rects)
    for r in rects:
        edge = max(r.re_max - r.re_min, r.im_max - r.im_min)
        n = max(_PER_EDGE, int(np.ceil(edge * samples_per_unit)))
        pending.append(np.concatenate([e + np.arange(n) / n
                                       for e in range(4)]))
    for _ in range(_MAX_ROUNDS + 1):
        live = [i for i, res in enumerate(result) if res is None]
        if not live:
            break
        vals = _evaluate(f, np.concatenate(
            [_param_to_point(rects[i], pending[i]) for i in live]))
        _require_finite(vals, where="the winding contour")
        for i in live:
            t = np.concatenate([ts[i], pending[i]])
            order = np.argsort(t, kind="stable")
            ts[i] = t[order]
            fs[i] = np.concatenate([fs[i], vals[:len(pending[i])]])[order]
            vals = vals[len(pending[i]):]
            scale = np.max(np.abs(fs[i]))
            if scale == 0.0 or np.any(np.abs(fs[i]) < _FLOOR_REL * scale):
                result[i] = _BoundaryZeroMark(
                    f"boundary magnitude below {_FLOOR_REL:g} of scale")
                continue
            dphi = np.angle(np.roll(fs[i], -1) / fs[i])
            bad = np.abs(dphi) >= 0.5 * np.pi
            if np.any(bad):
                t_next = np.roll(ts[i], -1)
                t_next[-1] += 4.0
                pending[i] = np.mod(0.5 * (ts[i][bad] + t_next[bad]), 4.0)
                continue
            total = dphi.sum() / (2.0 * np.pi)
            n = int(np.rint(total))
            result[i] = (_BoundaryZeroMark(
                f"winding sum {total:.4f} not near an integer")
                if abs(total - n) > 0.2 else n)
    return [_BoundaryZeroMark(
        "phase increments still >= pi/2 after max refinement; "
        "a zero sits on or next to the rectangle boundary")
        if res is None else res for res in result]


def winding_count(f, rect: Rectangle) -> int:
    """Number of zeros of f inside rect, counted with multiplicity.

    Boundary samples are refined until consecutive phase increments stay
    below pi/2.  Raises BoundaryZero when a sample magnitude collapses
    relative to the boundary scale (a zero on or next to the contour)
    or when refinement stalls the same way.
    """
    res = _winding_multi(f, [rect])[0]
    if isinstance(res, _BoundaryZeroMark):
        raise BoundaryZero(str(res))
    return res


def _partition(f, cells: list[Rectangle], samples_per_unit: float):
    """Quadrisect every cell; [(child, winding count), ...].

    The children of all cells are counted in one batch.  A cell with a
    zero on one of its cuts is cut again at the next offset of _CUTS,
    both cuts moving together, so the children always tile their parent.
    """
    out = []
    for shift in _CUTS:
        if not cells:
            break
        kids = [c.quadrisect(shift) for c in cells]
        counts = _winding_multi(f, [k for ks in kids for k in ks],
                                samples_per_unit)
        retry = []
        for i, (cell, ks) in enumerate(zip(cells, kids)):
            cs = counts[4 * i:4 * i + 4]
            if any(isinstance(c, _BoundaryZeroMark) for c in cs):
                retry.append(cell)
            else:
                out.extend(zip(ks, cs))
        cells = retry
    if cells:
        raise BoundaryZero(f"a zero lies on every cut tried in {cells[0]}")
    return out


# ---- Newton refinement ----------------------------------------------------

def newton_refine(f, fprime, z0, mult=1, tol: float = 1e-12):
    """Multiplicity-aware Newton: z -> z - mult * f/f'.

    Vectorised over an array of starting points; mult may be a scalar or
    a matching integer array.  Returns (z, residual, converged) arrays;
    convergence means |f| <= tol or the step size stagnated at rounding
    level with a small residual.  At least one step is always taken so a
    multiple zero is polished past the |f| <= tol shell around it.  f is
    evaluated twice per iteration: f' at z, and f at the new z, which the
    next iteration reuses.  Raises Overflow when f is not finite at the
    seeds; an iterate at which f or f' stops being finite ends there,
    unconverged.
    """
    z = np.atleast_1d(np.asarray(z0, dtype=complex)).copy()
    m = np.broadcast_to(np.asarray(mult, dtype=float), z.shape)
    res = np.full(z.shape, np.inf)
    done = np.zeros(z.shape, dtype=bool)
    stag = np.zeros(z.shape, dtype=bool)
    fz = None
    for _ in range(_NEWTON_MAX_ITER):
        active = ~(done | stag)
        if not np.any(active):
            break
        if fz is None:
            # f at the seeds; later iterations reuse f at the last iterate
            fz = _evaluate(f, z)
            _require_finite(fz, where="Newton seeds")
        fpz = _evaluate(fprime, z)
        ok = np.abs(fpz) > 0.0
        step = np.zeros_like(z)
        np.divide(m * fz, fpz, out=step, where=active & ok)
        z = z - step
        fz = _evaluate(f, z)
        res = np.abs(fz)
        tiny = np.abs(step) <= 1e-15 * (1.0 + np.abs(z))
        done |= (res <= tol) & tiny
        done |= (res <= tol) & (m == 1)
        stag |= tiny & ~done
        # an iterate that left the evaluator's range cannot come back
        stag |= ~np.isfinite(fz) | ~np.isfinite(fpz)
    converged = done | (res <= np.sqrt(tol))
    bad = ~np.isfinite(z)
    converged &= ~bad
    return z, res, converged


# ---- zero search ----------------------------------------------------------

def find_zeros(f, fprime, rect: Rectangle, tol: float = 1e-12,
               samples_per_unit: float = 1.0):
    """All zeros of f in rect as a list of (location, multiplicity, residual).

    Quadrisection by winding count, processed breadth-first so every
    generation of sub-rectangles shares f batches; isolating cells then
    seed one vectorised Newton run.  The cells partition rect: a zero on
    a cut moves the cut (see _partition), never a cell's edge.  A Newton
    result counts only inside its own cell; otherwise the cell is
    quadrisected and searched again.  Cells that stop separating below
    the minimum cell size, _MIN_CELL_REL * max(1, diameter of rect), are
    treated as genuine multiple zeros up to _MULTIPLICITY_CAP.  Raises
    BoundaryZero when a zero lies on the edge of rect, and CountMismatch
    when the multiplicities do not sum to the winding count of rect
    (argument principle; Delves and Lyness, Math. Comp. 21, 1967).
    """
    min_cell = _MIN_CELL_REL * max(1.0, rect.diameter)

    total = _winding_multi(f, [rect], samples_per_unit)[0]
    if isinstance(total, _BoundaryZeroMark):
        raise BoundaryZero(f"a zero lies on the edge of {rect}; move an edge")
    pending = [(rect, total)]
    isolating: list[tuple[Rectangle, int]] = []
    while pending:
        to_split: list[Rectangle] = []
        for cell, count in pending:
            if count == 0:
                continue
            if count == 1 or cell.diameter <= min_cell:
                if count > _MULTIPLICITY_CAP:
                    raise MultiplicityCap(
                        f"winding {count} exceeds multiplicity cap "
                        f"{_MULTIPLICITY_CAP} in cell around {cell.center}")
                isolating.append((cell, count))
            else:
                to_split.append(cell)
        pending = _partition(f, to_split, samples_per_unit)

    found: list[tuple[complex, int, float]] = []
    while isolating:
        cells = [c for c, _ in isolating]
        counts = np.array([m for _, m in isolating])
        z0 = np.array([c.center for c in cells], dtype=complex)
        z, res, ok = newton_refine(f, fprime, z0, mult=counts, tol=tol)
        rejected: list[Rectangle] = []
        for i, (cell, m) in enumerate(isolating):
            if ok[i] and cell.contains(complex(z[i])):
                found.append((complex(z[i]), int(m), float(res[i])))
            elif cell.diameter > min_cell:
                rejected.append(cell)
            else:
                raise NewtonDivergence(
                    f"Newton failed from {cell.center} "
                    f"(residual {res[i]:.3e}, landed at {z[i]})")
        isolating = [(c, n) for c, n in
                     _partition(f, rejected, samples_per_unit) if n > 0]

    found.sort(key=lambda t: (t[0].real, t[0].imag))
    count = sum(m for _, m, _ in found)
    if count != total:
        raise CountMismatch(f"count {count} != winding {total}")
    return found


def locate_zeros(f, fprime, rect: Rectangle, a: float, tol: float = 1e-12,
                 nsteps: int | None = None):
    """Zeros in rect of f, a characteristic function on [0, a].

    f(z, nsteps=n) and fprime(z, nsteps=n) evaluate on an n-step mesh.
    The subdivision search runs on a coarsened mesh, max(512, n/8) steps
    (winding counts and Newton seeds tolerate ~1e-6 relative error), then
    every zero is re-polished at the full mesh so positions and residuals
    are reported at full accuracy.  Returns find_zeros's list.
    """
    full = DEFAULT_STEPS if nsteps is None else int(nsteps)
    search_nsteps = min(max(512, full // 8), full)
    spu = max(1.0, 0.8 * a)
    zs = find_zeros(partial(f, nsteps=search_nsteps),
                    partial(fprime, nsteps=search_nsteps), rect, tol=tol,
                    samples_per_unit=spu)
    if search_nsteps < full and zs:
        z0 = np.array([z for z, _, _ in zs], dtype=complex)
        mults = np.array([m for _, m, _ in zs])
        z, res, ok = newton_refine(partial(f, nsteps=full),
                                   partial(fprime, nsteps=full), z0,
                                   mult=mults, tol=tol)
        zs = [(complex(z[i]) if ok[i] else zs[i][0], int(mults[i]),
               float(res[i])) for i in range(len(zs))]
    return zs


def compute_spectrum(p: ReggeProblem, sign: Sign | None, rect: Rectangle,
                     tol: float = 1e-12, nsteps: int | None = None) -> Spectrum:
    """Zeros of Delta_+ or Delta_- (sign), or of Delta_0 (None), in rect,
    on `locate_zeros`'s meshes; unindexed (see `index_eigenvalues`)."""
    if sign is None:
        f, fp = partial(delta_zero, p), partial(delta_zero_dot, p)
    else:
        f, fp = partial(delta, p, sign), partial(delta_dot, p, sign)
    zs = locate_zeros(f, fp, rect, p.a, tol=tol, nsteps=nsteps)
    entries = [SpectrumEntry(k=None, lam=z, multiplicity=m, residual=r)
               for z, m, r in zs]
    return Spectrum(entries=entries, sign=sign, region=rect)


def robin_zeros(p: ReggeProblem, rect: Rectangle, averaged: bool = False,
                nsteps: int | None = None):
    """Zeros of the Robin function y'(a) + beta y(a) in rect, evaluated
    as (Delta_+ + Delta_-)/2 when averaged (the two-spectra route), else
    directly; both polish with its derivative on `locate_zeros`'s meshes."""
    def f(z, nsteps):
        if not averaged:
            return robin_charfn(p, z, nsteps=nsteps)
        return two_spectra_robin(partial(delta, p, Sign.PLUS, nsteps=nsteps),
                                 partial(delta, p, Sign.MINUS, nsteps=nsteps),
                                 z)

    return locate_zeros(f, partial(robin_dot, p), rect, p.a, nsteps=nsteps)


# ---- lattice indexing -----------------------------------------------------

def index_eigenvalues(spec: Spectrum, model, sign: Sign) -> Spectrum:
    """Assign lattice indices k by nearest asymptotic main term.

    Matches zeros to the lattice mu_k (which already carries the
    iP0/(2a) shift) by minimum total distance, so asymptotic zeros snap
    to their k while low-lying zeros take the remaining nearby indices
    in order.  A degenerate model (no lattice) falls back to ordinal
    indexing in (Re, Im) sort order.
    """
    entries = sorted(spec.entries, key=lambda e: (e.lam.real, e.lam.imag))
    spec.entries = entries
    if model is None or model.case_sign == 0:
        for i, e in enumerate(entries):
            e.k = i
        return spec

    if not entries:
        return spec
    lams = np.array([e.lam for e in entries])
    a = model.a
    lo = int(np.floor(lams.real.min() * a / np.pi)) - 3
    hi = int(np.ceil(lams.real.max() * a / np.pi)) + 3
    ks = lattice_indices(model, lo, hi)
    mus = np.array([model.mu(sign, k) for k in ks])
    cost = np.abs(lams[:, None] - mus[None, :])
    row, col = linear_sum_assignment(cost)
    for i, j in zip(row, col):
        entries[i].k = ks[j]
    return spec


# ---- imaginary axis -------------------------------------------------------

def imaginary_axis_zeros(p: ReggeProblem, tau_max: float,
                         nsteps: int | None = None) -> list[float]:
    """tau > 0 with Delta_+(-i tau) = 0, by dense scan plus bisection.

    Requires real_data: then Delta_+ is real on the negative imaginary
    semiaxis and its nonzero zeros there are simple, so sign changes
    capture all of them.
    """
    if not p.real_data:
        raise InconsistentInput("imaginary axis scan requires real_data")
    taus = np.linspace(tau_max / _AXIS_SCAN, tau_max, _AXIS_SCAN)
    vals = delta(p, Sign.PLUS, -1j * taus, nsteps=nsteps)
    g = vals.real
    if np.max(np.abs(vals.imag)) > 1e-8 * (1.0 + np.max(np.abs(g))):
        raise InconsistentInput("Delta_+ not real on the imaginary axis")
    roots: list[float] = []
    gfun = lambda t: delta(p, Sign.PLUS, -1j * t, nsteps=nsteps).real
    for i in np.nonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0)[0]:
        r = brentq(gfun, taus[i], taus[i + 1], xtol=1e-14)
        if abs(delta(p, Sign.PLUS, -1j * r, nsteps=nsteps)) <= _AXIS_ROOT_TOL:
            roots.append(float(r))
    return roots


@dataclass
class InterlaceReport:
    ok: bool
    taus: list[float]
    sign_values_dot: list[float] = field(default_factory=list)
    sign_values_zero: list[float] = field(default_factory=list)
    interior_zero_counts: list[int] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)


def interlace_and_signs(p: ReggeProblem, taus,
                        nsteps: int | None = None) -> InterlaceReport:
    """Check the real-data sign and interlacing predictions on i R_-.

    At the ordered zeros tau_1 < ... < tau_kappa of Delta_+(-i tau):
    i * Ddot_+(-i tau_j) * (-1)^(kappa - j) < 0 and
    Delta_0(-i tau_j) * (-1)^(kappa - j) > 0, and Delta_0(-i tau) has
    exactly one zero strictly between consecutive tau_j.
    """
    if not p.real_data:
        raise InconsistentInput("interlacing check requires real_data")
    taus = sorted(float(t) for t in taus)
    kappa = len(taus)
    rep = InterlaceReport(ok=True, taus=taus)
    for j, tau in enumerate(taus, start=1):
        parity = (-1.0) ** (kappa - j)
        sdot = float((1j * delta_dot(p, Sign.PLUS, -1j * tau, nsteps=nsteps)).real) * parity
        szero = float(delta_zero(p, -1j * tau, nsteps=nsteps).real) * parity
        rep.sign_values_dot.append(sdot)
        rep.sign_values_zero.append(szero)
        if not sdot < 0.0:
            rep.violations.append(f"sign: i*Ddot_+ parity at tau_{j} = {sdot:.3e}")
        if not szero > 0.0:
            rep.violations.append(f"sign: Delta_0 parity at tau_{j} = {szero:.3e}")
    for j in range(kappa - 1):
        lo, hi = taus[j], taus[j + 1]
        grid = np.linspace(lo, hi, _INTERLACE_SCAN + 2)[1:-1]
        vals = delta_zero(p, -1j * grid, nsteps=nsteps).real
        count = int(np.sum(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))
        rep.interior_zero_counts.append(count)
        if count != 1:
            rep.violations.append(
                f"interlacing: {count} zeros of Delta_0 in "
                f"({lo:.6f}, {hi:.6f}), expected 1")
    rep.ok = not rep.violations
    return rep


def pair_symmetry_check(spec: Spectrum, tol: float = 1e-8):
    """Is the eigenvalue multiset closed under lam -> -conj(lam)?

    Returns (ok, max_defect) where the defect is the distance from each
    zero to the best candidate for its mirror partner.
    """
    lams = spec.lambdas()
    if len(lams) == 0:
        return True, 0.0
    row, col, dist = pair_zeros(-np.conj(lams), lams)
    defect = float(dist.max())
    ok = defect <= tol
    for i, j in zip(row, col):
        if spec.entries[i].multiplicity != spec.entries[j].multiplicity:
            ok = False
    return ok, defect


def pair_zeros(za, zb):
    """(i, j, |za[i] - zb[j]|) arrays pairing two equally long zero lists
    by least total distance, i ascending.  Sorting both lists and pairing
    by position fails where real parts are rounding noise (on i R)."""
    dist = np.abs(np.subtract.outer(np.asarray(za), np.asarray(zb)))
    row, col = linear_sum_assignment(dist)
    return row, col, dist[row, col]


# ---- CSV ------------------------------------------------------------------

def write_spectrum_csv(spec: Spectrum, path: str) -> None:
    write_csv(path, "k,re,im,multiplicity,residual",
              ((e.k, e.lam, e.multiplicity, e.residual) for e in spec.entries))
