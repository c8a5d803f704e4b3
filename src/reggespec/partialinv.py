"""Desk-scale diagnostics behind the partial inverse statements.

The mixed-data uniqueness arguments all run through the same objects:
the mismatch bracket F of two candidate problems at the split point b,
zero-counting and directional-growth estimates for F, the weighted
deviation sum tying an eigenvalue subset to a rescaled comparison
lattice, and, in the critical case, the ratio E0 = G/Phi whose decay
along the imaginary axis forces F to vanish identically.  None of
these are proofs -- the hypotheses are asymptotic -- so every report
carries the finite schedule it was computed on: lim sup becomes the
sup over the tail of an explicit radius list, and the infinite
products are truncated with their last-factor influence checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asympt import (
    AsymptoticModel,
    asymptotic_model,
    lattice_indices,
    phi1_eval,
    predicted_lambda,
)
from .charfn import delta, delta_dot
from .errors import (
    InconsistentInput,
    MisalignedInput,
    NumericalError,
    OutOfDomain,
    Overflow,
    TruncationDominates,
)
from .model import ReggeProblem, Sign, write_csv
from .odecore import solve_y
from .reconstruct import ZeroSet
from .roots import newton_refine

__all__ = [
    "F_mismatch",
    "f_mismatch_logabs",
    "IndicatorEstimate",
    "indicator_estimate",
    "default_radius_schedule",
    "DensityReport",
    "density_check",
    "refine_subset",
    "sparse_subset",
    "DeviationReport",
    "weighted_deviation",
    "CriticalDiagnostics",
    "critical_diagnostics",
    "write_critical_csv",
    "PartialDiagnostics",
    "partial_diagnostics",
]


def _shared_length(p1: ReggeProblem, p2: ReggeProblem) -> float:
    if abs(p1.a - p2.a) > 1e-12 * max(p1.a, p2.a):
        raise InconsistentInput(
            f"interval lengths differ: {p1.a} vs {p2.a}")
    return p1.a


def _split_states(p1: ReggeProblem, p2: ReggeProblem, b: float, lam,
                  nsteps=None):
    a = _shared_length(p1, p2)
    if not 0.0 < b < a:
        raise OutOfDomain(f"split point b = {b} outside (0, {a})")
    return solve_y(p1, lam, x=b, nsteps=nsteps), \
        solve_y(p2, lam, x=b, nsteps=nsteps)


def F_mismatch(p1: ReggeProblem, p2: ReggeProblem, b: float, lam,
               nsteps: int | None = None):
    """y1(lam,b) y2'(lam,b) - y2(lam,b) y1'(lam,b).

    Vanishes identically iff the two problems share the potential on
    (0,b) and the left boundary data; its growth is bounded by
    C |lam| e^{2b |Im lam|}, which the indicator machinery below turns
    into a testable angle profile.  Antisymmetric under swapping the
    problems.
    """
    s1, s2 = _split_states(p1, p2, b, lam, nsteps)
    return np.exp(s1.sigma + s2.sigma) * (s1.u * s2.du - s2.u * s1.du)


def f_mismatch_logabs(p1: ReggeProblem, p2: ReggeProblem, b: float, lam,
                      nsteps: int | None = None):
    """ln |F(lam)| computed in scaled form; immune to e^{2b|Im lam|} overflow."""
    s1, s2 = _split_states(p1, p2, b, lam, nsteps)
    bracket = s1.u * s2.du - s2.u * s1.du
    with np.errstate(divide="ignore"):
        return s1.sigma + s2.sigma + np.log(np.abs(bracket))


# ---- counting and growth ----------------------------------------------------

def default_radius_schedule(a: float) -> np.ndarray:
    return np.array([25.0, 50.0, 100.0, 200.0]) * max(1.0, 1.0 / a)


@dataclass(frozen=True)
class IndicatorEstimate:
    """Per-angle tail-sup of ln |f(r e^{i theta})| / r over a radius list.

    logmag[i, j] is ln|f| at angle i, radius j and samples[i, j] that
    over r; h[i] is the sup over the tail (second half) of the schedule --
    the finite stand-in for the lim sup defining the indicator function.
    """

    angles: np.ndarray
    radii: np.ndarray
    samples: np.ndarray
    h: np.ndarray
    logmag: np.ndarray


def indicator_estimate(f, angles=None, radii=None,
                       logabs: bool = False) -> IndicatorEstimate:
    """Directional growth profile of an entire-function evaluator.

    f maps complex lam to a value; with logabs=True it must return
    ln |f(lam)| directly (use f_mismatch_logabs when radii are large
    enough for e^{2b r} to overflow).  Raises Overflow when a plain
    evaluation comes back non-finite.
    """
    if angles is None:
        angles = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
    angles = np.asarray(angles, dtype=float)
    if radii is None:
        radii = default_radius_schedule(1.0)
    radii = np.asarray(radii, dtype=float)
    if len(radii) < 2 or np.any(np.diff(radii) <= 0):
        raise InconsistentInput("radius schedule must increase")
    pts = radii[None, :] * np.exp(1j * angles)[:, None]
    vals = np.asarray(f(pts.reshape(-1)), dtype=complex).reshape(pts.shape)
    if logabs:
        logmag = vals.real
    else:
        bad = ~np.isfinite(vals)
        if np.any(bad):
            raise Overflow(
                f"evaluator returned non-finite values at |lam| = "
                f"{np.abs(pts[bad]).max():.3g}; pass a scaled logabs evaluator")
        with np.errstate(divide="ignore"):
            logmag = np.log(np.abs(vals))
    samples = logmag / radii[None, :]
    tail = max(1, len(radii) // 2)
    h = np.max(samples[:, -tail:], axis=1)
    return IndicatorEstimate(angles=angles, radii=radii,
                             samples=samples, h=h, logmag=logmag)


@dataclass(frozen=True)
class DensityReport:
    """n(r) pi / (2r) at each probe radius against a target density m."""

    radii: np.ndarray
    ratios: np.ndarray
    m: float
    window: float

    @property
    def stabilized(self) -> bool:
        """True when the tail of the probe list sits within window*m of m."""
        if self.m <= 0:
            return False
        tail = max(1, len(self.radii) // 2)
        return bool(np.all(np.abs(self.ratios[-tail:] - self.m)
                           <= self.window * self.m))


def density_check(zs: ZeroSet, m: float, r_probe,
                  window: float = 0.1) -> DensityReport:
    """Probe n(r) pi / (2r) against the density hypothesis n ~ 2mr/pi.

    Purely diagnostic: the hypothesis is asymptotic, so the report
    carries every probed radius and the window actually used.
    """
    r_probe = np.asarray(r_probe, dtype=float)
    if np.any(np.diff(r_probe) <= 0) or np.any(r_probe <= 0):
        raise InconsistentInput("probe radii must be positive increasing")
    mods = np.sort(np.repeat(np.abs(zs.values), zs.weights.astype(int)))
    counts = zs.order_at_origin + np.searchsorted(mods, r_probe, side="right")
    ratios = np.array([n * math.pi / (2.0 * r)
                       for n, r in zip(counts, r_probe)])
    return DensityReport(radii=r_probe, ratios=ratios, m=float(m),
                         window=float(window))


# ---- eigenvalue subsets ------------------------------------------------------

def refine_subset(p: ReggeProblem, model: AsymptoticModel, sign: Sign,
                  kmax: int, nsteps: int | None = None) -> tuple[list, list]:
    """(j, lambda) pairs from Newton refinement of the lattice seeds.

    Newton starts at predicted_lambda for every index |j| <= kmax.
    Returns the kept pairs and a list of notes about dropped indices
    (non-convergence, zero eigenvalue, or collapse onto an already
    claimed zero), each prefixed with the subset's sign.
    """
    ks = lattice_indices(model, -kmax, kmax)
    seeds = np.array([predicted_lambda(model, sign, k) for k in ks])
    zs, _, conv = newton_refine(
        lambda z: delta(p, sign, z, nsteps=nsteps),
        lambda z: delta_dot(p, sign, z, nsteps=nsteps), seeds)
    pairs = []
    notes = []
    name = sign.name.lower()
    for k, z, ok in zip(ks, zs, conv):
        if not ok:
            notes.append(f"{name} j = {k} dropped: no convergence from the "
                         f"seed")
        elif abs(z) < 1e-12:
            notes.append(f"{name} j = {k} dropped: zero eigenvalue "
                         f"(degenerate product factor)")
        elif any(abs(w - z) <= 1e-8 * (1 + abs(z)) for _, w in pairs):
            notes.append(f"{name} j = {k} dropped: seed collapsed onto an "
                         f"already claimed zero")
        else:
            pairs.append((k, complex(z)))
    return pairs, notes


def sparse_subset(model: AsymptoticModel, sign: Sign, b_side: float,
                  full_pairs) -> tuple[list, list]:
    """Eigenvalues nearest the rescaled lattice a mu_j / b_side.

    The critical-case hypothesis speaks about a subsequence close to
    the rescaled lattice, so the deviation sum and the zero product are
    built over this subset, not over consecutive indices.  Returns the
    (j, lambda) pairs and notes about skipped indices, each prefixed
    with "sparse" and the subset's sign.
    """
    a = model.a
    lams = np.array([z for _, z in full_pairs])
    reach = float(np.abs(lams).max()) - 0.5 * math.pi / a
    pairs = []
    notes = []
    name = f"sparse {sign.name.lower()}"
    taken: set = set()
    for j in lattice_indices(model, -len(full_pairs), len(full_pairs)):
        target = a * model.mu(sign, j) / b_side
        if abs(target) > reach:
            continue
        i = int(np.argmin(np.abs(lams - target)))
        if abs(lams[i]) < 1e-9:
            notes.append(f"{name} j = {j} skipped: nearest eigenvalue "
                         f"sits at the origin")
        elif i in taken:
            notes.append(f"{name} j = {j} skipped: eigenvalue already "
                         f"claimed by a lower index")
        else:
            taken.add(i)
            pairs.append((j, complex(lams[i])))
    return pairs, notes


# ---- weighted deviation sum -------------------------------------------------

@dataclass(frozen=True)
class DeviationReport:
    """Finite truncation of the two deviation sums with their j-ranges."""

    total: float
    plus_sum: float
    minus_sum: float
    plus_range: tuple | None
    minus_range: tuple | None


def _one_deviation(subset, b_side: float, m: AsymptoticModel, s: Sign):
    if not b_side > 0:
        raise InconsistentInput(f"interval share b = {b_side} must be positive")
    total = 0.0
    js = []
    for j, lam in subset:
        j = int(j)
        try:
            mu = m.mu(s, j)
        except ValueError as exc:
            raise MisalignedInput(
                f"index j = {j} invalid for this lattice case") from exc
        total += abs(complex(lam) - m.a * mu / b_side) / (abs(j) + 1)
        js.append(j)
    rng = (min(js), max(js)) if js else None
    return total, rng


def weighted_deviation(subset_plus, subset_minus, b_plus: float,
                       b_minus: float, m: AsymptoticModel) -> DeviationReport:
    """sum |lambda_{k_j} - a mu_j / b_side| / (|j|+1) over both subsets.

    Subsets are sequences of (j, lambda) pairs indexed by the lattice
    convention of the model's case (j = 0 exists only for positive
    case sign).  The result is the finite truncation of the convergence
    condition in the critical-case hypothesis; the report keeps the
    index ranges so the truncation is visible.
    """
    ps, pr = _one_deviation(subset_plus, b_plus, m, Sign.PLUS)
    ms, mr = _one_deviation(subset_minus, b_minus, m, Sign.MINUS)
    return DeviationReport(total=ps + ms, plus_sum=ps, minus_sum=ms,
                           plus_range=pr, minus_range=mr)


# ---- critical case m = 2b ---------------------------------------------------

@dataclass(frozen=True)
class CriticalDiagnostics:
    """Samples of G, Phi, Phi0 and E0 = G/Phi along rho = i t.

    G(i t) = F(lam) F(-lam) at lam = sqrt(i t) (principal branch, the
    arg = pi/4 ray); Phi is the truncated product over the supplied
    eigenvalue subsets; Phi0 the closed trig-lattice comparison
    function evaluated from the boundary constants.  The uniqueness
    argument needs |E0(i t)| -> 0; the `decreasing` property is the
    desk-scale check of that decay.
    """

    b_plus: float
    b_minus: float
    t: np.ndarray
    G: np.ndarray
    Phi: np.ndarray
    Phi0: np.ndarray
    E0: np.ndarray

    @property
    def b(self) -> float:
        return 0.5 * (self.b_plus + self.b_minus)

    @property
    def decreasing(self) -> bool:
        mags = np.abs(self.E0)
        return bool(np.all(np.diff(mags) < 0))


_TAIL_LIMIT = 0.25


def critical_diagnostics(p1: ReggeProblem, p2: ReggeProblem,
                         b_plus: float, b_minus: float, subsets,
                         t_schedule,
                         nsteps: int | None = None) -> CriticalDiagnostics:
    """Assemble the E0 = G/Phi decay diagnostics for the critical case.

    subsets is a pair (plus, minus) of sequences of (j, lambda) pairs;
    both problems must share the interval and satisfy
    (alpha0 - 1)(1 - alpha) != 0 (asymptotic_model raises
    DegenerateCase otherwise).  Raises TruncationDominates when the
    schedule outruns the subsets: the last included product factor
    1 - i t / lambda^2 must stay within _TAIL_LIMIT (0.25) of 1.
    """
    a = _shared_length(p1, p2)
    b = 0.5 * (b_plus + b_minus)
    if not 0.0 < b < a:
        raise OutOfDomain(f"split point b = {b} outside (0, {a})")
    asymptotic_model(p1)        # raises DegenerateCase
    subset_plus, subset_minus = subsets
    lam_p = np.array([complex(lam) for _, lam in subset_plus])
    lam_m = np.array([complex(lam) for _, lam in subset_minus])
    if len(lam_p) == 0 or len(lam_m) == 0:
        raise InconsistentInput("both eigenvalue subsets must be nonempty")
    if np.any(np.abs(lam_p) < 1e-12) or np.any(np.abs(lam_m) < 1e-12):
        raise InconsistentInput(
            "subset contains a zero eigenvalue; its product factor is "
            "degenerate -- drop it or shift the problem")

    t = np.asarray(t_schedule, dtype=float)
    if np.any(t <= 0) or np.any(np.diff(t) <= 0):
        raise InconsistentInput("t schedule must be positive increasing")
    reach = min(np.abs(lam_p).max(), np.abs(lam_m).max())
    worst = t.max() / reach ** 2
    if worst > _TAIL_LIMIT:
        raise TruncationDominates(
            f"last product factor deviates by {worst:.3g} > {_TAIL_LIMIT:g}; "
            "extend the subsets or shorten the t schedule")

    lam = np.sqrt(1j * t)
    G = (F_mismatch(p1, p2, b, lam, nsteps=nsteps)
         * F_mismatch(p1, p2, b, -lam, nsteps=nsteps))
    rho = 1j * t
    Phi = np.prod(1.0 - rho[:, None] / lam_p[None, :] ** 2, axis=1) \
        * np.prod(1.0 - rho[:, None] / lam_m[None, :] ** 2, axis=1)

    def g(sign: Sign, z):
        s1 = p1.alpha0 + sign.s * p1.alpha
        s2 = 1.0 + sign.s * p1.alpha * p1.alpha0
        return 1j * phi1_eval(s1, s2, a, z)

    wp = b_plus * lam / a
    wm = b_minus * lam / a
    Phi0 = g(Sign.PLUS, wp) * g(Sign.PLUS, -wp) \
        * g(Sign.MINUS, wm) * g(Sign.MINUS, -wm)
    return CriticalDiagnostics(b_plus=float(b_plus), b_minus=float(b_minus),
                               t=t, G=G, Phi=Phi, Phi0=Phi0, E0=G / Phi)


def write_critical_csv(path: str, diag: CriticalDiagnostics) -> None:
    """t, |G|, |Phi|, |Phi0|, |E0| rows, written atomically."""
    # scalar abs per element: np.abs rounds some last digits differently
    write_csv(path, "t,G_abs,Phi_abs,Phi0_abs,E0_abs",
              ((tv, abs(diag.G[i]), abs(diag.Phi[i]), abs(diag.Phi0[i]),
                abs(diag.E0[i])) for i, tv in enumerate(diag.t)))


# ---- the whole partial-data pipeline ----------------------------------------

@dataclass(frozen=True)
class PartialDiagnostics:
    """Every partial-data report for one pair of problems.

    subsets, sparse and density are (plus, minus) pairs; notes runs plus,
    minus, sparse plus, sparse minus.  density uses the radii up to reach
    (the lesser subset's largest |lambda|); clipped: some were dropped.
    """

    indicator: IndicatorEstimate
    growth: list
    bounds: list
    subsets: tuple
    sparse: tuple
    notes: list
    density: tuple
    reach: float
    clipped: bool
    deviation: DeviationReport
    critical: CriticalDiagnostics


def partial_diagnostics(p1: ReggeProblem, p2: ReggeProblem, b_plus: float,
                        b_minus: float, kmax: int, radii, t_schedule, angles,
                        window: float,
                        nsteps: int | None = None) -> PartialDiagnostics:
    """The reports for the pair split at b = (b_plus + b_minus)/2, over
    the eigenvalues of p1 with |j| <= kmax.  Raises NumericalError when
    a subset comes back empty."""
    model = asymptotic_model(p1)
    b = 0.5 * (b_plus + b_minus)
    radii = np.asarray(radii, dtype=float)
    ind = indicator_estimate(
        lambda z: f_mismatch_logabs(p1, p2, b, z, nsteps=nsteps),
        angles=angles, radii=radii, logabs=True)
    with np.errstate(invalid="ignore"):
        scaled = ind.logmag - np.log(radii)[None, :] \
            - 2.0 * b * radii[None, :] * np.abs(np.sin(ind.angles))[:, None]
    # math.exp per radius: np.exp rounds some last digits differently
    growth = [(r, ind.logmag[:, j].max(), math.exp(scaled[:, j].max()))
              for j, r in enumerate(radii)]
    bounds = [2.0 * b * abs(math.sin(th)) for th in ind.angles]

    sp, notes_p = refine_subset(p1, model, Sign.PLUS, kmax, nsteps)
    sm, notes_m = refine_subset(p1, model, Sign.MINUS, kmax, nsteps)
    if not sp or not sm:
        raise NumericalError(
            "eigenvalue subsets came back empty; widen --kmax")
    # probe radii must stay inside the computed set, otherwise the
    # counting ratio reports the truncation instead of the density
    reach = min(max(abs(z) for _, z in sp), max(abs(z) for _, z in sm))
    dens_radii = radii[radii <= reach]
    clipped = len(dens_radii) < len(radii)
    if len(dens_radii) < 2:
        dens_radii = reach * np.array([0.125, 0.25, 0.5, 1.0]) * 0.98
    density = tuple(
        density_check(ZeroSet(zeros=[(z, 1) for _, z in pairs]), model.a,
                      dens_radii, window=window) for pairs in (sp, sm))

    ssp, snotes_p = sparse_subset(model, Sign.PLUS, b_plus, sp)
    ssm, snotes_m = sparse_subset(model, Sign.MINUS, b_minus, sm)
    if not ssp or not ssm:
        raise NumericalError(
            "rescaled-lattice subsets came back empty; widen --kmax "
            "or enlarge the split")
    return PartialDiagnostics(
        indicator=ind, growth=growth, bounds=bounds, subsets=(sp, sm),
        sparse=(ssp, ssm), notes=notes_p + notes_m + snotes_p + snotes_m,
        density=density, reach=reach, clipped=clipped,
        deviation=weighted_deviation(ssp, ssm, b_plus, b_minus, model),
        critical=critical_diagnostics(p1, p2, b_plus, b_minus, (ssp, ssm),
                                      t_schedule, nsteps=nsteps))
