"""Mismatch Wronskian on a split interval, growth and density
diagnostics, and the critical-case decay machinery."""

import csv
import math

import numpy as np
import pytest

from reggespec import Potential, ReggeProblem
from reggespec.asympt import asymptotic_model, mu_k
from reggespec.charfn import delta, delta_dot
from reggespec.errors import (
    DegenerateCase,
    InconsistentInput,
    MisalignedInput,
    OutOfDomain,
    Overflow,
    TruncationDominates,
)
from reggespec.model import Sign, load_problem
from reggespec.partialinv import (
    F_mismatch,
    critical_diagnostics,
    default_radius_schedule,
    density_check,
    f_mismatch_logabs,
    indicator_estimate,
    partial_diagnostics,
    refine_subset,
    sparse_subset,
    weighted_deviation,
    write_critical_csv,
)
from reggespec.reconstruct import ZeroSet

from conftest import grid_problem, worked_problem
from test_cli import _twin_cfgs


def _beta0_shift_pair():
    """Same potential and right data; left Robin constant differs by 1.

    The mismatch Wronskian is then the Wronskian of y and the
    sine-type solution, which is constant in x and equals 1.
    """
    rng = np.random.default_rng(21)
    pot = Potential.grid(rng.uniform(-1.0, 1.0, 41), 1.0, "cubic")
    p1 = ReggeProblem(a=1.0, alpha0=1.7, beta0=0.3, alpha=2.2, beta=0.6,
                      potential=pot, real_data=True)
    p2 = ReggeProblem(a=1.0, alpha0=1.7, beta0=1.3, alpha=2.2, beta=0.6,
                      potential=pot, real_data=True)
    return p1, p2


def test_mismatch_vanishes_for_identical_problems():
    p = grid_problem(10)
    lam = np.array([0.5, 2.0 + 1.0j, -7.0 - 0.3j])
    vals = F_mismatch(p, p, 0.4, lam)
    assert np.all(vals == 0)


def test_mismatch_is_one_for_unit_robin_shift():
    p1, p2 = _beta0_shift_pair()
    lam = np.array([0.0, 1.5, -3.0 + 2.0j, 8.0 - 1.0j])
    for b in (0.25, 0.7):
        vals = F_mismatch(p1, p2, b, lam)
        assert np.abs(vals - 1.0).max() < 1e-8


def test_mismatch_antisymmetric_under_swap():
    p1 = grid_problem(12)
    p2 = grid_problem(13)
    lam = np.array([1.0, 2.0 - 1.0j])
    assert np.all(F_mismatch(p1, p2, 0.3, lam)
                  == -F_mismatch(p2, p1, 0.3, lam))


def test_mismatch_split_point_guard():
    p1 = grid_problem(12)
    p2 = grid_problem(13)
    with pytest.raises(OutOfDomain):
        F_mismatch(p1, p2, 1.5, np.array([1.0]))
    with pytest.raises(InconsistentInput):
        other = ReggeProblem(a=2.0, alpha0=2.0, beta0=0.0, alpha=1.5,
                             beta=0.0, potential=Potential.zero(2.0),
                             real_data=True)
        F_mismatch(p1, other, 0.5, np.array([1.0]))


def test_mismatch_growth_stays_under_width_line():
    p1 = grid_problem(12)
    p2 = grid_problem(13)
    b = 0.3
    r = 30.0
    th = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
    lam = r * np.exp(1j * th)
    la = f_mismatch_logabs(p1, p2, b, lam)
    excess = la - 2.0 * b * r * np.abs(np.sin(th)) - math.log(r)
    assert excess.max() < 5.0


def test_counting_function_with_origin_order():
    zs = ZeroSet(zeros=[(s * (k - 0.5) * math.pi, 1)
                        for k in (1, 2, 3) for s in (1.0, -1.0)],
                 order_at_origin=2)
    r = np.array([1.0, 5.0, 5.0 * math.pi / 2.0, 10.0])
    rep = density_check(zs, 1.0, r)
    # n(r) counts the origin's order and a zero on the circle |z| = r
    assert rep.ratios * 2.0 * r / math.pi == pytest.approx([2, 6, 8, 8])


def test_indicator_of_sine_on_vertical_ray():
    est = indicator_estimate(np.sin)
    assert np.allclose(est.radii, [25.0, 50.0, 100.0, 200.0])
    k = np.argmin(np.abs(est.angles - 0.5 * math.pi))
    assert est.angles[k] == pytest.approx(0.5 * math.pi, abs=1e-12)
    # ln sinh(r) / r = 1 - ln2 / r up to e^{-2r}
    assert est.h[k] == pytest.approx(1.0 - math.log(2.0) / 200.0, abs=1e-9)
    assert est.h[0] < 0.01


def test_indicator_of_constant_is_zero():
    est = indicator_estimate(lambda z: np.ones_like(np.asarray(z)))
    assert np.abs(est.h).max() == 0.0


def test_indicator_overflow_and_logabs_route():
    with pytest.raises(Overflow), np.errstate(over="ignore", invalid="ignore"):
        indicator_estimate(np.sin, radii=np.array([400.0, 800.0]))
    est = indicator_estimate(lambda z: (3.0 * np.asarray(z)).real,
                             radii=np.array([400.0, 800.0]), logabs=True)
    assert np.abs(est.h - 3.0 * np.cos(est.angles)).max() < 1e-12


def test_indicator_schedule_must_increase():
    with pytest.raises(InconsistentInput):
        indicator_estimate(np.sin, radii=np.array([100.0, 50.0]))
    with pytest.raises(InconsistentInput):
        indicator_estimate(np.sin, radii=np.array([100.0]))


def test_twin_mismatch_indicator_bounded_by_shared_width():
    p1 = grid_problem(12)
    p2 = grid_problem(13)
    b = 0.3
    est = indicator_estimate(
        lambda z: f_mismatch_logabs(p1, p2, b, z, nsteps=2048),
        logabs=True)
    bound = 2.0 * b * np.abs(np.sin(est.angles))
    assert np.all(est.h <= bound + 0.1)


def test_density_ratios_track_lattice_spacing():
    half = ZeroSet(zeros=[(s * (k - 0.5) * math.pi, 1)
                          for k in range(1, 201) for s in (1.0, -1.0)])
    rep = density_check(half, 1.0, np.array([20.0, 40.0, 80.0]))
    assert rep.stabilized
    assert np.abs(rep.ratios - 1.0).max() < 0.1

    sparse = ZeroSet(zeros=[(s * (2.0 * k - 1.0) * math.pi, 1)
                            for k in range(1, 201) for s in (1.0, -1.0)])
    rep2 = density_check(sparse, 0.5, np.array([40.0, 80.0, 160.0]))
    assert rep2.stabilized
    assert np.abs(rep2.ratios - 0.5).max() < 0.05

    lone = ZeroSet(zeros=[], order_at_origin=1)
    rep3 = density_check(lone, 0.0, np.array([10.0, 20.0]))
    assert not rep3.stabilized
    assert rep3.ratios[-1] < 0.1
    with pytest.raises(InconsistentInput):
        density_check(half, 1.0, np.array([40.0, 20.0]))


def test_weighted_deviation_zero_on_rescaled_lattice():
    m = asymptotic_model(worked_problem())
    bp = bm = 0.5
    sub_p = [(j, m.a * mu_k(m, Sign.PLUS, j) / bp)
             for j in range(1, 9)]
    sub_m = [(j, m.a * mu_k(m, Sign.MINUS, j) / bm)
             for j in range(1, 9)]
    rep = weighted_deviation(sub_p, sub_m, bp, bm, m)
    assert rep.total == 0.0
    assert rep.plus_range == (1, 8)

    bump = [(j, lam + 0.001) for j, lam in sub_p]
    rep2 = weighted_deviation(bump, sub_m, bp, bm, m)
    want = sum(0.001 / (j + 1) for j in range(1, 9))
    assert rep2.total == pytest.approx(want, abs=1e-12)
    assert rep2.minus_sum == 0.0


def test_weighted_deviation_rejects_invalid_index():
    m = asymptotic_model(worked_problem())
    with pytest.raises(MisalignedInput):
        weighted_deviation([(0, 1.0 + 0j)], [], 0.5, 0.5, m)
    with pytest.raises(InconsistentInput):
        weighted_deviation([(1, 1.0 + 0j)], [], 0.0, 0.5, m)


def _critical_inputs(seed1=12, seed2=13, jmax=40):
    p1 = grid_problem(seed1)
    p2 = grid_problem(seed2)
    m = asymptotic_model(p1)
    bp = bm = 0.5
    sub_p = [(j, m.a * mu_k(m, Sign.PLUS, j) / bp + 0.1 / j)
             for j in range(1, jmax + 1)]
    sub_m = [(j, m.a * mu_k(m, Sign.MINUS, j) / bm + 0.1 / j)
             for j in range(1, jmax + 1)]
    return p1, p2, bp, bm, (sub_p, sub_m)


def test_refine_subset_polishes_lattice_seeds():
    p = worked_problem()            # case sign -1: j = 0 is not an index
    m = asymptotic_model(p)
    pairs, notes = refine_subset(p, m, Sign.PLUS, 6)
    js = [j for j, _ in pairs]
    assert 0 not in js and js == sorted(js)
    assert len(pairs) + len(notes) == 12
    lams = np.array([z for _, z in pairs])
    step = np.abs(delta(p, Sign.PLUS, lams) / delta_dot(p, Sign.PLUS, lams))
    assert step.max() < 1e-10
    assert len(set(np.round(lams, 8))) == len(lams)


def test_sparse_subset_takes_nearest_to_rescaled_lattice():
    p = worked_problem()
    m = asymptotic_model(p)
    full, _ = refine_subset(p, m, Sign.PLUS, 20)
    lams = np.array([z for _, z in full])
    sub, notes = sparse_subset(m, Sign.PLUS, 0.5, full)
    assert sub and len({z for _, z in sub}) == len(sub)
    reach = np.abs(lams).max() - 0.5 * math.pi / m.a
    for j, z in sub:
        target = m.a * mu_k(m, Sign.PLUS, j) / 0.5
        assert abs(target) <= reach
        assert abs(z - target) == pytest.approx(np.abs(lams - target).min())
    # on the unscaled lattice (b = a) index j picks the eigenvalue that
    # Newton reached from the seed of index j
    same, _ = sparse_subset(m, Sign.PLUS, m.a, full)
    by_j = dict(full)
    assert len(same) > 30
    assert all(z == by_j[j] for j, z in same if abs(j) >= 2)


def test_critical_diagnostics_assembles_consistently():
    p1, p2, bp, bm, subs = _critical_inputs()
    t = np.array([50.0, 100.0, 200.0, 400.0])
    diag = critical_diagnostics(p1, p2, bp, bm, subs, t)
    assert np.all(np.isfinite(diag.E0))
    assert np.allclose(diag.E0, diag.G / diag.Phi)
    # the comparison lattice function is nonzero and growing along i t
    mags = np.abs(diag.Phi0)
    assert np.all(mags > 0)
    assert np.all(np.diff(mags) > 0)
    assert diag.b == 0.5


def test_critical_diagnostics_self_twin_is_identically_zero():
    p1, _, bp, bm, subs = _critical_inputs()
    t = np.array([50.0, 100.0, 200.0])
    diag = critical_diagnostics(p1, p1, bp, bm, subs, t)
    assert np.all(np.abs(diag.G) == 0)
    assert np.all(np.abs(diag.E0) == 0)
    assert not diag.decreasing


def test_critical_diagnostics_guards():
    p1, p2, bp, bm, subs = _critical_inputs(jmax=5)
    with pytest.raises(TruncationDominates):
        critical_diagnostics(p1, p2, bp, bm, subs, np.array([50.0, 200.0]))
    p1, p2, bp, bm, subs = _critical_inputs()
    with pytest.raises(InconsistentInput):
        critical_diagnostics(p1, p2, bp, bm, subs, np.array([100.0, 50.0]))
    with pytest.raises(InconsistentInput):
        bad = ([(1, 0.0 + 0j)] + subs[0][1:], subs[1])
        critical_diagnostics(p1, p2, bp, bm, bad, np.array([50.0, 100.0]))
    with pytest.raises(InconsistentInput):
        critical_diagnostics(p1, p2, bp, bm, (subs[0], []),
                             np.array([50.0, 100.0]))
    with pytest.raises(OutOfDomain):
        critical_diagnostics(p1, p2, 1.6, 1.6, subs, np.array([50.0, 100.0]))
    degen = ReggeProblem(a=1.0, alpha0=2.0, beta0=0.0, alpha=1.0, beta=0.0,
                         potential=Potential.zero(1.0), real_data=True)
    with pytest.raises(DegenerateCase):
        critical_diagnostics(degen, p2, bp, bm, subs,
                             np.array([50.0, 100.0]))


def test_critical_csv_layout(tmp_path):
    p1, p2, bp, bm, subs = _critical_inputs()
    t = np.array([50.0, 100.0, 200.0])
    diag = critical_diagnostics(p1, p2, bp, bm, subs, t)
    out = tmp_path / "e0.csv"
    write_critical_csv(str(out), diag)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["t", "G_abs", "Phi_abs", "Phi0_abs", "E0_abs"]
    assert len(rows) == 3
    assert float(rows[1]["t"]) == 100.0
    assert float(rows[0]["E0_abs"]) == pytest.approx(abs(diag.E0[0]),
                                                     rel=1e-15)


def test_default_radius_schedule_scales_with_length():
    assert np.allclose(default_radius_schedule(1.0), [25, 50, 100, 200])
    assert np.allclose(default_radius_schedule(0.5), [50, 100, 200, 400])
    assert np.allclose(default_radius_schedule(4.0), [25, 50, 100, 200])


def test_partial_diagnostics_matches_the_steps_taken_by_hand(tmp_path):
    """One call gives what refine_subset -> sparse_subset ->
    weighted_deviation / critical_diagnostics give by hand, with the
    notes in the order plus, minus, sparse plus, sparse minus."""
    p1, p2 = (load_problem(c) for c in _twin_cfgs(tmp_path))
    bp, bm, kmax = 1.5, 0.3, 20     # b_plus > a: sparse plus skips indices
    radii = np.array([10.0, 20.0, 40.0, 80.0, 160.0])
    t = np.array([30.0, 60.0])
    angles = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
    d = partial_diagnostics(p1, p2, bp, bm, kmax, radii, t, angles, 0.1)

    m = asymptotic_model(p1)
    sp, notes_p = refine_subset(p1, m, Sign.PLUS, kmax)
    sm, notes_m = refine_subset(p1, m, Sign.MINUS, kmax)
    ssp, snotes_p = sparse_subset(m, Sign.PLUS, bp, sp)
    ssm, snotes_m = sparse_subset(m, Sign.MINUS, bm, sm)
    assert d.subsets == (sp, sm) and d.sparse == (ssp, ssm)
    assert snotes_p and d.notes == notes_p + notes_m + snotes_p + snotes_m
    # reach is about 61, so 80 and 160 are dropped from the density radii
    assert d.clipped and d.reach < 80.0
    assert list(d.density[0].radii) == [10.0, 20.0, 40.0]
    dev = weighted_deviation(ssp, ssm, bp, bm, m)
    assert d.deviation.total == dev.total
    diag = critical_diagnostics(p1, p2, bp, bm, (ssp, ssm), t)
    assert d.critical.E0.tobytes() == diag.E0.tobytes()
    assert len(d.growth) == len(radii) and len(d.bounds) == len(angles)
