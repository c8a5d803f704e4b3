"""Lattice constants, two-term eigenvalue predictions, tail residuals,
and recovery of the boundary couplings from the lattice shifts."""

import csv
import math

import numpy as np
import pytest

from reggespec import Potential, ReggeProblem
from reggespec.asympt import (
    appendix_P,
    asymptotic_model,
    lattice_indices,
    mu_k,
    phi1_eval,
    phi1_zeros,
    predicted_lambda,
    recover_alphas,
    residual_tail,
    write_residual_tail_csv,
)
from reggespec.errors import DegenerateCase, DegenerateSigma, InconsistentInput
from reggespec.model import Sign
from reggespec.roots import Rectangle, Spectrum, SpectrumEntry

from conftest import worked_problem


def test_model_constants_of_documented_problem():
    m = asymptotic_model(worked_problem())
    assert m.case_sign == -1
    assert m.P0_plus == pytest.approx(math.log(6.0), abs=1e-14)
    assert m.P0_minus == pytest.approx(math.log(1.5), abs=1e-14)
    assert m.P == pytest.approx(-7.0 / (12.0 * math.pi), abs=1e-14)
    assert m.K1aa == 0.0
    assert m.omega == 1.0
    assert (m.M_plus, m.M_minus) == (7.0, 1.0)
    assert (m.N_plus, m.N_minus) == (3.0, 3.0)


def test_mu_lattice_negative_case():
    m = asymptotic_model(worked_problem())
    c = 0.5j * math.log(6.0)
    assert mu_k(m, Sign.PLUS, -1) == 0.0
    assert mu_k(m, Sign.PLUS, 1) == pytest.approx(c, abs=1e-14)
    assert mu_k(m, Sign.PLUS, 3) == pytest.approx(2 * math.pi + c, abs=1e-13)
    assert mu_k(m, Sign.PLUS, -4) == pytest.approx(-3 * math.pi + c, abs=1e-13)
    cm = 0.5j * math.log(1.5)
    assert mu_k(m, Sign.MINUS, 2) == pytest.approx(math.pi + cm, abs=1e-13)
    with pytest.raises(ValueError):
        mu_k(m, Sign.PLUS, 0)


def test_mu_lattice_positive_case():
    p = ReggeProblem(a=1.0, alpha0=2.0, beta0=0.0, alpha=0.5, beta=0.0,
                     potential=Potential.zero(1.0), real_data=True)
    m = asymptotic_model(p)
    assert m.case_sign == 1
    assert m.P0_plus == pytest.approx(math.log(9.0), abs=1e-14)
    # the minus shift genuinely vanishes for this pair
    assert m.P0_minus == pytest.approx(0.0, abs=1e-14)
    assert mu_k(m, Sign.PLUS, 0) == 0.0
    c = 0.5j * math.log(9.0)
    assert mu_k(m, Sign.PLUS, 1) == pytest.approx(0.5 * math.pi + c, abs=1e-13)
    assert mu_k(m, Sign.PLUS, -2) == pytest.approx(-1.5 * math.pi + c, abs=1e-13)
    assert mu_k(m, Sign.MINUS, 2) == pytest.approx(1.5 * math.pi, abs=1e-13)


def test_predicted_lambda_adds_reciprocal_term():
    m = asymptotic_model(worked_problem())
    for k in (-6, -2, 1, 5):
        assert predicted_lambda(m, Sign.PLUS, k) == pytest.approx(
            mu_k(m, Sign.PLUS, k) + m.P / k, abs=1e-14)


def test_degenerate_couplings():
    p = ReggeProblem(a=1.0, alpha0=2.0, beta0=1.0, alpha=1.0, beta=2.0,
                     potential=Potential.zero(1.0), real_data=True)
    with pytest.raises(DegenerateCase):
        asymptotic_model(p)
    m = asymptotic_model(p, strict=False)
    assert m.case_sign == 0
    assert math.isnan(m.P0_plus)
    # the quantities that survive degeneracy are still computed
    assert m.omega == 1.0
    assert m.M_plus == 2.0 * 2.0 + 1.0 * 1.0
    with pytest.raises(DegenerateCase):
        mu_k(m, Sign.PLUS, 1)


def test_phi1_zero_lattices():
    # |sigma2| > |sigma1|: integer lattice, index -1 at the origin
    for k in (-3, -1, 1, 2, 5):
        z = phi1_zeros(5.0, 7.0, 1.0, k)
        assert abs(phi1_eval(5.0, 7.0, 1.0, z)) < 1e-10 * max(1.0, abs(z))
    assert phi1_zeros(5.0, 7.0, 1.0, -1) == 0.0
    assert phi1_zeros(5.0, 7.0, 1.0, 1) == pytest.approx(
        0.5j * math.log(6.0), abs=1e-14)
    with pytest.raises(ValueError):
        phi1_zeros(5.0, 7.0, 1.0, 0)
    # |sigma2| < |sigma1|: half-integer lattice, index 0 at the origin
    assert phi1_zeros(5.0, 3.0, 1.0, 0) == 0.0
    for k in (-2, 1, 4):
        z = phi1_zeros(5.0, 3.0, 1.0, k)
        assert abs(phi1_eval(5.0, 3.0, 1.0, z)) < 1e-10 * max(1.0, abs(z))
    assert phi1_zeros(5.0, 3.0, 1.0, 1) == pytest.approx(
        0.5 * math.pi + 1j * math.log(2.0), abs=1e-14)
    with pytest.raises(DegenerateSigma):
        phi1_zeros(2.0, 2.0, 1.0, 1)


def test_phi1_matches_model_lattice():
    p = worked_problem()
    m = asymptotic_model(p)
    s1p, s2p = p.alpha0 + p.alpha, 1.0 + p.alpha * p.alpha0
    s1m, s2m = p.alpha0 - p.alpha, 1.0 - p.alpha * p.alpha0
    for k in (-5, -1, 1, 4):
        assert mu_k(m, Sign.PLUS, k) == pytest.approx(
            phi1_zeros(s1p, s2p, p.a, k), abs=1e-13)
        assert mu_k(m, Sign.MINUS, k) == pytest.approx(
            phi1_zeros(s1m, s2m, p.a, k), abs=1e-13)


def test_appendix_P_reduces_to_boundary_expression():
    p = worked_problem()
    m = asymptotic_model(p)
    got = appendix_P(5.0, 7.0, complex(m.M_plus), complex(m.N_plus))
    assert got == pytest.approx(m.P, abs=1e-14)
    got_m = appendix_P(-1.0, -5.0, complex(m.M_minus), complex(m.N_minus))
    assert got_m == pytest.approx(m.P, abs=1e-14)
    with pytest.raises(DegenerateSigma):
        appendix_P(2.0, -2.0, 1.0, 1.0)


def test_appendix_P_with_nonzero_potential_mean():
    p = ReggeProblem(a=1.0, alpha0=2.0, beta0=1.0, alpha=3.0, beta=2.0,
                     potential=Potential.constant(1.0, 1.0), real_data=True)
    m = asymptotic_model(p)
    assert m.K1aa == pytest.approx(0.5, abs=1e-14)
    assert m.omega == pytest.approx(1.5, abs=1e-14)
    assert m.M_plus == pytest.approx(9.5, abs=1e-14)
    assert m.N_plus == pytest.approx(6.5, abs=1e-14)
    assert appendix_P(5.0, 7.0, 9.5, 6.5) == pytest.approx(
        -1.0 / (12.0 * math.pi), abs=1e-14)
    assert m.P == pytest.approx(-1.0 / (12.0 * math.pi), abs=1e-14)


def test_recover_alphas_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(20):
        alpha0 = float(rng.uniform(0.05, 3.0))
        alpha = float(rng.uniform(0.05, 3.0))
        if abs(alpha0 - 1.0) < 0.05 or abs(alpha - 1.0) < 0.05:
            continue
        p = ReggeProblem(a=1.0, alpha0=alpha0, beta0=0.0, alpha=alpha,
                         beta=0.0, potential=Potential.zero(1.0),
                         real_data=True)
        m = asymptotic_model(p)
        sgn0 = 1 if alpha0 > 1.0 else -1
        a0, al = recover_alphas(m.P0_plus, m.P0_minus, sgn0, m.case_sign)
        assert a0 == pytest.approx(alpha0, abs=1e-10)
        assert al == pytest.approx(alpha, abs=1e-10)


def test_recover_alphas_needs_case_sign_to_pick_branch():
    # (alpha0, alpha) = (2, 1/2) and (2, 2) produce the same shift pair;
    # the lattice shape (case sign) separates them
    m = asymptotic_model(ReggeProblem(
        a=1.0, alpha0=2.0, beta0=0.0, alpha=0.5, beta=0.0,
        potential=Potential.zero(1.0), real_data=True))
    a0, al = recover_alphas(m.P0_plus, m.P0_minus, 1, m.case_sign)
    assert (a0, al) == pytest.approx((2.0, 0.5), abs=1e-12)
    a0d, ald = recover_alphas(m.P0_plus, m.P0_minus, 1)
    assert ald == pytest.approx(2.0, abs=1e-12)


def test_recover_alphas_rejects_impossible_shifts():
    with pytest.raises(InconsistentInput):
        recover_alphas(1.0, 0.5, 0)
    with pytest.raises(InconsistentInput):
        recover_alphas(-1.0, -1.0, 1)
    with pytest.raises(InconsistentInput):
        recover_alphas(1.0, 3.0, 1)


def _synthetic_spectrum(m, s: Sign, ks) -> Spectrum:
    entries = []
    for k in ks:
        lam = mu_k(m, s, k) + m.P / k + (0.01 / k) / k
        entries.append(SpectrumEntry(k=k, lam=lam, multiplicity=1,
                                     residual=0.0))
    return Spectrum(entries=entries, sign=s,
                    region=Rectangle(-100, 100, -5, 5))


def test_residual_tail_extracts_beta():
    m = asymptotic_model(worked_problem())
    ks = [k for k in range(-12, 13) if k != 0]
    sp = _synthetic_spectrum(m, Sign.PLUS, ks)
    pairs = residual_tail(sp, m, Sign.PLUS, min_abs_k=5)
    got_ks = [k for k, _ in pairs]
    assert got_ks == sorted(k for k in ks if abs(k) >= 5)
    for k, b in pairs:
        assert b == pytest.approx(0.01 / k, abs=1e-12)


def test_residual_tail_skips_unindexed_entries():
    m = asymptotic_model(worked_problem())
    sp = _synthetic_spectrum(m, Sign.PLUS, [5, 6])
    sp.entries.append(SpectrumEntry(k=None, lam=1.0 + 0j, multiplicity=1,
                                    residual=0.0))
    pairs = residual_tail(sp, m, Sign.PLUS)
    assert len(pairs) == 2


def test_residual_tail_csv(tmp_path):
    m = asymptotic_model(worked_problem())
    sp = _synthetic_spectrum(m, Sign.PLUS, [5, 6, 7])
    pairs = residual_tail(sp, m, Sign.PLUS)
    out = tmp_path / "tail.csv"
    write_residual_tail_csv(str(out), pairs)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["k"] for r in rows] == ["5", "6", "7"]
    assert float(rows[0]["re"]) == pytest.approx(0.01 / 5, abs=1e-12)


def test_lattice_indices_by_case_sign():
    negative = asymptotic_model(worked_problem())
    assert negative.case_sign == -1
    assert lattice_indices(negative, -2, 2) == [-2, -1, 1, 2]
    positive = asymptotic_model(ReggeProblem(
        a=1.0, alpha0=2.0, beta0=0.0, alpha=0.5, beta=0.0,
        potential=Potential.zero(1.0), real_data=True))
    assert positive.case_sign == 1
    assert lattice_indices(positive, -2, 2) == [-2, -1, 0, 1, 2]
    # every index it lists has a lattice point
    for m in (negative, positive):
        for k in lattice_indices(m, -3, 3):
            mu_k(m, Sign.PLUS, k)
