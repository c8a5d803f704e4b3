"""Leading-order eigenvalue lattices and asymptotic constants.

The characteristic functions have the form
    lam * (sigma1 cos(lam a) + i sigma2 sin(lam a)) + lower order,
with sigma1 = alpha0 +- alpha and sigma2 = 1 +- alpha*alpha0.  The
zeros of the leading part form a shifted horizontal lattice whose
shape depends on sign((alpha0-1)(1-alpha)); the first-order correction
P/k is a rational expression in the boundary data and (1/2) int q.
This module computes those lattices and constants, evaluates the
prediction lambda_k ~ mu_k + P/k, extracts the l2 residual tail from a
computed spectrum, and inverts the lattice shifts back to the boundary
parameters alpha0, alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCase, DegenerateSigma, InconsistentInput
from .model import ReggeProblem, Sign, write_csv

__all__ = [
    "AsymptoticModel",
    "asymptotic_model",
    "mu_k",
    "lattice_indices",
    "predicted_lambda",
    "residual_tail",
    "write_residual_tail_csv",
    "phi1_eval",
    "phi1_zeros",
    "appendix_P",
    "recover_alphas",
]


@dataclass
class AsymptoticModel:
    """Asymptotic data of one problem, for both boundary sign choices.

    case_sign is sign((alpha0-1)(1-alpha)); zero marks the degenerate
    case without a horizontal lattice (mu/predictions unavailable,
    downstream indexing falls back to ordinal).  P0_plus/P0_minus are
    the log-shifts of the plus/minus problems, P the shared 1/k
    coefficient, M/N the first-order trig coefficients, omega the
    boundary value beta0 + K1aa of the transformation kernel, and
    K1aa = (1/2) int_0^a q.
    """

    case_sign: int
    P0_plus: float
    P0_minus: float
    P: complex
    M_plus: complex
    M_minus: complex
    N_plus: complex
    N_minus: complex
    omega: complex
    K1aa: complex
    a: float

    def P0(self, s: Sign) -> float:
        return self.P0_plus if s is Sign.PLUS else self.P0_minus

    def mu(self, s: Sign, k: int) -> complex:
        return mu_k(self, s, k)

    def predicted(self, s: Sign, k: int) -> complex:
        return predicted_lambda(self, s, k)


def asymptotic_model(p: ReggeProblem, strict: bool = True) -> AsymptoticModel:
    """Asymptotic constants of a validated problem.

    alpha0 = 1 or alpha = 1 degenerates the lattice (the leading trig
    polynomial collapses to a one-sided exponential).  With strict=True
    that raises DegenerateCase; otherwise a model with case_sign = 0
    and NaN lattice constants is returned so callers can still use
    omega, K1aa, M, N.
    """
    a0, al = p.alpha0, p.alpha
    k1aa = 0.5 * p.q.prefix_integral(p.a)
    omega = p.beta0 + k1aa
    m_p = a0 * p.beta + al * omega + a0 * k1aa
    m_m = a0 * p.beta - al * omega + a0 * k1aa
    n_p = omega + p.beta + a0 * al * k1aa
    n_m = omega + p.beta - a0 * al * k1aa
    degen = (a0 == 1.0) or (al == 1.0)
    if degen and strict:
        raise DegenerateCase(
            f"alpha0={a0}, alpha={al}: no horizontal lattice and the 1/k "
            "constant is undefined")
    if degen:
        case, p0p, p0m, big_p = 0, math.nan, math.nan, complex(math.nan)
    else:
        case = 1 if (a0 - 1.0) * (1.0 - al) > 0 else -1
        p0p = math.log(abs(a0 + al + 1 + al * a0) / abs(a0 + al - (1 + al * a0)))
        p0m = math.log(abs(a0 - al + 1 - al * a0) / abs(a0 - al - (1 - al * a0)))
        big_p = (p.beta0 / (math.pi * (1 - a0 ** 2))
                 + p.beta / (math.pi * (1 - al ** 2))
                 + k1aa / math.pi)
    return AsymptoticModel(case_sign=case, P0_plus=p0p, P0_minus=p0m,
                           P=complex(big_p), M_plus=complex(m_p),
                           M_minus=complex(m_m), N_plus=complex(n_p),
                           N_minus=complex(n_m), omega=complex(omega),
                           K1aa=complex(k1aa), a=p.a)


def mu_k(m: AsymptoticModel, s: Sign, k: int) -> complex:
    """Leading lattice point for index k.

    case_sign > 0: indices run over all integers, mu_0 = 0, the rest on
    the half-integer lattice.  case_sign < 0: indices run over nonzero
    integers, mu_{-1} = 0, the rest on the integer lattice.
    """
    if m.case_sign == 0:
        raise DegenerateCase("no lattice in the degenerate case")
    return _lattice_point(m.case_sign > 0, 0.5j * m.P0(s) / m.a, m.a, k)


def lattice_indices(m: AsymptoticModel, lo: int, hi: int) -> list[int]:
    """The lattice indices k with lo <= k <= hi, ascending; k = 0 is an
    index only when case_sign > 0."""
    return [k for k in range(lo, hi + 1) if k != 0 or m.case_sign > 0]


def _lattice_point(half: bool, shift: complex, a: float, k: int) -> complex:
    """k-th point of the shifted half-integer (half) or integer lattice
    of spacing pi/a, numbered as mu_k's docstring says."""
    if k == (0 if half else -1):
        return 0.0 + 0.0j
    if k == 0:
        raise ValueError("k=0 is not an index of the integer lattice")
    return (math.pi / a) * (abs(k) - (0.5 if half else 1.0)) * _sgn(k) + shift


def _sgn(k: int) -> int:
    return 1 if k > 0 else (-1 if k < 0 else 0)


def predicted_lambda(m: AsymptoticModel, s: Sign, k: int) -> complex:
    """Two-term eigenvalue prediction mu_k + P/k (P/k dropped at k=0)."""
    mu = mu_k(m, s, k)
    if k == 0:
        return mu
    return mu + m.P / k


def residual_tail(sp, m: AsymptoticModel, s: Sign, min_abs_k: int = 5):
    """Tail coefficients beta_k = k (lambda_k - mu_k) - P from an
    indexed spectrum, as (k, beta_k) pairs sorted by k.

    Entries with |k| < min_abs_k are skipped: the prediction is an
    |k| -> infinity statement and low-lying eigenvalues contaminate
    the tail.  The pairs should be square-summable in k.
    """
    out: list[tuple[int, complex]] = []
    for e in sp.entries:
        if e.k is None or e.k == 0 or abs(e.k) < min_abs_k:
            continue
        out.append((e.k, e.k * (e.lam - mu_k(m, s, e.k)) - m.P))
    out.sort(key=lambda t: t[0])
    return out


def write_residual_tail_csv(path: str, pairs) -> None:
    write_csv(path, "k,re,im", pairs)


# ---- the leading trig polynomial ------------------------------------------

def phi1_eval(sigma1: float, sigma2: float, a: float, lam):
    """lam (sigma1 cos(lam a) + i sigma2 sin(lam a))."""
    lam = np.asarray(lam, dtype=complex)
    return lam * (sigma1 * np.cos(lam * a) + 1j * sigma2 * np.sin(lam * a))


def phi1_zeros(sigma1: float, sigma2: float, a: float, k: int) -> complex:
    """Exact k-th zero of the leading trig polynomial.

    Solving exp(2 i lam a) = (sigma2-sigma1)/(sigma2+sigma1) with the
    principal log plus the lam=0 root from the prefactor gives two
    lattice shapes by the sign of (sigma2-sigma1)(sigma2+sigma1):
    negative: indices all of Z with the 0-th zero at 0 and the rest on
    the half-integer lattice; positive: indices the nonzero integers
    with the (-1)-st zero at 0 and the rest on the integer lattice.
    Both carry the shift (i/2a) ln(|sigma2+sigma1|/|sigma2-sigma1|).
    """
    d = (sigma2 - sigma1) * (sigma2 + sigma1)
    if d == 0.0:
        raise DegenerateSigma(
            f"sigma1={sigma1}, sigma2={sigma2}: sigma1 = +-sigma2")
    shift = 0.5j * math.log(abs(sigma2 + sigma1) / abs(sigma2 - sigma1)) / a
    return _lattice_point(d < 0, shift, a, k)


def appendix_P(sigma1: float, sigma2: float, M: complex, N: complex) -> complex:
    """1/k correction constant (sigma2 N - sigma1 M)/(pi (sigma2^2 - sigma1^2)).

    With sigma1 = alpha0 +- alpha, sigma2 = 1 +- alpha alpha0 and the
    matching M, N this reduces to the boundary-data expression used by
    predicted_lambda, identically in beta0, beta and int q.
    """
    d = sigma2 * sigma2 - sigma1 * sigma1
    if d == 0.0:
        raise DegenerateSigma(
            f"sigma1={sigma1}, sigma2={sigma2}: sigma1 = +-sigma2")
    return (sigma2 * N - sigma1 * M) / (math.pi * d)


def recover_alphas(P0p: float, P0m: float, sign_alpha0_minus_1: int,
                   case_sign: int | None = None) -> tuple[float, float]:
    """Boundary parameters (alpha0, alpha) from the two lattice shifts.

    exp(P0p+P0m) = ((alpha0+1)/(alpha0-1))^2 and exp(P0p-P0m) =
    ((alpha+1)/(alpha-1))^2 determine each parameter up to the
    reciprocal pairing x <-> 1/x (both sides give the same shift pair);
    the given sign of alpha0-1 fixes alpha0.  The shifts alone cannot
    fix the side of 1 that alpha lies on, so the alpha branch comes
    from case_sign = sign((alpha0-1)(1-alpha)) when supplied --
    observable from whether the spectrum's real parts sit on the
    half-integer or integer lattice -- and otherwise defaults to
    sign(alpha-1) = sign(alpha0-1).
    """
    if sign_alpha0_minus_1 == 0:
        raise InconsistentInput("sign of alpha0-1 must be +-1")
    r0 = math.exp(0.5 * (P0p + P0m))  # (alpha0+1)/|alpha0-1|
    r1 = math.exp(0.5 * (P0p - P0m))  # (alpha+1)/|alpha-1|
    if sign_alpha0_minus_1 > 0:
        if r0 <= 1.0:
            raise InconsistentInput(
                f"exp((P0p+P0m)/2)={r0:g} <= 1 has no solution alpha0 > 1")
        alpha0 = (r0 + 1.0) / (r0 - 1.0)
    else:
        alpha0 = (r0 - 1.0) / (r0 + 1.0)
        if alpha0 < 0.0:
            raise InconsistentInput(
                f"exp((P0p+P0m)/2)={r0:g} < 1 has no solution alpha0 >= 0")
    if r1 <= 1.0:
        raise InconsistentInput(
            f"exp((P0p-P0m)/2)={r1:g} <= 1 has no positive solution alpha")
    if case_sign is not None and case_sign != 0:
        sign_alpha_minus_1 = -case_sign * sign_alpha0_minus_1
    else:
        sign_alpha_minus_1 = sign_alpha0_minus_1
    if sign_alpha_minus_1 > 0:
        alpha = (r1 + 1.0) / (r1 - 1.0)
    else:
        alpha = (r1 - 1.0) / (r1 + 1.0)
    return alpha0, alpha
