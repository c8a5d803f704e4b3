"""Characteristic functions of the generalized Regge problem.

With y the left boundary solution (y(0) = 1, y'(0) = beta0 + i alpha0
lambda), the two characteristic functions are

    Delta_+(lam) = y'(lam, a) + (i alpha lam + beta) y(lam, a),
    Delta_-(lam) = y'(lam, a) - (i alpha lam - beta) y(lam, a),

whose zeros are the eigenvalues of the problem and of its alpha -> -alpha
partner.  Delta_0(lam) = y(lam, a) is the characteristic function of the
reflected problem with a Dirichlet condition at 0.  The module also
evaluates lambda-derivatives, the Wronskian route to Delta_(+/-), the
product identity connecting the four values Delta_(+/-)(+/-lam), and the
energy identity that expresses 2 lam int_0^a y^2 dx through Delta_+ and
Delta_0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ReggeProblem, Sign, atomic_write_text
from .odecore import (
    solve_phi,
    solve_y,
    solve_y_lambda_derivative,
    solve_y_trajectory,
)

__all__ = [
    "delta",
    "delta_scaled",
    "delta_zero",
    "delta_dot",
    "wronskian_delta",
    "identity_terms",
    "identity_residual",
    "robin_charfn",
    "energy_terms",
    "energy_identity_residual",
    "CharFnSample",
    "sample_charfn",
    "write_samples_csv",
]


def _unwrap(x):
    x = np.asarray(x)
    return x.item() if x.shape == () else x


def _coef(p: ReggeProblem, sign: Sign, lam):
    return sign.s * 1j * p.alpha * np.asarray(lam, dtype=complex) + complex(p.beta)


def delta_scaled(p: ReggeProblem, sign: Sign, lam, nsteps=None):
    """(mantissa, sigma) with Delta = mantissa * exp(sigma); sigma real.

    Safe at large |Im lam| where the descaled value would overflow.
    """
    st = solve_y(p, lam, nsteps=nsteps)
    mant = st.du + _coef(p, sign, lam) * st.u
    return _unwrap(mant), _unwrap(st.sigma)


def delta(p: ReggeProblem, sign: Sign, lam, nsteps=None):
    """Delta_+ or Delta_- at lam (scalar or array), descaled."""
    mant, sigma = delta_scaled(p, sign, lam, nsteps=nsteps)
    return _unwrap(np.asarray(mant) * np.exp(np.asarray(sigma)))


def delta_zero(p: ReggeProblem, lam, nsteps=None):
    """Delta_0(lam) = y(lam, a), the reflected-problem characteristic function."""
    st = solve_y(p, lam, nsteps=nsteps)
    return _unwrap(st.value)


def delta_dot(p: ReggeProblem, sign: Sign, lam, nsteps=None):
    """d/dlam of Delta at lam, from the variational system (no finite differences)."""
    st = solve_y_lambda_derivative(p, lam, nsteps=nsteps)
    lam_c = np.asarray(lam, dtype=complex)
    mant = st.dv + sign.s * 1j * p.alpha * st.u + _coef(p, sign, lam_c) * st.v
    return _unwrap(mant * np.exp(st.sigma))


def delta_zero_dot(p: ReggeProblem, lam, nsteps=None):
    """d/dlam of Delta_0."""
    st = solve_y_lambda_derivative(p, lam, nsteps=nsteps)
    return _unwrap(st.lam_derivative)


def wronskian_delta(p: ReggeProblem, sign: Sign, lam, x: float, nsteps=None):
    """Delta via the x-independent Wronskian <phi(s lam, .), y(lam, .)> at x.

    phi is the right boundary solution; evaluating it at s*lam gives
    Delta_+ (s = +1) or Delta_- (s = -1).  Useful as a cross-check that
    the two integration directions agree at interior points.
    """
    lam_c = np.asarray(lam, dtype=complex)
    ph = solve_phi(p, sign.s * lam_c, x=x, nsteps=nsteps)
    ys = solve_y(p, lam, x=x, nsteps=nsteps)
    mant = ph.u * ys.du - ph.du * ys.u
    return _unwrap(mant * np.exp(ph.sigma + ys.sigma))


def _delta_pair(p: ReggeProblem, lam, nsteps=None):
    """(Delta_+, Delta_-) at lam from one solve_y state, descaled."""
    st = solve_y(p, lam, nsteps=nsteps)
    scale = np.exp(st.sigma)
    return tuple((st.du + _coef(p, sign, lam) * st.u) * scale
                 for sign in (Sign.PLUS, Sign.MINUS))


def identity_terms(p: ReggeProblem, lam, nsteps=None):
    """The three terms of the product identity at lam:

    (Delta_+(lam) Delta_+(-lam), Delta_-(lam) Delta_-(-lam), 4 a a0 lam^2).

    Delta_+ and Delta_- share one integration at lam and one at -lam.
    """
    lam_c = np.asarray(lam, dtype=complex)
    dp, dm = _delta_pair(p, lam_c, nsteps=nsteps)
    dpm, dmm = _delta_pair(p, -lam_c, nsteps=nsteps)
    return dp * dpm, dm * dmm, 4.0 * p.alpha * p.alpha0 * lam_c ** 2


def identity_residual(p: ReggeProblem, lam, nsteps=None):
    """Delta_+(lam) Delta_+(-lam) - Delta_-(lam) Delta_-(-lam) - 4 a a0 lam^2.

    Vanishes identically; the residual measures solver consistency.
    """
    plus, minus, quad = identity_terms(p, lam, nsteps=nsteps)
    return _unwrap(plus - minus - quad)


def robin_charfn(p: ReggeProblem, lam, nsteps=None):
    """y'(lam, a) + beta y(lam, a), the lambda-independent-coupling remnant.

    Equals (Delta_+ + Delta_-)/2 exactly; kept as a separate entry point
    so the averaged route can be cross-checked against it.
    """
    st = solve_y(p, lam, nsteps=nsteps)
    return _unwrap((st.du + complex(p.beta) * st.u) * np.exp(st.sigma))


def energy_terms(p: ReggeProblem, lam, nsteps=None):
    """The integral side and the four boundary terms of the energy identity

        2 lam int_0^a y^2 dx = Delta_+ Ddot_0 - Ddot_+ Delta_0
                               + i alpha Delta_0^2 + i alpha0,

    as (lhs, Delta_+ Ddot_0, -Ddot_+ Delta_0, i alpha Delta_0^2, i alpha0),
    so the four boundary terms sum to the right-hand side.  All come from
    one lambda-derivative march and the trajectory.  The integral uses
    composite Simpson on the integration mesh, so lam should stay
    moderate (no rescaling events).
    """
    lam_c = np.asarray(lam, dtype=complex)
    st = solve_y_lambda_derivative(p, lam_c, nsteps=nsteps)
    scale = np.exp(st.sigma)
    d0, d0_dot = st.u * scale, st.v * scale
    coef = _coef(p, Sign.PLUS, lam_c)
    d_plus = st.du * scale + coef * d0
    d_plus_dot = st.dv * scale + 1j * p.alpha * d0 + coef * d0_dot

    xs, traj, _ = solve_y_trajectory(p, lam_c, nsteps=nsteps)
    m = len(xs) - 1
    w = np.ones(m + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    h = xs[1] - xs[0]
    integral = (h / 3.0) * np.tensordot(w, traj ** 2, axes=(0, 0))

    terms = (2.0 * lam_c * integral, d_plus * d0_dot, -(d_plus_dot * d0),
             1j * p.alpha * d0 ** 2, np.full_like(d0, 1j * p.alpha0))
    return tuple(_unwrap(t) for t in terms)


def energy_identity_residual(p: ReggeProblem, lam, nsteps=None):
    """Residual rhs - lhs of the energy identity (see `energy_terms`)."""
    lhs, t1, t2, t3, t4 = energy_terms(p, lam, nsteps=nsteps)
    return _unwrap(t1 + t2 + t3 + t4 - lhs)


# ---- sampling / CSV -------------------------------------------------------

@dataclass
class CharFnSample:
    lam: complex
    value: complex
    scale_exponent: float
    derivative: complex | None = None


def sample_charfn(p: ReggeProblem, sign: Sign, lams, with_derivative: bool = False,
                  nsteps=None) -> list[CharFnSample]:
    lams = np.asarray(lams, dtype=complex).reshape(-1)
    mant, sigma = delta_scaled(p, sign, lams, nsteps=nsteps)
    vals = mant * np.exp(sigma)
    ders = delta_dot(p, sign, lams, nsteps=nsteps) if with_derivative else None
    out = []
    for i, lam in enumerate(lams):
        out.append(CharFnSample(
            lam=complex(lam), value=complex(vals[i]),
            scale_exponent=float(sigma[i]),
            derivative=complex(ders[i]) if with_derivative else None))
    return out


def write_samples_csv(samples: list[CharFnSample], path: str) -> None:
    """Write samples atomically with 17 significant digits."""
    lines = ["λ_re,λ_im,value_re,value_im"]
    for s in samples:
        lines.append(f"{s.lam.real:.17g},{s.lam.imag:.17g},"
                     f"{s.value.real:.17g},{s.value.imag:.17g}")
    atomic_write_text(path, "\n".join(lines) + "\n")
