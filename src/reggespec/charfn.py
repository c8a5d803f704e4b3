"""Characteristic functions of the generalized Regge problem.

With y the left boundary solution (y(0) = 1, y'(0) = beta0 + i alpha0
lambda), u = y(lam, a) and du = y'(lam, a), the form

    du + (s i alpha lam + beta) u

is Delta_+ (s = +1) or Delta_- (s = -1), whose zeros are the eigenvalues
of the problem and of its alpha -> -alpha partner, or their average, the
Robin function (s = 0).  Delta_0 = u (s = None) is the characteristic
function of the reflected problem with a Dirichlet condition at 0.  Each
evaluator is a view of one marched state through `_form`.  The module
also evaluates the Wronskian route to Delta_(+/-), the product identity
connecting Delta_(+/-)(+/-lam), and the energy identity that expresses
2 lam int_0^a y^2 dx through Delta_+ and Delta_0.
"""

from __future__ import annotations

import numpy as np

from .model import ReggeProblem, Sign
from .odecore import (
    DerivState,
    solve_phi,
    solve_y,
    solve_y_lambda_derivative,
    solve_y_trajectory,
)

__all__ = [
    "delta",
    "delta_zero",
    "delta_dot",
    "wronskian_delta",
    "identity_terms",
    "identity_residual",
    "robin_charfn",
    "robin_dot",
    "energy_terms",
    "energy_identity_residual",
]


def _unwrap(x):
    x = np.asarray(x)
    return x.item() if x.shape == () else x


def _form(p: ReggeProblem, s, lam, st, dot: bool = False):
    """The form named by s on the state st, or with dot its
    lambda-derivative (st a DerivState), in st's scale exp(st.sigma)."""
    if s is None:
        return st.v if dot else st.u
    coef = s * 1j * p.alpha * np.asarray(lam, dtype=complex) + complex(p.beta)
    if dot:
        return st.dv + s * 1j * p.alpha * st.u + coef * st.v
    return st.du + coef * st.u


def _view(p: ReggeProblem, s, lam, nsteps, dot: bool = False):
    """The form named by s (or its lambda-derivative) at lam, descaled."""
    st = (solve_y_lambda_derivative if dot else solve_y)(p, lam, nsteps=nsteps)
    return _unwrap(_form(p, s, lam, st, dot) * np.exp(st.sigma))


def delta(p: ReggeProblem, sign: Sign, lam, nsteps=None):
    """Delta_+ or Delta_- at lam (scalar or array), descaled."""
    return _view(p, sign.s, lam, nsteps)


def delta_zero(p: ReggeProblem, lam, nsteps=None):
    """Delta_0(lam) = y(lam, a), the reflected-problem characteristic function."""
    return _view(p, None, lam, nsteps)


def robin_charfn(p: ReggeProblem, lam, nsteps=None):
    """y'(lam, a) + beta y(lam, a), the lambda-independent-coupling remnant.

    Equals (Delta_+ + Delta_-)/2 exactly; kept as a separate entry point
    so the averaged route can be cross-checked against it.
    """
    return _view(p, 0, lam, nsteps)


def delta_dot(p: ReggeProblem, sign: Sign, lam, nsteps=None):
    """d/dlam of Delta at lam, from the variational system (no finite differences)."""
    return _view(p, sign.s, lam, nsteps, dot=True)


def delta_zero_dot(p: ReggeProblem, lam, nsteps=None):
    """d/dlam of Delta_0."""
    return _view(p, None, lam, nsteps, dot=True)


def robin_dot(p: ReggeProblem, lam, nsteps=None):
    """d/dlam of the Robin function, (Ddot_+ + Ddot_-)/2, from one march."""
    return _view(p, 0, lam, nsteps, dot=True)


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


def identity_terms(p: ReggeProblem, lam, nsteps=None):
    """The three terms of the product identity at lam:

    (Delta_+(lam) Delta_+(-lam), Delta_-(lam) Delta_-(-lam), 4 a a0 lam^2).

    Delta_+ and Delta_- share one integration at lam and one at -lam.
    """
    lam_c = np.asarray(lam, dtype=complex)
    states = [(z, solve_y(p, z, nsteps=nsteps)) for z in (lam_c, -lam_c)]
    plus, minus = ([_form(p, s, z, st) * np.exp(st.sigma) for z, st in states]
                   for s in (1, -1))
    return (plus[0] * plus[1], minus[0] * minus[1],
            4.0 * p.alpha * p.alpha0 * lam_c ** 2)


def identity_residual(p: ReggeProblem, lam, nsteps=None):
    """Delta_+(lam) Delta_+(-lam) - Delta_-(lam) Delta_-(-lam) - 4 a a0 lam^2.

    Vanishes identically; the residual measures solver consistency.
    """
    plus, minus, quad = identity_terms(p, lam, nsteps=nsteps)
    return _unwrap(plus - minus - quad)


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
    # the terms multiply values, so the forms are taken on the descaled state
    scale = np.exp(st.sigma)
    st = DerivState(u=st.u * scale, du=st.du * scale, v=st.v * scale,
                    dv=st.dv * scale, sigma=np.zeros_like(scale))
    d0, d0_dot = (_form(p, None, lam_c, st, dot) for dot in (False, True))
    d_plus, d_plus_dot = (_form(p, 1, lam_c, st, dot) for dot in (False, True))

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

