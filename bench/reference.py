"""Reference values the benchmark checks reggespec against.

Nothing here calls reggespec.  Three independent sources:

* closed forms for a constant potential q = c: with w = lam^2 - c,
  y(a) = cos(a sqrt w) + g sin(a sqrt w)/sqrt w and
  y'(a) = -w sin(a sqrt w)/sqrt w + g cos(a sqrt w), g = beta0 + i alpha0 lam,
  written through entire functions of w so lam^2 = c needs no branch;
* the leading lattice mu_k + P/k of the asymptotic model, re-derived
  from the boundary data (used to count eigenvalues in a window);
* an adaptive Dormand-Prince 8(5,3) integration (scipy solve_ivp) of
  y and its lambda-derivative, for grid potentials.

Problems are plain dicts in the reggespec config format (see
``problem_dict``), so inputs can be hashed and written as configs.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline


# ---- problem data ----------------------------------------------------------

def _cplx(node) -> complex:
    if isinstance(node, dict):
        return complex(node["re"], node.get("im", 0.0))
    return complex(node)


def cfg_complex(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def problem_dict(a, alpha0, beta0, alpha, beta, potential, real_data) -> dict:
    """Config dict accepted by reggespec.model.problem_from_dict."""
    return {"a": float(a), "alpha0": float(alpha0), "beta0": cfg_complex(beta0),
            "alpha": float(alpha), "beta": cfg_complex(beta),
            "potential": potential, "real_data": bool(real_data)}


class Problem:
    """Boundary data and potential of one config dict, for the references."""

    def __init__(self, cfg: dict):
        self.a = float(cfg["a"])
        self.alpha0 = float(cfg["alpha0"])
        self.alpha = float(cfg["alpha"])
        self.beta0 = _cplx(cfg["beta0"])
        self.beta = _cplx(cfg["beta"])
        pot = cfg["potential"]
        kind = pot["type"]
        self.const = None
        if kind == "zero":
            self.const = 0j
        elif kind == "constant":
            self.const = _cplx(pot["value"])
        else:
            if pot.get("interpolation") != "cubic":
                raise ValueError("reference supports cubic grid potentials only")
            samples = np.array([_cplx(s) for s in pot["samples"]])
            xs = np.linspace(0.0, self.a, len(samples))
            self.spline = CubicSpline(xs, samples)

    def q(self, x):
        if self.const is not None:
            return self.const
        return complex(self.spline(x))

    def half_int_q(self) -> complex:
        """(1/2) int_0^a q."""
        if self.const is not None:
            return 0.5 * self.const * self.a
        return 0.5 * complex(self.spline.integrate(0.0, self.a))


# ---- constant potential: closed forms ---------------------------------------

def _trig_w(w: np.ndarray, a: float):
    """cos(a s), sin(a s)/s and their w-derivatives, s = sqrt(w), entire in w."""
    s = np.sqrt(w)
    small = np.abs(w) * a * a < 0.1
    s_safe = np.where(small, 1.0, s)
    w_safe = np.where(small, 1.0, w)
    C = np.cos(a * s)
    Sk = np.where(small, 0.0, np.sin(a * s_safe) / s_safe)
    dSk = np.where(small, 0.0, (a * C - Sk) / (2.0 * w_safe))
    if np.any(small):
        ws = np.where(small, w, 0.0)
        ser, dser = np.zeros_like(ws), np.zeros_like(ws)
        for n in range(14):
            c = (-1) ** n * a ** (2 * n + 1) / math.factorial(2 * n + 1)
            ser = ser + c * ws ** n
            if n:
                dser = dser + n * c * ws ** (n - 1)
        Sk = np.where(small, ser, Sk)
        dSk = np.where(small, dser, dSk)
    dC = -0.5 * a * Sk
    return C, Sk, dC, dSk


def const_state(p: Problem, lam):
    """(y(a), y'(a), ydot(a), ydot'(a)) for a constant potential."""
    lam = np.asarray(lam, dtype=complex)
    w = lam * lam - p.const
    C, Sk, dC, dSk = _trig_w(w, p.a)
    g = p.beta0 + 1j * p.alpha0 * lam
    dg = 1j * p.alpha0
    y = C + g * Sk
    yp = -w * Sk + g * C
    ydot = 2.0 * lam * dC + dg * Sk + g * 2.0 * lam * dSk
    ypdot = -2.0 * lam * (Sk + w * dSk) + dg * C + g * 2.0 * lam * dC
    return y, yp, ydot, ypdot


def ivp_state(p: Problem, lam, x_end: float | None = None, rtol: float = 1e-12):
    """(y, y', ydot, ydot') at x_end by adaptive integration, for any potential."""
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    x_end = p.a if x_end is None else float(x_end)
    n = lam.size
    lam2 = lam * lam
    two_lam = 2.0 * lam
    y0 = np.concatenate([np.ones(n), p.beta0 + 1j * p.alpha0 * lam,
                         np.zeros(n), np.full(n, 1j * p.alpha0)]).astype(complex)

    def rhs(x, u):
        y, yp, v, vp = u[:n], u[n:2 * n], u[2 * n:3 * n], u[3 * n:]
        w = p.q(x) - lam2
        return np.concatenate([yp, w * y, vp, w * v - two_lam * y])

    sol = solve_ivp(rhs, (0.0, x_end), y0, method="DOP853", rtol=rtol,
                    atol=1e-14, t_eval=[x_end])
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    u = sol.y[:, -1]
    return u[:n], u[n:2 * n], u[2 * n:3 * n], u[3 * n:]


def mismatch(p1: Problem, p2: Problem, lam, b: float, rtol: float = 1e-12):
    """F = y1 y2' - y2 y1' at b for two problems with the same left data.

    Integrated as F' = (q2 - q1) y1 y2, F(0) = 0, so the value carries no
    cancellation between the two products.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    if (p1.alpha0, p1.beta0) != (p2.alpha0, p2.beta0):
        raise ValueError("mismatch needs the same left boundary data")
    n = lam.size
    lam2 = lam * lam
    g = p1.beta0 + 1j * p1.alpha0 * lam
    u0 = np.concatenate([np.ones(n), g, np.ones(n), g, np.zeros(n)]).astype(complex)

    def rhs(x, u):
        y1, yp1, y2, yp2 = u[:n], u[n:2 * n], u[2 * n:3 * n], u[3 * n:4 * n]
        q1, q2 = p1.q(x), p2.q(x)
        return np.concatenate([yp1, (q1 - lam2) * y1, yp2, (q2 - lam2) * y2,
                               (q2 - q1) * y1 * y2])

    sol = solve_ivp(rhs, (0.0, float(b)), u0, method="DOP853", rtol=rtol,
                    atol=1e-14, t_eval=[float(b)])
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[4 * n:, -1]


def state(p: Problem, lam):
    """Closed form for constant potentials, adaptive integration otherwise."""
    return const_state(p, lam) if p.const is not None else ivp_state(p, lam)


def charfns(p: Problem, lam, st=None) -> dict:
    """Delta_+, Delta_-, Delta_0, their lambda-derivatives and term scales."""
    lam = np.asarray(lam, dtype=complex)
    y, yp, yd, ypd = state(p, lam) if st is None else st
    out = {"d0": y, "d0_dot": yd}
    for name, s in (("plus", 1), ("minus", -1)):
        coef = s * 1j * p.alpha * lam + p.beta
        out[name] = yp + coef * y
        out[name + "_dot"] = ypd + s * 1j * p.alpha * y + coef * yd
        out[name + "_scale"] = np.abs(yp) + np.abs(coef * y)
        out[name + "_dot_scale"] = (np.abs(ypd) + np.abs(p.alpha * y)
                                    + np.abs(coef * yd))
    return out


def newton_zero(p: Problem, sign: int, z0, iters: int = 60):
    """Zeros of Delta_sign by Newton on the reference, from starting points z0."""
    z = np.atleast_1d(np.asarray(z0, dtype=complex)).copy()
    name = "plus" if sign > 0 else "minus"
    for _ in range(iters):
        f = charfns(p, z)
        step = f[name] / f[name + "_dot"]
        z = z - step
        if np.all(np.abs(step) <= 1e-15 * (1.0 + np.abs(z))):
            break
    return z


def winding_count(p: Problem, sign: int, rect, per_unit: int = 16,
                  max_points: int = 1 << 16) -> int:
    """Zeros of the reference Delta_sign inside rect (argument principle).

    The boundary is sampled ever more densely until no phase step reaches
    pi/4; raises ValueError when that never happens (a zero on the contour).
    """
    x0, x1, y0, y1 = rect
    name = "plus" if sign > 0 else "minus"
    perim = 2.0 * ((x1 - x0) + (y1 - y0))
    n = max(256, int(per_unit * perim))
    while n <= max_points:
        t = np.arange(n) / n * perim
        z = np.empty(n, dtype=complex)
        w, h = x1 - x0, y1 - y0
        e0 = t < w
        e1 = (t >= w) & (t < w + h)
        e2 = (t >= w + h) & (t < 2 * w + h)
        e3 = t >= 2 * w + h
        z[e0] = x0 + t[e0] + 1j * y0
        z[e1] = x1 + 1j * (y0 + t[e1] - w)
        z[e2] = x1 - (t[e2] - w - h) + 1j * y1
        z[e3] = x0 + 1j * (y1 - (t[e3] - 2 * w - h))
        f = charfns(p, z)[name]
        dphi = np.angle(np.roll(f, -1) / f)
        if np.all(np.abs(dphi) < 0.25 * math.pi):
            return int(round(dphi.sum() / (2.0 * math.pi)))
        n *= 2
    raise ValueError("winding count did not settle; zero on the contour?")


# ---- asymptotic lattice ------------------------------------------------------

def lattice(p: Problem, sign: int) -> dict:
    """Leading lattice of Delta_sign: case sign, shift P0/(2a) and P."""
    a0, al = p.alpha0, p.alpha
    s1, s2 = a0 + sign * al, 1.0 + sign * al * a0
    case = 1 if (a0 - 1.0) * (1.0 - al) > 0 else -1
    p0 = math.log(abs(s2 + s1) / abs(s2 - s1))
    big_p = (p.beta0 / (math.pi * (1 - a0 ** 2))
             + p.beta / (math.pi * (1 - al ** 2)) + p.half_int_q() / math.pi)
    return {"case": case, "P0": p0, "shift": p0 / (2.0 * p.a), "P": big_p}


def predicted_positive(p: Problem, sign: int, re_lo: float, re_hi: float):
    """Two-term predictions mu_k + P/k with re_lo <= Re mu_k <= re_hi, re_lo > 0."""
    lat = lattice(p, sign)
    off = 0.5 if lat["case"] > 0 else 1.0   # Re mu_k = (k - off) pi / a
    k_lo = max(2, int(math.floor(re_lo * p.a / math.pi + off)) - 1)
    k_hi = int(math.ceil(re_hi * p.a / math.pi + off)) + 1
    ks = np.arange(k_lo, k_hi + 1)
    mu = (ks - off) * math.pi / p.a + 1j * lat["shift"]
    return mu + lat["P"] / ks


# ---- exact lattice functions for the Hadamard rebuilds -----------------------

def shifted_sine(z0: complex, z):
    """f(z) = z sin(z - z0) = z (c1 cos z + c2 sin z), c1 = -sin z0, c2 = cos z0.

    Zeros: the origin (simple) and z0 + k pi for every integer k.
    """
    z = np.asarray(z, dtype=complex)
    return z * np.sin(z - z0)


def shifted_sine_coefs(z0: complex) -> dict:
    c1, c2 = -np.sin(z0), np.cos(z0)
    return {"c1": c1, "c2": c2, "c1+c2": c1 + c2, "c1-c2": c1 - c2}


def digits(err: float) -> float:
    """Correct digits -log10(relative error), capped at 16."""
    return 16.0 if err <= 1e-16 else float(-math.log10(err))
