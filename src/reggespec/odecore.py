"""Initial value solvers and the transformation kernel.

Everything downstream (characteristic functions, root searches, inverse
pipelines) reduces to initial value problems for -u'' + q u = lambda^2 u
integrated across [0, a].  The integrator is classical fixed-step
fourth-order Runge-Kutta, written as a product of step matrices: one RK4
step maps (u, u') through a 2x2 transfer matrix P whose entries are
quadratic in L = lambda^2, so the matrices of a whole block of steps and
a whole batch of lambda values are built at once in closed form.  A
block's matrices are multiplied pairwise, level by level (a tree
product), and the block product is applied to the state; there is no
loop over single steps.  Products are carried as E = P - I, which keeps
the rounding error at the level of the step-by-step recurrence.  The
lambda-derivative rides along as the block-triangular pair
(P, dP/dlambda), which is exactly RK4 applied to the variational system.

Exponential rescaling keeps large |Im lambda| representable: at every
fourth tree level (16 steps) each node's largest entry, and after each
product is applied the state's largest component, is divided out when
it leaves [1e-8, 1e8], and its log is added to a per-lambda scale
exponent sigma.  Blocks hold about _BLOCK_ELEMENTS steps x lambda
values, so memory stays flat as the batch grows.  solve_y_trajectory
forms the running products of the same step matrices by a prefix scan,
block by block, from y's initial rows on the same mesh.

_solve is the one march entry: solve_sc, solve_y, solve_phi and
solve_y_lambda_derivative only state their initial rows; _solve checks
x, batches lambda, lays the mesh (_mesh) and marches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, OutOfDomain, ValidationError
from .model import Potential, ReggeProblem

__all__ = [
    "DEFAULT_STEPS",
    "ScaledState",
    "DerivState",
    "solve_sc",
    "solve_y",
    "solve_phi",
    "solve_y_lambda_derivative",
    "solve_y_trajectory",
    "KernelGrid",
    "kernel_K",
    "transform_rep_s",
]

DEFAULT_STEPS = 4096

_RESCALE_HI = 1e8
_RESCALE_LO = 1e-8
_RESCALE_LEVELS = 4              # tree levels between checks: 2**4 steps
_BLOCK_ELEMENTS = 1 << 13        # steps x lambda values per block


@dataclass
class ScaledState:
    """Solution pair (u, u') at a point, true value = u * exp(sigma)."""

    u: np.ndarray
    du: np.ndarray
    sigma: np.ndarray

    @property
    def value(self):
        return self.u * np.exp(self.sigma)

    @property
    def derivative(self):
        return self.du * np.exp(self.sigma)


@dataclass
class DerivState(ScaledState):
    """Adds the lambda-derivative pair; same scale exponent."""

    v: np.ndarray = None
    dv: np.ndarray = None


def _as_batch(lam):
    arr = np.asarray(lam, dtype=complex)
    return arr.reshape(-1), arr.shape


def _mesh(p: ReggeProblem, span: float, nsteps, reflect: bool = False):
    """q (or q(a - .) with reflect) at every half step of the mesh on
    [0, span], and the step.  nsteps steps (default DEFAULT_STEPS) cover
    [0, a]; a shorter span gets its share of them, at least 8."""
    m = DEFAULT_STEPS if nsteps is None else int(nsteps)
    if span < p.a:
        m = max(8, int(np.ceil(m * span / p.a)))
    q = p.potential.reflect() if reflect else p.potential
    return q(np.linspace(0.0, span, 2 * m + 1)), span / m


# ---- step matrices and their products ---------------------------------------

class _Steps:
    """RK4 transfer matrices of every step of a mesh, as polynomials in L.

    With w = q - L at a step's start, midpoint and end (w0, wm, w1) and
    c = h^2/6, one RK4 step for (u, u')' = [[0, 1], [w, 0]] (u, u') is

        P = [[1 + c(w0 + 2wm + h^2 w0 wm / 4),  h + c h wm],
             [h/6 (w0 + 4wm + w1 + h^2 wm (w0 + w1) / 2),
              1 + c(2wm + w1 + h^2 w1 wm / 4)]].

    Matrices are kept as E = P - I: a step moves the state by O(h), and
    rounding 1 + E to double at every step would add an error of about
    one unit in the last place per step, the same sign step after step.
    Each entry of E is a + b L + k L^2, so the entries of a block of
    steps for a batch of lambda values are one matrix product of the
    (entry, step) coefficients (a, b, k) with the rows (1, L, L^2).
    The lambda-derivative dP/dlambda = 2 lambda (b + 2 k L) is the same
    product of (b, k) with (2 lambda, 4 lambda L).
    """

    def __init__(self, qv: np.ndarray, h: float, lam: np.ndarray,
                 deriv: bool = False):
        q0, qm, q1 = qv[0:-1:2], qv[1::2], qv[2::2]
        c = h * h / 6.0
        k = c * h * h / 4.0
        g = h ** 3 / 12.0
        self.n = len(qm)
        ones = np.ones(self.n)
        coef = np.empty((4, self.n, 3), dtype=complex)
        coef[0] = np.stack([c * (q0 + 2.0 * qm) + k * q0 * qm,
                            -3.0 * c - k * (q0 + qm), k * ones], 1)
        coef[1] = np.stack([h + c * h * qm, -c * h * ones,
                            np.zeros(self.n)], 1)
        coef[2] = np.stack([(h / 6.0) * (q0 + 4.0 * qm + q1)
                            + g * qm * (q0 + q1),
                            -h - g * (q0 + 2.0 * qm + q1), 2.0 * g * ones], 1)
        coef[3] = np.stack([c * (2.0 * qm + q1) + k * q1 * qm,
                            -3.0 * c - k * (qm + q1), k * ones], 1)
        L = lam * lam
        self.parts = [(coef, np.stack([np.ones_like(L), L, L * L]))]
        if deriv:
            self.parts.append((np.ascontiguousarray(coef[:, :, 1:]),
                               np.stack([2.0 * lam, 4.0 * lam * L])))

    def matrices(self, j0: int, j1: int):
        """Entries [E00, E01, E10, E11] of steps j0..j1-1, shape (steps, n).

        With deriv, the entries of dP/dlambda follow.
        """
        out = []
        for coef, rows in self.parts:
            out.extend(np.matmul(coef[:, j0:j1], rows))
        return out


def _mul(R, L):
    """Entries of R @ L for 2x2 matrices given as [m00, m01, m10, m11]."""
    r00, r01, r10, r11 = R
    l00, l01, l10, l11 = L
    out = [r00 * l00, r00 * l01, r10 * l00, r10 * l01]
    out[0] += r01 * l10
    out[1] += r01 * l11
    out[2] += r11 * l10
    out[3] += r11 * l11
    return out


def _combine(R, L, plain=False):
    """Product of nodes R (later) and L, entry by entry.

    Nodes hold E = P - I, so (I + E_R)(I + E_L) = I + (E_R E_L + E_L + E_R),
    and with (E, D) pairs D = D_R (I + E_L) + (I + E_R) D_L follows.  With
    plain, nodes hold P itself: P_R P_L, and D = D_R P_L + P_R D_L.
    """
    E = _mul(R[:4], L[:4])
    if not plain:
        for e, l, r in zip(E, L[:4], R[:4]):
            e += l
            e += r
    if len(R) == 4:
        return E
    D = _mul(R[4:], L[:4])
    for d, x, l, r in zip(D, _mul(R[:4], L[4:]), L[4:], R[4:]):
        d += x
        if not plain:
            d += l
            d += r
    return E + D


def _scale_factor(arrays):
    """Each position's largest magnitude where it leaves [lo, hi], else 1.

    None when every position stays inside.
    """
    mag = np.abs(arrays[0])
    for arr in arrays[1:]:
        np.maximum(mag, np.abs(arr), out=mag)
    need = (mag > _RESCALE_HI) | ((mag < _RESCALE_LO) & (mag > 0.0))
    return np.where(need, mag, 1.0) if np.any(need) else None


def _rescale(arrays, sigma):
    """Divide each position's out-of-range magnitude out of arrays.

    Every array has sigma's shape (or sigma is None, meaning zero); the
    logs of the factors are added to sigma, which is returned.
    """
    factor = _scale_factor(arrays)
    if factor is None:
        return sigma
    for arr in arrays:
        arr /= factor
    log = np.log(factor)
    return log if sigma is None else sigma + log


def _tree(mats):
    """Pairwise product of a run of step matrices (entries of shape (k, n)).

    Returns [(entries, sigma, plain), ...] of shape (1, n) in time order;
    the run's product is their product, later factors on the left.  A
    level with an odd count sets its last node aside, so the list holds
    the root followed by those nodes, earliest first.  Nodes hold E =
    P - I until a check level finds an entry of P out of range; from
    there on the tree holds P (plain), because a rescaled product can
    have entries far below 1, which I + E cannot represent.
    """
    sigma = None
    plain = False
    aside = []
    level = 0
    while len(mats[0]) > 1:
        if len(mats[0]) % 2:
            aside.append(([m[-1:] for m in mats],
                          None if sigma is None else sigma[-1:], plain))
            mats = [m[:-1] for m in mats]
            sigma = None if sigma is None else sigma[:-1]
        mats = _combine([m[1::2] for m in mats], [m[0::2] for m in mats],
                        plain)
        if sigma is not None:
            sigma = sigma[1::2] + sigma[0::2]
        level += 1
        if level % _RESCALE_LEVELS == 0:
            if not plain:
                P = [1.0 + mats[0], mats[1], mats[2], 1.0 + mats[3]] + mats[4:]
                if _scale_factor(P) is not None:
                    mats, plain = P, True
            if plain:
                sigma = _rescale(mats, sigma)
    return [(mats, sigma, plain)] + aside[::-1]


def _march(qv, h, lam, state):
    """Carry the state across the mesh of qv by products of step matrices.

    state is [U, dU] or [U, dU, V, dV], each of shape (m, n) for m
    solutions and n lambda values; V, dV are the lambda-derivatives.
    Returns the scaled state and sigma, shape (n,): true values = state *
    e^sigma.
    """
    deriv = len(state) == 4
    steps = _Steps(qv, h, lam, deriv)
    sigma = np.zeros(lam.size)
    block = max(1, _BLOCK_ELEMENTS // lam.size)
    for j0 in range(0, steps.n, block):
        mats = steps.matrices(j0, min(j0 + block, steps.n))
        for node, node_sigma, plain in _tree(mats):
            m00, m01, m10, m11 = (m[0] for m in node[:4])
            U, dU = state[:2]
            new = [m00 * U + m01 * dU, m10 * U + m11 * dU]
            if deriv:
                V, dV = state[2:]
                d00, d01, d10, d11 = (m[0] for m in node[4:])
                new += [d00 * U + d01 * dU + m00 * V + m01 * dV,
                        d10 * U + d11 * dU + m10 * V + m11 * dV]
            if not plain:                 # (I + E) x = x + E x
                for arr, old in zip(new, state):
                    arr += old
            state = new
            if node_sigma is not None:
                sigma += node_sigma[0]
            sigma = _rescale([row for part in state for row in part], sigma)
    return state, sigma


def _solve(p: ReggeProblem, lam, x, rows, nsteps, reflect=False):
    """The one march entry: each solver is an initial state marched to x.

    rows(z) gives, for the flattened lam values z, one tuple (u, du) or
    (u, du, v, dv) per solution at 0, scalars or arrays of z's shape.
    With reflect the march runs on q(a - .) across [0, a - x], from a
    down to x.  Returns the solutions' tuples in lam's shape, and sigma.
    """
    x = p.a if x is None else float(x)
    lo, hi = (-1e-12, p.a) if reflect else (0.0, p.a + 1e-12)
    if not (lo <= x <= hi):
        raise OutOfDomain(f"x = {x} outside [0, {p.a}]")
    lam_b, shape = _as_batch(lam)
    init = rows(lam_b)
    state = np.empty((len(init[0]), len(init), lam_b.size), dtype=complex)
    for i, sol in enumerate(init):
        for c, v in enumerate(sol):
            state[c, i] = v
    sigma = np.zeros(lam_b.size)
    span = p.a - x if reflect else x
    if span > 0.0:
        qv, h = _mesh(p, span, nsteps, reflect)
        state, sigma = _march(qv, h, lam_b, list(state))
    return ([tuple(v.reshape(shape) for v in sol) for sol in zip(*state)],
            sigma.reshape(shape))


def _y_row(p: ReggeProblem, lam):
    """y(0) = 1, y'(0) = beta0 + i alpha0 lam."""
    return (1.0, complex(p.beta0) + 1j * p.alpha0 * lam)


def solve_sc(p: ReggeProblem, lam, x: float | None = None, nsteps: int | None = None):
    """Fundamental system at x: s(0)=0, s'(0)=1 and c(0)=1, c'(0)=beta0.

    Returns (s, s', c, c'), descaled.  lam may be a scalar or an array;
    the outputs follow its shape.
    """
    sols, sigma = _solve(
        p, lam, x, lambda z: [(0.0, 1.0), (1.0, complex(p.beta0))], nsteps)
    scale = np.exp(sigma)
    out = tuple(v * scale for sol in sols for v in sol)
    return tuple(map(complex, out)) if np.ndim(lam) == 0 else out


def solve_y(p: ReggeProblem, lam, x: float | None = None,
            nsteps: int | None = None) -> ScaledState:
    """Left boundary solution y = c + i alpha0 lam s, kept in scaled form.

    y satisfies y(0) = 1, y'(0) = beta0 + i alpha0 lam, so it matches the
    left boundary condition for every lam.
    """
    [(u, du)], sigma = _solve(p, lam, x, lambda z: [_y_row(p, z)], nsteps)
    return ScaledState(u=u, du=du, sigma=sigma)


def solve_phi(p: ReggeProblem, lam, x: float = 0.0,
              nsteps: int | None = None) -> ScaledState:
    """Right boundary solution phi(lam, a) = 1, phi'(lam, a) = -(i alpha lam + beta).

    Integrated from a down to x by solving the reflected problem forward:
    w(tau) = phi(a - tau) has w'(0) = -phi'(a), and phi'(x) = -w'(a - x).
    """
    [(u, du)], sigma = _solve(
        p, lam, x, lambda z: [(1.0, 1j * p.alpha * z + complex(p.beta))],
        nsteps, reflect=True)
    return ScaledState(u=u, du=-du, sigma=sigma)


def solve_y_lambda_derivative(p: ReggeProblem, lam, x: float | None = None,
                              nsteps: int | None = None) -> DerivState:
    """y together with its lambda-derivative; ydot(0) = 0, ydot'(0) = i alpha0."""
    [(u, du, v, dv)], sigma = _solve(
        p, lam, x, lambda z: [_y_row(p, z) + (0.0, 1j * p.alpha0)], nsteps)
    return DerivState(u=u, du=du, sigma=sigma, v=v, dv=dv)


def _prefix(mats):
    """Running products P_j ... P_0 of a run of step matrices, held as
    E = P - I, by a parallel prefix scan."""
    span = 1
    while span < len(mats[0]):
        head = [m[:span] for m in mats]
        tail = _combine([m[span:] for m in mats], [m[:-span] for m in mats])
        mats = [np.concatenate(pair) for pair in zip(head, tail)]
        span *= 2
    return mats


def solve_y_trajectory(p: ReggeProblem, lam, nsteps: int | None = None):
    """y at every mesh node of [0, a], descaled.

    The running products of the step matrices are formed block by block
    with a parallel prefix scan, without rescaling.  Intended for
    quadrature of int_0^a y^2 dx on the integration mesh; callers should
    keep |Im lam| moderate so the descaled values fit in double precision.
    """
    lam_b, shape = _as_batch(lam)
    n = lam_b.size
    steps = _Steps(*_mesh(p, p.a, nsteps), lam_b)
    m = steps.n
    traj = np.empty((m + 1, n), dtype=complex)
    traj[0], du = _y_row(p, lam_b)
    u = traj[0]
    block = max(1, _BLOCK_ELEMENTS // n)
    for j0 in range(0, m, block):
        j1 = min(j0 + block, m)
        e00, e01, e10, e11 = _prefix(steps.matrices(j0, j1))
        traj[j0 + 1:j1 + 1] = u + e00 * u + e01 * du
        u, du = traj[j1], du + e10[-1] * u + e11[-1] * du
    xs = np.linspace(0.0, p.a, m + 1)
    return xs, traj.reshape((m + 1,) + shape), np.zeros(n).reshape(shape)


# ---- transformation kernel ------------------------------------------------

@dataclass
class KernelGrid:
    """Transformation kernel K on the triangle |t| <= x <= a.

    Stored in characteristic coordinates H(u, v) = K(u + v, u - v) on the
    triangle u, v >= 0, u + v <= a, where the defining integral equation
    becomes a rectangular double Volterra equation solved by Picard
    iteration.
    """

    a: float
    mesh: np.ndarray          # (n+1,) nodes on [0, a]
    H: np.ndarray             # (n+1, n+1), valid where u + v <= a
    iterations: int
    last_update: float

    def _interp_H(self, uu, vv):
        h = self.mesh[1] - self.mesh[0]
        n = len(self.mesh) - 1
        iu = np.clip((uu / h).astype(int), 0, n - 1)
        iv = np.clip((vv / h).astype(int), 0, n - 1)
        fu = uu / h - iu
        fv = vv / h - iv
        H = self.H
        return ((1 - fu) * (1 - fv) * H[iu, iv] + fu * (1 - fv) * H[iu + 1, iv]
                + (1 - fu) * fv * H[iu, iv + 1] + fu * fv * H[iu + 1, iv + 1])

    def K(self, x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        eps = 1e-9 * max(1.0, self.a)
        if np.any(np.abs(t) > x + eps) or np.any(x > self.a + eps):
            raise OutOfDomain("kernel requested outside |t| <= x <= a")
        u = np.clip((x + t) / 2.0, 0.0, self.a)
        v = np.clip((x - t) / 2.0, 0.0, self.a)
        out = self._interp_H(u, v)
        return complex(out) if out.shape == () else out

    def K_odd(self, x, t):
        """K1(x, t) = K(x, t) - K(x, -t)."""
        return self.K(x, t) - self.K(x, np.asarray(t) * -1.0)

    def diagonal_residual(self, q: Potential) -> float:
        """sup over mesh of |K(x, x) - (1/2) int_0^x q|."""
        half_q = 0.5 * q.prefix_integral(self.mesh)
        return float(np.max(np.abs(self.H[:, 0] - half_q)))


def _cum_trapezoid_2d(F: np.ndarray, h: float) -> np.ndarray:
    """Cumulative double trapezoid: out[i, j] = int_0^{u_i} int_0^{v_j} F."""
    mid0 = 0.5 * (F[1:, :] + F[:-1, :]) * h
    G = np.zeros_like(F)
    G[1:, :] = np.cumsum(mid0, axis=0)
    mid1 = 0.5 * (G[:, 1:] + G[:, :-1]) * h
    out = np.zeros_like(F)
    out[:, 1:] = np.cumsum(mid1, axis=1)
    return out


_KERNEL_TOL = 1e-12
_KERNEL_MAX_ITER = 80


def kernel_K(p: ReggeProblem, mesh_n: int = 256) -> KernelGrid:
    """Solve the kernel integral equation by Picard iteration.

    mesh_n is the number of intervals per axis (>= 16).  Iteration stops
    when the sup-norm update falls below _KERNEL_TOL; the Volterra
    structure makes the iteration contract factorially fast.
    """
    if mesh_n < 16:
        raise ValidationError("kernel mesh needs at least 16 intervals per axis")
    n = int(mesh_n)
    h = p.a / n
    mesh = np.linspace(0.0, p.a, n + 1)
    q = p.potential
    half_q = (0.5 * q.prefix_integral(mesh))[:, None]  # H0 depends on u only

    # q(s + w) on the (s, w) grid, zero outside s + w <= a (never used there)
    S = mesh[:, None] + mesh[None, :]
    mask = S <= p.a + 1e-12
    q_sum = np.zeros((n + 1, n + 1), dtype=complex)
    q_sum[mask] = q(np.clip(S[mask], 0.0, p.a))

    H = np.broadcast_to(half_q, (n + 1, n + 1)).copy()
    update = np.inf
    for it in range(1, _KERNEL_MAX_ITER + 1):
        H_new = half_q + _cum_trapezoid_2d(q_sum * H, h)
        update = float(np.max(np.abs((H_new - H)[mask])))
        H = H_new
        if update <= _KERNEL_TOL:
            return KernelGrid(a=p.a, mesh=mesh, H=H, iterations=it,
                              last_update=update)
    raise NoConvergence(
        f"kernel Picard iteration: update {update:.3e} > tol "
        f"{_KERNEL_TOL:.3e} after {_KERNEL_MAX_ITER} iterations")


def _sin_over_lam(lam, t):
    """sin(lam t)/lam with the t limit at lam = 0, broadcasting."""
    z = lam * t
    small = np.abs(z) < 1e-8
    val = np.where(small, t * (1.0 - z * z / 6.0),
                   np.sin(np.where(small, 1.0, z)) / np.where(small, 1.0, lam))
    return val


def transform_rep_s(kernel: KernelGrid, lam, x: float):
    """s(lam, x) through the kernel representation.

    s(lam, x) = sin(lam x)/lam + int_0^x K1(x, t) sin(lam t)/lam dt,
    evaluated by composite Simpson on a mesh-resolution grid.
    """
    x = float(x)
    if not (0.0 <= x <= kernel.a + 1e-12):
        raise OutOfDomain(f"x = {x} outside [0, {kernel.a}]")
    lam_b, shape = _as_batch(lam)
    h_mesh = kernel.mesh[1] - kernel.mesh[0]
    m = max(4, 2 * int(np.ceil(x / h_mesh / 2)))
    ts = np.linspace(0.0, x, m + 1)
    k1 = kernel.K_odd(np.full(m + 1, x), ts)           # (m+1,)
    vals = _sin_over_lam(lam_b[None, :], ts[:, None])  # (m+1, n)
    integrand = k1[:, None] * vals
    w = np.ones(m + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    integral = (x / m / 3.0) * np.tensordot(w, integrand, axes=(0, 0))
    out = (_sin_over_lam(lam_b, x) + integral).reshape(shape)
    return complex(out) if np.ndim(lam) == 0 else out
