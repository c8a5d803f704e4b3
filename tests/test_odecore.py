"""Integrator oracles: constant-potential closed forms, scaling, kernel."""

import math

import numpy as np
import pytest

from reggespec import (
    DEFAULT_STEPS,
    OutOfDomain,
    Potential,
    ReggeProblem,
    ValidationError,
    kernel_K,
    solve_phi,
    solve_sc,
    solve_y,
    solve_y_lambda_derivative,
    solve_y_trajectory,
    transform_rep_s,
)


def _const_problem(c, a=1.0, alpha0=2.0, beta0=0.7, alpha=1.5, beta=-0.3):
    return ReggeProblem(a=a, alpha0=alpha0, beta0=beta0, alpha=alpha,
                        beta=beta, potential=Potential.constant(c, a))


def _omega(lam, c):
    return np.sqrt(lam.astype(complex) ** 2 - c)


def _sin_over(w, x):
    # sin(wx)/w with the w -> 0 limit
    w = np.asarray(w, dtype=complex)
    out = np.empty(w.shape, dtype=complex)
    small = np.abs(w) < 1e-8
    out[~small] = np.sin(w[~small] * x) / w[~small]
    out[small] = x * (1.0 - (w[small] * x) ** 2 / 6.0)
    return out


def _lam_grid(rmax=20.0, imax=5.0):
    res = np.linspace(-rmax, rmax, 17)
    ims = np.linspace(-imax, imax, 5)
    lam = (res[:, None] + 1j * ims[None, :]).reshape(-1)
    return lam[np.abs(lam) <= rmax]


def test_constant_potential_closed_forms():
    """s, c, y, phi against the sqrt(lam^2 - c) trigonometric forms.

    The acceptance tolerance is 1e-8 absolute over |lam| <= 20,
    |Im lam| <= 5; at that height the states reach ~e^5, so the mesh
    is doubled twice beyond the default to buy the headroom.
    """
    for c in (1.0, 0.7 - 0.4j):
        p = _const_problem(c)
        lam = _lam_grid()
        w = _omega(lam, c)
        for x in (0.35, 1.0):
            s_ex = _sin_over(w, x)
            ds_ex = np.cos(w * x)
            c_ex = np.cos(w * x) + p.beta0 * _sin_over(w, x)
            dc_ex = -w * np.sin(w * x) + p.beta0 * np.cos(w * x)
            s, ds, cc, dc = solve_sc(p, lam, x=x, nsteps=16384)
            assert np.abs(s - s_ex).max() < 1e-8
            assert np.abs(ds - ds_ex).max() < 1e-8
            assert np.abs(cc - c_ex).max() < 1e-8
            assert np.abs(dc - dc_ex).max() < 1e-8

            coef = p.beta0 + 1j * p.alpha0 * lam
            y_ex = np.cos(w * x) + coef * _sin_over(w, x)
            st = solve_y(p, lam, x=x, nsteps=16384)
            assert np.abs(st.value - y_ex).max() < 1e-8

        span = p.a - 0.35
        phi_ex = (np.cos(w * span)
                  + (1j * p.alpha * lam + p.beta) * _sin_over(w, span))
        ph = solve_phi(p, lam, x=0.35, nsteps=16384)
        assert np.abs(ph.value - phi_ex).max() < 1e-8


def test_solve_y_is_c_plus_coef_s():
    p = _const_problem(0.9 + 0.2j)
    lam = np.array([0.5, 3.0 + 1.2j, -7.0 - 0.4j])
    s, ds, c, dc = solve_sc(p, lam)
    st = solve_y(p, lam)
    coef = 1j * p.alpha0 * lam  # c already carries beta0
    assert np.abs(st.value - (c + coef * s)).max() < 1e-10
    assert np.abs(st.derivative - (dc + coef * ds)).max() < 1e-10


def test_phi_right_boundary_values():
    p = _const_problem(0.4)
    lam = np.array([1.0 + 0.5j, -4.0])
    ph = solve_phi(p, lam, x=p.a)
    assert np.abs(ph.value - 1.0).max() < 1e-12
    assert np.abs(ph.derivative + (1j * p.alpha * lam + p.beta)).max() < 1e-12


def test_scaled_state_handles_large_imaginary_lambda():
    """At Im lam = 40 the raw solution is ~e^40; sigma absorbs it."""
    p = _const_problem(1.0)
    lam = np.array([3.0 + 40.0j])
    st = solve_y(p, lam)
    assert np.all(np.isfinite(st.u)) and np.all(np.isfinite(st.du))
    assert st.sigma[0] > 30.0
    w = _omega(lam, 1.0)
    coef = p.beta0 + 1j * p.alpha0 * lam
    y_ex = np.cos(w * 1.0) + coef * _sin_over(w, 1.0)
    rel = abs(st.value[0] - y_ex[0]) / abs(y_ex[0])
    assert rel < 1e-8


def test_lambda_derivative_matches_central_difference():
    p = _const_problem(0.6 - 0.1j)
    lam = np.array([2.0 + 0.7j, -5.5 + 0.1j])
    h = 1e-5
    st = solve_y_lambda_derivative(p, lam)
    up = solve_y(p, lam + h)
    dn = solve_y(p, lam - h)
    fd = (up.value - dn.value) / (2.0 * h)
    fdp = (up.derivative - dn.derivative) / (2.0 * h)
    assert np.abs(st.v * np.exp(st.sigma) - fd).max() < 1e-7
    assert np.abs(st.dv * np.exp(st.sigma) - fdp).max() < 1e-7


def test_trajectory_endpoint_agrees_with_solve_y():
    p = _const_problem(1.0)
    lam = np.array([1.5 + 0.3j])
    xs, traj, _ = solve_y_trajectory(p, lam)
    assert len(xs) == DEFAULT_STEPS + 1
    st = solve_y(p, lam)
    assert abs(traj[-1, 0] - st.value[0]) < 1e-10


def test_interior_evaluation_and_domain_guard():
    p = _const_problem(1.0)
    with pytest.raises(OutOfDomain):
        solve_y(p, np.array([1.0]), x=1.5)
    with pytest.raises(OutOfDomain):
        solve_phi(p, np.array([1.0]), x=-0.5)


def test_kernel_diagonal_constant_and_grid():
    """K(x, x) = (1/2) int_0^x q on every diagonal mesh point."""
    pc = ReggeProblem(a=1.0, alpha0=2.0, beta0=0.0, alpha=1.0, beta=0.0,
                      potential=Potential.constant(1.0, 1.0))
    xs = np.linspace(0.0, 1.0, 129)
    pg = ReggeProblem(a=1.0, alpha0=2.0, beta0=0.0, alpha=1.0, beta=0.0,
                      potential=Potential.grid(xs, 1.0, "linear"))
    for p in (pc, pg):
        ker = kernel_K(p, mesh_n=128)
        assert ker.diagonal_residual(p.potential) < 1e-6


def test_transform_rep_matches_direct_s():
    p = _const_problem(1.0, beta0=0.0)
    ker = kernel_K(p, mesh_n=256)
    lam = np.array([1.0, 4.0 + 0.5j, 9.0])
    for x in (0.5, 1.0):
        via_k = transform_rep_s(ker, lam, x)
        s, _, _, _ = solve_sc(p, lam, x=x)
        # kernel mesh h^2 error dominates the combined tolerance
        assert np.abs(via_k - s).max() < 1e-4


def test_kernel_mesh_floor():
    p = _const_problem(1.0)
    with pytest.raises(ValidationError):
        kernel_K(p, mesh_n=8)


# ---- reference marcher ------------------------------------------------------
#
# The step loops below are the classical RK4 marcher, one Python iteration
# per step with the state rescaled every 16 steps.  The library builds the
# same RK4 step as a 2x2 matrix and multiplies the matrices by tree
# products, so both must agree to rounding.

def _loop_rescale(arrays, sigma):
    mag = np.abs(arrays[0])
    for arr in arrays[1:]:
        mag = np.maximum(mag, np.abs(arr))
    while mag.ndim > sigma.ndim:
        mag = mag.max(axis=0)
    need = (mag > 1e8) | ((mag < 1e-8) & (mag > 0.0))
    if np.any(need):
        factor = np.where(need, mag, 1.0)
        for arr in arrays:
            arr /= factor
        sigma += np.log(factor)


def _loop_linear(qv, h, lam2, U, dU, sigma, rescale=True):
    """March U'' = (q - lam^2) U; U, dU have shape (m, n)."""
    for j in range((len(qv) - 1) // 2):
        w0 = qv[2 * j] - lam2
        wm = qv[2 * j + 1] - lam2
        w1 = qv[2 * j + 2] - lam2
        k1u = dU
        k1d = w0 * U
        u2 = U + (0.5 * h) * k1u
        k2u = dU + (0.5 * h) * k1d
        k2d = wm * u2
        u3 = U + (0.5 * h) * k2u
        k3u = dU + (0.5 * h) * k2d
        k3d = wm * u3
        u4 = U + h * k3u
        k4u = dU + h * k3d
        k4d = w1 * u4
        U = U + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        dU = dU + (h / 6.0) * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        if rescale and j % 16 == 15:
            _loop_rescale([U, dU], sigma)
    return U, dU, sigma


def _loop_deriv(qv, h, lam, u, du, v, dv, sigma):
    """March u and its lambda-derivative v; v'' = (q - lam^2) v - 2 lam u."""
    lam2 = lam ** 2
    two_lam = 2.0 * lam
    for j in range((len(qv) - 1) // 2):
        w0 = qv[2 * j] - lam2
        wm = qv[2 * j + 1] - lam2
        w1 = qv[2 * j + 2] - lam2
        k1u, k1d = du, w0 * u
        k1v, k1e = dv, w0 * v - two_lam * u
        u2 = u + (0.5 * h) * k1u
        v2 = v + (0.5 * h) * k1v
        k2u = du + (0.5 * h) * k1d
        k2d = wm * u2
        k2v = dv + (0.5 * h) * k1e
        k2e = wm * v2 - two_lam * u2
        u3 = u + (0.5 * h) * k2u
        v3 = v + (0.5 * h) * k2v
        k3u = du + (0.5 * h) * k2d
        k3d = wm * u3
        k3v = dv + (0.5 * h) * k2e
        k3e = wm * v3 - two_lam * u3
        u4 = u + h * k3u
        v4 = v + h * k3v
        k4u = du + h * k3d
        k4d = w1 * u4
        k4v = dv + h * k3e
        k4e = w1 * v4 - two_lam * u4
        u = u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        du = du + (h / 6.0) * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        dv = dv + (h / 6.0) * (k1e + 2.0 * k2e + 2.0 * k3e + k4e)
        if j % 16 == 15:
            _loop_rescale([u, du, v, dv], sigma)
    return u, du, v, dv, sigma


def _mesh(q, x0, x1, m):
    return q(np.linspace(x0, x1, 2 * m + 1)), (x1 - x0) / m


def _agree(got, want, got_sigma, want_sigma, rtol=1e-12):
    """Scaled states agree, relative to each lambda's largest component.

    got and want are lists of mantissas sharing got_sigma and want_sigma;
    got is brought onto want's scale first, so values that would
    overflow when descaled compare as well as ordinary ones.
    """
    shift = np.exp(np.asarray(got_sigma) - np.asarray(want_sigma))
    scale = np.max([np.abs(w) for w in want], axis=0)
    for g, w in zip(got, want):
        err = np.abs(np.asarray(g) * shift - w) / scale
        assert err.max() <= rtol, err.max()


def _oracle_lams(n, seed):
    """n lambda values; Im lam up to 40, so states are rescaled."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(-60.0, 60.0, n) + 1j * rng.uniform(-40.0, 40.0, n)
    lam[0] = 7.0 + 40.0j
    return lam


def _grid_q(complex_q):
    rng = np.random.default_rng(11)
    q = rng.uniform(-1.0, 1.0, 33)
    if complex_q:
        q = q + 1j * rng.uniform(-1.0, 1.0, 33)
    return ReggeProblem(a=1.0, alpha0=2.0, beta0=0.4, alpha=1.5, beta=-0.8,
                        potential=Potential.grid(q, 1.0, "cubic"))


ODD_X = 0.3679      # 189 steps of 512, 1507 of 4096


def _loop_y(p, lam, x, nsteps):
    n = lam.size
    qv, h = _mesh(p.potential, 0.0, x, max(8, math.ceil(nsteps * x)))
    return _loop_linear(qv, h, lam ** 2, np.ones((1, n), complex),
                        (p.beta0 + 1j * p.alpha0 * lam).reshape(1, n),
                        np.zeros(n))


@pytest.mark.parametrize("complex_q", [False, True])
@pytest.mark.parametrize("nsteps", [512, 4096])
def test_marcher_matches_step_loop(complex_q, nsteps):
    """solve_y, solve_phi, solve_sc and the lambda-derivative against the
    step loop, at batches 1, 7 and 300, on [0, a] and on [0, ODD_X]
    (an odd number of steps)."""
    p = _grid_q(complex_q)
    for n in (1, 7, 300):
        lam = _oracle_lams(n, seed=n)
        for x in (1.0, ODD_X):
            m = max(8, math.ceil(nsteps * x))
            assert x == 1.0 or m % 2 == 1
            u, du, sig = _loop_y(p, lam, x, nsteps)
            st = solve_y(p, lam, x=x, nsteps=nsteps)
            _agree([st.u, st.du], [u[0], du[0]], st.sigma, sig)

            qv, h = _mesh(p.potential, 0.0, x, m)
            u, du, v, dv, sig = _loop_deriv(
                qv, h, lam, np.ones(n, complex), p.beta0 + 1j * p.alpha0 * lam,
                np.zeros(n, complex), np.full(n, 1j * p.alpha0), np.zeros(n))
            dst = solve_y_lambda_derivative(p, lam, x=x, nsteps=nsteps)
            _agree([dst.u, dst.du, dst.v, dst.dv], [u, du, v, dv],
                   dst.sigma, sig)

            # phi from a down to a - x, through the reflected potential
            qv, h = _mesh(p.potential.reflect(), 0.0, x, m)
            u, du, sig = _loop_linear(
                qv, h, lam ** 2, np.ones((1, n), complex),
                (1j * p.alpha * lam + p.beta).reshape(1, n), np.zeros(n))
            ph = solve_phi(p, lam, x=1.0 - x, nsteps=nsteps)
            _agree([ph.u, -ph.du], [u[0], du[0]], ph.sigma, sig)

        # the fundamental system is descaled; Im lam <= 20 keeps it finite
        lam_sc = lam.real + 0.5j * lam.imag
        qv, h = _mesh(p.potential, 0.0, ODD_X, max(8, math.ceil(nsteps * ODD_X)))
        U = np.array([np.zeros(n), np.ones(n)], complex)
        dU = np.array([np.ones(n), np.full(n, p.beta0)], complex)
        U, dU, sig = _loop_linear(qv, h, lam_sc ** 2, U, dU, np.zeros(n))
        got = solve_sc(p, lam_sc, x=ODD_X, nsteps=nsteps)
        scale = np.exp(sig)
        _agree(got, [U[0] * scale, dU[0] * scale, U[1] * scale, dU[1] * scale],
               0.0, 0.0)


@pytest.mark.parametrize("complex_q", [False, True])
def test_trajectory_matches_step_loop(complex_q):
    """Every node of the trajectory against one-step loop calls."""
    p = _grid_q(complex_q)
    for n, nsteps in ((1, 4096), (7, 512), (300, 512)):
        lam = _oracle_lams(n, seed=n)
        qv, h = _mesh(p.potential, 0.0, 1.0, nsteps)
        U = np.ones((1, n), complex)
        dU = (p.beta0 + 1j * p.alpha0 * lam).reshape(1, n)
        want = [U[0]]
        for j in range(nsteps):
            U, dU, _ = _loop_linear(qv[2 * j:2 * j + 3], h, lam ** 2, U, dU,
                                    np.zeros(n), rescale=False)
            want.append(U[0])
        xs, traj, sigma = solve_y_trajectory(p, lam, nsteps=nsteps)
        assert np.all(sigma == 0.0)
        want = np.array(want)
        scale = np.abs(want).max(axis=0)
        assert (np.abs(traj - want) / scale).max() <= 1e-12


def test_marcher_scale_exponent_beyond_double_range():
    """At Im lam = 800 the solution is ~e^800; mantissa and sigma still
    agree with the step loop in log-magnitude and phase."""
    p = _grid_q(True)
    lam = np.array([5.0 + 800.0j, -3.0 - 800.0j])
    qv, h = _mesh(p.potential, 0.0, 1.0, 4096)
    u, du, sig = _loop_linear(qv, h, lam ** 2, np.ones((1, 2), complex),
                              (p.beta0 + 1j * p.alpha0 * lam).reshape(1, 2),
                              np.zeros(2))
    st = solve_y(p, lam)
    assert np.all(np.isfinite(st.u)) and np.all(st.sigma > 700.0)
    with np.errstate(over="ignore"):
        assert np.all(np.isinf(st.value))
    for got, want in ((st.u, u[0]), (st.du, du[0])):
        logmag = np.log(np.abs(got)) + st.sigma
        assert np.abs(logmag - (np.log(np.abs(want)) + sig)).max() < 1e-12 * 800
        assert np.abs(np.angle(got / want)).max() < 1e-10


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="needs an extended-precision long double")
def test_marcher_rounding_stays_at_step_loop_level():
    """Against the step loop run in extended precision, the marcher's
    rounding error stays at the double-precision loop's level (a few
    1e-15 at 4096 steps), on a constant potential where every step
    matrix rounds the same way."""
    p = _const_problem(0.3, alpha0=2.0, beta0=0.4, alpha=1.5, beta=-0.8)
    lam = np.array([3.0 + 0.5j, 10.0 + 2.0j, 14.0 - 5.0j, 40.0 + 1.0j])
    qv, h = _mesh(p.potential, 0.0, 1.0, 4096)
    ext = np.clongdouble
    y0 = (p.beta0 + 1j * p.alpha0 * lam).reshape(1, -1)
    u, du, _ = _loop_linear(qv.astype(ext), h, (lam ** 2).astype(ext),
                            np.ones((1, lam.size), ext), y0.astype(ext),
                            np.zeros(lam.size), rescale=False)
    st = solve_y(p, lam, nsteps=4096)
    scale = np.maximum(np.abs(u[0]), np.abs(du[0]))
    err = np.maximum(np.abs(st.value - u[0]), np.abs(st.derivative - du[0]))
    assert (err / scale).astype(float).max() < 3e-14
