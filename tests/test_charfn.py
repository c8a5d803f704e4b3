"""Characteristic function oracles and the algebraic identities."""

import math

import numpy as np

from reggespec import (
    Sign,
    delta,
    delta_dot,
    delta_zero,
    delta_zero_dot,
    energy_identity_residual,
    identity_residual,
    robin_charfn,
    robin_dot,
    wronskian_delta,
)
from reggespec.charfn import energy_terms

from conftest import closed_form_problem, even_zero_problem, grid_problem


def test_documented_point_values():
    """Hand-computed values for the two zero-potential examples."""
    p = closed_form_problem()
    lam = np.array([math.pi / 2])
    assert abs(delta_zero(p, lam)[0] - 2j) < 1e-12
    assert abs(robin_charfn(p, lam)[0] - (-math.pi / 2)) < 1e-12

    e = even_zero_problem()
    pi = math.pi
    assert abs(delta(e, Sign.MINUS, np.array([0.0]))[0] - 3.0) < 1e-12
    assert abs(delta(e, Sign.MINUS, np.array([pi]))[0] - (-2.0)) < 1e-11
    assert abs(delta(e, Sign.PLUS, np.array([pi]))[0]
               - (-2.0 - 4j * pi)) < 1e-11
    assert abs(robin_charfn(e, np.array([pi]))[0]
               - (-2.0 - 2j * pi)) < 1e-11
    assert abs(delta_zero(e, np.array([pi]))[0] - (-1.0)) < 1e-12


def test_plus_counting_function_closed_form():
    """Delta_plus = -(1 + a a0) lam sin lam + i (a0 + a) lam cos lam
    for the zero-potential, beta0 = beta = 0 problem."""
    p = closed_form_problem()
    lam = np.array([0.7, 2.0 + 0.5j, -3.1 - 0.2j, math.pi / 2])
    ex = -7.0 * lam * np.sin(lam) + 5j * lam * np.cos(lam)
    got = delta(p, Sign.PLUS, lam)
    assert np.abs(got - ex).max() < 1e-10


def test_quadratic_identity_residual_small():
    p = grid_problem(2, complex_q=True)
    rng = np.random.default_rng(0)
    lam = 12.0 * np.sqrt(rng.uniform(0, 1, 50)) * np.exp(
        2j * math.pi * rng.uniform(0, 1, 50))
    res = np.abs(identity_residual(p, lam))
    quad = np.abs(4.0 * p.alpha * p.alpha0 * lam ** 2)
    # the natural scale includes the products: both sides of the
    # identity grow like exp(2 |Im lam| a) while the difference stays
    # at integration accuracy relative to that size
    pp = np.abs(delta(p, Sign.PLUS, lam) * delta(p, Sign.PLUS, -lam))
    pm = np.abs(delta(p, Sign.MINUS, lam) * delta(p, Sign.MINUS, -lam))
    scale = np.maximum(1.0, np.maximum(quad, np.maximum(pp, pm)))
    assert (res / scale).max() < 1e-9


def test_identity_with_alpha0_zero():
    p = grid_problem(3, alpha0=0.0)
    lam = np.array([1.0, 5.0 + 1.0j, -8.0 + 2.0j])
    # at alpha0 = 0 the right side degenerates to zero
    res = np.abs(identity_residual(p, lam))
    assert res.max() < 1e-8


def test_sign_difference_is_interior_function():
    """Delta_plus - Delta_minus = 2 i alpha lam Delta_0."""
    p = grid_problem(4, complex_q=True)
    lam = np.array([0.9, -2.0 + 1.5j, 6.0 - 0.7j])
    lhs = delta(p, Sign.PLUS, lam) - delta(p, Sign.MINUS, lam)
    rhs = 2j * p.alpha * lam * delta_zero(p, lam)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_robin_is_the_average():
    p = grid_problem(5)
    lam = np.array([1.0 + 0.2j, -4.0])
    avg = 0.5 * (delta(p, Sign.PLUS, lam) + delta(p, Sign.MINUS, lam))
    assert np.abs(robin_charfn(p, lam) - avg).max() < 1e-12


def test_robin_dot_is_the_average_derivative():
    """One derivative march gives (Ddot_+ + Ddot_-)/2."""
    p = grid_problem(5, complex_q=True)
    lam = np.array([1.0 + 0.2j, -4.0, 12.5 - 3.0j, 0.0])
    avg = 0.5 * (delta_dot(p, Sign.PLUS, lam) + delta_dot(p, Sign.MINUS, lam))
    assert np.all(np.abs(robin_dot(p, lam) - avg) <= 1e-14 * np.abs(avg))


def test_energy_identity_documented_value():
    """2 lam int_0^1 y^2 = -3 pi/2 + 4i at lam = pi/2 for the
    zero-potential alpha0=2, alpha=3, beta0=beta=0 problem."""
    p = closed_form_problem()
    lam = np.array([math.pi / 2])
    res = energy_identity_residual(p, lam)[0]
    assert abs(res) < 1e-9
    rhs = (delta(p, Sign.PLUS, lam)[0] * delta_zero_dot(p, lam)[0]
           - delta_dot(p, Sign.PLUS, lam)[0] * delta_zero(p, lam)[0]
           + 1j * p.alpha * delta_zero(p, lam)[0] ** 2 + 1j * p.alpha0)
    assert abs(rhs - (-1.5 * math.pi + 4j)) < 1e-9


def test_energy_identity_random_grid_potential():
    p = grid_problem(6)
    rng = np.random.default_rng(1)
    lam = 8.0 * np.sqrt(rng.uniform(0, 1, 20)) * np.exp(
        2j * math.pi * rng.uniform(0, 1, 20))
    res = np.abs(energy_identity_residual(p, lam))
    # scale by the boundary-term sizes; they grow exponentially in Im lam
    t1 = np.abs(delta(p, Sign.PLUS, lam) * delta_zero_dot(p, lam))
    t2 = np.abs(delta_dot(p, Sign.PLUS, lam) * delta_zero(p, lam))
    t3 = np.abs(p.alpha * delta_zero(p, lam) ** 2)
    scale = np.maximum(1.0, np.maximum(t1, np.maximum(t2, t3)))
    assert (res / scale).max() < 1e-8


def test_energy_terms_from_one_state():
    """The five terms reproduce the residual exactly and match the
    boundary values computed by the separate evaluators."""
    p = grid_problem(6)
    rng = np.random.default_rng(2)
    lam = rng.uniform(-8, 8, 12) + 1j * rng.uniform(-3, 3, 12)
    lhs, t1, t2, t3, t4 = energy_terms(p, lam)
    res = energy_identity_residual(p, lam)
    assert np.array_equal(t1 + t2 + t3 + t4 - lhs, res)
    d0 = delta_zero(p, lam)
    for got, want in ((t1, delta(p, Sign.PLUS, lam) * delta_zero_dot(p, lam)),
                      (t2, -delta_dot(p, Sign.PLUS, lam) * d0),
                      (t3, 1j * p.alpha * d0 ** 2),
                      (t4, np.full(lam.shape, 1j * p.alpha0))):
        assert got.shape == lam.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    scalar = energy_terms(p, complex(lam[0]))
    assert np.allclose(scalar, [lhs[0], t1[0], t2[0], t3[0], t4[0]],
                       rtol=1e-13, atol=0)


def test_wronskian_route_is_x_independent():
    p = grid_problem(7, complex_q=True)
    lam = np.array([2.0 + 0.8j])
    ref = delta(p, Sign.PLUS, lam)[0]
    for x in (0.15, 0.5, 0.85):
        w = wronskian_delta(p, Sign.PLUS, lam, x)[0]
        assert abs(w - ref) < 1e-10 * max(1.0, abs(ref))


def test_delta_dot_matches_difference_quotient():
    p = grid_problem(8)
    lam = np.array([1.3 - 0.4j])
    h = 1e-6
    fd = (delta(p, Sign.MINUS, lam + h) - delta(p, Sign.MINUS, lam - h)) \
        / (2.0 * h)
    assert abs(delta_dot(p, Sign.MINUS, lam)[0] - fd[0]) < 1e-6
