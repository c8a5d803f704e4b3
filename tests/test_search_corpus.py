"""Every zero search returns the winding count of its region.

The reference count is the argument principle on the full 4096-step
mesh (Delves and Lyness, Math. Comp. 21, 1967): the multiplicities a
search returns must add up to it.  The random set runs with
`pytest -m corpus`.
"""

import math
from functools import partial

import numpy as np
import pytest

from reggespec import Potential, ReggeProblem
from reggespec.asympt import asymptotic_model
from reggespec.charfn import delta, delta_zero, delta_zero_dot
from reggespec.cli import _auto_rect
from reggespec.model import Sign
from reggespec.roots import (Rectangle, compute_spectrum, find_zeros,
                             robin_zeros, winding_count)

from conftest import grid_problem, worked_problem

REFERENCE_STEPS = 4096


def _count(spec) -> int:
    return sum(e.multiplicity for e in spec.entries)


def _reference(p, sign, rect) -> int:
    return winding_count(partial(delta, p, sign, nsteps=REFERENCE_STEPS), rect)


@pytest.mark.parametrize("sign", [Sign.PLUS, Sign.MINUS],
                         ids=["plus", "minus"])
@pytest.mark.parametrize("complex_q", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("seed", range(4))
def test_kmax_region_count(seed, complex_q, sign):
    """The `spectrum --kmax 5` region of grid_problem(seed)."""
    p = grid_problem(seed, complex_q=complex_q)
    rect = _auto_rect(p, asymptotic_model(p), sign, 5)
    spec = compute_spectrum(p, sign, rect)
    assert _count(spec) == _reference(p, sign, rect) == 12


def test_asymmetric_overlay_count():
    p = worked_problem()
    rect = Rectangle(-20.0, 5.0, -1.5, 1.5)
    spec = compute_spectrum(p, Sign.PLUS, rect)
    assert _count(spec) == _reference(p, Sign.PLUS, rect) == 8


def test_two_spectra_count():
    p = worked_problem()
    rect = Rectangle(-7.0, 7.0, -1.0, 2.0)
    for averaged in (False, True):
        zs = robin_zeros(p, rect, averaged=averaged)
        assert sum(m for _, m, _ in zs) == 5


def test_even_interior_count():
    """The interior search of criterion 08 and demo 06."""
    x = np.linspace(0.0, 1.0, 129)
    for pot in (Potential.constant(0.5, 1.0),
                Potential.grid(np.cos(2.0 * math.pi * x), 1.0, "cubic")):
        p = ReggeProblem(a=1.0, alpha0=2.0, beta0=1.0, alpha=2.0, beta=1.0,
                         potential=pot, real_data=True)
        zs = find_zeros(lambda z: delta_zero(p, z),
                        lambda z: delta_zero_dot(p, z),
                        Rectangle(-12.0, 12.0, -1.5, 1.5))
        assert sum(m for _, m, _ in zs) == 7


def test_lattice_row_window_count():
    """A zero on the first cut of a window centred on the `+` lattice
    row: the cut moves, and the zero is counted once."""
    p = ReggeProblem(a=1.0, alpha0=2.0, beta0=0.4, alpha=1.5, beta=-0.8,
                     potential=Potential.zero(1.0), real_data=True)
    row = 1.3540251005511053
    rect = Rectangle(100.0, 120.0, row - 1.5, row + 1.5)
    spec = compute_spectrum(p, Sign.PLUS, rect)
    assert _count(spec) == _reference(p, Sign.PLUS, rect) == 7


def test_near_double_pair_separates():
    """Two zeros about 8e-5 apart, near the double zero at lam* of
    q = 0, alpha0 = 2, beta0 = 0, alpha = 3 (ROADMAP S)."""
    p = ReggeProblem(a=1.0, alpha0=2.0, beta0=0.0, alpha=3.0,
                     beta=3.71987217 - 4.37196771j,
                     potential=Potential.zero(1.0))
    star = 2.37982553 + 1.36910428j
    rect = Rectangle(star.real - 2.3, star.real + 1.7,
                     star.imag - 1.1, star.imag + 0.9)
    spec = compute_spectrum(p, Sign.PLUS, rect)
    assert len(spec.entries) == _reference(p, Sign.PLUS, rect) == 3
    lam = spec.lambdas()
    gaps = [abs(u - v) for i, u in enumerate(lam) for v in lam[i + 1:]]
    assert 1e-5 < min(gaps) < 1e-3


def _random_case(rng, i: int):
    """Problem i of the random set, drawn in a fixed order: a; q on 17
    cubic nodes (odd i complex, even i real with real_data); alpha0,
    beta0, alpha, beta; the sign; the region's real range, then its
    imaginary range."""
    a = rng.uniform(0.5, 2.0)
    q = rng.uniform(-3.0, 3.0, 17)
    if i % 2:
        q = q + 1j * rng.uniform(-3.0, 3.0, 17)
    alpha0 = rng.uniform(0.0, 3.0)
    beta0 = rng.uniform(-2.0, 2.0)
    alpha = rng.uniform(0.2, 3.0)
    beta = rng.uniform(-3.0, 3.0)
    sign = Sign.PLUS if rng.uniform() < 0.5 else Sign.MINUS
    x0 = rng.uniform(-15.0, 5.0)
    w = rng.uniform(5.0, 25.0)
    im_lo = rng.uniform(-3.0, -0.5)
    im_hi = rng.uniform(1.0, 4.0)
    p = ReggeProblem(a=a, alpha0=alpha0, beta0=beta0, alpha=alpha, beta=beta,
                     potential=Potential.grid(q, a, "cubic"),
                     real_data=not i % 2)
    return p, sign, Rectangle(x0, x0 + w, im_lo, im_hi)


def _random_set():
    rng = np.random.default_rng(2026)
    return [_random_case(rng, i) for i in range(60)]


@pytest.mark.corpus
@pytest.mark.parametrize("i", range(60))
def test_random_region_count(i):
    p, sign, rect = _random_set()[i]
    spec = compute_spectrum(p, sign, rect)
    assert _count(spec) == _reference(p, sign, rect)
