"""
One spectrum when the potential is even
=======================================

With matching boundary parameters and q(x) = q(a - x), the minus-type
characteristic function is a square root of an expression in the
plus-type one, so a single spectrum determines the pair.  The square
root needs its branch tracked along the real axis; the evaluator does
that and continues vertically for complex queries.
"""

import math

import numpy as np

from reggespec import Potential, ReggeProblem
from reggespec.charfn import delta, delta_zero, delta_zero_dot, robin_charfn
from reggespec.model import Sign
from reggespec.reconstruct import (delta0_from_pair, even_minus,
                                   two_spectra_robin)
from reggespec.roots import Rectangle, find_zeros

x = np.linspace(0.0, 1.0, 129)
p = ReggeProblem(a=1.0, alpha0=2.0, beta0=1.0, alpha=2.0, beta=1.0,
                 potential=Potential.grid(np.cos(2 * math.pi * x), 1.0,
                                          "cubic"),
                 real_data=True)

# even_minus checks that the problem is even, then tracks the branch
path = np.linspace(0.0, 4 * math.pi, 257)
ev = even_minus(p, path)

# the tracked branch against the direct minus function
direct = delta(p, Sign.MINUS, path.astype(complex))
rel = np.abs(ev.values - direct) / np.maximum(1.0, np.abs(direct))
print(f"recovered Delta_minus on [0, 4 pi], relative error "
      f"{rel.max():.2e}")

# q = 0 variant has a hand value: Delta_minus(pi) = -2
p0 = ReggeProblem(a=1.0, alpha0=2.0, beta0=1.0, alpha=2.0, beta=1.0,
                  potential=Potential.zero(1.0), real_data=True)
ev0 = even_minus(p0, np.linspace(0.0, 4.0, 81))
print(f"zero-potential point value at pi: {ev0(math.pi):.10f}  (exact -2)")

# interior spectrum through the pair: (D+ - D-)/(2 i alpha lam) is the
# interior characteristic function, so its values at the direct interior
# eigenvalues should vanish
zeros = find_zeros(lambda z: delta_zero(p, z),
                   lambda z: delta_zero_dot(p, z),
                   Rectangle(-12.0, 12.0, -1.5, 1.5))
locs = np.array([z for z, _, _ in zeros])
dplus = lambda lam: delta(p, Sign.PLUS, lam)
pair_vals = np.atleast_1d(delta0_from_pair(dplus, ev, p.alpha, locs))
print(f"{len(locs)} interior eigenvalues; pair-route values there: "
      f"max {np.abs(pair_vals).max():.2e}")

# two spectra instead: the average of the sign pair is the
# lambda-independent Robin characteristic function, exactly
lam = np.linspace(-6.0, 6.0, 25).astype(complex)
avg = two_spectra_robin(dplus, lambda t: delta(p, Sign.MINUS, t), lam)
print(f"averaged pair vs direct Robin function: "
      f"{np.abs(avg - robin_charfn(p, lam)).max():.2e}")
