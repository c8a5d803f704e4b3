"""
Diagnostics for the partial inverse problem
===========================================

Two problems that share the potential on (b, a) and the right boundary
data differ only through a mismatch function built from their left
solutions at x = b.  Its exponential type is 2b, not 2a, which is what
makes eigenvalue subsets of density matching b sufficient for
uniqueness.  We probe the growth, the densities and the decay of the
normalized quotient E0 for a twin pair split at b = 0.3.
"""

import math

import numpy as np

from reggespec import Potential, ReggeProblem
from reggespec.partialinv import partial_diagnostics

x = np.linspace(0.0, 1.0, 257)
q1 = 0.5 * np.cos(2.0 * x) + 0.1
q2 = q1 + np.where(x < 0.3, 0.2 * np.sin(math.pi * x / 0.3), 0.0)
mk = lambda q: ReggeProblem(a=1.0, alpha0=2.0, beta0=1.0, alpha=0.5,
                            beta=2.0, potential=Potential.grid(q, 1.0,
                                                               "cubic"),
                            real_data=True)
p1, p2 = mk(q1), mk(q2)
b = 0.3

# one call polishes the lattice seeds for |j| <= 105, picks the sparse
# subsets whose rescaled members track the model lattice, and probes the
# growth, the densities and the critical-case quotient E0
t = np.array([50.0, 100.0, 200.0, 400.0, 800.0, 1600.0])
d = partial_diagnostics(
    p1, p2, b, b, kmax=105, radii=np.array([25.0, 50.0, 100.0]) * math.pi,
    t_schedule=t, angles=np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False),
    window=0.1)

# directional growth of the mismatch: the profile should sit under
# 2 b |sin theta|, the signature of type 2b
excess = max(h - bound for h, bound in zip(d.indicator.h, d.bounds))
print(f"indicator profile: max excess over 2b|sin| = {excess:+.3f}")

for name, rep in zip(("plus", "minus"), d.density):
    print(f"{name:>5} spectrum density ratio at 100 pi: "
          f"{rep.ratios[-1]:.4f}  (stabilized: {rep.stabilized})")

sub_p, sub_m = d.sparse
print(f"weighted deviation of the rescaled subsets: {d.deviation.total:.3f} "
      f"({len(sub_p)}+{len(sub_m)} members)")

# with subsets this dense the normalized G/Phi must decay along the
# imaginary axis of the squared variable
print("|E0(it)| along the schedule:",
      " ".join(f"{v:.1e}" for v in np.abs(d.critical.E0)))
print(f"monotone decreasing: {d.critical.decreasing}")
