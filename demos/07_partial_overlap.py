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
from reggespec.asympt import asymptotic_model
from reggespec.model import Sign
from reggespec.partialinv import (
    critical_diagnostics,
    density_check,
    f_mismatch_logabs,
    indicator_estimate,
    refine_subset,
    sparse_subset,
    weighted_deviation,
)
from reggespec.reconstruct import ZeroSet

x = np.linspace(0.0, 1.0, 257)
q1 = 0.5 * np.cos(2.0 * x) + 0.1
q2 = q1 + np.where(x < 0.3, 0.2 * np.sin(math.pi * x / 0.3), 0.0)
mk = lambda q: ReggeProblem(a=1.0, alpha0=2.0, beta0=1.0, alpha=0.5,
                            beta=2.0, potential=Potential.grid(q, 1.0,
                                                               "cubic"),
                            real_data=True)
p1, p2 = mk(q1), mk(q2)
b = 0.3

# directional growth of the mismatch: the profile should sit under
# 2 b |sin theta|, the signature of type 2b
est = indicator_estimate(lambda z: f_mismatch_logabs(p1, p2, b, z),
                         logabs=True)
bound = 2.0 * b * np.abs(np.sin(est.angles))
print(f"indicator profile: max excess over 2b|sin| = "
      f"{(est.h - bound).max():+.3f}")

# eigenvalue subsets: polish the full lattice, then pick out the
# sparse subset whose rescaled members track the model lattice
model = asymptotic_model(p1)
full = {s: refine_subset(p1, model, s, kmax=105)[0]
        for s in (Sign.PLUS, Sign.MINUS)}
for s in (Sign.PLUS, Sign.MINUS):
    zs = ZeroSet(zeros=[(w, 1) for _, w in full[s]])
    rep = density_check(zs, 1.0, np.array([25.0, 50.0, 100.0]) * math.pi)
    print(f"{s.name.lower():>5} spectrum density ratio at 100 pi: "
          f"{rep.ratios[-1]:.4f}  (stabilized: {rep.stabilized})")

sub_p, sub_m = (sparse_subset(model, s, b, full[s])[0]
                for s in (Sign.PLUS, Sign.MINUS))
dev = weighted_deviation(sub_p, sub_m, b, b, model)
print(f"weighted deviation of the rescaled subsets: {dev.total:.3f} "
      f"({len(sub_p)}+{len(sub_m)} members)")

# the critical-case quotient: with subsets this dense the normalized
# G/Phi must decay along the imaginary axis of the squared variable
t = np.array([50.0, 100.0, 200.0, 400.0, 800.0, 1600.0])
diag = critical_diagnostics(p1, p2, b, b, (sub_p, sub_m), t)
mags = np.abs(diag.E0)
print("|E0(it)| along the schedule:",
      " ".join(f"{v:.1e}" for v in mags))
print(f"monotone decreasing: {diag.decreasing}")
