"""Check the span wrappers against ROADMAP item A's hand counts.

    python3 bench/calibrate.py [--seed 0]

1. compute_spectrum on the 33-node cubic grid problem of
   tests/conftest.py (grid_problem(seed), sign plus) over the rectangle
   reggespec's CLI builds for --kmax 5.  ROADMAP A counts 12 zeros, 113
   plain and 38 derivative marcher calls.  The calls are counted twice:
   by the benchmark's spans, and by a bare counter on the same names.
2. delta and delta_dot at 4096 steps for lambda batches of 1, 64 and
   1024, timed from outside (median of three) and by the odecore span.
   ROADMAP A lists 156 / 203 / 328 ms and 297 / 267 / 839 ms.

Prints what it finds; it asserts nothing.
"""

import argparse
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import reference as R  # noqa: E402
import spans  # noqa: E402
from reggespec import Potential, ReggeProblem, charfn, cli, roots  # noqa: E402
from reggespec.asympt import asymptotic_model  # noqa: E402
from reggespec.model import Sign  # noqa: E402

ROADMAP_CALLS = {"plain": 113, "deriv": 38, "zeros": 12}
ROADMAP_MS = {"delta": {1: 156, 64: 203, 1024: 328},
              "delta_dot": {1: 297, 64: 267, 1024: 839}}


def grid_problem(seed: int) -> ReggeProblem:
    """Same construction as tests/conftest.py grid_problem(seed)."""
    rng = np.random.default_rng(seed)
    q = rng.uniform(-1.0, 1.0, 33)
    return ReggeProblem(a=1.0, alpha0=2.0, beta0=0.4, alpha=1.5, beta=-0.8,
                        potential=Potential.grid(q, 1.0, "cubic"))


def count_spectrum(seed: int):
    p = grid_problem(seed)
    rect = cli._auto_rect(p, asymptotic_model(p), Sign.PLUS, 5)

    bare = {"plain": 0, "deriv": 0}
    originals = {fn: getattr(charfn, fn) for fn in
                 ("solve_y", "solve_y_lambda_derivative")}

    def counter(fn, key):
        def wrapped(*a, **kw):
            bare[key] += 1
            return originals[fn](*a, **kw)
        return wrapped

    charfn.solve_y = counter("solve_y", "plain")
    charfn.solve_y_lambda_derivative = counter("solve_y_lambda_derivative",
                                               "deriv")
    try:
        t0 = time.perf_counter()
        spec = roots.compute_spectrum(p, Sign.PLUS, rect)
        bare_s = time.perf_counter() - t0
    finally:
        for fn, orig in originals.items():
            setattr(charfn, fn, orig)

    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        tracer.op = 0
        spec2, sp = tracer.span("roots.compute_spectrum", roots.compute_spectrum,
                                p, Sign.PLUS, rect)
    finally:
        tracer.op = None
        tracer.restore()
    m = spans.layer_metrics(tracer.spans, 1, len(spec2.entries))
    cfg = R.problem_dict(p.a, p.alpha0, p.beta0, p.alpha, p.beta,
                         {"type": "grid", "interpolation": "cubic",
                          "samples": [float(v) for v in p.potential.samples.real]},
                         False)
    ref = R.winding_count(R.Problem(cfg), 1, (rect.re_min, rect.re_max,
                                              rect.im_min, rect.im_max))
    print(f"compute_spectrum, grid_problem({seed}), --kmax 5 rectangle "
          f"[{rect.re_min:.4f}, {rect.re_max:.4f}] x "
          f"[{rect.im_min:.4f}, {rect.im_max:.4f}]")
    print(f"  zeros:         {len(spec.entries):4d}   ROADMAP A {ROADMAP_CALLS['zeros']}, "
          f"reference winding count {ref}")
    print(f"  plain calls:   bare {bare['plain']:4d}, spans "
          f"{m['odecore.calls']:4.0f}   ROADMAP A {ROADMAP_CALLS['plain']}")
    print(f"  deriv calls:   bare {bare['deriv']:4d}, spans "
          f"{m['odecore.deriv_calls']:4.0f}   ROADMAP A {ROADMAP_CALLS['deriv']}")
    print(f"  wall:          {bare_s:.2f} s untraced, {sp.duration:.2f} s traced "
          f"(ROADMAP A 4.8 s)")
    print(f"  search / polish marcher calls: {m['roots.search_marcher_calls']:.0f}"
          f" / {m['roots.polish_marcher_calls']:.0f}; newton iterations "
          f"{m['roots.newton_iters']:.0f}; winding f calls "
          f"{m['roots.winding_f_calls']:.0f}")


def marcher_cost():
    p = grid_problem(0)
    rng = np.random.default_rng(1)
    print("marcher cost at 4096 steps (median of 3; ms)")
    for name in ("delta", "delta_dot"):
        fn = getattr(charfn, name)
        for b in (1, 64, 1024):
            lam = rng.uniform(-20, 20, b) + 1j * rng.uniform(-2, 2, b)
            outside = []
            for _ in range(3):
                t0 = time.perf_counter()
                fn(p, Sign.PLUS, lam)
                outside.append(time.perf_counter() - t0)
            tracer = spans.Tracer()
            spans.install(tracer)
            try:
                tracer.op = 0
                tracer.span("charfn." + name, fn, p, Sign.PLUS, lam)
            finally:
                tracer.op = None
                tracer.restore()
            inner = [s.duration for s in tracer.spans
                     if s.name in spans.MARCHERS]
            print(f"  {name:9s} batch {b:5d}: outside {1e3 * np.median(outside):7.1f},"
                  f" odecore span {1e3 * inner[0]:7.1f}   ROADMAP A "
                  f"{ROADMAP_MS[name][b]}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    count_spectrum(args.seed)
    marcher_cost()


if __name__ == "__main__":
    main()
