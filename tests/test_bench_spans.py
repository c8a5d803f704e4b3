"""The traced benchmark run wraps library names by lookup.

bench/spans.py replaces names such as ``reggespec.cli.compute_spectrum``
and ``reggespec.roots.newton_refine`` with span-recording wrappers; a
refactor that drops one of them makes every traced run fail.  This test
installs the wrappers and restores them, so such a refactor fails here.
"""

import importlib.util
import pathlib

import numpy as np

from reggespec import Sign, charfn, cli, partialinv, roots

from conftest import grid_problem

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_run_finds_every_wrapped_name():
    spans = _load_spans()
    before = (cli.main, cli.compute_spectrum, roots.newton_refine,
              partialinv.phi1_eval)
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        assert cli.main is not before[0]
        assert len(tracer._patches) > 20
    finally:
        tracer.restore()
    assert (cli.main, cli.compute_spectrum, roots.newton_refine,
            partialinv.phi1_eval) == before


def test_traced_marchers_bind_lam_x_and_nsteps():
    """The marcher spans read lam, x and nsteps by name; a renamed
    parameter breaks the traced run, so check the counts they record."""
    spans = _load_spans()
    p = grid_problem(7)
    lam = np.array([1.5, 2.5 + 0.2j, 4.0])
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        tracer.op = 0
        charfn.delta(p, Sign.PLUS, lam, nsteps=64)
        charfn.delta_dot(p, Sign.MINUS, lam, nsteps=64)
        charfn.wronskian_delta(p, Sign.PLUS, lam, 0.25, nsteps=64)
        charfn.energy_terms(p, lam, nsteps=64)
    finally:
        tracer.op = None
        tracer.restore()
    got = [(sp.name.split(".", 1)[1], sp.info["batch"], sp.info["steps"])
           for sp in tracer.spans if sp.name in spans.MARCHERS]
    assert got == [
        ("solve_y", 3, 64),                      # delta
        ("solve_y_lambda_derivative", 3, 64),    # delta_dot
        ("solve_phi", 3, 48),                    # wronskian: a down to 0.25
        ("solve_y", 3, 16),                      # wronskian: 0 up to 0.25
        ("solve_y_lambda_derivative", 3, 64),    # energy_terms
        ("solve_y_trajectory", 3, 64),
    ]
