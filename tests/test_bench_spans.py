"""The traced benchmark run wraps library names by lookup.

bench/spans.py replaces names such as ``reggespec.cli.compute_spectrum``
and ``reggespec.roots.newton_refine`` with span-recording wrappers; a
refactor that drops one of them makes every traced run fail.  This test
installs the wrappers and restores them, so such a refactor fails here.
"""

import importlib.util
import pathlib

from reggespec import cli, partialinv, roots

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
