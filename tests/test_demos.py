"""The narrative demos run to completion.

Every demo runs: they call the charfn, roots, odecore, asympt,
reconstruct and partialinv entry points directly (05 is the one demo
that rebuilds a function with hadamard_build).  Each runs in a
subprocess with src/ on PYTHONPATH and must exit 0.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["01_spectrum_basics.py",
                                  "02_identity_checks.py",
                                  "03_kernel_representation.py",
                                  "04_asymptotics_and_recovery.py",
                                  "05_hadamard_rebuild.py",
                                  "06_even_and_two_spectra.py",
                                  "07_partial_overlap.py"])
def test_demo_runs(tmp_path, name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                       cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
                       capture_output=True, text=True, timeout=600)
    assert r.returncode == 0, r.stderr
