"""End-to-end command tests run in process through main()."""

import csv
import json
import math
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from reggespec.cli import main
from reggespec.reconstruct import ZeroSet, write_zeroset_csv

LN6 = math.log(6.0)

ZERO_POT = {"a": 1.0, "alpha0": 2.0, "beta0": 0.0, "alpha": 3.0, "beta": 0.0,
            "potential": {"type": "zero"}, "real_data": True}
WORKED = {"a": 1.0, "alpha0": 2.0, "beta0": 1.0, "alpha": 3.0, "beta": 2.0,
          "potential": {"type": "zero"}, "real_data": True}
BELOW = {"a": 1.0, "alpha0": 2.0, "beta0": 0.0, "alpha": 3.0, "beta": -5.0,
         "potential": {"type": "zero"}, "real_data": True}
EVEN = {"a": 1.0, "alpha0": 2.0, "beta0": 1.0, "alpha": 2.0, "beta": 1.0,
        "potential": {"type": "zero"}, "real_data": True}


def _cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _twin_cfgs(tmp_path):
    x = np.linspace(0.0, 1.0, 257)
    q1 = 0.5 * np.cos(2.0 * x) + 0.1
    q2 = q1 + np.where(x < 0.3, 0.2 * np.sin(math.pi * x / 0.3), 0.0)
    base = {"a": 1.0, "alpha0": 2.0, "beta0": 1.0, "alpha": 0.5, "beta": 2.0,
            "real_data": True}
    c1 = dict(base, potential={"type": "grid", "samples": list(q1),
                               "interpolation": "cubic"})
    c2 = dict(base, potential={"type": "grid", "samples": list(q2),
                               "interpolation": "cubic"})
    return _cfg(tmp_path, c1, "t1.json"), _cfg(tmp_path, c2, "t2.json")


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_help_runs_as_module():
    r = subprocess.run([sys.executable, "-m", "reggespec.cli", "--help"],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert "spectrum" in r.stdout


def test_spectrum_closed_form(tmp_path):
    cfg = _cfg(tmp_path, ZERO_POT)
    out = tmp_path / "spec.csv"
    rc = main(["spectrum", "--config", cfg, "--rect=-7,7,-1,2",
               "--out", str(out)])
    assert rc == 0
    rows = _read_rows(out)
    assert list(rows[0]) == ["k", "re", "im", "multiplicity", "residual"]
    assert len(rows) == 6
    got = np.array([float(r["re"]) + 1j * float(r["im"]) for r in rows])
    c = 0.5j * LN6
    for want in [0.0, c, math.pi + c, -math.pi + c,
                 2 * math.pi + c, -2 * math.pi + c]:
        assert np.abs(got - want).min() < 1e-8
    by_k = {int(r["k"]): r for r in rows}
    assert set(by_k) == {-3, -2, -1, 1, 2, 3}
    assert abs(float(by_k[-1]["re"])) < 1e-8


def test_spectrum_predict_columns(tmp_path):
    cfg = _cfg(tmp_path, WORKED)
    out = tmp_path / "pred.csv"
    rc = main(["spectrum", "--config", cfg, "--rect=-7,7,-1,2",
               "--predict", "--out", str(out)])
    assert rc == 0
    rows = _read_rows(out)
    assert "predicted_re" in rows[0] and "predicted_im" in rows[0]
    for r in rows:
        if int(r["k"]) == 3:
            want = 2 * math.pi + 0.5j * LN6 - 7.0 / (12.0 * math.pi) / 3.0
            got = float(r["predicted_re"]) + 1j * float(r["predicted_im"])
            assert abs(got - want) < 1e-10


def test_spectrum_svg(tmp_path):
    cfg = _cfg(tmp_path, ZERO_POT)
    out = tmp_path / "spec.csv"
    svg = tmp_path / "spec.svg"
    rc = main(["spectrum", "--config", cfg, "--rect=-4,4,-1,2",
               "--out", str(out), "--svg", str(svg), "--overlay"])
    assert rc == 0
    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg")
    assert "circle" in svg.read_text()


def test_spectrum_interior_sign(tmp_path):
    cfg = _cfg(tmp_path, ZERO_POT)
    out = tmp_path / "interior.csv"
    rc = main(["spectrum", "--config", cfg, "--sign", "interior",
               "--rect=-7,7,-1,2", "--out", str(out)])
    assert rc == 0
    rows = _read_rows(out)
    # cos(lam) + 2i sin(lam) vanishes at m pi + i ln(3)/2
    assert len(rows) == 5
    for r in rows:
        assert float(r["im"]) == pytest.approx(0.5 * math.log(3.0), abs=1e-8)
    # two-term predictions are undefined for the interior family
    rc2 = main(["spectrum", "--config", cfg, "--sign", "interior",
                "--rect=-7,7,-1,2", "--predict", "--out", str(out)])
    assert rc2 == 2


def test_config_error_paths(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = str(tmp_path / "x.csv")
    assert main(["spectrum", "--config", str(bad), "--rect=-1,1,-1,1",
                 "--out", out]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["spectrum", "--config", str(tmp_path / "absent.json"),
                 "--rect=-1,1,-1,1", "--out", out]) == 2
    cfg = _cfg(tmp_path, ZERO_POT)
    assert main(["spectrum", "--config", cfg, "--rect", "1,2,3",
                 "--out", out]) == 2
    assert main(["spectrum", "--config", cfg, "--rect=-1,1,-1,1",
                 "--tol", "0", "--out", out]) == 2
    assert main(["spectrum", "--config", cfg, "--rect=-1,1,-1,1",
                 "--threads", "0", "--out", out]) == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spectrum_overflowing_search_mesh_exits_3(tmp_path, capsys):
    """Re lam ~ 3000 is beyond what the 512-step search mesh represents:
    the characteristic function overflows, and the run refuses it as a
    solver failure in one line, without a traceback."""
    cfg = _cfg(tmp_path, {"a": 1.0, "alpha0": 2.0, "beta0": 0.4,
                          "alpha": 1.5, "beta": -0.8,
                          "potential": {"type": "zero"}, "real_data": True})
    out = tmp_path / "far.csv"
    rc = main(["spectrum", "--config", cfg, "--sign", "plus",
               "--rect=2990,3010,-1,2", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure:") and "not finite" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_threads_env_and_determinism(tmp_path, monkeypatch):
    cfg = _cfg(tmp_path, ZERO_POT)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    monkeypatch.setenv("REGGE_THREADS", "frog")
    assert main(["spectrum", "--config", cfg, "--rect=-4,4,-1,2",
                 "--out", str(out1)]) == 2
    monkeypatch.delenv("REGGE_THREADS")
    assert main(["spectrum", "--config", cfg, "--rect=-4,4,-1,2",
                 "--threads", "1", "--out", str(out1)]) == 0
    monkeypatch.setenv("REGGE_THREADS", "8")
    assert main(["spectrum", "--config", cfg, "--rect=-4,4,-1,2",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_identity_and_energy(tmp_path, capsys):
    cfg = _cfg(tmp_path, WORKED)
    out = tmp_path / "v.csv"
    rc = main(["verify", "--config", cfg, "--which", "identity",
               "--count", "40", "--out", str(out)])
    assert rc == 0
    assert "PASS identity" in capsys.readouterr().out
    assert len(_read_rows(out)) == 40
    assert main(["verify", "--config", cfg, "--which", "energy",
                 "--count", "20"]) == 0
    assert main(["verify", "--config", cfg, "--which", "wronskian",
                 "--count", "10"]) == 0
    capsys.readouterr()


def test_verify_symmetry(tmp_path, capsys):
    cfg = _cfg(tmp_path, ZERO_POT)
    rc = main(["verify", "--config", cfg, "--which", "symmetry",
               "--rect=-7,7,-1,2"])
    assert rc == 0
    assert "PASS symmetry" in capsys.readouterr().out
    lop = dict(ZERO_POT, real_data=False,
               beta0=[0.1, 0.2], potential={"type": "constant",
                                            "value": [0.0, 0.3]})
    cfg2 = _cfg(tmp_path, lop, "lop.json")
    assert main(["verify", "--config", cfg2, "--which", "symmetry",
                 "--rect=-7,7,-1,2"]) == 2


def test_verify_interlace(tmp_path, capsys):
    cfg = _cfg(tmp_path, BELOW)
    out = tmp_path / "inter.csv"
    rc = main(["verify", "--config", cfg, "--which", "interlace",
               "--tau-max", "3", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "PASS interlace" in text
    assert "1.2320177" in text
    rows = _read_rows(out)
    assert list(rows[0]) == ["tau", "sign_value_dot", "sign_value_zero"]
    assert float(rows[0]["sign_value_dot"]) < 0
    assert float(rows[0]["sign_value_zero"]) > 0


def test_asympt_constants(tmp_path, capsys):
    cfg = _cfg(tmp_path, WORKED)
    out = tmp_path / "tail.csv"
    rc = main(["asympt", "--config", cfg, "--rect=-7,7,-1,2",
               "--min-k", "2", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "case_sign -1" in text
    # prefix match: the printed value comes from the boundary-data sum,
    # which can differ from -7/(12 pi) in the final ulp
    assert "-0.185680766940544" in text
    assert f"{LN6:.17g}" in text
    rows = _read_rows(out)
    assert list(rows[0]) == ["k", "re", "im"]
    assert [r["k"] for r in rows] == ["-3", "-2", "2", "3"]


def test_reconstruct_hadamard_rejects_spectrum_csv(tmp_path, capsys):
    # feeding a 5-column spectrum CSV where a zero-set CSV is expected
    # must exit 2 with a config error, not a traceback
    bad = tmp_path / "spec.csv"
    bad.write_text("k,re,im,multiplicity,residual\n1,3.14,0.89,1,0\n")
    rc = main(["reconstruct", "--mode", "hadamard", "--zeros", str(bad),
               "--selector", "c1", "--c0", "1",
               "--out", str(tmp_path / "out.csv")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_reconstruct_hadamard(tmp_path, capsys):
    zs = ZeroSet(zeros=[(s * (k - 0.5) * math.pi, 1)
                        for k in range(1, 2501) for s in (1.0, -1.0)],
                 order_at_origin=1)
    zpath = tmp_path / "zeros.csv"
    write_zeroset_csv(str(zpath), zs)
    out = tmp_path / "had.csv"
    rc = main(["reconstruct", "--mode", "hadamard", "--zeros", str(zpath),
               "--selector", "c1", "--c0", "1", "--trunc", "2000",
               "--grid=-3,3,41", "--out", str(out)])
    assert rc == 0
    assert "exponent b" in capsys.readouterr().out
    rows = _read_rows(out)
    assert len(rows) == 41
    for r in rows[::10]:
        x = float(r["x"])
        assert float(r["re"]) == pytest.approx(x * math.cos(x), abs=2e-3)
        assert abs(float(r["im"])) < 2e-3


def test_reconstruct_even(tmp_path, capsys):
    cfg = _cfg(tmp_path, EVEN)
    out = tmp_path / "even.csv"
    rc = main(["reconstruct", "--mode", "even", "--config", cfg,
               "--lam-max", "6", "--samples", "121", "--out", str(out)])
    assert rc == 0
    assert "PASS even" in capsys.readouterr().out
    rows = _read_rows(out)
    assert float(rows[-1]["abs_err"]) < 1e-6
    # mismatched endpoint data is not an even problem
    cfg2 = _cfg(tmp_path, WORKED, "w.json")
    assert main(["reconstruct", "--mode", "even", "--config", cfg2,
                 "--lam-max", "6", "--out", str(out)]) == 2


def test_reconstruct_two_spectra(tmp_path, capsys):
    cfg = _cfg(tmp_path, WORKED)
    out = tmp_path / "two.csv"
    rc = main(["reconstruct", "--mode", "two-spectra", "--config", cfg,
               "--rect=-7,7,-1,2", "--out", str(out)])
    assert rc == 0
    assert "PASS two-spectra" in capsys.readouterr().out
    assert len(_read_rows(out)) > 0


def test_partial_writes_all_reports(tmp_path, capsys):
    c1, c2 = _twin_cfgs(tmp_path)
    prefix = tmp_path / "twin"
    rc = main(["partial", "--config", c1, "--config2", c2,
               "--split", "0.3", "--kmax", "20",
               "--tsched", "30,60,120,240"])
    assert rc == 2  # --out is required
    rc = main(["partial", "--config", c1, "--config2", c2,
               "--split", "0.3", "--kmax", "20",
               "--tsched", "30,60,120,240", "--out", str(prefix)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "indicator: max excess" in text
    growth = _read_rows(f"{prefix}_growth.csv")
    assert list(growth[0]) == ["r", "sup_logabs_F", "scaled_sup"]
    ind = _read_rows(f"{prefix}_indicator.csv")
    assert list(ind[0]) == ["theta", "h", "bound"]
    assert len(ind) == 32
    dens = _read_rows(f"{prefix}_density.csv")
    assert list(dens[0]) == ["r", "ratio_plus", "ratio_minus"]
    dev = _read_rows(f"{prefix}_deviation.csv")
    assert len(dev) == 1
    e0 = _read_rows(f"{prefix}_e0.csv")
    assert list(e0[0]) == ["t", "G_abs", "Phi_abs", "Phi0_abs", "E0_abs"]
    assert len(e0) == 4
    # indicator profile honours the width bound everywhere
    for r in ind:
        assert float(r["h"]) <= float(r["bound"]) + 0.1


def test_partial_requires_both_configs(tmp_path):
    c1, _ = _twin_cfgs(tmp_path)
    assert main(["partial", "--config", c1, "--split", "0.3",
                 "--out", str(tmp_path / "x")]) == 2


def test_plot_roundtrip(tmp_path):
    src = tmp_path / "pts.csv"
    src.write_text("k,re,im,multiplicity,residual\n"
                   "1,1.5,0.25,1,0\n-1,-1.5,0.25,1,0\n")
    out = tmp_path / "pts.svg"
    rc = main(["plot", "--in", str(src), "--out", str(out)])
    assert rc == 0
    root = ET.fromstring(out.read_text())
    assert root.tag.endswith("svg")
    assert main(["plot", "--out", str(tmp_path / "y.svg")]) == 2
