"""End-to-end command tests run in process through main()."""

import csv
import json
import math
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from reggespec.charfn import delta_zero, delta_zero_dot
from reggespec.cli import main
from reggespec.model import dump_problem
from reggespec.reconstruct import ZeroSet, write_zeroset_csv
from reggespec.roots import Rectangle, find_zeros

from conftest import grid_problem

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


def test_spectrum_overlay_covers_asymmetric_rect(tmp_path):
    """Every lattice point inside the rect gets a cross, on both sides of
    the origin: on [-20, 5] the worked problem's plus lattice has 9 (the
    origin, i ln(6)/2, and j pi + i ln(6)/2 for j = -6..-1 and 1)."""
    cfg = _cfg(tmp_path, WORKED)
    svg = tmp_path / "asym.svg"
    rc = main(["spectrum", "--config", cfg, "--rect=-20,5,-1.5,1.5",
               "--out", str(tmp_path / "asym.csv"), "--svg", str(svg),
               "--overlay"])
    assert rc == 0
    assert svg.read_text().count("<path ") == 9


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


@pytest.mark.parametrize("rect", [(-7.0, 7.0, -3.0, 3.0),
                                  (95.0, 115.0, -3.0, 3.0)])
def test_spectrum_interior_matches_full_mesh_search(tmp_path, rect):
    """The interior search (coarse mesh, then full-mesh polish) finds the
    zeros a full-mesh find_zeros on Delta_0 finds, on a complex grid."""
    p = grid_problem(3, complex_q=True)
    cfg = tmp_path / "cfg.json"
    dump_problem(p, str(cfg))
    out = tmp_path / "interior.csv"
    assert main(["spectrum", "--config", str(cfg), "--sign", "interior",
                 "--rect=" + ",".join(map(str, rect)), "--out", str(out)]) == 0
    got = np.array([complex(float(r["re"]), float(r["im"]))
                    for r in _read_rows(out)])
    want = np.array([z for z, _, _ in find_zeros(
        lambda z: delta_zero(p, z), lambda z: delta_zero_dot(p, z),
        Rectangle(*rect))])
    assert len(got) == len(want) > 0
    dist = np.abs(got[:, None] - want[None, :])
    assert max(dist.min(axis=0).max(), dist.min(axis=1).max()) <= 1e-10


@pytest.mark.parametrize("argv, flag", [
    (["spectrum", "--rect=-1,1,-1,1", "--nsteps", "0"], "--nsteps"),
    (["spectrum", "--rect=-1,1,-1,1", "--nsteps=-4"], "--nsteps"),
    (["verify", "--which", "identity", "--count", "0"], "--count"),
    (["verify", "--which", "wronskian", "--count", "0"], "--count"),
    (["verify", "--which", "identity", "--lam-max", "nan"], "--lam-max"),
    (["verify", "--which", "identity", "--lam-max", "inf"], "--lam-max"),
    (["verify", "--which", "identity", "--lam-max=-3"], "--lam-max"),
    (["verify", "--which", "interlace", "--tau-max=-1"], "--tau-max"),
    (["verify", "--which", "interlace", "--tau-max", "0"], "--tau-max"),
    (["verify", "--which", "interlace", "--tau-max", "nan"], "--tau-max"),
    (["spectrum", "--rect=-1,1,-1,1", "--tol", "inf"], "--tol"),
    (["reconstruct", "--mode", "even", "--samples=-3"], "--samples"),
    (["reconstruct", "--mode", "hadamard", "--trunc", "4"], "--trunc"),
    (["reconstruct", "--mode", "hadamard", "--trunc=-5"], "--trunc"),
    (["reconstruct", "--mode", "hadamard", "--trunc", "31"], "--trunc"),
    (["partial", "--window=-1"], "--window"),
    (["partial", "--kmax", "0"], "--kmax"),
    (["partial", "--angles", "3"], "--angles"),
    (["partial", "--split", "0"], "--split"),
], ids=["nsteps-0", "nsteps-negative", "identity-count-0",
        "wronskian-count-0", "lam-max-nan", "lam-max-inf", "lam-max-negative",
        "tau-max-negative", "tau-max-0", "tau-max-nan", "tol-inf",
        "samples-negative", "trunc-4", "trunc-negative", "trunc-31",
        "window-negative", "kmax-0", "angles-3", "split-0"])
def test_out_of_range_flags_are_usage_errors(tmp_path, capsys, argv, flag):
    cfg = _cfg(tmp_path, ZERO_POT)
    rc = main(argv + ["--config", cfg, "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert flag in err and "Traceback" not in err


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


@pytest.mark.parametrize("change, argv, name", [
    ({}, ["--rect=-inf,7,-1,2"], "--rect"),
    ({"a": math.inf}, [], "'a'"),
    ({"a": "x"}, [], "'a'"),
    ([ZERO_POT], [], "JSON object"),
    ({"potential": "zero"}, [], "'potential'"),
    ({"potential": {"type": "grid", "samples": [0.0, math.nan, 0.0, 0.0],
                    "interpolation": "cubic"}}, [], "'samples'"),
    ({"beta0": math.nan}, [], "'beta0'"),
    ({"a": 10 ** 400}, [], "'a'"),
    (json.dumps(ZERO_POT).replace("3.0", "9" * 5000), [], "not valid JSON"),
], ids=["rect-inf", "a-inf", "a-string", "top-level-list", "potential-string",
        "nan-sample", "nan-beta0", "a-beyond-float", "alpha-too-long"])
def test_bad_inputs_are_config_errors(tmp_path, capsys, change, argv, name):
    """Each bad config (changed fields, another JSON value, or raw text)
    or flag exits 2 with one message naming it, before any solver runs."""
    if isinstance(change, dict):
        change = dict(ZERO_POT, **change)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(change if isinstance(change, str) else json.dumps(change))
    rc = main(["spectrum", "--config", str(cfg),
               "--out", str(tmp_path / "x.csv")]
              + (argv or ["--rect=-7,7,-1,2"]))
    err = capsys.readouterr().err
    assert rc == 2
    assert name in err and "Traceback" not in err


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


def test_spectrum_zero_on_rect_edge_exits_3(tmp_path, capsys):
    """The worked problem has eigenvalues on iR: a --rect edge on Re = 0
    is refused rather than searched by a grown rectangle."""
    cfg = _cfg(tmp_path, WORKED)
    out = tmp_path / "edge.csv"
    rc = main(["spectrum", "--config", cfg, "--rect=0,7,-2,2",
               "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "edge of Rectangle(re_min=0.0, re_max=7.0, im_min=-2.0" in err
    assert not out.exists()


def test_spectrum_output_is_deterministic(tmp_path):
    cfg = _cfg(tmp_path, ZERO_POT)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert main(["spectrum", "--config", cfg, "--rect=-4,4,-1,2",
                     "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_failed_write_leaves_no_temp_file(tmp_path, capsys):
    """--out naming an existing directory: the rename fails, the run exits
    2 as a config error, and the temporary file is removed."""
    cfg = _cfg(tmp_path, ZERO_POT)
    out = tmp_path / "out.csv"
    out.mkdir()
    assert main(["spectrum", "--config", cfg, "--rect=-4,4,-1,2",
                 "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert out.is_dir() and not any(out.iterdir())
    assert not list(tmp_path.glob("*.tmp.*"))


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


def _zero_rows(*extra):
    """A zero-set CSV of 400 zeros of z cos z plus the given rows."""
    good = [f"{s * (k - 0.5) * math.pi!r},0,1"
            for k in range(1, 201) for s in (1.0, -1.0)]
    return ("# order_at_origin=1\nre,im,multiplicity\n"
            + "\n".join(good + list(extra)) + "\n")


@pytest.mark.parametrize("text", [
    "# order_at_origin=x\nre,im,multiplicity\n1.5,0,1\n",
    _zero_rows("inf,0,1"),
    _zero_rows("nan,0,1"),
    _zero_rows("5,nan,1"),
], ids=["order", "inf", "nan-re", "nan-im"])
def test_reconstruct_hadamard_refuses_malformed_zero_sets(tmp_path, capsys,
                                                          text):
    # no traceback, and no answer built from a nan zero: exit 2 naming
    # the file
    path = tmp_path / "zeros.csv"
    path.write_text(text)
    out = tmp_path / "out.csv"
    rc = main(["reconstruct", "--mode", "hadamard", "--zeros", str(path),
               "--selector", "c1", "--c0", "1", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(path) in err
    assert not out.exists()


@pytest.mark.parametrize("argv, name", [
    (["--c0", "nan"], "--c0"),
    (["--c0", "inf"], "--c0"),
    (["--c0", "1,nan"], "--c0"),
    (["--c0", "1", "--grid=-5,inf,201"], "--grid"),
    (["--c0", "1", "--grid=nan,5,201"], "--grid"),
    (["--c0", "1", "--grid=0,2e5,2"], "reach"),
], ids=["c0-nan", "c0-inf", "c0-im-nan", "grid-inf", "grid-nan",
        "grid-beyond-tail"])
def test_reconstruct_hadamard_refuses_non_finite_or_unreachable_points(
        tmp_path, capsys, argv, name):
    """A non-finite --c0 or --grid, or a grid point beyond the reach of
    the lattice tail, exits 2 naming it instead of writing nan rows or a
    quietly inaccurate table."""
    zpath = tmp_path / "zeros.csv"
    zpath.write_text(_zero_rows())
    out = tmp_path / "out.csv"
    rc = main(["reconstruct", "--mode", "hadamard", "--zeros", str(zpath),
               "--selector", "c1", "--out", str(out)] + argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error" in err and name in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--radii", "10,inf", "--tsched", "30,60,120,240"],
    ["--tsched", "30,nan,120"],
], ids=["radii", "tsched"])
def test_partial_refuses_non_finite_schedules(tmp_path, capsys, argv):
    c1, c2 = _twin_cfgs(tmp_path)
    rc = main(["partial", "--config", c1, "--config2", c2, "--split", "0.3",
               "--kmax", "20", "--out", str(tmp_path / "twin")] + argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error" in err and argv[0] in err
    assert not list(tmp_path.glob("twin*"))


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


def test_plot_refuses_non_finite_points(tmp_path, capsys):
    src = tmp_path / "pts.csv"
    src.write_text("k,re,im,multiplicity,residual\n"
                   "1,1.5,0.25,1,0\n-1,nan,0.25,1,0\n")
    out = tmp_path / "pts.svg"
    assert main(["plot", "--in", str(src), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "non-finite number in row" in err
    assert not out.exists()


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
