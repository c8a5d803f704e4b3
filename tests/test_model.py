"""Problem container, potential kinds, the JSON config round trip, and
the CSV table writer."""

import ast
import json
import math
import pathlib

import numpy as np
import pytest

from reggespec import (
    InconsistentRealFlag,
    NegativeAlpha0,
    NonPositiveAlpha,
    NonPositiveLength,
    OutOfDomain,
    Potential,
    ReggeProblem,
    ValidationError,
    dump_problem,
    load_problem,
    problem_from_dict,
    problem_to_dict,
)

from reggespec.model import write_csv

from conftest import closed_form_problem, grid_problem

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "reggespec"


def _mk(a=1.0, alpha0=2.0, beta0=0.0, alpha=3.0, beta=0.0, q=None, **kw):
    return ReggeProblem(a=a, alpha0=alpha0, beta0=beta0, alpha=alpha,
                        beta=beta, potential=q or Potential.zero(a), **kw)


def test_parameter_validation():
    with pytest.raises(NonPositiveLength):
        _mk(a=0.0, q=Potential.zero(1.0))
    with pytest.raises(NonPositiveLength):
        _mk(a=-2.0, q=Potential.zero(1.0))
    with pytest.raises(NegativeAlpha0):
        _mk(alpha0=-0.5)
    with pytest.raises(NonPositiveAlpha):
        _mk(alpha=0.0)
    # alpha0 = 0 is allowed; alpha is not
    _mk(alpha0=0.0)


def test_potential_domain_must_match_interval():
    with pytest.raises(ValidationError):
        _mk(a=2.0, q=Potential.zero(1.0))


def test_real_data_flag_consistency():
    with pytest.raises(InconsistentRealFlag):
        _mk(beta0=1j, real_data=True)
    with pytest.raises(InconsistentRealFlag):
        _mk(q=Potential.constant(1.0 + 0.5j, 1.0), real_data=True)
    # declaring nothing about realness is always fine
    _mk(beta0=1j, real_data=False)


def test_potential_kinds_and_evaluation():
    z = Potential.zero(2.0)
    assert z(1.3) == 0.0
    c = Potential.constant(0.5 - 0.25j, 1.0)
    assert c(0.7) == 0.5 - 0.25j
    xs = np.linspace(0.0, 1.0, 9)
    g = Potential.grid(xs ** 2, 1.0, "linear")
    # linear interpolation is exact at the nodes and between close ones
    assert abs(g(0.5) - 0.25) < 1e-12
    mid = 0.5 * ((3 / 8) ** 2 + (4 / 8) ** 2)
    assert abs(g(7 / 16) - mid) < 1e-12
    with pytest.raises(OutOfDomain):
        g(1.5)
    with pytest.raises(ValidationError):
        Potential("linear", 1.0)
    with pytest.raises(ValidationError):
        Potential.grid([1.0], 1.0)


def test_prefix_integral_matches_quadrature():
    xs = np.linspace(0.0, 1.0, 257)
    g = Potential.grid(np.sin(3.0 * xs), 1.0, "cubic")
    val = g.prefix_integral(1.0)
    exact = (1.0 - math.cos(3.0)) / 3.0
    assert abs(val - exact) < 1e-8
    c = Potential.constant(2.0, 1.5)
    assert abs(c.prefix_integral(1.5) - 3.0) < 1e-14


def test_real_valued_detection():
    assert Potential.zero(1.0).real_valued
    assert Potential.constant(2.0, 1.0).real_valued
    assert not Potential.constant(2.0 + 1j, 1.0).real_valued
    assert Potential.grid([0.0, 1.0, 0.0], 1.0).real_valued
    assert not Potential.grid([0.0, 1.0 + 1j, 0.0], 1.0).real_valued


def test_dict_round_trip_all_kinds():
    for p in (closed_form_problem(), grid_problem(5, complex_q=True),
              _mk(q=Potential.constant(1.0 - 0.3j, 1.0), beta0=0.5 + 0.1j)):
        d = problem_to_dict(p)
        r = problem_from_dict(d)
        assert r.a == p.a and r.alpha0 == p.alpha0 and r.alpha == p.alpha
        assert complex(r.beta0) == complex(p.beta0)
        assert complex(r.beta) == complex(p.beta)
        assert r.real_data == p.real_data
        if p.potential.kind == "grid":
            assert np.allclose(r.potential.samples, p.potential.samples)
        else:
            assert complex(r.potential.value) == complex(p.potential.value)


def test_json_file_round_trip(tmp_path):
    p = grid_problem(11, complex_q=True)
    path = tmp_path / "prob.json"
    dump_problem(p, str(path))
    r = load_problem(str(path))
    assert np.allclose(r.potential.samples, p.potential.samples)
    # the file is valid JSON with the documented top-level keys
    cfg = json.loads(path.read_text())
    assert set(cfg) == {"a", "alpha0", "beta0", "alpha", "beta",
                        "potential", "real_data"}


def test_config_error_reporting():
    with pytest.raises(ValidationError):
        problem_from_dict({"a": 1.0})
    with pytest.raises(ValidationError):
        problem_from_dict({"a": 1.0, "alpha0": 2.0, "beta0": 0.0,
                           "alpha": 3.0, "beta": 0.0,
                           "potential": {"type": "fancy"}})
    with pytest.raises(ValidationError):
        problem_from_dict({"a": 1.0, "alpha0": 2.0, "beta0": {"im": "x"},
                           "alpha": 3.0, "beta": 0.0,
                           "potential": {"type": "zero"}})


def test_load_problem_accepts_dict():
    p = load_problem({"a": 1.0, "alpha0": 2.0, "beta0": 1.0, "alpha": 3.0,
                      "beta": 2.0, "potential": {"type": "zero"}})
    assert p.alpha == 3.0 and not p.real_data


def test_reflected_potential():
    xs = np.linspace(0.0, 1.0, 65)
    p = _mk(q=Potential.grid(xs, 1.0, "linear"))
    r = p.potential.reflect()
    assert abs(r(0.25) - 0.75) < 1e-12
    assert abs(p.potential(0.25) - 0.25) < 1e-12


def test_write_csv_cell_rules(tmp_path):
    path = tmp_path / "t.csv"
    x = np.float64(0.1) + np.float64(0.2)
    write_csv(str(path), "# note\nk,v,re,im,s",
              [(None, 1.0 / 3.0, 2 + 0.5j, "plus"),
               (np.int64(-7), x, np.complex128(0.1 - 2.5e-300j), "minus"),
               "# count mismatch: 3 direct vs 2 averaged"])
    assert path.read_text() == (
        "# note\nk,v,re,im,s\n"
        ",0.33333333333333331,2,0.5,plus\n"
        "-7,0.30000000000000004,0.10000000000000001,-2.5e-300,minus\n"
        "# count mismatch: 3 direct vs 2 averaged\n")
    row = path.read_text().splitlines()[3].split(",")
    assert float(row[1]) == x
    assert complex(float(row[2]), float(row[3])) == 0.1 - 2.5e-300j
    assert [f.name for f in tmp_path.iterdir()] == ["t.csv"]


def test_table_format_lives_in_model():
    """The CSV number format is written out only in model.write_csv; cli
    keeps it in the helpers that format printed lines."""
    paths = sorted(SRC.glob("*.py"))
    assert "model.py" in [p.name for p in paths]
    for path in paths:
        if path.name == "model.py":
            continue
        text = path.read_text(encoding="utf-8")
        allowed = set()
        for node in ast.parse(text).body:
            if path.name == "cli.py" and isinstance(node, ast.FunctionDef) \
                    and node.name in ("_g", "_cg"):
                allowed.update(range(node.lineno, node.end_lineno + 1))
        for n, line in enumerate(text.splitlines(), start=1):
            if ".17g" in line or '"\\n".join' in line:
                assert n in allowed, f"{path.name}:{n}: {line.strip()}"
