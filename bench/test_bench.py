"""Tests of the benchmark's own parts: references, input generation, spans
and the pace kernel.

    python3 -m pytest bench/test_bench.py -q
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pace  # noqa: E402
import reference as R  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

LN6 = math.log(6.0)


def _zero_potential(alpha0, beta0, alpha, beta):
    return R.Problem(R.problem_dict(1.0, alpha0, beta0, alpha, beta,
                                    {"type": "zero"}, True))


def test_closed_form_reproduces_documented_q0_spectrum():
    # tests/conftest.py closed_form_problem: eigenvalues of the plus
    # problem in [-7,7]x[-1,2] are {0, i ln6/2, +-pi + i ln6/2, +-2pi + i ln6/2}
    p = _zero_potential(2.0, 0.0, 3.0, 0.0)
    exact = np.array([0.0, 0.5j * LN6, math.pi + 0.5j * LN6,
                      -math.pi + 0.5j * LN6, 2 * math.pi + 0.5j * LN6,
                      -2 * math.pi + 0.5j * LN6])
    assert R.winding_count(p, 1, (-7.0, 7.0, -1.0, 2.0)) == 6
    got = R.newton_zero(p, 1, exact + 0.05 - 0.03j)
    assert np.max(np.abs(got - exact)) < 1e-12


def test_lattice_reproduces_worked_problem_constants():
    # tests/conftest.py worked_problem: P0_plus = ln 6, P0_minus = ln(3/2),
    # P = -7/(12 pi), case sign -1
    p = _zero_potential(2.0, 1.0, 3.0, 2.0)
    plus, minus = R.lattice(p, 1), R.lattice(p, -1)
    assert plus["P0"] == pytest.approx(LN6, abs=1e-14)
    assert minus["P0"] == pytest.approx(math.log(1.5), abs=1e-14)
    assert plus["P"] == pytest.approx(-7.0 / (12.0 * math.pi), abs=1e-14)
    assert plus["case"] == minus["case"] == -1


def test_closed_form_zeros_follow_the_two_term_lattice():
    p = _zero_potential(2.0, 1.0, 3.0, 2.0)
    pred = R.predicted_positive(p, 1, 150.0, 160.0)
    zeros = R.newton_zero(p, 1, pred)
    k = pred.real / math.pi
    assert np.all(np.abs(zeros - pred) * k ** 2 < 1.0)


@pytest.mark.parametrize("pot", [
    {"type": "constant", "value": {"re": 0.7, "im": -0.3}},
    {"type": "constant", "value": {"re": -1.2, "im": 0.0}},
])
def test_closed_form_and_integration_agree(pot):
    # lam^2 = 0.7 puts the 0.83666 point next to the branch point of sqrt w
    p = R.Problem(R.problem_dict(1.0, 2.0, 0.4 + 0.1j, 1.5, -0.8, pot, False))
    lam = np.array([0.0, 1e-6, 0.83666, 3.0 - 1.0j, -12.0 + 4.0j])
    ivp = R.charfns(p, lam, st=R.ivp_state(p, lam))
    cf = R.charfns(p, lam)
    for key in ("plus", "minus", "plus_dot", "minus_dot"):
        assert np.max(np.abs(cf[key] - ivp[key]) / cf[key + "_scale"]) < 1e-9


def test_closed_form_derivative_matches_difference_quotient():
    p = R.Problem(R.problem_dict(1.0, 0.5, 0.2, 2.5, -0.3,
                                 {"type": "constant", "value": {"re": 1.5, "im": 0.5}},
                                 False))
    lam = np.array([0.3 + 0.2j, 2.0 - 0.5j, 9.0 + 1.0j])
    h = 1e-6
    fd = (R.charfns(p, lam + h)["plus"] - R.charfns(p, lam - h)["plus"]) / (2 * h)
    got = R.charfns(p, lam)["plus_dot"]
    assert np.max(np.abs(fd - got) / np.abs(got)) < 1e-7


@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_one_seed_gives_one_hash_and_two_seeds_two(workload):
    a = W.inputs_hash(W.generate(workload, 1))
    assert a == W.inputs_hash(W.generate(workload, 1))
    assert a != W.inputs_hash(W.generate(workload, 2))


def test_direct_windows_keep_the_documented_shape():
    ops = W.generate("direct", 3)["ops"]
    assert len(ops) == 8 * W._DIRECT_CYCLES
    for op, slot in zip(ops, W._DIRECT_CYCLE * W._DIRECT_CYCLES):
        start, kind, alpha0, alpha, sign = slot
        x0, x1, y0, y1 = op["region"]["rect"]
        assert (x0, x1, op["kind"], op["sign"]) == (start, start + 20.0, kind, sign)
        assert (op["config"]["alpha0"], op["config"]["alpha"]) == (alpha0, alpha)
        assert abs(alpha0 - 1.0) >= 0.1 and abs(alpha - 1.0) >= 0.1


def test_self_time_subtracts_the_union_of_children():
    parent = spans.Span("roots.find_zeros", None, 0)
    parent.start, parent.end = 0.0, 10.0
    for lo, hi in ((1.0, 3.0), (2.0, 4.0), (6.0, 7.0)):
        child = spans.Span("charfn.delta", parent, 0)
        child.start, child.end = lo, hi
        parent.children.append(child)
    assert parent.self_time() == pytest.approx(6.0)


def test_pace_kernel_is_fixed_work_that_never_calls_reggespec():
    code = ("import sys, pace; a = pace.kernel(); b = pace.kernel(); "
            "print(a == b, any(m.startswith('reggespec') for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         cwd=os.path.dirname(os.path.abspath(__file__)))
    assert out.stdout.split() == ["True", "False"]


def test_pace_scales_an_operation_by_the_passes_around_it():
    p = pace.Pace()
    p.samples = [0.045, 0.045, 0.180, 0.180]
    p._mids = [0.0, 1.0, 10.0, 11.0]
    assert p.scale(0.5, 1.5) == pytest.approx(pace.REF_KERNEL_S / 0.045)
    assert p.scale(10.2, 10.8) == pytest.approx(0.6 * pace.REF_KERNEL_S / 0.180)
