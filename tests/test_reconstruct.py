"""Entire-function rebuilds from zero sets and the pairwise
characteristic-function combinations."""

import math

import numpy as np
import pytest

from reggespec.charfn import delta, delta_zero, robin_charfn
from reggespec.errors import (
    InconsistentInput,
    LimitNotConverged,
    OutOfDomain,
    ValidationError,
    ZeroAtOrigin,
)
from reggespec.model import Potential, ReggeProblem, Sign
from reggespec.reconstruct import (
    ZeroSet,
    even_delta_minus,
    even_minus,
    delta0_from_pair,
    hadamard_build,
    read_zeroset_csv,
    two_spectra_robin,
    write_zeroset_csv,
)

from conftest import (closed_form_problem, even_zero_problem, grid_problem,
                      worked_problem)

LN6 = math.log(6.0)


def _cos_zeroset(n: int) -> ZeroSet:
    """Zeros of z cos z up to index n: +-(k-1/2) pi plus the origin."""
    zs = [(s * (k - 0.5) * math.pi, 1)
          for k in range(1, n + 1) for s in (1.0, -1.0)]
    return ZeroSet(zeros=zs, order_at_origin=1)


def _cos_sin_zeroset(n: int) -> ZeroSet:
    """Zeros of z (cos z + sin z): -pi/4 + k pi plus the origin."""
    zs = [(-0.25 * math.pi + k * math.pi, 1)
          for k in range(-n, n + 1)]
    return ZeroSet(zeros=zs, order_at_origin=1)


def test_zeroset_validation():
    with pytest.raises(InconsistentInput):
        ZeroSet(zeros=[(0.0, 1)], order_at_origin=0)
    with pytest.raises(InconsistentInput):
        ZeroSet(zeros=[(1.0, 0)])
    with pytest.raises(InconsistentInput):
        ZeroSet(zeros=[(1.0, 1), (1.0 + 1e-12, 1)])
    with pytest.raises(InconsistentInput):
        ZeroSet(zeros=[], order_at_origin=-1)
    zs = ZeroSet(zeros=[(3.0, 2), (-1.0, 1)], order_at_origin=1)
    # sorted by magnitude
    assert list(zs.values) == [-1.0, 3.0]
    assert list(zs.weights) == [1.0, 2.0]


def test_zeroset_csv_round_trip(tmp_path):
    zs = ZeroSet(zeros=[(1.5 + 0.25j, 1), (-2.0 + 0.1j, 3)],
                 order_at_origin=2)
    path = tmp_path / "zeros.csv"
    write_zeroset_csv(str(path), zs)
    back = read_zeroset_csv(str(path))
    assert back.order_at_origin == 2
    assert np.allclose(back.values, zs.values)
    assert np.allclose(back.weights, zs.weights)


def test_zeroset_csv_rejects_wrong_column_count(tmp_path):
    # a spectrum CSV (5 columns) is not a zero-set CSV (3 columns)
    path = tmp_path / "spec.csv"
    path.write_text("k,re,im,multiplicity,residual\n1,3.14,0.89,1,0\n")
    with pytest.raises(InconsistentInput, match="re,im,multiplicity"):
        read_zeroset_csv(str(path))


def test_zeroset_refuses_non_finite_zeros():
    for z in (math.nan, complex(5.0, math.nan), math.inf):
        with pytest.raises(InconsistentInput, match="not finite"):
            ZeroSet(zeros=[(1.0, 1), (z, 1)])


def test_zeroset_csv_names_file_and_row_of_a_bad_number(tmp_path):
    path = tmp_path / "zeros.csv"
    for row in ("# order_at_origin=x", "nan,0,1", "1.5,0,two"):
        path.write_text(f"re,im,multiplicity\n2.5,0,1\n{row}\n")
        with pytest.raises(InconsistentInput, match="number in row") as exc:
            read_zeroset_csv(str(path))
        assert str(path) in str(exc.value) and row in str(exc.value)


def test_hadamard_recovers_z_cos_z():
    model = hadamard_build(_cos_zeroset(4000), "c1", 1.0)
    assert abs(model.b) < 1e-7
    assert abs(model.c - 1.0) < 1e-6
    assert model.class_residual < 1e-6
    pts = np.array([0.7, 2.0, -3.3, 1.0 + 0.5j])
    got = np.atleast_1d(model.eval(pts))
    exact = pts * np.cos(pts)
    assert np.abs(got - exact).max() < 1e-5


def test_hadamard_recovers_shifted_lattice():
    zs = _cos_sin_zeroset(4000)
    model = hadamard_build(zs, "c1", 1.0)
    assert abs(model.b - 1.0) < 1e-6
    assert abs(model.c - 1.0) < 1e-6
    assert abs(model.eval(2.0) - 0.9863011805570786) < 1e-5
    # the sum selector sees the same function through c1 + c2 = 2
    model2 = hadamard_build(zs, "c1+c2", 2.0)
    assert abs(model2.b - 1.0) < 1e-6
    assert abs(model2.c - 1.0) < 1e-6


def test_hadamard_branch_repair_on_complex_lattice():
    """-i Delta_+ of the zero-potential problem is z (5 cos z + 7i sin z);
    its exponent b = 1.4i sits outside the principal strip the sampling
    lattice can see, so the class fit must add a whole branch."""
    zs = ZeroSet(zeros=[(m * math.pi + 0.5j * LN6, 1)
                        for m in range(-2500, 2501)],
                 order_at_origin=1)
    model = hadamard_build(zs, "c1", 5.0)
    assert abs(model.b - 1.4j) < 1e-6
    assert abs(model.c - 5.0) < 1e-5
    assert model.branch_shift != 0
    z = np.array([1.3, -0.4 + 0.2j])
    exact = z * (5.0 * np.cos(z) + 7j * np.sin(z))
    assert np.abs(np.atleast_1d(model.eval(z)) - exact).max() < 1e-4 * np.abs(exact).max()


def test_hadamard_truncation_sweep_settles():
    """On a perturbed half-integer lattice the b estimates form a
    Cauchy-looking sequence in the truncation size."""
    zs = ZeroSet(zeros=[(s * ((k - 0.5) * math.pi + 0.3 / k), 1)
                        for k in range(1, 4001) for s in (1.0, -1.0)],
                 order_at_origin=1)
    bs = [hadamard_build(zs, "c1", 1.0, N=n).b
          for n in (500, 1000, 2000, 4000)]
    diffs = [abs(b1 - b0) for b0, b1 in zip(bs, bs[1:])]
    assert all(d1 < d0 for d0, d1 in zip(diffs, diffs[1:]))


def test_hadamard_probe_products_are_evaluated_once_per_block(monkeypatch):
    """The branch repair tries 7 shifts of b at 6 probe blocks, but only
    b z depends on the shift: ln E and the lattice tail are evaluated
    once for the sampling ladder and once per probe block."""
    import reggespec.reconstruct as rc

    calls = {"_log_E": 0, "_tail_log": 0}
    for name in calls:
        orig = getattr(rc, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(rc, name, counted)
    zs = ZeroSet(zeros=[(k * math.pi + 0.5j * LN6, 1)
                        for k in range(-1500, 1501)],
                 order_at_origin=1)
    model = hadamard_build(zs, "c1", 5.0)
    assert model.branch_shift != 0
    assert calls == {"_log_E": 7, "_tail_log": 7}


def test_hadamard_input_guards():
    zs = _cos_zeroset(100)
    with pytest.raises(InconsistentInput):
        hadamard_build(zs, "c3", 1.0)
    with pytest.raises(InconsistentInput):
        hadamard_build(zs, "c1", 0.0)
    with pytest.raises(LimitNotConverged):
        hadamard_build(_cos_zeroset(10), "c1", 1.0)


def test_even_minus_from_plus():
    p = even_zero_problem()
    dplus = lambda lam: delta(p, Sign.PLUS, lam)
    path = np.linspace(0.0, 4.0, 161)
    ev = even_delta_minus(dplus, p.alpha, path)
    direct = delta(p, Sign.MINUS, path.astype(complex))
    assert np.abs(ev.values - direct).max() < 1e-8
    # off-path queries: even reflection and vertical continuation
    for lam in (1.5 + 0.5j, -2.25, 0.75 - 0.3j):
        want = complex(delta(p, Sign.MINUS, np.array([lam], dtype=complex))[0])
        assert abs(ev(lam) - want) < 1e-6


def test_even_minus_rejects_zero_at_origin():
    p = closed_form_problem()  # beta0 = beta = 0 makes Delta_+(0) = 0
    dplus = lambda lam: delta(p, Sign.PLUS, lam)
    with pytest.raises(ZeroAtOrigin):
        even_delta_minus(dplus, p.alpha, np.linspace(0.0, 2.0, 41))


def test_even_minus_path_validation():
    p = even_zero_problem()
    dplus = lambda lam: delta(p, Sign.PLUS, lam)
    with pytest.raises(InconsistentInput):
        even_delta_minus(dplus, p.alpha, np.array([0.5, 1.0]))
    with pytest.raises(InconsistentInput):
        even_delta_minus(dplus, p.alpha, np.array([0.0, 1.0, 0.5]))


def _even_ends(q) -> ReggeProblem:
    return ReggeProblem(a=1.0, alpha0=2.0, beta0=1.0, alpha=2.0, beta=1.0,
                        potential=q, real_data=True)


def test_even_minus_refuses_a_problem_that_is_not_even():
    path = np.linspace(0.0, 2.0, 41)
    with pytest.raises(ValidationError, match="matching ends"):
        even_minus(worked_problem(), path)
    ramp = Potential.grid(np.linspace(0.0, 1.0, 33), 1.0, "linear")
    with pytest.raises(ValidationError, match=r"q\(x\) = q\(a - x\)"):
        even_minus(_even_ends(ramp), path)


@pytest.mark.parametrize("q", [
    Potential.zero(1.0),
    Potential.constant(0.7, 1.0),
    Potential.grid(np.cos(2.0 * math.pi * np.linspace(0.0, 1.0, 65)), 1.0,
                   "cubic"),
], ids=["zero", "constant", "even-grid"])
def test_even_minus_is_even_delta_minus_on_the_plus_function(q):
    p = _even_ends(q)
    path = np.linspace(0.0, 5.0, 41)
    want = even_delta_minus(lambda z: delta(p, Sign.PLUS, z, nsteps=512),
                            p.alpha, path)
    got = even_minus(p, path, nsteps=512)
    assert got.values.tobytes() == want.values.tobytes()


def test_delta0_from_pair_matches_direct():
    p = grid_problem(8)
    dplus = lambda lam: delta(p, Sign.PLUS, lam)
    dminus = lambda lam: delta(p, Sign.MINUS, lam)
    lam = np.array([0.0, 1e-10, 0.8, -2.0 + 1.0j, 4.5 - 0.5j])
    got = delta0_from_pair(dplus, dminus, p.alpha, lam)
    want = delta_zero(p, lam)
    assert np.abs(got - want).max() < 1e-6
    # scalar in, scalar out
    assert isinstance(delta0_from_pair(dplus, dminus, p.alpha, 0.5), complex)


def test_two_spectra_robin_equals_average():
    p = grid_problem(9)
    dplus = lambda lam: delta(p, Sign.PLUS, lam)
    dminus = lambda lam: delta(p, Sign.MINUS, lam)
    lam = np.array([0.3, 2.0 + 0.4j, -5.0])
    got = two_spectra_robin(dplus, dminus, lam)
    assert np.abs(got - robin_charfn(p, lam)).max() < 1e-12


def test_hadamard_eval_keeps_array_shape():
    """A one-point array gives a one-point array, as every other
    evaluator does; a scalar still gives a complex."""
    model = hadamard_build(_cos_zeroset(1000), "c1", 1.0)
    one = model.eval(np.array([0.7]))
    assert isinstance(one, np.ndarray) and one.shape == (1,)
    assert abs(one[0] - 0.7 * math.cos(0.7)) < 1e-5
    assert model.eval(np.array([0.0])).shape == (1,)
    assert isinstance(model.eval(0.7), complex)


@pytest.fixture(scope="module")
def lattice_model():
    """z cos z from 3,000 zeros, truncated at N = 2000."""
    return hadamard_build(_cos_zeroset(1500), "c1", 1.0, N=2000)


def test_hadamard_log_E_does_not_depend_on_batch_shape(lattice_model):
    """The product sums run in tiles of points, but each point adds the
    same blocks in the same order: a batch, its points one at a time and
    a 2-D reshape give the same bytes."""
    rng = np.random.default_rng(7)
    z = rng.uniform(-40.0, 40.0, 401) + 1j * rng.uniform(-3.0, 3.0, 401)
    whole = lattice_model.log_E(z)
    ones = np.concatenate([lattice_model.log_E(z[i:i + 1])
                           for i in range(len(z))])
    assert ones.tobytes() == whole.tobytes()
    grid = lattice_model.log_E(z[:399].reshape(7, 57))
    assert grid.shape == (7, 57)
    assert grid.ravel().tobytes() == whole[:399].tobytes()


def test_hadamard_eval_memory_does_not_grow_with_points(lattice_model):
    """Temporaries are bounded by the tile budget (1 MiB each), not by
    points x zeros: 201 and 401 points peak alike, under 8 MiB."""
    import tracemalloc

    def peak(n):
        z = np.linspace(-5.0, 5.0, n)
        tracemalloc.start()
        try:
            lattice_model.eval(z)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    lattice_model.eval(np.linspace(-5.0, 5.0, 201))   # warm-up
    p201, p401 = peak(201), peak(401)
    assert p401 < 8 * 2 ** 20
    assert abs(p401 - p201) < 2 ** 20


def test_hadamard_refuses_points_it_cannot_evaluate(lattice_model):
    """Beyond (start + cap * step) / 50 the capped lattice tail would
    lose its 1/50 rule and return a quietly wrong value."""
    reach = (999.5 * math.pi + 2_000_000 * math.pi) / 50.0
    for z in (math.nan, np.array([1.0, math.inf]), complex(0.0, math.nan),
              1.01 * reach, np.array([0.5, -1.01j * reach])):
        with pytest.raises(OutOfDomain):
            lattice_model.eval(z)
        with pytest.raises(OutOfDomain):
            lattice_model.log_E(z)


def test_log1p_is_called_in_one_function():
    """Every product sum goes through the tiled kernel: np.log1p appears
    in exactly one function of reconstruct.py."""
    import ast
    import reggespec.reconstruct as rc

    with open(rc.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    owners = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "log1p"
                and isinstance(node.value, ast.Name)
                and node.value.id == "np"):
            owners.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    assert owners == {"_add_product_sum"}
