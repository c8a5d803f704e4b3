"""Zero location on rectangles and the real-data axis checks."""

import csv
import math
import pathlib

import numpy as np
import pytest

from reggespec.asympt import asymptotic_model
from reggespec.errors import BoundaryZero, InconsistentInput, MultiplicityCap
from reggespec.model import Sign
from reggespec.roots import (
    _CUTS,
    Rectangle,
    compute_spectrum,
    find_zeros,
    imaginary_axis_zeros,
    index_eigenvalues,
    interlace_and_signs,
    newton_refine,
    pair_symmetry_check,
    pair_zeros,
    winding_count,
    write_spectrum_csv,
)

from conftest import below_axis_problem, closed_form_problem, grid_problem

LN6 = math.log(6.0)


def test_rectangle_rejects_empty_extent():
    with pytest.raises(InconsistentInput):
        Rectangle(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(InconsistentInput):
        Rectangle(0.0, 1.0, 2.0, -1.0)
    r = Rectangle(-1.0, 3.0, -2.0, 2.0)
    assert r.contains(1.0 + 0.0j)
    assert not r.contains(4.0 + 0.0j)
    assert r.contains(3.05 + 0.0j, margin=0.1)
    assert r.expanded(0.25).center == r.center


def test_winding_count_polynomials():
    f = lambda z: z ** 3 - 1.0
    fp = lambda z: 3.0 * z ** 2
    assert winding_count(f, Rectangle(-2, 2, -2, 2)) == 3
    assert winding_count(f, Rectangle(0.5, 1.5, -0.4, 0.4)) == 1
    assert winding_count(f, Rectangle(2, 3, 2, 3)) == 0
    # double zero counts with multiplicity
    g = lambda z: (z - 0.5) ** 2 * (z + 1.0)
    gp = lambda z: 2.0 * (z - 0.5) * (z + 1.0) + (z - 0.5) ** 2
    assert winding_count(g, Rectangle(0.0, 1.0, -0.5, 0.5)) == 2


def test_find_zeros_sine():
    zs = find_zeros(np.sin, np.cos, Rectangle(-7.0, 7.0, -1.0, 1.0))
    locs = sorted(z.real for z, _, _ in zs)
    exact = [k * math.pi for k in range(-2, 3)]
    assert len(locs) == 5
    assert max(abs(a - b) for a, b in zip(locs, exact)) < 1e-10
    assert all(m == 1 for _, m, _ in zs)
    assert all(r < 1e-10 for _, _, r in zs)


def test_find_zeros_honours_multiplicity_cap():
    # a fifth-order zero off the quadrisection cuts exceeds the cap of 4
    f = lambda z: (z - (0.3 + 0.1j)) ** 5
    fp = lambda z: 5.0 * (z - (0.3 + 0.1j)) ** 4
    with pytest.raises(MultiplicityCap):
        find_zeros(f, fp, Rectangle(0.0, 1.0, -0.5, 0.5))
    g = lambda z: (z - 0.5) ** 2 * (z + 1.0)
    gp = lambda z: 2.0 * (z - 0.5) * (z + 1.0) + (z - 0.5) ** 2
    zs = find_zeros(g, gp, Rectangle(0.0, 1.0, -0.5, 0.5))
    assert len(zs) == 1
    z, m, _ = zs[0]
    assert m == 2
    assert abs(z - 0.5) < 1e-5


@pytest.mark.parametrize("shift", _CUTS)
def test_quadrisect_tiles_parent(shift):
    r = Rectangle(-1.0, 3.0, 0.1, 0.7)
    sw, se, nw, ne = r.quadrisect(shift)
    # siblings share their cuts as equal floats; outer edges are r's
    assert sw.re_max == se.re_min == nw.re_max == ne.re_min
    assert sw.im_max == nw.im_min == se.im_max == ne.im_min
    assert sw.re_min == nw.re_min == r.re_min
    assert se.re_max == ne.re_max == r.re_max
    assert sw.im_min == se.im_min == r.im_min
    assert nw.im_max == ne.im_max == r.im_max
    assert sw.re_min < sw.re_max < r.re_max
    assert sw.im_min < sw.im_max < r.im_max


def test_quadrisect_default_cut_is_the_midpoint():
    # lo + 0.5 * (hi - lo) differs in the last bit on both axes here
    r = Rectangle(0.1, 0.7, -1.3, 2.9)
    assert r.quadrisect(0.0) == r.quadrisect()
    sw = r.quadrisect(0.0)[0]
    assert sw.re_max == 0.5 * (0.1 + 0.7)
    assert sw.im_max == 0.5 * (-1.3 + 2.9)


def test_no_overlapping_cells_in_src():
    """The search partitions; nothing under src grows a rectangle."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    callers = [f for f in src.rglob("*.py") if ".expanded(" in f.read_text()]
    assert callers == []


def test_find_zeros_neighbour_zero_near_cut():
    """Newton from the left cell lands on z2, just right of the cut: the
    cell is searched again instead, and both zeros are returned."""
    z1, z2 = -0.95 + 0.95j, 1e-5 + 0.5j
    f = lambda z: (z - z1) * (z - z2)
    fp = lambda z: 2.0 * z - z1 - z2
    zs = find_zeros(f, fp, Rectangle(-1.0, 1.0, -1.0, 1.0))
    assert len(zs) == 2
    assert abs(zs[0][0] - z1) < 1e-12 and abs(zs[1][0] - z2) < 1e-12


def test_find_zeros_refuses_zero_on_rect_edge():
    with pytest.raises(BoundaryZero, match="move an edge"):
        find_zeros(np.sin, np.cos, Rectangle(0.0, 4.0, -1.0, 1.0))


def test_find_zeros_refuses_zero_on_every_cut():
    """One zero on each cut the search may try in the first cell; with
    the last one gone, the last offset separates the rest."""
    zs = [s * (2.0 + 2.0j) for s in _CUTS]
    f = lambda z: np.prod([z - w for w in zs], axis=0)
    fp = lambda z: sum(np.prod([z - w for w in zs if w != v], axis=0)
                       for v in zs)
    with pytest.raises(BoundaryZero, match="every cut"):
        find_zeros(f, fp, Rectangle(-1.0, 1.0, -1.0, 1.0))
    zs.pop()
    assert len(find_zeros(f, fp, Rectangle(-1.0, 1.0, -1.0, 1.0))) == 5


def test_newton_refine_simple_and_multiple():
    z, res, ok = newton_refine(np.cos, lambda z: -np.sin(z),
                               np.array([1.4, 4.6]))
    assert ok.all()
    assert abs(z[0] - math.pi / 2) < 1e-12
    assert abs(z[1] - 3 * math.pi / 2) < 1e-12
    # multiplicity-aware step lands a triple zero in one stride
    f = lambda z: (z - 2.0) ** 3
    fp = lambda z: 3.0 * (z - 2.0) ** 2
    z3, _, ok3 = newton_refine(f, fp, 2.3, mult=3)
    assert ok3.all()
    assert abs(z3[0] - 2.0) < 1e-12


def test_closed_form_spectrum_and_indexing():
    p = closed_form_problem()
    spec = compute_spectrum(p, Sign.PLUS, Rectangle(-7.0, 7.0, -1.0, 2.0))
    assert len(spec.entries) == 6
    c = 0.5j * LN6
    expect = [0.0 + 0j, c, math.pi + c, -math.pi + c,
              2 * math.pi + c, -2 * math.pi + c]
    got = spec.lambdas()
    # pair each exact zero with its nearest computed one
    assert max(np.abs(got - e).min() for e in expect) < 1e-8
    assert all(e.multiplicity == 1 for e in spec.entries)
    assert all(e.residual < 1e-9 for e in spec.entries)

    model = asymptotic_model(p)
    assert model.case_sign < 0
    index_eigenvalues(spec, model, Sign.PLUS)
    by_k = spec.by_index()
    assert set(by_k) == {-3, -2, -1, 1, 2, 3}
    assert abs(by_k[-1].lam) < 1e-8
    assert abs(by_k[1].lam - c) < 1e-8
    assert abs(by_k[3].lam - (2 * math.pi + c)) < 1e-8


def test_pair_symmetry_check():
    p = closed_form_problem()
    spec = compute_spectrum(p, Sign.PLUS, Rectangle(-7.0, 7.0, -1.0, 2.0))
    ok, defect = pair_symmetry_check(spec)
    assert ok
    assert defect < 1e-8
    # drop one member of a mirror pair and the defect jumps
    spec.entries = [e for e in spec.entries if e.lam.real > -1.0]
    ok2, defect2 = pair_symmetry_check(spec)
    assert not ok2
    assert defect2 > 1.0


def test_pair_zeros_ignores_rounding_noise_in_real_parts():
    """Zeros on the imaginary axis carry real parts of rounding size, so
    sorting by (re, im) orders the two lists differently; pairing by
    least total distance still matches each zero with its twin."""
    direct = [-3.8943888316885693 + 0.66538250119551345j,
              -1.44e-26 + 0.23380315875710131j,
              4.058e-19 + 2.7554261091443069j]
    averaged = [-3.8943888316885693 + 0.66538250119551345j,
                4.058e-19 + 2.7554261091443069j,
                5.97e-19 + 0.23380315875710134j]
    row, col, dist = pair_zeros(direct, averaged)
    assert list(row) == [0, 1, 2] and list(col) == [0, 2, 1]
    assert dist.max() <= 1e-15


def test_imaginary_axis_zero_of_sunk_problem():
    p = below_axis_problem()
    taus = imaginary_axis_zeros(p, 3.0)
    assert len(taus) == 1
    assert abs(taus[0] - 1.2320177120044127) < 1e-9


def test_imaginary_axis_requires_real_data():
    p = grid_problem(7)
    assert not p.real_data
    with pytest.raises(InconsistentInput):
        imaginary_axis_zeros(p, 2.0)


def test_interlace_and_signs_on_true_zero():
    p = below_axis_problem()
    taus = imaginary_axis_zeros(p, 3.0)
    rep = interlace_and_signs(p, taus)
    assert rep.ok
    assert rep.sign_values_dot[0] < 0.0
    assert rep.sign_values_zero[0] > 0.0
    assert rep.interior_zero_counts == []


def test_interlace_flags_fabricated_zero():
    p = below_axis_problem()
    taus = imaginary_axis_zeros(p, 3.0)
    # appending a fake zero flips the parity of the true one
    fake = taus + [taus[0] + 0.4]
    rep = interlace_and_signs(p, fake)
    assert not rep.ok
    assert rep.violations[0].startswith("sign")


def test_spectrum_csv_round_trip(tmp_path):
    p = closed_form_problem()
    spec = compute_spectrum(p, Sign.PLUS, Rectangle(-7.0, 7.0, -1.0, 2.0))
    index_eigenvalues(spec, asymptotic_model(p), Sign.PLUS)
    out = tmp_path / "spec.csv"
    write_spectrum_csv(spec, str(out))
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    lam0 = [r for r in rows if r["k"] == "1"][0]
    assert float(lam0["im"]) == pytest.approx(0.5 * LN6, abs=1e-8)
    # 17 significant digits survive a parse round trip exactly
    for r in rows:
        assert float(r["re"]) == float(f"{float(r['re']):.17g}")
