"""Command-line front end: parse configs, run pipelines, emit CSV/SVG.

Exit codes: 0 success (all checks passed), 1 a verification or
comparison failed, 2 config/usage error (out-of-range flags included:
--nsteps >= 8, --count, --kmax >= 1, --samples >= 2, --trunc >= 32,
--angles >= 4; --tol, --lam-max, --tau-max, --window, --split, --b-plus,
--b-minus finite and > 0), 3 numerical failure inside a solver
(including a zero search whose zeros do not add up to the winding count
of its rectangle).
Numeric output is printed with 17 significant digits so values
round-trip losslessly; every file is written to a temporary name in the
same directory and renamed, so a failing run leaves no partial artifacts.

Every zero search -- Delta_+ and Delta_-, the interior function Delta_0
(`spectrum --sign interior`) and both Robin routes (`reconstruct --mode
two-spectra`) -- runs `roots.locate_zeros`: a coarse search mesh, then
Newton polish at the full mesh.

Runs are deterministic: the only randomness is the generator seeded by
--seed in `verify`.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .errors import (
    InconsistentInput,
    NumericalError,
    ValidationError,
)
from .model import (ReggeProblem, Sign, _csv_numbers, atomic_write_text,
                    load_problem, write_csv)
from .charfn import delta, energy_terms, identity_terms, wronskian_delta
from .roots import (
    Rectangle,
    compute_spectrum,
    find_zeros,  # noqa: F401 -- unused; bench/spans.py wraps it by name
    imaginary_axis_zeros,
    index_eigenvalues,
    interlace_and_signs,
    pair_symmetry_check,
    pair_zeros,
    robin_zeros,
    write_spectrum_csv,
)
from .asympt import (
    asymptotic_model,
    lattice_indices,
    mu_k,
    predicted_lambda,
    residual_tail,
    write_residual_tail_csv,
)
from .reconstruct import (
    ZeroSet,
    even_delta_minus,
    hadamard_build,
    read_zeroset_csv,
)
from .partialinv import (
    critical_diagnostics,
    default_radius_schedule,
    density_check,
    f_mismatch_logabs,
    indicator_estimate,
    refine_subset,
    sparse_subset,
    weighted_deviation,
    write_critical_csv,
)

__all__ = ["build_parser", "main"]


# ---- small helpers ---------------------------------------------------------

def _g(x) -> str:
    """17 significant digits for printed lines; files go through write_csv."""
    return f"{float(x):.17g}"


def _cg(z) -> str:
    z = complex(z)
    return f"{z.real:.17g} {z.imag:+.17g}i"


def _finite_floats(parts: list, flag: str, spec: str) -> list:
    """Each part as a float; a malformed or non-finite one is a config
    error naming the flag."""
    try:
        vals = [float(t) for t in parts]
    except ValueError as exc:
        raise ValidationError(f"{flag}: {exc}") from exc
    if not all(map(math.isfinite, vals)):
        raise ValidationError(f"{flag} values must be finite; got {spec!r}")
    return vals


def _parse_rect(spec: str) -> Rectangle:
    parts = spec.split(",")
    if len(parts) != 4:
        raise ValidationError(
            f"--rect needs re_min,re_max,im_min,im_max; got {spec!r}")
    return Rectangle(*_finite_floats(parts, "--rect", spec))


def _parse_complex(spec: str, flag: str) -> complex:
    parts = spec.split(",")
    if len(parts) not in (1, 2):
        raise ValidationError(f"{flag} takes re or re,im; got {spec!r}")
    return complex(*_finite_floats(parts, flag, spec))


def _parse_floats(spec: str, flag: str) -> np.ndarray:
    return np.array(_finite_floats(spec.split(","), flag, spec))


def _tol(args, default: float) -> float:
    return default if args.tol is None else args.tol


def _int_at_least(lo: int):
    """argparse type: an integer >= lo, else a usage error naming the flag."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value
    parse.__name__ = "int"      # argparse names the type in its messages
    return parse


def _positive_float(text: str) -> float:
    """argparse type: a finite float > 0, else a usage error."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


_positive_float.__name__ = "float"


def _need(value, flag: str):
    if value is None:
        raise ValidationError(f"{flag} is required for this command")
    return value


def _load(args) -> ReggeProblem:
    return load_problem(_need(args.config, "--config"))


def _sign_of(name: str) -> Sign:
    return Sign.PLUS if name == "plus" else Sign.MINUS


def _auto_rect(p: ReggeProblem, model, sign: Sign | None, kmax) -> Rectangle:
    """Rectangle wide enough for lattice indices |k| <= kmax.

    Real extent ends a quarter step past the last lattice point so no
    zero sits on the contour; the vertical band covers the logarithmic
    shift plus room for low-lying zeros below the axis.
    """
    if kmax is None:
        raise ValidationError("give --rect or --kmax")
    if sign is None:
        shift = 0.0
    else:
        if model is None or model.case_sign == 0:
            raise ValidationError(
                "degenerate lattice (alpha0 = 1 or alpha = 1): "
                "give --rect explicitly")
        shift = model.P0(sign) / (2.0 * p.a)
    re_hi = (kmax + 0.75) * math.pi / p.a
    pad = max(1.5, 1.5 / p.a)
    return Rectangle(-re_hi, re_hi, min(0.0, shift) - pad,
                     max(0.0, shift) + pad)


def _region(args, p: ReggeProblem, model, sign: Sign | None,
            default_kmax=None) -> Rectangle:
    """--rect when given, else _auto_rect for --kmax (or default_kmax)."""
    if args.rect is not None:
        return _parse_rect(args.rect)
    kmax = args.kmax if args.kmax is not None else default_kmax
    return _auto_rect(p, model, sign, kmax)


# ---- SVG scatter ------------------------------------------------------------

def _nice_step(span: float) -> float:
    raw = span / 6.0
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 5.0, 10.0):
        if raw <= m * mag * (1.0 + 1e-12):
            return m * mag
    return 10.0 * mag


def _ticks(lo: float, hi: float) -> list:
    step = _nice_step(hi - lo)
    t = math.ceil(lo / step - 1e-9) * step
    out = []
    while t <= hi + 1e-9 * step:
        out.append(0.0 if abs(t) < 1e-9 * step else t)
        t += step
    return out


def _svg_scatter(points, overlay, title: str) -> str:
    """Static scatter of complex values; crosses mark the overlay lattice.

    Pixel coordinates are emitted with fixed precision so identical
    inputs give identical bytes.
    """
    W, H = 720, 480
    ml, mr, mt, mb = 64, 20, 36, 48
    xs = [p[0] for p in points] + [p[0] for p in overlay]
    ys = [p[1] for p in points] + [p[1] for p in overlay]
    if not xs:
        xs, ys = [0.0], [0.0]
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(ys), max(ys)
    if xhi - xlo < 1e-12:
        xlo, xhi = xlo - 1.0, xhi + 1.0
    if yhi - ylo < 1e-12:
        ylo, yhi = ylo - 1.0, yhi + 1.0
    xpad = 0.08 * (xhi - xlo)
    ypad = 0.08 * (yhi - ylo)
    xlo, xhi = xlo - xpad, xhi + xpad
    ylo, yhi = ylo - ypad, yhi + ypad

    def px(x: float) -> float:
        return ml + (x - xlo) / (xhi - xlo) * (W - ml - mr)

    def py(y: float) -> float:
        return H - mb - (y - ylo) / (yhi - ylo) * (H - mt - mb)

    el = []
    el.append(f'<rect x="{ml}" y="{mt}" width="{W - ml - mr}" '
              f'height="{H - mt - mb}" fill="white" stroke="#444"/>')
    for t in _ticks(xlo, xhi):
        x = px(t)
        el.append(f'<line x1="{x:.2f}" y1="{H - mb}" x2="{x:.2f}" '
                  f'y2="{H - mb + 5}" stroke="#444"/>')
        el.append(f'<text x="{x:.2f}" y="{H - mb + 18}" font-size="11" '
                  f'text-anchor="middle">{t:.6g}</text>')
    for t in _ticks(ylo, yhi):
        y = py(t)
        el.append(f'<line x1="{ml - 5}" y1="{y:.2f}" x2="{ml}" '
                  f'y2="{y:.2f}" stroke="#444"/>')
        el.append(f'<text x="{ml - 8}" y="{y + 4:.2f}" font-size="11" '
                  f'text-anchor="end">{t:.6g}</text>')
    # dashed zero axes when they cross the frame
    if xlo < 0 < xhi:
        x = px(0.0)
        el.append(f'<line x1="{x:.2f}" y1="{mt}" x2="{x:.2f}" y2="{H - mb}" '
                  f'stroke="#bbb" stroke-dasharray="4 3"/>')
    if ylo < 0 < yhi:
        y = py(0.0)
        el.append(f'<line x1="{ml}" y1="{y:.2f}" x2="{W - mr}" y2="{y:.2f}" '
                  f'stroke="#bbb" stroke-dasharray="4 3"/>')
    for x, y in overlay:
        cx, cy = px(x), py(y)
        el.append(f'<path d="M {cx - 4:.2f} {cy - 4:.2f} L {cx + 4:.2f} '
                  f'{cy + 4:.2f} M {cx - 4:.2f} {cy + 4:.2f} L {cx + 4:.2f} '
                  f'{cy - 4:.2f}" stroke="#999" fill="none"/>')
    for x, y in points:
        el.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" '
                  f'fill="#1f6feb" fill-opacity="0.85"/>')
    el.append(f'<text x="{W / 2:.0f}" y="20" font-size="13" '
              f'text-anchor="middle">{title}</text>')
    el.append(f'<text x="{W / 2:.0f}" y="{H - 10}" font-size="12" '
              f'text-anchor="middle">Re</text>')
    el.append(f'<text x="16" y="{H / 2:.0f}" font-size="12" '
              f'text-anchor="middle" transform="rotate(-90 16 {H / 2:.0f})">'
              f'Im</text>')
    body = "\n  ".join(el)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" '
            f'height="{H}" viewBox="0 0 {W} {H}" font-family="sans-serif">\n'
            f'  {body}\n</svg>\n')


def _lattice_overlay(p: ReggeProblem, model, sign: Sign,
                     rect: Rectangle) -> list:
    if model is None or model.case_sign == 0:
        return []
    lo = int(math.floor(rect.re_min * p.a / math.pi)) - 2
    hi = int(math.ceil(rect.re_max * p.a / math.pi)) + 2
    mus = (mu_k(model, sign, k) for k in lattice_indices(model, lo, hi))
    return [(mu.real, mu.imag) for mu in mus if rect.contains(mu)]


# ---- spectrum ---------------------------------------------------------------

def cmd_spectrum(args) -> int:
    p = _load(args)
    tol = _tol(args, 1e-12)
    model = asymptotic_model(p, strict=False)
    interior = args.sign == "interior"
    sign = None if interior else _sign_of(args.sign)
    rect = _region(args, p, model, sign)
    spec = compute_spectrum(p, sign, rect, tol=tol, nsteps=args.nsteps)
    lattice = None if interior or model.case_sign == 0 else model
    spec = index_eigenvalues(spec, lattice, sign)

    out = _need(args.out, "--out")
    if args.predict:
        if interior:
            raise ValidationError(
                "--predict needs the plus or minus lattice; "
                "the interior function has no two-term prediction here")
        if model.case_sign == 0:
            raise ValidationError(
                "--predict unavailable: degenerate lattice "
                "(alpha0 = 1 or alpha = 1)")
        write_csv(out, "k,re,im,multiplicity,residual,predicted_re,"
                  "predicted_im",
                  ((e.k, e.lam, e.multiplicity, e.residual,
                    *((None, None) if e.k is None
                      else (predicted_lambda(model, sign, e.k),)))
                   for e in spec.entries))
    else:
        write_spectrum_csv(spec, out)

    if args.svg is not None:
        pts = [(e.lam.real, e.lam.imag) for e in spec.entries]
        overlay = []
        if args.overlay and not interior:
            overlay = _lattice_overlay(p, model, sign, rect)
        atomic_write_text(args.svg, _svg_scatter(pts, overlay,
                                                 f"spectrum ({args.sign})"))
    n = len(spec.entries)
    print(f"{n} eigenvalue{'s' if n != 1 else ''} in "
          f"[{_g(rect.re_min)}, {_g(rect.re_max)}] x "
          f"[{_g(rect.im_min)}, {_g(rect.im_max)}] -> {out}")
    return 0


# ---- verify -----------------------------------------------------------------

def _disc_draws(rng, n: int, radius: float) -> np.ndarray:
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    return r * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))


def _verify_identity(p, args):
    rng = np.random.default_rng(args.seed)
    lams = _disc_draws(rng, args.count, args.lam_max)
    plus, minus, quad = identity_terms(p, lams, nsteps=args.nsteps)
    res = np.abs(plus - minus - quad)
    # relative to the largest competing term of the identity
    scale = np.maximum(1.0, np.maximum(np.abs(quad), np.maximum(
        np.abs(plus), np.abs(minus))))
    rel = res / scale
    return (float(rel.max()), "lam_re,lam_im,residual_abs,residual_rel",
            zip(lams, res, rel))


def _verify_energy(p, args):
    rng = np.random.default_rng(args.seed)
    lams = _disc_draws(rng, args.count, args.lam_max)
    lhs, *terms = energy_terms(p, lams, nsteps=args.nsteps)
    res = np.abs(sum(terms) - lhs)
    # the boundary terms of the identity set the comparison scale
    rel = res / np.maximum(1.0, np.maximum.reduce(np.abs(terms)))
    return (float(rel.max()), "lam_re,lam_im,residual_abs,residual_rel",
            zip(lams, res, rel))


def _verify_wronskian(p, args):
    rng = np.random.default_rng(args.seed)
    lams = _disc_draws(rng, args.count, args.lam_max)
    xs = rng.uniform(0.1 * p.a, 0.9 * p.a, args.count)
    # samples alternate plus, minus; Delta at x = a is one batch per sign
    d = np.empty(args.count, dtype=complex)
    for k, s in enumerate((Sign.PLUS, Sign.MINUS)[:args.count]):
        d[k::2] = delta(p, s, lams[k::2], nsteps=args.nsteps)
    rows, worst = [], 0.0
    for i, (lam, x) in enumerate(zip(lams, xs)):
        s = Sign.PLUS if i % 2 == 0 else Sign.MINUS
        w = wronskian_delta(p, s, lam, float(x), nsteps=args.nsteps)
        rel = abs(w - d[i]) / max(1.0, abs(d[i]))
        worst = max(worst, rel)
        rows.append((lam, x, s.name.lower(), rel))
    return worst, "lam_re,lam_im,x,sign,residual_rel", rows


def cmd_verify(args) -> int:
    p = _load(args)
    which = args.which

    if which in ("identity", "energy", "wronskian"):
        tol = _tol(args, {"identity": 1e-8, "energy": 1e-6,
                          "wronskian": 1e-8}[which])
        fn = {"identity": _verify_identity, "energy": _verify_energy,
              "wronskian": _verify_wronskian}[which]
        worst, header, rows = fn(p, args)
        if args.out is not None:
            write_csv(args.out, header, rows)
        ok = worst <= tol
        print(f"{'PASS' if ok else 'FAIL'} {which}: max relative residual "
              f"{_g(worst)} (tol {_g(tol)}, {args.count} samples, "
              f"seed {args.seed})")
        return 0 if ok else 1

    if which == "symmetry":
        if not p.real_data:
            raise InconsistentInput(
                "symmetry check refused: the spectrum is closed under "
                "lam -> -conj(lam) only for a problem declared real_data")
        tol = _tol(args, 1e-8)
        model = asymptotic_model(p, strict=False)
        sign = _sign_of(args.sign)
        rect = _region(args, p, model, sign)
        spec = compute_spectrum(p, sign, rect, nsteps=args.nsteps)
        ok, defect = pair_symmetry_check(spec, tol)
        if args.out is not None:
            spec = index_eigenvalues(
                spec, model if model.case_sign != 0 else None, sign)
            write_spectrum_csv(spec, args.out)
        print(f"{'PASS' if ok else 'FAIL'} symmetry: {len(spec.entries)} "
              f"eigenvalues, max mirror defect {_g(defect)} (tol {_g(tol)})")
        return 0 if ok else 1

    # interlace: the parser admits no other check
    if not p.real_data:
        raise InconsistentInput(
            "interlacing check refused: it needs real_data")
    taus = imaginary_axis_zeros(p, tau_max=args.tau_max, nsteps=args.nsteps)
    rep = interlace_and_signs(p, taus, nsteps=args.nsteps)
    if args.out is not None:
        write_csv(args.out, "tau,sign_value_dot,sign_value_zero",
                  zip(rep.taus, rep.sign_values_dot, rep.sign_values_zero))
    wit = ", ".join(_g(t) for t in rep.taus) if rep.taus else "none"
    n = len(rep.taus)
    print(f"{'PASS' if rep.ok else 'FAIL'} interlace: "
          f"{n} zero{'s' if n != 1 else ''} below the axis at tau = "
          f"{wit} (scan up to {_g(args.tau_max)})")
    for v in rep.violations:
        print(f"  violation: {v}")
    return 0 if rep.ok else 1


# ---- asympt -----------------------------------------------------------------

def cmd_asympt(args) -> int:
    p = _load(args)
    model = asymptotic_model(p)
    sign = _sign_of(args.sign)
    rect = _region(args, p, model, sign, default_kmax=40)
    spec = compute_spectrum(p, sign, rect, nsteps=args.nsteps)
    spec = index_eigenvalues(spec, model, sign)
    tail = residual_tail(spec, model, sign, min_abs_k=args.min_k)

    print(f"case_sign {model.case_sign:+d}   a {_g(model.a)}")
    print(f"P0_plus  {_g(model.P0_plus)}   P0_minus {_g(model.P0_minus)}")
    print(f"P        {_cg(model.P)}")
    print(f"omega    {_cg(model.omega)}   K1aa {_cg(model.K1aa)}")
    print(f"M_plus   {_cg(model.M_plus)}   M_minus {_cg(model.M_minus)}")
    print(f"N_plus   {_cg(model.N_plus)}   N_minus {_cg(model.N_minus)}")

    if tail:
        mags = [(abs(k), abs(b)) for k, b in tail]
        mags.sort()
        half = len(mags) // 2
        near = max(m for _, m in mags[:half]) if half else mags[0][1]
        far = max(m for _, m in mags[half:])
        print(f"residual tail: {len(tail)} entries, |k| >= {args.min_k}; "
              f"max |beta| near {_g(near)} far {_g(far)} "
              f"({'decreasing' if far <= near else 'not decreasing'})")
    else:
        print("residual tail: no indexed eigenvalues beyond the cutoff")
    if args.out is not None:
        write_residual_tail_csv(args.out, tail)
        print(f"wrote {args.out}")
    return 0


# ---- reconstruct ------------------------------------------------------------

def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(",")
    if len(parts) != 3:
        raise ValidationError(f"--grid needs lo,hi,n; got {spec!r}")
    lo, hi = _finite_floats(parts[:2], "--grid", spec)
    try:
        n = int(parts[2])
    except ValueError as exc:
        raise ValidationError(f"--grid: {exc}") from exc
    if n < 2 or not hi > lo:
        raise ValidationError("--grid needs hi > lo and n >= 2")
    return np.linspace(lo, hi, n)


def _recon_hadamard(args) -> int:
    zs = read_zeroset_csv(_need(args.zeros, "--zeros"))
    c0 = _parse_complex(args.c0, "--c0")
    xs = _parse_grid(args.grid)
    tol = _tol(args, 1e-4)
    model = hadamard_build(zs, args.selector, c0, N=args.trunc, tol=tol)
    vals = model.eval(xs.astype(complex))
    out = _need(args.out, "--out")
    write_csv(out, "x,re,im", zip(xs, vals))
    print(f"exponent b = {_cg(model.b)}")
    print(f"constant c = {_cg(model.c)}")
    print(f"selector {model.selector}, {model.truncation} zeros kept, "
          f"branch shift {model.branch_shift:+d}, class residual "
          f"{_g(model.class_residual)}")
    print(f"wrote {out} ({len(xs)} samples)")
    return 0


def _even_potential(p: ReggeProblem) -> bool:
    q = p.potential
    if q.kind in ("zero", "constant"):
        return True
    s = q.samples
    scale = 1.0 + float(np.abs(s).max())
    return bool(np.abs(s - s[::-1]).max() <= 1e-10 * scale)


def _recon_even(args) -> int:
    p = _load(args)
    if abs(p.alpha0 - p.alpha) > 1e-12 or abs(p.beta0 - p.beta) > 1e-12:
        raise ValidationError(
            "even mode needs matching ends: alpha0 = alpha, beta0 = beta")
    if not _even_potential(p):
        raise ValidationError("even mode needs q(x) = q(a - x)")
    tol = _tol(args, 1e-6)
    path = np.linspace(0.0, args.lam_max, args.samples)

    def dplus(z):
        return delta(p, Sign.PLUS, z, nsteps=args.nsteps)

    ev = even_delta_minus(dplus, p.alpha, path)
    recon = ev.values
    direct = delta(p, Sign.MINUS, path.astype(complex), nsteps=args.nsteps)
    err = np.abs(recon - direct)
    rel = err / np.maximum(1.0, np.abs(direct))
    out = _need(args.out, "--out")
    write_csv(out, "lam,direct_re,direct_im,recon_re,recon_im,abs_err,rel_err",
              zip(path, direct, recon, err, rel))
    worst = float(rel.max())
    ok = worst <= tol
    print(f"{'PASS' if ok else 'FAIL'} even reconstruction: max relative "
          f"error {_g(worst)} over [0, {_g(args.lam_max)}] "
          f"({args.samples} samples, tol {_g(tol)})")
    print(f"wrote {out}")
    return 0 if ok else 1


def _recon_two_spectra(args) -> int:
    p = _load(args)
    tol = _tol(args, 1e-8)
    rect = _parse_rect(_need(args.rect, "--rect"))
    zd = sorted((z for z, _, _ in robin_zeros(p, rect, nsteps=args.nsteps)),
                key=lambda z: (z.real, z.imag))
    za = [z for z, _, _ in robin_zeros(p, rect, averaged=True,
                                       nsteps=args.nsteps)]
    out = _need(args.out, "--out")
    rows, worst = [], 0.0
    if len(za) != len(zd):
        worst = math.inf
        rows.append(f"# count mismatch: {len(zd)} direct vs {len(za)} "
                    f"averaged")
    else:
        for i, j, dist in zip(*pair_zeros(zd, za)):
            worst = max(worst, dist)
            rows.append((zd[i], za[j], dist))
    write_csv(out, "re_direct,im_direct,re_averaged,im_averaged,distance",
              rows)
    ok = worst <= tol
    print(f"{'PASS' if ok else 'FAIL'} two-spectra: {len(zd)} Robin zeros, "
          f"max distance {_g(worst)} (tol {_g(tol)})")
    print(f"wrote {out}")
    return 0 if ok else 1


def cmd_reconstruct(args) -> int:
    return {"hadamard": _recon_hadamard, "even": _recon_even,
            "two-spectra": _recon_two_spectra}[args.mode](args)


# ---- partial ----------------------------------------------------------------

def cmd_partial(args) -> int:
    p1 = _load(args)
    p2 = load_problem(_need(args.config2, "--config2"))
    if args.b_plus is not None or args.b_minus is not None:
        if args.b_plus is None or args.b_minus is None:
            raise ValidationError("--b-plus and --b-minus go together")
        b_plus, b_minus = args.b_plus, args.b_minus
    else:
        split = _need(args.split, "--split")
        b_plus = b_minus = split
    b = 0.5 * (b_plus + b_minus)
    out = _need(args.out, "--out")

    model = asymptotic_model(p1)
    a = model.a
    kmax = args.kmax if args.kmax is not None else 60
    radii = (_parse_floats(args.radii, "--radii") if args.radii is not None
             else default_radius_schedule(a))
    tsched = _parse_floats(args.tsched, "--tsched")
    angles = np.linspace(0.0, 2.0 * math.pi, args.angles, endpoint=False)

    def logF(z):
        return f_mismatch_logabs(p1, p2, b, z, nsteps=args.nsteps)

    # every report is assembled before anything is written, so a failure
    # below leaves no files behind
    ind = indicator_estimate(logF, angles=angles, radii=radii, logabs=True)
    with np.errstate(invalid="ignore"):
        scaled = ind.logmag - np.log(radii)[None, :] \
            - 2.0 * b * radii[None, :] * np.abs(np.sin(angles))[:, None]
    # math.exp per radius: np.exp rounds some last digits differently
    growth = [(r, ind.logmag[:, j].max(), math.exp(scaled[:, j].max()))
              for j, r in enumerate(radii)]
    bounds = [2.0 * b * abs(math.sin(th)) for th in ind.angles]
    excess = max([-math.inf, *(h - bd for h, bd in zip(ind.h, bounds))])

    sp, notes_p = refine_subset(p1, model, Sign.PLUS, kmax, args.nsteps)
    sm, notes_m = refine_subset(p1, model, Sign.MINUS, kmax, args.nsteps)
    if not sp or not sm:
        raise NumericalError(
            "eigenvalue subsets came back empty; widen --kmax")

    # probe radii must stay inside the computed set, otherwise the
    # counting ratio reports the truncation instead of the density
    reach = min(max(abs(z) for _, z in sp), max(abs(z) for _, z in sm))
    dens_radii = radii[radii <= reach]
    clipped = len(dens_radii) < len(radii)
    if len(dens_radii) < 2:
        dens_radii = reach * np.array([0.125, 0.25, 0.5, 1.0]) * 0.98
    dens = {}
    for name, pairs in (("plus", sp), ("minus", sm)):
        zs = ZeroSet(zeros=[(z, 1) for _, z in pairs], order_at_origin=0)
        dens[name] = density_check(zs, a, dens_radii, window=args.window)

    ssp, snotes_p = sparse_subset(model, Sign.PLUS, b_plus, sp)
    ssm, snotes_m = sparse_subset(model, Sign.MINUS, b_minus, sm)
    if not ssp or not ssm:
        raise NumericalError(
            "rescaled-lattice subsets came back empty; widen --kmax "
            "or enlarge the split")
    dev = weighted_deviation(ssp, ssm, b_plus, b_minus, model)

    diag = critical_diagnostics(p1, p2, b_plus, b_minus, (ssp, ssm), tsched,
                                nsteps=args.nsteps)

    reports = {
        "growth": ("r,sup_logabs_F,scaled_sup", growth),
        "indicator": ("theta,h,bound", zip(ind.angles, ind.h, bounds)),
        "density": ("r,ratio_plus,ratio_minus", zip(
            dens_radii, dens["plus"].ratios, dens["minus"].ratios)),
        "deviation": ("total,plus_sum,minus_sum,plus_jmin,plus_jmax,"
                      "minus_jmin,minus_jmax",
                      [(dev.total, dev.plus_sum, dev.minus_sum,
                        *dev.plus_range, *dev.minus_range)]),
    }
    for name, (header, rows) in reports.items():
        write_csv(f"{out}_{name}.csv", header, rows)
    write_critical_csv(f"{out}_e0.csv", diag)

    print(f"partial diagnostics: a {_g(a)}, split b {_g(b)} "
          f"(b_plus {_g(b_plus)}, b_minus {_g(b_minus)})")
    print(f"subsets: plus {len(sp)} eigenvalues, minus {len(sm)} "
          f"(|j| <= {kmax}); rescaled-lattice subsets {len(ssp)} / "
          f"{len(ssm)}")
    for n in notes_p + notes_m + snotes_p + snotes_m:
        print(f"  note: {n}")
    if clipped:
        print(f"  note: density radii clipped to the computed reach "
              f"{_g(reach)}")
    print(f"indicator: max excess over 2 b |sin theta| = {_g(excess)}")
    print(f"density: plus "
          f"{'stabilized' if dens['plus'].stabilized else 'not stabilized'} "
          f"(last ratio {_g(dens['plus'].ratios[-1])}), minus "
          f"{'stabilized' if dens['minus'].stabilized else 'not stabilized'} "
          f"(last ratio {_g(dens['minus'].ratios[-1])})")
    print(f"weighted deviation total {_g(dev.total)}")
    e0 = np.abs(diag.E0)
    print(f"E0 on the t schedule: {_g(e0[0])} -> {_g(e0[-1])}, "
          f"{'decreasing' if diag.decreasing else 'not decreasing'}")
    for name in (*reports, "e0"):
        print(f"wrote {out}_{name}.csv")
    return 0


# ---- plot -------------------------------------------------------------------

def _read_points_csv(path: str) -> list:
    """(re, im) pairs from any of the package CSV layouts."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()
                 and not ln.startswith("#")]
    if not lines:
        raise ValidationError(f"{path}: empty file")
    header = lines[0].split(",")
    try:
        i_re = header.index("re")
        i_im = header.index("im")
    except ValueError as exc:
        raise ValidationError(
            f"{path}: header has no re/im columns") from exc
    pts = []
    for ln in lines[1:]:
        cols = ln.split(",")
        if len(cols) <= max(i_re, i_im):
            raise ValidationError(f"{path}: bad row {ln!r}")
        pts.append(tuple(_csv_numbers(path, ln, (cols[i_re], cols[i_im]),
                                      (float, float))))
    return pts


def cmd_plot(args) -> int:
    out = _need(args.out, "--out")
    if args.config is not None:
        p = load_problem(args.config)
        model = asymptotic_model(p, strict=False)
        sign = _sign_of(args.sign)
    if args.infile is not None:
        pts = _read_points_csv(args.infile)
        title = args.title if args.title is not None else args.infile
    elif args.config is not None:
        rect = _region(args, p, model, sign)
        spec = compute_spectrum(p, sign, rect, nsteps=args.nsteps)
        pts = [(e.lam.real, e.lam.imag) for e in spec.entries]
        title = (args.title if args.title is not None
                 else f"spectrum ({args.sign})")
    else:
        raise ValidationError("plot needs --in or --config")

    overlay = []
    if args.overlay:
        if args.config is None:
            raise ValidationError("--overlay needs --config for the lattice")
        if model.case_sign == 0:
            raise ValidationError("--overlay unavailable: degenerate lattice")
        xs = [x for x, _ in pts] or [0.0]
        ys = [y for _, y in pts] or [0.0]
        box = Rectangle(min(xs) - 1.0, max(xs) + 1.0,
                        min(ys) - 1.0, max(ys) + 1.0)
        overlay = _lattice_overlay(p, model, sign, box)

    atomic_write_text(out, _svg_scatter(pts, overlay, title))
    print(f"wrote {out} ({len(pts)} points"
          f"{f', {len(overlay)} lattice marks' if overlay else ''})")
    return 0


# ---- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="problem config JSON")
    common.add_argument("--out", help="output path (prefix for partial)")
    common.add_argument("--tol", type=_positive_float,
                        help="tolerance override (> 0)")
    common.add_argument("--rect", metavar="A,B,C,D",
                        help="search rectangle re_min,re_max,im_min,im_max")
    common.add_argument("--kmax", type=_int_at_least(1),
                        help="lattice index bound (>= 1; synthesizes --rect)")
    common.add_argument("--nsteps", type=_int_at_least(8),
                        help="integrator mesh override (>= 8)")

    ap = argparse.ArgumentParser(
        prog="reggespec",
        description="Spectra and inverse-spectral cross checks for the "
                    "Schrodinger operator with two spectral-parameter-"
                    "dependent boundary conditions.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", parents=[common],
                        help="eigenvalues in a rectangle, as CSV")
    sp.add_argument("--sign", choices=("plus", "minus", "interior"),
                    default="plus")
    sp.add_argument("--predict", action="store_true",
                    help="append the two-term lattice prediction per index")
    sp.add_argument("--svg", help="also write an SVG scatter here")
    sp.add_argument("--overlay", action="store_true",
                    help="mark the leading lattice in the SVG")
    sp.set_defaults(func=cmd_spectrum)

    vf = sub.add_parser("verify", parents=[common],
                        help="identity and structure checks")
    vf.add_argument("--which", required=True,
                    choices=("identity", "energy", "wronskian", "symmetry",
                             "interlace"))
    vf.add_argument("--seed", type=int, default=0)
    vf.add_argument("--count", type=_int_at_least(1), default=100,
                    help="number of sample points (>= 1)")
    vf.add_argument("--lam-max", type=_positive_float, default=20.0,
                    help="sampling disc radius (> 0)")
    vf.add_argument("--sign", choices=("plus", "minus"), default="plus",
                    help="spectrum sign for the symmetry check")
    vf.add_argument("--tau-max", type=_positive_float, default=10.0,
                    help="scan depth for the interlacing check (> 0)")
    vf.set_defaults(func=cmd_verify)

    asym = sub.add_parser("asympt", parents=[common],
                          help="asymptotic constants and residual tail")
    asym.add_argument("--sign", choices=("plus", "minus"), default="plus")
    asym.add_argument("--min-k", type=int, default=5,
                      help="smallest |k| kept in the residual tail")
    asym.set_defaults(func=cmd_asympt)

    rc = sub.add_parser("reconstruct", parents=[common],
                        help="rebuild characteristic functions")
    rc.add_argument("--mode", required=True,
                    choices=("hadamard", "even", "two-spectra"))
    rc.add_argument("--zeros", help="zero-set CSV (hadamard mode)")
    rc.add_argument("--selector", default="c1",
                    choices=("c1", "c2", "c1+c2", "c1-c2"),
                    help="which leading coefficient is known")
    rc.add_argument("--c0", default="1", metavar="RE[,IM]",
                    help="value of the known coefficient")
    rc.add_argument("--trunc", type=_int_at_least(32), default=10000,
                    help="zeros kept in the canonical product (>= 32)")
    rc.add_argument("--grid", default="-5,5,201", metavar="LO,HI,N",
                    help="real sample grid for the output CSV")
    rc.add_argument("--lam-max", type=_positive_float, default=4.0 * math.pi,
                    help="comparison range (even mode, > 0)")
    rc.add_argument("--samples", type=_int_at_least(2), default=257,
                    help="comparison points (even mode, >= 2)")
    rc.set_defaults(func=cmd_reconstruct)

    pt = sub.add_parser("partial", parents=[common],
                        help="mismatch diagnostics for two problems "
                             "sharing the interval")
    pt.add_argument("--config2", help="second problem config JSON")
    pt.add_argument("--split", type=_positive_float,
                    help="agreement boundary b in (0, a)")
    pt.add_argument("--b-plus", type=_positive_float,
                    help="plus-subset share (> 0, with --b-minus)")
    pt.add_argument("--b-minus", type=_positive_float,
                    help="minus-subset share (> 0, with --b-plus)")
    pt.add_argument("--angles", type=_int_at_least(4), default=32,
                    help="angle grid size for the indicator (>= 4)")
    pt.add_argument("--radii", help="comma list of probe radii")
    pt.add_argument("--tsched", default="50,100,200,400,800,1600",
                    help="comma list of t values for the E0 profile")
    pt.add_argument("--window", type=_positive_float, default=0.1,
                    help="relative window for the density check (> 0)")
    pt.set_defaults(func=cmd_partial)

    pl = sub.add_parser("plot", parents=[common],
                        help="SVG scatter of a spectrum or CSV")
    pl.add_argument("--in", dest="infile", help="CSV with re/im columns")
    pl.add_argument("--sign", choices=("plus", "minus"), default="plus")
    pl.add_argument("--overlay", action="store_true",
                    help="mark the leading lattice (needs --config)")
    pl.add_argument("--title", help="plot title")
    pl.set_defaults(func=cmd_plot)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits itself on --help (0) and usage errors (2);
        # fold that into the return-code contract for library callers
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
