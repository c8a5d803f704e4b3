"""Command-line front end: parse configs, run pipelines, emit CSV/SVG.

Exit codes: 0 success (all checks passed), 1 a verification or
comparison failed, 2 config/usage error, 3 numerical failure inside a
solver.  Numeric output is printed with 17 significant digits so values
round-trip losslessly; every file is written to a temporary name in the
same directory and renamed, so a failing run leaves no partial artifacts.

Runs are deterministic: the only randomness is the generator seeded by
--seed in `verify`, and --threads (REGGE_THREADS as fallback) only caps
worker parallelism inside library calls; it never changes results or
output bytes.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .errors import (
    InconsistentInput,
    NumericalError,
    ValidationError,
)
from .model import ReggeProblem, Sign, load_problem
from .charfn import (
    delta,
    delta_dot,
    delta_zero,
    delta_zero_dot,
    energy_identity_residual,
    identity_terms,
    robin_charfn,
    wronskian_delta,
)
from .roots import (
    Rectangle,
    Spectrum,
    SpectrumEntry,
    compute_spectrum,
    find_zeros,
    imaginary_axis_zeros,
    index_eigenvalues,
    interlace_and_signs,
    newton_refine,
    pair_symmetry_check,
    write_spectrum_csv,
)
from .asympt import (
    asymptotic_model,
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
    two_spectra_robin,
)
from .partialinv import (
    critical_diagnostics,
    default_radius_schedule,
    density_check,
    f_mismatch_logabs,
    indicator_estimate,
    weighted_deviation,
    write_critical_csv,
)

__all__ = ["build_parser", "main"]


# ---- small helpers ---------------------------------------------------------

def _g(x) -> str:
    """17 significant digits; lossless float round trip."""
    return f"{float(x):.17g}"


def _cg(z) -> str:
    z = complex(z)
    return f"{z.real:.17g} {z.imag:+.17g}i"


def _write_text(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _parse_rect(spec: str) -> Rectangle:
    parts = spec.split(",")
    if len(parts) != 4:
        raise ValidationError(
            f"--rect needs re_min,re_max,im_min,im_max; got {spec!r}")
    try:
        a, b, c, d = (float(t) for t in parts)
    except ValueError as exc:
        raise ValidationError(f"--rect: {exc}") from exc
    return Rectangle(a, b, c, d)


def _parse_complex(spec: str, flag: str) -> complex:
    parts = spec.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise ValidationError(f"{flag}: {exc}") from exc
    raise ValidationError(f"{flag} takes re or re,im; got {spec!r}")


def _parse_floats(spec: str, flag: str) -> np.ndarray:
    try:
        vals = np.array([float(t) for t in spec.split(",")])
    except ValueError as exc:
        raise ValidationError(f"{flag}: {exc}") from exc
    if len(vals) == 0:
        raise ValidationError(f"{flag}: empty list")
    return vals


def _tol(args, default: float) -> float:
    t = default if args.tol is None else args.tol
    if not t > 0:
        raise ValidationError(f"tolerance must be positive, got {t}")
    return t


def _threads(args) -> int:
    """Worker cap; kept for interface symmetry.

    All library paths are vectorized in-process, so the value never
    influences numbers or output bytes (the determinism contract).
    """
    n = args.threads
    if n is None:
        env = os.environ.get("REGGE_THREADS")
        if env is not None:
            try:
                n = int(env)
            except ValueError as exc:
                raise ValidationError(
                    f"REGGE_THREADS must be an integer, got {env!r}") from exc
    if n is None:
        return 1
    if n < 1:
        raise ValidationError(f"--threads must be >= 1, got {n}")
    return n


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
    if kmax < 1:
        raise ValidationError(f"--kmax must be >= 1, got {kmax}")
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
    kspan = int(math.ceil(abs(rect.re_max) * p.a / math.pi)) + 2
    out = []
    for k in range(-kspan, kspan + 1):
        if model.case_sign < 0 and k == 0:
            continue
        mu = mu_k(model, sign, k)
        if (rect.re_min <= mu.real <= rect.re_max
                and rect.im_min <= mu.imag <= rect.im_max):
            out.append((mu.real, mu.imag))
    return out


# ---- spectrum ---------------------------------------------------------------

def _interior_spectrum(p: ReggeProblem, rect: Rectangle, tol: float,
                       nsteps) -> Spectrum:
    def f(z):
        return delta_zero(p, z, nsteps=nsteps)

    def fp(z):
        return delta_zero_dot(p, z, nsteps=nsteps)

    found = find_zeros(f, fp, rect, tol=tol)
    entries = [SpectrumEntry(k=None, lam=z, multiplicity=m, residual=r)
               for z, m, r in found]
    # the sign tag is internal bookkeeping and never serialized
    return Spectrum(entries=entries, sign=Sign.PLUS, region=rect)


def cmd_spectrum(args) -> int:
    p = _load(args)
    _threads(args)
    tol = _tol(args, 1e-12)
    model = asymptotic_model(p, strict=False)
    interior = args.sign == "interior"
    sign = None if interior else _sign_of(args.sign)
    if args.rect is not None:
        rect = _parse_rect(args.rect)
    else:
        rect = _auto_rect(p, model, sign, args.kmax)
    if interior:
        spec = _interior_spectrum(p, rect, tol, args.nsteps)
        spec = index_eigenvalues(spec, None, Sign.PLUS)
    else:
        spec = compute_spectrum(p, sign, rect, tol=tol, nsteps=args.nsteps)
        spec = index_eigenvalues(
            spec, model if model.case_sign != 0 else None, sign)

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
        lines = ["k,re,im,multiplicity,residual,predicted_re,predicted_im"]
        for e in spec.entries:
            if e.k is None:
                pr_re = pr_im = ""
                ktxt = ""
            else:
                ktxt = str(e.k)
                pr = predicted_lambda(model, sign, e.k)
                pr_re, pr_im = _g(pr.real), _g(pr.imag)
            lines.append(f"{ktxt},{_g(e.lam.real)},{_g(e.lam.imag)},"
                         f"{e.multiplicity},{_g(e.residual)},{pr_re},{pr_im}")
        _write_text(out, "\n".join(lines) + "\n")
    else:
        write_spectrum_csv(spec, out)

    if args.svg is not None:
        pts = [(e.lam.real, e.lam.imag) for e in spec.entries]
        overlay = []
        if args.overlay and not interior:
            overlay = _lattice_overlay(p, model, sign, rect)
        _write_text(args.svg, _svg_scatter(pts, overlay,
                                           f"spectrum ({args.sign})"))
    n = len(spec.entries)
    print(f"{n} eigenvalue{'s' if n != 1 else ''} in "
          f"[{_g(rect.re_min)}, {_g(rect.re_max)}] x "
          f"[{_g(rect.im_min)}, {_g(rect.im_max)}] -> {out}")
    return 0


# ---- verify -----------------------------------------------------------------

def _disc_draws(rng, n: int, radius: float) -> np.ndarray:
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    th = rng.uniform(0.0, 2.0 * math.pi, n)
    return r * np.exp(1j * th)


def _verify_identity(p, args, tol):
    rng = np.random.default_rng(args.seed)
    lams = _disc_draws(rng, args.count, args.lam_max)
    plus, minus, quad = identity_terms(p, lams, nsteps=args.nsteps)
    res = np.abs(plus - minus - quad)
    # relative to the largest competing term of the identity
    scale = np.maximum(1.0, np.maximum(np.abs(quad), np.maximum(
        np.abs(plus), np.abs(minus))))
    rel = res / scale
    rows = [f"{_g(z.real)},{_g(z.imag)},{_g(r)},{_g(s)}"
            for z, r, s in zip(lams, res, rel)]
    return float(rel.max()), ["lam_re,lam_im,residual_abs,residual_rel"] + rows


def _verify_energy(p, args, tol):
    rng = np.random.default_rng(args.seed)
    lams = _disc_draws(rng, args.count, args.lam_max)
    res = np.abs(energy_identity_residual(p, lams, nsteps=args.nsteps))
    # boundary terms of the identity set the comparison scale; the
    # integral side equals their sum minus the residual, so no second
    # trajectory pass is needed
    d_p = delta(p, Sign.PLUS, lams, nsteps=args.nsteps)
    d_pd = delta_dot(p, Sign.PLUS, lams, nsteps=args.nsteps)
    d_0 = delta_zero(p, lams, nsteps=args.nsteps)
    d_0d = delta_zero_dot(p, lams, nsteps=args.nsteps)
    terms = np.maximum.reduce([
        np.abs(d_p * d_0d), np.abs(d_pd * d_0),
        np.abs(p.alpha * d_0 ** 2),
        np.full(lams.shape, abs(p.alpha0)),
    ])
    rel = res / np.maximum(1.0, terms)
    rows = [f"{_g(z.real)},{_g(z.imag)},{_g(r)},{_g(s)}"
            for z, r, s in zip(lams, res, rel)]
    return float(rel.max()), ["lam_re,lam_im,residual_abs,residual_rel"] + rows


def _verify_wronskian(p, args, tol):
    rng = np.random.default_rng(args.seed)
    lams = _disc_draws(rng, args.count, args.lam_max)
    xs = rng.uniform(0.1 * p.a, 0.9 * p.a, args.count)
    rows = ["lam_re,lam_im,x,sign,residual_rel"]
    worst = 0.0
    for i, (lam, x) in enumerate(zip(lams, xs)):
        s = Sign.PLUS if i % 2 == 0 else Sign.MINUS
        w = wronskian_delta(p, s, lam, float(x), nsteps=args.nsteps)
        d = delta(p, s, np.array([lam]), nsteps=args.nsteps)[0]
        rel = abs(w - d) / max(1.0, abs(d))
        worst = max(worst, rel)
        rows.append(f"{_g(lam.real)},{_g(lam.imag)},{_g(x)},"
                    f"{s.name.lower()},{_g(rel)}")
    return worst, rows


def cmd_verify(args) -> int:
    p = _load(args)
    _threads(args)
    which = args.which

    if which in ("identity", "energy", "wronskian"):
        tol = _tol(args, {"identity": 1e-8, "energy": 1e-6,
                          "wronskian": 1e-8}[which])
        fn = {"identity": _verify_identity, "energy": _verify_energy,
              "wronskian": _verify_wronskian}[which]
        worst, rows = fn(p, args, tol)
        if args.out is not None:
            _write_text(args.out, "\n".join(rows) + "\n")
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
        rect = (_parse_rect(args.rect) if args.rect is not None
                else _auto_rect(p, model, sign, args.kmax))
        spec = compute_spectrum(p, sign, rect, nsteps=args.nsteps)
        ok, defect = pair_symmetry_check(spec, tol)
        if args.out is not None:
            spec = index_eigenvalues(
                spec, model if model.case_sign != 0 else None, sign)
            write_spectrum_csv(spec, args.out)
        print(f"{'PASS' if ok else 'FAIL'} symmetry: {len(spec.entries)} "
              f"eigenvalues, max mirror defect {_g(defect)} (tol {_g(tol)})")
        return 0 if ok else 1

    if which == "interlace":
        if not p.real_data:
            raise InconsistentInput(
                "interlacing check refused: it needs real_data")
        taus = imaginary_axis_zeros(p, tau_max=args.tau_max,
                                    nsteps=args.nsteps)
        rep = interlace_and_signs(p, taus, nsteps=args.nsteps)
        if args.out is not None:
            rows = ["tau,sign_value_dot,sign_value_zero"]
            for t, sd, sz in zip(rep.taus, rep.sign_values_dot,
                                 rep.sign_values_zero):
                rows.append(f"{_g(t)},{_g(sd)},{_g(sz)}")
            _write_text(args.out, "\n".join(rows) + "\n")
        wit = ", ".join(_g(t) for t in rep.taus) if rep.taus else "none"
        n = len(rep.taus)
        print(f"{'PASS' if rep.ok else 'FAIL'} interlace: "
              f"{n} zero{'s' if n != 1 else ''} below the axis at tau = "
              f"{wit} (scan up to {_g(args.tau_max)})")
        for v in rep.violations:
            print(f"  violation: {v}")
        return 0 if rep.ok else 1

    raise ValidationError(f"unknown check {which!r}")


# ---- asympt -----------------------------------------------------------------

def cmd_asympt(args) -> int:
    p = _load(args)
    _threads(args)
    model = asymptotic_model(p)
    sign = _sign_of(args.sign)
    kmax = args.kmax if args.kmax is not None else 40
    rect = (_parse_rect(args.rect) if args.rect is not None
            else _auto_rect(p, model, sign, kmax))
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
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValidationError(f"--grid: {exc}") from exc
    if n < 2 or not hi > lo:
        raise ValidationError("--grid needs hi > lo and n >= 2")
    return np.linspace(lo, hi, n)


def _recon_hadamard(args) -> int:
    zs = read_zeroset_csv(_need(args.zeros, "--zeros"))
    c0 = _parse_complex(args.c0, "--c0")
    tol = _tol(args, 1e-4)
    model = hadamard_build(zs, args.selector, c0, N=args.trunc, tol=tol)
    xs = _parse_grid(args.grid)
    vals = np.atleast_1d(model.eval(xs.astype(complex)))
    out = _need(args.out, "--out")
    lines = ["x,re,im"]
    for x, v in zip(xs, vals):
        lines.append(f"{_g(x)},{_g(v.real)},{_g(v.imag)}")
    _write_text(out, "\n".join(lines) + "\n")
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
    lines = ["lam,direct_re,direct_im,recon_re,recon_im,abs_err,rel_err"]
    for x, d, r, e, q in zip(path, direct, recon, err, rel):
        lines.append(f"{_g(x)},{_g(d.real)},{_g(d.imag)},"
                     f"{_g(r.real)},{_g(r.imag)},{_g(e)},{_g(q)}")
    _write_text(out, "\n".join(lines) + "\n")
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

    def favg(z):
        return two_spectra_robin(
            lambda w: delta(p, Sign.PLUS, w, nsteps=args.nsteps),
            lambda w: delta(p, Sign.MINUS, w, nsteps=args.nsteps), z)

    def fdir(z):
        return robin_charfn(p, z, nsteps=args.nsteps)

    def fdot(z):
        return 0.5 * (delta_dot(p, Sign.PLUS, z, nsteps=args.nsteps)
                      + delta_dot(p, Sign.MINUS, z, nsteps=args.nsteps))

    za = find_zeros(favg, fdot, rect)
    zd = find_zeros(fdir, fdot, rect)
    out = _need(args.out, "--out")
    lines = ["re_direct,im_direct,re_averaged,im_averaged,distance"]
    worst = 0.0
    if len(za) != len(zd):
        worst = math.inf
        lines.append(f"# count mismatch: {len(zd)} direct vs {len(za)} "
                     f"averaged")
    else:
        key = lambda z: (z.real, z.imag)
        da = sorted((z for z, _, _ in za), key=key)
        dd = sorted((z for z, _, _ in zd), key=key)
        # both lists sorted the same way; nearest pairing by position
        for u, v in zip(dd, da):
            dist = abs(u - v)
            worst = max(worst, dist)
            lines.append(f"{_g(u.real)},{_g(u.imag)},"
                         f"{_g(v.real)},{_g(v.imag)},{_g(dist)}")
    _write_text(out, "\n".join(lines) + "\n")
    ok = worst <= tol
    print(f"{'PASS' if ok else 'FAIL'} two-spectra: {len(zd)} Robin zeros, "
          f"max distance {_g(worst)} (tol {_g(tol)})")
    print(f"wrote {out}")
    return 0 if ok else 1


def cmd_reconstruct(args) -> int:
    _threads(args)
    if args.mode == "hadamard":
        return _recon_hadamard(args)
    if args.mode == "even":
        return _recon_even(args)
    if args.mode == "two-spectra":
        return _recon_two_spectra(args)
    raise ValidationError(f"unknown mode {args.mode!r}")


# ---- partial ----------------------------------------------------------------

def _refine_subset(p: ReggeProblem, model, sign: Sign, kmax: int,
                   nsteps) -> tuple[list, list]:
    """(j, lambda) pairs from Newton refinement of the lattice seeds.

    Returns the kept pairs and a list of notes about dropped indices
    (non-convergence, zero eigenvalue, or collapse onto an already
    claimed zero).
    """
    ks = [k for k in range(-kmax, kmax + 1)
          if not (model.case_sign < 0 and k == 0)]
    seeds = np.array([predicted_lambda(model, sign, k) for k in ks])

    def f(z):
        return delta(p, sign, z, nsteps=nsteps)

    def fp(z):
        return delta_dot(p, sign, z, nsteps=nsteps)

    zs, res, conv = newton_refine(f, fp, seeds)
    pairs = []
    notes = []
    taken: list = []
    for k, z, ok in zip(ks, zs, conv):
        if not ok:
            notes.append(f"j = {k} dropped: no convergence from the seed")
            continue
        if abs(z) < 1e-12:
            notes.append(f"j = {k} dropped: zero eigenvalue (degenerate "
                         f"product factor)")
            continue
        dup = next((w for w in taken if abs(w - z) <= 1e-8 * (1 + abs(z))),
                   None)
        if dup is not None:
            notes.append(f"j = {k} dropped: seed collapsed onto an already "
                         f"claimed zero")
            continue
        taken.append(complex(z))
        pairs.append((k, complex(z)))
    return pairs, notes


def _sparse_subset(model, sign: Sign, b_side: float, full_pairs,
                   a: float) -> tuple[list, list]:
    """Eigenvalues nearest the rescaled lattice a mu_j / b_side.

    The critical-case hypothesis speaks about a subsequence close to
    the rescaled lattice, so the deviation sum and the zero product are
    built over this subset, not over consecutive indices.
    """
    lams = np.array([z for _, z in full_pairs])
    reach = float(np.abs(lams).max()) - 0.5 * math.pi / a
    pairs = []
    notes = []
    taken: set = set()
    for j in range(-len(full_pairs), len(full_pairs) + 1):
        if model.case_sign < 0 and j == 0:
            continue
        target = a * model.mu(sign, j) / b_side
        if abs(target) > reach:
            continue
        i = int(np.argmin(np.abs(lams - target)))
        if abs(lams[i]) < 1e-9:
            notes.append(f"sparse j = {j} skipped: nearest eigenvalue "
                         f"sits at the origin")
            continue
        if i in taken:
            notes.append(f"sparse j = {j} skipped: eigenvalue already "
                         f"claimed by a lower index")
            continue
        taken.add(i)
        pairs.append((j, complex(lams[i])))
    return pairs, notes


def cmd_partial(args) -> int:
    p1 = _load(args)
    p2 = load_problem(_need(args.config2, "--config2"))
    _threads(args)
    if args.b_plus is not None or args.b_minus is not None:
        if args.b_plus is None or args.b_minus is None:
            raise ValidationError("--b-plus and --b-minus go together")
        b_plus, b_minus = args.b_plus, args.b_minus
    else:
        split = _need(args.split, "--split")
        b_plus = b_minus = split
    if not (b_plus > 0 and b_minus > 0):
        raise ValidationError("interval shares must be positive")
    b = 0.5 * (b_plus + b_minus)
    out = _need(args.out, "--out")

    model = asymptotic_model(p1)
    a = model.a
    kmax = args.kmax if args.kmax is not None else 60
    radii = (_parse_floats(args.radii, "--radii") if args.radii is not None
             else default_radius_schedule(a))
    tsched = _parse_floats(args.tsched, "--tsched")
    nang = args.angles
    if nang < 4:
        raise ValidationError(f"--angles must be >= 4, got {nang}")
    angles = np.linspace(0.0, 2.0 * math.pi, nang, endpoint=False)

    def logF(z):
        return f_mismatch_logabs(p1, p2, b, z, nsteps=args.nsteps)

    # every report is assembled before anything is written, so a failure
    # below leaves no files behind
    grid = radii[None, :] * np.exp(1j * angles)[:, None]
    la = np.asarray(logF(grid.reshape(-1)), dtype=complex).real \
        .reshape(grid.shape)
    with np.errstate(invalid="ignore"):
        scaled = la - np.log(radii)[None, :] \
            - 2.0 * b * radii[None, :] * np.abs(np.sin(angles))[:, None]
    growth_lines = ["r,sup_logabs_F,scaled_sup"]
    for j, r in enumerate(radii):
        growth_lines.append(f"{_g(r)},{_g(la[:, j].max())},"
                            f"{_g(math.exp(scaled[:, j].max()))}")

    ind = indicator_estimate(logF, angles=angles, radii=radii, logabs=True)
    ind_lines = ["theta,h,bound"]
    excess = -math.inf
    for th, h in zip(ind.angles, ind.h):
        bound = 2.0 * b * abs(math.sin(th))
        excess = max(excess, h - bound)
        ind_lines.append(f"{_g(th)},{_g(h)},{_g(bound)}")

    sp, notes_p = _refine_subset(p1, model, Sign.PLUS, kmax, args.nsteps)
    sm, notes_m = _refine_subset(p1, model, Sign.MINUS, kmax, args.nsteps)
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
        lams = [z for _, z in pairs]
        zs = ZeroSet(zeros=[(z, 1) for z in lams], order_at_origin=0)
        dens[name] = density_check(zs, a, dens_radii, window=args.window)
    dens_lines = ["r,ratio_plus,ratio_minus"]
    for i, r in enumerate(dens_radii):
        dens_lines.append(f"{_g(r)},{_g(dens['plus'].ratios[i])},"
                          f"{_g(dens['minus'].ratios[i])}")

    ssp, snotes_p = _sparse_subset(model, Sign.PLUS, b_plus, sp, a)
    ssm, snotes_m = _sparse_subset(model, Sign.MINUS, b_minus, sm, a)
    if not ssp or not ssm:
        raise NumericalError(
            "rescaled-lattice subsets came back empty; widen --kmax "
            "or enlarge the split")
    dev = weighted_deviation(ssp, ssm, b_plus, b_minus, model)
    dev_lines = [
        "total,plus_sum,minus_sum,plus_jmin,plus_jmax,minus_jmin,minus_jmax",
        f"{_g(dev.total)},{_g(dev.plus_sum)},{_g(dev.minus_sum)},"
        f"{dev.plus_range[0]},{dev.plus_range[1]},"
        f"{dev.minus_range[0]},{dev.minus_range[1]}",
    ]

    diag = critical_diagnostics(p1, p2, b_plus, b_minus, (ssp, ssm), tsched,
                                nsteps=args.nsteps)

    paths = {
        "growth": f"{out}_growth.csv",
        "indicator": f"{out}_indicator.csv",
        "density": f"{out}_density.csv",
        "deviation": f"{out}_deviation.csv",
        "e0": f"{out}_e0.csv",
    }
    _write_text(paths["growth"], "\n".join(growth_lines) + "\n")
    _write_text(paths["indicator"], "\n".join(ind_lines) + "\n")
    _write_text(paths["density"], "\n".join(dens_lines) + "\n")
    _write_text(paths["deviation"], "\n".join(dev_lines) + "\n")
    write_critical_csv(paths["e0"], diag)

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
    for name in ("growth", "indicator", "density", "deviation", "e0"):
        print(f"wrote {paths[name]}")
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
        try:
            pts.append((float(cols[i_re]), float(cols[i_im])))
        except (ValueError, IndexError) as exc:
            raise ValidationError(f"{path}: bad row {ln!r}") from exc
    return pts


def cmd_plot(args) -> int:
    _threads(args)
    out = _need(args.out, "--out")
    if args.infile is not None:
        pts = _read_points_csv(args.infile)
        title = args.title if args.title is not None else args.infile
    elif args.config is not None:
        p = load_problem(args.config)
        model = asymptotic_model(p, strict=False)
        sign = _sign_of(args.sign)
        rect = (_parse_rect(args.rect) if args.rect is not None
                else _auto_rect(p, model, sign, args.kmax))
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
        p = load_problem(args.config)
        model = asymptotic_model(p, strict=False)
        if model.case_sign == 0:
            raise ValidationError("--overlay unavailable: degenerate lattice")
        xs = [x for x, _ in pts] or [0.0]
        ys = [y for _, y in pts] or [0.0]
        box = Rectangle(min(xs) - 1.0, max(xs) + 1.0,
                        min(ys) - 1.0, max(ys) + 1.0)
        overlay = _lattice_overlay(p, model, _sign_of(args.sign), box)

    _write_text(out, _svg_scatter(pts, overlay, title))
    print(f"wrote {out} ({len(pts)} points"
          f"{f', {len(overlay)} lattice marks' if overlay else ''})")
    return 0


# ---- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="problem config JSON")
    common.add_argument("--out", help="output path (prefix for partial)")
    common.add_argument("--tol", type=float, help="tolerance override")
    common.add_argument("--rect", metavar="A,B,C,D",
                        help="search rectangle re_min,re_max,im_min,im_max")
    common.add_argument("--kmax", type=int,
                        help="lattice index bound (synthesizes --rect)")
    common.add_argument("--threads", type=int,
                        help="worker cap; REGGE_THREADS as fallback "
                             "(never changes results)")
    common.add_argument("--nsteps", type=int,
                        help="integrator mesh override")

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
    vf.add_argument("--count", type=int, default=100,
                    help="number of sample points")
    vf.add_argument("--lam-max", type=float, default=20.0,
                    help="sampling disc radius")
    vf.add_argument("--sign", choices=("plus", "minus"), default="plus",
                    help="spectrum sign for the symmetry check")
    vf.add_argument("--tau-max", type=float, default=10.0,
                    help="scan depth for the interlacing check")
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
    rc.add_argument("--trunc", type=int, default=10000,
                    help="zeros kept in the canonical product")
    rc.add_argument("--grid", default="-5,5,201", metavar="LO,HI,N",
                    help="real sample grid for the output CSV")
    rc.add_argument("--lam-max", type=float, default=4.0 * math.pi,
                    help="comparison range (even mode)")
    rc.add_argument("--samples", type=int, default=257,
                    help="comparison points (even mode)")
    rc.set_defaults(func=cmd_reconstruct)

    pt = sub.add_parser("partial", parents=[common],
                        help="mismatch diagnostics for two problems "
                             "sharing the interval")
    pt.add_argument("--config2", help="second problem config JSON")
    pt.add_argument("--split", type=float,
                    help="agreement boundary b in (0, a)")
    pt.add_argument("--b-plus", type=float,
                    help="plus-subset share (with --b-minus)")
    pt.add_argument("--b-minus", type=float,
                    help="minus-subset share (with --b-plus)")
    pt.add_argument("--angles", type=int, default=32,
                    help="angle grid size for the indicator")
    pt.add_argument("--radii", help="comma list of probe radii")
    pt.add_argument("--tsched", default="50,100,200,400,800,1600",
                    help="comma list of t values for the E0 profile")
    pt.add_argument("--window", type=float, default=0.1,
                    help="relative window for the density check")
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
