"""Problem data for the generalized Regge boundary value problem.

The operator is -y'' + q(x) y = lambda^2 y on (0, a) with boundary
conditions

    y'(0) - (i*alpha0*lambda + beta0) y(0) = 0,
    y'(a) + (i*alpha*lambda  + beta ) y(a) = 0,

where q is a complex-valued L^2 potential, alpha0 >= 0, alpha > 0 and
beta0, beta are complex.  Setting ``real_data`` asserts the self-adjoint-
like situation (real q, real beta0, beta) under which the spectrum is
symmetric with respect to the imaginary axis.
"""

from __future__ import annotations

import cmath
import contextlib
import enum
import json
import numbers
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import (
    InconsistentInput,
    InconsistentRealFlag,
    NegativeAlpha0,
    NonPositiveAlpha,
    NonPositiveLength,
    OutOfDomain,
    ValidationError,
)

__all__ = [
    "Sign",
    "Potential",
    "ReggeProblem",
    "validate_problem",
    "load_problem",
    "dump_problem",
    "problem_from_dict",
    "problem_to_dict",
    "atomic_write_text",
    "write_csv",
]


class Sign(enum.Enum):
    """Selects one of the two characteristic functions Delta_+ / Delta_-.

    PLUS is the function of the problem as given; MINUS corresponds to
    flipping the sign of the right boundary coupling alpha.
    """

    PLUS = 1
    MINUS = -1

    @property
    def s(self) -> int:
        return self.value


@dataclass(frozen=True)
class Potential:
    """Potential q on [0, length].

    kind is one of "zero", "constant", "grid".  Constant potentials carry
    a single complex ``value``; grid potentials carry ``samples`` on the
    uniform mesh linspace(0, length, len(samples)) together with an
    ``interpolation`` order ("linear" or "cubic").
    """

    kind: str
    length: float
    value: complex = 0.0
    samples: np.ndarray | None = None
    interpolation: str = "linear"
    _spline: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("zero", "constant", "grid"):
            raise ValidationError(f"unknown potential kind {self.kind!r}")
        if self.kind == "grid":
            if self.samples is None or len(self.samples) < 2:
                raise ValidationError("grid potential needs at least 2 samples")
            if self.interpolation not in ("linear", "cubic"):
                raise ValidationError(
                    f"unknown interpolation {self.interpolation!r}")
            samples = np.asarray(self.samples, dtype=complex)
            if not np.all(np.isfinite(samples)):
                raise ValidationError("grid potential samples must be finite")
            object.__setattr__(self, "samples", samples)
            if self.interpolation == "cubic" and len(samples) >= 4:
                xs = np.linspace(0.0, self.length, len(samples))
                object.__setattr__(self, "_spline", CubicSpline(xs, samples))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(length: float) -> "Potential":
        return Potential("zero", float(length))

    @staticmethod
    def constant(value: complex, length: float) -> "Potential":
        return Potential("constant", float(length), value=complex(value))

    @staticmethod
    def grid(samples, length: float, interpolation: str = "linear") -> "Potential":
        return Potential("grid", float(length),
                         samples=np.asarray(samples, dtype=complex),
                         interpolation=interpolation)

    @property
    def real_valued(self) -> bool:
        if self.kind == "zero":
            return True
        if self.kind == "constant":
            return complex(self.value).imag == 0.0
        return bool(np.all(self.samples.imag == 0.0))

    # -- evaluation --------------------------------------------------------

    def _check_domain(self, x: np.ndarray):
        # tiny slack so integrator endpoints hit by roundoff stay legal
        eps = 1e-12 * max(1.0, self.length)
        if np.any(x < -eps) or np.any(x > self.length + eps):
            raise OutOfDomain(
                f"evaluation point outside [0, {self.length}]")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        self._check_domain(x)
        if self.kind == "zero":
            return np.zeros(x.shape, dtype=complex)
        if self.kind == "constant":
            return np.full(x.shape, complex(self.value))
        xc = np.clip(x, 0.0, self.length)
        if self._spline is not None:
            return np.asarray(self._spline(xc), dtype=complex)
        xs = np.linspace(0.0, self.length, len(self.samples))
        re = np.interp(xc, xs, self.samples.real)
        im = np.interp(xc, xs, self.samples.imag)
        return re + 1j * im

    def prefix_integral(self, x):
        """int_0^x q(t) dt, exact for the interpolant in use."""
        scalar = np.isscalar(x)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        self._check_domain(x)
        xc = np.clip(x, 0.0, self.length)
        if self.kind == "zero":
            out = np.zeros(x.shape, dtype=complex)
        elif self.kind == "constant":
            out = complex(self.value) * xc.astype(complex)
        elif self._spline is not None:
            anti = self._spline.antiderivative()
            out = np.asarray(anti(xc) - anti(0.0), dtype=complex)
        else:
            xs = np.linspace(0.0, self.length, len(self.samples))
            seg = 0.5 * (self.samples[1:] + self.samples[:-1]) * np.diff(xs)
            cum = np.concatenate([[0.0 + 0.0j], np.cumsum(seg)])
            idx = np.minimum(np.searchsorted(xs, xc, side="right") - 1,
                             len(xs) - 2)
            x0 = xs[idx]
            t = xc - x0
            q0 = self.samples[idx]
            slope = (self.samples[idx + 1] - q0) / np.diff(xs)[idx]
            out = cum[idx] + q0 * t + 0.5 * slope * t * t
        return complex(out[0]) if scalar else out

    def reflect(self) -> "Potential":
        """The reflected potential q1(x) = q(length - x)."""
        if self.kind == "grid":
            return Potential.grid(self.samples[::-1].copy(), self.length,
                                  self.interpolation)
        return self


@dataclass(frozen=True)
class ReggeProblem:
    """One generalized Regge problem L(q, alpha0, beta0, alpha, beta)."""

    a: float
    alpha0: float
    beta0: complex
    alpha: float
    beta: complex
    potential: Potential
    real_data: bool = False

    def __post_init__(self):
        validate_problem(self)

    @property
    def q(self) -> Potential:
        return self.potential


def validate_problem(p: ReggeProblem) -> None:
    if not (p.a > 0.0):
        raise NonPositiveLength(f"a = {p.a} must be > 0")
    if p.alpha0 < 0.0:
        raise NegativeAlpha0(f"alpha0 = {p.alpha0} must be >= 0")
    if not (p.alpha > 0.0):
        raise NonPositiveAlpha(f"alpha = {p.alpha} must be > 0")
    if abs(p.potential.length - p.a) > 1e-12 * max(1.0, p.a):
        raise ValidationError(
            f"potential domain [0, {p.potential.length}] does not match a = {p.a}")
    if p.real_data:
        if complex(p.beta0).imag != 0.0 or complex(p.beta).imag != 0.0:
            raise InconsistentRealFlag("real_data requires real beta0 and beta")
        if not p.potential.real_valued:
            raise InconsistentRealFlag("real_data requires a real potential")


# ---- JSON config ---------------------------------------------------------

def _finite(z, name: str):
    if not cmath.isfinite(z):
        raise ValidationError(f"field {name!r}: must be finite, got {z}")
    return z


def _read_real(node, name: str) -> float:
    if isinstance(node, bool) or not isinstance(node, numbers.Real):
        raise ValidationError(f"field {name!r}: expected a number, got {node!r}")
    try:
        return _finite(float(node), name)
    except OverflowError as exc:   # an integer literal beyond float range
        raise ValidationError(f"field {name!r}: must be finite") from exc


def _read_complex(node, name: str) -> complex:
    if isinstance(node, dict):
        try:
            z = complex(float(node["re"]), float(node.get("im", 0.0)))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"field {name!r}: bad complex value") from exc
        return _finite(z, name)
    if isinstance(node, bool) or not isinstance(node, numbers.Real):
        raise ValidationError(f"field {name!r}: expected number or {{re, im}}")
    return complex(_read_real(node, name))


def _write_complex(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def problem_from_dict(cfg: dict) -> ReggeProblem:
    """A problem from its parsed JSON config; every field is checked for
    its type and for finiteness before any numerics see it."""
    if not isinstance(cfg, dict):
        raise ValidationError(
            f"config must be a JSON object, got {type(cfg).__name__}")
    try:
        a = _read_real(cfg["a"], "a")
        alpha0 = _read_real(cfg["alpha0"], "alpha0")
        alpha = _read_real(cfg["alpha"], "alpha")
        beta0 = _read_complex(cfg["beta0"], "beta0")
        beta = _read_complex(cfg["beta"], "beta")
        pot = cfg["potential"]
        if not isinstance(pot, dict):
            raise ValidationError(
                f"field 'potential': expected an object with a 'type', "
                f"got {pot!r}")
        kind = pot["type"]
        if kind == "zero":
            q = Potential.zero(a)
        elif kind == "constant":
            q = Potential.constant(
                _read_complex(pot.get("value", 0.0), "value"), a)
        elif kind == "grid":
            samples = pot["samples"]
            if not isinstance(samples, (list, tuple, np.ndarray)):
                raise ValidationError(
                    f"field 'samples': expected a list, got {samples!r}")
            q = Potential.grid([_read_complex(s, "samples") for s in samples],
                               a, pot.get("interpolation", "linear"))
        else:
            raise ValidationError(f"unknown potential type {kind!r}")
    except KeyError as exc:
        raise ValidationError(f"missing config field: {exc}") from exc

    return ReggeProblem(a=a, alpha0=alpha0, beta0=beta0, alpha=alpha,
                        beta=beta, potential=q,
                        real_data=bool(cfg.get("real_data", False)))


def problem_to_dict(p: ReggeProblem) -> dict:
    pot: dict = {"type": p.potential.kind}
    if p.potential.kind == "constant":
        pot["value"] = _write_complex(p.potential.value)
    elif p.potential.kind == "grid":
        if p.potential.real_valued:
            pot["samples"] = [float(s.real) for s in p.potential.samples]
        else:
            pot["samples"] = [_write_complex(s) for s in p.potential.samples]
        pot["interpolation"] = p.potential.interpolation
    return {
        "a": p.a,
        "alpha0": p.alpha0,
        "beta0": _write_complex(p.beta0),
        "alpha": p.alpha,
        "beta": _write_complex(p.beta),
        "potential": pot,
        "real_data": p.real_data,
    }


def load_problem(path_or_dict) -> ReggeProblem:
    """Load a problem from a JSON file path or an already-parsed dict."""
    if isinstance(path_or_dict, dict):
        return problem_from_dict(path_or_dict)
    with open(path_or_dict, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except ValueError as exc:   # JSONDecodeError, or an over-long integer
            raise ValidationError(f"config is not valid JSON: {exc}") from exc
    return problem_from_dict(cfg)


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path through a temporary file in the same directory.

    The temporary file is renamed over path once it is complete and
    removed on any failure, so a failed write leaves neither a partial
    file nor a stray temporary behind.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _cell(v) -> str:
    if v is None or isinstance(v, str):
        return v or ""
    if isinstance(v, (int, np.integer)):
        return str(v)
    if isinstance(v, (float, np.floating)):
        return f"{v:.17g}"
    return f"{v.real:.17g},{v.imag:.17g}"


def write_csv(path: str, header: str, rows) -> None:
    """Write a CSV table atomically.  A row given as a string (a ``#``
    line) is written as it stands; in other rows None is an empty cell,
    a string or an integer is written as is, a real number with %.17g
    (a lossless round trip), a complex number as two columns re,im."""
    lines = [header]
    for row in rows:
        lines.append(row if isinstance(row, str) else ",".join(map(_cell, row)))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _csv_numbers(path: str, row: str, cells, kinds) -> list:
    """The given cells of one CSV row, each parsed by its kind (float or int).

    A cell that is not a number, or not finite, raises InconsistentInput
    naming the file and the row; both CSV readers parse through here.
    """
    try:
        values = [kind(cell) for cell, kind in zip(cells, kinds)]
    except ValueError as exc:
        raise InconsistentInput(f"{path}: bad number in row {row!r}") from exc
    if not all(map(cmath.isfinite, values)):
        raise InconsistentInput(f"{path}: non-finite number in row {row!r}")
    return values


def dump_problem(p: ReggeProblem, path: str) -> None:
    """Write a problem config atomically."""
    atomic_write_text(path, json.dumps(problem_to_dict(p), indent=2) + "\n")
