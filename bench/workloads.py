"""The three workloads: inputs from (workload, seed), operations, checks.

``generate(workload, seed)`` is a pure function: it returns the inputs
as plain data, and ``inputs_hash`` fingerprints them.  A workload object
turns those inputs into operations.  ``run_op`` performs one operation
through ``call(name, fn, *args)``, which the traced run turns into a
span; ``check_op`` then compares the output with the references in
``reference.py`` and returns an ``Outcome``.  Only ``run_op`` is timed.

Operation lists are cycles with a fixed order of kinds, so every run
sees the same mix whatever the seed; the seed draws the numbers inside
each kind.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

import reference as R

# eigenvalue, function value and identity tolerances of the checks,
# relative to max(1, |lambda|) or to the size of the terms involved
EIG_TOL = 1e-6
VALUE_TOL = 1e-6
LADDER_LAMS = (10.0, 100.0, 300.0, 1000.0, 3000.0)
FAIL_KINDS = ("exit1", "exit2", "exit3", "exception", "duplicate",
              "count_mismatch", "mirror_break", "nonfinite", "reference",
              "residual")


@dataclass
class Outcome:
    ok: bool = True
    work: float = 0.0
    kinds: list = field(default_factory=list)
    digits: list = field(default_factory=list)
    eigenvalues: int = 0
    note: str = ""

    def fail(self, kind: str, note: str = ""):
        self.ok = False
        self.kinds.append(kind)
        if note and not self.note:
            self.note = note


def _rng(workload: str, seed: int):
    return np.random.default_rng([sum(map(ord, workload)), int(seed)])


def _away_from_one(rng, lo=0.2, hi=3.0, gap=0.1) -> float:
    while True:
        v = float(rng.uniform(lo, hi))
        if abs(v - 1.0) >= gap:
            return v


def _grid_potential(rng, complex_q: bool, n: int = 33) -> dict:
    re = rng.uniform(-1.0, 1.0, n)
    im = rng.uniform(-1.0, 1.0, n) if complex_q else np.zeros(n)
    samples = ([R.cfg_complex(complex(x, y)) for x, y in zip(re, im)]
               if complex_q else [float(x) for x in re])
    return {"type": "grid", "samples": samples, "interpolation": "cubic"}


_KINDS = ("real_const", "complex_const", "real_grid", "complex_grid")


def _problem(rng, kind: str, alphas=None) -> dict:
    """kind: real_grid, complex_grid, real_const or complex_const; alphas
    (alpha0, alpha) are drawn at least 0.1 away from 1 unless given."""
    real = kind.startswith("real")
    if kind.endswith("grid"):
        pot = _grid_potential(rng, complex_q=not real)
    else:
        c = complex(rng.uniform(-2.0, 2.0), 0.0 if real else rng.uniform(-1.0, 1.0))
        pot = {"type": "constant", "value": R.cfg_complex(c)}
    beta0 = complex(rng.uniform(-1.0, 1.0), 0.0 if real else rng.uniform(-0.5, 0.5))
    beta = complex(rng.uniform(-1.0, 1.0), 0.0 if real else rng.uniform(-0.5, 0.5))
    if alphas is None:
        alphas = (_away_from_one(rng), _away_from_one(rng))
    return R.problem_dict(1.0, alphas[0], beta0, alphas[1], beta, pot, real)


def inputs_hash(inputs: dict) -> str:
    h = hashlib.sha256()
    arrays = []

    def strip(node):
        if isinstance(node, np.ndarray):
            arrays.append(node)
            return f"<array {len(arrays) - 1}>"
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items()}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    h.update(json.dumps(strip(inputs), sort_keys=True).encode())
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _mirror_defect(lams: np.ndarray) -> float:
    if len(lams) == 0:
        return 0.0
    dist = np.abs(lams[:, None] + np.conj(lams)[None, :])
    row, col = linear_sum_assignment(dist)
    return float(np.max(dist[row, col] / np.maximum(1.0, np.abs(lams[row]))))


def ladder_digits() -> dict:
    """Correct digits of reggespec's Delta_+ on the q = 0 problem of the
    test suite (a=1, alpha0=2, alpha=3, beta0=beta=0) at each rung."""
    from reggespec.charfn import delta
    from reggespec.model import Sign, problem_from_dict
    cfg = R.problem_dict(1.0, 2.0, 0.0, 3.0, 0.0, {"type": "zero"}, True)
    lam = np.array(LADDER_LAMS, dtype=complex)
    ref = R.charfns(R.Problem(cfg), lam)["plus"]
    with np.errstate(all="ignore"):
        got = delta(problem_from_dict(cfg), Sign.PLUS, lam)
        err = np.abs(got - ref) / np.abs(ref)
    return {f"digits_l{int(x)}": R.digits(e if np.isfinite(e) else 1e300)
            for x, e in zip(LADDER_LAMS, err)}


# ---- direct ------------------------------------------------------------------

# One cycle: both windows on every potential kind.  alpha0, alpha and
# the sign are fixed per slot: they set where the eigenvalues sit against
# the window and its quadrisection cuts, and so the search cost; the seed
# draws the potential and beta0, beta.  --kmax regions are not timed:
# compute_spectrum drops eigenvalues there (see _probes).
_DIRECT_CYCLE = (     # (window start, potential kind, alpha0, alpha, sign)
    (100.0, "real_const", 2.0, 3.0, 1), (300.0, "complex_grid", 0.5, 2.5, -1),
    (100.0, "complex_const", 2.5, 0.4, 1), (300.0, "real_grid", 1.5, 0.3, -1),
    (100.0, "real_grid", 0.3, 1.8, -1), (300.0, "complex_const", 2.8, 1.4, 1),
    (100.0, "complex_grid", 0.7, 0.6, 1), (300.0, "real_const", 1.3, 2.2, -1),
)
_DIRECT_CYCLES = 6


def _probes(rng) -> list:
    """Operations that fail today, run untimed in the traced run.

    On q = 0 with (alpha0, beta0, alpha, beta) = (2, 0.4, 1.5, -0.8): the
    two ROADMAP C windows, and a window at Re 100 whose vertical band is
    centred on the lattice row, so the first quadrisection cut runs
    through the eigenvalues.  Then one --kmax region (k in 4..20) per
    potential kind, where low-lying eigenvalues go missing.
    """
    cfg = R.problem_dict(1.0, 2.0, 0.4, 1.5, -0.8, {"type": "zero"}, True)
    row = R.lattice(R.Problem(cfg), 1)["shift"]
    rects = {"re1000": [1000.0, 1020.0, -1.0, 3.0],
             "re3000": [2990.0, 3010.0, -1.0, 2.0],
             "row100": [100.0, 120.0, row - 1.5, row + 1.5]}
    out = [{"kind": "probe_" + name, "sign": 1, "config": cfg,
            "region": {"rect": rect}} for name, rect in rects.items()]
    for kind in _KINDS:
        out.append({"kind": "probe_kmax_" + kind,
                    "sign": 1 if rng.uniform() < 0.5 else -1,
                    "config": _problem(rng, kind),
                    "region": {"kmax": int(rng.integers(4, 21))}})
    return out


def _window(cfg: dict, sign: int, start: float) -> list:
    """[start, start + 20] with the vertical band reggespec.cli._auto_rect
    gives a --kmax region: the lattice row plus 1.5 on either side of
    [min(0, shift), max(0, shift)]."""
    shift = R.lattice(R.Problem(cfg), sign)["shift"]
    return [start, start + 20.0, min(0.0, shift) - 1.5, max(0.0, shift) + 1.5]


def generate(workload: str, seed: int) -> dict:
    rng = _rng(workload, seed)
    if workload == "direct":
        ops = []
        for _ in range(_DIRECT_CYCLES + 1):     # the last one: warm-up
            for start, kind, alpha0, alpha, sign in _DIRECT_CYCLE:
                cfg = _problem(rng, kind, (alpha0, alpha))
                ops.append({"kind": kind, "sign": sign, "config": cfg,
                            "region": {"rect": _window(cfg, sign, start)}})
        warm = ops[-8]      # a 5-wide window keeps the repeated set-up short
        warm["region"]["rect"][1] = warm["region"]["rect"][0] + 5.0
        return {"workload": workload, "seed": seed, "ops": ops[:-8],
                "warmup": warm, "probes": _probes(rng)}
    if workload == "sweep":
        return _generate_sweep(rng, seed)
    if workload == "inverse":
        return _generate_inverse(rng, seed)
    raise ValueError(f"unknown workload {workload!r}")


class Direct:
    """reggespec.cli.main(["spectrum", ...]) on seeded problems."""

    work_unit = "eigenvalues/s"

    def __init__(self, inputs: dict, workdir: str):
        self.workdir = workdir
        self.ops = inputs["ops"]
        self.warmup = inputs["warmup"]
        self.probes = inputs["probes"]

    def write_configs(self):
        from reggespec.model import problem_from_dict, dump_problem
        for i, op in enumerate(self.ops + [self.warmup] + self.probes):
            path = os.path.join(self.workdir, f"problem_{i:03d}.json")
            dump_problem(problem_from_dict(op["config"]), path)
            op["path"] = path

    def argv(self, op: dict) -> list:
        reg = op["region"]
        region = ([f"--kmax={reg['kmax']}"] if "kmax" in reg else
                  ["--rect=" + ",".join(repr(float(v)) for v in reg["rect"])])
        return ["spectrum", "--config", op["path"], "--out",
                os.path.join(self.workdir, "spectrum.csv"),
                "--sign", "plus" if op["sign"] > 0 else "minus"] + region

    def run_op(self, op, call):
        from reggespec import cli
        out = os.path.join(self.workdir, "spectrum.csv")
        if os.path.exists(out):
            os.remove(out)
        sink = io.StringIO()
        # cli.main is the call into the program; the traced run wraps it
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = cli.main(self.argv(op))
            except Exception as exc:   # the CLI must not raise; record how it did
                return {"exception": type(exc).__name__, "message": str(exc)}
        return {"exit": code, "stdout": sink.getvalue()}

    def check_op(self, op, res) -> Outcome:
        out = Outcome()
        if "exception" in res:
            out.fail("exception", f"{res['exception']}: {res['message']}")
            return out
        if res["exit"] != 0:
            out.fail(f"exit{res['exit']}" if res["exit"] in (1, 2, 3)
                     else "exception", res["stdout"].strip()[-200:])
            return out
        with open(os.path.join(self.workdir, "spectrum.csv"),
                  encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        lams = np.array([complex(float(r["re"]), float(r["im"])) for r in rows])
        mults = np.array([int(r["multiplicity"]) for r in rows])
        out.eigenvalues = len(lams)
        if not np.all(np.isfinite(lams)):
            out.fail("nonfinite")
            return out
        p = R.Problem(op["config"])
        sign = op["sign"]
        scale = np.maximum(1.0, np.abs(lams))
        if len(lams) > 1:
            d = np.abs(lams[:, None] - lams[None, :]) / scale[:, None]
            np.fill_diagonal(d, np.inf)
            if d.min() <= EIG_TOL:
                i = int(np.argmin(d.min(axis=1)))
                out.fail("duplicate", f"duplicate eigenvalue {lams[i]:.10g}")
        rect = self._rect(op, p)
        lo, hi = self._expected_count(op, p, rect)
        if lo is not None and not lo <= int(mults.sum()) <= hi:
            out.fail("count_mismatch", f"{int(mults.sum())} eigenvalues where "
                     f"the reference has {lo}" + (f"..{hi}" if hi > lo else ""))
        if p.const is not None:
            ref = R.newton_zero(p, sign, lams)
            err = np.abs(lams - ref) / np.maximum(1.0, np.abs(ref))
            out.digits.extend(R.digits(e) for e in err)
            if np.any(err > EIG_TOL):
                out.fail("reference", f"eigenvalue off the closed form by "
                         f"{err.max():.3g}")
        else:
            simple = mults == 1
            f = R.charfns(p, lams[simple])
            name = "plus" if sign > 0 else "minus"
            step = np.abs(f[name] / f[name + "_dot"]) / scale[simple]
            if np.any(step > EIG_TOL):
                out.fail("residual", f"Newton step {step.max():.3g} on the "
                         "reference integration")
        if (op["config"]["real_data"] and "kmax" in op["region"]
                and _mirror_defect(lams) > EIG_TOL):
            out.fail("mirror_break")
        if out.ok:
            out.work = float(len(lams))
        return out

    @staticmethod
    def _rect(op, p):
        if "rect" in op["region"]:
            return tuple(op["region"]["rect"])
        # same rectangle as reggespec.cli._auto_rect builds for --kmax
        shift = R.lattice(p, op["sign"])["shift"]
        re_hi = (op["region"]["kmax"] + 0.75) * math.pi / p.a
        pad = max(1.5, 1.5 / p.a)
        return (-re_hi, re_hi, min(0.0, shift) - pad, max(0.0, shift) + pad)

    @staticmethod
    def _expected_count(op, p, rect, margin=0.05):
        """(fewest, most) eigenvalues the rectangle may hold; a zero within
        margin of the contour may land on either side of it."""
        x0, x1, y0, y1 = rect
        inner = (x0 + margin, x1 - margin, y0 + margin, y1 - margin)
        outer = (x0 - margin, x1 + margin, y0 - margin, y1 + margin)
        if p.const is not None or "rect" not in op["region"]:
            # the argument principle on the closed form or, for a grid
            # potential, on the adaptive integration (no lattice count
            # covers the low-lying zeros of a --kmax region)
            try:
                return (R.winding_count(p, op["sign"], inner),
                        R.winding_count(p, op["sign"], outer))
            except ValueError:
                return None, None
        pred = R.predicted_positive(p, op["sign"], x0 - 1.0, x1 + 1.0)

        def inside(r):
            return int(np.sum((pred.real > r[0]) & (pred.real < r[1])
                              & (pred.imag > r[2]) & (pred.imag < r[3])))
        return inside(inner), inside(outer)


# ---- sweep -------------------------------------------------------------------

_SWEEP_EVALS = ("delta_plus", "delta_minus", "delta_dot", "delta_zero",
                "identity_residual", "wronskian_delta", "energy")
_SWEEP_BATCHES = (1, 64, 1024, 4096)
_SWEEP_CYCLES = 2
_SAMPLE = 4          # points per batch checked against the adaptive integrator


def _sweep_cycle():
    """Evaluator x batch pairs, big and small batches interleaved.

    energy_identity_residual stops at batch 1024: its trajectory holds
    (4096 + 1) x batch complex values, 268 MB at batch 4096.
    """
    pairs = []
    for j in range(len(_SWEEP_EVALS)):
        for i, b in enumerate(_SWEEP_BATCHES):
            ev = _SWEEP_EVALS[(j + i) % len(_SWEEP_EVALS)]
            if not (ev == "energy" and b > 1024):
                pairs.append((ev, b))
    return pairs


def _generate_sweep(rng, seed):
    ops = []
    cycle = _sweep_cycle()
    for c in range(_SWEEP_CYCLES):
        for i, (ev, b) in enumerate(cycle):
            kind = _KINDS[(i + c) % len(_KINDS)]
            if ev == "energy":       # |lambda| <= 20, uniform in the disc
                r = 20.0 * np.sqrt(rng.uniform(0.0, 1.0, b))
                lam = r * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, b))
            else:
                lam = rng.uniform(-40.0, 40.0, b) + 1j * rng.uniform(-20.0, 20.0, b)
            ops.append({"eval": ev, "batch": b, "kind": kind,
                        "sign": 1 if rng.uniform() < 0.5 else -1,
                        "x": float(rng.uniform(0.1, 0.9)),
                        "config": _problem(rng, kind),
                        "lam": lam.astype(complex)})
    warm = {"eval": "delta_plus", "batch": 64, "kind": "real_grid", "sign": 1,
            "x": 0.5, "config": _problem(rng, "real_grid"),
            "lam": rng.uniform(-40.0, 40.0, 64) + 1j * rng.uniform(-20.0, 20.0, 64)}
    return {"workload": "sweep", "seed": seed, "ops": ops, "warmup": warm}


class Sweep:
    """charfn evaluators on one lambda batch per operation."""

    work_unit = "lambda-evaluations/s"

    def __init__(self, inputs: dict, workdir: str):
        self.ops = inputs["ops"]
        self.warmup = inputs["warmup"]
        self.probes = []

    def write_configs(self):
        from reggespec.model import problem_from_dict
        for op in self.ops + [self.warmup]:
            op["problem"] = problem_from_dict(op["config"])

    def run_op(self, op, call):
        from reggespec import charfn
        from reggespec.model import Sign
        p, lam, ev = op["problem"], op["lam"], op["eval"]
        sign = Sign.PLUS if op["sign"] > 0 else Sign.MINUS
        if ev in ("delta_plus", "delta_minus"):
            s = Sign.PLUS if ev == "delta_plus" else Sign.MINUS
            return call("charfn.delta", charfn.delta, p, s, lam)
        if ev == "delta_dot":
            return call("charfn.delta_dot", charfn.delta_dot, p, sign, lam)
        if ev == "delta_zero":
            return call("charfn.delta_zero", charfn.delta_zero, p, lam)
        if ev == "identity_residual":
            return call("charfn.identity_residual", charfn.identity_residual,
                        p, lam)
        if ev == "wronskian_delta":
            return call("charfn.wronskian_delta", charfn.wronskian_delta,
                        p, sign, lam, op["x"])
        return call("charfn.energy_identity_residual",
                    charfn.energy_identity_residual, p, lam)

    def check_op(self, op, got) -> Outcome:
        out = Outcome()
        got = np.atleast_1d(np.asarray(got, dtype=complex))
        lam, ev = op["lam"], op["eval"]
        if got.shape != lam.shape or not np.all(np.isfinite(got)):
            out.fail("nonfinite")
            return out
        p = R.Problem(op["config"])
        if p.const is None and lam.size > _SAMPLE:
            idx = np.unique(np.linspace(0, lam.size - 1, _SAMPLE).astype(int))
            lam, got = lam[idx], got[idx]
        both = ev in ("identity_residual",)
        f = R.charfns(p, np.concatenate([lam, -lam]) if both else lam)
        n = lam.size
        name = "plus" if op["sign"] > 0 else "minus"
        if ev in ("delta_plus", "delta_minus", "wronskian_delta"):
            key = {"delta_plus": "plus", "delta_minus": "minus"}.get(ev, name)
            err = np.abs(got - f[key]) / f[key + "_scale"]
        elif ev == "delta_dot":
            err = np.abs(got - f[name + "_dot"]) / f[name + "_dot_scale"]
        elif ev == "delta_zero":
            size = np.abs(f["d0"]) + np.abs(f["d0_dot"])
            err = np.abs(got - f["d0"]) / size
        elif ev == "identity_residual":
            size = (f["plus_scale"][:n] * f["plus_scale"][n:]
                    + f["minus_scale"][:n] * f["minus_scale"][n:]
                    + 4.0 * p.alpha * p.alpha0 * np.abs(lam) ** 2)
            err = np.abs(got) / size
        else:
            size = (f["plus_scale"] * np.abs(f["d0_dot"])
                    + f["plus_dot_scale"] * np.abs(f["d0"])
                    + p.alpha * np.abs(f["d0"]) ** 2 + p.alpha0)
            err = np.abs(got) / size
        worst = float(err.max())
        out.digits.append(R.digits(worst))
        if worst > VALUE_TOL:
            out.fail("reference", f"{ev} at batch {op['batch']} off the "
                     f"reference by {worst:.3g}")
        else:
            out.work = float(op["batch"])
        return out


# ---- inverse -----------------------------------------------------------------

_INVERSE_OPS = 16
_SELECTORS = ("c1", "c2", "c1+c2", "c1-c2")
_T_SCHEDULE = [50.0, 100.0, 200.0, 400.0, 800.0, 1600.0]
# Indicator angles sit half a step off the axes: at exactly i r the
# bracket of f_mismatch_logabs cancels to 0 and ln|F| = -inf (a probe).
_ANGLES = (np.arange(32) + 0.5) * (2.0 * math.pi / 32)


def _twin_configs(rng, b: float):
    """Two real problems with the same boundary data whose potentials differ
    only on [0, b): a smooth seeded q1 and q2 = q1 + a bump.  With the split
    point at b, all of the difference lies on the side F depends on."""
    x = np.linspace(0.0, 1.0, 257)
    amp = rng.uniform(-0.5, 0.5, 3)
    q1 = 0.1 + sum(a * np.cos((m + 1) * math.pi * x + m) for m, a in enumerate(amp))
    height = float(rng.uniform(0.1, 0.3))
    q2 = q1 + np.where(x < b, height * np.sin(math.pi * x / b), 0.0)
    alpha0, alpha = _away_from_one(rng), _away_from_one(rng)
    beta0, beta = float(rng.uniform(-1.0, 2.0)), float(rng.uniform(-1.0, 2.0))
    return [R.problem_dict(1.0, alpha0, beta0, alpha, beta,
                           {"type": "grid", "samples": [float(v) for v in q],
                            "interpolation": "cubic"}, True) for q in (q1, q2)]


def _inverse_op(rng, kmax: int, n: int) -> dict:
    """One pipeline: a Hadamard rebuild of the zero set z0 + k pi, |k| <= kmax,
    at truncation n, then the partialinv diagnostics on seeded twins."""
    z0 = complex(rng.uniform(0.2, 1.3) * rng.choice([-1.0, 1.0]),
                 rng.uniform(-1.0, 1.0))
    coefs = R.shifted_sine_coefs(z0)
    usable = [s for s in _SELECTORS if abs(coefs[s]) >= 0.3]
    hadamard = {"z0": [z0.real, z0.imag], "kmax": kmax, "N": n,
                "selector": usable[int(rng.integers(len(usable)))]}
    b = float(rng.uniform(0.25, 0.4))
    partial = {"configs": _twin_configs(rng, b), "b": b,
               "kmax": int(rng.integers(40, 106)),
               "eps": rng.uniform(-0.3, 0.3, 2 * 106 + 1).tolist()}
    return {"kind": "pipeline", "hadamard": hadamard, "partial": partial}


def _generate_inverse(rng, seed):
    ops = [_inverse_op(rng, 7000, 10000) for _ in range(_INVERSE_OPS)]
    # criterion 11's twins (bump on [0, 0.3)) split at b = 0.4 instead of
    # 0.3: q1 = q2 on (0.3, 0.4), so F at b is the difference of products
    # e^{0.2 |Im lam|} times larger; at (pi/2, 200) ln|F| comes back -inf
    x = np.linspace(0.0, 1.0, 257)
    q1 = 0.5 * np.cos(2.0 * x) + 0.1
    q2 = q1 + np.where(x < 0.3, 0.2 * np.sin(math.pi * x / 0.3), 0.0)
    probe = _inverse_op(rng, 1500, 2000)
    probe["kind"] = "probe_indicator_axis"
    probe["partial"].update(b=0.4, kmax=105, default_angles=True, configs=[
        R.problem_dict(1.0, 2.0, 1.0, 0.5, 2.0, {"type": "grid", "samples": [float(v) for v in q],
                       "interpolation": "cubic"}, True) for q in (q1, q2)])
    # a smaller zero set keeps the warm-up, repeated in set-up, short
    return {"workload": "inverse", "seed": seed, "ops": ops,
            "warmup": _inverse_op(rng, 1500, 2000), "probes": [probe]}


def _lattice_pairs(p: R.Problem, sign: int, kmax: int):
    """(index, mu_k + P/k) over the lattice indices |k| <= kmax, mu_k != 0,
    numbered as reggespec.asympt.mu_k numbers them."""
    lat = R.lattice(p, sign)
    off = 0.5 if lat["case"] > 0 else 1.0
    out = []
    for k in range(-kmax, kmax + 1):
        if k == 0 or (lat["case"] < 0 and k == -1):
            continue
        mu = (abs(k) - off) * math.copysign(1.0, k) * math.pi / p.a \
            + 1j * lat["shift"]
        out.append((k, mu, mu + lat["P"] / k))
    return out


class Inverse:
    """Hadamard rebuilds from lattice zero sets, then partialinv diagnostics."""

    work_unit = "pipelines/s"

    def __init__(self, inputs: dict, workdir: str):
        self.ops = inputs["ops"]
        self.warmup = inputs["warmup"]
        self.probes = inputs["probes"]

    def write_configs(self):
        from reggespec.model import problem_from_dict
        for op in self.ops + [self.warmup] + self.probes:
            op["problems"] = [problem_from_dict(c)
                              for c in op["partial"]["configs"]]

    def run_op(self, op, call):
        return {"hadamard": self._hadamard(op["hadamard"], call),
                "partial": self._partial(op["partial"], op["problems"], call)}

    @staticmethod
    def _hadamard(h, call):
        from reggespec import reconstruct as rc
        z0 = complex(*h["z0"])
        zeros = [(z0 + k * math.pi, 1) for k in range(-h["kmax"], h["kmax"] + 1)]
        zs = call("reconstruct.ZeroSet", rc.ZeroSet, zeros=zeros,
                  order_at_origin=1)
        c0 = R.shifted_sine_coefs(z0)[h["selector"]]
        model = call("reconstruct.hadamard_build", rc.hadamard_build, zs,
                     h["selector"], c0, N=h["N"])
        xs = np.linspace(-5.0, 5.0, 201)
        return {"z": xs, "f": call("reconstruct.eval", model.eval, xs)}

    @staticmethod
    def _partial(op, problems, call):
        from reggespec import asympt
        from reggespec import partialinv as pi
        from reggespec import reconstruct as rc
        p1, p2 = problems
        b, kmax = op["b"], op["kmax"]
        ref = R.Problem(op["configs"][0])
        est = call("partialinv.indicator_estimate", pi.indicator_estimate,
                   lambda z: call("partialinv.f_mismatch_logabs",
                                  pi.f_mismatch_logabs, p1, p2, b, z),
                   angles=None if op.get("default_angles") else _ANGLES,
                   logabs=True)
        plus = _lattice_pairs(ref, 1, kmax)
        minus = _lattice_pairs(ref, -1, kmax)
        zs = call("reconstruct.ZeroSet", rc.ZeroSet,
                  zeros=[(z, 1) for _, _, z in plus])
        radii = np.array([0.25, 0.5, 0.75]) * kmax * math.pi
        dens = call("partialinv.density_check", pi.density_check, zs, 1.0, radii)
        model = call("asympt.asymptotic_model", asympt.asymptotic_model, p1)
        eps = op["eps"]
        sub_p = [(k, p1.a * mu / b + eps[k + kmax] / (abs(k) + 1))
                 for k, mu, _ in plus]
        sub_m = [(k, p1.a * mu / b + 1j * eps[k + kmax] / (abs(k) + 1))
                 for k, mu, _ in minus]
        dev = call("partialinv.weighted_deviation", pi.weighted_deviation,
                   sub_p, sub_m, b, b, model)
        subsets = ([(k, z) for k, _, z in plus], [(k, z) for k, _, z in minus])
        diag = call("partialinv.critical_diagnostics", pi.critical_diagnostics,
                    p1, p2, b, b, subsets, _T_SCHEDULE)
        return {"est": est, "dens": dens, "dev": dev, "diag": diag,
                "radii": radii, "plus": plus, "minus": minus,
                "subsets": subsets}

    def check_op(self, op, res) -> Outcome:
        out = Outcome()
        self._check_hadamard(op["hadamard"], res["hadamard"], out)
        self._check_partial(op["partial"], res["partial"], out)
        if out.ok:
            out.work = 1.0
        return out

    @staticmethod
    def _check_hadamard(h, res, out: Outcome):
        exact = R.shifted_sine(complex(*h["z0"]), res["z"])
        got = np.asarray(res["f"], dtype=complex)
        if not np.all(np.isfinite(got)):
            out.fail("nonfinite", "rebuilt function not finite")
            return
        err = float(np.max(np.abs(got - exact) / np.maximum(1.0, np.abs(exact))))
        out.digits.append(R.digits(err))
        if err > VALUE_TOL:
            out.fail("reference", f"rebuilt function off by {err:.3g}")

    @staticmethod
    def _check_partial(op, res, out: Outcome):
        b, kmax = op["b"], op["kmax"]
        p1, p2 = (R.Problem(c) for c in op["configs"])
        est, diag = res["est"], res["diag"]
        if not (np.all(np.isfinite(est.samples)) and np.all(np.isfinite(diag.E0))):
            out.fail("nonfinite", "indicator samples or E0 not finite")
            return
        # growth of F is at most 2 b |sin theta| (criterion 11's margin)
        if np.any(est.h > 2.0 * b * np.abs(np.sin(est.angles)) + 0.1):
            out.fail("reference", "indicator above 2 b |sin theta|")
        # |F| at two probe points against the integrated bracket
        cols = [1, len(est.angles) // 3]
        pts = est.radii[1] * np.exp(1j * est.angles[cols])
        ref_abs = np.abs(R.mismatch(p1, p2, pts, b))
        got_abs = np.exp(est.samples[cols, 1] * est.radii[1])
        log_err = float(np.max(np.abs(got_abs - ref_abs) / ref_abs))
        # density: the counting function of the supplied lattice
        mods = np.abs(np.array([z for _, _, z in res["plus"]]))
        want = np.array([np.sum(mods <= r) * math.pi / (2.0 * r)
                         for r in res["radii"]])
        if not np.array_equal(want, res["dens"].ratios):
            out.fail("reference", "density ratios differ from the count")
        # weighted deviation: the perturbations, summed directly
        eps = op["eps"]
        want_dev = sum(abs(eps[k + kmax]) / (abs(k) + 1) ** 2
                       for k, _, _ in res["plus"])
        want_dev += sum(abs(eps[k + kmax]) / (abs(k) + 1) ** 2
                        for k, _, _ in res["minus"])
        dev_err = abs(res["dev"].total - want_dev) / want_dev
        # critical diagnostics: products, comparison function and G
        t = np.array(_T_SCHEDULE)
        rho = 1j * t
        lam_p = np.array([z for _, z in res["subsets"][0]])
        lam_m = np.array([z for _, z in res["subsets"][1]])
        phi = (np.prod(1.0 - rho[:, None] / lam_p[None, :] ** 2, axis=1)
               * np.prod(1.0 - rho[:, None] / lam_m[None, :] ** 2, axis=1))
        lam = np.sqrt(1j * t)
        g_ref = R.mismatch(p1, p2, lam, b) * R.mismatch(p1, p2, -lam, b)
        g_err = float(np.max(np.abs(diag.G - g_ref) / np.abs(g_ref)))
        phi_err = float(np.max(np.abs(diag.Phi - phi) / np.abs(phi)))
        worst = max(g_err, phi_err, dev_err, log_err)
        out.digits.append(R.digits(worst))
        if worst > VALUE_TOL:
            out.fail("reference", f"partialinv off the reference by {worst:.3g} "
                     f"(G {g_err:.2g}, Phi {phi_err:.2g}, deviation "
                     f"{dev_err:.2g}, |F| {log_err:.2g})")


WORKLOADS = {"direct": Direct, "sweep": Sweep, "inverse": Inverse}
