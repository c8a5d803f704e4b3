"""Spans around the calls one reggespec module makes into another.

Only the traced run installs these wrappers.  Each wrapper replaces the
name a caller module looks up (``roots.delta`` is charfn's ``delta`` as
roots sees it), so the program itself is unchanged.  A span records its
name, start, end, parent span, operation id and a few counts taken from
the call's arguments and result.  Spans stay in memory until the run
ends.  A span's self time is its duration minus the union of its
children's intervals; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import inspect
import time

import numpy as np

LAYERS = ("cli", "model", "odecore", "charfn", "roots", "asympt",
          "reconstruct", "partialinv")

MARCHERS = ("odecore.solve_y", "odecore.solve_phi", "odecore.solve_y_trajectory",
            "odecore.solve_y_lambda_derivative")
DERIV_MARCHERS = ("odecore.solve_y_lambda_derivative",)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info", "children")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.info = {}
        self.children = []
        self.start = self.end = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        covered, last = 0.0, self.start
        for c in sorted(self.children, key=lambda s: s.start):
            lo, hi = max(c.start, last), c.end
            if hi > lo:
                covered += hi - lo
                last = hi
        return self.duration - covered


class Tracer:
    """Collects spans for the operation currently marked active."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = None
        self._patches = []

    def span(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name; returns (result, span)."""
        sp = Span(name, self.stack[-1] if self.stack else None, self.op)
        if sp.parent is not None:
            sp.parent.children.append(sp)
        self.spans.append(sp)
        self.stack.append(sp)
        sp.start = time.perf_counter()
        try:
            return fn(*args, **kwargs), sp
        finally:
            sp.end = time.perf_counter()
            self.stack.pop()

    def wrap(self, owner, attr: str, name: str, note=None):
        """Replace owner.attr by a span-recording wrapper.

        note(bound_arguments, result, span) may add counts to span.info.
        """
        orig = getattr(owner, attr)
        sig = inspect.signature(orig) if note is not None else None

        def wrapper(*args, **kwargs):
            if self.op is None:
                return orig(*args, **kwargs)
            result, sp = self.span(name, orig, *args, **kwargs)
            if note is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                note(bound.arguments, result, sp)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def restore(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()


# ---- what each wrapper notes ------------------------------------------------

def _batch(lam) -> int:
    return int(np.asarray(lam).size)


def _steps(p, x, nsteps, default_steps) -> int:
    n = default_steps if nsteps is None else int(nsteps)
    if x is None or x >= p.a:
        return n
    return max(8, int(np.ceil(n * x / p.a)))


def install(tracer: Tracer) -> None:
    """Wrap every cross-module call on the paths the workloads take."""
    from reggespec import (asympt, charfn, cli, model, odecore, partialinv,
                           reconstruct, roots)

    default_steps = odecore.DEFAULT_STEPS

    def note_march(args, res, sp):
        p = args["p"]
        n = _batch(args["lam"])
        if sp.name == "odecore.solve_phi":
            x = p.a - float(args["x"])
        elif sp.name == "odecore.solve_y_trajectory":
            x = None
        else:
            x = args.get("x")
        steps = _steps(p, x, args.get("nsteps"), default_steps)
        sigma = getattr(res, "sigma", None)
        if sigma is None and isinstance(res, tuple) and len(res) == 3:
            sigma = res[2]
        rescaled = 0 if sigma is None else int(np.count_nonzero(sigma))
        sp.info.update(batch=n, steps=steps, rescaled=rescaled)

    def note_batch(args, res, sp):
        sp.info["batch"] = _batch(args["lam"])

    def note_newton(args, res, sp):
        ok = np.asarray(res[2])
        sp.info.update(points=int(ok.size), ok=int(np.count_nonzero(ok)))

    def note_log_e(args, res, sp):
        sp.info["points"] = int(np.asarray(args["z"]).size)

    def note_exit(args, res, sp):
        sp.info["exit"] = res

    # odecore as charfn and partialinv see it
    for owner in (charfn, partialinv):
        for fn in ("solve_y", "solve_phi", "solve_y_lambda_derivative",
                   "solve_y_trajectory"):
            if hasattr(owner, fn):
                tracer.wrap(owner, fn, f"odecore.{fn}", note_march)
    # charfn as roots and cli see it
    for owner in (roots, cli):
        for fn in ("delta", "delta_dot", "delta_zero", "delta_zero_dot"):
            if hasattr(owner, fn):
                tracer.wrap(owner, fn, f"charfn.{fn}", note_batch)
    # roots: the stages compute_spectrum runs, and roots as cli sees it
    tracer.wrap(roots, "find_zeros", "roots.find_zeros")
    tracer.wrap(roots, "newton_refine", "roots.newton_refine", note_newton)
    tracer.wrap(roots, "_winding_multi", "roots.winding")
    for fn in ("compute_spectrum", "index_eigenvalues", "find_zeros"):
        tracer.wrap(cli, fn, f"roots.{fn}")
    # asympt as cli, roots and partialinv see it
    for fn in ("asymptotic_model", "predicted_lambda", "mu_k"):
        tracer.wrap(cli, fn, f"asympt.{fn}")
    tracer.wrap(asympt.AsymptoticModel, "mu", "asympt.mu")
    tracer.wrap(partialinv, "asymptotic_model", "asympt.asymptotic_model")
    tracer.wrap(partialinv, "phi1_eval", "asympt.phi1_eval")
    # model: the potential as odecore evaluates and reflects it
    tracer.wrap(model.Potential, "__call__", "model.q")
    tracer.wrap(model.Potential, "reflect", "model.reflect")
    # reconstruct internals that carry the product sums
    tracer.wrap(reconstruct, "_log_E", "reconstruct._log_E", note_log_e)
    tracer.wrap(reconstruct, "_tail_log", "reconstruct._tail_log", note_log_e)
    tracer.wrap(cli, "main", "cli.main", note_exit)


# ---- per-layer metrics ------------------------------------------------------

def _p50(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _has_ancestor(sp: Span, names) -> bool:
    p = sp.parent
    while p is not None:
        if p.name in names:
            return True
        p = p.parent
    return False


def _bucket(n: int) -> str:
    if n <= 1:
        return "b1"
    if n <= 64:
        return "b64"
    if n <= 1024:
        return "b1024"
    return "b4096"


def layer_metrics(spans: list[Span], n_ops: int, eigenvalues: int) -> dict:
    """Per-layer numbers from the spans of n_ops traced operations.

    Counts and self times are per operation; p50s are per call.
    """
    per_op = 1.0 / max(1, n_ops)
    self_s = {layer: 0.0 for layer in LAYERS}
    for sp in spans:
        if sp.layer in self_s:
            self_s[sp.layer] += sp.self_time()
    by = {}
    for sp in spans:
        by.setdefault(sp.name, []).append(sp)

    march = [sp for sp in spans if sp.name in MARCHERS]
    deriv = [sp for sp in march if sp.name in DERIV_MARCHERS]
    lam_pts = sum(sp.info["batch"] for sp in march)
    lam_steps = sum(sp.info["batch"] * sp.info["steps"] for sp in march)
    rescaled = sum(sp.info["rescaled"] for sp in march)
    buckets = {"b1": [], "b64": [], "b1024": [], "b4096": []}
    for sp in march:
        buckets[_bucket(sp.info["batch"])].append(sp.duration)

    charfn_calls = [sp for sp in spans if sp.layer == "charfn"]
    charfn_march = [sp for sp in march
                    if sp.parent is not None and sp.parent.layer == "charfn"]

    wind_f = [sp for sp in spans if sp.layer == "charfn"
              and _has_ancestor(sp, ("roots.winding",))]
    newton = by.get("roots.newton_refine", [])
    newton_f = [sp for sp in spans if sp.layer == "charfn"
                and _has_ancestor(sp, ("roots.newton_refine",))]
    newton_iters = [sp for sp in newton_f if sp.name == "charfn.delta_dot"]
    roots_march = [sp for sp in march
                   if _has_ancestor(sp, ("roots.compute_spectrum",
                                         "roots.find_zeros"))]
    search = [sp for sp in roots_march
              if _has_ancestor(sp, ("roots.find_zeros",))]
    n_points = sum(sp.info["points"] for sp in newton)
    n_ok = sum(sp.info["ok"] for sp in newton)

    exits = {"0": 0, "1": 0, "2": 0, "3": 0, "exc": 0}
    for sp in by.get("cli.main", []):
        code = sp.info.get("exit", "exc")
        exits[str(code) if str(code) in exits else "exc"] += 1

    m = {
        "odecore.calls": (len(march) - len(deriv)) * per_op,
        "odecore.deriv_calls": len(deriv) * per_op,
        "odecore.lam_points": lam_pts * per_op,
        "odecore.lam_steps": lam_steps * per_op,
        "odecore.self_s": self_s["odecore"] * per_op,
        "odecore.ns_per_lam_step": (1e9 * self_s["odecore"] / lam_steps
                                    if lam_steps else 0.0),
        "odecore.rescaled_frac": rescaled / lam_pts if lam_pts else 0.0,
        "charfn.calls": len(charfn_calls) * per_op,
        "charfn.self_s": self_s["charfn"] * per_op,
        "charfn.marcher_per_call": (len(charfn_march) / len(charfn_calls)
                                    if charfn_calls else 0.0),
        "roots.self_s": self_s["roots"] * per_op,
        "roots.winding_f_calls": len(wind_f) * per_op,
        "roots.winding_points": sum(sp.info["batch"] for sp in wind_f) * per_op,
        "roots.newton_iters": len(newton_iters) * per_op,
        "roots.newton_f_calls": len(newton_f) * per_op,
        "roots.newton_ok_frac": n_ok / n_points if n_points else 0.0,
        "roots.search_marcher_calls": len(search) * per_op,
        "roots.polish_marcher_calls": (len(roots_march) - len(search)) * per_op,
        "roots.eig_per_marcher_call": (eigenvalues / len(roots_march)
                                       if roots_march else 0.0),
        "reconstruct.build_p50_s": _p50([sp.duration for sp in
                                         by.get("reconstruct.hadamard_build", [])]),
        "reconstruct.eval_p50_s": _p50([sp.duration for sp in
                                        by.get("reconstruct.eval", [])]),
        "reconstruct.logE_points": sum(sp.info["points"] for sp in
                                       by.get("reconstruct._log_E", [])) * per_op,
        "reconstruct.self_s": self_s["reconstruct"] * per_op,
        "partialinv.self_s": self_s["partialinv"] * per_op,
        "partialinv.marcher_calls": sum(
            1 for sp in march if sp.parent is not None
            and sp.parent.layer == "partialinv") * per_op,
        "model.q_calls": len(by.get("model.q", [])) * per_op,
        "model.q_self_s": self_s["model"] * per_op,
        "asympt.self_s": self_s["asympt"] * per_op,
        "cli.self_s": self_s["cli"] * per_op,
    }
    for b, vals in buckets.items():
        m[f"odecore.call_p50_s.{b}"] = _p50(vals)
    for code, n in exits.items():
        m[f"cli.exit.{code}"] = float(n)
    return m
