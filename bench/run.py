"""reggespec benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload direct --seed 1 --seconds 40 --trace 0

Workloads are ``direct``, ``inverse`` and ``sweep`` (see bench/NOTES.md;
BENCHMARK.json lists the first two).  The run is a closed loop with one
client: the next operation starts when the previous one has returned
and been checked.  BLAS and OpenMP pools are capped at one thread.
Untraced runs report times at a reference pace (see pace.py): the wall
times are scaled by a fixed kernel timed between the operations, and
printed as measured too.  Lines before the last describe the run;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer numbers from spans around reggespec's
cross-module calls.  The package is imported from ``src/`` next to this
directory; without it the run exits with code 2 and prints no result.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_REPEATS = 3
MIN_OPS = 5
TAIL_PCTS = (99.0, 95.0, 90.0, 75.0)
# operations in each pass of the traced run (one untraced pass, one traced)
TRACE_OPS = {"direct": 6, "sweep": 27, "inverse": 4}

PROBE_KINDS = ("duplicate", "count_mismatch", "exception", "nonfinite")


def _units(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("direct", "sweep", "inverse"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _setup_once(wl_mod, args, workdir):
    """Generate inputs, write configs, run one untimed warm-up operation."""
    os.makedirs(workdir)
    inputs = wl_mod.generate(args.workload, args.seed)
    digest = wl_mod.inputs_hash(inputs)
    wl = wl_mod.WORKLOADS[args.workload](inputs, workdir)
    wl.write_configs()
    res = wl.run_op(wl.warmup, _plain_call)
    warm = wl.check_op(wl.warmup, res)
    if not warm.ok:
        raise RuntimeError(f"warm-up operation failed: {warm.kinds} {warm.note}")
    return wl, digest


def _plain_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _run_ops(wl, ops, call, seconds=None, pace=None):
    """Closed loop over ops: time each call, check it untimed.

    With seconds, cycles through ops until that much operation time has
    been spent (and at least MIN_OPS ran); otherwise runs ops once.
    Returns the (start, end) of each call, the outcomes and the time
    spent in calls.  With pace, samples the reference kernel between
    operations in proportion to the wall time that passed, and after the
    last.
    """
    stamps, outcomes = [], []
    spent, i = 0.0, 0
    while (i < len(ops)) if seconds is None else (spent < seconds or i < MIN_OPS):
        op = ops[i % len(ops)]
        i += 1
        if pace is not None:
            pace.catch_up()
        t0 = time.perf_counter()
        res = wl.run_op(op, call)
        t1 = time.perf_counter()
        spent += t1 - t0
        outcomes.append(wl.check_op(op, res))
        stamps.append((t0, t1))
    if pace is not None:
        pace.catch_up(least=1)
    return stamps, outcomes, spent


def _latency(times, outcomes):
    """p50, and the highest of TAIL_PCTS with at least ten operations
    beyond it (p50 when none has); a failed operation counts as +inf."""
    lat = sorted(t if o.ok else math.inf for t, o in zip(times, outcomes))
    n = len(lat)
    p50 = statistics.median(lat)
    pct = next((p for p in TAIL_PCTS if n * (1.0 - p / 100.0) >= 10.0), None)
    if pct is None:
        return p50, p50, 50.0, n
    return p50, lat[math.ceil(pct / 100.0 * n) - 1], pct, n   # nearest rank


def _failures(outcomes):
    from workloads import FAIL_KINDS
    counts = {k: 0 for k in FAIL_KINDS}
    for o in outcomes:
        for k in o.kinds:
            counts[k] += 1
    return counts


def _print_failures(label, outcomes):
    failed = [o for o in outcomes if not o.ok]
    print(f"{label}: {len(failed)} of {len(outcomes)} operations failed "
          f"(fail_frac {len(failed) / max(1, len(outcomes)):.4f})")
    for kind, n in _failures(outcomes).items():
        if n:
            print(f"  fail kind {kind}: {n}")
    for o in failed[:10]:
        print(f"  failure: {','.join(o.kinds)}: {o.note}")


def _result(correct, attempted, failed, metrics, units):
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    for k in sorted(metrics):
        print(f"{k} = {metrics[k]:.6g} {units[k]}")
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def _untraced(wl, args, setup_raw, setup_pace):
    import numpy as np
    from pace import REF_KERNEL_S, Pace
    from workloads import ladder_digits

    pace = Pace()
    stamps, outcomes, spent = _run_ops(wl, wl.ops, _plain_call, args.seconds,
                                       pace)
    times = [pace.scale(t0, t1) for t0, t1 in stamps]
    p50, tail, pct, n = _latency(times, outcomes)
    w50, wtail, _, _ = _latency([t1 - t0 for t0, t1 in stamps], outcomes)
    work = sum(o.work for o in outcomes)
    ladder = ladder_digits()
    digits = [d for o in outcomes for d in o.digits]
    if args.workload == "sweep":
        digits += list(ladder.values())
    metrics = {
        "setup_s": setup_raw * setup_pace.factor(),
        "op_p50_s": p50, "op_tail_s": tail, "work_per_s": work / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digits_min": float(np.min(digits)),
    }
    metrics.update(ladder)
    failed = sum(not o.ok for o in outcomes)
    print(f"operations: {n} in {spent:.3f} s of operation time")
    print(f"op_tail_s is p{pct:g} of n={n} operations")
    print(f"work_per_s counts {wl.work_unit} ({work:.0f} in {spent:.3f} s)")
    print(f"pace: reference kernel median {pace.median() * 1e3:.2f} ms over "
          f"{len(pace.samples)} passes in the timed phase, "
          f"{setup_pace.median() * 1e3:.2f} ms over "
          f"{len(setup_pace.samples)} in set-up; times are scaled to "
          f"{REF_KERNEL_S * 1e3:.1f} ms")
    print(f"wall time as measured: setup_s {setup_raw:.4f}, op_p50_s "
          f"{w50:.4f}, op_tail_s {wtail:.4f}, work_per_s {work / spent:.4f}")
    _print_failures("timed operations", outcomes)
    _result(failed == 0, n, failed, metrics, _units("end_to_end"))


def _traced(wl, args):
    import numpy as np
    import spans as tr

    k = TRACE_OPS[args.workload]
    ops = [wl.ops[i % len(wl.ops)] for i in range(k)]
    stamps, o_plain, _ = _run_ops(wl, ops, _plain_call)
    t_plain = [t1 - t0 for t0, t1 in stamps]

    tracer = tr.Tracer()
    tr.install(tracer)

    def call(name, fn, *a, **kw):
        return tracer.span(name, fn, *a, **kw)[0]

    t_traced, o_traced = [], []
    try:
        for i, op in enumerate(ops):
            tracer.op = i
            t0 = time.perf_counter()
            res, _ = tracer.span("bench.op", wl.run_op, op, call)
            t_traced.append(time.perf_counter() - t0)
            tracer.op = None
            o_traced.append(wl.check_op(op, res))
    finally:
        tracer.op = None
        tracer.restore()

    eig = sum(o.eigenvalues for o in o_traced)
    m = tr.layer_metrics(tracer.spans, len(ops), eig)
    wall = sum(t_traced)
    layer_self = sum(sp.self_time() for sp in tracer.spans
                     if sp.layer in tr.LAYERS)
    p50_plain = float(np.median(t_plain))
    p50_traced = float(np.median(t_traced))
    probes = [wl.check_op(pr, wl.run_op(pr, _plain_call)) for pr in wl.probes]
    counts = _failures(probes)
    m.update({
        "trace.op_p50_untraced_s": p50_plain,
        "trace.op_p50_traced_s": p50_traced,
        "trace.overhead_s": p50_traced - p50_plain,
        "trace.layer_self_share": layer_self / wall,
        "trace.spans_per_op": len(tracer.spans) / len(ops),
        "probe.fail_frac": (sum(not o.ok for o in probes) / len(probes)
                            if probes else 0.0),
    })
    m.update({f"probe.fail.{k}": float(counts[k]) for k in PROBE_KINDS})

    outcomes = o_plain + o_traced
    failed = sum(not o.ok for o in outcomes)
    print(f"traced run: {len(ops)} operations untraced, then the same "
          f"{len(ops)} traced; {len(tracer.spans)} spans")
    print(f"layer self time {layer_self:.3f} s of {wall:.3f} s traced "
          f"operation time")
    _print_failures("operations", outcomes)
    if probes:
        _print_failures("known-defect probes (not timed)", probes)
    _result(failed == 0, len(outcomes), failed, m, _units("per_layer"))


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "reggespec", "__init__.py")):
        print(f"reggespec sources not found under {SRC}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import numpy as np
    import reggespec  # noqa: F401  (the import is part of set-up time)
    import reggespec.cli  # noqa: F401
    import workloads as wl_mod
    from pace import Pace
    t_import = time.perf_counter() - t0
    warnings.simplefilter("ignore", RuntimeWarning)
    np.seterr(all="ignore")

    rest, dirs = [], []
    setup_pace = Pace()
    try:
        for rep in range(SETUP_REPEATS):
            setup_pace.catch_up(least=1)
            dirs.append(os.path.join(
                WORK, f"{args.workload}-{args.seed}-{os.getpid()}-{rep}"))
            t1 = time.perf_counter()
            wl, digest = _setup_once(wl_mod, args, dirs[-1])
            rest.append(time.perf_counter() - t1)
        setup_pace.catch_up(least=1)
        setup_raw = t_import + statistics.median(rest)
        print(f"workload {args.workload} seed {args.seed} "
              f"inputs_sha256 {digest}")
        print(f"setup: import {t_import:.3f} s, then inputs + configs + "
              f"warm-up {', '.join(f'{r:.3f}' for r in rest)} s")
        if args.trace:
            _traced(wl, args)
        else:
            _untraced(wl, args, setup_raw, setup_pace)
    finally:
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
