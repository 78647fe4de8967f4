"""nipoly benchmark: one workload, timed end to end or traced by layer.

    python3 bench/run.py --workload {free_energy,interface,rmt} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; nipoly is imported from ./src.  The last line
of standard output is one JSON object: ``correct`` (every gate passed),
``attempted`` and ``failed`` operations, and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Details (gates, failure kinds, unit times) go to standard error.  The exit
code is 0 only when every gate passed.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = "1"
SETUP_SAMPLES = 5
# The speed probe's time at the reference speed of the 2-core x86-64 VM the
# seed numbers were taken on.  Times are reported at that speed (see
# speed_factor); only ratios between runs matter.
SPEED_REF_S = 0.015

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"), ("failed_frac", "frac")]
PER_LAYER = [
    ("environment.self_s", "s"),
    ("environment.sites", "count"),
    ("environment.ns_per_site", "ns"),
    ("polymer.scan.self_s", "s"),
    ("polymer.scan.cells", "count"),
    ("polymer.scan.ns_per_cell", "ns"),
    ("polymer.logZ_grid.self_s", "s"),
    ("polymer.logZ_grid.cells", "count"),
    ("polymer.tau.self_s", "s"),
    ("polymer.tau.calls", "count"),
    ("logspace.logdet.self_s", "s"),
    ("logspace.logdet.calls", "count"),
    ("logspace.logdet.k3", "count"),
    ("polymer.precision_errors", "count"),
    ("interface.oracle_misses", "count"),
    ("interface.gibbs.self_s", "s"),
    ("interface.gibbs.updates", "count"),
    ("interface.gibbs.iat_max", "sweeps"),
    ("interface.gibbs.ess_per_s", "1/s"),
    ("rmt.eig.self_s", "s"),
    ("rmt.eig.matrices", "count"),
    ("rmt.eig.n3", "count"),
    ("rmt.sample.self_s", "s"),
    ("shapes.mp_quantile.self_s", "s"),
    ("shapes.mp_quantile.calls", "count"),
    ("shapes.mp_mass_above.calls", "count"),
    ("shapes.sc_quantile.self_s", "s"),
    ("driver.self_s", "s"),
    ("trace.overhead_frac", "frac"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=["free_energy", "interface", "rmt"])
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.setup_probe and None in (args.workload, args.seed, args.seconds):
        p.error("--workload, --seed and --seconds are required")
    return args


def _speed_kernel() -> None:
    import numpy as np

    s = 0
    for i in range(150_000):
        s += i * i
    a = np.arange(200_000, dtype=float)
    for _ in range(10):
        a = np.sqrt(a + 1.0)


def speed_probe() -> float:
    """Best of three timings of a fixed kernel (Python bytecode and numpy,
    nothing from nipoly)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _speed_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def timed(fn):
    """Run fn; return (its result, raw seconds, speed factor).

    On a shared VM the processor slows by up to 2x for seconds at a time.
    The speed probe just before and just after the call measures that
    state, and raw seconds * factor is the time at the reference speed.
    """
    k0 = speed_probe()
    t0 = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t0
    k1 = speed_probe()
    return result, raw, SPEED_REF_S / (0.5 * (k0 + k1))


def measure_setup() -> list[tuple[float, float]]:
    """Fresh interpreters from spawn to ready (import nipoly and warm up):
    (raw seconds, speed factor) per sample.  The probe's exit is outside
    the timing: Popen's context manager waits for it."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        k0 = speed_probe()
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            raw = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed")
        k1 = speed_probe()
        samples.append((raw, SPEED_REF_S / (0.5 * (k0 + k1))))
    return samples


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import spans as tr  # after the thread settings: these import numpy
    import workloads as wl

    wl.warm_up()
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    setup_times = [] if args.trace else measure_setup()
    workload = wl.WORKLOADS[args.workload](args.seed)
    reps = max(2, round(args.seconds / workload.unit_s))
    bindings = tr.Bindings()
    recorder = wl.Recorder(bindings)
    for module, name in workload.WATCH:
        recorder.watch(module, name)
    tracer = tr.Tracer()
    if args.trace:
        tr.install(tracer, bindings)

    def run_unit(rep: int, tracing: bool) -> dict:
        tracer.active = tracing
        span = tracer.open("driver") if tracing else None
        try:
            return workload.unit(rep, reps, tracer)
        finally:
            if span is not None:
                tracer.close(span)
            tracer.active = False

    records, plain, traced = [], [], []  # (raw seconds, speed factor) per unit
    try:
        for rep in range(reps):
            tracing = bool(args.trace) and rep % 2 == 1
            rec, raw, factor = timed(lambda: run_unit(rep, tracing))
            rec["calls"] = recorder.take()
            records.append(rec)
            (traced if tracing else plain).append((raw, factor))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        bindings.restore()

    ops = wl.Ops()
    gates, extras = workload.check(records, ops)
    correct = all(g["ok"] for g in gates.values())

    if args.trace:
        metrics = layer_metrics(tracer, traced, plain, reps, ops, extras)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        dump = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        dump.write_text(json.dumps(tracer.dump()))
    else:
        metrics = {
            "setup_s": statistics.median(raw * f for raw, f in setup_times),
            "wall_s": statistics.median(raw * f for raw, f in plain),
            "peak_rss_mb": peak_rss_mb,
            # Laplace's rule of succession: the failure probability estimate
            # (failed + 1) / (attempted + 2) never reads exactly 0 or 1
            "failed_frac": (ops.failed + 1) / (ops.attempted + 2),
        }
    units = dict(END_TO_END + PER_LAYER)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "reps": reps,
        "unit_s": [raw for raw, _ in plain],
        "traced_unit_s": [raw for raw, _ in traced],
        "speed_factor": [f for _, f in plain + traced],
        "setup_s": [raw for raw, _ in setup_times],
        "setup_speed_factor": [f for _, f in setup_times],
        "gates": gates,
        "failure_kinds": dict(ops.kinds),
        "machine": machine(),
    }
    print(json.dumps(details, default=float), file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def layer_metrics(tracer, traced, plain, reps, ops, extras) -> dict:
    """Per-layer metrics, each per traced repetition (failure counts: per
    repetition of the whole run)."""
    n = max(len(traced), 1)  # traced: (raw seconds, speed factor) per unit
    self_s = {k: v / n for k, v in tracer.self_times().items()}
    count = {k: v / n for k, v in tracer.counts.items()}

    def per(num, den, scale=1e9):
        return scale * num / den if den else 0.0

    env_s, sites = self_s.get("environment", 0.0), count.get("environment.sites", 0.0)
    scan_s, cells = self_s.get("polymer.scan", 0.0), count.get("polymer.scan.cells", 0.0)
    gibbs_s = self_s.get("interface.gibbs", 0.0)
    iat = extras.get("iat_max", 0.0)
    sweeps = extras.get("sweeps_per_unit", 0.0)
    m = {
        "environment.self_s": env_s,
        "environment.sites": sites,
        "environment.ns_per_site": per(env_s, sites),
        "polymer.scan.self_s": scan_s,
        "polymer.scan.cells": cells,
        "polymer.scan.ns_per_cell": per(scan_s, cells),
        "polymer.logZ_grid.self_s": self_s.get("polymer.logZ_grid", 0.0),
        "polymer.logZ_grid.cells": count.get("polymer.logZ_grid.cells", 0.0),
        "polymer.tau.self_s": self_s.get("polymer.tau", 0.0),
        "polymer.tau.calls": count.get("polymer.tau.calls", 0.0),
        "logspace.logdet.self_s": self_s.get("logspace.logdet", 0.0),
        "logspace.logdet.calls": count.get("logspace.logdet.calls", 0.0),
        "logspace.logdet.k3": count.get("logspace.logdet.k3", 0.0),
        "polymer.precision_errors": ops.kinds.get("PrecisionLossError", 0) / reps,
        "interface.oracle_misses": ops.kinds.get("phi_oracle_miss", 0) / reps,
        "interface.gibbs.self_s": gibbs_s,
        "interface.gibbs.updates": count.get("interface.gibbs.updates", 0.0),
        "interface.gibbs.iat_max": iat,
        "interface.gibbs.ess_per_s": per(sweeps / iat if iat else 0.0, gibbs_s, 1.0),
        "rmt.eig.self_s": self_s.get("rmt.eig", 0.0),
        "rmt.eig.matrices": count.get("rmt.eig.matrices", 0.0),
        "rmt.eig.n3": count.get("rmt.eig.n3", 0.0),
        "rmt.sample.self_s": self_s.get("rmt.sample", 0.0),
        "shapes.mp_quantile.self_s": self_s.get("shapes.mp_quantile", 0.0),
        "shapes.mp_quantile.calls": count.get("shapes.mp_quantile.calls", 0.0),
        "shapes.mp_mass_above.calls": count.get("shapes.mp_mass_above.calls", 0.0),
        "shapes.sc_quantile.self_s": self_s.get("shapes.sc_quantile", 0.0),
        "driver.self_s": self_s.get("driver", 0.0),
        "trace.overhead_frac": statistics.median(r * f for r, f in traced)
        / statistics.median(r * f for r, f in plain)
        - 1.0
        if traced and plain
        else 0.0,
    }
    return {k: m[k] for k, _ in PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
