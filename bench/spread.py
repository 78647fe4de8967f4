"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/spread.py --workloads rmt interface --seeds 1 2 3 4 5 \
        [--trace 0] [--out bench/results/FILE.json] [--commit REV]

Runs one process at a time from the repository root, with the run length
from BENCHMARK.json.  For every metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median, which for an
end-to-end metric should stay below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no result\n{proc.stderr}")
    result = json.loads(lines[-1])
    details = json.loads(proc.stderr.strip().splitlines()[-1])
    return {"seed": seed, "exit": proc.returncode, "elapsed_s": elapsed,
            "result": result, "details": details}


def summarise(runs: list[dict], bounds: dict) -> dict:
    out = {}
    names = runs[0]["result"]["metrics"].keys()
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        entry = {"median": med, "q1": q1, "q3": q3, "values": values}
        if med:
            entry["spread"] = (q3 - q1) / med
        if name in bounds:
            entry["bound"] = bounds[name]
        out[name] = entry
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--out")
    p.add_argument("--commit", default=None)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"commit": args.commit, "seconds": spec["run_seconds"], "trace": args.trace,
              "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = [run_once(workload, s, spec["run_seconds"], args.trace) for s in args.seeds]
        summary = summarise(runs, bounds)
        report["machine"] = runs[0]["details"]["machine"]
        report["workloads"][workload] = {
            "summary": summary,
            "runs": [{"seed": r["seed"], "exit": r["exit"], "elapsed_s": r["elapsed_s"],
                      "correct": r["result"]["correct"], "attempted": r["result"]["attempted"],
                      "failed": r["result"]["failed"], "gates": r["details"]["gates"],
                      "failure_kinds": r["details"]["failure_kinds"],
                      "unit_s": r["details"]["unit_s"], "speed_factor": r["details"]["speed_factor"],
                      "setup_samples_s": r["details"]["setup_s"]}
                     for r in runs],
        }
        for name, e in summary.items():
            flag = ""
            if "bound" in e and "spread" in e and name != "setup_s":
                flag = "ok" if e["spread"] < e["bound"] / 3 else "WIDE"
            print(f"{workload:12s} {name:30s} median {e['median']:.6g}  "
                  f"spread {e.get('spread', float('nan')):.4f}  {flag}")
        bad = [r["seed"] for r in runs if not r["result"]["correct"] or r["exit"]]
        print(f"{workload:12s} incorrect seeds: {bad}  max elapsed "
              f"{max(r['elapsed_s'] for r in runs):.1f}s")
        ok = ok and not bad
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
