"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--workload NAME ...] \
        --seeds 0-9 --seconds 15 [--baseline]

Runs ``run.py --trace 0`` once per seed, one run at a time, and prints for
each end-to-end metric its median, its quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the distance between
the quartiles as a share of the median, next to the metric's bound in
BENCHMARK.json.  With ``--baseline`` it also makes one traced run (the
first seed) and stores both in ``perfbench/baseline.json`` under the
workload's name.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import run
from record_reference import parse_seeds


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=run.DEADLINE_S + 10,
    )
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not record["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: not correct\n{proc.stdout}")
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    for workload in args.workload:
        values: dict = {}
        units: dict = {}
        for seed in seeds:
            start = time.monotonic()
            record = bench(workload, seed, args.seconds, 0)
            print(f"{workload} seed {seed}: {time.monotonic() - start:.1f} s wall", flush=True)
            for name, metric in record["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        table = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / median
            table[name] = {"unit": units[name], "median": median, "q1": q1, "q3": q3,
                           "iqr_over_median": share, "runs": len(vals)}
            flag = "" if share < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"  {workload:<11} {name:<14} median {median:<12.6g} {units[name]:<4} "
                  f"IQR/median {share:.3f} (bound {bounds[name]}){flag}", flush=True)
        if args.baseline:
            layer = bench(workload, seeds[0], args.seconds, 1)["metrics"]
            path = run.HERE / "baseline.json"
            baseline = json.loads(path.read_text()) if path.is_file() else {}
            baseline["note"] = (
                f"untraced runs per workload (seeds {args.seeds}, --seconds {args.seconds:g}) "
                "and one traced run (first seed), made by spread.py --baseline; quartiles as "
                "statistics.quantiles(values, n=4)"
            )
            baseline.setdefault("end_to_end", {})[workload] = table
            baseline.setdefault("per_layer", {})[workload] = {
                name: m["value"] for name, m in layer.items()
            }
            summary = run.WORK / f"{workload}-seed{seeds[0]}-trace1" / "summary.json"
            baseline["env"] = json.loads(summary.read_text())["env"]
            path.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
