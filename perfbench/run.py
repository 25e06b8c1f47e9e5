"""multimag benchmark: one command for every workload, metric and check.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Writes the workload's inputs from the seed (meshes, initial snapshot, INI)
under ``.perfbench_work/`` in the checkout, then runs the simulation in a
fresh interpreter with the BLAS thread count fixed at 1 (``simulate.py``).
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs the simulation once untraced and once traced, checks that both wrote
byte-identical ``energies.csv``, and reports the per-layer metrics plus the
tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object.  The exit code is 0 only when every
correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 170.0
BLAS_THREADS = "1"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(args: list, deadline: float) -> int:
    """Run a benchmark script in a fresh interpreter; its output goes to stderr."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("no time left for the next step")
    proc = subprocess.run(
        [sys.executable, *map(str, args)],
        cwd=ROOT,
        env=child_env(),
        stdout=sys.stderr,
        timeout=remaining,
    )
    return proc.returncode


def simulate(workload: str, directory: Path, deadline: float, **opts) -> dict:
    result_path = directory / f"result-trace{opts.get('trace', 0)}.json"
    cmd = [HERE / "simulate.py", "--workload", workload, "--dir", directory, "--result", result_path]
    for key, value in opts.items():
        cmd += [f"--{key}", value]
    code = run_child(cmd, deadline)
    if not result_path.is_file():
        raise RuntimeError(f"simulate.py exited with code {code} and wrote no result")
    return json.loads(result_path.read_text())


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_e2e(res: dict, units: dict) -> None:
    env = res["env"]
    print(
        f"env: nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} "
        f"numpy={env['numpy']} ({env['numpy_blas']}) scipy={env['scipy']} "
        f"({env['scipy_blas']}) blas_threads={env['blas_threads']}"
    )
    samples = res.get("samples", {})
    e2e = res.get("e2e", {})
    notes = {
        "setup_s": f"median of {samples.get('setup')} set-ups",
        "run_s": f"median of {samples.get('run')} passes",
        "step_ms_p10": f"{samples.get('step')} step samples",
        "step_ms_p50": f"{samples.get('step')} step samples",
        "step_ms_p90": f"{samples.get('step')} step samples",
        "output_s": f"median of {samples.get('output')} writes",
        "total_s": f"median of {samples.get('pass')} passes: set-up + run + output",
        "oracle_err": f"{res.get('oracle', {}).get('name')}",
    }
    for name in ("setup_s", "run_s", "step_ms_p10", "step_ms_p50", "step_ms_p90", "output_s", "total_s",
                 "peak_rss_mib", "oracle_err"):
        unit = units.get(name, "ms")
        value = e2e.get(name)
        if name == "step_ms_p90" and value is None:
            print(f"  {name:<16} not reported: {samples.get('step')} step samples, "
                  "fewer than 10 beyond p90")
            continue
        print(f"  {name:<16} {fmt(value):>12} {unit:<6} {notes.get(name, '')}")
    oracle = res.get("oracle")
    if oracle:
        print(f"  {oracle['name']:<16} {fmt(oracle['value']):>12}")


def main() -> int:
    parser = argparse.ArgumentParser(description="multimag benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "multimag" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no multimag sources under {ROOT / 'src'} or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(names)}",
              file=sys.stderr)
        return 2

    directory = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} inputs={directory}")

    try:
        code = run_child(
            [HERE / "workloads.py", "--workload", args.workload, "--seed", args.seed,
             "--dir", directory],
            deadline,
        )
        if code != 0:
            print(f"error: input generation failed with code {code}", file=sys.stderr)
            return 1
        if args.trace:
            plain = simulate(args.workload, directory, deadline, repeat=0, trace=0)
            if (directory / "out").is_dir():
                (directory / "out").rename(directory / "out-untraced")
            traced = simulate(args.workload, directory, deadline, repeat=0, trace=1)
            runs = [plain, traced]
        else:
            runs = [simulate(args.workload, directory, deadline, repeat=1, trace=0,
                             seconds=args.seconds)]
    except (subprocess.TimeoutExpired, TimeoutError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        checks = [dict(c, name=f"{label}.{c['name']}")
                  for label, res in zip(("untraced", "traced"), runs) for c in res["checks"]]
        csvs = [directory / sub / "energies.csv" for sub in ("out-untraced", "out")]
        same = all(p.is_file() for p in csvs) and csvs[0].read_bytes() == csvs[1].read_bytes()
        checks.append({"name": "trace_identical_energies", "passed": same,
                       "detail": "traced and untraced energies.csv byte-identical"})
    else:
        checks = list(runs[0]["checks"])
    attempted = sum(res.get("steps_attempted", 0) for res in runs) + len(checks)
    failed = sum(res.get("steps_failed", 0) for res in runs) + sum(
        not c["passed"] for c in checks
    )

    report_e2e(runs[0], {m["name"]: m["unit"] for m in spec["end_to_end"]})
    for c in checks:
        print(f"  check {c['name']:<26} {'PASS' if c['passed'] else 'FAIL'}  {c['detail']}")
    if not any(c["name"].endswith("reference_energy") for c in checks):
        print(f"  check reference_energy           n/a   no reference.json entry for seed {args.seed}")
    print(f"  failed_frac {failed}/{attempted} = {failed / attempted:.6g}")

    metrics = {}
    if args.trace and "per_layer" in runs[1] and "e2e" in runs[0]:
        layer = dict(runs[1]["per_layer"])
        layer["trace.overhead_s"] = runs[1]["e2e"]["total_s"] - runs[0]["e2e"]["total_s"]
        print(f"  traced total_s {fmt(runs[1]['e2e']['total_s'])} s, untraced "
              f"{fmt(runs[0]['e2e']['total_s'])} s; spans in {runs[1]['spans_file']}")
        print("  self time by span (s):")
        for name, row in sorted(runs[1]["self_time"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"    {name:<30} calls {row['calls']:>7}  self {row['self_s']:.4f}  "
                  f"total {row['s']:.4f}")
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layer[m["name"]], "unit": m["unit"]}
            print(f"  {m['name']:<32} {fmt(layer[m['name']]):>12} {m['unit']}")
    elif not args.trace and "e2e" in runs[0]:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": runs[0]["e2e"][m["name"]], "unit": m["unit"]}
    correct = failed == 0 and bool(metrics)
    record = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (directory / "summary.json").write_text(
        json.dumps({**record, "seed": args.seed, "workload": args.workload,
                    "env": runs[0]["env"], "runs": runs}, indent=1)
    )
    print(json.dumps(record))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
