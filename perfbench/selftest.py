"""Self-test of the benchmark (takes several minutes).

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

For every workload it checks that:

* an untraced run exits 0, is correct, and reports every end-to-end metric
  of BENCHMARK.json with its unit, none of them zero;
* two traced runs exit 0 (which includes the check that traced and
  untraced runs wrote byte-identical ``energies.csv``), report every
  per-layer metric with its unit, and repeat the exact work counts;

and that the benchmark fails, without printing a result, in a directory
that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

import run

# counts that must repeat exactly between two runs of the same inputs
EXACT_COUNTS = (
    "bem.panel_pairs_setup",
    "bem.panel_pairs_step",
    "fem.assemble_calls",
    "fem.solve_spd_calls",
    "fem.pcg_iters",
    "integrator.bicgstab_iters",
    "strayfield.evals_per_step",
    "multiscale.coupling_iters",
    "diagnostics.energy_calls",
)


def bench(root, *args) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *map(str, args)],
        cwd=root, capture_output=True, text=True, timeout=run.DEADLINE_S + 10,
    )
    lines = proc.stdout.strip().splitlines()
    record = None
    if lines:
        try:
            record = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, record


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    def metrics_present(record, wanted, nonzero: bool) -> bool:
        got = record["metrics"]
        return set(got) == set(wanted) and all(
            got[n]["unit"] == wanted[n]["unit"] and (not nonzero or got[n]["value"] != 0)
            for n in wanted
        )

    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        code, rec = bench(run.ROOT, "--workload", name, "--seed", args.seed, "--seconds", 1,
                          "--trace", 0)
        expect(code == 0 and rec is not None and rec["correct"], f"{name}: untraced run correct")
        if rec is not None:
            expect(metrics_present(rec, e2e, nonzero=True),
                   f"{name}: every end-to-end metric present, with unit, nonzero")
        traced = []
        for attempt in (1, 2):
            code, rec = bench(run.ROOT, "--workload", name, "--seed", args.seed, "--seconds", 1,
                              "--trace", 1)
            expect(code == 0 and rec is not None and rec["correct"],
                   f"{name}: traced run {attempt} correct, energies.csv identical to untraced")
            if rec is not None:
                expect(metrics_present(rec, layer, nonzero=False),
                       f"{name}: every per-layer metric present, with unit")
                traced.append(rec["metrics"])
        if len(traced) == 2:
            for count in EXACT_COUNTS:
                a, b = traced[0][count]["value"], traced[1][count]["value"]
                expect(a == b, f"{name}: {count} repeats exactly ({a} vs {b})")

    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, rec = bench(bare, "--workload", spec["workloads"][0]["name"], "--seed", 0,
                      "--seconds", 1, "--trace", 0)
    expect(code != 0 and rec is None, "bare directory: nonzero exit, no result printed")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
