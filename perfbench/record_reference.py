"""Record the final energy records that the benchmark checks against.

    python3 perfbench/record_reference.py --seeds 0-15 [--workload NAME ...]

Runs each workload once per seed (untimed, untraced) and stores the final
EnergyRecord in ``perfbench/reference.json``, keyed by workload and seed.
Re-record only when a change is meant to alter the numbers, and say so.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

import run
from workloads import WORKLOADS


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="seed range, e.g. 0-15")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    path = run.HERE / "reference.json"
    table = json.loads(path.read_text())
    for name in args.workload or list(WORKLOADS):
        for seed in parse_seeds(args.seeds):
            directory = run.WORK / f"reference-{name}-seed{seed}"
            shutil.rmtree(directory, ignore_errors=True)
            deadline = time.monotonic() + run.DEADLINE_S
            run.run_child(
                [run.HERE / "workloads.py", "--workload", name, "--seed", seed, "--dir", directory],
                deadline,
            )
            res = run.simulate(name, directory, deadline, repeat=0, trace=0)
            failed = [
                c["name"] for c in res["checks"]
                if not c["passed"] and c["name"] != "reference_energy"
            ]
            if failed:
                print(f"{name} seed {seed}: checks failed: {failed}", file=sys.stderr)
                return 1
            table.setdefault(name, {})[str(seed)] = res["final_record"]
            path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
            print(f"{name} seed {seed}: {res['final_record']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
