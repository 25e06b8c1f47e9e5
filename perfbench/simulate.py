"""One workload simulation in a fresh interpreter, timed or traced.

The simulation drives multimag through the calls ``multimag simulate``
makes: ``load_config`` -> ``build_run_setup`` -> ``run(setup, on_step=...)``
-> ``write_trajectory`` + ``write_vtk``.  One such pass, on a fresh set-up,
is timed phase by phase and end to end.  With ``--repeat 1`` passes follow
one another until ``--seconds`` have gone by and there are at least
``MIN_PASSES``; after each pass its output is rewritten until that pass has
at least three writes and 0.5 s of them, and at the end set-ups alone are
added until there are at least three and 2 s of them.  Every timing is
reported as the median of its samples, step times as their 10th
percentile: on a shared host single samples scatter widely, a run's
fastest sample is less steady than its median, and interpreter-bound
steps fall into a fast and a slow mode whose shares follow the host's
load.  With ``--trace 1`` the tracer wraps the program's
public functions for the one pass and the per-layer numbers are reported
instead.

Correctness checks run after the timed work and are never timed.  The
result is written as JSON to ``--result``; ``run.py`` starts this script
and prints the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MIN_PASSES = 3
SETUP_MIN_SAMPLES, SETUP_MIN_S = 3, 2.0
# writes per pass
OUTPUT_MIN_SAMPLES, OUTPUT_MIN_S = 3, 0.5
MAX_SAMPLES = 1000
UNIT_MODULUS_TOL = 1e-12
# p90 is reported only with at least this many samples beyond it
P90_MIN_TAIL = 10


def _import_program():
    """Import multimag from the checkout's src/, and nowhere else."""
    import multimag

    where = Path(multimag.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"multimag imported from {where}, not from {ROOT / 'src'}")
    return multimag


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sp_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{sp_blas.get('name')} {sp_blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of a non-empty sequence."""
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[idx]


def write_outputs(mm, cfg, setup, traj, span) -> list:
    """The output calls of ``multimag simulate``; returns the written paths."""
    with span("diagnostics.write_trajectory"):
        paths = mm.write_trajectory(traj, cfg.output_dir, cadence=cfg.cadence)
    if cfg.vtk:
        vtk_path = os.path.join(cfg.output_dir, "final.vtk")
        with span("diagnostics.write_vtk"):
            mm.write_vtk(vtk_path, setup.mesh, traj.final.m.values)
        paths.append(vtk_path)
    return paths


def per_layer_metrics(tracer, n_steps: int, bytes_written: int) -> dict:
    table = tracer.summary()

    def secs(name, phase=None, key="s"):
        row = table.get(f"{phase}:{name}" if phase else name)
        return row[key] if row else 0.0

    def calls(name, phase=None):
        row = table.get(f"{phase}:{name}" if phase else name)
        return row["calls"] if row else 0

    count = tracer.counter
    uapp_solves = count("multiscale.uapp_solves")
    return {
        "bem.assemble_s": secs("bem.assemble_bem"),
        "bem.panel_pairs_setup": count("bem.panel_pairs", "setup"),
        "bem.eval_calls": calls("bem.eval"),
        "bem.eval_s": secs("bem.eval"),
        "bem.panel_pairs_step": count("bem.panel_pairs", "run") / n_steps,
        "integrator.cross_s": secs("integrator.cross"),
        "integrator.frame_s": secs("integrator.frame"),
        "integrator.frame_matrix_s": secs("integrator.frame_matrix"),
        "integrator.llg_step_self_s": secs("integrator.llg_step", key="self_s"),
        "integrator.krylov_s": secs("integrator.krylov"),
        "integrator.bicgstab_iters": count("integrator.bicgstab_iters"),
        "integrator.gmres_fallbacks": count("integrator.gmres_calls"),
        "integrator.gmres_iters": count("integrator.gmres_iters"),
        "integrator.workspace_s": secs("integrator.workspace"),
        "integrator.contrib_s": secs("integrator.contrib"),
        "fem.assemble_calls": calls("fem.assemble"),
        "fem.assemble_s": secs("fem.assemble"),
        "fem.solve_spd_calls": calls("fem.solve_spd"),
        "fem.solve_spd_s": secs("fem.solve_spd"),
        "fem.pcg_iters": count("fem.pcg_iters"),
        "fields.uniaxial.calls": calls("fields.uniaxial"),
        "fields.uniaxial.s": secs("fields.uniaxial"),
        "fields.cubic.calls": calls("fields.cubic"),
        "fields.cubic.s": secs("fields.cubic"),
        "strayfield.eval_calls": calls("strayfield.eval"),
        "strayfield.eval_s": secs("strayfield.eval"),
        # evaluations per recorded state: run() records n_steps + 1 states
        "strayfield.evals_per_step": calls("strayfield.eval", "run") / (n_steps + 1),
        "multiscale.field_s": secs("multiscale.evaluate"),
        "multiscale.transfer_s": secs("multiscale.transfer"),
        "multiscale.flux_s": secs("multiscale.flux"),
        "multiscale.uapp_s": secs("multiscale.uapp"),
        "multiscale.uapp_repeats": (
            count("multiscale.uapp_repeats") / uapp_solves if uapp_solves else 0.0
        ),
        "multiscale.coupling_s": secs("multiscale.coupling"),
        "multiscale.coupling_iters": count("multiscale.coupling_iters"),
        "diagnostics.energy_calls": calls("diagnostics.energy"),
        "diagnostics.energy_s": secs("diagnostics.energy"),
        "diagnostics.output_s": secs("diagnostics.output"),
        "diagnostics.bytes_written": bytes_written,
        "config.load_s": secs("config.load_config"),
        "mesh.load_s": secs("mesh.load_mesh"),
    }


def run_checks(mm, workloads, workload, cfg, setup, traj, inputs, reference) -> tuple:
    """Correctness checks on the first pass: (list of check dicts, oracle value)."""
    import numpy as np

    checks = []
    worst = max(float(np.abs(s.m.nodewise_norms() - 1.0).max()) for s in traj.states)
    checks.append(
        ("unit_modulus", worst <= UNIT_MODULUS_TOL,
         f"max ||m|-1| {worst:.3e} over {len(traj.states)} states (bound {UNIT_MODULUS_TOL:g})")
    )
    if workload.energy_decay:
        report = mm.check_energy_decay(traj)
        checks.append(
            ("energy_decay", report.passed,
             f"max excess {report.max_excess:.3e}, slack {report.slack:.3e}, "
             f"first violation {report.first_violation}")
        )
    name = workload.oracle
    value = workloads.ORACLES[name](cfg, setup, traj, inputs)
    bound = workloads.ORACLE_BOUNDS[name]
    checks.append((name, value <= bound, f"{value:.6e} (bound {bound:g})"))
    final = traj.records[-1]
    ref = reference.get(workload.name, {}).get(str(inputs["seed"]))
    if ref is not None:
        worst_dev = max(
            abs(getattr(final, f) - ref[f]) / (1.0 + abs(ref[f])) for f in workloads.REFERENCE_FIELDS
        )
        checks.append(
            ("reference_energy", worst_dev <= workloads.REFERENCE_RTOL and final.step == ref["step"],
             f"final record step {final.step}, max scaled deviation {worst_dev:.3e} "
             f"(tolerance {workloads.REFERENCE_RTOL:g})")
        )
    return [{"name": n, "passed": bool(p), "detail": d} for n, p, d in checks], value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--dir", required=True, help="directory holding run.ini")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--repeat", type=int, choices=(0, 1), default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    mm = _import_program()
    import workloads  # noqa: E402  (sibling module of this script)

    workload = workloads.WORKLOADS[args.workload]
    directory = Path(args.dir)
    ini = str(directory / "run.ini")
    inputs = json.loads((directory / "inputs.json").read_text())
    reference = json.loads((Path(__file__).parent / "reference.json").read_text())
    result: dict = {"workload": workload.name, "seed": inputs["seed"], "env": environment()}
    n_steps = mm.load_config(ini).n_steps  # untimed, before any tracing

    tracer = None
    span = lambda name: nullcontext()  # noqa: E731
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(run_id=f"{workload.name}-seed{inputs['seed']}")
        tracer.install()
        span = tracer.span

    stamps: list = []
    samples: dict = {"setup": [], "run": [], "output": [], "pass": [], "step": []}

    def on_step(traj, state):
        stamps.append(time.perf_counter())

    def timed_pass():
        """One simulation: set-up, ``run()`` and output, each timed."""
        stamps.clear()
        t0 = time.perf_counter()
        with span("config.load_config"):
            cfg = mm.load_config(ini)
        with span("config.build_run_setup"):
            setup = mm.build_run_setup(cfg)
        t1 = time.perf_counter()
        if tracer:
            tracer.phase = "run"
        with span("integrator.run"):
            traj = mm.run(setup, on_step=on_step)
        t2 = time.perf_counter()
        if tracer:
            tracer.phase = "output"
        with span("diagnostics.output"):
            paths = write_outputs(mm, cfg, setup, traj, span)
        t3 = time.perf_counter()
        samples["setup"].append(t1 - t0)
        samples["run"].append(t2 - t1)
        samples["output"].append(t3 - t2)
        samples["pass"].append(t3 - t0)
        samples["step"] += [b - a for a, b in zip(stamps, stamps[1:])]
        return cfg, setup, traj, paths

    def rewrite_outputs(cfg, setup, traj):
        """More writes of one pass's output, spread between the passes."""
        start, n = time.perf_counter(), 1
        while n < OUTPUT_MIN_SAMPLES or (
            time.perf_counter() - start < OUTPUT_MIN_S and n < MAX_SAMPLES
        ):
            a = time.perf_counter()
            write_outputs(mm, cfg, setup, traj, span)
            samples["output"].append(time.perf_counter() - a)
            n += 1

    # -- pass 1: its trajectory is the one the checks look at -------------
    loop_start = time.perf_counter()
    try:
        cfg, setup, traj, paths = timed_pass()
    except RuntimeError as exc:
        partial = getattr(exc, "partial_trajectory", None)
        done = len(partial.states) - 1 if partial is not None else 0
        result.update(
            steps_attempted=n_steps, steps_failed=n_steps - done,
            checks=[{"name": "run", "passed": False, "detail": str(exc)}],
        )
        Path(args.result).write_text(json.dumps(result, indent=1))
        return 1
    # one simulation's peak, before the checks allocate anything
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
    bytes_written = sum(os.path.getsize(p) for p in paths)

    checks, oracle_value = run_checks(mm, workloads, workload, cfg, setup, traj, inputs, reference)
    final = traj.records[-1]
    result["final_record"] = {
        "step": final.step,
        **{f: getattr(final, f) for f in workloads.REFERENCE_FIELDS},
    }

    if args.repeat:
        # whole passes, each on a fresh set-up, until --seconds have gone by
        # and there are at least MIN_PASSES: every timed quantity then has
        # samples spread over the whole run, not one stretch of it
        while True:
            rewrite_outputs(cfg, setup, traj)
            del cfg, setup, traj
            if len(samples["pass"]) >= MIN_PASSES and (
                time.perf_counter() - loop_start >= args.seconds
            ):
                break
            cfg, setup, traj, _ = timed_pass()
        while len(samples["setup"]) < SETUP_MIN_SAMPLES or (
            sum(samples["setup"]) < SETUP_MIN_S and len(samples["setup"]) < MAX_SAMPLES
        ):
            a = time.perf_counter()
            mm.build_run_setup(mm.load_config(ini))
            samples["setup"].append(time.perf_counter() - a)

    step_samples = samples["step"]
    n_tail = len(step_samples) - int(0.9 * len(step_samples))
    timings = {
        "setup_s": statistics.median(samples["setup"]),
        "run_s": statistics.median(samples["run"]),
        "step_ms_p10": 1e3 * quantile(step_samples, 0.1),
        "step_ms_p50": 1e3 * statistics.median(step_samples),
        "step_ms_p90": 1e3 * quantile(step_samples, 0.9) if n_tail >= P90_MIN_TAIL else None,
        "output_s": statistics.median(samples["output"]),
        "total_s": statistics.median(samples["pass"]),
    }
    result.update(
        steps_attempted=n_steps * len(samples["run"]),
        steps_failed=0,
        checks=checks,
        oracle={"name": workload.oracle, "value": oracle_value},
        samples={name: len(values) for name, values in samples.items()},
        e2e={
            **timings,
            "peak_rss_mib": peak_rss_mib,
            "oracle_err": oracle_value,
        },
    )
    if tracer:
        spans_path = directory / "spans.jsonl"
        tracer.write(str(spans_path))
        result["spans_file"] = str(spans_path)
        result["per_layer"] = per_layer_metrics(tracer, n_steps, bytes_written)
        table = tracer.summary()
        result["self_time"] = {k: v for k, v in table.items() if ":" not in k}
    Path(args.result).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
