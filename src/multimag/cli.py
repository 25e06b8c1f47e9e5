"""Command-line interface.

Subcommands:

* ``simulate <config>``: run a time integration from an INI config and
  write snapshots + energies.csv to the configured output directory.  An
  invalid config, or an output directory that cannot be created, exits 2
  with the reason on stderr before any mesh is loaded.  If a step fails,
  the error and each of its causes go to stderr, and the partial
  trajectory is still flushed before exiting 1.  A failed output write
  goes to stderr and exits 1.
* ``check-mesh <mesh>``: structural validation plus the stiffness-matrix
  angle condition (exit 0 valid and satisfied, 1 valid but violated,
  2 invalid).
* ``strayfield-test <mesh> <method>``: uniform-magnetization sphere
  oracle; the mean stray field of m = e_z must be m/3 within 10% (exit 2
  for an unreadable or malformed mesh).
* ``energy-report <dir>``: re-verify the energy table written by a run
  (values finite; parts recombine; dissipation inequality holds; exit 2
  for a missing, malformed or empty table).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import astuple

import numpy as np


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="multimag",
        description="Multiscale micromagnetic simulation: LLG integration with FEM-BEM fields.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a simulation from an INI config")
    p_sim.add_argument("config", help="path to the INI configuration file")

    p_mesh = sub.add_parser("check-mesh", help="validate a mesh and its angle condition")
    p_mesh.add_argument("mesh", help="path to a tetrahedral mesh file")

    p_stray = sub.add_parser("strayfield-test", help="uniform-sphere stray-field oracle")
    p_stray.add_argument("mesh", help="path to a (sphere-like) tetrahedral mesh file")
    p_stray.add_argument("method", help="stray-field method (fk or gcr)")

    p_energy = sub.add_parser("energy-report", help="check an energies.csv for decay")
    p_energy.add_argument("directory", help="output directory of a previous run")

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )

    if args.command == "simulate":
        return _simulate(args.config)
    if args.command == "check-mesh":
        return _check_mesh(args.mesh)
    if args.command == "strayfield-test":
        return _strayfield_test(args.mesh, args.method)
    if args.command == "energy-report":
        return _energy_report(args.directory)
    return 2


def _simulate(config_path: str) -> int:
    from .config import build_run_setup, load_config
    from .diagnostics import write_trajectory, write_vtk
    from .integrator import run

    try:
        cfg = load_config(config_path)
        os.makedirs(cfg.output_dir, exist_ok=True)
        setup = build_run_setup(cfg)
    except (OSError, ValueError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    print(f"mesh: {setup.mesh.n_nodes} nodes, {setup.mesh.n_tets} tets")
    print(
        f"run: theta={cfg.theta} k={cfg.k} n_steps={cfg.n_steps} "
        f"terms={','.join(cfg.terms) or '(none)'}"
    )
    try:
        traj = run(setup)
    except RuntimeError as exc:
        _print_error(exc)
        partial = getattr(exc, "partial_trajectory", None)
        if partial is not None and partial.states:
            try:
                paths = write_trajectory(partial, cfg.output_dir, cadence=cfg.cadence)
            except OSError as write_exc:
                print(f"error: partial trajectory not flushed: {write_exc}", file=sys.stderr)
                return 1
            print(f"partial trajectory flushed: {len(paths)} files in {cfg.output_dir}")
        return 1
    try:
        paths = write_trajectory(traj, cfg.output_dir, cadence=cfg.cadence)
        if cfg.vtk:
            vtk_path = f"{cfg.output_dir}/final.vtk"
            write_vtk(vtk_path, setup.mesh, traj.final.m.values)
            paths.append(vtk_path)
    except OSError as exc:
        print(f"error: output not written: {exc}", file=sys.stderr)
        return 1
    first, last = traj.records[0], traj.records[-1]
    print(f"E(0) = {first.e_total:.9g}   E(T) = {last.e_total:.9g}   "
          f"dissipation = {last.dissipation_sum:.9g}")
    print(f"wrote {len(paths)} files to {cfg.output_dir}")
    return 0


def _print_error(exc: BaseException) -> None:
    """Print ``exc`` and each cause in its chain whose message it does not already quote."""
    shown = str(exc)
    print(f"error: {shown}", file=sys.stderr)
    while (exc := exc.__cause__) is not None:
        if str(exc) not in shown:
            shown = str(exc)
            print(f"  caused by: {shown}", file=sys.stderr)


def _check_mesh(mesh_path: str) -> int:
    from .mesh import check_angle_condition, load_mesh

    try:
        mesh = load_mesh(mesh_path)
        surface = mesh.boundary()
    except Exception as exc:
        print(f"invalid mesh: {exc}", file=sys.stderr)
        return 2
    print(f"nodes:  {mesh.n_nodes}")
    print(f"tets:   {mesh.n_tets}")
    print(f"volume: {mesh.volumes.sum():.9g}")
    print(f"boundary faces: {surface.n_faces}")
    report = check_angle_condition(mesh)
    if report.satisfied:
        print("angle condition: SATISFIED (all off-diagonal stiffness entries <= 0)")
        return 0
    print(
        f"angle condition: VIOLATED at {report.n_violations} node pairs "
        f"(max off-diagonal {report.max_offdiagonal:.3e}); "
        "energy-decay guarantees need k/h -> 0 on this mesh"
    )
    return 1


def _strayfield_test(mesh_path: str, method: str) -> int:
    from .mesh import load_mesh
    from .oracles import uniform_sphere_error
    from .strayfield import check_method, make_strayfield_workspace

    try:
        check_method(method)
    except ValueError as exc:
        print(f"invalid method: {exc}", file=sys.stderr)
        return 2
    try:
        mesh = load_mesh(mesh_path)
        ws = make_strayfield_workspace(mesh, method)
    except (OSError, ValueError) as exc:  # MeshFormatError is a ValueError
        print(f"invalid mesh: {exc}", file=sys.stderr)
        return 2
    err, pi = uniform_sphere_error(ws)
    mean = pi.integral_mean()
    print(f"method: {method}")
    print(f"mean stray field: [{mean[0]:.6g}, {mean[1]:.6g}, {mean[2]:.6g}]")
    print(f"expected (uniform sphere): [0, 0, {1/3:.6g}]")
    print(f"relative error: {err:.4%}")
    if err <= 0.10:
        print("PASS (within 10%)")
        return 0
    print("FAIL (sphere oracle outside 10%; is the mesh a sphere?)")
    return 1


def _energy_report(directory: str) -> int:
    from .diagnostics import check_energy_decay, read_energies_csv

    path = f"{directory}/energies.csv"
    try:
        records = read_energies_csv(path)
        if not records:
            raise ValueError(f"{path} has no records")
    except (OSError, ValueError) as exc:
        print(f"invalid energy table: {exc}", file=sys.stderr)
        return 2
    print(f"{len(records)} records, steps {records[0].step}..{records[-1].step}")
    nonfinite = sum(not np.isfinite(astuple(r)).all() for r in records)
    if nonfinite:
        print(f"FAIL: {nonfinite} records with non-finite values")
        return 1
    bad_total = 0
    for r in records:
        parts = r.e_exch + r.e_int + r.e_zeeman
        if not abs(parts - r.e_total) <= 1e-12 * max(1.0, abs(r.e_total)):
            bad_total += 1
    if bad_total:
        print(f"FAIL: {bad_total} records whose parts do not recombine to the total")
        return 1
    report = check_energy_decay(records)
    e0, ef = records[0].e_total, records[-1].e_total
    print(f"E(0) = {e0:.9g}   E(final) = {ef:.9g}   dissipation = {records[-1].dissipation_sum:.9g}")
    print(f"decay slack: {report.slack:.3e}   max excess: {report.max_excess:.3e}")
    if report.passed:
        print("PASS: dissipation inequality holds at every recorded step")
        return 0
    print(f"FAIL: first violation at step {report.first_violation}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
