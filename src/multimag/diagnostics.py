"""Energy reporting, decay verification, and trajectory output.

The reduced energy of a magnetization state is

    E(m) = (C_exch / 2) |grad m|^2 + E_int(m) - <f, m>

where E_int collects the field contributions: terms flagged linear and
self-adjoint enter through the quadratic form (1/2) <pi(m), m>; terms with
a pointwise density (cubic anisotropy) enter through the integral of the
nodal density interpolant.  Contributions with neither form (the
multiscale coupling term) carry no discrete energy here and are excluded;
energy decay checks are only meaningful without them.

The decay check verifies the dissipation inequality

    E(m_j) + alpha k sum_{i<j} |v_i|^2 <= E(m_0) + slack

with slack = 1e-8 (1 + |E(m_0)|) plus an optional O(k) defect allowance
c * k * sum_i |v_i|^2 for runs with explicit lower-order terms.

Snapshot files carry one header line ``nodal-field 3 <N>`` followed by N
rows of ``mx my mz`` at 17 significant digits, enough to round-trip IEEE
doubles exactly.  The energy table is CSV with columns
step,time,E_exch,E_int,E_zeeman,E_total,dissipation_sum in that order.
"""

from __future__ import annotations

import csv
import logging
import os
from dataclasses import dataclass

import numpy as np

from .fem import NodalVectorField, h1_seminorm_sq, l2_inner
from .fields import NondimConstants
from .mesh import TetMesh

logger = logging.getLogger("multimag")

_EXCLUDED_WARNED: set[str] = set()

CSV_COLUMNS = ("step", "time", "E_exch", "E_int", "E_zeeman", "E_total", "dissipation_sum")


@dataclass(frozen=True)
class EnergyRecord:
    """Energy split of one state, plus the running dissipation sum."""

    step: int
    time: float
    e_exch: float
    e_int: float
    e_zeeman: float
    e_total: float
    dissipation_sum: float


def energy(
    state,
    contributions,
    f_field,
    constants: NondimConstants,
    ws,
    *,
    outputs,
    dissipation_sum: float = 0.0,
) -> EnergyRecord:
    """Energy record for one magnetization state.

    The outputs of the linear self-adjoint contributions are summed in
    contribution order, starting from zeros, and enter through one inner
    product (1/2) <sum_i pi_i(m), m>.

    Args:
        state: MagnetizationState (or any object with .m, .step, .time).
        ws: workspace carrying assembled ``mass`` and ``stiffness``
            operators for the state's mesh.
        outputs: the per-contribution values pi_i(m, zeta) of this state,
            in contribution order, as ``evaluate_contributions`` returns
            them.
    """
    m = state.m
    mass = ws.mass
    stiffness = ws.stiffness
    e_exch = 0.5 * constants.c_exch * h1_seminorm_sq(stiffness, m.values)

    e_int = 0.0
    quadratic = np.zeros_like(m.values)
    for contrib, out in zip(contributions, outputs, strict=True):
        if contrib.linear_self_adjoint:
            quadratic += out.values
        elif hasattr(contrib, "energy_density"):
            density = np.asarray(contrib.energy_density(m), dtype=np.float64)
            e_int += float(m.mesh.hat_integrals @ density)
        elif contrib.name not in _EXCLUDED_WARNED:
            _EXCLUDED_WARNED.add(contrib.name)
            logger.info(
                "contribution %r has neither a quadratic form nor a pointwise "
                "density; excluded from E_int",
                contrib.name,
            )
    e_int += 0.5 * l2_inner(mass, quadratic, m.values)

    e_zeeman = 0.0
    if f_field is not None:
        e_zeeman = -l2_inner(mass, f_field.values, m.values)

    return EnergyRecord(
        step=state.step,
        time=state.time,
        e_exch=float(e_exch),
        e_int=float(e_int),
        e_zeeman=float(e_zeeman),
        e_total=float(e_exch + e_int + e_zeeman),
        dissipation_sum=float(dissipation_sum),
    )


@dataclass(frozen=True)
class DecayReport:
    """Outcome of the dissipation-inequality check over a trajectory."""

    passed: bool
    first_violation: int | None
    max_excess: float
    slack: float


def check_energy_decay(records, *, include_defect_allowance: bool = True) -> DecayReport:
    """Verify E_j + dissipation_j <= E_0 + slack for every record.

    The base slack is 1e-8 (1 + |E_0|).  When a Trajectory is passed, its
    own O(k) defect estimate c * k * sum_i |v_i|^2 is added by default (and
    logged); pass include_defect_allowance=False for the strict inequality.

    Args:
        records: EnergyRecord sequence, or a Trajectory (its records are used).
    """
    allowance = 0.0
    coefficient = 0.0
    if hasattr(records, "records"):
        if include_defect_allowance:
            allowance = records.defect_allowance
            coefficient = records.defect_coefficient
        records = records.records
    if not records:
        raise ValueError("no energy records to check")
    e0 = records[0].e_total
    slack = 1e-8 * (1.0 + abs(e0))
    if allowance != 0.0:
        slack += allowance
        logger.info(
            "energy decay defect allowance c*k*sum|v|^2 = %.6e (c = %g)", allowance, coefficient
        )
    excesses = [r.e_total + r.dissipation_sum - e0 for r in records]
    max_excess = np.max(excesses)
    first = None
    for r, excess in zip(records, excesses):
        if not excess <= slack:  # a NaN energy is a violation
            first = r.step
            break
    return DecayReport(
        passed=first is None, first_violation=first, max_excess=float(max_excess), slack=float(slack)
    )


def write_snapshot(path: str, values: np.ndarray) -> None:
    """Write a nodal 3-vector field: header ``nodal-field 3 <N>``, then rows."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != 3:
        raise ValueError(f"snapshot values must be (N, 3), got {values.shape}")
    with open(path, "w") as fh:
        fh.write(f"nodal-field 3 {values.shape[0]}\n")
        for row in values:
            fh.write(f"{row[0]:.17g} {row[1]:.17g} {row[2]:.17g}\n")


def read_snapshot(path: str) -> np.ndarray:
    """Read a snapshot written by write_snapshot; exact double round-trip."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3 or header[0] != "nodal-field" or header[1] != "3":
            raise ValueError(f"malformed snapshot header in {path}: {' '.join(header)!r}")
        n = int(header[2])
        values = np.loadtxt(fh, dtype=np.float64, ndmin=2)
    if values.shape != (n, 3):
        raise ValueError(f"snapshot {path} declares {n} nodes but carries {values.shape}")
    return values


def write_energies_csv(path: str, records) -> None:
    """Write the energy table; floats at 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow(
                [
                    r.step,
                    f"{r.time:.17g}",
                    f"{r.e_exch:.17g}",
                    f"{r.e_int:.17g}",
                    f"{r.e_zeeman:.17g}",
                    f"{r.e_total:.17g}",
                    f"{r.dissipation_sum:.17g}",
                ]
            )


def read_energies_csv(path: str) -> list[EnergyRecord]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != CSV_COLUMNS:
            raise ValueError(f"unexpected energy CSV columns in {path}: {header}")
        records = []
        for row in reader:
            records.append(
                EnergyRecord(
                    step=int(row[0]),
                    time=float(row[1]),
                    e_exch=float(row[2]),
                    e_int=float(row[3]),
                    e_zeeman=float(row[4]),
                    e_total=float(row[5]),
                    dissipation_sum=float(row[6]),
                )
            )
    return records


def snapshot_filename(step: int) -> str:
    return f"snapshot_{step:08d}.dat"


def write_trajectory(trajectory, directory: str, *, cadence: int = 10) -> list[str]:
    """Write per-cadence snapshots and the full energy CSV to a directory.

    Snapshots are written for every step divisible by the cadence and
    always for the final state (so a run of 25 steps at cadence 10 writes
    steps 0, 10, 20, 25).  Returns the written paths, energies.csv last.
    """
    if cadence < 1:
        raise ValueError(f"cadence must be a positive integer, got {cadence}")
    os.makedirs(directory, exist_ok=True)
    written = []
    final_step = trajectory.states[-1].step
    for state in trajectory.states:
        if state.step % cadence == 0 or state.step == final_step:
            path = os.path.join(directory, snapshot_filename(state.step))
            write_snapshot(path, state.m.values)
            written.append(path)
    csv_path = os.path.join(directory, "energies.csv")
    write_energies_csv(csv_path, trajectory.records)
    written.append(csv_path)
    return written


def write_vtk(path: str, mesh: TetMesh, values: np.ndarray, name: str = "m") -> None:
    """Legacy ASCII VTK unstructured grid with one nodal vector field."""
    values = np.asarray(values, dtype=np.float64)
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("nodal vector field\n")
        fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.n_nodes} double\n")
        for p in mesh.nodes:
            fh.write(f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")
        fh.write(f"CELLS {mesh.n_tets} {5 * mesh.n_tets}\n")
        for tet in mesh.tets:
            fh.write(f"4 {tet[0]} {tet[1]} {tet[2]} {tet[3]}\n")
        fh.write(f"CELL_TYPES {mesh.n_tets}\n")
        fh.write("10\n" * mesh.n_tets)
        fh.write(f"POINT_DATA {mesh.n_nodes}\n")
        fh.write(f"VECTORS {name} double\n")
        for row in values:
            fh.write(f"{row[0]:.17g} {row[1]:.17g} {row[2]:.17g}\n")


def field_from_snapshot(mesh: TetMesh, path: str) -> NodalVectorField:
    """Load a snapshot and bind it to a mesh, checking the node count."""
    values = read_snapshot(path)
    if values.shape[0] != mesh.n_nodes:
        raise ValueError(
            f"snapshot {path} has {values.shape[0]} nodes but the mesh has {mesh.n_nodes}"
        )
    return NodalVectorField(mesh, values)
