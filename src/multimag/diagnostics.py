"""Energy reporting, decay verification, and trajectory output.

The reduced energy of a magnetization state is

    E(m) = (C_exch / 2) |grad m|^2 + E_int(m) - <f, m>

where E_int collects the field contributions: terms flagged linear and
self-adjoint enter through the quadratic form (1/2) <pi(m), m>; terms with
a pointwise density (cubic anisotropy) enter through the integral of the
nodal density interpolant.  Contributions with neither form (the
multiscale coupling term) carry no discrete energy here and are excluded;
energy decay checks are only meaningful without them.  ``run`` logs each
excluded term once per run, through ``log_energy_exclusions``.

The decay check verifies the dissipation inequality

    E(m_j) + alpha k sum_{i<j} |v_i|^2 <= E(m_0) + slack

with slack = 1e-8 (1 + |E(m_0)|) plus an optional O(k) defect allowance
c * k * sum_i |v_i|^2 for runs with explicit lower-order terms.

Snapshot files carry one header line ``nodal-field 3 <N>`` followed by N
rows of ``mx my mz`` at 17 significant digits, enough to round-trip IEEE
doubles exactly; ``mesh``'s nodal text reader and writer serve them, so a
malformed one names its path and line.  The energy table is CSV with columns
step,time,E_exch,E_int,E_zeeman,E_total,dissipation_sum in that order, written
like the snapshots in blocks of ``mesh.ROW_CHUNK`` rows, so memory stays bounded.
"""

from __future__ import annotations

import csv
import logging
import os
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter

import numpy as np

from .fem import NodalVectorField, assemble_mass, assemble_stiffness, h1_seminorm_sq, l2_inner
from .fields import NondimConstants
from .mesh import TetMesh, _read_blocks, _write_block, _write_rows

logger = logging.getLogger("multimag")

CSV_COLUMNS = ("step", "time", "E_exch", "E_int", "E_zeeman", "E_total", "dissipation_sum")
_CSV_ROW = "%d" + ",%.17g" * 6 + "\r\n"  # one record as csv.writer writes it
_values_of = attrgetter("step", "time", "e_exch", "e_int", "e_zeeman", "e_total", "dissipation_sum")


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


def _in_energy(contrib) -> bool:
    """Whether E_int holds ``contrib``: through its quadratic form (linear
    self-adjoint terms) or through its pointwise ``energy_density``."""
    return contrib.linear_self_adjoint or hasattr(contrib, "energy_density")


def log_energy_exclusions(contributions) -> None:
    """Log each contribution that E_int leaves out, once per call."""
    for contrib in contributions:
        if not _in_energy(contrib):
            logger.info(
                "contribution %r has neither a quadratic form nor a pointwise "
                "density; excluded from E_int",
                contrib.name,
            )


def energy(
    state,
    contributions,
    f,
    constants: NondimConstants,
    *,
    outputs,
    dissipation_sum: float = 0.0,
) -> EnergyRecord:
    """Energy record for one magnetization state.

    The outputs of the linear self-adjoint contributions are summed in
    contribution order, starting from zeros, and enter through one inner
    product (1/2) <sum_i pi_i(m), m>.  Contributions E_int leaves out are
    skipped silently (see ``log_energy_exclusions``).  The mass and
    stiffness are those of the state's mesh.

    Args:
        state: MagnetizationState (or any object with .m, .step, .time).
        f: the applied field's 3-vector at this state, or None.
        outputs: the per-contribution values pi_i(m, zeta) of this state,
            in contribution order, as ``evaluate_contributions`` returns
            them.
    """
    m = state.m
    mass = assemble_mass(m.mesh)
    e_exch = 0.5 * constants.c_exch * h1_seminorm_sq(assemble_stiffness(m.mesh), m.values)

    e_int = 0.0
    quadratic = np.zeros_like(m.values)
    for contrib, out in zip(contributions, outputs, strict=True):
        if contrib.linear_self_adjoint:
            quadratic += out.values
        elif _in_energy(contrib):
            density = np.asarray(contrib.energy_density(m), dtype=np.float64)
            e_int += float(m.mesh.hat_integrals @ density)
    e_int += 0.5 * l2_inner(mass, quadratic, m.values)

    e_zeeman = 0.0
    if f is not None:
        e_zeeman = -l2_inner(mass, np.full((m.mesh.n_nodes, 3), f), m.values)

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
        _write_block(fh, f"nodal-field 3 {values.shape[0]}", values)


def read_snapshot(path: str) -> np.ndarray:
    """Read a snapshot written by write_snapshot; exact double round-trip.
    A malformed file raises a MeshFormatError naming its path and line."""
    return _read_blocks(path, ("nodal-field 3", "node", 3, np.float64, "component"))[0]


def write_energies_csv(path: str, records) -> None:
    """Write a sequence of EnergyRecords as ``csv.writer`` would: CRLF, 17-digit floats."""
    with open(path, "w", newline="") as fh:
        _write_rows(fh, ",".join(CSV_COLUMNS) + "\r\n", _CSV_ROW, records,
                    lambda rs: tuple(chain.from_iterable(map(_values_of, rs))))


def read_energies_csv(path: str) -> list[EnergyRecord]:
    """Read write_energies_csv's table; a malformed row raises ValueError naming its line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != CSV_COLUMNS:
            raise ValueError(f"unexpected energy CSV columns in {path}: {header}")
        records = []
        for row in reader:
            where = f"{path} line {reader.line_num}"
            if len(row) != len(CSV_COLUMNS):
                raise ValueError(f"{where}: expected {len(CSV_COLUMNS)} fields, got {len(row)}")
            try:
                records.append(EnergyRecord(int(row[0]), *map(float, row[1:])))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
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


def write_vtk(path: str, mesh: TetMesh, values: np.ndarray) -> None:
    """Legacy ASCII VTK unstructured grid with one nodal vector field, ``m``."""
    values = np.asarray(values, dtype=np.float64)
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("nodal vector field\n")
        fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        _write_block(fh, f"POINTS {mesh.n_nodes} double", mesh.nodes)
        cells = np.column_stack((np.full(mesh.n_tets, 4), mesh.tets))
        _write_block(fh, f"CELLS {mesh.n_tets} {5 * mesh.n_tets}", cells)
        fh.write(f"CELL_TYPES {mesh.n_tets}\n" + "10\n" * mesh.n_tets)
        _write_block(fh, f"POINT_DATA {mesh.n_nodes}\nVECTORS m double", values)


def field_from_snapshot(mesh: TetMesh, path: str) -> NodalVectorField:
    """Load a snapshot and bind it to a mesh, checking the node count and
    that every row has a finite nonzero length (so it can be normalized)."""
    values = read_snapshot(path)
    if values.shape[0] != mesh.n_nodes:
        raise ValueError(
            f"snapshot {path} has {values.shape[0]} nodes but the mesh has {mesh.n_nodes}"
        )
    lengths = np.linalg.norm(values, axis=1)
    bad = np.flatnonzero(~(np.isfinite(lengths) & (lengths > 0.0)))
    if bad.size:
        raise ValueError(f"snapshot {path}: node {bad[0]} holds {values[bad[0]].tolist()}, "
                         "which has no finite nonzero length")
    return NodalVectorField(mesh, values)
