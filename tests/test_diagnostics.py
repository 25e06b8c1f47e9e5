"""Energy bookkeeping, the dissipation inequality, snapshots, CSV, VTK."""

import logging
import re
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from multimag import (
    CubicContribution,
    EnergyRecord,
    MagnetizationState,
    NodalVectorField,
    NondimConstants,
    RunSetup,
    Trajectory,
    UniaxialContribution,
    check_energy_decay,
    evaluate_contributions,
    read_energies_csv,
    read_snapshot,
    run,
    write_energies_csv,
    write_snapshot,
    write_trajectory,
    write_vtk,
)
from multimag.diagnostics import CSV_COLUMNS, energy, field_from_snapshot, snapshot_filename
from multimag.fields import FieldContribution
from multimag.mesh import MeshFormatError

from conftest import random_unit_field

CONSTANTS = NondimConstants(c_exch=1.0, c_ani=1.0, alpha=1.0, t_final=1.0)


def make_state(mesh, values):
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = np.tile(values, (mesh.n_nodes, 1))
    return MagnetizationState(m=NodalVectorField(mesh, values), step=0, time=0.0)


def energy_of(state, contributions, f, constants, **kwargs):
    """energy() with the contribution outputs of the state, as run() passes them."""
    _, outputs = evaluate_contributions(contributions, state.m, f, state.step)
    return energy(state, contributions, f, constants, outputs=outputs, **kwargs)


def record(step, e_total, diss=0.0):
    return EnergyRecord(
        step=step,
        time=0.1 * step,
        e_exch=e_total,
        e_int=0.0,
        e_zeeman=0.0,
        e_total=e_total,
        dissipation_sum=diss,
    )


def test_energy_zero_for_uniform_undriven_state(cube2):
    rec = energy_of(make_state(cube2, [0.0, 0.0, 1.0]), [], None, CONSTANTS)
    assert rec.e_exch == rec.e_int == rec.e_zeeman == rec.e_total == 0.0


def test_energy_uniaxial_aligned(cube2):
    # E_int = -(scale/2) |Omega| for m parallel to the easy axis
    contrib = UniaxialContribution(axis=np.array([0.0, 0.0, 1.0]), scale=1.0)
    rec = energy_of(make_state(cube2, [0.0, 0.0, 1.0]), [contrib], None, CONSTANTS)
    np.testing.assert_allclose(rec.e_int, -0.5, rtol=1e-12)
    np.testing.assert_allclose(rec.e_total, -0.5, rtol=1e-12)


def test_energy_zeeman(cube2):
    f = np.array([0.2, 0.0, 0.4])
    rec = energy_of(make_state(cube2, [0.0, 0.0, 1.0]), [], f, CONSTANTS)
    np.testing.assert_allclose(rec.e_zeeman, -0.4, rtol=1e-12)


def test_energy_exchange_term(cube2):
    from multimag.fem import assemble_stiffness, h1_seminorm_sq

    consts = NondimConstants(c_exch=2.0, c_ani=1.0, alpha=1.0, t_final=1.0)
    state = make_state(cube2, random_unit_field(cube2, 12))
    rec = energy_of(state, [], None, consts)
    expect = 0.5 * 2.0 * h1_seminorm_sq(assemble_stiffness(cube2), state.m.values)
    np.testing.assert_allclose(rec.e_exch, expect, rtol=1e-12)


def test_energy_cubic_density_path(cube2):
    m = np.ones(3) / np.sqrt(3.0)
    contrib = CubicContribution(K1=9.0, K2=27.0, scale=1.0)
    rec = energy_of(make_state(cube2, m), [contrib], None, CONSTANTS)
    # density = 9 (1/9 + 1/9) + 27/27 = 3, uniform over the unit cube
    np.testing.assert_allclose(rec.e_int, 3.0, rtol=1e-12)


def test_energy_mixed_contributions_sum(cube2):
    m = np.ones(3) / np.sqrt(3.0)
    uni = UniaxialContribution(axis=np.array([0.0, 0.0, 1.0]), scale=1.0)
    cub = CubicContribution(K1=9.0, K2=27.0, scale=1.0)
    rec = energy_of(make_state(cube2, m), [uni, cub], None, CONSTANTS)
    np.testing.assert_allclose(rec.e_int, -0.5 / 3.0 + 3.0, rtol=1e-12)
    # one output per contribution, in order
    state = make_state(cube2, m)
    _, outputs = evaluate_contributions([uni, cub], state.m, None, 0)
    with pytest.raises(ValueError):
        energy(state, [uni, cub], None, CONSTANTS, outputs=outputs[:1])


class OpaqueContribution(FieldContribution):
    """Nonlinear, no energy-density hook: excluded from the energy."""

    name = "opaque"

    def evaluate(self, m, zeta=None, time_index=0):
        return NodalVectorField(m.mesh, m.values.copy())


def test_energy_excludes_opaque_contribution_once(cube2, caplog):
    # energy() leaves the term out silently; a run logs the caveat once,
    # however many states it records
    state = make_state(cube2, [0.0, 0.0, 1.0])
    setup = RunSetup(mesh=cube2, m0=state.m.values, constants=CONSTANTS,
                     contributions=[OpaqueContribution()], k=1e-3, n_steps=3)
    with caplog.at_level(logging.INFO, logger="multimag"):
        rec1 = energy_of(state, [OpaqueContribution()], None, CONSTANTS)
        rec2 = energy_of(state, [OpaqueContribution()], None, CONSTANTS)
        assert not [r for r in caplog.records if "opaque" in r.message]
        traj = run(setup)
    assert rec1.e_int == rec2.e_int == 0.0
    assert len(traj.records) == 4 and all(r.e_int == 0.0 for r in traj.records)
    mentions = [r for r in caplog.records if "opaque" in r.message]
    assert len(mentions) == 1  # the exclusion caveat is logged once


def test_energy_record_parts_recombine(cube2):
    f = np.array([0.1, 0.2, 0.3])
    uni = UniaxialContribution(axis=np.array([1.0, 0.0, 0.0]), scale=0.7)
    state = make_state(cube2, random_unit_field(cube2, 77))
    rec = energy_of(state, [uni], f, CONSTANTS, dissipation_sum=0.25)
    total = rec.e_exch + rec.e_int + rec.e_zeeman
    assert abs(rec.e_total - total) <= 1e-12 * max(1.0, abs(total))
    assert rec.dissipation_sum == 0.25


def test_decay_monotone_records_pass():
    records = [record(i, 1.0 - 0.1 * i, diss=0.05 * i) for i in range(5)]
    report = check_energy_decay(records)
    assert report.passed
    assert report.first_violation is None
    assert report.max_excess <= 0.0


def test_decay_detects_violation_step():
    records = [record(0, 1.0), record(1, 0.9), record(2, 0.8), record(3, 1.2), record(4, 0.7)]
    report = check_energy_decay(records)
    assert not report.passed
    assert report.first_violation == 3
    np.testing.assert_allclose(report.max_excess, 0.2, rtol=1e-12)


def test_decay_counts_dissipation():
    # energy constant but dissipation growing: the inequality fails
    records = [record(i, 1.0, diss=0.1 * i) for i in range(3)]
    assert not check_energy_decay(records).passed


def test_decay_single_record_vacuous():
    report = check_energy_decay([record(0, 123.0)])
    assert report.passed


def test_decay_slack_scales_with_initial_energy():
    e0 = 9.0
    slack = 1e-8 * (1.0 + abs(e0))
    below = [record(0, e0), record(1, e0 + 0.5 * slack)]
    above = [record(0, e0), record(1, e0 + 2.0 * slack)]
    assert check_energy_decay(below).passed
    assert not check_energy_decay(above).passed


def test_decay_defect_allowance_paths():
    e0 = 1.0
    bump = 1e-4
    # the energy drops by slightly less than the recorded dissipation, the
    # kind of small positive excess the renormalization defect produces
    records = [record(0, e0, diss=0.0), record(1, e0 - 0.1 + bump, diss=0.1)]
    strict = check_energy_decay(records)
    assert not strict.passed
    # a trajectory carries its own evaluated allowance
    traj = Trajectory(
        states=[], velocities=[], records=records,
        defect_coefficient=2.0 * bump / 0.1, defect_allowance=2.0 * bump,
    )
    assert check_energy_decay(traj).passed
    assert not check_energy_decay(traj, include_defect_allowance=False).passed


def test_decay_fails_on_nan_energies():
    report = check_energy_decay([record(0, 1.0), record(1, float("nan")), record(2, 0.5)])
    assert not report.passed
    assert report.first_violation == 1
    assert np.isnan(report.max_excess)
    report = check_energy_decay([record(i, float("nan")) for i in range(3)])
    assert not report.passed
    assert report.first_violation == 0


def test_decay_requires_records():
    with pytest.raises(ValueError, match="no energy records"):
        check_energy_decay([])


def test_snapshot_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(31)
    values = rng.normal(size=(17, 3)) * np.pi
    path = tmp_path / "state.dat"
    write_snapshot(path, values)
    with open(path) as fh:
        assert fh.readline() == "nodal-field 3 17\n"
    again = read_snapshot(path)
    np.testing.assert_array_equal(again, values)


def test_snapshot_rejects_bad_shape(tmp_path):
    with pytest.raises(ValueError, match=r"\(N, 3\)"):
        write_snapshot(tmp_path / "x.dat", np.zeros((4, 2)))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("nodal-field 2 4\n0 0\n", ":1: expected 'nodal-field 3 <N>', got 'nodal-field 2'"),
        ("vectors 3 4\n", ":1: expected 'nodal-field 3 <N>', got 'vectors 3'"),
        ("nodal-field 3\n0 0 0\n", ":1: expected 3 fields for the 'nodal-field 3 <N>' header, got 2"),
        ("nodal-field 3 x\n0 0 0\n", ":1: node count is not an integer"),
        ("nodal-field 3 -1\n", ":1: negative node count"),
        ("nodal-field 3 5\n" + "0 0 0\n" * 4, ": unexpected end of file while reading node 4"),
        ("nodal-field 3 0\n0 0 0\n", ":2: trailing content after node list"),
        ("nodal-field 3 2\n", ": unexpected end of file while reading node 0"),
        ("", ": unexpected end of file while reading the 'nodal-field 3 <N>' header"),
        ("nodal-field 3 2\n0 0 0\n\n# a comment\n0 x 0\n", ":5: bad component in node 1"),
        ("nodal-field 3 2\n0 0 0\n0 0\n", ":3: expected 3 fields for node 1, got 2"),
        # a block whose every line is one field too long converts, to the wrong shape
        ("nodal-field 3 1\n0 0 0 0\n", ":2: expected 3 fields for node 0, got 4"),
    ],
)
def test_snapshot_rejects_malformed(tmp_path, text, fragment):
    # each error names the file and, where there is one, the line
    path = tmp_path / "bad.dat"
    path.write_text(text)
    with pytest.raises(MeshFormatError, match="^" + re.escape(f"{path}{fragment}") + "$"):
        read_snapshot(path)


def test_field_from_snapshot_checks_node_count(tmp_path, cube1, cube2):
    path = tmp_path / "m.dat"
    write_snapshot(path, np.tile([0.0, 0.0, 1.0], (cube1.n_nodes, 1)))
    field = field_from_snapshot(cube1, path)
    assert field.values.shape == (8, 3)
    with pytest.raises(ValueError):
        field_from_snapshot(cube2, path)


def test_energies_csv_roundtrip(tmp_path):
    records = [record(i, 1.0 / (i + 1.0), diss=np.sqrt(i)) for i in range(4)]
    path = tmp_path / "energies.csv"
    write_energies_csv(path, records)
    with open(path) as fh:
        header = fh.readline().strip()
    assert header == ",".join(CSV_COLUMNS)
    again = read_energies_csv(path)
    assert again == records


def test_energies_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "energies.csv"
    path.write_text("step,time,E_total\n0,0.0,1.0\n")
    with pytest.raises(ValueError, match="unexpected energy CSV columns"):
        read_energies_csv(path)


@pytest.mark.parametrize(
    "row, message",
    [
        ("1,0.1,0.9,0,0,0.9,0,0", "line 3: expected 7 fields, got 8"),
        ("1,0.1,x,0,0,0.9,0", "line 3: could not convert string to float: 'x'"),
        ("1.5,0.1,0.9,0,0,0.9,0", "line 3: invalid literal for int"),
    ],
    ids=["long", "not-a-number", "fractional-step"],
)
def test_energies_csv_rejects_malformed_row(tmp_path, row, message):
    path = tmp_path / "energies.csv"
    write_energies_csv(path, [record(0, 1.0)])
    with open(path, "a") as fh:
        fh.write(row + "\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path} {message}")):
        read_energies_csv(path)


def test_snapshot_filename_format():
    assert snapshot_filename(0) == "snapshot_00000000.dat"
    assert snapshot_filename(10) == "snapshot_00000010.dat"


def run_small(mesh, n_steps, k=0.05):
    setup = RunSetup(
        mesh=mesh,
        m0=random_unit_field(mesh, 50),
        constants=CONSTANTS,
        contributions=[],
        theta=1.0,
        k=k,
        n_steps=n_steps,
    )
    return run(setup)


def test_write_trajectory_cadence(tmp_path, cube1):
    traj = run_small(cube1, 25)
    paths = write_trajectory(traj, tmp_path / "out", cadence=10)
    names = sorted(p.split("/")[-1] for p in paths[:-1])
    assert names == [snapshot_filename(s) for s in (0, 10, 20, 25)]
    assert paths[-1].endswith("energies.csv")
    assert len(read_energies_csv(paths[-1])) == 26


def test_write_trajectory_unit_cadence(tmp_path, cube1):
    traj = run_small(cube1, 2)
    paths = write_trajectory(traj, tmp_path / "out", cadence=1)
    assert len(paths) == 4  # three snapshots plus the csv
    with pytest.raises(ValueError, match="cadence"):
        write_trajectory(traj, tmp_path / "out2", cadence=0)


def test_trajectory_snapshots_reload(tmp_path, cube1):
    traj = run_small(cube1, 4)
    paths = write_trajectory(traj, tmp_path / "out", cadence=2)
    final = read_snapshot(paths[-2])
    np.testing.assert_array_equal(final, traj.final.m.values)


def test_write_vtk_structure(tmp_path, cube1):
    path = tmp_path / "m.vtk"
    write_vtk(path, cube1, np.tile([0.0, 0.0, 1.0], (cube1.n_nodes, 1)))
    lines = path.read_text().splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert "ASCII" in lines
    assert f"POINTS {cube1.n_nodes} double" in lines
    assert f"CELLS {cube1.n_tets} {5 * cube1.n_tets}" in lines
    assert "VECTORS m double" in lines


# every finite double, -0.0 and subnormals included
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@settings(max_examples=50, deadline=None)
@given(values=arrays(np.float64, st.tuples(st.integers(0, 6), st.just(3)), elements=FINITE))
@example(values=np.array([[-0.0, 5e-324, -2.2250738585072014e-308]]))
def test_snapshot_round_trip_is_bitwise(tmp_path_factory, values):
    path = str(tmp_path_factory.mktemp("snapshot") / "m.dat")
    write_snapshot(path, values)
    assert same_bits(read_snapshot(path), values)


ENERGY_RECORDS = st.lists(
    st.builds(EnergyRecord, st.integers(0, 2**53), FINITE, FINITE, FINITE, FINITE, FINITE, FINITE),
    max_size=5,
)


@settings(max_examples=50, deadline=None)
@given(records=ENERGY_RECORDS)
@example(records=[EnergyRecord(0, -0.0, 5e-324, -5e-324, 0.0, -0.0, 2.2250738585072014e-308)])
def test_energies_csv_round_trip_is_exact(tmp_path_factory, records):
    path = str(tmp_path_factory.mktemp("energies") / "energies.csv")
    write_energies_csv(path, records)
    back = read_energies_csv(path)
    assert back == records
    assert same_bits([astuple(r)[1:] for r in back], [astuple(r)[1:] for r in records])
