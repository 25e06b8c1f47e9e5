"""Relax a perturbed magnetization toward the easy axis.

A coarse sphere with uniaxial anisotropy, a weak constant applied field,
and the full stray-field operator. The implicit tangent-plane integrator
drives the state toward alignment while the discrete energy decreases at
every step; the script prints an energy table, verifies the dissipation
inequality, and writes snapshots + energies.csv like a CLI run would.

Also writes sphere.mesh next to this file so the companion relaxation.ini
can be fed to ``multimag simulate`` directly afterwards.
"""

import os

import numpy as np

from multimag import (
    NondimConstants,
    RunSetup,
    StrayfieldContribution,
    UniaxialContribution,
    check_energy_decay,
    icosphere_volume,
    make_strayfield_workspace,
    run,
    write_mesh,
    write_trajectory,
)

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    mesh = icosphere_volume(1, n_radial=2)
    write_mesh(os.path.join(HERE, "sphere.mesh"), mesh, comment="unit sphere, 320 tets")
    print(f"mesh: {mesh.n_nodes} nodes, {mesh.n_tets} tets, volume {mesh.volumes.sum():.4f}")

    rng = np.random.default_rng(3)
    m0 = np.tile([0.0, 0.0, 1.0], (mesh.n_nodes, 1)) + 0.2 * rng.normal(size=(mesh.n_nodes, 3))
    m0 /= np.linalg.norm(m0, axis=1, keepdims=True)

    setup = RunSetup(
        mesh=mesh,
        m0=m0,
        constants=NondimConstants(c_exch=1.0, c_ani=0.5, alpha=1.0, t_final=1.0),
        contributions=[
            UniaxialContribution(axis=np.array([0.0, 0.0, 1.0]), scale=0.5),
            StrayfieldContribution(workspace=make_strayfield_workspace(mesh, "fk")),
        ],
        applied_field=lambda t: np.array([0.0, 0.0, 0.1]),
        theta=1.0,
        k=1e-4,
        n_steps=500,
    )
    traj = run(setup)

    print(f"{'step':>6} {'E_exch':>10} {'E_int':>10} {'E_zeeman':>10} {'E_total':>10}")
    for rec in traj.records[:: len(traj.records) // 10]:
        print(
            f"{rec.step:>6} {rec.e_exch:>10.5f} {rec.e_int:>10.5f} "
            f"{rec.e_zeeman:>10.5f} {rec.e_total:>10.5f}"
        )

    report = check_energy_decay(traj, include_defect_allowance=False)
    print(f"dissipation inequality: {'holds' if report.passed else 'VIOLATED'} "
          f"(max excess {report.max_excess:.2e}, slack {report.slack:.2e})")

    mz = traj.final.m.values[:, 2]
    print(f"final alignment: mean m_z = {mz.mean():.4f} (started at {m0[:, 2].mean():.4f})")

    outdir = os.path.join(HERE, "out", "relaxation")
    paths = write_trajectory(traj, outdir, cadence=100)
    print(f"wrote {len(paths)} files to {outdir}")
    print(f"try next: multimag simulate {os.path.join(HERE, 'relaxation.ini')}")


if __name__ == "__main__":
    main()
