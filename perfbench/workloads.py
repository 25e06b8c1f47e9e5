"""The benchmark's workloads: seeded input files and accuracy oracles.

Each workload is one closed-loop simulation: one process loads the
generated INI, builds the run set-up, integrates a fixed number of steps
and writes its output, and the next simulation starts only after that.
The seed fixes every random input; the program sees only the files written
here (meshes, the initial snapshot and the INI).

Run as a script to write the inputs of one workload:

    python3 perfbench/workloads.py --workload sphere_fk --seed 3 --dir <dir>
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import dataclass

import numpy as np

# Bounds of the accuracy oracles, as the acceptance tests assert them:
# test 4 (macrospin vs ODE), test 5 (m/3 sphere) and test 8 (3/(3+chi)).
ORACLE_BOUNDS = {"ode_err": 1e-2, "demag_err": 0.10, "chi_factor_err": 0.10}

# Final energy records must match reference.json to within
# REFERENCE_RTOL * (1 + |reference value|) in every column.
REFERENCE_RTOL = 1e-8
REFERENCE_FIELDS = ("e_exch", "e_int", "e_zeeman", "e_total", "dissipation_sum")

CONSTANTS = """\
[constants]
c_exch = 1.0
c_ani = 0.5
alpha = 1.0
t_final = 1.0
"""


@dataclass(frozen=True)
class Workload:
    name: str
    oracle: str  # name of the accuracy oracle this workload reports
    energy_decay: bool  # whether the dissipation inequality applies
    ini: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="macrospin",
            oracle="ode_err",
            energy_decay=True,
            ini=f"""\
[mesh]
omega1 = omega1.mesh

{CONSTANTS}
[run]
theta = 1.0
k = 1e-4
n_steps = 2000
initial = snapshot
initial_snapshot = initial.dat

[contributions]
terms = uniaxial

[uniaxial]
axis = 0 0 1

[applied_field]
kind = constant
amplitude = 0.3 0 0.5

[output]
directory = out
cadence = 200
vtk = true
""",
        ),
        Workload(
            name="sphere_fk",
            oracle="demag_err",
            energy_decay=True,
            ini=f"""\
[mesh]
omega1 = omega1.mesh

{CONSTANTS}
[run]
theta = 1.0
k = 1e-3
n_steps = 10
initial = snapshot
initial_snapshot = initial.dat

[contributions]
terms = uniaxial, strayfield

[uniaxial]
axis = 0 0 1

[strayfield]
method = fk

[applied_field]
kind = constant
amplitude = 0 0 0.1

[output]
directory = out
cadence = 5
vtk = true
""",
        ),
        Workload(
            name="multiscale",
            oracle="chi_factor_err",
            energy_decay=False,  # the multiscale term has no discrete energy
            ini=f"""\
[mesh]
omega1 = omega1.mesh
omega2 = omega2.mesh

{CONSTANTS}
[run]
theta = 1.0
k = 1e-3
n_steps = 2
initial = snapshot
initial_snapshot = initial.dat

[contributions]
terms = cubic, strayfield, multiscale

[cubic]
k1 = 1.0
k2 = 0.0

[strayfield]
method = gcr

[multiscale]
law = tanh
params = 1 1
scheme = zarantonello

[applied_field]
kind = constant
amplitude = 0 0 0.5

[output]
directory = out
cadence = 1
vtk = true
""",
        ),
    )
}

OMEGA2_CENTER = (3.0, 0.0, 0.0)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def make_inputs(name: str, seed: int, directory: str) -> dict:
    """Write the mesh, snapshot and INI files of one workload.

    Returns what the oracles need besides the program's inputs; it is also
    written to ``inputs.json`` in the directory.
    """
    from multimag import icosphere_volume, reference_tet, write_mesh, write_snapshot

    workload = WORKLOADS[name]
    rng = np.random.default_rng(seed)
    os.makedirs(directory, exist_ok=True)
    extra: dict = {"workload": name, "seed": seed}
    if name == "macrospin":
        omega1 = reference_tet()
        # a uniform state near acceptance test 4's m0 = e_x; the ODE
        # reference is only valid for a spatially uniform state
        direction = _unit(np.array([1.0, 0.0, 0.0]) + 0.05 * rng.normal(size=3))
        m0 = np.tile(direction, (omega1.n_nodes, 1))
    else:
        level, n_radial = (3, 4) if name == "sphere_fk" else (2, 2)
        omega1 = icosphere_volume(level, n_radial=n_radial)
        m0 = _unit(np.array([0.0, 0.0, 1.0]) + 0.2 * rng.normal(size=(omega1.n_nodes, 3)))
        if name == "multiscale":
            omega2 = icosphere_volume(2, n_radial=2, center=OMEGA2_CENTER)
            write_mesh(os.path.join(directory, "omega2.mesh"), omega2)
            extra["omega2_center"] = list(OMEGA2_CENTER)
    write_mesh(os.path.join(directory, "omega1.mesh"), omega1)
    write_snapshot(os.path.join(directory, "initial.dat"), m0)
    with open(os.path.join(directory, "run.ini"), "w") as fh:
        fh.write(workload.ini)
    with open(os.path.join(directory, "inputs.json"), "w") as fh:
        json.dump(extra, fh, indent=1)
    return extra


# -- accuracy oracles (run after timing, never timed) -------------------------


def ode_err(cfg, setup, traj, inputs) -> float:
    """Max nodal |m(T) - m_ref(T)| against a DOP853 integration of the
    macrospin ODE, as in acceptance test 4."""
    from scipy.integrate import solve_ivp

    alpha = cfg.constants.alpha
    c_ani = cfg.constants.c_ani
    e = cfg.uniaxial_axis
    f = cfg.applied_amplitude
    m0 = setup.m0[0] / np.linalg.norm(setup.m0[0])

    def rhs(t, m):
        h = f + c_ani * (m @ e) * e
        h_perp = h - (h @ m) * m
        return (alpha * h_perp - np.cross(m, h)) / (1.0 + alpha**2)

    t_final = traj.final.time
    ref = solve_ivp(rhs, (0.0, t_final), m0, method="DOP853", rtol=1e-12, atol=1e-12)
    return float(np.linalg.norm(traj.final.m.values - ref.y[:, -1], axis=1).max())


def demag_err(cfg, setup, traj, inputs) -> float:
    """Relative error of the mean fk stray field of a uniform state against
    m/3, on the workload's own stray-field workspace; m = e_z as in
    acceptance test 5."""
    from multimag import NodalVectorField, StrayfieldContribution, fk_strayfield

    (stray,) = [c for c in setup.contributions if isinstance(c, StrayfieldContribution)]
    d = np.array([0.0, 0.0, 1.0])
    m = NodalVectorField(setup.mesh, np.tile(d, (setup.mesh.n_nodes, 1)))
    mean = fk_strayfield(stray.workspace, m).integral_mean()
    return float(np.linalg.norm(mean - d / 3.0) * 3.0)


def chi_factor_err(cfg, setup, traj, inputs) -> float:
    """Relative error of the interior field factor 3/(3+chi) of the
    workload's Omega_2 for a linear chi = 2 law in the uniform field e_z,
    staged as in acceptance test 8 (m = 0 on Omega_1)."""
    from multimag import MultiscaleContribution, material_law
    from multimag.fem import divergence_load, solve_spd
    from multimag.multiscale import (
        CouplingData,
        conormal_flux,
        solve_coupling,
        solve_uapp,
        transfer_u1_to_omega2,
    )

    chi = 2.0
    (ms,) = [c for c in setup.contributions if isinstance(c, MultiscaleContribution)]
    pair = ms.workspace
    cws = pair.coupling
    f = np.array([0.0, 0.0, 1.0])
    f_b = np.broadcast_to(f, (cws.mesh.n_nodes, 3))
    u11 = solve_spd(
        pair.stiffness1,
        divergence_load(pair.mesh1, np.zeros((pair.mesh1.n_nodes, 3))),
        constraint="zero-mean",
    )
    u1 = transfer_u1_to_omega2(pair, u11)
    uapp = solve_uapp(cws, f_b)
    lam = conormal_flux(cws, u1.values)
    trace = (u1.values + uapp.values)[cws.surface.boundary_nodes]
    data = CouplingData(flux=lam.values, f=f_b, gamma_trace=trace)
    state = solve_coupling(cws, data, material_law("linear", chi))
    grads = cws.mesh.element_gradient(state.u.values)
    cents = cws.mesh.nodes[cws.mesh.tets].mean(axis=1)
    keep = np.linalg.norm(cents - np.asarray(inputs["omega2_center"]), axis=1) < 0.5
    w = cws.mesh.volumes[keep]
    mean = (w[:, None] * grads[keep]).sum(axis=0) / w.sum()
    factor = 3.0 / (3.0 + chi)
    return float(abs(np.linalg.norm(mean) - factor) / factor)


ORACLES = {"ode_err": ode_err, "demag_err": demag_err, "chi_factor_err": chi_factor_err}


def main() -> int:
    parser = argparse.ArgumentParser(description="write the input files of one workload")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    make_inputs(args.workload, args.seed, args.dir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
