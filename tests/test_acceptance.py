"""End-to-end acceptance gates.

Each test exercises one advertised guarantee of the package at its stated
tolerance and prints a single PASS line with the measured numbers; the
bounds themselves are asserted.  Runtime budgets are asserted where the
guarantee includes one.
"""

import time

import numpy as np
import pytest

from multimag import (
    MultiscaleContribution,
    NodalVectorField,
    NondimConstants,
    RunSetup,
    StrayfieldContribution,
    UniaxialContribution,
    assemble_bem,
    check_energy_decay,
    eval_double_layer,
    eval_single_layer,
    icosphere_volume,
    make_multiscale_workspace,
    make_strayfield_workspace,
    material_law,
    reference_tet,
    run,
    write_mesh,
)
from multimag.cli import main
from multimag.fem import assemble_mass, l2_norm
from multimag.multiscale import coupling_data, solve_coupling
from multimag.oracles import macrospin_error, magnetizable_sphere_error, uniform_sphere_error

from conftest import gauss_residual, random_unit_field
from meshes import kuhn_cube


def test_01_unit_constraint_and_tangency():
    # 384-tet cube, exchange + uniaxial anisotropy, 200 steps in under 10 s;
    # every node of every step keeps |m| = 1, v in the tangent plane, and
    # the two nodal increment bounds of the renormalization step
    mesh = kuhn_cube(4)
    k = 2e-3
    setup = RunSetup(
        mesh=mesh,
        m0=random_unit_field(mesh, 4),
        constants=NondimConstants(c_exch=1.0, c_ani=0.5, alpha=1.0, t_final=1.0),
        contributions=[UniaxialContribution(axis=np.array([0.0, 0.0, 1.0]), scale=0.5)],
        theta=1.0,
        k=k,
        n_steps=200,
    )
    t0 = time.perf_counter()
    traj = run(setup)
    elapsed = time.perf_counter() - t0

    worst_mod = 0.0
    worst_dot = 0.0
    worst_first = 0.0
    worst_second = 0.0
    for i, v in enumerate(traj.velocities):
        m_old = traj.states[i].m.values
        m_new = traj.states[i + 1].m.values
        worst_mod = max(worst_mod, np.abs(np.linalg.norm(m_new, axis=1) - 1.0).max())
        worst_dot = max(worst_dot, np.abs((v.values * m_old).sum(axis=1)).max())
        delta = np.linalg.norm(m_new - m_old, axis=1)
        kv = k * np.linalg.norm(v.values, axis=1)
        worst_first = max(worst_first, (delta - kv * (1.0 + 1e-9) - 1e-13).max())
        second = np.linalg.norm(m_new - m_old - k * v.values, axis=1)
        worst_second = max(
            worst_second, (second - 0.5 * kv**2 * (1.0 + 1e-9) - 1e-13).max()
        )

    print(
        f"acceptance 1: PASS |m|-1 max {worst_mod:.2e}, v.m max {worst_dot:.2e}, "
        f"increment-bound slacks {worst_first:.2e}/{worst_second:.2e}, {elapsed:.1f}s"
    )
    assert mesh.n_tets == 384
    assert elapsed < 10.0
    assert worst_mod <= 1e-12
    assert worst_dot <= 1e-9
    assert worst_first <= 0.0
    assert worst_second <= 0.0


def test_02_energy_decay_with_strayfield(sphere1, sphere_ws):
    # implicit theta = 1, constant applied field, uniaxial + stray field on a
    # coarse sphere: E(m_j) + dissipation_j <= E(m_0) + 1e-8 (1 + |E(m_0)|)
    # at every one of 500 steps, in under 2 minutes
    rng = np.random.default_rng(3)
    m0 = np.tile([0.0, 0.0, 1.0], (sphere1.n_nodes, 1)) + 0.2 * rng.normal(
        size=(sphere1.n_nodes, 3)
    )
    m0 /= np.linalg.norm(m0, axis=1, keepdims=True)
    setup = RunSetup(
        mesh=sphere1,
        m0=m0,
        constants=NondimConstants(c_exch=1.0, c_ani=0.5, alpha=1.0, t_final=1.0),
        contributions=[
            UniaxialContribution(axis=np.array([0.0, 0.0, 1.0]), scale=0.5),
            StrayfieldContribution(workspace=sphere_ws),
        ],
        applied_field=lambda t: np.array([0.0, 0.0, 0.1]),
        theta=1.0,
        k=1e-4,
        n_steps=500,
    )
    t0 = time.perf_counter()
    traj = run(setup)
    elapsed = time.perf_counter() - t0
    report = check_energy_decay(traj, include_defect_allowance=False)
    print(
        f"acceptance 2: PASS E {traj.records[0].e_total:.4f} -> "
        f"{traj.records[-1].e_total:.4f}, max excess {report.max_excess:.2e} "
        f"(slack {report.slack:.2e}), {elapsed:.1f}s"
    )
    assert elapsed < 120.0
    assert report.passed
    assert report.first_violation is None


def test_03_unconditional_stability_coarse_time_step():
    # theta = 1 stays stable at k = 0.5 over 100 steps: finite, on the unit
    # sphere, and energy non-increasing within slack.  theta = 0.3 at the
    # same step size is allowed to drift; its excess is reported, not gated.
    mesh = kuhn_cube(3)
    m0 = random_unit_field(mesh, 11)
    constants = NondimConstants(c_exch=1.0, c_ani=1.0, alpha=1.0, t_final=50.0)

    def make(theta):
        return RunSetup(
            mesh=mesh, m0=m0, constants=constants, contributions=[],
            theta=theta, k=0.5, n_steps=100,
        )

    traj = run(make(1.0))
    finite = all(np.isfinite(s.m.values).all() for s in traj.states)
    worst_mod = max(
        np.abs(np.linalg.norm(s.m.values, axis=1) - 1.0).max() for s in traj.states
    )
    report = check_energy_decay(traj, include_defect_allowance=False)

    drift = run(make(0.3))
    drift_report = check_energy_decay(drift, include_defect_allowance=False)
    drift_note = (
        f"theta=0.3 max excess {drift_report.max_excess:.3e} "
        f"(conditional regime, not asserted)"
    )

    print(
        f"acceptance 3: PASS theta=1 k=0.5 E {traj.records[0].e_total:.2f} -> "
        f"{traj.records[-1].e_total:.2e}, |m|-1 max {worst_mod:.2e}; {drift_note}"
    )
    assert finite
    assert worst_mod <= 1e-12
    assert report.passed


def test_04_macrospin_matches_ode_reference():
    # single-tet uniform state against an adaptive high-order integration of
    # the same damped precession ODE; first order in k
    mesh = reference_tet()
    alpha, c_ani = 1.0, 0.5
    e = np.array([0.0, 0.0, 1.0])
    f = np.array([0.3, 0.0, 0.5])
    m0 = np.array([1.0, 0.0, 0.0])
    t_final = 1.0

    errs = {}
    for k in (1e-3, 1e-4):
        setup = RunSetup(
            mesh=mesh,
            m0=np.tile(m0, (mesh.n_nodes, 1)),
            constants=NondimConstants(
                c_exch=1.0, c_ani=c_ani, alpha=alpha, t_final=t_final
            ),
            contributions=[UniaxialContribution(axis=e, scale=c_ani)],
            applied_field=lambda t: f,
            theta=1.0,
            k=k,
            n_steps=int(round(t_final / k)),
        )
        traj = run(setup)
        errs[k] = macrospin_error(traj.final.m.values, m0, f, alpha, c_ani, e, t_final)

    ratio = errs[1e-3] / errs[1e-4]
    print(
        f"acceptance 4: PASS err(k=1e-3) {errs[1e-3]:.3e}, "
        f"err(k=1e-4) {errs[1e-4]:.3e}, reduction {ratio:.1f}x"
    )
    assert errs[1e-3] <= 1e-2
    assert ratio >= 5.0


def test_05_uniform_sphere_strayfield_oracle(sphere2):
    # uniform m on a 1280-tet unit sphere: volume-mean stray field equals
    # m/3 within 10% for both methods, the two fields agree within 15%
    # relative L2, and both errors shrink under one uniform refinement;
    # each method stays under a minute
    def both_methods(mesh):
        t0 = time.perf_counter()
        err_fk, pi_fk = uniform_sphere_error(make_strayfield_workspace(mesh, "fk"))
        t_fk = time.perf_counter() - t0
        t0 = time.perf_counter()
        err_gcr, pi_gcr = uniform_sphere_error(make_strayfield_workspace(mesh, "gcr"))
        t_gcr = time.perf_counter() - t0
        return pi_fk, pi_gcr, err_fk, err_gcr, t_fk, t_gcr

    pi_fk, pi_gcr, err_fk, err_gcr, t_fk, t_gcr = both_methods(sphere2)
    mass = assemble_mass(sphere2)
    agree = l2_norm(mass, pi_fk.values - pi_gcr.values) / l2_norm(mass, pi_fk.values)

    fine = icosphere_volume(3, n_radial=3)
    _, _, err_fk_fine, err_gcr_fine, t_fk_fine, t_gcr_fine = both_methods(fine)

    print(
        f"acceptance 5: PASS mean errors fk {err_fk:.2%} -> {err_fk_fine:.2%}, "
        f"gcr {err_gcr:.2%} -> {err_gcr_fine:.2%}, L2 agreement {agree:.2%}, "
        f"times {t_fk:.1f}/{t_gcr:.1f}s coarse, {t_fk_fine:.1f}/{t_gcr_fine:.1f}s fine"
    )
    assert err_fk <= 0.10 and err_gcr <= 0.10
    assert agree <= 0.15
    assert err_fk_fine < err_fk and err_gcr_fine < err_gcr
    for t in (t_fk, t_gcr, t_fk_fine, t_gcr_fine):
        assert t < 60.0


def test_06_bem_identities(cube2, sphere1, sphere2):
    # on each closed test surface: the Galerkin row identity (K + M/2) 1 = 0
    # within 1e-3, double-layer indicator -1 inside / 0 outside within 1e-3,
    # and exact symmetry of V; the 320-face unit-sphere shell potential at
    # the center is 1 within 2%
    surfaces = {
        "cube": (cube2.boundary(), [0.5, 0.5, 0.5]),
        "sphere-80": (sphere1.boundary(), [0.0, 0.0, 0.0]),
        "sphere-320": (sphere2.boundary(), [0.0, 0.0, 0.0]),
    }
    far = np.array([[4.0, 5.0, 6.0]])
    worst = {"gauss": 0.0, "inside": 0.0, "outside": 0.0, "sym": 0.0}
    shell = None
    for name, (surf, center) in surfaces.items():
        v, k = assemble_bem(surf, True, True)
        worst["gauss"] = max(worst["gauss"], gauss_residual(surf, k))
        worst["sym"] = max(worst["sym"], np.abs(v - v.T).max())
        ones = np.ones(surf.boundary_nodes.size)
        inside = eval_double_layer(surf, np.array([center], dtype=float)) @ ones
        outside = eval_double_layer(surf, far) @ ones
        worst["inside"] = max(worst["inside"], abs(inside[0] + 1.0))
        worst["outside"] = max(worst["outside"], abs(outside[0]))
        if name == "sphere-320":
            assert surf.n_faces == 320
            shell = (eval_single_layer(surf, np.zeros((1, 3))) @ np.ones(surf.n_faces))[0]

    print(
        f"acceptance 6: PASS gauss {worst['gauss']:.2e}, indicator "
        f"{worst['inside']:.2e}/{worst['outside']:.2e}, V asymmetry "
        f"{worst['sym']:.2e}, shell potential {shell:.5f}"
    )
    assert worst["gauss"] <= 1e-3
    assert worst["inside"] <= 1e-3 and worst["outside"] <= 1e-3
    assert worst["sym"] <= 1e-10
    assert abs(shell - 1.0) <= 0.02


def test_07_multiscale_null_test(pair_ws, sphere1):
    # a vanishing susceptibility must transmit nothing: ||pi|| stays below
    # 1e-6 (||f|| + ||m||) for random data, and linear laws converge in
    # at most two nonlinear iterations
    mass1 = assemble_mass(sphere1)
    contrib = MultiscaleContribution(workspace=pair_ws, law=material_law("zero"))
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        m = NodalVectorField(sphere1, random_unit_field(sphere1, seed))
        f = rng.normal(size=3)
        pi = contrib.evaluate(m, zeta=f)
        f_field = np.broadcast_to(f, (sphere1.n_nodes, 3))
        scale = l2_norm(mass1, np.ascontiguousarray(f_field)) + l2_norm(mass1, m.values)
        worst = max(worst, l2_norm(mass1, pi.values) / scale)

    data = coupling_data(pair_ws, np.zeros((sphere1.n_nodes, 3)), [0.0, 0.0, 1.0])
    state = solve_coupling(pair_ws.coupling, data, material_law("linear", 2.0))

    print(
        f"acceptance 7: PASS null ratio {worst:.2e}, "
        f"linear law converged in {state.iterations} iteration(s)"
    )
    assert worst <= 1e-6
    assert state.iterations <= 2


def test_08_magnetizable_sphere_interior_field(sphere1):
    # linear chi = 2 sphere in a uniform field: the interior field is
    # 3/(3+chi) = 0.6 of the applied strength within 10%, and the interior
    # L2 deviation from that uniform field shrinks under refinement
    center = (3.0, 0.0, 0.0)

    def interior_field(level, n_radial):
        omega2 = icosphere_volume(level, n_radial=n_radial, center=center)
        pair = make_multiscale_workspace(sphere1, omega2)
        return magnetizable_sphere_error(pair, center, material_law("linear", 2.0), 1.0)[:2]

    t0 = time.perf_counter()
    err_coarse, l2_coarse = interior_field(1, 2)
    _, l2_fine = interior_field(2, 3)
    elapsed = time.perf_counter() - t0

    print(
        f"acceptance 8: PASS interior field factor err {err_coarse:.2e}, "
        f"L2 deviation {l2_coarse:.2e} -> {l2_fine:.2e}, {elapsed:.1f}s"
    )
    assert elapsed < 120.0
    assert err_coarse <= 0.10
    assert l2_fine < l2_coarse


def test_09_nonlinear_solver_monotone_convergence(sphere1):
    # tanh law with monotonicity 1 and Lipschitz bound 2 on a 1280-tet
    # environment mesh: the damped fixed-point residuals decrease strictly
    # and reach 1e-8 relative within 200 iterations
    omega2 = icosphere_volume(2, n_radial=2, center=(3.0, 0.0, 0.0))
    pair = make_multiscale_workspace(sphere1, omega2)
    law = material_law("tanh", 1.0, 1.0)
    assert law.gamma == 1.0 and law.lip == 2.0
    data = coupling_data(pair, random_unit_field(sphere1, 2), [0.0, 0.0, 1.0])
    state = solve_coupling(pair.coupling, data, law, scheme="zarantonello")
    hist = np.array(state.residual_history)

    print(
        f"acceptance 9: PASS {omega2.n_tets}-tet environment, "
        f"{state.iterations} iterations to residual {state.residual:.2e}, "
        f"strictly monotone"
    )
    assert omega2.n_tets == 1280
    assert state.residual <= 1e-8
    assert state.iterations <= 200
    assert (np.diff(hist) < 0.0).all()


DETERMINISM_CONFIG = """\
[mesh]
omega1 = sphere.mesh

[constants]
c_exch = 1.0
c_ani = 0.5
alpha = 1.0
t_final = 1.0

[run]
k = 1e-4
n_steps = 50
initial_vector = 0.3 0.1 1

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
directory = {outdir}
cadence = 10
"""


def test_10_deterministic_energy_table(tmp_path, sphere1):
    # identical config, two separate invocations: byte-identical energies.csv
    write_mesh(str(tmp_path / "sphere.mesh"), sphere1)
    for name in ("a", "b"):
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(DETERMINISM_CONFIG.format(outdir=name))
        assert main(["simulate", str(cfg)]) == 0
    bytes_a = (tmp_path / "a" / "energies.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "energies.csv").read_bytes()
    print(
        f"acceptance 10: PASS two runs, {len(bytes_a)} bytes of energies.csv, "
        f"identical: {bytes_a == bytes_b}"
    )
    assert bytes_a == bytes_b
