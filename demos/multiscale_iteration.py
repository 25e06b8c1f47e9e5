"""Nonlinear magnetizable environment: linear solve vs fixed-point schemes.

A second body with field-dependent susceptibility sits at distance 3 from
the magnet. Its response is governed by a FEM-BEM transmission problem
whose stabilized form is strongly monotone, so a damped Richardson
iteration (Zarantonello) converges globally with strictly decreasing
residuals and the frozen-coefficient iteration (Kacanov) needs far fewer
iterations, each a GMRES solve preconditioned by the chi = 0 matrix's LU.
The script first checks the linear chi = 2 case against the classical
3/(3+chi) interior-field factor, then prints both nonlinear iteration
histories for the tanh law.
"""

import numpy as np

from multimag import icosphere_volume, make_multiscale_workspace, material_law
from multimag.fem import divergence_load, solve_spd
from multimag.multiscale import (
    CouplingData,
    conormal_flux,
    solve_coupling,
    solve_uapp,
    transfer_u1_to_omega2,
)


def coupling_data(pair, m_values, f):
    cws = pair.coupling
    f_b = np.broadcast_to(np.asarray(f, dtype=np.float64), (cws.mesh.n_nodes, 3))
    u11 = solve_spd(
        pair.stiffness1, divergence_load(pair.mesh1, m_values), constraint="zero-mean"
    )
    u1 = transfer_u1_to_omega2(pair, u11)
    uapp = solve_uapp(cws, f_b)
    lam = conormal_flux(cws, u1.values)
    trace = (u1.values + uapp.values)[cws.surface.boundary_nodes]
    return CouplingData(flux=lam.values, f=f_b, gamma_trace=trace)


def interior_mean_field(cws, state, center):
    grads = cws.mesh.element_gradient(state.u.values)
    cents = cws.mesh.nodes[cws.mesh.tets].mean(axis=1)
    keep = np.linalg.norm(cents - center, axis=1) < 0.5
    w = cws.mesh.volumes[keep]
    return np.linalg.norm((w[:, None] * grads[keep]).sum(axis=0) / w.sum())


def main():
    magnet = icosphere_volume(1, n_radial=2)
    environment = icosphere_volume(2, n_radial=2, center=(3.0, 0.0, 0.0))
    pair = make_multiscale_workspace(magnet, environment)
    print(f"magnet: {magnet.n_tets} tets; environment: {environment.n_tets} tets")

    f = np.array([0.0, 0.0, 1.0])
    data = coupling_data(pair, np.zeros((magnet.n_nodes, 3)), f)

    linear = material_law("linear", 2.0)
    state = solve_coupling(pair.coupling, data, linear)
    mag = interior_mean_field(pair.coupling, state, np.array([3.0, 0.0, 0.0]))
    print(f"linear chi = 2: interior |H| = {mag:.6f} "
          f"(classical sphere factor 3/(3+chi) = 0.6), {state.iterations} iteration")

    tanh = material_law("tanh", 1.0, 1.0)
    print(f"tanh law: monotonicity {tanh.gamma}, Lipschitz bound {tanh.lip}")
    for scheme in ("zarantonello", "kacanov"):
        state = solve_coupling(pair.coupling, data, tanh, scheme=scheme)
        hist = state.residual_history
        shown = ", ".join(f"{r:.1e}" for r in hist[:4])
        print(
            f"  {scheme:>12}: {state.iterations:>3} iterations "
            f"[{shown}, ... {hist[-1]:.1e}]"
        )
    print("the damped iteration trades speed for an unconditional monotone-")
    print("decrease guarantee; the frozen-coefficient one takes fewer, dearer steps:")
    print("each is a GMRES solve preconditioned by the same LU of P")


if __name__ == "__main__":
    main()
