"""Nonlinear magnetizable environment: linear solve vs fixed-point schemes.

A second body with field-dependent susceptibility sits at distance 3 from
the magnet. Its response is governed by a FEM-BEM transmission problem
whose stabilized form is strongly monotone. A damped Richardson iteration
(Zarantonello) tries the step 2/(gamma + lip) and halves it, down to
gamma/lip^2, whenever the residual would not fall, so its residuals
decrease strictly; the frozen-coefficient iteration (Kacanov) takes fewer
iterations, each a GMRES solve preconditioned by the chi = 0 matrix's LU.
The script first checks the linear chi = 2 case against the classical
3/(3+chi) interior-field factor, then prints both nonlinear iteration
histories for the tanh law.
"""

import numpy as np

from multimag import icosphere_volume, make_multiscale_workspace, material_law
from multimag.multiscale import coupling_data, solve_coupling
from multimag.oracles import magnetizable_sphere_error


def main():
    magnet = icosphere_volume(1, n_radial=2)
    environment = icosphere_volume(2, n_radial=2, center=(3.0, 0.0, 0.0))
    pair = make_multiscale_workspace(magnet, environment)
    print(f"magnet: {magnet.n_tets} tets; environment: {environment.n_tets} tets")

    linear = material_law("linear", 2.0)
    factor_err = magnetizable_sphere_error(pair, (3.0, 0.0, 0.0), linear, 1.0)[0]
    print(f"linear chi = 2: 3/(3+chi) error {factor_err:.2e} (classical sphere factor 0.6)")

    data = coupling_data(pair, np.zeros((magnet.n_nodes, 3)), [0.0, 0.0, 1.0])
    tanh = material_law("tanh", 1.0, 1.0)
    print(f"tanh law: monotonicity {tanh.gamma}, Lipschitz bound {tanh.lip}")
    for scheme in ("zarantonello", "kacanov"):
        state = solve_coupling(pair.coupling, data, tanh, scheme=scheme)
        hist = state.residual_history
        shown = ", ".join(f"{r:.1e}" for r in hist[:4])
        print(
            f"  {scheme:>12}: {state.iterations:>3} iterations, {state.halvings} halvings "
            f"[{shown}, ... {hist[-1]:.1e}]"
        )
    print("each damped step costs one residual, plus one per halving; each")
    print("frozen-coefficient step is a GMRES solve preconditioned by the same LU of P")


if __name__ == "__main__":
    main()
