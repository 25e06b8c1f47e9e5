"""First-order convergence of the time integrator on a single macrospin.

On one tetrahedron with a uniform state, exchange vanishes and the scheme
reduces to a damped precession ODE per node. Integrating that ODE with an
adaptive high-order method gives a reference trajectory; halving the step
size repeatedly shows the expected O(k) error decay of the tangent-plane
scheme.
"""

import numpy as np

from multimag import NondimConstants, RunSetup, UniaxialContribution, reference_tet, run
from multimag.oracles import macrospin_error, macrospin_reference

ALPHA, C_ANI = 1.0, 0.5
AXIS = np.array([0.0, 0.0, 1.0])
F = np.array([0.3, 0.0, 0.5])
M0 = np.array([1.0, 0.0, 0.0])
T_FINAL = 1.0


def main():
    mesh = reference_tet()
    m_ref = macrospin_reference(M0, F, ALPHA, C_ANI, AXIS, T_FINAL)
    print(f"reference m(T={T_FINAL}) = [{m_ref[0]:.6f}, {m_ref[1]:.6f}, {m_ref[2]:.6f}]")
    print(f"{'k':>10} {'steps':>7} {'error':>11} {'ratio':>7}")
    prev = None
    for k in (8e-3, 4e-3, 2e-3, 1e-3, 5e-4):
        setup = RunSetup(
            mesh=mesh,
            m0=np.tile(M0, (mesh.n_nodes, 1)),
            constants=NondimConstants(
                c_exch=1.0, c_ani=C_ANI, alpha=ALPHA, t_final=T_FINAL
            ),
            contributions=[UniaxialContribution(axis=AXIS, scale=C_ANI)],
            applied_field=lambda t, points: F,
            theta=1.0,
            k=k,
            n_steps=int(round(T_FINAL / k)),
        )
        traj = run(setup)
        err = macrospin_error(traj.final.m.values, M0, F, ALPHA, C_ANI, AXIS, T_FINAL)
        ratio = f"{prev / err:>6.2f}" if prev is not None else "     -"
        print(f"{k:>10.0e} {setup.n_steps:>7} {err:>11.3e} {ratio}")
        prev = err
    print("errors halve with the step size: first order in k, as the")
    print("renormalized implicit tangent-plane update predicts")


if __name__ == "__main__":
    main()
