"""Closed-form references, each written once, and the errors their callers
bound: the mean stray field m/3 of a uniformly magnetized ball and the
interior field factor 3/(3+chi) of a linear chi ball in a uniform field
(Jackson, Classical Electrodynamics, 5.10-5.11), and the damped precession
ODE of one spin, which a uniform state follows.
"""

from __future__ import annotations

import numpy as np

from .fem import NodalVectorField
from .multiscale import coupling_data, material_law, solve_coupling
from .strayfield import StrayfieldContribution

E_Z = np.array([0.0, 0.0, 1.0])


def uniform_sphere_error(ws):
    """(err, field): the stray field of m = e_z by workspace ``ws`` and the
    relative error of its volume mean against e_z / 3."""
    m = NodalVectorField(ws.mesh, np.tile(E_Z, (ws.mesh.n_nodes, 1)))
    field = StrayfieldContribution(workspace=ws).evaluate(m)
    return float(np.linalg.norm(field.integral_mean() - E_Z / 3.0) * 3.0), field


def magnetizable_sphere_error(pair, center, chi):
    """(factor_err, l2_dev) of Omega_2, a linear ``chi`` ball in the field e_z
    (m = 0 on Omega_1), on tets centred within 0.5 of ``center``: relative
    errors of the mean |grad u| against 3/(3+chi) and, in L2, of -grad u
    against -3/(3+chi) e_z."""
    cws = pair.coupling
    data = coupling_data(pair, np.zeros((pair.mesh1.n_nodes, 3)), E_Z)
    state = solve_coupling(cws, data, material_law("linear", chi))
    cents = cws.mesh.nodes[cws.mesh.tets].mean(axis=1)
    keep = np.linalg.norm(cents - np.asarray(center), axis=1) < 0.5
    w, g = cws.mesh.volumes[keep], cws.mesh.element_gradient(state.u.values)[keep]
    factor = 3.0 / (3.0 + chi)
    mean = (w[:, None] * g).sum(axis=0) / w.sum()
    dev = g + factor * E_Z
    l2_dev = np.sqrt((w * (dev**2).sum(axis=1)).sum() / w.sum()) / factor
    return float(abs(np.linalg.norm(mean) - factor) / factor), float(l2_dev)


def macrospin_reference(m0, f, alpha, c_ani, axis, t_final):
    """m(t_final) of dm/dt = (alpha h_perp - m x h) / (1 + alpha^2), with
    h = f + c_ani (m . axis) axis, by DOP853 at rtol = atol = 1e-12."""
    from scipy.integrate import solve_ivp

    def rhs(t, m):
        h = f + c_ani * (m @ axis) * axis
        h_perp = h - (h @ m) * m
        return (alpha * h_perp - np.cross(m, h)) / (1.0 + alpha**2)

    sol = solve_ivp(rhs, (0.0, t_final), m0, method="DOP853", rtol=1e-12, atol=1e-12)
    return sol.y[:, -1]


def macrospin_error(m_values, m0, f, alpha, c_ani, axis, t_final):
    """Largest nodal |m - m_ref| of the (N, 3) ``m_values``."""
    m_ref = macrospin_reference(m0, f, alpha, c_ani, axis, t_final)
    return float(np.linalg.norm(m_values - m_ref, axis=1).max())
