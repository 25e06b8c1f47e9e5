"""Closed-form references, each written once, and the errors their callers
bound: the mean stray field m/3 of a uniformly magnetized ball and the
uniform interior field of a magnetizable ellipsoid in a uniform field, 3/(3+chi)
of it on a ball of linear chi (Jackson, Classical Electrodynamics, 5.10-5.11),
the demagnetising tensor of an ellipsoid, the mean reaction field of a
magnetizable ball on a magnetized one, and the damped precession ODE of one
spin, which a uniform state follows.
"""

from __future__ import annotations

import numpy as np

from .fem import NodalVectorField
from .multiscale import coupling_data, solve_coupling
from .strayfield import StrayfieldContribution

E_Z = np.array([0.0, 0.0, 1.0])


def uniform_sphere_error(ws):
    """(err, field): the stray field of m = e_z by workspace ``ws`` and the
    relative error of its volume mean against e_z / 3."""
    m = NodalVectorField(ws.mesh, np.tile(E_Z, (ws.mesh.n_nodes, 1)))
    field = StrayfieldContribution(workspace=ws).evaluate(m)
    return float(np.linalg.norm(field.integral_mean() - E_Z / 3.0) * 3.0), field


def magnetizable_sphere_error(pair, center, law, f, shape=None, **solver):
    """(factor_err, l2_dev, mean, unit) of Omega_2, the image of the unit ball
    under x -> shape x + center (a ball when ``shape`` is None), of material
    ``law`` (chi >= 0) in the uniform field f (a 3-vector, or a number for f
    e_z), m = 0 on Omega_1, solved by :func:`solve_coupling` with ``solver``.
    The exact interior field is uniform, -grad u = H with H + chi(|H|) N H =
    f, N the ellipsoid's demagnetising tensor (I/3 on a ball), so |H| is the
    root t in [0, |f|] of |(I + chi(t) N)^-1 f| = t.  On the tets whose
    centroid x has |shape^-1 (x - center)| < 0.5: the relative errors of the
    mean |grad u| against |H| and, in L2, of -grad u against H, the mean of
    -grad u over |H|, and H over |H|."""
    from scipy.optimize import brentq

    cws = pair.coupling
    f = np.asarray(f, dtype=np.float64) * (E_Z if np.ndim(f) == 0 else 1.0)
    data = coupling_data(pair, np.zeros((pair.mesh1.n_nodes, 3)), f)
    state = solve_coupling(cws, data, law, **solver)
    shape = np.eye(3) if shape is None else np.asarray(shape, dtype=np.float64)
    rotation, axes, _ = np.linalg.svd(shape)
    demag = ellipsoid_demag_tensor(axes, rotation)
    cents = np.linalg.solve(shape, (cws.mesh.nodes[cws.mesh.tets].mean(axis=1) - center).T)
    keep = np.linalg.norm(cents, axis=0) < 0.5
    w, g = cws.mesh.volumes[keep], cws.mesh.element_gradient(state.u.values)[keep]

    def field(t):  # (I + chi(t) N)^-1 f
        return np.linalg.solve(np.eye(3) + float(law.chi(t)) * demag, f)

    exact = field(brentq(lambda s: np.linalg.norm(field(s)) - s, 0.0, np.linalg.norm(f)))
    t = np.linalg.norm(exact)
    mean = (w[:, None] * g).sum(axis=0) / w.sum()
    dev = g + exact
    l2_dev = np.sqrt((w * (dev**2).sum(axis=1)).sum() / w.sum()) / t
    return float(abs(np.linalg.norm(mean) - t) / t), float(l2_dev), -mean / t, exact / t


def ellipsoid_demag_tensor(axes, rotation):
    """Exact (3, 3) N of the ellipsoid with semi-axes ``axes`` along the
    columns of ``rotation``, whose uniform magnetization m has the uniform
    stray field N m: R diag(N_a, N_b, N_c) R^T, with N_a = (abc/3) R_D(b^2,
    c^2, a^2) and the others cyclically (Osborn, Phys. Rev. 67, 351 (1945);
    R_D is Carlson's symmetric integral)."""
    from scipy.special import elliprd

    sq = np.asarray(axes, dtype=np.float64) ** 2
    diag = np.sqrt(sq.prod()) / 3.0 * elliprd(np.roll(sq, -1), np.roll(sq, -2), sq)
    return rotation @ (diag[:, None] * np.transpose(rotation))


def two_sphere_reaction(m, axis, r1, r2, d, chi):
    """Exact volume mean of the multiscale field on a ball of radius r1 with
    uniform m, from a ball of radius r2 and linear ``chi`` centred d away
    along the unit ``axis``.  Outside the first ball its field is that of a
    dipole; degree n of it about the second ball's centre answers with
    -n chi / (n (2 + chi) + 1) r2^(2n+1), and the harmonic answer's mean
    over the first ball is its value at the centre:
    -(r1^3/3) sum_n G_n chi / (n (2 + chi) + 1) r2^(2n+1) / d^(2n+4) m, with
    G_n = n (n+1)^2 along the axis and n^2 (n+1) / 2 across it (Jackson,
    Classical Electrodynamics, 4.4).  Summed to n = 200, which is exact to
    rounding while r2/d <= 0.9."""
    n = np.arange(1.0, 201.0)
    series = r1**3 / 3.0 * chi / (n * (2.0 + chi) + 1.0) * (r2 / d) ** (2.0 * n + 1.0) / d**3
    m = np.asarray(m, dtype=np.float64)
    along = (m @ axis) * np.asarray(axis)
    return -(n * (n + 1.0) ** 2) @ series * along - (n**2 * (n + 1.0) / 2.0) @ series * (m - along)


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
