"""Shared fixtures; expensive assemblies are session-scoped."""

import numpy as np
import pytest
from hypothesis import strategies as st

from multimag import (
    TetMesh,
    assemble_boundary_mass,
    icosphere_volume,
    make_multiscale_workspace,
    make_strayfield_workspace,
    reference_tet,
)
from multimag.bem import hat_map, panel_geometry

from meshes import kuhn_cube


@pytest.fixture(scope="session")
def ref_tet():
    return reference_tet()


@pytest.fixture(scope="session")
def cube1():
    return kuhn_cube(1)


@pytest.fixture(scope="session")
def cube2():
    return kuhn_cube(2)


@pytest.fixture(scope="session")
def sphere1():
    # 85 nodes, 320 tets, 80 boundary faces
    return icosphere_volume(1, n_radial=2)


@pytest.fixture(scope="session")
def sphere2():
    # 1280 tets, 320 boundary faces; fine enough for the 10% sphere oracle
    return icosphere_volume(2, n_radial=2)


@pytest.fixture(scope="session")
def sphere_ws(sphere1):
    return make_strayfield_workspace(sphere1, "fk")


@pytest.fixture(scope="session")
def pair_ws(sphere1):
    far = icosphere_volume(1, n_radial=2, center=(3.0, 0.0, 0.0))
    return make_multiscale_workspace(sphere1, far)


def gauss_residual(surface, double_layer):
    """max_f |row_f of (K + Mb / 2) applied to 1|.

    The constant's interior trace identity makes every row vanish; the
    value measures the implementation's quadrature and roundoff.
    """
    ones = np.ones(surface.boundary_nodes.size)
    rows = double_layer @ ones + 0.5 * (assemble_boundary_mass(surface) @ ones)
    return float(np.abs(rows).max())


def hat_coefficients(surface):
    """(7, F, 3) entries of ``bem.hat_map(surface)``, read back per panel:
    [c, f, i] is row c F + f in the column of face f's vertex i."""
    f_count = surface.n_faces
    rows, cols = np.broadcast_arrays(
        np.arange(7 * f_count).reshape(7, f_count, 1), surface.local_face_indices[None]
    )
    return np.asarray(hat_map(surface)[rows.ravel(), cols.ravel()]).reshape(7, f_count, 3)


def panel_hats(surface, points, omega, edge):
    """(P, F, 3) hat double layer integrals, lam_i(x) Omega - sum_e (g_i.m_e)
    zeta P_e, from the ``omega`` and ``edge`` planes of ``bem.panel_integrals``
    at the (P, 3) ``points``: each panel's one-point moments [Omega,
    (x - origin) Omega, zeta P_e] times its ``hat_coefficients``."""
    offsets = np.asarray(points, dtype=np.float64) - panel_geometry(surface).origin
    moments = np.concatenate([omega[None], offsets.T[:, :, None] * omega[None], edge])
    return np.einsum("cpf,cfi->pfi", moments, hat_coefficients(surface))


def random_unit_field(mesh, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(mesh.n_nodes, 3))
    return values / np.linalg.norm(values, axis=1, keepdims=True)


def quaternion_rotation(q):
    """The rotation matrix of the (nonzero) quaternion q = (w, x, y, z)."""
    w, x, y, z = np.asarray(q, dtype=np.float64) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def ellipsoid_mesh(ball, axes, rotation, offset=(0.0, 0.0, 0.0)):
    """``ball`` mapped by x -> rotation diag(axes) x + offset."""
    return TetMesh(ball.nodes @ (rotation * axes).T + np.asarray(offset), ball.tets)


QUATERNIONS = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
    lambda q: np.linalg.norm(q) > 0.1
)
