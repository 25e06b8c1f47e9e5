"""Shared fixtures; expensive assemblies are session-scoped."""

import numpy as np
import pytest

from multimag import (
    assemble_boundary_mass,
    icosphere_volume,
    make_multiscale_workspace,
    make_strayfield_workspace,
    reference_tet,
)

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


def random_unit_field(mesh, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(mesh.n_nodes, 3))
    return values / np.linalg.norm(values, axis=1, keepdims=True)
