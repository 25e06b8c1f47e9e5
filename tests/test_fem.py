"""P1 assembly, solvers, quadrature, and boundary operators.

Reference matrices were computed by symbolic integration of the barycentric
hat functions over the unit reference tetrahedron (volume 1/6) and are
frozen here as exact fractions.
"""

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from multimag import (
    NodalVectorField,
    TetMesh,
    assemble_boundary_mass,
    assemble_mass,
    assemble_stiffness,
    icosphere_volume,
    make_llg_workspace,
    solve_spd,
)
from multimag.fem import (
    SOLVE_RESIDUAL_TOL,
    assemble_weighted_stiffness,
    clement_matrix,
    divergence_load,
    face_quadrature,
    h1_seminorm_sq,
    l2_inner,
    lifted_gradient,
    l2_norm,
    normal_derivative,
    pattern_positions,
)

from meshes import kuhn_cube

REF_MASS = np.array(
    [
        [1 / 60, 1 / 120, 1 / 120, 1 / 120],
        [1 / 120, 1 / 60, 1 / 120, 1 / 120],
        [1 / 120, 1 / 120, 1 / 60, 1 / 120],
        [1 / 120, 1 / 120, 1 / 120, 1 / 60],
    ]
)
REF_STIFFNESS = np.array(
    [
        [1 / 2, -1 / 6, -1 / 6, -1 / 6],
        [-1 / 6, 1 / 6, 0, 0],
        [-1 / 6, 0, 1 / 6, 0],
        [-1 / 6, 0, 0, 1 / 6],
    ]
)


def test_local_mass_matrix(ref_tet):
    M = assemble_mass(ref_tet).matrix.toarray()
    np.testing.assert_allclose(M, REF_MASS, rtol=1e-14)


def test_local_stiffness_matrix(ref_tet):
    K = assemble_stiffness(ref_tet).matrix.toarray()
    np.testing.assert_allclose(K, REF_STIFFNESS, atol=1e-15)


def test_global_matrix_structure(sphere1):
    M = assemble_mass(sphere1).matrix
    K = assemble_stiffness(sphere1).matrix
    np.testing.assert_allclose((M - M.T).toarray(), 0.0, atol=1e-14)
    np.testing.assert_allclose((K - K.T).toarray(), 0.0, atol=1e-14)
    # constants: M 1 recovers the hat integrals, K annihilates them
    ones = np.ones(sphere1.n_nodes)
    np.testing.assert_allclose(M @ ones, sphere1.hat_integrals, rtol=1e-12)
    np.testing.assert_allclose(K @ ones, 0.0, atol=1e-12)
    np.testing.assert_allclose(ones @ (M @ ones), sphere1.volumes.sum(), rtol=1e-12)


def test_mass_is_positive_definite(cube2):
    M = assemble_mass(cube2).matrix.toarray()
    assert np.linalg.eigvalsh(M).min() > 0


def test_stiffness_energy_of_affine(cube2):
    a = np.array([2.0, -1.0, 0.5])
    u = cube2.nodes @ a
    K = assemble_stiffness(cube2)
    np.testing.assert_allclose(h1_seminorm_sq(K, u), a @ a, rtol=1e-12)


def test_weighted_stiffness(cube2):
    rng = np.random.default_rng(7)
    w = rng.uniform(0.5, 2.0, size=cube2.n_tets)
    Kw = assemble_weighted_stiffness(cube2, w).matrix
    # unit weights recover the plain matrix; doubling weights doubles it
    K = assemble_stiffness(cube2).matrix
    np.testing.assert_allclose(
        assemble_weighted_stiffness(cube2, np.ones(cube2.n_tets)).matrix.toarray(),
        K.toarray(),
        rtol=1e-14,
    )
    np.testing.assert_allclose(
        assemble_weighted_stiffness(cube2, 2.0 * w).matrix.toarray(),
        2.0 * Kw.toarray(),
        rtol=1e-14,
    )


@pytest.mark.parametrize("level, n_radial, n_nodes", [(2, 2, 325), (3, 4, 2569)])
def test_unit_weights_give_the_shared_stiffness_bit_for_bit(level, n_radial, n_nodes):
    # the coupling preconditioner P takes its stiffness block from w = 1
    mesh = icosphere_volume(level, n_radial=n_radial)
    assert mesh.n_nodes == n_nodes
    got = assemble_weighted_stiffness(mesh, np.ones(mesh.n_tets)).matrix
    expect = assemble_stiffness(mesh).matrix
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, name), getattr(expect, name)), name


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 3), data=st.data())
def test_pattern_positions_index_their_node_pairs(n, data):
    # renumber the nodes, reorder the tets and their vertices of a cube mesh
    base = kuhn_cube(n)
    node_perm = np.array(data.draw(st.permutations(range(base.n_nodes))))
    tet_perm = np.array(data.draw(st.permutations(range(base.n_tets))))
    vertex_perm = np.array(data.draw(st.permutations(range(4))))
    nodes = np.empty_like(base.nodes)
    nodes[node_perm] = base.nodes
    mesh = TetMesh(nodes, node_perm[base.tets][tet_perm][:, vertex_perm])
    positions = pattern_positions(mesh)
    pattern = assemble_stiffness(mesh).matrix
    rows = np.repeat(np.arange(mesh.n_nodes), np.diff(pattern.indptr))
    shape = (mesh.n_tets, 4, 4)
    assert positions.shape == shape
    np.testing.assert_array_equal(rows[positions], np.broadcast_to(mesh.tets[:, :, None], shape))
    np.testing.assert_array_equal(
        pattern.indices[positions], np.broadcast_to(mesh.tets[:, None, :], shape)
    )


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    low=st.floats(1e-6, 1.0),
    spread=st.floats(1.0, 1e6),
)
def test_weighted_stiffness_matches_elementwise_assembly(cube2, seed, low, spread):
    from multimag.fem import _scatter

    w = np.random.default_rng(seed).uniform(low, low * spread, size=cube2.n_tets)
    g = cube2.hat_gradients
    blocks = np.einsum("mid,mjd->mij", g, g) * (cube2.volumes * w)[:, None, None]
    expect = _scatter(cube2, blocks).matrix
    got = assemble_weighted_stiffness(cube2, w).matrix
    assert got.shape == expect.shape
    diff = abs(got - expect).max()
    assert diff <= 1e-14 * abs(expect).max()
    for bad in (-w, np.where(np.arange(cube2.n_tets) == seed % cube2.n_tets, 0.0, w)):
        with pytest.raises(ValueError, match="positive and finite"):
            assemble_weighted_stiffness(cube2, bad)
    with pytest.raises(ValueError, match="positive and finite"):
        assemble_weighted_stiffness(cube2, np.where(w == w.max(), np.inf, w))
    with pytest.raises(ValueError, match="weights"):
        assemble_weighted_stiffness(cube2, w[:-1])


def test_divergence_load_matches_stiffness_identity(sphere1):
    # <m, grad v> = <grad(m . x), grad v> for constant m
    m = np.array([0.4, -0.3, 0.8])
    b = divergence_load(sphere1, np.tile(m, (sphere1.n_nodes, 1)))
    K = assemble_stiffness(sphere1).matrix
    np.testing.assert_allclose(b, K @ (sphere1.nodes @ m), atol=1e-13)


def test_lifted_gradient_exact_on_affine(sphere1):
    a = np.array([0.3, -1.2, 0.7])
    grad = lifted_gradient(sphere1, sphere1.nodes @ a + 2.0)
    np.testing.assert_allclose(grad, np.tile(a, (sphere1.n_nodes, 1)), rtol=0.0, atol=1e-13)


# The scatter forms the fixed CSR maps replaced, kept here as their reference.
def scatter_divergence_load(mesh, m_values):
    cell_mean = m_values[mesh.tets].mean(axis=1) * mesh.volumes[:, None]
    contrib = np.einsum("mkd,md->mk", mesh.hat_gradients, cell_mean)
    out = np.zeros(mesh.n_nodes)
    np.add.at(out, mesh.tets.ravel(), contrib.ravel())
    return out


def scatter_element_gradient(mesh, values):
    return np.einsum("mk,mkd->md", values[mesh.tets], mesh.hat_gradients)


def scatter_lift(mesh, cell_values):
    acc = np.zeros((mesh.n_nodes, cell_values.shape[1]))
    patch = np.zeros(mesh.n_nodes)
    weighted = cell_values * mesh.volumes[:, None]
    for corner in range(4):
        np.add.at(acc, mesh.tets[:, corner], weighted)
        np.add.at(patch, mesh.tets[:, corner], mesh.volumes)
    return acc / patch[:, None]


def scatter_clement(surface, face_integrals):
    acc = np.zeros((surface.boundary_nodes.size,) + face_integrals.shape[1:])
    np.add.at(acc, surface.local_face_indices.ravel(), np.repeat(face_integrals, 3, axis=0))
    return acc / surface.node_patch_areas.reshape((-1,) + (1,) * (acc.ndim - 1))


def renumbered_cube(n, rng):
    """kuhn_cube(n) with its nodes and its tets in random order."""
    mesh = kuhn_cube(n)
    new_id = rng.permutation(mesh.n_nodes)
    nodes = np.empty_like(mesh.nodes)
    nodes[new_id] = mesh.nodes
    return TetMesh(nodes, new_id[mesh.tets][rng.permutation(mesh.n_tets)])


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4))
def test_fixed_maps_match_scatter_forms(n, seed, k):
    rng = np.random.default_rng(seed)
    mesh = renumbered_cube(n, rng)
    surf = mesh.boundary()
    m = rng.normal(size=(mesh.n_nodes, 3))
    u = rng.normal(size=mesh.n_nodes)
    faces_1 = rng.normal(size=surf.n_faces)
    faces_k = rng.normal(size=(surf.n_faces, k))
    pairs = [
        (divergence_load(mesh, m), scatter_divergence_load(mesh, m)),
        (mesh.element_gradient(u), scatter_element_gradient(mesh, u)),
        (lifted_gradient(mesh, u), scatter_lift(mesh, scatter_element_gradient(mesh, u))),
        (clement_matrix(surf) @ faces_1, scatter_clement(surf, faces_1)),
        (clement_matrix(surf) @ faces_k, scatter_clement(surf, faces_k)),
    ]
    for new, ref in pairs:
        assert new.shape == ref.shape
        assert np.abs(new - ref).max() <= 1e-14 * np.abs(ref).max()


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_normal_derivative_map_matches_einsum_form(n, seed):
    rng = np.random.default_rng(seed)
    mesh = renumbered_cube(n, rng)
    surf = mesh.boundary()
    u = rng.normal(size=mesh.n_nodes)
    ref = np.einsum("fd,fd->f", scatter_element_gradient(mesh, u)[surf.parent_tets], surf.normals)
    new = normal_derivative(mesh, u)
    assert new.shape == ref.shape
    assert np.abs(new - ref).max() <= 1e-14 * np.abs(ref).max()


def test_solve_spd_zero_mean(cube2):
    K = assemble_stiffness(cube2)
    rhs = divergence_load(cube2, np.tile([0.0, 0.0, 1.0], (cube2.n_nodes, 1)))
    u = solve_spd(K, rhs, constraint="zero-mean")
    assert abs(u.mean()) < 1e-10
    # solution is z + const with the mean removed
    expect = cube2.nodes[:, 2] - cube2.nodes[:, 2].mean()
    np.testing.assert_allclose(u, expect, atol=1e-8)


def test_solve_spd_dirichlet(cube2):
    K = assemble_stiffness(cube2)
    surf = cube2.boundary()
    g = cube2.nodes[surf.boundary_nodes, 0] + 2.0
    u = solve_spd(K, np.zeros(cube2.n_nodes), constraint="dirichlet", dirichlet_values=g)
    # harmonic extension of an affine trace is the affine function
    np.testing.assert_allclose(u, cube2.nodes[:, 0] + 2.0, atol=1e-8)


def test_solve_spd_dirichlet_with_every_node_on_the_boundary(cube1):
    # kuhn_cube(1) has no interior node: the solution is the data itself
    surf = cube1.boundary()
    assert surf.boundary_nodes.size == cube1.n_nodes
    g = np.random.default_rng(2).normal(size=cube1.n_nodes)
    u = solve_spd(
        assemble_stiffness(cube1), np.zeros(cube1.n_nodes), constraint="dirichlet",
        dirichlet_values=g,
    )
    np.testing.assert_array_equal(u[surf.boundary_nodes], g)


def test_solve_spd_rejects_dirichlet_values_off_the_boundary_size(cube2):
    K = assemble_stiffness(cube2)
    nb = cube2.boundary().boundary_nodes.size
    for values in (np.zeros(nb - 1), np.zeros(cube2.n_nodes), None):
        with pytest.raises(ValueError, match=f"expected \\({nb},\\) dirichlet values"):
            solve_spd(K, np.zeros(cube2.n_nodes), constraint="dirichlet", dirichlet_values=values)


@pytest.mark.parametrize("constraint", ["zero-mean", "dirichlet"])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-6, 1e6))
def test_solve_spd_constraints_and_residual(cube2, constraint, seed, scale):
    rng = np.random.default_rng(seed)
    op = assemble_stiffness(cube2)
    rhs = scale * rng.normal(size=cube2.n_nodes)
    nodes = cube2.boundary().boundary_nodes
    values = np.zeros(nodes.size)
    kwargs = {}
    if constraint == "dirichlet":
        values = scale * rng.normal(size=nodes.size)
        kwargs = {"dirichlet_values": values}
    x = solve_spd(op, rhs, constraint=constraint, **kwargs)
    b = rhs - rhs.mean() if constraint == "zero-mean" else rhs
    free = np.ones(cube2.n_nodes, dtype=bool)
    if constraint == "dirichlet":
        free[nodes] = False
        assert np.array_equal(x[nodes], values)
    residual = b - op.matrix @ x
    b_free = b[free] - op.matrix[free][:, ~free] @ x[~free]
    assert np.linalg.norm(residual[free]) <= SOLVE_RESIDUAL_TOL * np.linalg.norm(b_free)
    if constraint == "zero-mean":
        w = cube2.hat_integrals
        assert abs(w @ x) <= 1e-12 * np.abs(w * x).sum()


def test_one_operator_per_mesh(sphere1, sphere_ws, pair_ws):
    stiffness = assemble_stiffness(sphere1)
    mass = assemble_mass(sphere1)
    assert assemble_stiffness(sphere1) is stiffness
    assert assemble_mass(sphere1) is mass
    llg = make_llg_workspace(sphere1)
    assert llg.stiffness is sphere_ws.stiffness is pair_ws.stiffness1 is stiffness
    assert llg.mass is mass
    # the velocity system puts mass and stiffness data on one pattern
    np.testing.assert_array_equal(mass.matrix.indptr, stiffness.matrix.indptr)
    np.testing.assert_array_equal(mass.matrix.indices, stiffness.matrix.indices)


def test_solve_spd_factors_once_per_constraint(monkeypatch):
    from multimag import fem

    mesh = kuhn_cube(2)
    calls = []
    splu = fem.spla.splu

    def counting_splu(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(fem.spla, "splu", counting_splu)
    K = assemble_stiffness(mesh)
    nb = mesh.boundary().boundary_nodes.size
    rng = np.random.default_rng(3)
    for _ in range(3):
        solve_spd(K, rng.normal(size=mesh.n_nodes), constraint="zero-mean")
    assert len(calls) == 1
    for _ in range(2):
        # gcr's homogeneous solve and its harmonic extension share one factor
        solve_spd(
            K, rng.normal(size=mesh.n_nodes), constraint="dirichlet",
            dirichlet_values=np.zeros(nb),
        )
        solve_spd(
            K, np.zeros(mesh.n_nodes), constraint="dirichlet",
            dirichlet_values=rng.normal(size=nb),
        )
    assert len(calls) == 2
    assert sorted(K._cache) == ["dirichlet", "zero-mean"]


def test_solve_spd_accepts_a_load_that_cancels_to_roundoff():
    # m = e_z on the coarse sphere pair: u1 is odd in z, so the free-row
    # load of the transfer onto the far body (its centre, on z = 0) cancels
    # to 1e-17, and the residual of its solve is rounding error
    from multimag.multiscale import make_multiscale_workspace, transfer_u1_to_omega2

    near = icosphere_volume(0, n_radial=1)
    far = icosphere_volume(0, n_radial=1, center=(4.0, 0.0, 0.0))
    mws = make_multiscale_workspace(near, far)
    m = np.tile([0.0, 0.0, 1.0], (near.n_nodes, 1))
    u11 = solve_spd(mws.stiffness1, divergence_load(near, m), constraint="zero-mean")
    u1 = transfer_u1_to_omega2(mws, u11).values
    assert np.abs(u1[far.nodes[:, 2] == 0.0]).max() < 1e-15


def test_solve_spd_rejects_a_solve_off_by_more_than_the_tolerance(monkeypatch):
    from multimag import fem

    splu = fem.spla.splu

    class Skewed:
        def __init__(self, a):
            self.lu = splu(a)

        def solve(self, b):
            return self.lu.solve(b) * (1.0 + 1.5 * SOLVE_RESIDUAL_TOL)

    monkeypatch.setattr(fem.spla, "splu", Skewed)
    mesh = kuhn_cube(2)
    rhs = np.random.default_rng(4).normal(size=mesh.n_nodes)
    with pytest.raises(RuntimeError, match="sparse LU solve inaccurate"):
        solve_spd(assemble_stiffness(mesh), rhs, constraint="zero-mean")


def test_solve_spd_rejects_unknown_constraint(cube2):
    for constraint in ("pin", "none"):
        with pytest.raises(ValueError, match="unknown constraint"):
            solve_spd(assemble_mass(cube2), np.zeros(cube2.n_nodes), constraint=constraint)
    with pytest.raises(TypeError, match="constraint"):
        solve_spd(assemble_mass(cube2), np.zeros(cube2.n_nodes))


# integral of x^a y^b over the triangle (0,0)-(1,0)-(0,1), symbolic values
TRI_MONOMIALS = [
    (0, 0, 1 / 2),
    (1, 0, 1 / 6),
    (2, 0, 1 / 12),
    (1, 1, 1 / 24),
    (5, 0, 1 / 42),
    (3, 2, 1 / 420),
    (2, 3, 1 / 420),
]


def test_face_quadrature_exactness(ref_tet):
    surf = ref_tet.boundary()
    points, weights = face_quadrature(surf)
    (face,) = np.flatnonzero(np.abs(surf.normals[:, 2]) > 0.9)  # the face on z = 0
    assert weights[face].sum() == pytest.approx(0.5, rel=1e-14)
    pts = points[face]
    for a, b, exact in TRI_MONOMIALS:
        approx = (weights[face] * pts[:, 0] ** a * pts[:, 1] ** b).sum()
        np.testing.assert_allclose(approx, exact, rtol=1e-13)


def test_face_quadrature_weights_include_areas(cube1):
    surf = cube1.boundary()
    points, weights = face_quadrature(surf)
    np.testing.assert_allclose(weights.sum(), surf.areas.sum(), rtol=1e-13)
    np.testing.assert_allclose(weights.sum(axis=1), surf.areas, rtol=1e-13)
    assert points.shape == (surf.n_faces, 7, 3)


def face_integrals(surface, g):
    """(F,) integrals of a point-evaluable g over each face, 7-point rule."""
    points, weights = face_quadrature(surface)
    return (weights * g(points.reshape(-1, 3)).reshape(weights.shape)).sum(axis=1)


def test_integrate_faces_affine(cube1):
    surf = cube1.boundary()
    vals = face_integrals(surf, lambda p: p[:, 2])
    # z integrated over the cube surface: top contributes 1, sides 1/2 each
    np.testing.assert_allclose(vals.sum(), 1.0 + 4 * 0.5, rtol=1e-13)


def test_clement_reproduces_constants(sphere1):
    surf = sphere1.boundary()
    vals = clement_matrix(surf) @ (3.25 * surf.areas)
    np.testing.assert_allclose(vals, 3.25, rtol=1e-13)


def test_clement_range_containment(sphere1):
    surf = sphere1.boundary()
    g = lambda p: np.sin(3.0 * p[:, 0]) + p[:, 1] ** 2
    vals = clement_matrix(surf) @ face_integrals(surf, g)
    points, _ = face_quadrature(surf)
    sampled = g(points.reshape(-1, 3))
    assert vals.min() >= sampled.min() - 1e-12
    assert vals.max() <= sampled.max() + 1e-12


def test_clement_cube_corner_value(cube1):
    # patch average of z at the corner (0,0,0): frozen from direct
    # evaluation of the area-weighted face-average formula
    surf = cube1.boundary()
    vals = clement_matrix(surf) @ face_integrals(surf, lambda p: p[:, 2])
    corner = np.where((np.abs(cube1.nodes[surf.boundary_nodes]) < 1e-12).all(axis=1))[0]
    np.testing.assert_allclose(vals[corner], 1.0 / 3.0, rtol=1e-12)


def test_clement_accepts_precomputed_face_integrals(sphere1):
    surf = sphere1.boundary()
    assert clement_matrix(surf).shape == (surf.boundary_nodes.size, surf.n_faces)
    vals = clement_matrix(surf) @ face_integrals(surf, lambda p: p[:, 0] ** 2)
    assert vals.shape == (surf.boundary_nodes.size,)


def test_clement_interpolates_columns(sphere1):
    surf = sphere1.boundary()
    columns = np.random.default_rng(5).normal(size=(surf.n_faces, 3))
    together = clement_matrix(surf) @ columns
    assert together.shape == (surf.boundary_nodes.size, 3)
    for j in range(3):
        np.testing.assert_array_equal(together[:, j], clement_matrix(surf) @ columns[:, j])


def test_boundary_mass_entries(cube1):
    surf = cube1.boundary()
    Mb = assemble_boundary_mass(surf)
    assert Mb.shape == (surf.n_faces, surf.boundary_nodes.size)
    np.testing.assert_allclose(np.asarray(Mb.sum(axis=1)).ravel(), surf.areas, rtol=1e-13)
    row = Mb.getrow(0)
    np.testing.assert_allclose(row.data, surf.areas[0] / 3.0, rtol=1e-13)
    # <1, hat_n> over the surface equals the node patch areas / 3
    np.testing.assert_allclose(
        Mb.T @ np.ones(surf.n_faces), surf.node_patch_areas / 3.0, rtol=1e-13
    )


def test_normal_derivative_affine(cube2):
    a = np.array([0.7, -0.2, 1.1])
    surf = cube2.boundary()
    dn = normal_derivative(cube2, cube2.nodes @ a)
    np.testing.assert_allclose(dn, surf.normals @ a, atol=1e-12)


def test_l2_inner_norms(cube2):
    M = assemble_mass(cube2)
    K = assemble_stiffness(cube2)
    ones = np.ones(cube2.n_nodes)
    np.testing.assert_allclose(l2_norm(M, ones), 1.0, rtol=1e-12)
    v = np.tile([1.0, 0, 0], (cube2.n_nodes, 1))
    np.testing.assert_allclose(l2_inner(M, v, v), 1.0, rtol=1e-12)
    assert h1_seminorm_sq(K, ones) < 1e-12
    with pytest.raises(ValueError, match="shape mismatch"):
        l2_inner(M, ones, v)


def test_field_containers(cube2):
    vec = NodalVectorField(cube2, np.tile([0.0, 0.0, 2.0], (cube2.n_nodes, 1)))
    np.testing.assert_allclose(vec.integral_mean(), [0.0, 0.0, 2.0], atol=1e-13)
    affine = NodalVectorField(cube2, cube2.nodes.copy())
    np.testing.assert_allclose(affine.integral_mean(), [0.5, 0.5, 0.5], rtol=1e-12)
