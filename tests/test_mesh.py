"""Mesh containers, deterministic builders, file format, angle condition."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from multimag import (
    check_angle_condition,
    icosphere_volume,
    load_mesh,
    reference_tet,
    write_mesh,
)
from multimag.mesh import MeshFormatError, TetMesh

from meshes import kuhn_cube, sliver_tet, two_tets


def test_reference_tet_geometry(ref_tet):
    np.testing.assert_allclose(
        ref_tet.nodes,
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        atol=0,
    )
    assert ref_tet.n_tets == 1
    np.testing.assert_allclose(ref_tet.volumes, [1.0 / 6.0], rtol=1e-15)
    surf = ref_tet.boundary()
    assert surf.n_faces == 4
    # three unit right triangles plus the oblique face
    np.testing.assert_allclose(surf.areas.sum(), 1.5 + np.sqrt(3.0) / 2.0, rtol=1e-14)


def test_inverted_cells_are_reoriented():
    nodes = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    mesh = TetMesh(nodes, np.array([[0, 2, 1, 3]]))  # negative orientation
    assert mesh.volumes[0] > 0
    assert sorted(mesh.tets[0]) == [0, 1, 2, 3]


def test_mesh_freezes_copies_not_the_callers_arrays():
    nodes = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    tets = np.array([[0, 1, 2, 3]], dtype=np.int64)  # nothing to convert, so only a copy helps
    mesh = TetMesh(nodes, tets)
    assert not mesh.nodes.flags.writeable and not mesh.tets.flags.writeable
    assert nodes.flags.writeable and tets.flags.writeable
    nodes[3, 2] = 2.0
    tets[0] = [0, 2, 1, 3]
    assert mesh.nodes[3, 2] == 1.0 and mesh.tets[0].tolist() == [0, 1, 2, 3]
    with pytest.raises(ValueError, match="read-only"):
        mesh.nodes[0, 0] = 0.5


def test_degenerate_cell_rejected():
    nodes = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.5, 0.5, 0]], dtype=float)
    with pytest.raises(MeshFormatError):
        TetMesh(nodes, np.array([[0, 1, 2, 3]]))


def test_index_out_of_range_rejected():
    nodes = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    with pytest.raises(MeshFormatError):
        TetMesh(nodes, np.array([[0, 1, 2, 4]]))


@pytest.mark.parametrize(
    "build,n_nodes,n_tets,n_bfaces,volume",
    [
        (lambda: kuhn_cube(1), 8, 6, 12, 1.0),
        (lambda: kuhn_cube(2), 27, 48, 48, 1.0),
        (lambda: two_tets(), 5, 2, 6, 1.0 / 3.0),
        (lambda: icosphere_volume(0, n_radial=2), 25, 80, 20, None),
        (lambda: icosphere_volume(1, n_radial=2), 85, 320, 80, None),
    ],
)
def test_builder_inventories(build, n_nodes, n_tets, n_bfaces, volume):
    mesh = build()
    assert mesh.n_nodes == n_nodes
    assert mesh.n_tets == n_tets
    assert mesh.boundary().n_faces == n_bfaces
    if volume is not None:
        np.testing.assert_allclose(mesh.total_volume, volume, rtol=1e-13)


def test_icosphere_volume_converges_to_ball():
    exact = 4.0 * np.pi / 3.0
    errs = [
        abs(icosphere_volume(level, n_radial=2).total_volume - exact) / exact
        for level in (0, 1, 2)
    ]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.05


def test_icosphere_scaling_and_center():
    mesh = icosphere_volume(1, n_radial=2, radius=2.0, center=(1.0, -1.0, 0.5))
    r = np.linalg.norm(mesh.nodes - [1.0, -1.0, 0.5], axis=1)
    assert r.max() <= 2.0 + 1e-12
    base = icosphere_volume(1, n_radial=2)
    np.testing.assert_allclose(mesh.total_volume, 8.0 * base.total_volume, rtol=1e-12)


def test_hat_gradients_sum_to_zero(cube2):
    sums = cube2.hat_gradients.sum(axis=1)
    np.testing.assert_allclose(sums, 0.0, atol=1e-13)


def test_hat_gradients_reference_values(ref_tet):
    np.testing.assert_allclose(
        ref_tet.hat_gradients[0],
        [[-1, -1, -1], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        atol=1e-15,
    )


def test_element_gradient_exact_on_affine(sphere1):
    a = np.array([0.3, -1.2, 0.7])
    values = sphere1.nodes @ a + 2.0
    grad = sphere1.element_gradient(values)
    np.testing.assert_allclose(grad, np.tile(a, (sphere1.n_tets, 1)), atol=1e-12)


def test_hat_integrals(cube2, ref_tet):
    np.testing.assert_allclose(cube2.hat_integrals.sum(), cube2.total_volume, rtol=1e-13)
    np.testing.assert_allclose(ref_tet.hat_integrals, np.full(4, 1.0 / 24.0), rtol=1e-14)


def test_node_patch_volumes(cube2):
    np.testing.assert_allclose(
        cube2.node_patch_volumes.sum(), 4.0 * cube2.total_volume, rtol=1e-13
    )
    assert (cube2.node_patch_volumes > 0).all()


def test_cube_boundary_geometry(cube1):
    surf = cube1.boundary()
    np.testing.assert_allclose(surf.areas.sum(), 6.0, rtol=1e-13)
    np.testing.assert_allclose(np.linalg.norm(surf.normals, axis=1), 1.0, rtol=1e-13)
    # outward: from the body centroid every face centroid lies along its normal
    out = np.einsum("fd,fd->f", surf.centroids - 0.5, surf.normals)
    assert (out > 0).all()
    # axis-aligned faces only
    assert (np.abs(surf.normals).max(axis=1) > 1.0 - 1e-12).all()
    assert set(surf.boundary_nodes) == set(range(8))


def test_boundary_parent_links(sphere1):
    surf = sphere1.boundary()
    assert surf.boundary_nodes.size < sphere1.n_nodes  # interior nodes exist
    # each boundary face is a face of its parent tet
    for f, t in zip(surf.faces[:10], surf.parent_tets[:10]):
        assert set(f) <= set(sphere1.tets[t])


def test_surface_patch_areas_and_local_indices(sphere1):
    surf = sphere1.boundary()
    np.testing.assert_allclose(surf.node_patch_areas.sum(), 3.0 * surf.areas.sum(), rtol=1e-13)
    np.testing.assert_array_equal(surf.boundary_nodes[surf.local_face_indices], surf.faces)


def test_mesh_file_roundtrip(tmp_path, sphere1):
    path = tmp_path / "sphere.mesh"
    write_mesh(path, sphere1, comment="unit ball\nlevel 1")
    again = load_mesh(path)
    np.testing.assert_array_equal(again.nodes, sphere1.nodes)
    np.testing.assert_array_equal(again.tets, sphere1.tets)
    with open(path) as fh:
        assert fh.readline() == "# unit ball\n"


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "unexpected end of file"),
        ("nodes x\n", "not an integer"),
        ("nodes 1\n0 0 0\n", "unexpected end of file"),
        ("nodes 1\n0 0 zero\ntets 0\n", "bad coordinate"),
        ("nodes 4\n0 0 0\n1 0 0\n0 1 0\n0 0 1\ntets 1\n0 1 2\n", "expected 4 fields"),
        ("nodes 4\n0 0 0\n1 0 0\n0 1 0\n0 0 1\ntets 1\n0 1 2 9\n", "out of range"),
        ("cells 1\n", "expected 'nodes <N>'"),
        (
            "nodes 4\n0 0 0\n1 0 0\n0 1 0\n0 0 1\ntets 1\n0 1 2 3\nextra\n",
            "trailing content",
        ),
    ],
)
def test_load_mesh_rejects_malformed(tmp_path, text, fragment):
    path = tmp_path / "bad.mesh"
    path.write_text(text)
    with pytest.raises(MeshFormatError, match=fragment):
        load_mesh(path)


def test_load_mesh_ignores_comments(tmp_path):
    path = tmp_path / "c.mesh"
    path.write_text(
        "# header\nnodes 4 # four of them\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n\ntets 1\n0 1 2 3\n"
    )
    mesh = load_mesh(path)
    assert mesh.n_nodes == 4 and mesh.n_tets == 1


def test_angle_condition_structured_meshes():
    for n in (1, 3):
        rep = check_angle_condition(kuhn_cube(n))
        assert rep.satisfied
        assert rep.max_offdiagonal == 0.0
        assert rep.n_violations == 0
        assert rep.worst_pair is None
    assert check_angle_condition(two_tets()).satisfied


def test_angle_condition_sliver():
    rep = check_angle_condition(sliver_tet())
    assert not rep.satisfied
    assert rep.n_violations == 6
    np.testing.assert_allclose(rep.max_offdiagonal, 1.04, rtol=1e-2)
    i, j = rep.worst_pair
    assert i != j and 0 <= i < 4 and 0 <= j < 4


def test_angle_condition_icosphere(sphere1):
    rep = check_angle_condition(sphere1)
    assert not rep.satisfied
    assert rep.n_violations == 106
    assert rep.max_offdiagonal > 0


@settings(max_examples=50, deadline=None)
@given(
    scale=st.floats(1e-3, 1e3),
    sign=st.sampled_from([1.0, -1.0]),
    extra=arrays(
        np.float64,
        st.tuples(st.integers(0, 5), st.just(3)),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    ),
)
@example(scale=1.0, sign=-1.0, extra=np.array([[-0.0, 5e-324, -2.2250738585072014e-308]]))
def test_mesh_round_trip_is_exact(tmp_path_factory, scale, sign, extra):
    # a negative sign mirrors the cube (and writes -0.0); the constructor
    # reorients its tets, so the written mesh is positively oriented.  The
    # extra nodes belong to no tet and carry arbitrary finite coordinates.
    cube = kuhn_cube(1)
    mesh = TetMesh(np.vstack([sign * scale * cube.nodes, extra]), cube.tets)
    path = str(tmp_path_factory.mktemp("mesh") / "m.mesh")
    write_mesh(path, mesh)
    back = load_mesh(path)
    assert np.array_equal(back.nodes.view(np.int64), mesh.nodes.view(np.int64))
    assert np.array_equal(back.tets, mesh.tets)
