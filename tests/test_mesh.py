"""Mesh containers, deterministic builders, file format, angle condition."""

from unittest import mock

import numpy as np
import pytest
from scipy import sparse
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
from multimag import bem, fem
from multimag import mesh as mesh_module
from multimag.mesh import MeshFormatError, SurfaceMesh, TetMesh

from meshes import kuhn_cube, sliver_tet, three_tets_on_one_face, two_tets


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


@pytest.mark.parametrize("corner, stretch", [(1.4e157, 1.0 / 1024), (-1e308, -2.0)])
def test_tet_whose_volume_overflows_rejected(corner, stretch):
    # finite nodes, but the volume overflows to inf, which would leave every
    # hat gradient zero (edges of ~1.4e154), or the edge vectors themselves
    # overflow and the volume is nan (edges of 2e308); tet 0 is a unit tet
    unit = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    nodes = np.vstack([corner * (1.0 + stretch * unit), unit])
    with pytest.raises(MeshFormatError, match="tet 1 has a non-finite volume"):
        TetMesh(nodes, np.array([[4, 5, 6, 7], [0, 1, 2, 3]]))


def test_index_out_of_range_rejected():
    nodes = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    with pytest.raises(MeshFormatError):
        TetMesh(nodes, np.array([[0, 1, 2, 4]]))


def test_node_outside_every_tet_rejected():
    # such a node has no P1 equation: its velocity and potentials are undetermined
    nodes = np.array([[0, 0, 0], [2, 2, 2], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    with pytest.raises(MeshFormatError, match="node 1 belongs to no tetrahedron"):
        TetMesh(nodes, np.array([[0, 2, 3, 4]]))


def test_non_manifold_boundary_rejected():
    with pytest.raises(MeshFormatError, match="non-manifold mesh"):
        three_tets_on_one_face().boundary()


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
        np.testing.assert_allclose(mesh.volumes.sum(), volume, rtol=1e-13)


def test_icosphere_volume_converges_to_ball():
    exact = 4.0 * np.pi / 3.0
    errs = [
        abs(icosphere_volume(level, n_radial=2).volumes.sum() - exact) / exact
        for level in (0, 1, 2)
    ]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.05


def test_icosphere_scaling_and_center():
    mesh = icosphere_volume(1, n_radial=2, radius=2.0, center=(1.0, -1.0, 0.5))
    r = np.linalg.norm(mesh.nodes - [1.0, -1.0, 0.5], axis=1)
    assert r.max() <= 2.0 + 1e-12
    base = icosphere_volume(1, n_radial=2)
    np.testing.assert_allclose(mesh.volumes.sum(), 8.0 * base.volumes.sum(), rtol=1e-12)


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
    np.testing.assert_allclose(cube2.hat_integrals.sum(), cube2.volumes.sum(), rtol=1e-13)
    np.testing.assert_allclose(ref_tet.hat_integrals, np.full(4, 1.0 / 24.0), rtol=1e-14)


@pytest.mark.parametrize(
    "build",
    [reference_tet, lambda: kuhn_cube(2), lambda: icosphere_volume(1, 2),
     lambda: icosphere_volume(2, 2)],
)
def test_patch_volumes_are_four_hat_integrals(build):
    # the nodal lift weighs each tet by |T| / (4 * hat integral): the
    # patch volume the scatter of whole volumes gives, bit for bit
    mesh = build()
    patch = np.zeros(mesh.n_nodes)
    np.add.at(patch, mesh.tets.ravel(), np.repeat(mesh.volumes, 4))
    np.testing.assert_array_equal(4.0 * mesh.hat_integrals, patch)
    assert (patch > 0).all()


def reachable_arrays(owner):
    """Every ndarray an attribute or property of ``owner`` holds, by name;
    a sparse matrix contributes its data, indices and indptr."""
    found = {}
    for name in dir(owner):
        value = getattr(owner, name)
        if sparse.issparse(value):
            found.update({f"{name}.{part}": getattr(value, part)
                          for part in ("data", "indices", "indptr")})
        elif isinstance(value, np.ndarray):
            found[name] = value
    return found


@pytest.mark.parametrize("build", [lambda: icosphere_volume(1, 2), lambda: kuhn_cube(2)])
def test_mesh_data_is_read_only(build):
    # the operators built for the mesh come from these arrays, and are
    # themselves frozen and built once
    mesh = build()
    surface = mesh.boundary()
    for owner, names in (
        (mesh, {"nodes", "tets", "volumes", "hat_gradients", "hat_integrals",
                "gradient_matrix.data", "gradient_matrix.indices", "gradient_matrix.indptr"}),
        (surface, {"nodes", "faces", "parent_tets", "areas", "normals", "vertex_coords",
                   "boundary_nodes", "node_patch_areas", "local_face_indices"}),
    ):
        arrays = reachable_arrays(owner)
        assert names <= set(arrays)
        for name, array in arrays.items():
            with pytest.raises(ValueError, match="read-only"):
                array[...] = array
    for builder, owner in (
        (fem.assemble_mass, mesh),
        (fem.assemble_stiffness, mesh),
        (fem._divergence_matrix, mesh),
        (fem._lifted_gradient_matrix, mesh),
        (fem._normal_derivative_matrix, mesh),
        (fem.clement_matrix, surface),
        (fem.assemble_boundary_mass, surface),
        (bem.hat_incidence, surface),
    ):
        operator = builder(owner)
        assert builder(owner) is operator, builder.__name__
        matrix = operator.matrix if isinstance(operator, fem.SparseOperator) else operator
        for array in (matrix.data, matrix.indices, matrix.indptr):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = array


def test_meshes_compare_and_hash_by_identity():
    mesh = icosphere_volume(0, 2)
    assert mesh == mesh
    assert mesh != icosphere_volume(0, 2)
    assert mesh in {mesh}
    surface = mesh.boundary()
    assert surface == mesh.boundary() and surface in {surface}


def test_surface_copies_its_inputs(cube1):
    surface = cube1.boundary()
    faces = np.array(surface.faces)
    copy = SurfaceMesh(surface.nodes, faces, surface.parent_tets)
    faces[0] = faces[0, ::-1]
    np.testing.assert_array_equal(copy.faces, surface.faces)
    np.testing.assert_array_equal(copy.areas, surface.areas)


def test_degenerate_surface_face_is_rejected(cube1):
    surface = cube1.boundary()
    faces = np.array(surface.faces)
    faces[0, 2] = faces[0, 1]
    with pytest.raises(MeshFormatError, match="degenerate boundary face"):
        SurfaceMesh(surface.nodes, faces, surface.parent_tets)


def test_cube_boundary_geometry(cube1):
    surf = cube1.boundary()
    np.testing.assert_allclose(surf.areas.sum(), 6.0, rtol=1e-13)
    np.testing.assert_allclose(np.linalg.norm(surf.normals, axis=1), 1.0, rtol=1e-13)
    # outward: from the body centroid every face centroid lies along its normal
    out = np.einsum("fd,fd->f", surf.vertex_coords.mean(axis=1) - 0.5, surf.normals)
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
@example(scale=1.0, sign=1.0, extra=np.array([[1e105, -1e105, 1e105]]))
@example(scale=1.0, sign=1.0, extra=np.array([[np.finfo(float).max, -np.finfo(float).max, 0.0]]))
def test_mesh_round_trip_is_exact(tmp_path_factory, scale, sign, extra):
    # a negative sign mirrors the cube (and writes -0.0); the constructor
    # reorients its tets, so the written mesh is positively oriented.  Each
    # extra node p carries arbitrary finite coordinates and is the apex of a
    # tet over a unit right triangle o, o + e_i, o + e_j normal to the axis k
    # of p's largest component, with o = -e_k or e_k on the far side of p_k.  The
    # tet's volume |p_k - o_k| / 6 lies in [1/6, 3e307], so it is finite
    # and positive for every finite p.
    cube = kuhn_cube(1)
    k = np.abs(extra).argmax(axis=1)
    o = np.zeros_like(extra)
    o[np.arange(len(extra)), k] = np.where(extra[np.arange(len(extra)), k] >= 0.0, -1.0, 1.0)
    ij = np.eye(3)[np.stack([(k + 1) % 3, (k + 2) % 3], axis=1)]
    corners = np.concatenate([o[:, None], o[:, None] + ij, extra[:, None]], axis=1)
    tets = np.vstack([cube.tets, cube.n_nodes + np.arange(4 * len(extra)).reshape(-1, 4)])
    path = str(tmp_path_factory.mktemp("mesh") / "m.mesh")
    mesh = TetMesh(np.vstack([sign * scale * cube.nodes, corners.reshape(-1, 3)]), tets)
    write_mesh(path, mesh)
    back = load_mesh(path)
    assert np.array_equal(back.nodes.view(np.int64), mesh.nodes.view(np.int64))
    assert np.array_equal(back.tets, mesh.tets)


# lines the format ignores, and comments a data line may end with
_BLANK_LINES = ["", "   ", "\t", "#", "# note", "  # indented # twice", "#nodes 3"]
_LINE_TAILS = ["#", " # note", "\t#0 0 0", "   "]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(1e-6, 1e6),
    blanks=st.lists(st.tuples(st.integers(0, 2**16), st.sampled_from(_BLANK_LINES)), max_size=12),
    tails=st.lists(st.tuples(st.integers(0, 2**16), st.sampled_from(_LINE_TAILS)), max_size=12),
)
def test_load_mesh_reads_written_mesh_between_comments(
    tmp_path_factory, seed, scale, blanks, tails
):
    # comment and blank lines anywhere, and comments after any line, leave
    # the written mesh bit-exact; the block conversion reads it, and the
    # line walk it falls back to reads the same arrays
    cube = kuhn_cube(2)
    jitter = np.random.default_rng(seed).uniform(-0.01, 0.01, size=cube.nodes.shape)
    mesh = TetMesh(scale * (cube.nodes + jitter), cube.tets)
    path = tmp_path_factory.mktemp("mesh") / "m.mesh"
    write_mesh(path, mesh, comment="jittered cube")
    lines = path.read_text().splitlines()
    for where, tail in tails:
        lines[where % len(lines)] += tail
    for where, blank in blanks:
        lines.insert(where % (len(lines) + 1), blank)
    path.write_text("\n".join(lines) + "\n")
    with mock.patch.object(mesh_module, "_walk_blocks", side_effect=AssertionError("line walk")):
        back = load_mesh(path)
    assert np.array_equal(back.nodes.view(np.int64), mesh.nodes.view(np.int64))
    assert np.array_equal(back.tets, mesh.tets)
    with mock.patch.object(mesh_module, "_convert_blocks", return_value=None):
        walked = load_mesh(path)
    assert np.array_equal(walked.nodes.view(np.int64), mesh.nodes.view(np.int64))
    assert np.array_equal(walked.tets, mesh.tets)
