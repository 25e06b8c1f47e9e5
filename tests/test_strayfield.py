"""Hybrid FEM-BEM stray-field operators and their splitting variants."""

import dataclasses

import numpy as np
import pytest

from multimag import (
    NodalVectorField,
    StrayfieldContribution,
    StrayfieldWorkspace,
    assemble_bem,
    assemble_boundary_mass,
    assemble_mass,
    assemble_stiffness,
    fk_strayfield,
    gcr_strayfield,
    icosphere_volume,
    make_strayfield_workspace,
)
from multimag.fem import clement_matrix, l2_inner, l2_norm
from multimag.oracles import uniform_sphere_error

from conftest import random_unit_field


@pytest.fixture(scope="module")
def gcr_ws(sphere1):
    return make_strayfield_workspace(sphere1, "gcr")


def test_workspace_mesh_rejects_in_place_edits(sphere1):
    # the assembled operators would no longer describe an edited mesh
    ws = make_strayfield_workspace(sphere1, "fk")
    with pytest.raises(ValueError, match="read-only"):
        ws.mesh.nodes[0] += 0.25
    with pytest.raises(ValueError, match="read-only"):
        ws.mesh.tets[0, :2] = ws.mesh.tets[0, 1::-1]
    with pytest.raises(ValueError, match="read-only"):
        ws.surface.faces[0, :2] = ws.surface.faces[0, 1::-1]


@pytest.mark.parametrize("method", ["fk", "gcr"])
def test_workspace_takes_surface_and_stiffness_from_its_mesh(sphere_ws, gcr_ws, method):
    ws = sphere_ws if method == "fk" else gcr_ws
    assert ws.surface is ws.mesh.boundary()
    assert ws.stiffness is assemble_stiffness(ws.mesh)
    for name in ("surface", "stiffness"):
        with pytest.raises(TypeError, match=name):
            StrayfieldWorkspace(ws.mesh, method, **{name: getattr(ws, name)})


def test_rejects_unknown_method(sphere1):
    with pytest.raises(ValueError, match="method must be fk or gcr, got 'direct'"):
        make_strayfield_workspace(sphere1, "direct")


def test_workspace_holds_only_its_boundary_map():
    fields = {f.name for f in dataclasses.fields(StrayfieldWorkspace)}
    assert fields == {"mesh", "surface", "stiffness", "method", "boundary_map"}


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("method", ["fk", "gcr"])
def test_boundary_map_composes_the_bem_operators(method, level):
    # fk: C (K - 1/2 Mb), gcr: C V, bit for bit
    mesh = icosphere_volume(level, n_radial=2)
    surface = mesh.boundary()
    single_layer, double_layer = assemble_bem(surface, True, True)
    clement = clement_matrix(surface)
    if method == "fk":
        expected = clement @ double_layer
        expected -= 0.5 * (clement @ assemble_boundary_mass(surface)).toarray()
    else:
        expected = clement @ single_layer
    np.testing.assert_array_equal(make_strayfield_workspace(mesh, method).boundary_map, expected)


@pytest.mark.parametrize("method, layers", [("fk", (False, True)), ("gcr", (True, False))])
def test_workspace_assembles_only_its_methods_layer(sphere1, monkeypatch, method, layers):
    # fk applies K alone and gcr V alone; the other is never computed
    from multimag import strayfield

    requests = []

    def recording(surface, *asked):
        requests.append(asked)
        return assemble_bem(surface, *asked)

    monkeypatch.setattr(strayfield, "assemble_bem", recording)
    make_strayfield_workspace(sphere1, method)
    assert requests == [layers]


def test_method_change_builds_the_other_methods_map(sphere_ws, gcr_ws):
    # the workspace builds its map from its mesh and method, so a copy
    # under the other method's name carries that method's map, bit for bit
    for ws, other in ((sphere_ws, gcr_ws), (gcr_ws, sphere_ws)):
        copy = dataclasses.replace(ws, method=other.method)
        np.testing.assert_array_equal(copy.boundary_map, other.boundary_map)


def test_zero_magnetization_gives_zero_field(sphere_ws, gcr_ws):
    m = NodalVectorField(sphere_ws.mesh, np.zeros((sphere_ws.mesh.n_nodes, 3)))
    assert np.abs(fk_strayfield(sphere_ws, m).values).max() < 1e-12
    assert np.abs(gcr_strayfield(gcr_ws, m).values).max() < 1e-12


@pytest.mark.parametrize("method", ["fk", "gcr"])
def test_linearity(sphere_ws, gcr_ws, method):
    ws = sphere_ws if method == "fk" else gcr_ws
    op = fk_strayfield if method == "fk" else gcr_strayfield
    mesh = ws.mesh
    a = NodalVectorField(mesh, random_unit_field(mesh, 4))
    b = NodalVectorField(mesh, random_unit_field(mesh, 5))
    combo = NodalVectorField(mesh, 2.0 * a.values - 0.5 * b.values)
    lhs = op(ws, combo).values
    rhs = 2.0 * op(ws, a).values - 0.5 * op(ws, b).values
    assert np.abs(lhs - rhs).max() <= 1e-9 * max(np.abs(rhs).max(), 1.0)


@pytest.mark.parametrize("method", ["fk", "gcr"])
def test_approximate_self_adjointness(sphere_ws, gcr_ws, method):
    ws = sphere_ws if method == "fk" else gcr_ws
    op = fk_strayfield if method == "fk" else gcr_strayfield
    mesh = ws.mesh
    a = random_unit_field(mesh, 14)
    b = random_unit_field(mesh, 15)
    pa = op(ws, NodalVectorField(mesh, a)).values
    pb = op(ws, NodalVectorField(mesh, b)).values
    mass = assemble_mass(mesh)
    defect = abs(l2_inner(mass, pa, b) - l2_inner(mass, a, pb))
    defect /= l2_norm(mass, a) * l2_norm(mass, b)
    assert defect <= 0.02


def test_uniform_sphere_demag_factor(sphere_ws, gcr_ws):
    # exact operator has mean grad(u) = m/3 on the ball; the coarse 320-tet
    # mesh carries a large but bounded discretization error (the fine-mesh
    # accuracy gate lives in the acceptance suite)
    for ws, bound in ((sphere_ws, 0.30), (gcr_ws, 0.15)):
        err, field = uniform_sphere_error(ws)
        assert np.abs(field.integral_mean()[:2]).max() < 1e-9
        assert err <= bound


def test_splittings_agree_on_smooth_field(sphere_ws, gcr_ws):
    # a smooth tilted-vortex state; nodewise-random fields are dominated by
    # the highest-frequency modes where the discretizations differ most
    mesh = sphere_ws.mesh
    vals = np.column_stack(
        [mesh.nodes[:, 1], -mesh.nodes[:, 0], np.full(mesh.n_nodes, 2.0)]
    )
    vals /= np.linalg.norm(vals, axis=1, keepdims=True)
    m = NodalVectorField(mesh, vals)
    pf = fk_strayfield(sphere_ws, m).values
    pg = gcr_strayfield(gcr_ws, m).values
    mass = assemble_mass(mesh)
    rel = l2_norm(mass, pf - pg) / l2_norm(mass, pf)
    assert rel < 0.4


def test_contribution_wrapper(sphere_ws, gcr_ws):
    contrib = StrayfieldContribution(workspace=sphere_ws)
    assert contrib.name == "strayfield"
    assert contrib.linear_self_adjoint
    mesh = sphere_ws.mesh
    m = NodalVectorField(mesh, random_unit_field(mesh, 30))
    np.testing.assert_allclose(
        contrib.evaluate(m).values, fk_strayfield(sphere_ws, m).values, rtol=1e-12
    )
    gcr_contrib = StrayfieldContribution(workspace=gcr_ws)
    np.testing.assert_allclose(
        gcr_contrib.evaluate(m).values,
        gcr_strayfield(gcr_ws, m).values,
        rtol=1e-12,
    )


def test_boundedness_ratio_is_order_one(sphere_ws):
    mesh = sphere_ws.mesh
    contrib = StrayfieldContribution(workspace=sphere_ws)
    ratios = []
    for seed in range(3):
        m = NodalVectorField(mesh, random_unit_field(mesh, 40 + seed))
        out = contrib.evaluate(m)
        ratios.append(contrib.boundedness_ratio(m, out))
    assert max(ratios) < 5.0
