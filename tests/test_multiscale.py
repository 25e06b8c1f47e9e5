"""Material laws, the stabilized FEM-BEM coupling, and the two-domain pipeline."""

import ast
import logging
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multimag import (
    MultiscaleContribution,
    NodalVectorField,
    TetMesh,
    assemble_stiffness,
    icosphere_volume,
    make_multiscale_workspace,
    material_law,
)
from multimag import multiscale
from multimag.bem import assemble_bem, solid_angles
from multimag.fem import assemble_boundary_mass, divergence_load, solve_spd
from multimag.multiscale import (
    TOL_NL_FLOOR,
    CouplingData,
    CouplingWorkspace,
    MultiscaleWorkspace,
    _check_separated,
    _edge_contacts,
    _node_gap,
    conormal_flux,
    coupling_data,
    solve_coupling,
    transfer_u1_to_omega2,
)

from conftest import random_unit_field
from meshes import kuhn_cube


@pytest.fixture(scope="module")
def cube_cws():
    return CouplingWorkspace(kuhn_cube(2))


def test_law_zero():
    law = material_law("zero")
    assert law.gamma == law.lip == 1.0
    assert law.is_linear
    np.testing.assert_allclose(law.chi([0.0, 1.0, 5.0]), 0.0, atol=0)
    np.testing.assert_allclose(law.g([0.0, 2.0]), [0.0, 2.0], atol=0)
    with pytest.raises(ValueError, match=r"^law 'zero' takes 0 parameters, got 1$"):
        material_law("zero", 1.0)


def test_law_linear():
    law = material_law("linear", 2.0)
    assert law.gamma == law.lip == 3.0
    assert law.is_linear
    np.testing.assert_allclose(law.g(1.5), 4.5, rtol=1e-15)
    with pytest.raises(ValueError, match="nonnegative"):
        material_law("linear", -0.5)


def test_law_tanh():
    law = material_law("tanh", 1.0, 1.0)
    assert not law.is_linear
    assert law.gamma == 1.0 and law.lip == 2.0
    np.testing.assert_allclose(law.chi(0.0), 1.0, rtol=1e-12)  # c1 c2 limit
    np.testing.assert_allclose(law.g(2.0), 2.0 + np.tanh(2.0), rtol=1e-14)
    with pytest.raises(ValueError, match="positive"):
        material_law("tanh", -1.0, 1.0)


@pytest.mark.parametrize(
    "kind, params",
    [
        ("linear", (np.inf,)),
        ("tanh", (np.inf, 1.0)),
        ("tanh", (1.0, np.inf)),
        ("rational", (1.0, 0.0, np.inf, 1.0)),
    ],
)
def test_law_rejects_infinite_parameters(kind, params):
    # an infinite coefficient would make gamma or lip infinite
    with pytest.raises(ValueError, match=f"law '{kind}' parameters must be finite"):
        material_law(kind, *params)


def test_law_rational_bounds_contain_derivative():
    law = material_law("rational", 2.0, 0.0, 0.0, 1.0)
    ts = np.linspace(0.0, 20.0, 400)
    h = 1e-6
    dg = (law.g(ts + h) - law.g(ts)) / h
    assert (dg >= law.gamma - 1e-6).all()
    assert (dg <= law.lip + 1e-6).all()


def test_law_rational_rejects_nonmonotone():
    with pytest.raises(ValueError, match="not monotone"):
        material_law("rational", 12.0, 0.0, 0.0, 9.0)


def test_law_validation():
    for kind, params, message in (
        ("cubic", (1.0,), "unknown material law 'cubic'"),
        ("linear", (), "law 'linear' takes 1 parameters, got 0"),
        ("tanh", (1.0,), "law 'tanh' takes 2 parameters, got 1"),
        ("rational", (1.0, 2.0), "law 'rational' takes 4 parameters, got 2"),
        ("zero", (0.5,), "law 'zero' takes 0 parameters, got 1"),
        ("linear", (np.nan,), "linear susceptibility must be nonnegative"),
        ("tanh", (1.0, np.nan), "tanh law requires positive c1, c2"),
    ):
        with pytest.raises(ValueError) as err:
            material_law(kind, *params)
        assert str(err.value) == message


@pytest.mark.parametrize(
    "law",
    [
        material_law("zero"),
        material_law("linear", 2.0),
        material_law("tanh", 1.0, 1.0),
        material_law("rational", 2.0, 0.5, 1.0, 0.5),
    ],
    ids=["zero", "linear", "tanh", "rational"],
)
def test_law_monotonicity_bounds(law):
    rng = np.random.default_rng(17)
    t1 = rng.uniform(0.0, 10.0, size=200)
    t2 = rng.uniform(0.0, 10.0, size=200)
    keep = np.abs(t1 - t2) > 1e-9
    t1, t2 = t1[keep], t2[keep]
    incr = (law.g(t1) - law.g(t2)) * (t1 - t2)
    gap2 = (t1 - t2) ** 2
    assert (incr >= law.gamma * gap2 * (1.0 - 1e-9)).all()
    assert (incr <= law.lip * gap2 * (1.0 + 1e-9)).all()


def test_conormal_flux_weak_consistency_for_affine(cube_cws):
    # grad u . n = nu . a is piecewise constant for affine u, so the Galerkin
    # load is its moments Mb^T (nu . a) against the boundary hats
    a = np.array([1.0, -2.0, 0.5])
    load = conormal_flux(cube_cws, cube_cws.mesh.nodes @ a).values
    bnodes = cube_cws.surface.boundary_nodes
    mb = assemble_boundary_mass(cube_cws.surface)
    np.testing.assert_allclose(load[bnodes], mb.T @ (cube_cws.surface.normals @ a), atol=1e-12)
    interior = np.setdiff1d(np.arange(cube_cws.n_u), bnodes)
    assert interior.size and (load[interior] == 0.0).all()
    # total flux of an affine field through a closed surface vanishes
    assert abs(load.sum()) < 1e-12


def test_galerkin_load_matches_minimum_norm_flux():
    # the rhs from the load equals the one from the minimum-norm P0 density
    # lambda = D^-1 Mb (Mb^T D^-1 Mb)^-1 r, D the face areas, whose moments
    # Mb^T lambda are r, for a random discrete-harmonic u
    ws = CouplingWorkspace(icosphere_volume(1, n_radial=2))
    rng = np.random.default_rng(41)
    n2, bnodes, areas = ws.n_u, ws.surface.boundary_nodes, ws.surface.areas
    u = solve_spd(ws.stiffness, np.zeros(n2), constraint="dirichlet",
                  dirichlet_values=rng.normal(size=bnodes.size))
    mb = assemble_boundary_mass(ws.surface).toarray()
    r = (ws.stiffness.matrix @ u)[bnodes]
    lam = mb @ np.linalg.solve(mb.T @ (mb / areas[:, None]), r) / areas
    f, trace = rng.normal(size=(n2, 3)), rng.normal(size=bnodes.size)
    ref = np.zeros(n2 + ws.n_phi)
    ref[bnodes] = mb.T @ lam
    ref[:n2] -= divergence_load(ws.mesh, f)
    ref[n2:] = (0.5 * mb - assemble_bem(ws.surface, True, True)[1]) @ trace
    ref += ws.s_vec * ref[n2:].sum()
    got = ws.rhs(CouplingData(flux=conormal_flux(ws, u).values, f=f, gamma_trace=trace))
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize(
    "law", [material_law("linear", 2.0), material_law("tanh", 1.0, 1.0)], ids=["linear", "tanh"]
)
def test_full_boundary_omega2_solves(law):
    # every node of kuhn_cube(1) lies on its boundary: Mb (12 faces x 8 nodes)
    # lacks full column rank, which the Galerkin load does not need
    ws = CouplingWorkspace(kuhn_cube(1))
    u1 = np.random.default_rng(17).normal(size=ws.n_u)
    f = np.broadcast_to([0.0, 0.0, 1.0], (ws.n_u, 3))
    trace = (u1 + ws.uapp(f).values)[ws.surface.boundary_nodes]
    data = CouplingData(flux=conormal_flux(ws, u1).values, f=f, gamma_trace=trace)
    state = solve_coupling(ws, data, law, tol_nl=1e-8)
    assert state.residual <= 1e-8


def test_stabilization_vector_structure(cube_cws):
    ws = cube_cws
    n2 = ws.mesh.n_nodes
    ones = np.ones(ws.surface.n_faces)
    s_u = np.zeros(n2)
    s_u[ws.surface.boundary_nodes] = (
        0.5 * (assemble_boundary_mass(ws.surface).T @ ones)
        - assemble_bem(ws.surface, True, True)[1].T @ ones
    )
    np.testing.assert_allclose(ws.s_vec[:n2], s_u, atol=1e-14)
    np.testing.assert_allclose(ws.s_vec[n2:], ws.single_layer.T @ ones, atol=1e-14)
    interior = np.setdiff1d(np.arange(n2), ws.surface.boundary_nodes)
    np.testing.assert_allclose(ws.s_vec[interior], 0.0, atol=0)


def test_workspaces_take_surface_and_stiffness_from_their_meshes(pair_ws):
    cws = pair_ws.coupling
    assert cws.surface is cws.mesh.boundary()
    assert cws.stiffness is assemble_stiffness(cws.mesh)
    assert pair_ws.surface1 is pair_ws.mesh1.boundary()
    assert pair_ws.stiffness1 is assemble_stiffness(pair_ws.mesh1)
    for name in ("surface", "stiffness"):
        with pytest.raises(TypeError, match=name):
            CouplingWorkspace(cws.mesh, **{name: getattr(cws, name)})
    for name in ("surface", "stiffness", "surface1", "stiffness1"):
        with pytest.raises(TypeError, match=name):
            MultiscaleWorkspace(pair_ws.mesh1, cws, **{name: None})


def test_boundary_mass_transpose_is_kept_once(cube_cws):
    mbt = cube_cws.boundary_mass_t
    assert mbt.format == "csr"
    mb = assemble_boundary_mass(cube_cws.surface)
    assert (mbt != mb.T).nnz == 0
    phi = np.random.default_rng(5).normal(size=cube_cws.n_phi)
    np.testing.assert_array_equal(mbt @ phi, mb.T @ phi)


def dense_frozen_matrix(ws, law, x):
    """A_w as a dense matrix, the weights w = 1 + chi(|grad u|) frozen at x = (u, phi)."""
    from multimag.fem import assemble_weighted_stiffness

    n2, bnodes = ws.n_u, ws.surface.boundary_nodes
    weights = 1.0 + law.chi(np.linalg.norm(ws.mesh.element_gradient(x[:n2]), axis=1))
    a = np.zeros((x.size, x.size))
    a[:n2, :n2] = assemble_weighted_stiffness(ws.mesh, weights).matrix.toarray()
    mb = assemble_boundary_mass(ws.surface).toarray()
    a[bnodes, n2:] -= mb.T
    a[n2:, bnodes] += 0.5 * mb - assemble_bem(ws.surface, True, True)[1]
    a[n2:, n2:] += ws.single_layer
    return a + np.outer(ws.s_vec, ws.s_vec)


def count_weighted_assemblies(monkeypatch):
    """Record each call of the weighted-stiffness assembly the coupling module makes."""
    from multimag import multiscale

    calls = []
    assemble = multiscale.assemble_weighted_stiffness

    def counting(*args):
        calls.append(1)
        return assemble(*args)

    monkeypatch.setattr(multiscale, "assemble_weighted_stiffness", counting)
    return calls


def test_apply_matches_dense_matrix_for_linear_law(cube_cws):
    law = material_law("linear", 1.5)
    rng = np.random.default_rng(23)
    x = rng.normal(size=cube_cws.n_u + cube_cws.n_phi)
    dense = dense_frozen_matrix(cube_cws, law, x)
    np.testing.assert_allclose(cube_cws.apply(law, x), dense @ x, rtol=1e-10, atol=1e-12)


def test_constant_mode_is_detected_by_stabilization(cube_cws):
    # the BEM block alone annihilates (phi, u) = (0, 1); the rank-one term
    # s s^T is what keeps the stabilized operator invertible
    x = np.concatenate([np.ones(cube_cws.n_u), np.zeros(cube_cws.n_phi)])
    law = material_law("zero")
    out = cube_cws.apply(law, x)
    raw = out - cube_cws.s_vec * (cube_cws.s_vec @ x)
    # quadratic form of the unstabilized operator vanishes on the constant
    assert abs(x @ raw) < 1e-10
    assert np.linalg.norm(out) > 1e-3  # but the stabilized image does not


@pytest.mark.parametrize("kind,params", [("zero", ()), ("linear", (2.0,))])
def test_linear_laws_solve_in_one_step(pair_ws, kind, params):
    law = material_law(kind, *params)
    data = coupling_data(pair_ws, np.zeros((pair_ws.mesh1.n_nodes, 3)), [0.0, 0.0, 1.0])
    state = solve_coupling(pair_ws.coupling, data, law)
    assert state.iterations == 1
    assert state.residual <= 1e-8
    assert len(state.residual_history) == 1


def test_stabilized_solution_satisfies_unstabilized_system(pair_ws):
    cws = pair_ws.coupling
    law = material_law("linear", 2.0)
    data = coupling_data(pair_ws, np.zeros((pair_ws.mesh1.n_nodes, 3)), [0.0, 0.0, 1.0])
    x = solve_coupling(cws, data, law).x
    b = cws.rhs(data)
    raw_residual = (cws.apply(law, x) - cws.s_vec * (cws.s_vec @ x)) - (
        b - cws.s_vec * b[cws.n_u :].sum()
    )
    assert np.linalg.norm(raw_residual) <= 1e-8 * np.linalg.norm(b)


def test_refuses_insufficient_monotonicity(pair_ws):
    weak = material_law("rational", 6.0, 0.0, 0.0, 4.0)  # gamma ~ 0.24
    assert weak.gamma <= 0.25
    data = coupling_data(pair_ws, np.zeros((pair_ws.mesh1.n_nodes, 3)), [0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="must exceed 1/4"):
        solve_coupling(pair_ws.coupling, data, weak)


def test_unknown_scheme_rejected(pair_ws):
    data = coupling_data(pair_ws, np.zeros((pair_ws.mesh1.n_nodes, 3)), [0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="unknown nonlinear scheme 'newton'"):
        solve_coupling(pair_ws.coupling, data, material_law("zero"), scheme="newton")


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"scheme": "newton"}, "unknown nonlinear scheme 'newton'"),
        ({"tol_nl": 0.0}, "tol must be positive"),
        ({"max_iter": 0}, "max_iter must be at least 1"),
        ({"tol_nl": 1e-15}, "below the roundoff floor"),
    ],
)
def test_contribution_checks_solver_settings_on_construction(pair_ws, settings, message):
    # rejected before any evaluation, not at the first coupling solve
    with pytest.raises(ValueError, match=message):
        MultiscaleContribution(workspace=pair_ws, law=material_law("tanh", 1.0, 1.0), **settings)


def test_zarantonello_monotone_convergence(pair_ws):
    law = material_law("tanh", 1.0, 1.0)
    data = coupling_data(pair_ws, np.zeros((pair_ws.mesh1.n_nodes, 3)), [0.0, 0.0, 1.0])
    state = solve_coupling(pair_ws.coupling, data, law, scheme="zarantonello")
    hist = np.array(state.residual_history)
    assert state.residual <= 1e-8
    assert state.iterations <= 200
    assert (np.diff(hist) < 0).all()


def test_iteration_cap_reports_history(pair_ws):
    law = material_law("tanh", 1.0, 1.0)
    data = coupling_data(pair_ws, np.zeros((pair_ws.mesh1.n_nodes, 3)), [0.0, 0.0, 1.0])
    with pytest.raises(RuntimeError, match="did not reach") as err:
        solve_coupling(pair_ws.coupling, data, law, max_iter=3)
    assert "last residuals" in str(err.value)


def test_tol_below_roundoff_floor_is_rejected(pair_ws):
    data = coupling_data(pair_ws, np.zeros((pair_ws.mesh1.n_nodes, 3)), [0.0, 0.0, 1.0])
    tanh = material_law("tanh", 1.0, 1.0)
    for scheme in ("zarantonello", "kacanov"):
        with pytest.raises(ValueError, match="below the roundoff floor 1e-13"):
            solve_coupling(pair_ws.coupling, data, tanh, scheme=scheme, tol_nl=1e-15)
        state = solve_coupling(pair_ws.coupling, data, tanh, scheme=scheme, tol_nl=TOL_NL_FLOOR,
                               max_iter=500)
        assert state.residual <= TOL_NL_FLOOR
    # a linear law is one frozen solve, whose GMRES tolerance has a floor of its own
    linear = solve_coupling(pair_ws.coupling, data, material_law("linear", 2.0), tol_nl=1e-15)
    assert linear.iterations == 1


def test_solver_settings_reject_unusable_tol_and_max_iter(pair_ws):
    data = coupling_data(pair_ws, np.zeros((pair_ws.mesh1.n_nodes, 3)), [0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="max_iter must be at least 1, got 0"):
        solve_coupling(pair_ws.coupling, data, material_law("tanh", 1.0, 1.0), max_iter=0)
    for tol in (float("nan"), -1.0):
        with pytest.raises(ValueError, match=f"tol must be positive, got {tol}"):
            solve_coupling(pair_ws.coupling, data, material_law("linear", 2.0), tol_nl=tol)


def test_residual_increase_reports_plain_float_history(pair_ws, monkeypatch):
    # below the roundoff floor the residual stalls, which reads as an increase
    monkeypatch.setattr(multiscale, "TOL_NL_FLOOR", 0.0)
    data = coupling_data(pair_ws, random_unit_field(pair_ws.mesh1, 0), [0.0, 0.0, 0.5])
    with pytest.raises(RuntimeError, match="residual increased at iteration") as err:
        solve_coupling(pair_ws.coupling, data, material_law("tanh", 1.0, 1.0),
                       scheme="kacanov", tol_nl=1e-17)
    history = ast.literal_eval(str(err.value).split("history: ")[1])
    assert len(history) > 1 and all(type(h) is float for h in history)


def test_kacanov_converges_faster(pair_ws):
    law = material_law("tanh", 1.0, 1.0)
    data = coupling_data(pair_ws, np.zeros((pair_ws.mesh1.n_nodes, 3)), [0.0, 0.0, 1.0])
    zar = solve_coupling(pair_ws.coupling, data, law, scheme="zarantonello")
    kac = solve_coupling(pair_ws.coupling, data, law, scheme="kacanov")
    assert kac.residual <= 1e-8
    assert kac.iterations < zar.iterations


def test_kacanov_converges_where_zarantonello_step_is_too_short(pair_ws):
    # tanh 3 1: lip/gamma = 4, so Zarantonello's step gamma/lip^2 is 1/16
    law = material_law("tanh", 3.0, 1.0)
    data = coupling_data(pair_ws, np.zeros((pair_ws.mesh1.n_nodes, 3)), [0.0, 0.0, 1.0])
    with pytest.raises(RuntimeError, match="did not reach"):
        solve_coupling(pair_ws.coupling, data, law, scheme="zarantonello", max_iter=200)
    kac = solve_coupling(pair_ws.coupling, data, law, scheme="kacanov", max_iter=200)
    assert kac.residual <= 1e-8


def test_transfer_of_constant_potential_vanishes(pair_ws):
    # the double layer of a constant trace is zero outside Omega_1
    u1 = transfer_u1_to_omega2(pair_ws, np.full(pair_ws.mesh1.n_nodes, 3.0))
    assert np.abs(u1.values).max() < 1e-10


def test_null_test_zero_law(pair_ws, sphere1):
    rng = np.random.default_rng(8)
    m_values = rng.normal(size=(sphere1.n_nodes, 3))
    m_values /= np.linalg.norm(m_values, axis=1, keepdims=True)
    f = np.array([0.3, -0.2, 0.9])
    m = NodalVectorField(sphere1, m_values)
    pi = MultiscaleContribution(workspace=pair_ws, law=material_law("zero")).evaluate(m, zeta=f)
    scale = np.linalg.norm(f) + 1.0
    assert np.abs(pi.values).max() <= 1e-6 * scale


def test_overlapping_domains_rejected(sphere1):
    near = icosphere_volume(1, n_radial=2, center=(1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="overlap"):
        make_multiscale_workspace(sphere1, near)


def test_touching_domains_rejected():
    # the cubes share the face x = 1: no node lies inside the other body,
    # but the nodes on x = 1 lie on the other's face
    with pytest.raises(ValueError, match="touch"):
        _check_separated(kuhn_cube(1).boundary(), kuhn_cube(2, origin=(1.0, 0.0, 0.0)).boundary())


def scaled_cube(scale, shift=(0.0, 0.0, 0.0)):
    """Boundary of kuhn_cube(1) centred at the origin, scaled per axis and shifted."""
    cube = kuhn_cube(1)
    return TetMesh((cube.nodes - 0.5) * np.asarray(scale) + shift, cube.tets).boundary()


def test_crossing_bars_overlap():
    # each bar's ends lie outside the other bar and no node of either lies
    # inside or on the other: only their edges crossing the faces show it
    bar1, bar2 = scaled_cube((4.0, 0.2, 0.2)), scaled_cube((0.2, 4.0, 1.0))
    angles = np.concatenate([solid_angles(bar1, boundary_points(bar2)),
                             solid_angles(bar2, boundary_points(bar1))])
    assert np.abs(angles).max() < multiscale.CONTACT_ANGLE
    for s1, s2 in [(bar1, bar2), (bar2, bar1)]:
        with pytest.raises(ValueError, match="edge of one body crosses the other's surface"):
            _check_separated(s1, s2)


@pytest.mark.parametrize("pairs", [multiscale.GAP_PAIRS, 5])
def test_needle_through_box_overlaps_in_either_order(pairs, monkeypatch):
    # the needle's edges cross the box's top and bottom faces; no edge of the
    # box crosses the needle, so the check must test both directions
    monkeypatch.setattr(multiscale, "GAP_PAIRS", pairs)
    box, needle = scaled_cube((2.0, 2.0, 2.0)), scaled_cube((0.1, 0.1, 4.0), (0.5, 0.2, 0.0))
    assert _edge_contacts(needle, box)[0] and not _edge_contacts(box, needle)[0]
    for s1, s2 in [(box, needle), (needle, box)]:
        with pytest.raises(ValueError, match="an edge of one body crosses"):
            _check_separated(s1, s2)


@pytest.mark.parametrize(
    "origin", [(1.0, 0.2, 0.3), (1.0, 1.0, 0.3)], ids=["face", "edge"]
)
def test_contact_without_shared_nodes_rejected(origin):
    # the copy touches the cube at part of a face or along an edge, and no
    # two boundary nodes coincide: the node gap is positive, but nodes of
    # each body see the other's surface under -2 pi or -pi
    other = kuhn_cube(2, origin=origin)
    assert _node_gap(boundary_points(kuhn_cube(2).boundary()),
                     boundary_points(other.boundary())) > 0.0
    with pytest.raises(ValueError, match="touch"):
        make_multiscale_workspace(kuhn_cube(2), other)


@pytest.mark.parametrize(
    "origin", [(1.001, 0.2, 0.3), (2.0, 0.0, 0.0)], ids=["gap 1e-3", "coplanar faces"]
)
def test_near_but_separated_domains_accepted(origin):
    # the solid angles at the nodes are 0 up to rounding, far below the
    # contact threshold, also where faces of the two cubes share a plane
    s1, s2 = kuhn_cube(2).boundary(), kuhn_cube(2, origin=origin).boundary()
    angles = np.concatenate([solid_angles(s1, boundary_points(s2)),
                             solid_angles(s2, boundary_points(s1))])
    assert np.abs(angles).max() <= 1e-15 * np.pi < multiscale.CONTACT_ANGLE
    _check_separated(s1, s2)


def boundary_points(surface):
    return surface.nodes[surface.boundary_nodes]


def prism(start, edge, side1, side2):
    """Boundary of kuhn_cube(1) mapped onto start + x edge + u side1 + v side2."""
    cube = kuhn_cube(1)
    return TetMesh(np.add(start, cube.nodes @ np.array([edge, side1, side2])), cube.tets).boundary()


@pytest.mark.parametrize(
    "start, edge, side1, side2, touches",
    [
        ((-0.5, 0.5, 1.0), (2.0, 0.0, 0.0), (0.0, 0.5, 0.5), (0.0, -0.5, 0.5), True),
        ((-0.5, 0.5, 1.001), (2.0, 0.0, 0.0), (0.0, 0.5, 0.5), (0.0, -0.5, 0.5), False),
        ((1.4, 0.7, 1.0), (-0.7, 0.7, 0.0), (0.25, 0.25, 0.5), (0.5, 0.5, 0.25), False),
    ],
    ids=["edge across the top face", "raised 1e-3", "edge in the plane beside the corner"],
)
def test_edge_resting_on_a_face(start, edge, side1, side2, touches):
    # a bar whose lowest edge lies at or above the unit cube's top face
    # z = 1, with its ends outside the cube: no node of either body lies on
    # the other and no edge crosses a face, so only an edge meeting a closed
    # face shows the contact; in the plane but beside the face is apart
    cube, bar = kuhn_cube(1).boundary(), prism(start, edge, side1, side2)
    angles = np.concatenate([solid_angles(cube, boundary_points(bar)),
                             solid_angles(bar, boundary_points(cube))])
    assert np.abs(angles).max() < multiscale.CONTACT_ANGLE
    assert _node_gap(boundary_points(cube), boundary_points(bar)) > 0.0
    assert not _edge_contacts(cube, bar)[0] and not _edge_contacts(bar, cube)[0]
    for s1, s2 in [(cube, bar), (bar, cube)]:
        if touches:
            with pytest.raises(ValueError, match="domains touch: an edge of one body meets"):
                _check_separated(s1, s2)
        else:
            _check_separated(s1, s2)


@settings(max_examples=40, deadline=None)
@given(
    direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1),
    distance=st.floats(2.5, 6.0),
)
def test_node_gap_matches_brute_force(direction, distance):
    # separated unit balls: the blocked gap, with one block and with row
    # blocks of two nodes, is the brute-force minimum over all node pairs
    center = distance * np.asarray(direction) / np.linalg.norm(direction)
    s1 = icosphere_volume(1, n_radial=2).boundary()
    s2 = icosphere_volume(1, n_radial=2, center=center).boundary()
    d1, d2 = boundary_points(s1), boundary_points(s2)
    brute = np.linalg.norm(d1[:, None] - d2[None], axis=2).min()
    for pairs in (multiscale.GAP_PAIRS, 2 * len(d2)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(multiscale, "GAP_PAIRS", pairs)
            assert abs(_node_gap(d1, d2) - brute) <= 1e-15 * brute
    _check_separated(s1, s2)


@settings(max_examples=20, deadline=None)
@given(node=st.integers(0, 41))
def test_coinciding_nodes_touch(node):
    # the icosphere's nodes come in exact antipodal pairs, so the copy
    # centred at 2p puts its node -p + 2p on the node p of the first ball
    s1 = icosphere_volume(1, n_radial=2).boundary()
    p = boundary_points(s1)[node]
    s2 = icosphere_volume(1, n_radial=2, center=2.0 * p).boundary()
    assert (boundary_points(s2) == p).all(axis=1).sum() == 1
    with pytest.raises(ValueError, match="touch"):
        _check_separated(s1, s2)


def test_multiscale_setup_does_not_import_scipy_spatial():
    import multimag

    code = (
        "import sys, multimag\n"
        "near = multimag.icosphere_volume(1, n_radial=2)\n"
        "far = multimag.icosphere_volume(1, n_radial=2, center=(3.0, 0.0, 0.0))\n"
        "multimag.make_multiscale_workspace(near, far)\n"
        "assert 'scipy.spatial' not in sys.modules\n"
    )
    package_root = os.path.dirname(os.path.dirname(multimag.__file__))
    env = {**os.environ, "PYTHONPATH": package_root}
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env=env)


def test_contribution_requires_zeta(pair_ws, sphere1):
    contrib = MultiscaleContribution(workspace=pair_ws, law=material_law("linear", 2.0))
    m = NodalVectorField(sphere1, np.tile([0.0, 0.0, 1.0], (sphere1.n_nodes, 1)))
    with pytest.raises(ValueError, match="needs the applied field"):
        contrib.evaluate(m)


@pytest.fixture(scope="module")
def unequal_pair(sphere1):
    """Omega_1 with 85 nodes, Omega_2 with 325: node arrays that do not broadcast."""
    far = icosphere_volume(2, n_radial=2, center=(3.0, 0.0, 0.0))
    return make_multiscale_workspace(sphere1, far)


def test_uniform_applied_field_on_bodies_of_different_size(unequal_pair, sphere1):
    assert (unequal_pair.mesh1.n_nodes, unequal_pair.coupling.mesh.n_nodes) == (85, 325)
    law = material_law("linear", 2.0)
    m = NodalVectorField(sphere1, random_unit_field(sphere1, 9))
    f = np.array([0.1, -0.2, 1.0])
    out = MultiscaleContribution(workspace=unequal_pair, law=law).evaluate(m, zeta=f)
    assert out.values.shape == (85, 3) and np.isfinite(out.values).all()


def test_pipeline_stage_error_is_labeled(pair_ws, sphere1):
    m = NodalVectorField(sphere1, np.tile([0.0, 0.0, 1.0], (sphere1.n_nodes, 1)))
    contrib = MultiscaleContribution(
        workspace=pair_ws, law=material_law("tanh", 1.0, 1.0), max_iter=2
    )
    with pytest.raises(RuntimeError, match="^multiscale pipeline failed at stage: coupling solve$"):
        contrib.evaluate(m, zeta=np.array([0.0, 0.0, 1.0]))
    assert contrib.last_state is None  # set only by an evaluation that succeeds
    with pytest.raises(
        RuntimeError, match="^multiscale pipeline failed at stage: interior potential u11 on Omega_1$"
    ):
        coupling_data(pair_ws, np.zeros((3, 3)), [0.0, 0.0, 1.0])


def test_transfer_matrices_match_pointwise_evaluation(pair_ws):
    from multimag.bem import panel_geometry, panel_integrals
    from multimag.fem import clement_matrix, face_quadrature

    s1, s2 = pair_ws.surface1, pair_ws.coupling.surface

    def pointwise(layer, source, density, target):
        # the potential straight from the panel closed forms, the double
        # layer's hat rows gathered onto their nodes one by one
        points, weights = face_quadrature(target)
        single, _, double_p1 = panel_integrals(
            panel_geometry(source), points.reshape(-1, 3), True, True
        )
        if layer == "single":
            operator = single
        else:
            operator = np.zeros((len(single), source.boundary_nodes.size))
            np.add.at(operator, (slice(None), source.local_face_indices), double_p1)
        vals = (operator @ density / (4.0 * np.pi)).reshape(weights.shape)
        return clement_matrix(target) @ (weights * vals).sum(axis=1)

    rng = np.random.default_rng(21)
    t12 = pair_ws.transfer_12
    single_21, double_21 = pair_ws.transfer_21
    assert t12.shape == (s2.boundary_nodes.size, s1.boundary_nodes.size)
    assert single_21.shape == (s1.boundary_nodes.size, s2.n_faces)
    assert double_21.shape == (s1.boundary_nodes.size, s2.boundary_nodes.size)
    for _ in range(3):
        trace1 = rng.normal(size=s1.boundary_nodes.size)
        phi = rng.normal(size=s2.n_faces)
        trace2 = rng.normal(size=s2.boundary_nodes.size)
        for matrix, expect in (
            (t12 @ trace1, pointwise("double", s1, trace1, s2)),
            (single_21 @ phi, pointwise("single", s2, phi, s1)),
            (double_21 @ trace2, pointwise("double", s2, trace2, s1)),
        ):
            assert np.linalg.norm(matrix - expect) <= 1e-12 * np.linalg.norm(expect)


def test_transfers_match_the_separate_layer_transfers(pair_ws):
    # each map as built from its own layer's point operator at the target
    # quadrature points, integrated per face afterwards: the shared sweep
    # sums over the points first, which moves the maps by rounding only
    from multimag.bem import eval_double_layer, eval_single_layer
    from multimag.fem import clement_matrix, face_quadrature

    def separate(potential, source, target):
        points, weights = face_quadrature(target)
        vals = potential(source, points.reshape(-1, 3))
        face_integrals = np.einsum("fq,fqk->fk", weights, vals.reshape(weights.shape + (-1,)))
        return clement_matrix(target) @ face_integrals

    s1, s2 = pair_ws.surface1, pair_ws.coupling.surface
    fresh = MultiscaleWorkspace(pair_ws.mesh1, pair_ws.coupling)
    single_21, double_21 = fresh.transfer_21
    for matrix, expect in (
        (fresh.transfer_12, separate(eval_double_layer, s1, s2)),
        (single_21, separate(eval_single_layer, s2, s1)),
        (double_21, separate(eval_double_layer, s2, s1)),
    ):
        assert np.abs(matrix - expect).max() <= 1e-15 * np.abs(expect).max()


def transfers(pair_ws):
    fresh = MultiscaleWorkspace(pair_ws.mesh1, pair_ws.coupling)
    return [fresh.transfer_12, *fresh.transfer_21]


def test_transfers_independent_of_workers_and_batch_size(pair_ws, monkeypatch):
    from multimag import bem

    # the default takes each direction in one batch on one worker; 16 F
    # pairs per batch take it in 40 batches of 2 target faces on 3
    monkeypatch.setattr(bem, "_usable_cpus", lambda: 1)
    reference = transfers(pair_ws)
    monkeypatch.setattr(bem, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(bem, "BATCH_PAIRS", 16 * pair_ws.surface1.n_faces)
    for swept, serial in zip(transfers(pair_ws), reference, strict=True):
        np.testing.assert_array_equal(swept, serial)


def test_transfers_take_one_sweep_per_direction(pair_ws, monkeypatch):
    # Gamma_1's panels at Gamma_2's 7 F2 quadrature points, and Gamma_2's
    # at Gamma_1's 7 F1 for both step-5 layers together: a second sweep
    # for either layer would add 7 F1 F2 pairs
    from multimag import bem

    f1, f2 = pair_ws.surface1.n_faces, pair_ws.coupling.surface.n_faces
    fresh = MultiscaleWorkspace(pair_ws.mesh1, pair_ws.coupling)
    pairs = []
    panel_integrals = bem.panel_integrals

    def counting(geo, points, *layers):
        pairs.append(len(points) * len(geo.vertices))
        return panel_integrals(geo, points, *layers)

    monkeypatch.setattr(bem, "panel_integrals", counting)
    fresh.transfer_12, fresh.transfer_21
    assert sum(pairs) == 7 * f2 * f1 + 7 * f1 * f2


def test_transfers_are_built_once(pair_ws, sphere1, monkeypatch):
    from multimag import bem

    m = NodalVectorField(sphere1, np.tile([0.0, 0.0, 1.0], (sphere1.n_nodes, 1)))
    contrib = MultiscaleContribution(workspace=pair_ws, law=material_law("tanh", 1.0, 1.0))
    zeta = np.array([0.0, 0.0, 1.0])
    first = contrib.evaluate(m, zeta=zeta)
    calls = []
    panel_integrals = bem.panel_integrals

    def counting(*args):
        calls.append(1)
        return panel_integrals(*args)

    monkeypatch.setattr(bem, "panel_integrals", counting)
    second = contrib.evaluate(m, zeta=zeta)
    assert calls == []
    np.testing.assert_array_equal(second.values, first.values)


def test_warm_start_from_converged_state_returns_at_once(pair_ws, sphere1):
    law = material_law("tanh", 1.0, 1.0)
    data = coupling_data(pair_ws, random_unit_field(sphere1, 3), [0.0, 0.0, 1.0])
    cold = solve_coupling(pair_ws.coupling, data, law)
    again = solve_coupling(pair_ws.coupling, data, law, x0=cold.x)
    assert again.iterations == 1
    assert again.residual == cold.residual
    np.testing.assert_array_equal(again.x, cold.x)


@pytest.mark.parametrize("scheme", ["zarantonello", "kacanov"])
def test_warm_start_from_previous_state_takes_fewer_iterations(pair_ws, sphere1, scheme):
    # two nearby magnetizations, as in consecutive time steps
    law = material_law("tanh", 1.0, 1.0)
    m_prev = random_unit_field(sphere1, 4)
    m_next = m_prev + 0.05 * random_unit_field(sphere1, 5)
    m_next /= np.linalg.norm(m_next, axis=1, keepdims=True)
    f = [0.0, 0.0, 1.0]
    cws = pair_ws.coupling
    prev = solve_coupling(cws, coupling_data(pair_ws, m_prev, f), law, scheme=scheme)
    data = coupling_data(pair_ws, m_next, f)
    cold = solve_coupling(cws, data, law, scheme=scheme)
    warm = solve_coupling(cws, data, law, scheme=scheme, x0=prev.x)
    assert warm.iterations < cold.iterations
    assert warm.residual <= 1e-8
    assert (np.diff(warm.residual_history) < 0.0).all()
    x_cold = cold.x
    assert np.linalg.norm(warm.x - x_cold) <= 1e-6 * np.linalg.norm(x_cold)


def test_warm_start_rejects_wrong_shape(pair_ws):
    data = coupling_data(pair_ws, np.zeros((pair_ws.mesh1.n_nodes, 3)), [0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="start vector"):
        solve_coupling(pair_ws.coupling, data, material_law("tanh", 1.0, 1.0), x0=np.zeros(3))


def test_coupling_solve_logs_scheme_start_and_iterations(pair_ws, sphere1, caplog):
    law = material_law("tanh", 1.0, 1.0)
    data = coupling_data(pair_ws, random_unit_field(sphere1, 6), [0.0, 0.0, 1.0])
    with caplog.at_level(logging.DEBUG, logger="multimag"):
        cold = solve_coupling(pair_ws.coupling, data, law)
        solve_coupling(pair_ws.coupling, data, law, x0=cold.x)
        solve_coupling(pair_ws.coupling, data, material_law("linear", 2.0))
    messages = [r.getMessage() for r in caplog.records if "coupling solve" in r.getMessage()]
    assert messages == [
        f"coupling solve (zarantonello, cold start): {cold.iterations} iterations, "
        f"relative residual {cold.residual:.3e}",
        f"coupling solve (zarantonello, warm start): 1 iterations, "
        f"relative residual {cold.residual:.3e}",
        messages[2],
    ]
    assert messages[2].startswith("coupling solve (linear, cold start): 1 iterations")


def test_linear_law_solutions_match_dense_solve(pair_ws, monkeypatch):
    cws = pair_ws.coupling
    data = coupling_data(pair_ws, np.zeros((pair_ws.mesh1.n_nodes, 3)), [0.0, 0.0, 1.0])
    b = cws.rhs(data)
    laws = [material_law("zero"), material_law("linear", 0.0), material_law("linear", 3.5)]
    zero = np.zeros(cws.n_u + cws.n_phi)
    expected = [np.linalg.solve(dense_frozen_matrix(cws, law, zero), b) for law in laws]
    calls = count_weighted_assemblies(monkeypatch)
    for law, expect in zip(laws, expected):
        # a tol_nl far below roundoff still solves: GMRES's target has a floor
        for tol_nl in (1e-8, 1e-16):
            state = solve_coupling(cws, data, law, tol_nl=tol_nl)
            assert np.linalg.norm(state.x - expect) <= 1e-10 * np.linalg.norm(expect)
    # every solve runs on P's one LU and the matrix-free operator
    assert calls == []


@pytest.mark.parametrize(
    "params, scheme",
    [((1.0, 1.0), "zarantonello"), ((1.0, 1.0), "kacanov"), ((3.0, 1.0), "kacanov")],
)
def test_nonlinear_solutions_match_dense_solve(pair_ws, sphere1, monkeypatch, params, scheme):
    law = material_law("tanh", *params)
    cws = pair_ws.coupling
    data = coupling_data(pair_ws, random_unit_field(sphere1, 11), [0.0, 0.0, 1.0])
    # the discrete solution: Kacanov's iteration with dense solves, run
    # far past its convergence
    expect = np.zeros(cws.n_u + cws.n_phi)
    for _ in range(30):
        expect = np.linalg.solve(dense_frozen_matrix(cws, law, expect), cws.rhs(data))
    calls = count_weighted_assemblies(monkeypatch)
    state = solve_coupling(cws, data, law, scheme=scheme, tol_nl=1e-11, max_iter=200)
    assert np.linalg.norm(state.x - expect) <= 1e-10 * np.linalg.norm(expect)
    assert (np.diff(state.residual_history) < 0.0).all()
    assert calls == []


def test_frozen_coefficient_solve_that_stops_short_raises(pair_ws, sphere1, monkeypatch):
    from multimag import multiscale

    def stopped_short(a, b, x0=None, **kwargs):
        return x0, 5

    monkeypatch.setattr(multiscale.spla, "gmres", stopped_short)
    data = coupling_data(pair_ws, np.zeros((pair_ws.mesh1.n_nodes, 3)), [0.0, 0.0, 1.0])
    for law, scheme in [(material_law("linear", 2.0), "zarantonello"),
                        (material_law("tanh", 1.0, 1.0), "kacanov")]:
        with pytest.raises(RuntimeError, match="frozen-coefficient solve did not converge"):
            solve_coupling(pair_ws.coupling, data, law, scheme=scheme)
    contrib = MultiscaleContribution(workspace=pair_ws, law=material_law("linear", 2.0))
    m = NodalVectorField(sphere1, random_unit_field(sphere1, 12))
    with pytest.raises(RuntimeError, match="failed at stage: coupling solve") as err:
        contrib.evaluate(m, zeta=np.array([0.0, 0.0, 1.0]))
    assert "frozen-coefficient solve" in str(err.value.__cause__)


def assembled_apply(ws, law, x):
    """A(x) with the weighted stiffness assembled as a matrix."""
    from multimag.fem import assemble_weighted_stiffness

    u, phi = x[: ws.n_u], x[ws.n_u :]
    weights = 1.0 + law.chi(np.linalg.norm(ws.mesh.element_gradient(u), axis=1))
    bnodes = ws.surface.boundary_nodes
    out = np.empty_like(x)
    out[: ws.n_u] = assemble_weighted_stiffness(ws.mesh, weights).matrix @ u
    mb = assemble_boundary_mass(ws.surface)
    out[: ws.n_u][bnodes] -= mb.T @ phi
    out[ws.n_u :] = ws.single_layer @ phi + (
        0.5 * (mb @ u[bnodes]) - assemble_bem(ws.surface, True, True)[1] @ u[bnodes]
    )
    return out + ws.s_vec * (ws.s_vec @ x)


@pytest.mark.parametrize(
    "law",
    [material_law("tanh", 1.0, 1.0), material_law("rational", 2.0, 0.5, 1.0, 0.5)],
    ids=["tanh", "rational"],
)
def test_gradient_form_apply_matches_assembled_form(cube_cws, law):
    rng = np.random.default_rng(29)
    for scale in (0.1, 1.0, 10.0):  # |grad u| across the range where chi bends
        x = scale * rng.normal(size=cube_cws.n_u + cube_cws.n_phi)
        ref = assembled_apply(cube_cws, law, x)
        got = cube_cws.apply(law, x)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def multiscale_run_setup(pair_ws, sphere1, f):
    from multimag import NondimConstants, RunSetup

    contrib = MultiscaleContribution(workspace=pair_ws, law=material_law("tanh", 1.0, 1.0))
    return RunSetup(
        mesh=sphere1,
        m0=random_unit_field(sphere1, 7),
        constants=NondimConstants(c_exch=1.0, c_ani=1.0, alpha=1.0, t_final=1.0),
        contributions=[contrib],
        applied_field=lambda t: np.asarray(f),
        k=1e-3,
        n_steps=3,
    )


def test_reruns_start_cold_and_repeat_exactly(pair_ws, sphere1, monkeypatch):
    from multimag import multiscale, run

    starts = []
    solve = multiscale.solve_coupling

    def recording(*args, x0=None, **kwargs):
        starts.append("cold" if x0 is None else "warm")
        return solve(*args, x0=x0, **kwargs)

    monkeypatch.setattr(multiscale, "solve_coupling", recording)
    setup = multiscale_run_setup(pair_ws, sphere1, [0.2, -0.1, 0.8])
    first = run(setup)
    second = run(setup)
    # each run starts from x = 0 at time index 0, then from the last state
    assert starts == ["cold", "warm", "warm", "warm"] * 2
    assert [repr(r) for r in second.records] == [repr(r) for r in first.records]
    for a, b in zip(first.states, second.states):
        assert a.m.values.tobytes() == b.m.values.tobytes()


def test_each_run_logs_the_energy_exclusion_once(pair_ws, sphere1, caplog):
    from dataclasses import replace

    from multimag import run

    setup = replace(multiscale_run_setup(pair_ws, sphere1, [0.0, 0.0, 1.0]), n_steps=1)
    with caplog.at_level(logging.INFO, logger="multimag"):
        run(setup)
        run(setup)
    mentions = [r for r in caplog.records if "excluded from E_int" in r.getMessage()]
    assert len(mentions) == 2
    assert all("'multiscale'" in r.getMessage() for r in mentions)


def test_uapp_is_solved_once_per_applied_field(pair_ws, sphere1, monkeypatch):
    from multimag import multiscale, run

    calls = []
    solve = multiscale.solve_uapp

    def counting(ws, f_values):
        calls.append(np.array(f_values))
        return solve(ws, f_values)

    monkeypatch.setattr(multiscale, "solve_uapp", counting)
    monkeypatch.setattr(pair_ws.coupling, "_uapp", None)
    f = [0.1, 0.3, 0.6]
    setup = multiscale_run_setup(pair_ws, sphere1, f)
    run(setup)
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], np.broadcast_to(f, calls[0].shape))
    (contrib,) = setup.contributions
    m = NodalVectorField(sphere1, random_unit_field(sphere1, 8))
    contrib.evaluate(m, zeta=np.array(f), time_index=4)
    assert len(calls) == 1
    contrib.evaluate(m, zeta=np.array([0.1, 0.3, 0.6 + 1e-12]), time_index=5)
    assert len(calls) == 2
