"""Material laws, the stabilized FEM-BEM coupling, and the two-domain pipeline."""

import numpy as np
import pytest

from multimag import (
    MultiscaleContribution,
    NodalVectorField,
    icosphere_volume,
    kuhn_cube,
    make_coupling_workspace,
    make_multiscale_workspace,
    material_g,
    material_law,
    multiscale_field,
)
from multimag.fem import divergence_load, solve_spd
from multimag.multiscale import (
    CouplingData,
    conormal_flux,
    solve_coupling,
    solve_uapp,
    transfer_u1_to_omega2,
)


@pytest.fixture(scope="module")
def cube_cws():
    return make_coupling_workspace(kuhn_cube(2))


def coupling_data_for(pair_ws, m_values, f):
    """Stage the pipeline inputs exactly as multiscale_field does."""
    cws = pair_ws.coupling
    f_b = np.broadcast_to(np.asarray(f, dtype=np.float64), (cws.mesh.n_nodes, 3))
    u11 = solve_spd(
        pair_ws.stiffness1, divergence_load(pair_ws.mesh1, m_values), constraint="zero-mean"
    )
    u1 = transfer_u1_to_omega2(pair_ws, u11)
    uapp = solve_uapp(cws, f_b)
    lam = conormal_flux(cws, u1.values)
    trace = (u1.values + uapp.values)[cws.surface.boundary_nodes]
    return CouplingData(flux=lam.values, f=f_b, gamma_trace=trace)


def test_law_zero():
    law = material_law("zero")
    assert law.gamma == law.lip == 1.0
    assert law.is_linear
    np.testing.assert_allclose(law.chi([0.0, 1.0, 5.0]), 0.0, atol=0)
    np.testing.assert_allclose(law.g([0.0, 2.0]), [0.0, 2.0], atol=0)
    with pytest.raises(ValueError, match="no parameters"):
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
    with pytest.raises(ValueError, match="unknown material law"):
        material_law("cubic", 1.0)
    with pytest.raises(ValueError):
        material_law("tanh", 1.0)  # wrong arity
    with pytest.raises(ValueError):
        material_law("rational", 1.0, 2.0)


def test_material_g():
    law = material_law("tanh", 1.0, 2.0)
    np.testing.assert_allclose(material_g(law, 3.0), 3.0 + np.tanh(6.0), rtol=1e-14)
    assert material_g(law, 0.0) == 0.0
    with pytest.raises(ValueError, match="nonnegative"):
        material_g(law, -1.0)


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
    # grad u . n is piecewise constant for affine u, so the consistent flux
    # carries the same moments against every boundary hat (pointwise values
    # differ: faces outnumber boundary nodes, and the minimum-norm solution
    # lives in the range of the adjoint)
    a = np.array([1.0, -2.0, 0.5])
    lam = conormal_flux(cube_cws, cube_cws.mesh.nodes @ a)
    mb = cube_cws.bem.boundary_mass
    np.testing.assert_allclose(
        mb.T @ lam.values, mb.T @ (cube_cws.surface.normals @ a), atol=1e-9
    )
    # total flux of an affine field through a closed surface vanishes
    assert abs(lam.values @ cube_cws.surface.areas) < 1e-9


def test_stabilization_vector_structure(cube_cws):
    ws = cube_cws
    n2 = ws.mesh.n_nodes
    ones = np.ones(ws.surface.n_faces)
    s_u = np.zeros(n2)
    s_u[ws.surface.boundary_nodes] = (
        0.5 * (ws.bem.boundary_mass.T @ ones) - ws.bem.double_layer.T @ ones
    )
    np.testing.assert_allclose(ws.s_vec[:n2], s_u, atol=1e-14)
    np.testing.assert_allclose(ws.s_vec[n2:], ws.bem.single_layer.T @ ones, atol=1e-14)
    interior = np.setdiff1d(np.arange(n2), ws.surface.boundary_nodes)
    np.testing.assert_allclose(ws.s_vec[interior], 0.0, atol=0)


def test_apply_matches_dense_matrix_for_linear_law(cube_cws):
    law = material_law("linear", 1.5)
    rng = np.random.default_rng(23)
    x = rng.normal(size=cube_cws.n_u + cube_cws.n_phi)
    dense = cube_cws._dense_matrix(np.full(cube_cws.mesh.n_tets, 2.5))
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
    data = coupling_data_for(pair_ws, np.zeros((pair_ws.mesh1.n_nodes, 3)), [0.0, 0.0, 1.0])
    state = solve_coupling(pair_ws.coupling, data, law)
    assert state.iterations == 1
    assert state.residual <= 1e-8
    assert len(state.residual_history) == 1


def test_stabilized_solution_satisfies_unstabilized_system(pair_ws):
    cws = pair_ws.coupling
    law = material_law("linear", 2.0)
    data = coupling_data_for(pair_ws, np.zeros((pair_ws.mesh1.n_nodes, 3)), [0.0, 0.0, 1.0])
    x = np.concatenate([solve_coupling(cws, data, law).u.values,
                        solve_coupling(cws, data, law).phi.values])
    b = cws.rhs(data)
    raw_residual = (cws.apply(law, x) - cws.s_vec * (cws.s_vec @ x)) - (
        b - cws.s_vec * b[cws.n_u :].sum()
    )
    assert np.linalg.norm(raw_residual) <= 1e-8 * np.linalg.norm(b)


def test_refuses_insufficient_monotonicity(pair_ws):
    weak = material_law("rational", 6.0, 0.0, 0.0, 4.0)  # gamma ~ 0.24
    assert weak.gamma <= 0.25
    data = coupling_data_for(pair_ws, np.zeros((pair_ws.mesh1.n_nodes, 3)), [0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="must exceed 1/4"):
        solve_coupling(pair_ws.coupling, data, weak)


def test_unknown_scheme_rejected(pair_ws):
    data = coupling_data_for(pair_ws, np.zeros((pair_ws.mesh1.n_nodes, 3)), [0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="unknown scheme"):
        solve_coupling(pair_ws.coupling, data, material_law("zero"), scheme="newton")


def test_zarantonello_monotone_convergence(pair_ws):
    law = material_law("tanh", 1.0, 1.0)
    data = coupling_data_for(pair_ws, np.zeros((pair_ws.mesh1.n_nodes, 3)), [0.0, 0.0, 1.0])
    state = solve_coupling(pair_ws.coupling, data, law, scheme="zarantonello")
    hist = np.array(state.residual_history)
    assert state.residual <= 1e-8
    assert state.iterations <= 200
    assert (np.diff(hist) < 0).all()


def test_iteration_cap_reports_history(pair_ws):
    law = material_law("tanh", 1.0, 1.0)
    data = coupling_data_for(pair_ws, np.zeros((pair_ws.mesh1.n_nodes, 3)), [0.0, 0.0, 1.0])
    with pytest.raises(RuntimeError, match="did not reach") as err:
        solve_coupling(pair_ws.coupling, data, law, max_iter=3)
    assert "last residuals" in str(err.value)


def test_kacanov_converges_faster(pair_ws):
    law = material_law("tanh", 1.0, 1.0)
    data = coupling_data_for(pair_ws, np.zeros((pair_ws.mesh1.n_nodes, 3)), [0.0, 0.0, 1.0])
    zar = solve_coupling(pair_ws.coupling, data, law, scheme="zarantonello")
    kac = solve_coupling(pair_ws.coupling, data, law, scheme="kacanov")
    assert kac.residual <= 1e-8
    assert kac.iterations < zar.iterations


def test_transfer_of_constant_potential_vanishes(pair_ws):
    # the double layer of a constant trace is zero outside Omega_1
    u1 = transfer_u1_to_omega2(pair_ws, np.full(pair_ws.mesh1.n_nodes, 3.0))
    assert np.abs(u1.values).max() < 1e-10


def test_null_test_zero_law(pair_ws, sphere1):
    rng = np.random.default_rng(8)
    m_values = rng.normal(size=(sphere1.n_nodes, 3))
    m_values /= np.linalg.norm(m_values, axis=1, keepdims=True)
    f = np.array([0.3, -0.2, 0.9])
    pi = multiscale_field(pair_ws, NodalVectorField(sphere1, m_values), f, material_law("zero"))
    scale = np.linalg.norm(f) + 1.0
    assert np.abs(pi.values).max() <= 1e-6 * scale


def test_overlapping_domains_rejected(sphere1):
    near = icosphere_volume(1, n_radial=2, center=(1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="overlap"):
        make_multiscale_workspace(sphere1, near)


def test_contribution_requires_zeta(pair_ws, sphere1):
    contrib = MultiscaleContribution(workspace=pair_ws, law=material_law("linear", 2.0))
    m = NodalVectorField(sphere1, np.tile([0.0, 0.0, 1.0], (sphere1.n_nodes, 1)))
    with pytest.raises(ValueError, match="needs the applied field"):
        contrib.evaluate(m)
    zeta = NodalVectorField(sphere1, np.tile([0.0, 0.0, 1.0], (sphere1.n_nodes, 1)))
    out = contrib.evaluate(m, zeta=zeta)
    expect = multiscale_field(pair_ws, m, zeta.values, contrib.law)
    np.testing.assert_allclose(out.values, expect.values, rtol=1e-12)


def test_pipeline_stage_error_is_labeled(pair_ws, sphere1):
    m = NodalVectorField(sphere1, np.tile([0.0, 0.0, 1.0], (sphere1.n_nodes, 1)))
    law = material_law("tanh", 1.0, 1.0)
    with pytest.raises(RuntimeError, match="failed at stage: coupling solve"):
        multiscale_field(pair_ws, m, [0.0, 0.0, 1.0], law, max_iter=2)


def test_transfer_matrices_match_pointwise_evaluation(pair_ws):
    from multimag.bem import eval_double_layer, eval_single_layer
    from multimag.fem import clement_boundary_interpolation, face_quadrature

    s1, s2 = pair_ws.surface1, pair_ws.coupling.surface

    def pointwise(potential, source, density, target):
        points, weights = face_quadrature(target)
        vals = potential(source, density, points.reshape(-1, 3)).reshape(weights.shape)
        return clement_boundary_interpolation(target, (weights * vals).sum(axis=1))

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
            (t12 @ trace1, pointwise(eval_double_layer, s1, trace1, s2)),
            (single_21 @ phi, pointwise(eval_single_layer, s2, phi, s1)),
            (double_21 @ trace2, pointwise(eval_double_layer, s2, trace2, s1)),
        ):
            assert np.linalg.norm(matrix - expect) <= 1e-12 * np.linalg.norm(expect)


def test_transfers_are_built_once(pair_ws, sphere1, monkeypatch):
    from multimag import bem

    m = NodalVectorField(sphere1, np.tile([0.0, 0.0, 1.0], (sphere1.n_nodes, 1)))
    law = material_law("tanh", 1.0, 1.0)
    first = multiscale_field(pair_ws, m, [0.0, 0.0, 1.0], law)
    calls = []
    panel_integrals = bem.panel_integrals

    def counting(*args):
        calls.append(1)
        return panel_integrals(*args)

    monkeypatch.setattr(bem, "panel_integrals", counting)
    second = multiscale_field(pair_ws, m, [0.0, 0.0, 1.0], law)
    assert calls == []
    np.testing.assert_array_equal(second.values, first.values)
