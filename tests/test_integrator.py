"""Tangent-plane time integration: frames, the cross term, stepping, runs.

Reference values of the cubic shape-function products were obtained by
symbolic integration over the reference tetrahedron and are frozen as exact
fractions.
"""

import logging

import numpy as np
import pytest
from scipy.sparse import bsr_matrix, coo_matrix, csr_matrix, diags, identity, kron
from scipy.sparse import linalg as spla

from multimag import (
    MagnetizationState,
    MultiscaleContribution,
    NodalVectorField,
    NondimConstants,
    RunSetup,
    StrayfieldContribution,
    TangentFrame,
    UniaxialContribution,
    build_tangent_frame,
    icosphere_volume,
    llg_step,
    make_llg_workspace,
    make_multiscale_workspace,
    make_strayfield_workspace,
    material_law,
    reference_tet,
    evaluate_contributions,
    run,
)
from multimag.fem import assemble_mass, assemble_stiffness, h1_seminorm_sq
from multimag.fields import FieldContribution
from multimag import integrator
from multimag.integrator import _CROSS_TENSOR, _dot
from multimag.oracles import macrospin_error

from conftest import random_unit_field
from meshes import kuhn_cube

CONSTANTS = NondimConstants(c_exch=1.0, c_ani=1.0, alpha=1.0, t_final=1.0)


def unit_state(mesh, values):
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = np.tile(values, (mesh.n_nodes, 1))
    return MagnetizationState(m=NodalVectorField(mesh, values), step=0, time=0.0)


def test_cross_tensor_frozen_cubic_integrals():
    # symbolic values over the reference tet (volume 1/6):
    # int eta_i^3 = 1/120, int eta_i^2 eta_j = 1/360, int eta_i eta_j eta_k = 1/720
    vol = 1.0 / 6.0
    for i in range(4):
        for j in range(4):
            for k in range(4):
                distinct = len({i, j, k})
                exact = {1: 1.0 / 120.0, 2: 1.0 / 360.0, 3: 1.0 / 720.0}[distinct]
                np.testing.assert_allclose(vol * _CROSS_TENSOR[i, j, k], exact, rtol=1e-15)


def frame_triple_product(mesh, m, mass_coeff, stiffness_coeff):
    """q^T A q with A = mass_coeff M3 + stiffness_coeff K3 + C in the 3N nodal
    basis (M3, K3 by kron, C from per-tet 3x3 blocks) and q the (3N, 2N)
    matrix of nodal frame columns."""
    n = mesh.n_nodes
    eye3 = identity(3, format="csr")
    a_full = mass_coeff * kron(assemble_mass(mesh).matrix, eye3) + stiffness_coeff * kron(
        assemble_stiffness(mesh).matrix, eye3
    )
    tets = mesh.tets
    rows = 3 * tets[:, :, None, None, None] + np.arange(3)[None, None, None, :, None]
    cols = 3 * tets[:, None, :, None, None] + np.arange(3)[None, None, None, None, :]
    shape = (mesh.n_tets, 4, 4, 3, 3)
    skew = np.zeros((mesh.n_tets, 4, 3, 3))
    mk = m[tets]
    skew[:, :, 0, 1], skew[:, :, 0, 2] = -mk[:, :, 2], mk[:, :, 1]
    skew[:, :, 1, 0], skew[:, :, 1, 2] = mk[:, :, 2], -mk[:, :, 0]
    skew[:, :, 2, 0], skew[:, :, 2, 1] = -mk[:, :, 1], mk[:, :, 0]
    blocks = np.einsum("ijk,m,mkab->mijab", _CROSS_TENSOR, mesh.volumes, skew)
    rows, cols = np.broadcast_to(rows, shape).ravel(), np.broadcast_to(cols, shape).ravel()
    a_full = a_full + coo_matrix((blocks.ravel(), (rows, cols)), shape=(3 * n, 3 * n))
    frame = build_tangent_frame(unit_state(mesh, m))
    node = np.arange(n)
    q = coo_matrix(
        (
            np.concatenate([frame.t1, frame.t2], axis=1).ravel(),
            (
                np.repeat(3 * node, 6) + np.tile([0, 1, 2, 0, 1, 2], n),
                np.repeat(2 * node, 6) + np.tile([0, 0, 0, 1, 1, 1], n),
            ),
        ),
        shape=(3 * n, 2 * n),
    ).tocsr()
    return (q.T @ a_full @ q).toarray()


def frames(ws, m):
    return ws.frame_matrix(build_tangent_frame(unit_state(ws.mesh, m)))


# (alpha, C_exch, k, theta)
STEP_PARAMETERS = [(1.0, 1.0, 1e-3, 1.0), (0.02, 3.0, 0.1, 0.5), (0.5, 0.1, 2.0, 0.75)]


@pytest.mark.parametrize("mesh_name", ["cube2", "sphere2"])
def test_velocity_matrix_matches_frame_triple_product(mesh_name, request):
    mesh = request.getfixturevalue(mesh_name)
    ws = make_llg_workspace(mesh)
    for seed, (alpha, c_exch, k, theta) in enumerate(STEP_PARAMETERS):
        m = random_unit_field(mesh, 200 + seed)
        a_red = ws.velocity_matrix(m, frames(ws, m), alpha, c_exch * k * theta).toarray()
        expect = frame_triple_product(mesh, m, alpha, c_exch * k * theta)
        assert np.abs(a_red - expect).max() <= 1e-14 * np.abs(expect).max()


def bsr_velocity_matrix(ws, m, t, mass_coeff, stiffness_coeff):
    """The reduced matrix built block by block: strided (nnz, 2, 2) blocks,
    then BSR converted to CSR."""
    pattern = ws.stiffness.matrix
    w = (ws.cross_map @ m).T
    ti, tj = t.T[:, :, ws.rows], t.T[:, :, pattern.indices]
    sym = mass_coeff * ws.mass.matrix.data + stiffness_coeff * pattern.data
    blocks = np.empty((pattern.nnz, 2, 2))
    for a, b in np.ndindex(2, 2):
        u, v = tj[:, b], ti[:, a]
        u_x_v = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
        blocks[:, a, b] = _dot(w, u_x_v)
        blocks[:, a, b] += sym * _dot(ti[:, a], tj[:, b])
    n2 = 2 * ws.mesh.n_nodes
    return bsr_matrix((blocks, pattern.indices, pattern.indptr), shape=(n2, n2)).tocsr()


def diagonal_block_jacobi(a):
    """Block-Jacobi inverse read from the matrix through a.diagonal(0/+-1)."""
    diag = a.diagonal()
    d0, d1 = diag[0::2], diag[1::2]
    upper, lower = a.diagonal(1)[0::2], a.diagonal(-1)[0::2]
    det = d0 * d1 - upper * lower
    inverse = np.stack((d1, -upper, -lower, d0), axis=1) / det[:, None]
    cols = np.arange(a.shape[0]).reshape(-1, 2).repeat(2, axis=0).ravel()
    indptr = np.arange(0, 2 * a.shape[0] + 1, 2)
    return csr_matrix((inverse.ravel(), cols, indptr), shape=a.shape)


@pytest.mark.parametrize("mesh_name", ["cube2", "sphere2"])
def test_fixed_layout_matches_block_assembly_bit_for_bit(mesh_name, request):
    # the same arithmetic per entry, so the same bits: BiCGStab then takes
    # the same iterates and the energy tables stay byte-identical
    mesh = request.getfixturevalue(mesh_name)
    ws = make_llg_workspace(mesh)
    for seed, (alpha, c_exch, k, theta) in enumerate(STEP_PARAMETERS):
        m = random_unit_field(mesh, 200 + seed)
        t = frames(ws, m)
        a = ws.velocity_matrix(m, t, alpha, c_exch * k * theta)
        expect = bsr_velocity_matrix(ws, m, t, alpha, c_exch * k * theta)
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(a, name), getattr(expect, name)), name
        assert a.has_canonical_format  # computed from the arrays: sorted, no duplicates
        precond, expect_precond = ws.block_jacobi(a), diagonal_block_jacobi(expect)
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(precond, name), getattr(expect_precond, name)), name


def test_cross_map_matches_assembly_from_int64_indices(sphere2):
    # make_llg_workspace builds it from index arrays of the pattern's width
    from multimag.fem import pattern_positions

    ws = make_llg_workspace(sphere2)
    shape = (sphere2.n_tets, 4, 4, 4)
    positions = np.broadcast_to(pattern_positions(sphere2)[..., None], shape).astype(np.int64)
    nodes = np.broadcast_to(sphere2.tets[:, None, None, :], shape).astype(np.int64)
    weights = sphere2.volumes[:, None, None, None] * _CROSS_TENSOR
    expect = csr_matrix(
        (weights.ravel(), (positions.ravel(), nodes.ravel())), shape=ws.cross_map.shape
    )
    for name in ("data", "indices", "indptr"):
        got, ref = getattr(ws.cross_map, name), getattr(expect, name)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), name


def cross_blocks(ws, m):
    n2 = 2 * ws.mesh.n_nodes
    pattern = ws.stiffness.matrix
    blocks = ws.cross_matrix(m, *ws.pattern_frames(frames(ws, m))).transpose(2, 0, 1)
    return bsr_matrix((blocks, pattern.indices, pattern.indptr), shape=(n2, n2))


@pytest.mark.parametrize("mesh_name", ["cube2", "sphere2"])
def test_cross_blocks_are_exactly_skew(mesh_name, request):
    mesh = request.getfixturevalue(mesh_name)
    c = cross_blocks(make_llg_workspace(mesh), random_unit_field(mesh, 3))
    assert abs(c + c.T).max() == 0.0


def test_cross_blocks_uniform_m_are_mass_weighted(cube2):
    # for uniform m, w_ij = M_ij m, so block (i, j) is M_ij m . (t_b(j) x t_a(i))
    ws = make_llg_workspace(cube2)
    m = np.array([0.3, -0.8, 0.52])
    m /= np.linalg.norm(m)
    values = np.tile(m, (cube2.n_nodes, 1))
    t = frames(ws, values)
    pattern = ws.stiffness.matrix
    rows = np.repeat(np.arange(cube2.n_nodes), np.diff(pattern.indptr))
    ti, tj = t[rows], t[pattern.indices]
    tj_x_ti = np.cross(tj[:, :, None], ti[:, None])  # [p, b, a] = t_b(j) x t_a(i)
    expect = np.einsum("p,d,pbad->pab", ws.mass.matrix.data, m, tj_x_ti)
    blocks = ws.cross_matrix(values, *ws.pattern_frames(t)).transpose(2, 0, 1)
    np.testing.assert_allclose(blocks, expect, atol=1e-15)


def test_frame_canonical_example(cube2):
    frame = build_tangent_frame(unit_state(cube2, [0.0, 0.0, 1.0]))
    np.testing.assert_allclose(frame.t1, np.tile([1.0, 0.0, 0.0], (cube2.n_nodes, 1)), atol=1e-15)
    np.testing.assert_allclose(frame.t2, np.tile([0.0, 1.0, 0.0], (cube2.n_nodes, 1)), atol=1e-15)


def test_frame_tie_break_takes_first_axis(cube2):
    m = np.ones(3) / np.sqrt(3.0)
    frame = build_tangent_frame(unit_state(cube2, m))
    # all |m . axis| equal, so the seed is the x axis
    expect = np.array([1.0, 0.0, 0.0]) - m[0] * m
    expect /= np.linalg.norm(expect)
    np.testing.assert_allclose(frame.t1[0], expect, rtol=1e-14)


def test_frame_properties_random_states(cube2):
    for seed in range(8):
        m = random_unit_field(cube2, 100 + seed)
        frame = build_tangent_frame(unit_state(cube2, m))
        np.testing.assert_allclose(np.linalg.norm(frame.t1, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(frame.t2, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose((frame.t1 * m).sum(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose((frame.t2 * m).sum(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(frame.t2, np.cross(m, frame.t1), atol=1e-12)


def test_frame_validation(cube2):
    n = cube2.n_nodes
    t1 = np.tile([1.0, 0.0, 0.0], (n, 1))
    with pytest.raises(ValueError, match="unit"):
        TangentFrame(t1=2.0 * t1, t2=np.tile([0.0, 1.0, 0.0], (n, 1)))
    with pytest.raises(ValueError, match="orthogonal"):
        TangentFrame(t1=t1, t2=t1)


def test_state_validation(cube2):
    with pytest.raises(ValueError, match="unit"):
        unit_state(cube2, [0.0, 0.0, 2.0])
    with pytest.raises(ValueError, match="unit"):
        unit_state(cube2, [np.nan, np.nan, np.nan])


def test_velocity_closed_form_uniform_state(cube2):
    # uniform m kills the exchange term; v = (alpha f_perp - m x f)/(1+alpha^2)
    alpha = 0.7
    consts = NondimConstants(c_exch=1.0, c_ani=1.0, alpha=alpha, t_final=1.0)
    m = np.array([0.0, 0.0, 1.0])
    f = np.array([0.4, -0.1, 0.3])
    state = unit_state(cube2, m)
    ws = make_llg_workspace(cube2)
    f_field = NodalVectorField(cube2, np.tile(f, (cube2.n_nodes, 1)))
    pi, _ = evaluate_contributions([], state.m, f_field, 0)
    v, _ = llg_step(ws, state, pi, f_field, consts, theta=1.0, k=1e-3)
    f_perp = f - (f @ m) * m
    expect = (alpha * f_perp - np.cross(m, f)) / (1.0 + alpha**2)
    np.testing.assert_allclose(v.values, np.tile(expect, (cube2.n_nodes, 1)), atol=1e-12)


def test_velocity_is_tangent(cube2):
    ws = make_llg_workspace(cube2)
    state = unit_state(cube2, random_unit_field(cube2, 42))
    f_field = NodalVectorField(cube2, np.tile([0.2, 0.0, 0.5], (cube2.n_nodes, 1)))
    contribs = [UniaxialContribution(axis=np.array([0.0, 0.0, 1.0]), scale=0.5)]
    pi, _ = evaluate_contributions(contribs, state.m, f_field, 0)
    v, _ = llg_step(ws, state, pi, f_field, CONSTANTS, theta=1.0, k=1e-2)
    np.testing.assert_allclose((v.values * state.m.values).sum(axis=1), 0.0, atol=1e-12)


def test_renormalization_update_and_nodal_bounds(cube2):
    ws = make_llg_workspace(cube2)
    state = unit_state(cube2, random_unit_field(cube2, 43))
    f_field = NodalVectorField(cube2, np.tile([0.0, 0.3, 0.4], (cube2.n_nodes, 1)))
    k = 5e-2
    pi, _ = evaluate_contributions([], state.m, f_field, 0)
    v, nxt = llg_step(ws, state, pi, f_field, CONSTANTS, theta=1.0, k=k)
    raw = state.m.values + k * v.values
    np.testing.assert_allclose(nxt.m.values, raw / np.linalg.norm(raw, axis=1, keepdims=True), atol=1e-15)
    np.testing.assert_allclose(np.linalg.norm(nxt.m.values, axis=1), 1.0, atol=1e-12)
    vnorm = np.linalg.norm(v.values, axis=1)
    delta = np.linalg.norm(nxt.m.values - state.m.values, axis=1)
    second = np.linalg.norm(nxt.m.values - state.m.values - k * v.values, axis=1)
    assert (delta <= k * vnorm * (1.0 + 1e-9) + 1e-12).all()
    assert (second <= 0.5 * (k * vnorm) ** 2 * (1.0 + 1e-9) + 1e-12).all()
    assert nxt.step == 1
    np.testing.assert_allclose(nxt.time, k)


def test_zero_drive_gives_zero_velocity(cube2):
    ws = make_llg_workspace(cube2)
    state = unit_state(cube2, [0.0, 0.0, 1.0])
    pi, _ = evaluate_contributions([], state.m, None, 0)
    v, nxt = llg_step(ws, state, pi, None, CONSTANTS, theta=1.0, k=1e-3)
    assert np.abs(v.values).max() == 0.0
    np.testing.assert_array_equal(nxt.m.values, state.m.values)


def reduced_system(mesh, seed, k=1e-3):
    """The reduced velocity system of an exchange-only step from noisy m."""
    rng = np.random.default_rng(seed)
    m = np.tile([0.0, 0.0, 1.0], (mesh.n_nodes, 1)) + 0.3 * rng.normal(size=(mesh.n_nodes, 3))
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    ws = make_llg_workspace(mesh)
    t = ws.frame_matrix(build_tangent_frame(unit_state(mesh, m)))
    a = ws.velocity_matrix(m, t, CONSTANTS.alpha, CONSTANTS.c_exch * k)
    b = np.einsum("nad,nd->na", t, -CONSTANTS.c_exch * (ws.stiffness.matrix @ m)).ravel()
    return ws, a, b


def nodal_blocks(matrix):
    """(N, 2, 2) diagonal blocks of a reduced 2N x 2N matrix."""
    n = matrix.shape[0] // 2
    dense = matrix.toarray().reshape(n, 2, n, 2)
    return dense[np.arange(n), :, np.arange(n), :]


def test_block_jacobi_inverts_nodal_blocks_and_cuts_iterations():
    mesh = icosphere_volume(2, n_radial=2)
    ws, a, b = reduced_system(mesh, seed=4)
    precond = ws.block_jacobi(a)
    assert precond.nnz == 4 * mesh.n_nodes  # block diagonal
    products = np.einsum("nab,nbc->nac", nodal_blocks(precond), nodal_blocks(a))
    assert np.abs(products - np.eye(2)).max() <= 1e-13

    def iterations(m):
        count = []
        x, info = spla.bicgstab(a, b, M=m, rtol=1e-10, atol=0.0, callback=count.append)
        assert info == 0
        return len(count)

    scalar_jacobi = diags(1.0 / a.diagonal())
    assert iterations(precond) <= iterations(scalar_jacobi)


def test_velocity_solve_reports_gmres_fallback(cube2, monkeypatch, caplog):
    ws, a, b = reduced_system(cube2, seed=2)
    precond = ws.block_jacobi(a)
    solve = integrator._solve_velocity(a, precond, b, 1e-10)
    assert solve.bicgstab_iterations > 0 and not solve.gmres_fired
    assert solve.residual <= 1e-9

    monkeypatch.setattr(integrator.spla, "bicgstab", lambda a, b, **kw: (np.zeros_like(b), 1))
    solve = integrator._solve_velocity(a, precond, b, 1e-10)
    assert solve.gmres_fired and solve.bicgstab_iterations == 0
    assert solve.residual <= 1e-9
    assert np.linalg.norm(b - a @ solve.x) <= 1e-9 * np.linalg.norm(b)
    state = unit_state(cube2, random_unit_field(cube2, 2))
    pi = NodalVectorField(cube2, np.zeros((cube2.n_nodes, 3)))
    with caplog.at_level(logging.DEBUG, logger="multimag"):
        llg_step(make_llg_workspace(cube2), state, pi, None, CONSTANTS, 1.0, 1e-3)
    assert "GMRES fallback True" in caplog.text

    monkeypatch.setattr(integrator.spla, "gmres", lambda a, b, **kw: (np.zeros_like(b), 1))
    with pytest.raises(RuntimeError, match="velocity solve did not converge"):
        integrator._solve_velocity(a, precond, b, 1e-10)


def test_step_parameter_validation(cube2):
    ws = make_llg_workspace(cube2)
    state = unit_state(cube2, [0.0, 0.0, 1.0])
    pi, _ = evaluate_contributions([], state.m, None, 0)
    with pytest.raises(ValueError, match="theta"):
        llg_step(ws, state, pi, None, CONSTANTS, theta=1.5, k=1e-3)
    with pytest.raises(ValueError, match="time step must be positive"):
        llg_step(ws, state, pi, None, CONSTANTS, theta=1.0, k=0.0)


class ExplodingContribution(FieldContribution):
    name = "exploding"

    def __init__(self, fail_at_step=None):
        self.fail_at_step = fail_at_step

    def evaluate(self, m, zeta=None, time_index=0):
        values = np.zeros_like(m.values)
        if self.fail_at_step is None or time_index >= self.fail_at_step:
            values[0, 0] = np.nan
        return NodalVectorField(m.mesh, values)


def test_nonfinite_contribution_is_named(cube2):
    state = unit_state(cube2, [0.0, 0.0, 1.0])
    with pytest.raises(RuntimeError, match="'exploding' produced non-finite values"):
        evaluate_contributions([ExplodingContribution()], state.m, None, 0)


def test_llg_step_rejects_nonfinite_pi(cube2):
    ws = make_llg_workspace(cube2)
    state = unit_state(cube2, [0.0, 0.0, 1.0])
    pi = NodalVectorField(cube2, np.full((cube2.n_nodes, 3), np.nan))
    with pytest.raises(RuntimeError, match="non-finite"):
        llg_step(ws, state, pi, None, CONSTANTS, theta=1.0, k=1e-3)


def small_setup(mesh, n_steps, *, theta=1.0, k=0.05, seed=7, contributions=(), f=None):
    return RunSetup(
        mesh=mesh,
        m0=random_unit_field(mesh, seed),
        constants=CONSTANTS,
        contributions=list(contributions),
        applied_field=(lambda t, points: f) if f is not None else None,
        theta=theta,
        k=k,
        n_steps=n_steps,
    )


def test_run_shapes_and_callback(cube1):
    seen = []
    traj = run(small_setup(cube1, 5), on_step=lambda t, s: seen.append(s.step))
    assert len(traj.states) == 6
    assert len(traj.velocities) == 5
    assert len(traj.records) == 6
    assert seen == [0, 1, 2, 3, 4, 5]
    assert traj.final is traj.states[-1]


def test_run_gradient_norm_decreases_exchange_only(cube2):
    from multimag.fem import assemble_stiffness

    traj = run(small_setup(cube2, 30, k=0.1, seed=3))
    K = assemble_stiffness(cube2)
    semis = [h1_seminorm_sq(K, s.m.values) for s in traj.states]
    slack = 1e-10 * (1.0 + semis[0])
    assert all(b <= a + slack for a, b in zip(semis, semis[1:]))


def test_run_defect_accounting(cube1):
    f = np.array([0.0, 0.0, 0.4])
    contribs = [UniaxialContribution(axis=np.array([1.0, 0.0, 0.0]), scale=0.5)]
    traj = run(small_setup(cube1, 10, k=0.02, contributions=contribs, f=f))
    assert traj.defect_coefficient > 0.0
    # allowance = c * k * sum |v|^2 = c * dissipation / alpha
    expect = traj.defect_coefficient * traj.records[-1].dissipation_sum / CONSTANTS.alpha
    np.testing.assert_allclose(traj.defect_allowance, expect, rtol=1e-12)


def test_run_evaluates_each_contribution_once_per_state(sphere1, sphere_ws, monkeypatch):
    from multimag import CubicContribution, StrayfieldContribution

    calls = {}
    for cls in (CubicContribution, StrayfieldContribution):
        def counting(self, m, zeta=None, time_index=0, _evaluate=cls.evaluate):
            calls[self.name] = calls.get(self.name, 0) + 1
            return _evaluate(self, m, zeta=zeta, time_index=time_index)

        monkeypatch.setattr(cls, "evaluate", counting)
    contribs = [CubicContribution(K1=1.0, K2=0.0, scale=0.5), StrayfieldContribution(sphere_ws)]
    traj = run(small_setup(sphere1, 3, k=0.01, contributions=contribs))
    assert len(traj.records) == 4
    assert calls == {"cubic": 4, "strayfield": 4}


def test_run_aborts_with_partial_trajectory(cube1):
    # the contribution blows up when first evaluated at a step-3 state,
    # which happens inside step 2 (each step evaluates pi at its new state
    # for the energy record)
    setup = small_setup(cube1, 10, contributions=[ExplodingContribution(fail_at_step=3)])
    with pytest.raises(RuntimeError, match="run aborted at step 2") as err:
        run(setup)
    partial = err.value.partial_trajectory
    assert len(partial.states) == 3  # initial plus two completed steps
    assert len(partial.records) == 3


class FailingContribution(FieldContribution):
    name = "failing"

    def evaluate(self, m, zeta=None, time_index=0):
        raise ValueError(f"cannot evaluate at time index {time_index}")


def test_run_wraps_step0_contribution_failure(cube1):
    with pytest.raises(
        RuntimeError, match="run aborted at step 0: cannot evaluate at time index 0"
    ) as err:
        run(small_setup(cube1, 2, contributions=[FailingContribution()]))
    assert isinstance(err.value.__cause__, ValueError)
    assert not hasattr(err.value, "partial_trajectory")


def test_run_rejects_contribution_on_another_mesh(sphere1):
    # radius 2 and sphere1's 85 nodes: only the mesh identity tells the fields apart
    other = icosphere_volume(1, n_radial=2, radius=2.0)
    far = icosphere_volume(1, n_radial=2, center=(6.0, 0.0, 0.0))
    for contrib in (
        StrayfieldContribution(make_strayfield_workspace(other, "fk")),
        MultiscaleContribution(make_multiscale_workspace(other, far), material_law("zero")),
    ):
        with pytest.raises(RuntimeError, match=f"step 0: contribution '{contrib.name}' returned"):
            run(small_setup(sphere1, 2, contributions=[contrib], f=np.array([0.0, 0.0, 0.5])))


def test_run_rejects_nonfinite_inputs(cube1):
    # every guard compares as "not x <= bound", which a NaN fails
    with pytest.raises(RuntimeError, match="run aborted at step 0"):
        run(small_setup(cube1, 2, f=np.array([np.nan, 0.0, 0.5])))
    setup = small_setup(cube1, 2)
    setup.m0 = np.full_like(setup.m0, np.nan)
    with pytest.raises(ValueError, match="not unit-modulus"):
        run(setup)


def test_run_names_nonfinite_applied_field(cube1):
    # the sampled field is rejected before it reaches the velocity solve
    with pytest.raises(RuntimeError, match="step 0: applied field is not finite at t = 0") as err:
        run(small_setup(cube1, 2, f=np.array([np.nan, 0.0, 0.5])))
    assert "velocity solve" not in str(err.value)
    setup = small_setup(cube1, 4, k=0.05)
    setup.applied_field = lambda t, points: np.array([0.0, 0.0, np.inf if t > 0.07 else 0.5])
    with pytest.raises(RuntimeError, match="step 1: applied field is not finite at t = 0.1"):
        run(setup)


def test_run_warns_on_denormalized_m0(cube1, caplog):
    setup = small_setup(cube1, 1)
    setup = RunSetup(
        mesh=setup.mesh,
        m0=1.001 * setup.m0,
        constants=setup.constants,
        contributions=[],
        theta=1.0,
        k=0.05,
        n_steps=1,
    )
    with caplog.at_level(logging.WARNING, logger="multimag.integrator"):
        traj = run(setup)
    assert any("renormalizing" in r.message for r in caplog.records)
    np.testing.assert_allclose(np.linalg.norm(traj.states[0].m.values, axis=1), 1.0, atol=1e-12)


def test_run_warns_for_conditional_theta(cube1, caplog):
    with caplog.at_level(logging.WARNING, logger="multimag.integrator"):
        run(small_setup(cube1, 1, theta=0.3))
    assert any("conditional" in r.message for r in caplog.records)


def test_macrospin_against_ode_reference():
    mesh = reference_tet()
    alpha = 1.0
    f = np.array([0.0, 0.0, 0.6])
    m0 = np.array([1.0, 0.0, 0.0])
    k, t_final = 2e-3, 0.2
    setup = RunSetup(
        mesh=mesh,
        m0=np.tile(m0, (mesh.n_nodes, 1)),
        constants=NondimConstants(c_exch=1.0, c_ani=1.0, alpha=alpha, t_final=t_final),
        contributions=[],
        applied_field=lambda t, points: f,
        theta=1.0,
        k=k,
        n_steps=int(round(t_final / k)),
    )
    traj = run(setup)
    # the uniform state stays nodally uniform, first order in k; there is
    # no anisotropy term, so the reference takes c_ani = 0 (any axis)
    axis = np.array([0.0, 0.0, 1.0])
    err = macrospin_error(traj.final.m.values, m0, f, alpha, 0.0, axis, t_final)
    assert err < 1e-2
    spread = np.abs(traj.final.m.values - traj.final.m.values[0]).max()
    assert spread < 1e-12
