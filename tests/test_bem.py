"""Boundary operators: closed-form panels, Galerkin matrices, potentials.

The panel closed forms are checked against a brute-force oracle (uniform
subdivision + centroid rule), and the operator-level identities against
classical potential theory on the sphere and cube.
"""

import itertools
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multimag import (
    assemble_bem,
    eval_double_layer,
    eval_single_layer,
    icosphere_volume,
    solid_angles,
)
from multimag.bem import (
    _PLANE_TOL,
    _at_points,
    _batch_points,
    _coordinates,
    _layers,
    _solid_angle,
    _vertex_distances,
    layer_integrals,
    panel_geometry,
    panel_integrals,
)
from multimag.fem import TRI_QUAD_POINTS, TRI_QUAD_WEIGHTS, face_quadrature

from conftest import gauss_residual, hat_coefficients, panel_hats
from meshes import kuhn_cube


def centroids(surface):
    """(F, 3) face centroids."""
    return surface.vertex_coords.mean(axis=1)


def brute_panel(x, v, level=7):
    """Subdivision + centroid quadrature of the unscaled panel integrals."""
    v = np.asarray(v, float)
    tris = [v]
    for _ in range(level):
        new = []
        for tv in tris:
            m01, m12, m02 = 0.5 * (tv[0] + tv[1]), 0.5 * (tv[1] + tv[2]), 0.5 * (tv[0] + tv[2])
            new += [
                np.array([tv[0], m01, m02]),
                np.array([m01, tv[1], m12]),
                np.array([m02, m12, tv[2]]),
                np.array([m01, m12, m02]),
            ]
        tris = new
    tris = np.array(tris)
    cent = tris.mean(axis=1)
    areas = 0.5 * np.linalg.norm(
        np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]), axis=1
    )
    n = np.cross(v[1] - v[0], v[2] - v[0])
    n /= np.linalg.norm(n)
    d = x[None, :] - cent
    R = np.linalg.norm(d, axis=1)
    single = np.sum(areas / R)
    omega = np.sum(areas * (d @ n) / R**3)
    T2 = np.column_stack([v[1] - v[0], v[2] - v[0]])
    bc12 = np.linalg.solve(T2.T @ T2, ((cent - v[0]) @ T2).T).T
    lam = np.column_stack([1.0 - bc12.sum(axis=1), bc12])
    double_p1 = (areas * (d @ n) / R**3) @ lam
    return single, omega, double_p1


def reference_panel_integrals(surface, points, dtype=np.float64):
    """The tensor form of the closed-form panel integrals, kept as a reference.

    Forms every point-to-vertex offset as a (P, F, 3, 3) array and takes the
    Van Oosterom-Strackee determinant and dot products from it directly.
    Same conventions and plane/line rules as ``panel_integrals``, except
    that on-plane pairs keep their rounded zeta, so self-panel hat values
    come out near 1e-15 rather than exactly 0.  Returns ``(single, omega,
    edge, hats)``: the three outputs of ``panel_integrals`` and the (P, F, 3)
    hat double layers lam_i(x_par) Omega - sum_e (g_i.m_e) zeta P_e, all in
    ``dtype``, with the geometry taken from the float64 mesh.
    """
    points = np.asarray(points, dtype=np.float64).astype(dtype)
    v = surface.vertex_coords.astype(dtype)
    n = surface.normals.astype(dtype)
    edges = np.roll(v, -1, axis=1) - v
    lengths = np.linalg.norm(edges, axis=2)
    tangents = edges / lengths[:, :, None]
    edge_normals = np.cross(tangents, n[:, None, :])
    grads = np.empty_like(tangents)
    for i in range(3):
        opp = (i + 1) % 3
        grads[:, i, :] = -edge_normals[:, opp, :] * (
            lengths[:, opp] / (2.0 * surface.areas.astype(dtype))
        )[:, None]
    tol = 1e-12 * lengths.max(axis=1)[None, :]

    rel0 = points[:, None, :] - v[None, :, 0, :]
    zeta = np.einsum("pfd,fd->pf", rel0, n)
    xpar = points[:, None, :] - zeta[:, :, None] * n[None, :, :]
    on_plane = np.abs(zeta) <= tol

    rel = v[None, :, :, :] - points[:, None, None, :]  # (P, F, 3, 3)
    dist = np.linalg.norm(rel, axis=3)
    r0, r1, r2 = rel[:, :, 0, :], rel[:, :, 1, :], rel[:, :, 2, :]
    n0, n1, n2 = dist[:, :, 0], dist[:, :, 1], dist[:, :, 2]
    det = np.einsum("pfd,pfd->pf", r0, np.cross(r1, r2))
    denom = (
        n0 * n1 * n2
        + n0 * np.einsum("pfd,pfd->pf", r1, r2)
        + n1 * np.einsum("pfd,pfd->pf", r2, r0)
        + n2 * np.einsum("pfd,pfd->pf", r0, r1)
    )
    omega = -2.0 * np.arctan2(det, denom)
    omega[on_plane] = 0.0

    single = -zeta * omega
    edge = np.empty((3,) + zeta.shape, dtype)
    for k in range(3):
        a = v[:, k, :]
        m = edge_normals[:, k, :]
        rel_a = a[None, :, :] - xpar
        d = np.einsum("pfd,fd->pf", rel_a, m)
        la = np.einsum("pfd,fd->pf", rel_a, tangents[:, k, :])
        lb = la + lengths[None, :, k]
        ra = dist[:, :, k]
        rb = dist[:, :, (k + 1) % 3]
        on_line = d * d + zeta * zeta <= tol**2
        pos = la + lb > 0.0
        num = np.where(on_line, 1.0, np.where(pos, rb + lb, ra - la))
        den = np.where(on_line, 1.0, np.where(pos, ra + la, rb - lb))
        pe = np.log(num / den)
        single += d * pe
        edge[k] = zeta * pe

    lam0 = 1.0 + np.einsum("pfd,fd->pf", xpar - v[None, :, 0, :], grads[:, 0, :])
    lam1 = 1.0 + np.einsum("pfd,fd->pf", xpar - v[None, :, 1, :], grads[:, 1, :])
    lam_par = np.stack([lam0, lam1, 1.0 - lam0 - lam1], axis=2)
    hat_edge = np.einsum("fid,fed->efi", grads, edge_normals)  # g_i . m_e
    hats = lam_par * omega[:, :, None] - np.einsum("epf,efi->pfi", edge, hat_edge)
    return single, omega, edge, hats


def edge_distance(surface, x):
    """Distance from the point x to the nearest edge of the surface."""
    a = surface.vertex_coords.reshape(-1, 3)
    e = np.roll(surface.vertex_coords, -1, axis=1).reshape(-1, 3) - a
    t = np.clip(np.einsum("kd,kd->k", x - a, e) / np.einsum("kd,kd->k", e, e), 0.0, 1.0)
    return float(np.linalg.norm(a + t[:, None] * e - x, axis=1).min())


def quadrature_points(surface, faces):
    """(len(faces) * 7, 3) points of the degree-5 rule on the given faces."""
    return np.einsum("qk,fkd->fqd", TRI_QUAD_POINTS, surface.vertex_coords[faces]).reshape(-1, 3)


@pytest.mark.parametrize(
    "level, n_radial, center",
    [(2, 2, (0.0, 0.0, 0.0)), (2, 2, (3.0, 0.0, 0.0)), (3, 4, (0.0, 0.0, 0.0))],
)
def test_panel_integrals_match_tensor_reference(level, n_radial, center):
    surf = icosphere_volume(level, n_radial=n_radial, center=center).boundary()
    geo = panel_geometry(surf)
    rng = np.random.default_rng(level)
    gap = np.linalg.norm(centroids(surf) - centroids(surf)[0], axis=1)
    patch = np.argsort(gap)[:30]  # face 0 and its neighbours: own and near pairs
    nodes = surf.nodes[surf.boundary_nodes]
    sets = {
        "quadrature": quadrature_points(surf, patch),
        "vertices": nodes[rng.choice(len(nodes), size=min(len(nodes), 150), replace=False)],
        "far": np.asarray(center) + 3.0 * rng.normal(size=(60, 3)),
    }
    for name, pts in sets.items():
        single, omega, edge = panel_integrals(geo, pts, True, True)
        news = single, omega, edge, panel_hats(surf, pts, omega, edge)
        for new, ref in zip(news, reference_panel_integrals(surf, pts), strict=True):
            assert np.abs(new - ref).max() <= 1e-11 * np.abs(ref).max(), name


@pytest.mark.parametrize("level, n_radial", [(2, 2), (3, 4)])
def test_self_panel_double_layer_is_exactly_zero(level, n_radial):
    surf = icosphere_volume(level, n_radial=n_radial).boundary()
    faces = np.arange(0, surf.n_faces, surf.n_faces // 320)
    pts = quadrature_points(surf, faces)
    _, omega, edge = panel_integrals(panel_geometry(surf), pts, True, True)
    own = np.repeat(faces, len(pts) // len(faces))
    rows = np.arange(len(pts))
    assert np.all(omega[rows, own] == 0.0)
    assert np.all(edge[:, rows, own] == 0.0)  # so every hat moment of the pair is 0


@settings(max_examples=80, deadline=None)
@given(
    coords=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
    face=st.integers(0, 79),
    place=st.sampled_from(["free", "plane", "edge"]),
    edge=st.integers(0, 2),
    along=st.floats(0.0, 1.0),
    log_height=st.floats(-13.0, -6.0),
    side=st.sampled_from([-1.0, 1.0]),
)
# the two log branches cancelling exactly to 0 (den for along < 1/2, num
# beyond), and one rationalised log large enough to show against the slack
@example(coords=[0.0] * 3, face=0, place="edge", edge=0, along=0.3, log_height=-9.0, side=1.0)
@example(coords=[0.0] * 3, face=5, place="edge", edge=2, along=0.8, log_height=-11.0, side=-1.0)
@example(coords=[0.0] * 3, face=11, place="edge", edge=1, along=0.4, log_height=-6.0, side=1.0)
def test_panel_integrals_property(sphere1, coords, face, place, edge, along, log_height, side):
    surf = sphere1.boundary()
    geo = panel_geometry(surf)
    n = surf.normals[face]
    x = np.array(coords)
    if place == "plane":  # onto the plane of ``face``, possibly outside the triangle
        x = x - ((x - surf.vertex_coords[face, 0]) @ n) * n
    if place == "edge":  # just above or below a point of one of its edges
        a, b = surf.vertex_coords[face, edge], surf.vertex_coords[face, (edge + 1) % 3]
        x = a + along * (b - a) + side * 10.0**log_height * geo.diameters[face] * n
    single, omega, edge_planes = panel_integrals(geo, x[None], True, True)
    hats = panel_hats(surf, x[None], omega, edge_planes)
    outputs = single, omega, edge_planes, hats
    for out in outputs:
        assert np.isfinite(out).all()
    if place == "plane":
        assert omega[0, face] == 0.0
        assert np.all(edge_planes[:, 0, face] == 0.0)
        assert np.all(hats[0, face] == 0.0)
    np.testing.assert_allclose(hats.sum(axis=2), omega, rtol=0.0, atol=1e-12)
    if place == "edge" and abs(log_height - np.log10(_PLANE_TOL)) < np.log10(2.0):
        return  # the on-plane and on-line rules switch here; either side is right
    # Near an edge the outputs are ill-conditioned in x: at distance rho the
    # solid angle and the hats move by ~2/rho per unit displacement, and the
    # two kernels round the point's plane coordinates differently (by a few
    # eps |x|).  The reference's edge log also cancels there, by up to
    # eps (l / rho)^2 relative, times its factor d or zeta (at most rho).
    eps = np.finfo(float).eps
    reach = 1.0 + np.abs(x).max()
    slack = 64.0 * eps * reach**2 / max(edge_distance(surf, x), eps * reach)
    with np.errstate(divide="ignore", invalid="ignore"):  # the reference's own cancellation
        reference = reference_panel_integrals(surf, x[None])
    for new, ref in zip(outputs, reference, strict=True):
        finite = np.isfinite(ref)
        assert np.abs(new - ref)[finite].max() <= 1e-11 * np.abs(ref[finite]).max() + slack


def test_assemble_bem_matches_tensor_reference(sphere2, monkeypatch):
    from multimag import bem

    surf = sphere2.boundary()
    new = assemble_bem(surf, True, True)
    monkeypatch.setattr(
        bem, "panel_integrals", lambda geo, pts, *layers: reference_panel_integrals(surf, pts)[:3]
    )
    ref = assemble_bem(surf, True, True)
    for a, b in zip(new, ref, strict=True):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def longdouble_double_layer(source, target, faces_per_chunk=20):
    """``layer_integrals(source, target, False, True)[1]`` formed in np.longdouble
    from the hats of ``reference_panel_integrals``, on the same float64 rule."""
    points, weights = face_quadrature(target)
    out = np.zeros((target.n_faces, source.boundary_nodes.size), dtype=np.longdouble)
    for start in range(0, target.n_faces, faces_per_chunk):
        rows = slice(start, start + faces_per_chunk)
        w = weights[rows].astype(np.longdouble)
        hats = reference_panel_integrals(source, points[rows].reshape(-1, 3), np.longdouble)[3]
        hats = np.einsum("bqfi,bq->bfi", hats.reshape(w.shape + (source.n_faces, 3)), w)
        for i in range(3):
            np.add.at(out[rows], (slice(None), source.local_face_indices[:, i]), hats[:, :, i])
    return out / (4.0 * np.pi)


# max |D - D_ref| / max |D_ref| against the extended-precision reference, on level-2
# spheres: K on one, D12 (Gamma_1's panels at Gamma_2) and D21 (the reverse) on two 3
# apart.  Before the hats were formed from per-target moments these read 1.42e-14,
# 1.65e-13 and 1.54e-13; the bounds are twice that.
@pytest.mark.parametrize(
    "case, bound", [("K", 2.84e-14), ("D12", 3.3e-13), ("D21", 3.08e-13)]
)
def test_double_layer_error_against_extended_precision(sphere2, case, bound):
    s1 = sphere2.boundary()
    s2 = icosphere_volume(2, n_radial=2, center=(3.0, 0.0, 0.0)).boundary()
    source, target = {"K": (s1, s1), "D12": (s1, s2), "D21": (s2, s1)}[case]
    reference = longdouble_double_layer(source, target)
    error = np.abs(layer_integrals(source, target, False, True)[1] - reference).max()
    assert error <= bound * np.abs(reference).max()


def add_at_assemble_bem(surface):
    """V and K as assembled serially: each face's rule contracted into its
    moments, which per-column np.add.at scatters of their products with the
    per-panel hat coefficients gather onto K's node columns."""
    quad_bary, quad_w = TRI_QUAD_POINTS, TRI_QUAD_WEIGHTS
    geo = panel_geometry(surface)
    coef = hat_coefficients(surface)
    f_count, nq = surface.n_faces, len(quad_w)
    v_mat = np.zeros((f_count, f_count))
    k_mat = np.zeros((f_count, surface.boundary_nodes.size))
    quad_pts = np.einsum("qk,fkd->fqd", quad_bary, surface.vertex_coords)
    col_idx = surface.local_face_indices
    step = max(1, _batch_points(f_count) // nq)
    for start in range(0, f_count, step):
        stop = min(start + step, f_count)
        nf = stop - start
        pts = quad_pts[start:stop]
        single, omega, edge = panel_integrals(geo, pts.reshape(-1, 3), True, True)
        w = surface.areas[start:stop, None] * quad_w[None, :]
        v_mat[start:stop] = np.einsum("bqf,bq->bf", single.reshape(nf, nq, f_count), w)
        moments = np.empty((nf, 4, nq))
        moments[:, 0] = w
        np.multiply(w[:, None], (pts - geo.origin).transpose(0, 2, 1), out=moments[:, 1:])
        r = np.concatenate(
            [
                moments @ omega.reshape(nf, nq, f_count),
                np.einsum("ebqf,bq->bef", edge.reshape(3, nf, nq, f_count), w),
            ],
            axis=1,
        )
        for c in range(7):  # in the sparse product's order: moment, face, vertex
            terms = r[:, c, :, None] * coef[c]
            np.add.at(k_mat[start:stop], (slice(None), col_idx.ravel()), terms.reshape(nf, -1))
    v_mat *= 1.0 / (4.0 * np.pi)
    k_mat *= 1.0 / (4.0 * np.pi)
    return 0.5 * (v_mat + v_mat.T), k_mat


@pytest.mark.parametrize("level, n_radial", [(1, 2), (3, 4)])
def test_assemble_bem_scatter_matches_add_at(level, n_radial):
    surf = icosphere_volume(level, n_radial=n_radial).boundary()
    v, k = assemble_bem(surf, True, True)
    v_ref, k_ref = add_at_assemble_bem(surf)
    np.testing.assert_array_equal(v, v_ref)
    assert np.abs(k - k_ref).max() <= 1e-14 * np.abs(k_ref).max()


def test_panel_integrals_match_brute_force(cube1):
    surf = cube1.boundary()
    geo = panel_geometry(surf)
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(6):
        x = rng.normal(size=3) * 1.5 + 0.5
        single, omega, edge = panel_integrals(geo, x[None], True, True)
        double_p1 = panel_hats(surf, x[None], omega, edge)
        for f in range(surf.n_faces):
            v = surf.vertex_coords[f]
            if np.linalg.norm(x - v.mean(axis=0)) < 0.4:
                continue  # brute rule too inaccurate near the panel
            sb, ob, db = brute_panel(x, v)
            assert abs(single[0, f] - sb) < 5e-5
            assert abs(omega[0, f] - ob) < 5e-5
            assert np.abs(double_p1[0, f] - db).max() < 5e-5
            checked += 1
    assert checked > 30


def test_panel_hats_sum_to_constant_density(sphere1):
    # the three hat integrals add up to the constant-density integral
    surf = sphere1.boundary()
    geo = panel_geometry(surf)
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(5, 3)) * 2.0
    _, omega, edge = panel_integrals(geo, pts, True, True)
    np.testing.assert_allclose(panel_hats(surf, pts, omega, edge).sum(axis=2), omega, atol=1e-10)


def test_solid_angle_sign_convention(cube1):
    surf = cube1.boundary()
    inside = solid_angles(surf, np.array([[0.5, 0.5, 0.5], [0.2, 0.3, 0.7]]))
    outside = solid_angles(surf, np.array([[5.0, 0.0, 0.0], [0.5, 0.5, -4.0]]))
    # outward normals make the full interior angle -4 pi
    np.testing.assert_allclose(inside, -4.0 * np.pi, rtol=1e-12)
    np.testing.assert_allclose(outside, 0.0, atol=1e-12)


def test_solid_angles_take_the_principal_value_on_the_surface(sphere1):
    # a face centroid sees -2 pi; a convex vertex sees minus its interior
    # solid angle, strictly between -2 pi and 0
    surf = sphere1.boundary()
    np.testing.assert_allclose(solid_angles(surf, centroids(surf)), -2.0 * np.pi, rtol=1e-12)
    at_nodes = solid_angles(surf, surf.nodes[surf.boundary_nodes])
    assert (at_nodes > -2.0 * np.pi).all() and (at_nodes < 0.0).all()


def test_double_layer_of_ones_is_indicator(sphere1):
    surf = sphere1.boundary()
    ones = np.ones(surf.boundary_nodes.size)
    pts_in = np.array([[0.0, 0.0, 0.0], [0.2, 0.1, -0.1], [0.0, 0.0, 0.4]])
    pts_out = pts_in + [3.0, 0.0, 0.0]
    np.testing.assert_allclose(eval_double_layer(surf, pts_in) @ ones, -1.0, rtol=1e-12)
    np.testing.assert_allclose(eval_double_layer(surf, pts_out) @ ones, 0.0, atol=1e-12)


def test_galerkin_constant_identity(sphere1):
    # rows of (K + Mb/2) 1 vanish: the on-surface angles telescope exactly
    surf = sphere1.boundary()
    _, k = assemble_bem(surf, True, True)
    assert gauss_residual(surf, k) < 1e-12


def test_single_layer_symmetric_positive(sphere1):
    V, _ = assemble_bem(sphere1.boundary(), True, True)
    np.testing.assert_array_equal(V, V.T)
    assert np.abs(V - V.T).max() < 1e-10
    rng = np.random.default_rng(0)
    for _ in range(50):
        phi = rng.normal(size=V.shape[0])
        assert phi @ (V @ phi) > 0.0


def test_operator_shapes(sphere1):
    surf = sphere1.boundary()
    v, k = assemble_bem(surf, True, True)
    f, nb = surf.n_faces, surf.boundary_nodes.size
    assert v.shape == (f, f)
    assert k.shape == (f, nb)


@pytest.mark.parametrize("level", [1, 2])
def test_jump_relation_double_layer(level):
    mesh = icosphere_volume(level, n_radial=2)
    surf = mesh.boundary()
    g = mesh.nodes[surf.boundary_nodes, 2]
    eps = np.sqrt(surf.areas.mean()) / 100.0
    up = centroids(surf) + eps * surf.normals
    down = centroids(surf) - eps * surf.normals
    jump = (eval_double_layer(surf, up) - eval_double_layer(surf, down)) @ g
    target = g[surf.local_face_indices].mean(axis=1)  # P1 density at centroids
    assert np.abs(jump - target).max() < 5e-2


def test_jump_error_shrinks_under_refinement():
    errs = []
    for level in (1, 2):
        mesh = icosphere_volume(level, n_radial=2)
        surf = mesh.boundary()
        g = mesh.nodes[surf.boundary_nodes, 2]
        eps = np.sqrt(surf.areas.mean()) / 100.0
        up = centroids(surf) + eps * surf.normals
        down = centroids(surf) - eps * surf.normals
        jump = (eval_double_layer(surf, up) - eval_double_layer(surf, down)) @ g
        errs.append(np.abs(jump - g[surf.local_face_indices].mean(axis=1)).max())
    assert errs[1] < errs[0]


def test_single_layer_continuous_across_surface(sphere1):
    surf = sphere1.boundary()
    phi = np.ones(surf.n_faces)
    eps = np.sqrt(surf.areas.mean()) / 100.0
    up = centroids(surf) + eps * surf.normals
    down = centroids(surf) - eps * surf.normals
    gap = (eval_single_layer(surf, up) - eval_single_layer(surf, down)) @ phi
    assert np.abs(gap).max() < 5e-3


def test_shell_potential_refines_monotonically():
    # uniform unit density on the unit sphere: interior potential is 1;
    # the polyhedral approximation recovers it from below as faces refine
    errs = []
    pts = np.array([[0.0, 0.0, 0.0], [0.2, 0.1, -0.1], [0.0, 0.0, 0.4]])
    for level in (0, 1, 2):
        surf = icosphere_volume(level, n_radial=2).boundary()
        u = eval_single_layer(surf, pts) @ np.ones(surf.n_faces)
        errs.append(np.abs(u - 1.0).max())
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.02


def test_eval_walks_points_in_batches(sphere1, monkeypatch):
    from multimag import bem

    surf = sphere1.boundary()
    batch = 16
    monkeypatch.setattr(bem, "BATCH_PAIRS", batch * surf.n_faces)
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(3 * batch + 5, 3)) * 2.0
    sizes = []
    panel_integrals = bem.panel_integrals

    def recording(geo, points, *layers):
        sizes.append(len(points))
        return panel_integrals(geo, points, *layers)

    monkeypatch.setattr(bem, "panel_integrals", recording)
    whole_single = eval_single_layer(surf, pts)
    whole_double = eval_double_layer(surf, pts)
    # batches may finish in any order on the worker pool
    assert sorted(sizes) == sorted([batch, batch, batch, 5] * 2)
    chunks = [pts[i : i + batch] for i in range(0, len(pts), batch)]
    np.testing.assert_array_equal(
        whole_single, np.concatenate([eval_single_layer(surf, c) for c in chunks])
    )
    np.testing.assert_array_equal(
        whole_double, np.concatenate([eval_double_layer(surf, c) for c in chunks])
    )


def test_assemble_bem_matches_face_integrals_of_point_operators(monkeypatch):
    # V and K are the point operators integrated over the test faces by the
    # shared face rule; every double layer reaches its node columns through
    # the one memoised hat map of the surface
    from multimag import bem

    surf = icosphere_volume(1, n_radial=2).boundary()
    maps = []
    hat_map = bem.hat_map

    def recording(surface):
        maps.append(hat_map(surface))
        return maps[-1]

    monkeypatch.setattr(bem, "hat_map", recording)
    v_ops, k_ops = assemble_bem(surf, True, True)
    points, weights = face_quadrature(surf)
    shape = weights.shape + (-1,)
    single = eval_single_layer(surf, points.reshape(-1, 3)).reshape(shape)
    double = eval_double_layer(surf, points.reshape(-1, 3)).reshape(shape)
    v = np.einsum("fq,fqk->fk", weights, single)
    v = 0.5 * (v + v.T)
    k = np.einsum("fq,fqk->fk", weights, double)
    assert np.abs(v_ops - v).max() <= 1e-13 * np.abs(v).max()
    assert np.abs(k_ops - k).max() <= 1e-13 * np.abs(k).max()
    assert maps and all(i is maps[0] for i in maps)


def test_assemble_bem_independent_of_batch_size(sphere1, monkeypatch):
    from multimag import bem

    surf = sphere1.boundary()
    reference = assemble_bem(surf, True, True)
    for points_per_batch in (1, 64):  # one face per batch, then nine
        monkeypatch.setattr(bem, "BATCH_PAIRS", points_per_batch * surf.n_faces)
        for small, whole in zip(assemble_bem(surf, True, True), reference, strict=True):
            np.testing.assert_array_equal(small, whole)


def test_solid_angles_match_unbatched_form(sphere1, monkeypatch):
    from multimag import bem

    surf = sphere1.boundary()
    geo = panel_geometry(surf)
    pts = np.random.default_rng(13).normal(size=(70, 3)) * 1.5
    planes = _coordinates(geo, pts)
    _, vertex_sq, dist = _vertex_distances(geo, planes[0], planes[1:4], planes[4:7])
    whole = _solid_angle(geo, planes[0], vertex_sq, dist).sum(axis=1)
    monkeypatch.setattr(bem, "BATCH_PAIRS", 16 * surf.n_faces)
    monkeypatch.setattr(bem, "_usable_cpus", lambda: 3)
    np.testing.assert_array_equal(solid_angles(surf, pts), whole)


def test_lone_point_rows_match_a_batch(sphere2):
    # a point's row must not depend on whether it lands alone in a batch:
    # a one-row coordinate product would go to BLAS gemv, which rounds
    # differently from the gemm of a larger batch
    surf = sphere2.boundary()
    pts = np.random.default_rng(0).normal(size=(20, 3)) * 1.5
    for evaluate in (eval_single_layer, eval_double_layer, solid_angles):
        alone = np.concatenate([evaluate(surf, pts[i : i + 1]) for i in range(len(pts))])
        np.testing.assert_array_equal(alone, evaluate(surf, pts))


def bem_results(surface, pts):
    """Every batched BEM output, for comparisons across worker counts."""
    return [
        *assemble_bem(surface, True, True),
        eval_single_layer(surface, pts),
        eval_double_layer(surface, pts),
        solid_angles(surface, pts),
    ]


@pytest.mark.parametrize("workers", [2, 3, 64])
def test_bem_results_independent_of_worker_count(sphere1, monkeypatch, workers):
    # 16-point batches: 40 in assemble_bem (2 faces each), 4 in each eval;
    # 64 workers is more than the cores and more than the eval batches
    from multimag import bem

    surf = sphere1.boundary()
    pts = np.random.default_rng(14).normal(size=(60, 3)) * 2.0
    monkeypatch.setattr(bem, "BATCH_PAIRS", 16 * surf.n_faces)
    monkeypatch.setattr(bem, "_usable_cpus", lambda: 1)
    serial = bem_results(surf, pts)
    threads_before = threading.active_count()
    monkeypatch.setattr(bem, "_usable_cpus", lambda: workers)
    swept = bem_results(surf, pts)
    assert threading.active_count() == threads_before  # the pool is shut down
    for a, b in zip(swept, serial):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("workers", [1, 3])
def test_layer_integrals_are_both_layers_from_one_sweep(sphere1, monkeypatch, workers):
    # 16 F pairs per batch hold 2 target faces of 7 points: 40 batches over
    # 80 faces, one panel_integrals call each, whose output fills the rows
    # of both S and D; a second sweep for either layer would double the calls
    from multimag import bem

    source = sphere1.boundary()
    target = icosphere_volume(1, n_radial=2, center=(3.0, 0.0, 0.0)).boundary()
    monkeypatch.setattr(bem, "BATCH_PAIRS", 16 * source.n_faces)
    monkeypatch.setattr(bem, "_usable_cpus", lambda: workers)
    calls = []
    outputs = {}
    panel_integrals = bem.panel_integrals

    def recording(geo, points, *layers):
        panels = panel_integrals(geo, points, *layers)
        calls.append(len(points))
        outputs[points[0].tobytes()] = panels
        return panels

    monkeypatch.setattr(bem, "panel_integrals", recording)
    single, double = layer_integrals(source, target, True, True)
    assert calls == [14] * 40
    assert single.shape == (target.n_faces, source.n_faces)
    assert double.shape == (target.n_faces, source.boundary_nodes.size)
    # rows 2b and 2b + 1 of both layers are batch b's panel integrals
    # summed by the face rule: the single layer directly, the double layer
    # as the rule's moments [w Omega, w (x - origin) Omega, w zeta P_e]
    # through the hat map
    points, weights = face_quadrature(target)
    origin = panel_geometry(source).origin
    for b in (0, 17, 39):
        rows = slice(2 * b, 2 * b + 2)
        s_pts, omega, edge = outputs[points[2 * b, 0].tobytes()]
        w = weights[rows]
        s_rows = np.einsum("bqf,bq->bf", s_pts.reshape(2, 7, -1), w)
        moments = np.empty((2, 4, 7))
        moments[:, 0] = w
        np.multiply(w[:, None], (points[rows] - origin).transpose(0, 2, 1), out=moments[:, 1:])
        r = np.empty((2, 7, source.n_faces))
        np.matmul(moments, omega.reshape(2, 7, -1), out=r[:, :4])
        np.einsum("ebqf,bq->bef", edge.reshape(3, 2, 7, -1), w, out=r[:, 4:])
        d_rows = r.reshape(2, -1) @ bem.hat_map(source)
        np.testing.assert_array_equal(single[rows], s_rows * (1.0 / (4.0 * np.pi)))
        np.testing.assert_array_equal(double[rows], d_rows * (1.0 / (4.0 * np.pi)))


@pytest.mark.parametrize("level, n_radial", [(1, 2), (3, 4)])
@pytest.mark.parametrize(
    "workers, faces_per_batch", [(1, None), (3, 2)], ids=["1-default", "3-small"]
)
def test_each_layer_alone_is_its_half_of_both(
    monkeypatch, level, n_radial, workers, faces_per_batch
):
    # a sweep asked for one layer integrates it exactly as the both-layer
    # sweep does, whatever the worker count and batch size, and returns
    # None for the other; V is symmetrised only when it is built
    from multimag import bem

    surf = icosphere_volume(level, n_radial=n_radial).boundary()
    monkeypatch.setattr(bem, "_usable_cpus", lambda: workers)
    if faces_per_batch is not None:
        monkeypatch.setattr(bem, "BATCH_PAIRS", 7 * faces_per_batch * surf.n_faces)
    v, k = assemble_bem(surf, True, True)
    v_alone, none_k = assemble_bem(surf, True, False)
    none_v, k_alone = assemble_bem(surf, False, True)
    assert none_k is None and none_v is None
    np.testing.assert_array_equal(v_alone, v)
    np.testing.assert_array_equal(k_alone, k)
    np.testing.assert_array_equal(v_alone, v_alone.T)


def test_point_operators_request_only_their_layer(sphere1, monkeypatch):
    from multimag import bem

    surf = sphere1.boundary()
    pts = np.random.default_rng(18).normal(size=(70, 3)) * 2.0
    single, double = _at_points(surf, pts, True, True)
    requests = []
    panel_integrals = bem.panel_integrals

    def recording(geo, points, *layers):
        requests.append(layers)
        return panel_integrals(geo, points, *layers)

    monkeypatch.setattr(bem, "panel_integrals", recording)
    np.testing.assert_array_equal(eval_single_layer(surf, pts), single)
    assert requests and set(requests) == {(True, False)}
    requests.clear()
    np.testing.assert_array_equal(eval_double_layer(surf, pts), double)
    assert requests and set(requests) == {(False, True)}


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_targets=st.integers(1, 5),
    n_points=st.integers(1, 7),
    inside=st.booleans(),
)
def test_layers_rows_are_weighted_point_operator_rows(sphere1, seed, n_targets, n_points, inside):
    # any rule on any targets: each row of _layers is the weighted sum of
    # the point operators' rows at its points.  A double layer row combines
    # its rule's summed moments about the surface's mean vertex, a point
    # operator row each point's own, and the affine hat parts cancel by up to
    # |x - origin| |g_i| ~ 15 here: over 8000 draws of this strategy the two
    # deviated by at most 6.7e-14 of the scale (1e-14 held when both routes
    # formed the hats at each point)
    surf = sphere1.boundary()
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(n_targets, n_points, 3))
    directions /= np.linalg.norm(directions, axis=2, keepdims=True)
    low, high = (0.0, 0.6) if inside else (1.5, 4.0)  # the faces lie at radii 0.93-1
    points = directions * rng.uniform(low, high, size=(n_targets, n_points, 1))
    weights = rng.uniform(0.1, 1.0, size=(n_targets, n_points))
    single, double = _layers(surf, points, weights, True, True)
    flat = points.reshape(-1, 3)
    for layers, ops in (
        (single, eval_single_layer(surf, flat)),
        (double, eval_double_layer(surf, flat)),
    ):
        ops = ops.reshape(n_targets, n_points, -1)
        expect = np.einsum("tq,tqk->tk", weights, ops)
        scale = np.einsum("tq,tqk->tk", weights, np.abs(ops)).max(axis=1)
        assert np.all(np.abs(layers - expect).max(axis=1) <= 1.5e-13 * scale)


def test_import_starts_no_thread():
    import multimag

    code = "import threading, multimag; assert threading.active_count() == 1"
    package_root = os.path.dirname(os.path.dirname(multimag.__file__))
    env = {**os.environ, "PYTHONPATH": package_root}
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env=env)


@pytest.mark.parametrize("workers", [1, 4])
def test_error_in_one_batch_propagates(sphere1, monkeypatch, workers):
    from multimag import bem

    surf = sphere1.boundary()
    pts = np.random.default_rng(16).normal(size=(60, 3)) * 2.0
    monkeypatch.setattr(bem, "BATCH_PAIRS", 16 * surf.n_faces)
    monkeypatch.setattr(bem, "_usable_cpus", lambda: workers)
    panel_integrals = bem.panel_integrals
    for call in (
        lambda: assemble_bem(surf, True, True),
        lambda: eval_single_layer(surf, pts),
        lambda: eval_double_layer(surf, pts),
        lambda: layer_integrals(surf, surf, True, True),
    ):
        calls = itertools.count()

        def failing(geo, points, *layers, calls=calls):
            if next(calls) == 2:  # the third batch to start
                raise RuntimeError("panel batch failed")
            return panel_integrals(geo, points, *layers)

        monkeypatch.setattr(bem, "panel_integrals", failing)
        with pytest.raises(RuntimeError, match="panel batch failed"):
            call()


def test_sweep_stress_with_short_switch_interval(sphere1, monkeypatch):
    # many single-point batches on more threads than cores, with the
    # interpreter switching threads as often as it can: a lost or misplaced
    # row write shows as a difference from the serial result
    from multimag import bem

    surf = sphere1.boundary()
    pts = np.random.default_rng(17).normal(size=(96, 3)) * 2.0
    monkeypatch.setattr(bem, "BATCH_PAIRS", surf.n_faces)
    monkeypatch.setattr(bem, "_usable_cpus", lambda: 1)
    serial = eval_single_layer(surf, pts), solid_angles(surf, pts)
    monkeypatch.setattr(bem, "_usable_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 3.0
        rounds = 0
        while rounds < 20 and time.monotonic() < deadline:
            np.testing.assert_array_equal(eval_single_layer(surf, pts), serial[0])
            np.testing.assert_array_equal(solid_angles(surf, pts), serial[1])
            rounds += 1
    finally:
        sys.setswitchinterval(interval)
    assert rounds >= 1
