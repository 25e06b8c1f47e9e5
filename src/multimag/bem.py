"""Boundary integral operators on closed triangulated surfaces.

Kernel conventions, with R = |x - y| and nu the outward unit normal:

* single layer   (S phi)(x) = 1/(4 pi) int_Gamma phi(y) / R dGamma(y)
* double layer   (D u)(x)   = 1/(4 pi) int_Gamma u(y) (x - y).nu(y) / R^3 dGamma(y)

With these signs the constant function satisfies (D 1)(x) = -1 for x inside
the surface, 0 outside, and the on-surface principal value of D 1 is -1/2 at
smooth points.

Panel integrals are closed-form.  Writing zeta for the signed height of the
evaluation point x over the panel plane, x_par for its in-plane projection,
m_e for the outward in-plane edge normals, d_e = (a_e - x_par).m_e, and
P_e for the segment integral of 1/R along edge e:

    int_T 1/R dA            = sum_e d_e P_e - zeta Omega
    int_T lam_i (x-y).nu/R^3 dA = lam_i(x_par) Omega - zeta sum_e (g_i.m_e) P_e

where Omega is the solid angle of T seen from x, signed positive on the +nu
side (Van Oosterom-Strackee), and g_i the in-plane gradient of the hat
lam_i.  Both right-hand sides vanish termwise as zeta -> 0 except for the
jump carried by Omega, so taking Omega = 0 when x lies in the panel plane
yields the principal value automatically; self-panel Galerkin entries of the
double layer are exactly zero.

Galerkin matrices use the 7-point triangle rule for the outer (test)
integral and the closed forms for the inner one.

Potentials at arbitrary points (``eval_single_layer``,
``eval_double_layer``) take one density or a matrix whose columns are
densities, so a fixed point set can be turned into a dense transfer matrix
by evaluating the identity.  Assembly and evaluation both walk the points in
batches of BATCH_POINTS, which keeps their memory O(BATCH_POINTS * F).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .fem import assemble_boundary_mass, face_quadrature_rule
from .mesh import SurfaceMesh

# Points closer to a panel plane (or edge line) than this, relative to the
# panel diameter, are treated as lying on it (principal value).
_PLANE_TOL = 1e-12

# Evaluation points per panel_integrals call.  Each call builds several
# (points, faces, 3) temporaries, so this bounds the working memory of
# assemble_bem and eval_* at O(BATCH_POINTS * F) whatever the point count.
BATCH_POINTS = 512


@dataclass
class PanelGeometry:
    """Per-face quantities the closed-form integrals need, precomputed."""

    vertices: np.ndarray  # (F, 3, 3)
    normals: np.ndarray  # (F, 3)
    tangents: np.ndarray  # (F, 3, 3) unit edge directions, cyclic
    edge_normals: np.ndarray  # (F, 3, 3) outward in-plane edge normals
    hat_gradients: np.ndarray  # (F, 3, 3) in-plane gradients of the hats
    diameters: np.ndarray  # (F,)


def panel_geometry(surface: SurfaceMesh) -> PanelGeometry:
    v = surface.vertex_coords
    n = surface.normals
    edges = np.roll(v, -1, axis=1) - v
    lengths = np.linalg.norm(edges, axis=2)
    t = edges / lengths[:, :, None]
    m = np.cross(t, n[:, None, :])
    # In-plane hat gradients: g_i is normal to the opposite edge (i+1 -> i+2),
    # points toward vertex i, magnitude 1/height = |e_opp| / (2 |T|).
    areas = surface.areas
    g = np.empty_like(t)
    for i in range(3):
        opp = (i + 1) % 3
        g[:, i, :] = -m[:, opp, :] * (lengths[:, opp] / (2.0 * areas))[:, None]
    return PanelGeometry(
        vertices=v,
        normals=n,
        tangents=t,
        edge_normals=m,
        hat_gradients=g,
        diameters=lengths.max(axis=1),
    )


def panel_integrals(
    geo: PanelGeometry, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form single and double layer panel integrals, unscaled.

    Args:
        geo: precomputed panel geometry for F faces.
        points: (P, 3) evaluation points.

    Returns:
        ``(single, omega, double_p1)`` with shapes (P, F), (P, F), (P, F, 3):
        int_T 1/R dA, the signed solid angle (the constant-density double
        layer integral), and the three hat-density double layer integrals.
        No 1/(4 pi) factor is applied.
    """
    points = np.asarray(points, dtype=np.float64)
    v = geo.vertices
    n = geo.normals
    P = points.shape[0]
    F = v.shape[0]

    rel0 = points[:, None, :] - v[None, :, 0, :]  # (P, F, 3)
    zeta = np.einsum("pfd,fd->pf", rel0, n)
    xpar = points[:, None, :] - zeta[:, :, None] * n[None, :, :]

    on_plane = np.abs(zeta) <= _PLANE_TOL * geo.diameters[None, :]

    # vertex offsets and distances, shared by the solid angle and the edges
    rel = v[None, :, :, :] - points[:, None, None, :]  # (P, F, 3, 3)
    dist = np.linalg.norm(rel, axis=3)  # (P, F, 3)
    omega = _solid_angle(rel, dist)
    omega[on_plane] = 0.0

    single = -zeta * omega
    edge_term = np.zeros((P, F, 3))  # sum_e (g_i . m_e) P_e per hat i
    for k in range(3):
        a = v[:, k, :]
        b = v[:, (k + 1) % 3, :]
        t = geo.tangents[:, k, :]
        m = geo.edge_normals[:, k, :]
        rel_a = a[None, :, :] - xpar
        d = np.einsum("pfd,fd->pf", rel_a, m)
        la = np.einsum("pfd,fd->pf", rel_a, t)
        lb = la + np.linalg.norm(b - a, axis=1)[None, :]
        ra = dist[:, :, k]
        rb = dist[:, :, (k + 1) % 3]
        h2 = d * d + zeta * zeta
        on_line = h2 <= (_PLANE_TOL * geo.diameters[None, :]) ** 2
        # Two algebraically equal forms of the segment integral of 1/R; pick
        # the one whose log argument stays away from 0.
        pos = la + lb > 0.0
        num = np.where(pos, rb + lb, ra - la)
        den = np.where(pos, ra + la, rb - lb)
        den = np.where(on_line, 1.0, den)
        num = np.where(on_line, 1.0, num)
        pe = np.log(num / den)
        single += d * pe
        gm = np.einsum("fid,fd->fi", geo.hat_gradients, m)  # (F, 3)
        edge_term += pe[:, :, None] * gm[None, :, :]

    lam0 = 1.0 + np.einsum("pfd,fd->pf", xpar - v[None, :, 0, :], geo.hat_gradients[:, 0, :])
    lam1 = np.einsum("pfd,fd->pf", xpar - v[None, :, 1, :], geo.hat_gradients[:, 1, :]) + 1.0
    lam_par = np.stack([lam0, lam1, 1.0 - lam0 - lam1], axis=2)
    double_p1 = lam_par * omega[:, :, None] - zeta[:, :, None] * edge_term
    return single, omega, double_p1


def _solid_angle(rel: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Signed solid angle of each triangle seen from each point, (P, F).

    Positive when the point lies on the side the face normal points into.

    Args:
        rel: (P, F, 3, 3) offsets from each point to each face's vertices.
        dist: (P, F, 3) their lengths.
    """
    r0, r1, r2 = rel[:, :, 0, :], rel[:, :, 1, :], rel[:, :, 2, :]
    n0, n1, n2 = dist[:, :, 0], dist[:, :, 1], dist[:, :, 2]
    det = np.einsum("pfd,pfd->pf", r0, np.cross(r1, r2))
    denom = (
        n0 * n1 * n2
        + n0 * np.einsum("pfd,pfd->pf", r1, r2)
        + n1 * np.einsum("pfd,pfd->pf", r2, r0)
        + n2 * np.einsum("pfd,pfd->pf", r0, r1)
    )
    return -2.0 * np.arctan2(det, denom)


def solid_angles(surface: SurfaceMesh, points: np.ndarray) -> np.ndarray:
    """Sum of signed panel solid angles at each point, (P,).

    Equals -4 pi at points inside the surface and 0 outside.
    """
    points = np.asarray(points, dtype=np.float64)
    rel = surface.vertex_coords[None, :, :, :] - points[:, None, None, :]
    return _solid_angle(rel, np.linalg.norm(rel, axis=3)).sum(axis=1)


@dataclass
class BemOperatorSet:
    """Galerkin boundary operators of a closed surface.

    Attributes:
        surface: the triangulation the operators act on.
        single_layer: (F, F) symmetric matrix of
            1/(4 pi) int_f int_f' 1/R, P0 test x P0 trial.
        double_layer: (F, Nb) matrix of the double layer with P1 trial hats
            (columns follow ``surface.boundary_nodes`` local ordering) tested
            against P0 face indicators.
        boundary_mass: (F, Nb) sparse mixed mass matrix.
    """

    surface: SurfaceMesh
    single_layer: np.ndarray
    double_layer: np.ndarray
    boundary_mass: sparse.csr_matrix

    def gauss_residual(self) -> float:
        """max_f |row_f of (double_layer + boundary_mass / 2) applied to 1|.

        The constant's interior trace identity makes every row vanish; the
        return value measures the implementation's quadrature and roundoff.
        """
        ones = np.ones(self.surface.boundary_nodes.size)
        rows = self.double_layer @ ones + 0.5 * (self.boundary_mass @ ones)
        return float(np.abs(rows).max())


def assemble_bem(surface: SurfaceMesh, *, quad_degree: int = 5) -> BemOperatorSet:
    """Assemble the Galerkin single and double layer matrices.

    Outer integrals use a triangle rule of the requested degree (5, the
    7-point default, or 2), inner integrals the closed forms; the single
    layer matrix is symmetrized afterwards since the two panels are treated
    asymmetrically by that pairing.  Test faces are walked in batches of at
    most BATCH_POINTS quadrature points.
    """
    quad_bary, quad_w = face_quadrature_rule(quad_degree)
    geo = panel_geometry(surface)
    f_count = surface.n_faces
    nb = surface.boundary_nodes.size
    v_mat = np.zeros((f_count, f_count))
    k_mat = np.zeros((f_count, nb))

    quad_pts = np.einsum("qk,fkd->fqd", quad_bary, surface.vertex_coords)
    col_idx = surface.local_face_indices  # (F, 3)

    faces_per_batch = max(1, BATCH_POINTS // len(quad_w))
    for start in range(0, f_count, faces_per_batch):
        stop = min(start + faces_per_batch, f_count)
        pts = quad_pts[start:stop].reshape(-1, 3)
        single, _, double_p1 = panel_integrals(geo, pts)
        nq = len(quad_w)
        nf = stop - start
        w = (surface.areas[start:stop, None] * quad_w[None, :]).reshape(-1)
        v_mat[start:stop] = np.einsum(
            "bqf,bq->bf", single.reshape(nf, nq, f_count), w.reshape(nf, nq)
        )
        k_rows = np.einsum(
            "bqfi,bq->bfi", double_p1.reshape(nf, nq, f_count, 3), w.reshape(nf, nq)
        )
        for local in range(3):
            np.add.at(k_mat[start:stop], (slice(None), col_idx[:, local]), k_rows[:, :, local])

    v_mat *= 1.0 / (4.0 * np.pi)
    k_mat *= 1.0 / (4.0 * np.pi)
    v_mat = 0.5 * (v_mat + v_mat.T)
    return BemOperatorSet(
        surface=surface,
        single_layer=v_mat,
        double_layer=k_mat,
        boundary_mass=assemble_boundary_mass(surface),
    )


def _density_columns(density: np.ndarray, rows: int, what: str) -> np.ndarray:
    """View a (rows,) or (rows, k) density as (rows, k); other shapes raise."""
    density = np.asarray(density, dtype=np.float64)
    if density.ndim not in (1, 2) or density.shape[0] != rows:
        raise ValueError(f"expected ({rows},) or ({rows}, k) {what}, got {density.shape}")
    return density.reshape(rows, -1)


def eval_single_layer(
    surface: SurfaceMesh, face_density: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Single layer potential of a P0 density at arbitrary points.

    Args:
        face_density: (F,) density, or (F, k) for k densities at once.
        points: (P, 3) evaluation points, walked in batches of BATCH_POINTS.

    Returns:
        (P,) potential, or (P, k) with column j the potential of density j.
    """
    density = _density_columns(face_density, surface.n_faces, "density")
    geo = panel_geometry(surface)
    points = np.asarray(points, dtype=np.float64)
    out = np.empty((points.shape[0], density.shape[1]))
    for start in range(0, points.shape[0], BATCH_POINTS):
        single, _, _ = panel_integrals(geo, points[start : start + BATCH_POINTS])
        out[start : start + BATCH_POINTS] = single @ density
    out /= 4.0 * np.pi
    return out.reshape(points.shape[:1] + np.shape(face_density)[1:])


def eval_double_layer(
    surface: SurfaceMesh, boundary_values: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Double layer potential of a P1 boundary field at arbitrary points.

    Args:
        boundary_values: (Nb,) nodal values in ``surface.boundary_nodes``
            local ordering, or (Nb, k) for k fields at once.
        points: (P, 3) evaluation points, walked in batches of BATCH_POINTS.

    Returns:
        (P,) potential, or (P, k) with column j the potential of field j.
    """
    values = _density_columns(boundary_values, surface.boundary_nodes.size, "boundary values")
    geo = panel_geometry(surface)
    points = np.asarray(points, dtype=np.float64)
    per_face = values[surface.local_face_indices].reshape(-1, values.shape[1])  # (3F, k)
    out = np.empty((points.shape[0], values.shape[1]))
    for start in range(0, points.shape[0], BATCH_POINTS):
        _, _, double_p1 = panel_integrals(geo, points[start : start + BATCH_POINTS])
        out[start : start + BATCH_POINTS] = double_p1.reshape(len(double_p1), -1) @ per_face
    out /= 4.0 * np.pi
    return out.reshape(points.shape[:1] + np.shape(boundary_values)[1:])
