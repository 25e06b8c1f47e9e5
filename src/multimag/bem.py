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
jump carried by Omega, so taking Omega = 0 and zeta = 0 when x lies in the
panel plane yields the principal value; self-panel Galerkin entries of the
double layer are exactly zero.

The edge tangents t_e, edge normals m_e and hat gradients g_i lie in the
panel plane, so every per-pair quantity is an affine function of x, and each
comes from one (P, 3) @ (3, F) matmul plus a per-face constant:

    zeta = x.nu - v_0.nu,   d_e = a_e.m_e - x.m_e,   l_e = a_e.t_e - x.t_e,
    lam_i(x_par) = 1 + x.g_i - v_i.g_i

(l_e is the signed distance along t_e from the projection of x to the edge's
start a_e = v_e).  With r_k = v_k - x, the vertex distances follow as
|r_e| = sqrt(d_e^2 + l_e^2 + zeta^2), the Van Oosterom-Strackee numerator
r_0.(r_1 x r_2) is -2 |T| zeta, and the pairwise products come from the law
of cosines, r_k.r_k+1 = (|r_k|^2 + |r_k+1|^2 - |e_k|^2) / 2.  So the kernel
only ever forms (points, faces) planes, besides its (points, faces, 3) hat
output.  Coordinates are taken relative to the surface's mean vertex, so
their rounding scales with the body's size, not with its distance from 0.

Galerkin matrices use the 7-point, degree-5 triangle rule of ``fem`` for
the outer (test) integral and the closed forms for the inner one.
``assemble_bem`` returns the pair (V, K); the boundary mass Mb that the
stray-field and coupling maps add to K is ``fem.assemble_boundary_mass``.

At arbitrary points, ``eval_single_layer`` and ``eval_double_layer``
return the operators themselves: (P, F) and (P, Nb) matrices whose product
with a density is its potential at the points.  The double layer reaches
its node columns through the surface's (3F, Nb) hat incidence, built once
per surface and shared with ``assemble_bem``.

Assembly, evaluation and ``solid_angles`` walk the points in batches of
about BATCH_PAIRS (point, panel) pairs, so a batch's (P, F) planes fit in
one core's L2 cache and the working memory is O(BATCH_PAIRS) per worker
whatever the point count.  The batches are swept on a thread pool with one
worker per usable CPU (numpy releases the GIL inside the plane
arithmetic).  Each batch writes only its own rows of the output and nothing
is reduced across batches, so the results are bit-identical whatever the
worker count or the order in which batches finish.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .fem import face_quadrature
from .mesh import SurfaceMesh

# Points closer to a panel plane (or edge line) than this, relative to the
# panel diameter, are treated as lying on it (principal value).
_PLANE_TOL = 1e-12

# Pairs closer than this to an edge line, relative to the panel diameter,
# are checked for cancellation in that edge's log term.  Farther out, the
# plain form's relative error stays below 2 (l / dist)^2 eps < 2e4 eps.
_NEAR_LINE = 1e-2

# (point, panel) pairs per panel_integrals call: a batch takes
# max(1, BATCH_PAIRS // F) points.  Each call builds a few dozen (points,
# faces) temporaries; at 2**16 pairs each is 0.5 MiB, so the live ones stay
# in a core's L2 cache instead of streaming through memory.
BATCH_PAIRS = 2**16


def _batch_points(n_faces: int) -> int:
    """Evaluation points per batch against ``n_faces`` panels."""
    return max(1, BATCH_PAIRS // n_faces)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sweep(batch, count: int, size: int) -> None:
    """Call ``batch(start, stop)`` on consecutive ranges of ``count`` items.

    Ranges hold ``size`` items (the last may hold fewer) and run on a
    thread pool of min(usable CPUs, ranges) workers, or in a plain loop with
    one.  ``batch`` must write only its own rows of a preallocated output,
    so the result does not depend on the worker count or on the order in
    which ranges finish.  An exception raised in any range propagates.
    """
    starts = range(0, count, size)

    def run(start: int) -> None:
        batch(start, min(start + size, count))

    workers = min(_usable_cpus(), len(starts))
    if workers <= 1:
        for start in starts:
            run(start)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for _ in pool.map(run, starts):  # reads every result, so errors raise here
            pass


@dataclass
class PanelGeometry:
    """Per-face quantities the closed-form integrals need, precomputed.

    ``(x - origin) @ frame[j] + offset[j]`` is, at each face, coordinate j
    of the point x: j = 0 is zeta, 1..3 are d_e, 4..6 are l_e and 7..8 are
    lam_0, lam_1 at x_par (see the module docstring).  Per-face vectors are
    stored face-last, so each (k, ...) slice is contiguous.
    """

    vertices: np.ndarray  # (F, 3, 3)
    origin: np.ndarray  # (3,) mean face vertex, subtracted from every point
    frame: np.ndarray  # (9, 3, F) coordinate directions
    offset: np.ndarray  # (9, F) coordinate constants
    hat_edge: np.ndarray  # (3, 3, F) g_i . m_e, indexed [i, e, f]
    edge_lengths: np.ndarray  # (3, F) |e_k| = |v_k+1 - v_k|
    areas: np.ndarray  # (F,)
    diameters: np.ndarray  # (F,)


def panel_geometry(surface: SurfaceMesh) -> PanelGeometry:
    origin = surface.vertex_coords.reshape(-1, 3).mean(axis=0)
    v = surface.vertex_coords - origin
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
    # rows: zeta, d_e, l_e, lam_0, lam_1, each direction . (x - anchor)
    directions = np.concatenate([n[:, None], -m, -t, g[:, :2]], axis=1)  # (F, 9, 3)
    anchors = np.concatenate([v[:, :1], v, v, v[:, :2]], axis=1)  # (F, 9, 3)
    offset = -np.einsum("fjd,fjd->jf", directions, anchors)
    offset[7:] += 1.0
    return PanelGeometry(
        vertices=surface.vertex_coords,
        origin=origin,
        frame=np.ascontiguousarray(directions.transpose(1, 2, 0)),
        offset=offset,
        hat_edge=np.einsum("fid,fed->ief", g, m),
        edge_lengths=np.ascontiguousarray(lengths.T),
        areas=areas,
        diameters=lengths.max(axis=1),
    )


def _coordinates(geo: PanelGeometry, points: np.ndarray, rows: range) -> list[np.ndarray]:
    """The (P, F) planes of the ``geo.frame`` coordinates in ``rows``."""
    x = np.asarray(points, dtype=np.float64) - geo.origin
    out = []
    for j in rows:
        plane = x @ geo.frame[j]
        plane += geo.offset[j]
        out.append(plane)
    return out


def _vertex_distances(
    geo: PanelGeometry, zeta: np.ndarray, d: list[np.ndarray], l: list[np.ndarray]
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Edge-line and vertex distances from the plane coordinates.

    Returns three lists of (P, F) planes, one entry per edge k starting at
    vertex k: whether the point lies within _NEAR_LINE of edge line k
    (d_k^2 + zeta^2 against the panel diameter), |r_k|^2 = d_k^2 + zeta^2
    + l_k^2, and |r_k|.
    """
    zeta_sq = zeta * zeta
    near_sq = (_NEAR_LINE * geo.diameters) ** 2
    near_line, vertex_sq = [], []
    for dk, lk in zip(d, l):
        line_sq = dk * dk + zeta_sq
        near_line.append(line_sq < near_sq)
        vertex_sq.append(line_sq + lk * lk)
    return near_line, vertex_sq, [np.sqrt(sq) for sq in vertex_sq]


def _solid_angle(
    geo: PanelGeometry, zeta: np.ndarray, vertex_sq: list[np.ndarray], dist: list[np.ndarray]
) -> np.ndarray:
    """Signed solid angle of each triangle seen from each point, (P, F).

    Positive when the point lies on the side the face normal points into.
    Van Oosterom-Strackee, Omega = -2 atan2(det, denom), with both arguments
    doubled (which leaves atan2 unchanged): 2 det = -4 |T| zeta, and
    2 r_k.r_k+1 = |r_k|^2 + |r_k+1|^2 - |e_k|^2 by the law of cosines.
    """
    denom = 2.0 * dist[0] * dist[1] * dist[2]
    for k in range(3):
        # |r_k| (2 r_k+1 . r_k+2)
        i, j = (k + 1) % 3, (k + 2) % 3
        denom += dist[k] * (vertex_sq[i] + vertex_sq[j] - geo.edge_lengths[i] ** 2)
    return -2.0 * np.arctan2((-4.0 * geo.areas) * zeta, denom)


def panel_integrals(
    geo: PanelGeometry, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form single and double layer panel integrals, unscaled.

    Every per-pair quantity is a (P, F) plane: zeta, d_e, l_e and the hats
    at x_par from one matmul each, the vertex distances from (d_e, l_e,
    zeta), the solid angle from det = -2 |T| zeta and the law of cosines.
    Pairs within _PLANE_TOL of the panel plane get zeta = Omega = 0 (the
    principal value, so their double_p1 is exactly 0), and pairs within it
    of an edge line drop that edge's log term, whose factors d_e and zeta
    vanish there.  Just outside that tolerance, the distance-plus-offset
    factor r + s l of the log argument cancels for points above the edge
    segment; where it does, it is taken as (d_e^2 + zeta^2) / (r - s l),
    so the result stays finite and accurate.

    Args:
        geo: precomputed panel geometry for F faces.
        points: (P, 3) evaluation points.

    Returns:
        ``(single, omega, double_p1)`` with shapes (P, F), (P, F), (P, F, 3):
        int_T 1/R dA, the signed solid angle (the constant-density double
        layer integral), and the three hat-density double layer integrals.
        No 1/(4 pi) factor is applied.
    """
    planes = _coordinates(geo, points, range(7))
    zeta, d, l = planes[0], planes[1:4], planes[4:7]
    del planes
    on_plane = np.abs(zeta) <= _PLANE_TOL * geo.diameters
    zeta[on_plane] = 0.0

    near_line, vertex_sq, dist = _vertex_distances(geo, zeta, d, l)
    omega = _solid_angle(geo, zeta, vertex_sq, dist)
    omega[on_plane] = 0.0
    del vertex_sq
    line_tol_sq = (_PLANE_TOL * geo.diameters) ** 2

    single = -zeta * omega
    pe = []  # segment integrals of 1/R along each edge
    for k in range(3):
        la = l[k]
        lb = la + geo.edge_lengths[k]
        # Two algebraically equal forms of the segment integral of 1/R,
        # log((rb + lb) / (ra + la)) = log((ra - la) / (rb - lb)); pick the
        # one whose log argument stays away from 0, as s log(num / den).
        s = np.where(la + lb > 0.0, 1.0, -1.0)
        num = s * lb + dist[(k + 1) % 3]
        den = s * la + dist[k]
        # Close to the edge line, r + s l cancels where s l < 0 (den for
        # s = 1, num for s = -1).  Where it keeps less than half of r, it
        # takes the rationalised form (r^2 - l^2) / (r - s l), that is
        # (d^2 + zeta^2) / (2 r - (r + s l)).  On the line the log term's
        # factors vanish, and num = den = 1 drops it.
        near = np.flatnonzero(near_line[k])  # usually empty; flat is the fast scan
        if near.size:
            sq = np.take(d[k], near) ** 2 + np.take(zeta, near) ** 2
            on_line = sq <= np.take(line_tol_sq, near % zeta.shape[1])
            for q, r in ((num, dist[(k + 1) % 3]), (den, dist[k])):
                qn, rn = np.take(q, near), np.take(r, near)
                cancels = qn < 0.5 * rn
                qn[cancels] = sq[cancels] / (2.0 * rn[cancels] - qn[cancels])
                qn[on_line] = 1.0
                np.put(q, near, qn)
        num /= den
        pk = np.log(num, out=num)
        pk *= s
        single += d[k] * pk
        pe.append(pk)
    del d, l, dist

    double_p1 = np.empty(zeta.shape + (3,))
    lam = _coordinates(geo, points, range(7, 9))
    lam.append(1.0 - lam[0] - lam[1])
    for i in range(3):
        c = geo.hat_edge[i]  # g_i . m_e
        edge_term = pe[0] * c[0] + pe[1] * c[1] + pe[2] * c[2]
        edge_term *= zeta
        hat = lam[i]
        hat *= omega
        hat -= edge_term
        double_p1[:, :, i] = hat
    return single, omega, double_p1


def solid_angles(surface: SurfaceMesh, points: np.ndarray) -> np.ndarray:
    """Sum of signed panel solid angles at each point, (P,).

    Equals -4 pi at points inside the surface and 0 outside.  On it, panels
    whose plane holds the point add nothing: the principal value, -2 pi on a face.
    """
    geo = panel_geometry(surface)
    points = np.asarray(points, dtype=np.float64)
    out = np.empty(points.shape[0])

    def batch(start: int, stop: int) -> None:
        planes = _coordinates(geo, points[start:stop], range(7))
        zeta = planes[0]
        _, vertex_sq, dist = _vertex_distances(geo, zeta, planes[1:4], planes[4:7])
        omega = _solid_angle(geo, zeta, vertex_sq, dist)
        omega[np.abs(zeta) <= _PLANE_TOL * geo.diameters] = 0.0
        out[start:stop] = omega.sum(axis=1)

    _sweep(batch, points.shape[0], _batch_points(surface.n_faces))
    return out


def hat_incidence(surface: SurfaceMesh) -> sparse.csr_matrix:
    """(3F, Nb) incidence of face vertices on boundary nodes.

    Row 3f + i holds a 1 in the column of face f's vertex i (in
    ``surface.boundary_nodes`` local ordering), so it sums per-face hat
    rows, shaped (..., 3F), into node columns.  Built once per surface.
    """
    if "bem.hat_incidence" not in surface._cache:
        rows = 3 * surface.n_faces
        surface._cache["bem.hat_incidence"] = sparse.csr_matrix(
            (np.ones(rows), (np.arange(rows), surface.local_face_indices.ravel())),
            shape=(rows, surface.boundary_nodes.size),
        )
    return surface._cache["bem.hat_incidence"]


def assemble_bem(surface: SurfaceMesh) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the Galerkin single and double layer matrices.

    Returns ``(V, K)``: V the symmetric (F, F) P0 x P0 single layer, K the
    (F, Nb) double layer of P1 hats (columns in ``surface.boundary_nodes``
    local ordering) tested against P0 face indicators.

    Outer integrals use ``fem.face_quadrature``, inner integrals the closed
    forms; the single layer matrix is symmetrized afterwards since the two
    panels are treated asymmetrically by that pairing.  Test faces are
    swept in batches of at most BATCH_PAIRS // F quadrature points (one
    face at least); each batch's double layer rows reach their node columns
    through one product with the surface's ``hat_incidence``.
    """
    geo = panel_geometry(surface)
    f_count = surface.n_faces
    v_mat = np.zeros((f_count, f_count))
    k_mat = np.zeros((f_count, surface.boundary_nodes.size))
    quad_pts, weights = face_quadrature(surface)
    incidence = hat_incidence(surface)
    nq = weights.shape[1]

    def batch(start: int, stop: int) -> None:
        single, _, double_p1 = panel_integrals(geo, quad_pts[start:stop].reshape(-1, 3))
        nf = stop - start
        w = weights[start:stop]
        v_mat[start:stop] = np.einsum("bqf,bq->bf", single.reshape(nf, nq, f_count), w)
        k_rows = np.einsum("bqfi,bq->bfi", double_p1.reshape(nf, nq, f_count, 3), w)
        k_mat[start:stop] = k_rows.reshape(nf, -1) @ incidence

    _sweep(batch, f_count, max(1, _batch_points(f_count) // nq))

    v_mat *= 1.0 / (4.0 * np.pi)
    k_mat *= 1.0 / (4.0 * np.pi)
    return 0.5 * (v_mat + v_mat.T), k_mat


def _point_operator(surface: SurfaceMesh, points: np.ndarray, columns: int, rows) -> np.ndarray:
    """(P, columns) operator at the points, 1/(4 pi) times ``rows`` of each
    batch's ``panel_integrals``; batches hold BATCH_PAIRS // F points."""
    geo = panel_geometry(surface)
    points = np.asarray(points, dtype=np.float64)
    out = np.empty((points.shape[0], columns))

    def batch(start: int, stop: int) -> None:
        out[start:stop] = rows(panel_integrals(geo, points[start:stop]))

    _sweep(batch, points.shape[0], _batch_points(surface.n_faces))
    out /= 4.0 * np.pi
    return out


def eval_single_layer(surface: SurfaceMesh, points: np.ndarray) -> np.ndarray:
    """(P, F) single layer operator: its product with a P0 face density is
    the potential at the (P, 3) points."""
    return _point_operator(surface, points, surface.n_faces, lambda panels: panels[0])


def eval_double_layer(surface: SurfaceMesh, points: np.ndarray) -> np.ndarray:
    """(P, Nb) double layer operator: its product with P1 nodal values, in
    ``surface.boundary_nodes`` local ordering, is the potential at the
    (P, 3) points.  Hat rows reach node columns through ``hat_incidence``."""
    incidence = hat_incidence(surface)

    def rows(panels):
        double_p1 = panels[2]
        return double_p1.reshape(len(double_p1), -1) @ incidence

    return _point_operator(surface, points, incidence.shape[1], rows)
