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

The edge tangents t_e and edge normals m_e lie in the panel plane, so every
per-pair coordinate is an affine function of x, and each comes from one
(P, 4) @ (4, F) matmul of [x, 1] with its direction and per-face constant:

    zeta = x.nu - v_0.nu,   d_e = a_e.m_e - x.m_e,   l_e = a_e.t_e - x.t_e

(l_e is the signed distance along t_e from the projection of x to the edge's
start a_e = v_e).  With r_k = v_k - x, the vertex distances follow as
|r_e| = sqrt(d_e^2 + l_e^2 + zeta^2), the Van Oosterom-Strackee numerator
r_0.(r_1 x r_2) is -2 |T| zeta, and the pairwise products come from the law
of cosines, r_k.r_k+1 = (|r_k|^2 + |r_k+1|^2 - |e_k|^2) / 2.  So the kernel
only ever forms (points, faces) planes: the single layer, Omega, and the
double layer's edge planes zeta P_e.  Coordinates are taken relative to the
surface's mean vertex, so their rounding scales with the body's size, not
with its distance from 0.

One sweep routine, ``_layers``, integrates the single and double layer
potentials of a source surface by a quadrature rule on each of T targets,
integrating only the layers its caller asks for (two booleans, ``single,
double``; the other output is None).  The hat lam_i(x) = 1 + g_i.(x - v_i)
is affine in x too, so a target's hat integrals are fixed combinations of
its rule's moments w Omega, w (x - origin) Omega and w zeta P_e: the sweep
contracts each target's rule into these 7 (F,) rows first, and one product
with the source's fixed sparse (7F, Nb) ``hat_map`` gives the node columns.
``layer_integrals(source, target, single, double)`` is that routine on the
7-point, degree-5 triangle rule of ``fem`` over the target's faces (the outer
integral; the inner one is closed-form), and ``assemble_bem`` returns it on
one surface as the Galerkin pair (V, K).  The boundary mass Mb that the
stray-field and coupling maps add to K is ``fem.assemble_boundary_mass``.  At
arbitrary points, ``eval_single_layer`` and ``eval_double_layer`` are the
one-point rule of weight 1: (P, F) and (P, Nb) matrices whose product with a
density is its potential at the points.

Assembly, evaluation and ``solid_angles`` walk the points in batches of
about BATCH_PAIRS (point, panel) pairs, so the working memory is
O(BATCH_PAIRS) per worker whatever the point count.  The batches are swept on
a thread pool with one worker per usable CPU (numpy releases the GIL inside
the plane arithmetic).  Each batch writes only its own rows of the output and
nothing is reduced across batches, so the results are bit-identical whatever
the worker count or the order in which batches finish.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .fem import face_quadrature
from .mesh import SurfaceMesh, per_mesh

# Points closer to a panel plane (or edge line) than this, relative to the
# panel diameter, are treated as lying on it (principal value).
_PLANE_TOL = 1e-12

# Pairs closer than this to an edge line, relative to the panel diameter,
# are checked for cancellation in that edge's log term.  Farther out, the
# plain form's relative error stays below 2 (l / dist)^2 eps < 2e4 eps.
_NEAR_LINE = 1e-2

# (point, panel) pairs per panel_integrals call: a batch takes
# max(1, BATCH_PAIRS // F) points.  The budget bounds a worker's memory, not
# its cache footprint: one call at 2**16 pairs peaks near 17 planes of 0.5 MiB
# (8.6 MiB), past a core's L2.  2**16 was the fastest of 2**14 to 2**18 in
# sweeps of assemble_bem at 1280 faces.
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

    ``[x - origin, 1] @ frame[j]`` is, at each face, coordinate j of the
    point x: j = 0 is zeta, 1..3 are d_e and 4..6 are l_e (see the module
    docstring).  Rows 0..2 of ``frame[j]`` hold the coordinate's direction
    and row 3 its constant, so each (P, F) plane is one (P, 4) @ (4, F)
    product.  Per-face vectors are stored face-last, so each (k, ...) slice
    is contiguous.
    """

    vertices: np.ndarray  # (F, 3, 3)
    origin: np.ndarray  # (3,) mean face vertex, subtracted from every point
    frame: np.ndarray  # (7, 4, F) coordinate directions, then constants
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
    # rows: zeta, d_e, l_e, each direction . (x - anchor)
    directions = np.concatenate([n[:, None], -m, -t], axis=1)  # (F, 7, 3)
    anchors = np.concatenate([v[:, :1], v, v], axis=1)  # (F, 7, 3)
    frame = np.empty((7, 4, surface.n_faces))
    frame[:, :3] = directions.transpose(1, 2, 0)
    frame[:, 3] = -np.einsum("fjd,fjd->jf", directions, anchors)
    return PanelGeometry(
        vertices=surface.vertex_coords,
        origin=origin,
        frame=frame,
        edge_lengths=np.ascontiguousarray(lengths.T),
        areas=surface.areas,
        diameters=lengths.max(axis=1),
    )


def _coordinates(geo: PanelGeometry, points: np.ndarray) -> list[np.ndarray]:
    """The (P, F) planes of the ``geo.frame`` coordinates.  ``x`` has at least
    two rows: a one-row product would go to BLAS gemv and round unlike a batch."""
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    x = np.ones((max(n, 2), 4))
    np.subtract(points, geo.origin, out=x[:n, :3])
    return [(x @ frame)[:n] for frame in geo.frame]


def _vertex_distances(
    geo: PanelGeometry, zeta: np.ndarray, d: list[np.ndarray], l: list[np.ndarray]
) -> tuple[list[np.ndarray], np.ndarray, list[np.ndarray]]:
    """Edge-line and vertex distances from the plane coordinates.

    Returns, per edge k starting at vertex k: the flat indices of the (P, F)
    pairs within _NEAR_LINE of edge line k (d_k^2 + zeta^2 against the
    panel diameter), the (P, F) planes |r_k|^2 = d_k^2 + zeta^2 + l_k^2 as
    one (3, P, F) block, and the list of planes |r_k|.
    """
    zeta_sq = zeta * zeta
    near_sq = (_NEAR_LINE * geo.diameters) ** 2
    near_line, vertex_sq, dist = [], np.empty((3,) + zeta.shape), []
    for dk, lk, sq in zip(d, l, vertex_sq):
        np.multiply(dk, dk, out=sq)
        sq += zeta_sq
        near_line.append(np.flatnonzero(sq < near_sq))
        along_sq = lk * lk
        sq += along_sq
        dist.append(np.sqrt(sq, out=along_sq))
    return near_line, vertex_sq, dist


def _solid_angle(
    geo: PanelGeometry, zeta: np.ndarray, vertex_sq: list[np.ndarray], dist: list[np.ndarray]
) -> np.ndarray:
    """Signed solid angle of each triangle seen from each point, (P, F).

    Positive when the point lies on the side the face normal points into.
    Van Oosterom-Strackee, Omega = -2 atan2(det, denom), with both arguments
    doubled (which leaves atan2 unchanged): 2 det = -4 |T| zeta, and
    2 r_k.r_k+1 = |r_k|^2 + |r_k+1|^2 - |e_k|^2 by the law of cosines.
    """
    denom = 2.0 * dist[0]
    denom *= dist[1]
    denom *= dist[2]
    term = np.empty_like(denom)
    for k in range(3):
        # |r_k| (2 r_k+1 . r_k+2)
        i, j = (k + 1) % 3, (k + 2) % 3
        np.add(vertex_sq[i], vertex_sq[j], out=term)
        term -= geo.edge_lengths[i] ** 2
        term *= dist[k]
        denom += term
    omega = np.multiply(-4.0 * geo.areas, zeta, out=term)
    np.arctan2(omega, denom, out=omega)
    omega *= -2.0
    return omega


def panel_integrals(
    geo: PanelGeometry, points: np.ndarray, single: bool, double: bool
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray | None]:
    """Closed-form single and double layer panel integrals, unscaled.

    Every per-pair quantity is a (P, F) plane: zeta, d_e and l_e from one
    matmul each, the vertex distances from (d_e, l_e, zeta), the solid
    angle from det = -2 |T| zeta and the law of cosines.  Pairs within
    _PLANE_TOL of the panel plane get zeta = Omega = 0 (the principal
    value, so their double layer terms are exactly 0), and pairs within it
    of an edge line drop that edge's log term, whose factors d_e and zeta
    vanish there.  Just outside that tolerance, the distance-plus-offset
    factor r + s l of the log argument cancels for points above the edge
    segment; where it does, it is taken as (d_e^2 + zeta^2) / (r - s l),
    so the result stays finite and accurate.

    Both layers need the solid angle and the edge logs; only the layers
    asked for are integrated from them.

    Args:
        geo: precomputed panel geometry for F faces.
        points: (P, 3) evaluation points.
        single: whether to integrate the single layer.
        double: whether to return the double layer's edge planes.

    Returns:
        ``(single, omega, edge)`` with shapes (P, F), (P, F), (3, P, F):
        int_T 1/R dA, the signed solid angle (the constant-density double
        layer integral), and the planes zeta P_e, from which the hat double
        layers are lam_i(x) Omega - sum_e (g_i.m_e) zeta P_e.  A layer not
        asked for is None.  No 1/(4 pi) factor is applied.
    """
    planes = _coordinates(geo, points)
    zeta, d, l = planes[0], planes[1:4], planes[4:7]
    del planes
    on_plane = np.flatnonzero(np.abs(zeta) <= _PLANE_TOL * geo.diameters)
    np.put(zeta, on_plane, 0.0)

    near_line, vertex_sq, dist = _vertex_distances(geo, zeta, d, l)
    omega = _solid_angle(geo, zeta, vertex_sq, dist)
    np.put(omega, on_plane, 0.0)
    line_tol_sq = (_PLANE_TOL * geo.diameters) ** 2

    single_p0 = None
    if single:
        single_p0 = np.negative(zeta)
        single_p0 *= omega
    for k in range(3):
        la = l[k]
        lb = np.add(la, geo.edge_lengths[k], out=vertex_sq[k])  # |r_k|^2 is not read again
        # Two algebraically equal forms of the segment integral P_k of 1/R,
        # log((rb + lb) / (ra + la)) = log((ra - la) / (rb - lb)); pick the
        # one whose log argument stays away from 0, as s log(num / den).
        s = (la + lb > 0.0) * 2.0 - 1.0  # exactly +-1
        num = lb
        num *= s
        num += dist[(k + 1) % 3]
        den = la  # l_k is not read again
        den *= s
        den += dist[k]
        # Close to the edge line, r + s l cancels where s l < 0 (den for
        # s = 1, num for s = -1).  Where it keeps less than half of r, it
        # takes the rationalised form (r^2 - l^2) / (r - s l), that is
        # (d^2 + zeta^2) / (2 r - (r + s l)).  On the line the log term's
        # factors vanish, and num = den = 1 drops it.
        near = near_line[k]  # usually empty
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
        if single:
            single_p0 += np.multiply(d[k], pk, out=den)
        if double:
            pk *= zeta
    return single_p0, omega, vertex_sq if double else None  # now zeta P_k, plane by plane


def solid_angles(surface: SurfaceMesh, points: np.ndarray) -> np.ndarray:
    """Sum of signed panel solid angles at each point, (P,).

    Equals -4 pi at points inside the surface and 0 outside.  On it, panels
    whose plane holds the point add nothing: the principal value, -2 pi on a face.
    """
    geo = panel_geometry(surface)
    points = np.asarray(points, dtype=np.float64)
    out = np.empty(points.shape[0])

    def batch(start: int, stop: int) -> None:
        planes = _coordinates(geo, points[start:stop])
        zeta = planes[0]
        _, vertex_sq, dist = _vertex_distances(geo, zeta, planes[1:4], planes[4:7])
        omega = _solid_angle(geo, zeta, vertex_sq, dist)
        omega[np.abs(zeta) <= _PLANE_TOL * geo.diameters] = 0.0
        out[start:stop] = omega.sum(axis=1)

    _sweep(batch, points.shape[0], _batch_points(surface.n_faces))
    return out


@per_mesh
def hat_map(surface: SurfaceMesh) -> sparse.csr_matrix:
    """(7F, Nb) map from a target's moments to its double layer row.

    Hat i of face f integrates to lam_i(x) Omega - sum_e (g_i.m_e) zeta P_e,
    where lam_i(x) = a_i + g_i.(x - origin), a_i = 1 - g_i.(v_i - origin).
    Summed by a rule of weights w, the hats are fixed combinations of the
    moments w Omega, w (x - origin) Omega and w zeta P_e of each face, laid
    out as entry c F + f for c = 0, 1..3 and 4..6.  Row c F + f holds, in
    the column of face f's vertex i (``surface.boundary_nodes`` local
    ordering), hat i's coefficient of moment c: a_i, g_i and -g_i.m_e, with
    lam_2 taken as 1 - lam_0 - lam_1 so that the hats sum to Omega.  Built
    once per surface, read-only.
    """
    geo = panel_geometry(surface)
    minus_m = geo.frame[1:4, :3]  # [e, d, f]
    # g_i is normal to the opposite edge (i+1 -> i+2), points toward vertex
    # i, and has magnitude 1/height = |e_opp| / (2 |T|)
    g = np.roll(minus_m, -1, axis=0)
    g *= (np.roll(geo.edge_lengths, -1, axis=0) / (2.0 * geo.areas))[:, None]
    coef = np.empty((7, 3, surface.n_faces))  # [c, i, f]
    coef[0] = 1.0 - np.einsum("idf,fid->if", g, geo.vertices - geo.origin)
    coef[1:4] = g.transpose(1, 0, 2)
    coef[:4, 2] = -coef[:4, 0] - coef[:4, 1]  # lam_2 = 1 - lam_0 - lam_1
    coef[0, 2] += 1.0
    coef[4:] = np.einsum("idf,edf->eif", g, minus_m)
    rows = np.repeat(np.arange(7 * surface.n_faces), 3)
    cols = np.tile(surface.local_face_indices.ravel(), 7)
    return sparse.csr_matrix(
        (coef.transpose(0, 2, 1).ravel(), (rows, cols)),
        shape=(7 * surface.n_faces, surface.boundary_nodes.size),
    )


def _layers(
    source: SurfaceMesh, points: np.ndarray, weights: np.ndarray, single: bool, double: bool
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """(T, F) single and (T, Nb) double layer potentials of ``source``, row t
    integrated by target t's rule: (T, Q, 3) ``points``, (T, Q) ``weights``.

    Only the layers asked for by ``single`` and ``double`` are integrated;
    the other is returned as None.  S times a P0 face density, or D times
    P1 nodal values in ``source.boundary_nodes`` local ordering, gives the
    integrals.  Each batch of max(1, (BATCH_PAIRS // F) // Q) targets takes
    one ``panel_integrals`` call, summed over q first.  For the double
    layer, each target's rule is contracted into the moments of ``hat_map``
    (from its (4, Q) weights w and w (x - origin), formed once per sweep),
    and one product with that map gives the node columns.
    """
    geo = panel_geometry(source)
    f_count = source.n_faces
    t_count, nq = weights.shape
    single_out = np.empty((t_count, f_count)) if single else None
    if double:
        hats = hat_map(source)
        double_out = np.empty((t_count, hats.shape[1]))
        moments = np.empty((t_count, 4, nq))
        moments[:, 0] = weights
        np.multiply(weights[:, None], (points - geo.origin).transpose(0, 2, 1), out=moments[:, 1:])
    else:
        double_out = None

    def batch(start: int, stop: int) -> None:
        s_pts, omega, edge = panel_integrals(geo, points[start:stop].reshape(-1, 3), single, double)
        nt = stop - start
        w = weights[start:stop]
        if single:
            single_out[start:stop] = np.einsum("bqf,bq->bf", s_pts.reshape(nt, nq, f_count), w)
        if double:
            r = np.empty((nt, 7, f_count))
            np.matmul(moments[start:stop], omega.reshape(nt, nq, f_count), out=r[:, :4])
            np.einsum("ebqf,bq->bef", edge.reshape(3, nt, nq, f_count), w, out=r[:, 4:])
            double_out[start:stop] = r.reshape(nt, -1) @ hats

    _sweep(batch, t_count, max(1, _batch_points(f_count) // nq))
    for out in (single_out, double_out):
        if out is not None:
            out *= 1.0 / (4.0 * np.pi)
    return single_out, double_out


def layer_integrals(
    source: SurfaceMesh, target: SurfaceMesh, single: bool, double: bool
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """(F_target, F_source) and (F_target, Nb_source) integrals over each
    target face, by ``fem.face_quadrature``, of the single and double layer
    potentials of ``source``: the layers asked for, from one sweep, and
    None for the other."""
    return _layers(source, *face_quadrature(target), single, double)


def assemble_bem(
    surface: SurfaceMesh, single: bool, double: bool
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Assemble the Galerkin single and double layer matrices asked for.

    Returns ``(V, K)``: V the symmetric (F, F) P0 x P0 single layer, K the
    (F, Nb) double layer of P1 hats (columns in ``surface.boundary_nodes``
    local ordering) tested against P0 face indicators, each None unless
    ``single`` or ``double`` asks for it.  They are ``layer_integrals(surface,
    surface, single, double)``, with the single layer symmetrized since the
    test and trial panels are treated asymmetrically.
    """
    v_mat, k_mat = layer_integrals(surface, surface, single, double)
    if v_mat is not None:
        v_mat = 0.5 * (v_mat + v_mat.T)
    return v_mat, k_mat


def _at_points(
    surface: SurfaceMesh, points: np.ndarray, single: bool, double: bool
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """``_layers`` at the (P, 3) points, each its own one-point rule of weight 1."""
    points = np.asarray(points, dtype=np.float64)
    return _layers(surface, points[:, None, :], np.ones((len(points), 1)), single, double)


def eval_single_layer(surface: SurfaceMesh, points: np.ndarray) -> np.ndarray:
    """(P, F) single layer operator: its product with a P0 face density is
    the potential at the (P, 3) points."""
    return _at_points(surface, points, True, False)[0]


def eval_double_layer(surface: SurfaceMesh, points: np.ndarray) -> np.ndarray:
    """(P, Nb) double layer operator: its product with P1 nodal values, in
    ``surface.boundary_nodes`` local ordering, is the potential at the
    (P, 3) points."""
    return _at_points(surface, points, False, True)[1]
