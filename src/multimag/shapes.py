"""Small deterministic mesh builders for demos, the benchmark and tests.

These are not a meshing capability: every builder returns a hard-coded or
structurally generated :class:`~multimag.mesh.TetMesh` whose node ordering
is reproducible run to run.
"""

from __future__ import annotations

import numpy as np

from .mesh import TetMesh


def reference_tet() -> TetMesh:
    """Unit reference tetrahedron (0,0,0), (1,0,0), (0,1,0), (0,0,1)."""
    nodes = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    )
    tets = np.array([[0, 1, 2, 3]])
    return TetMesh(nodes, tets)


# Icosahedron with unit-sphere vertices; faces wound outward.
_PHI = (1.0 + np.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array(
    [
        [-1, _PHI, 0], [1, _PHI, 0], [-1, -_PHI, 0], [1, -_PHI, 0],
        [0, -1, _PHI], [0, 1, _PHI], [0, -1, -_PHI], [0, 1, -_PHI],
        [_PHI, 0, -1], [_PHI, 0, 1], [-_PHI, 0, -1], [-_PHI, 0, 1],
    ],
    dtype=np.float64,
)
_ICO_VERTS /= np.linalg.norm(_ICO_VERTS, axis=1)[:, None]
_ICO_FACES = np.array(
    [
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ],
    dtype=np.int64,
)


def icosphere_surface(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Subdivided icosahedron with vertices on the unit sphere.

    Returns:
        (verts, faces) with 10*4^level + 2 vertices and 20*4^level outward
        triangles.
    """
    verts = [v for v in _ICO_VERTS]
    faces = _ICO_FACES.copy()
    for _ in range(level):
        midpoint: dict[tuple[int, int], int] = {}

        def mid(a: int, b: int) -> int:
            key = (a, b) if a < b else (b, a)
            if key not in midpoint:
                p = verts[a] + verts[b]
                verts.append(p / np.linalg.norm(p))
                midpoint[key] = len(verts) - 1
            return midpoint[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        faces = np.array(new_faces, dtype=np.int64)
    verts_arr = np.array(verts)
    # Enforce outward winding (normal aligned with the face centroid).
    tri = verts_arr[faces]
    normals = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    inward = np.einsum("fd,fd->f", normals, tri.mean(axis=1)) < 0.0
    faces[inward, 1], faces[inward, 2] = faces[inward, 2].copy(), faces[inward, 1].copy()
    return verts_arr, faces


def icosphere_volume(
    level: int = 1,
    n_radial: int = 2,
    radius: float = 1.0,
    center=(0.0, 0.0, 0.0),
) -> TetMesh:
    """Ball mesh: icosphere surface layers at radii j/n_radial plus a center node.

    Between consecutive layers each triangular prism is split into three tets
    with quad diagonals chosen by the smaller surface-node id, which makes
    the split conforming across neighboring prisms.  The innermost layer is
    joined to the center by a tet fan.  Tet count: 20*4^level * (3*(n_radial-1) + 1).
    """
    if n_radial < 1:
        raise ValueError("n_radial must be >= 1")
    sverts, sfaces = icosphere_surface(level)
    ns = len(sverts)
    center = np.asarray(center, dtype=np.float64)

    nodes = [np.zeros(3)]
    for j in range(1, n_radial + 1):
        nodes.append(sverts * (radius * j / n_radial))
    nodes = np.vstack([nodes[0][None, :], *nodes[1:]]) + center

    def layer_id(j: int, s: np.ndarray) -> np.ndarray:
        return 1 + (j - 1) * ns + s

    tets = []
    # Center fan against layer 1.
    f = sfaces
    tets.append(
        np.column_stack(
            [np.zeros(len(f), dtype=np.int64), layer_id(1, f[:, 0]), layer_id(1, f[:, 1]), layer_id(1, f[:, 2])]
        )
    )
    # Prism layers.
    for j in range(1, n_radial):
        # Rotate each face so its smallest surface-node id comes first,
        # then ids (p, q, r) satisfy p < q and p < r; enforce q < r by swap,
        # which the orientation fix in TetMesh absorbs.
        rolled = np.empty_like(f)
        first = np.argmin(f, axis=1)
        for k in range(3):
            rolled[:, k] = f[np.arange(len(f)), (first + k) % 3]
        swap = rolled[:, 1] > rolled[:, 2]
        rolled[swap, 1], rolled[swap, 2] = rolled[swap, 2].copy(), rolled[swap, 1].copy()
        p, q, r = rolled[:, 0], rolled[:, 1], rolled[:, 2]
        bp, bq, br = layer_id(j, p), layer_id(j, q), layer_id(j, r)
        tp, tq, tr = layer_id(j + 1, p), layer_id(j + 1, q), layer_id(j + 1, r)
        tets.append(np.column_stack([bp, bq, br, tr]))
        tets.append(np.column_stack([bp, bq, tr, tq]))
        tets.append(np.column_stack([bp, tp, tq, tr]))
    return TetMesh(nodes, np.vstack(tets))
