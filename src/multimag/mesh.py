"""Tetrahedral volume meshes and their triangulated boundaries.

A ``TetMesh`` is a conforming P1 tetrahedral mesh given by node coordinates
and 0-based connectivity.  All derived geometry (volumes, shape-function
gradients, boundary extraction, and the fixed (3M, N) sparse map from
nodal values to per-tet gradients) is computed vectorized and cached on
the instance.  ``SurfaceMesh`` is the oriented boundary triangulation with
outward unit normals and links back to the parent tetrahedra, which the
boundary-element operators and flux evaluations need.

Mesh file format (plain text, ``#`` starts a comment anywhere on a line)::

    nodes <N>
    x y z            # N coordinate lines
    tets <M>
    i j k l          # M connectivity lines, 0-based node indices

Tetrahedra are normalized to positive orientation on construction (the last
two vertices of an inverted cell are swapped), so signed volumes are
positive and the standard face table yields outward boundary normals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

# Faces of a positively oriented tet (a,b,c,d), ordered so the triangle
# normals point out of the cell.
_TET_FACES = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]], dtype=np.int64)


class MeshFormatError(ValueError):
    """Raised for malformed mesh files or inconsistent mesh data."""


@dataclass
class SurfaceMesh:
    """Oriented triangulated boundary of a tet mesh.

    Attributes:
        nodes: (N, 3) coordinates of the *parent volume mesh* (faces index
            into this array, so volume and surface share node numbering).
        faces: (F, 3) vertex indices per triangle, outward orientation.
        parent_tets: (F,) index of the tetrahedron each face belongs to.
    """

    nodes: np.ndarray
    faces: np.ndarray
    parent_tets: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]

    @property
    def vertex_coords(self) -> np.ndarray:
        """(F, 3, 3) coordinates of the three vertices of each face."""
        if "vertex_coords" not in self._cache:
            self._cache["vertex_coords"] = self.nodes[self.faces]
        return self._cache["vertex_coords"]

    @property
    def areas(self) -> np.ndarray:
        """(F,) triangle areas."""
        self._ensure_geometry()
        return self._cache["areas"]

    @property
    def normals(self) -> np.ndarray:
        """(F, 3) outward unit normals."""
        self._ensure_geometry()
        return self._cache["normals"]

    @property
    def centroids(self) -> np.ndarray:
        """(F, 3) face centroids."""
        if "centroids" not in self._cache:
            self._cache["centroids"] = self.vertex_coords.mean(axis=1)
        return self._cache["centroids"]

    @property
    def boundary_nodes(self) -> np.ndarray:
        """Sorted unique indices of nodes lying on the boundary."""
        if "boundary_nodes" not in self._cache:
            self._cache["boundary_nodes"] = np.unique(self.faces)
        return self._cache["boundary_nodes"]

    @property
    def node_patch_areas(self) -> np.ndarray:
        """(Nb,) total area of the faces touching each boundary node.

        Ordered like ``boundary_nodes``.
        """
        if "node_patch_areas" not in self._cache:
            local = self.local_face_indices
            patch = np.zeros(self.boundary_nodes.size)
            np.add.at(patch, local.ravel(), np.repeat(self.areas, 3))
            self._cache["node_patch_areas"] = patch
        return self._cache["node_patch_areas"]

    @property
    def local_face_indices(self) -> np.ndarray:
        """(F, 3) faces re-indexed against ``boundary_nodes`` numbering."""
        if "local_face_indices" not in self._cache:
            lookup = np.full(self.nodes.shape[0], -1, dtype=np.int64)
            lookup[self.boundary_nodes] = np.arange(self.boundary_nodes.size)
            self._cache["local_face_indices"] = lookup[self.faces]
        return self._cache["local_face_indices"]

    def _ensure_geometry(self) -> None:
        if "areas" in self._cache:
            return
        v = self.vertex_coords
        cross = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
        norm = np.linalg.norm(cross, axis=1)
        if np.any(norm <= 0.0):
            raise MeshFormatError("degenerate boundary face (zero area)")
        self._cache["areas"] = 0.5 * norm
        self._cache["normals"] = cross / norm[:, None]


@dataclass
class TetMesh:
    """Conforming tetrahedral mesh with cached P1 geometry.

    Attributes:
        nodes: (N, 3) float64 coordinates.
        tets: (M, 4) int64 connectivity, positively oriented.
    """

    nodes: np.ndarray
    tets: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.nodes = np.ascontiguousarray(self.nodes, dtype=np.float64)
        self.tets = np.ascontiguousarray(self.tets, dtype=np.int64)
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 3:
            raise MeshFormatError("nodes must have shape (N, 3)")
        if self.tets.ndim != 2 or self.tets.shape[1] != 4:
            raise MeshFormatError("tets must have shape (M, 4)")
        if self.tets.size and (self.tets.min() < 0 or self.tets.max() >= len(self.nodes)):
            raise MeshFormatError("tet connectivity references a node out of range")
        if not np.isfinite(self.nodes).all():
            raise MeshFormatError("non-finite node coordinate")
        signed = self._signed_volumes(self.nodes, self.tets)
        flipped = signed < 0.0
        if flipped.any():
            self.tets = self.tets.copy()
            self.tets[flipped, 2], self.tets[flipped, 3] = (
                self.tets[flipped, 3].copy(),
                self.tets[flipped, 2].copy(),
            )
            signed = np.abs(signed)
        if np.any(signed <= 0.0):
            bad = int(np.argmin(signed))
            raise MeshFormatError(f"tet {bad} is degenerate (zero volume)")
        self._cache["volumes"] = signed

    @staticmethod
    def _signed_volumes(nodes: np.ndarray, tets: np.ndarray) -> np.ndarray:
        p = nodes[tets]
        e = p[:, 1:] - p[:, :1]
        return np.einsum("mi,mi->m", np.cross(e[:, 0], e[:, 1]), e[:, 2]) / 6.0

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_tets(self) -> int:
        return self.tets.shape[0]

    @property
    def volumes(self) -> np.ndarray:
        """(M,) positive tet volumes."""
        return self._cache["volumes"]

    @property
    def total_volume(self) -> float:
        return float(self.volumes.sum())

    @property
    def hat_gradients(self) -> np.ndarray:
        """(M, 4, 3) constant gradients of the four P1 hat functions per tet."""
        if "hat_gradients" not in self._cache:
            p = self.nodes[self.tets]
            v6 = 6.0 * self.volumes
            g = np.empty((self.n_tets, 4, 3))
            # grad(lambda_i) = (opposite-face normal, inward) / (3 * volume);
            # cross products ordered for the positive orientation.
            g[:, 1] = np.cross(p[:, 2] - p[:, 0], p[:, 3] - p[:, 0]) / v6[:, None]
            g[:, 2] = np.cross(p[:, 3] - p[:, 0], p[:, 1] - p[:, 0]) / v6[:, None]
            g[:, 3] = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]) / v6[:, None]
            g[:, 0] = -(g[:, 1] + g[:, 2] + g[:, 3])
            self._cache["hat_gradients"] = g
        return self._cache["hat_gradients"]

    @property
    def hat_integrals(self) -> np.ndarray:
        """(N,) integral of each nodal hat function (lumped volume weights)."""
        if "hat_integrals" not in self._cache:
            w = np.zeros(self.n_nodes)
            np.add.at(w, self.tets.ravel(), np.repeat(self.volumes / 4.0, 4))
            self._cache["hat_integrals"] = w
        return self._cache["hat_integrals"]

    @property
    def node_patch_volumes(self) -> np.ndarray:
        """(N,) total volume of the tets touching each node."""
        if "node_patch_volumes" not in self._cache:
            w = np.zeros(self.n_nodes)
            np.add.at(w, self.tets.ravel(), np.repeat(self.volumes, 4))
            self._cache["node_patch_volumes"] = w
        return self._cache["node_patch_volumes"]

    def boundary(self) -> SurfaceMesh:
        """Cached boundary surface (see :func:`boundary_faces`)."""
        if "boundary" not in self._cache:
            self._cache["boundary"] = boundary_faces(self)
        return self._cache["boundary"]

    @property
    def gradient_matrix(self) -> sparse.csr_matrix:
        """(3M, N) map from nodal values to per-tet gradients, built once.

        Row 3T + d holds the d-th components of the four hat gradients of
        tet T at the columns of its nodes.
        """
        if "gradient_matrix" not in self._cache:
            rows = np.repeat(np.arange(3 * self.n_tets), 4)
            cols = np.repeat(self.tets, 3, axis=0).ravel()
            data = self.hat_gradients.transpose(0, 2, 1).ravel()
            self._cache["gradient_matrix"] = sparse.csr_matrix(
                (data, (rows, cols)), shape=(3 * self.n_tets, self.n_nodes)
            )
        return self._cache["gradient_matrix"]

    def element_gradient(self, values: np.ndarray) -> np.ndarray:
        """Piecewise-constant gradient of a nodal scalar field.

        Args:
            values: (N,) nodal coefficients.

        Returns:
            (M, 3) gradient per tet.
        """
        return (self.gradient_matrix @ values).reshape(-1, 3)


def load_mesh(path) -> TetMesh:
    """Read a ``TetMesh`` from the plain-text format described in the module docstring.

    Fails fast with a line-numbered :class:`MeshFormatError` on any malformed
    content; validates index ranges and non-degeneracy via the TetMesh
    constructor.
    """
    tokens: list[tuple[int, list[str]]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                tokens.append((lineno, text.split()))

    cursor = 0

    def take(what: str, count: int) -> tuple[int, list[str]]:
        nonlocal cursor
        if cursor >= len(tokens):
            raise MeshFormatError(f"{path}: unexpected end of file while reading {what}")
        lineno, parts = tokens[cursor]
        cursor += 1
        if len(parts) != count:
            raise MeshFormatError(
                f"{path}:{lineno}: expected {count} fields for {what}, got {len(parts)}"
            )
        return lineno, parts

    lineno, parts = take("the 'nodes <N>' header", 2)
    if parts[0] != "nodes":
        raise MeshFormatError(f"{path}:{lineno}: expected 'nodes <N>', got {parts[0]!r}")
    try:
        n_nodes = int(parts[1])
    except ValueError as exc:
        raise MeshFormatError(f"{path}:{lineno}: node count is not an integer") from exc
    if n_nodes < 0:
        raise MeshFormatError(f"{path}:{lineno}: negative node count")

    nodes = np.empty((n_nodes, 3))
    for i in range(n_nodes):
        lineno, parts = take(f"node {i}", 3)
        try:
            nodes[i] = [float(p) for p in parts]
        except ValueError as exc:
            raise MeshFormatError(f"{path}:{lineno}: bad coordinate in node {i}") from exc

    lineno, parts = take("the 'tets <M>' header", 2)
    if parts[0] != "tets":
        raise MeshFormatError(f"{path}:{lineno}: expected 'tets <M>', got {parts[0]!r}")
    try:
        n_tets = int(parts[1])
    except ValueError as exc:
        raise MeshFormatError(f"{path}:{lineno}: tet count is not an integer") from exc
    if n_tets < 0:
        raise MeshFormatError(f"{path}:{lineno}: negative tet count")

    tets = np.empty((n_tets, 4), dtype=np.int64)
    for i in range(n_tets):
        lineno, parts = take(f"tet {i}", 4)
        try:
            tets[i] = [int(p) for p in parts]
        except ValueError as exc:
            raise MeshFormatError(f"{path}:{lineno}: bad index in tet {i}") from exc

    if cursor != len(tokens):
        lineno = tokens[cursor][0]
        raise MeshFormatError(f"{path}:{lineno}: trailing content after tet list")

    try:
        return TetMesh(nodes, tets)
    except MeshFormatError as exc:
        raise MeshFormatError(f"{path}: {exc}") from exc


def write_mesh(path, mesh: TetMesh, comment: str | None = None) -> None:
    """Write a mesh in the plain-text format read by :func:`load_mesh`.

    Coordinates use 17 significant digits so a load/write cycle round-trips
    float64 exactly.
    """
    with open(path, "w", encoding="utf-8") as handle:
        if comment:
            for line in comment.splitlines():
                handle.write(f"# {line}\n")
        handle.write(f"nodes {mesh.n_nodes}\n")
        for x, y, z in mesh.nodes:
            handle.write(f"{x:.17g} {y:.17g} {z:.17g}\n")
        handle.write(f"tets {mesh.n_tets}\n")
        for a, b, c, d in mesh.tets:
            handle.write(f"{a} {b} {c} {d}\n")


def boundary_faces(mesh: TetMesh) -> SurfaceMesh:
    """Extract the oriented boundary triangulation of a tet mesh.

    A face is on the boundary iff it belongs to exactly one tet.  Faces keep
    the outward vertex order of the positive-orientation face table, so the
    resulting normals point out of the volume.  Raises if any face is shared
    by more than two tets (non-manifold connectivity).
    """
    faces = mesh.tets[:, _TET_FACES]  # (M, 4, 3)
    flat = faces.reshape(-1, 3)
    parents = np.repeat(np.arange(mesh.n_tets), 4)

    key = np.sort(flat, axis=1)
    order = np.lexsort((key[:, 2], key[:, 1], key[:, 0]))
    key_sorted = key[order]
    new_group = np.ones(len(key_sorted), dtype=bool)
    new_group[1:] = np.any(key_sorted[1:] != key_sorted[:-1], axis=1)
    group_ids = np.cumsum(new_group) - 1
    counts = np.bincount(group_ids)
    if counts.max(initial=0) > 2:
        raise MeshFormatError("non-manifold mesh: a face is shared by more than two tets")

    boundary_rows = order[new_group.nonzero()[0][counts == 1]]
    surface = SurfaceMesh(
        nodes=mesh.nodes,
        faces=np.ascontiguousarray(flat[boundary_rows]),
        parent_tets=np.ascontiguousarray(parents[boundary_rows]),
    )
    surface._ensure_geometry()
    return surface


@dataclass
class AngleConditionReport:
    """Result of the weak-acuteness check on the P1 stiffness matrix."""

    satisfied: bool
    max_offdiagonal: float
    n_violations: int
    worst_pair: tuple[int, int] | None


def check_angle_condition(mesh: TetMesh, tol: float = 1e-12) -> AngleConditionReport:
    """Check the off-diagonal sign condition of the P1 stiffness matrix.

    The tangent-plane update's renormalization step is energy-decreasing when
    every off-diagonal stiffness entry satisfies <grad eta_i, grad eta_j> <= 0
    (weakly acute meshes).  Structured meshes with nonobtuse dihedral angles
    pass with entries that are exactly zero where hats do not interact, so
    the check uses a small positive tolerance.

    Returns:
        AngleConditionReport; ``satisfied`` is True when the largest
        off-diagonal entry is at most ``tol``.
    """
    from . import fem  # local import: fem depends on mesh

    matrix = fem.assemble_stiffness(mesh).matrix.tocoo()
    off = matrix.row != matrix.col
    if not off.any():
        return AngleConditionReport(True, 0.0, 0, None)
    rows = matrix.row[off]
    cols = matrix.col[off]
    data = matrix.data[off]
    worst = int(np.argmax(data))
    max_entry = float(data[worst])
    violating = data > tol
    return AngleConditionReport(
        satisfied=bool(max_entry <= tol),
        max_offdiagonal=max_entry,
        n_violations=int(np.count_nonzero(violating)),
        worst_pair=(int(rows[worst]), int(cols[worst])) if max_entry > tol else None,
    )
