"""Tetrahedral volume meshes and their triangulated boundaries.

A ``TetMesh`` is a conforming P1 tetrahedral mesh given by node coordinates
and 0-based connectivity.  ``SurfaceMesh`` is the oriented boundary
triangulation with outward unit normals and links back to the parent
tetrahedra, which the boundary-element operators and flux evaluations need.

Each mesh owns its geometry and operators, read-only, and compares by
identity.  Its input arrays are frozen copies; tet volumes and face areas
and normals are computed on construction.  All else that depends on the
mesh alone (hat gradients and integrals, the boundary, the gradient map,
and the P1 operators of ``fem`` and ``bem``) is a :func:`per_mesh` builder:
built on first call, frozen, stored on the mesh keyed by the builder and
returned by every later call, so it is built once and cannot go stale.

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

import re
from dataclasses import dataclass, field
from functools import wraps

import numpy as np
from scipy import sparse

# Faces of a positively oriented tet (a,b,c,d), ordered so the triangle
# normals point out of the cell.
_TET_FACES = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]], dtype=np.int64)


class MeshFormatError(ValueError):
    """Raised for malformed mesh files or inconsistent mesh data."""


def _freeze(value):
    """Make an array, a sparse matrix or an operator's ``matrix`` read-only;
    return the value.  A surface mesh is read-only already."""
    target = getattr(value, "matrix", value)
    if sparse.issparse(target):
        for array in (target.data, target.indices, target.indptr):
            array.setflags(write=False)
    elif not isinstance(target, SurfaceMesh):
        target.setflags(write=False)
    return value


def per_mesh(build):
    """Run ``build(owner)``, a function of a mesh or surface alone, once per
    owner: the first result is frozen and stored on the owner keyed by
    ``build``, and every call returns it."""
    @wraps(build)
    def built(owner):
        store = vars(owner).setdefault("_built", {})
        if build not in store:
            store[build] = _freeze(build(owner))
        return store[build]

    return built


def _derived(method):
    """A read-only property built once by :func:`per_mesh`."""
    return property(per_mesh(method))


@dataclass(eq=False)
class SurfaceMesh:
    """Oriented triangulated boundary of a tet mesh.

    Attributes:
        nodes: (N, 3) coordinates of the *parent volume mesh* (faces index
            into this array, so volume and surface share node numbering).
        faces: (F, 3) vertex indices per triangle, outward orientation.
        parent_tets: (F,) index of the tetrahedron each face belongs to.
        areas: (F,) triangle areas, computed on construction.
        normals: (F, 3) outward unit normals, computed on construction.

    All are read-only; the three inputs are copies of the arrays passed in.
    """

    nodes: np.ndarray
    faces: np.ndarray
    parent_tets: np.ndarray
    areas: np.ndarray = field(init=False, repr=False)
    normals: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.nodes = _freeze(np.array(self.nodes, dtype=np.float64, order="C"))
        self.faces = _freeze(np.array(self.faces, dtype=np.int64, order="C"))
        self.parent_tets = _freeze(np.array(self.parent_tets, dtype=np.int64, order="C"))
        v = self.vertex_coords
        cross = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
        norm = np.linalg.norm(cross, axis=1)
        if np.any(norm <= 0.0):
            raise MeshFormatError("degenerate boundary face (zero area)")
        self.areas = _freeze(0.5 * norm)
        self.normals = _freeze(cross / norm[:, None])

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]

    @_derived
    def vertex_coords(self) -> np.ndarray:
        """(F, 3, 3) coordinates of the three vertices of each face."""
        return self.nodes[self.faces]

    @_derived
    def boundary_nodes(self) -> np.ndarray:
        """Sorted unique indices of nodes lying on the boundary."""
        return np.unique(self.faces)

    @_derived
    def node_patch_areas(self) -> np.ndarray:
        """(Nb,) total area of the faces touching each boundary node.

        Ordered like ``boundary_nodes``.
        """
        patch = np.zeros(self.boundary_nodes.size)
        np.add.at(patch, self.local_face_indices.ravel(), np.repeat(self.areas, 3))
        return patch

    @_derived
    def local_face_indices(self) -> np.ndarray:
        """(F, 3) faces re-indexed against ``boundary_nodes`` numbering."""
        lookup = np.full(self.nodes.shape[0], -1, dtype=np.int64)
        lookup[self.boundary_nodes] = np.arange(self.boundary_nodes.size)
        return lookup[self.faces]


@dataclass(eq=False)
class TetMesh:
    """Conforming tetrahedral mesh with its P1 geometry, built once.

    Attributes:
        nodes: (N, 3) float64 coordinates.
        tets: (M, 4) int64 connectivity, positively oriented.
        volumes: (M,) positive tet volumes, computed on construction.

    Every node must belong to a tetrahedron.  All are read-only, and
    ``nodes`` and ``tets`` are copies of the arrays passed in, so the
    geometry and operators built for the mesh cannot go stale; edit a copy
    and build a new mesh instead.
    """

    nodes: np.ndarray
    tets: np.ndarray
    volumes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # copies even when no conversion is needed: they are frozen below
        self.nodes = np.array(self.nodes, dtype=np.float64, order="C")
        self.tets = np.array(self.tets, dtype=np.int64, order="C")
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 3:
            raise MeshFormatError("nodes must have shape (N, 3)")
        if self.tets.ndim != 2 or self.tets.shape[1] != 4:
            raise MeshFormatError("tets must have shape (M, 4)")
        if self.tets.size and (self.tets.min() < 0 or self.tets.max() >= len(self.nodes)):
            raise MeshFormatError("tet connectivity references a node out of range")
        orphans = np.flatnonzero(np.bincount(self.tets.ravel(), minlength=len(self.nodes)) == 0)
        if orphans.size:
            raise MeshFormatError(f"node {orphans[0]} belongs to no tetrahedron")
        if not np.isfinite(self.nodes).all():
            raise MeshFormatError("non-finite node coordinate")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
            e = self.nodes[self.tets[:, 1:]] - self.nodes[self.tets[:, :1]]
            signed = np.einsum("mi,mi->m", np.cross(e[:, 0], e[:, 1]), e[:, 2]) / 6.0
        overflowed = np.flatnonzero(~np.isfinite(signed))
        if overflowed.size:
            raise MeshFormatError(f"tet {overflowed[0]} has a non-finite volume")
        flipped = signed < 0.0
        if flipped.any():
            self.tets[flipped, 2], self.tets[flipped, 3] = (
                self.tets[flipped, 3].copy(),
                self.tets[flipped, 2].copy(),
            )
            signed = np.abs(signed)
        if np.any(signed <= 0.0):
            bad = int(np.argmin(signed))
            raise MeshFormatError(f"tet {bad} is degenerate (zero volume)")
        _freeze(self.nodes)
        _freeze(self.tets)
        self.volumes = _freeze(signed)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_tets(self) -> int:
        return self.tets.shape[0]

    @_derived
    def hat_gradients(self) -> np.ndarray:
        """(M, 4, 3) constant gradients of the four P1 hat functions per tet."""
        p = self.nodes[self.tets]
        v6 = 6.0 * self.volumes
        g = np.empty((self.n_tets, 4, 3))
        # grad(lambda_i) = (opposite-face normal, inward) / (3 * volume);
        # cross products ordered for the positive orientation.
        g[:, 1] = np.cross(p[:, 2] - p[:, 0], p[:, 3] - p[:, 0]) / v6[:, None]
        g[:, 2] = np.cross(p[:, 3] - p[:, 0], p[:, 1] - p[:, 0]) / v6[:, None]
        g[:, 3] = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]) / v6[:, None]
        g[:, 0] = -(g[:, 1] + g[:, 2] + g[:, 3])
        return g

    @_derived
    def hat_integrals(self) -> np.ndarray:
        """(N,) integral of each nodal hat function (lumped volume weights)."""
        w = np.zeros(self.n_nodes)
        np.add.at(w, self.tets.ravel(), np.repeat(self.volumes / 4.0, 4))
        return w

    @per_mesh
    def boundary(self) -> SurfaceMesh:
        """The oriented boundary triangulation, extracted once.

        A face is on the boundary iff it belongs to exactly one tet.  Faces
        keep the outward vertex order of the positive-orientation face table,
        so the resulting normals point out of the volume.  Raises if any face
        is shared by more than two tets (non-manifold connectivity).
        """
        flat = self.tets[:, _TET_FACES].reshape(-1, 3)  # 4 faces per tet
        parents = np.repeat(np.arange(self.n_tets), 4)
        key = np.sort(flat, axis=1)
        order = np.lexsort((key[:, 2], key[:, 1], key[:, 0]))
        key_sorted = key[order]
        new_group = np.ones(len(key_sorted), dtype=bool)
        new_group[1:] = np.any(key_sorted[1:] != key_sorted[:-1], axis=1)
        counts = np.bincount(np.cumsum(new_group) - 1)
        if counts.max(initial=0) > 2:
            raise MeshFormatError("non-manifold mesh: a face is shared by more than two tets")
        boundary_rows = order[new_group.nonzero()[0][counts == 1]]
        return SurfaceMesh(self.nodes, flat[boundary_rows], parents[boundary_rows])

    @_derived
    def gradient_matrix(self) -> sparse.csr_matrix:
        """(3M, N) map from nodal values to per-tet gradients, built once.

        Row 3T + d holds the d-th components of the four hat gradients of
        tet T at the columns of its nodes.
        """
        rows = np.repeat(np.arange(3 * self.n_tets), 4)
        cols = np.repeat(self.tets, 3, axis=0).ravel()
        data = self.hat_gradients.transpose(0, 2, 1).ravel()
        return sparse.csr_matrix((data, (rows, cols)), shape=(3 * self.n_tets, self.n_nodes))

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
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    rows = [line.split() for line in re.sub("#[^\n]*", "", text).split("\n")]
    tokens = [(lineno, parts) for lineno, parts in enumerate(rows, start=1) if parts]
    blocks = _convert_blocks(tokens)
    nodes, tets = blocks if blocks is not None else _walk_blocks(path, tokens)
    try:
        return TetMesh(nodes, tets)
    except MeshFormatError as exc:
        raise MeshFormatError(f"{path}: {exc}") from exc


def _convert_blocks(tokens: list[tuple[int, list[str]]]) -> tuple[np.ndarray, np.ndarray] | None:
    """The node and tet arrays of a well-formed file, one conversion per block.

    ``tokens`` are the (line number, fields) of the file's non-blank lines.
    Returns None unless they are exactly a ``nodes <N>`` header, N lines of
    3 fields, a ``tets <M>`` header and M lines of 4, all converting (a
    block with another field count on any line converts to another shape,
    or not at all); the line walk then names what is wrong.
    """

    def count(parts: list[str], word: str) -> int:
        if len(parts) != 2 or parts[0] != word or int(parts[1]) < 0:
            raise ValueError(word)
        return int(parts[1])

    try:
        n_nodes = count(tokens[0][1], "nodes")
        n_tets = count(tokens[n_nodes + 1][1], "tets")
        if len(tokens) != n_nodes + n_tets + 2:
            return None
        nodes = np.array([parts for _, parts in tokens[1 : n_nodes + 1]], dtype=np.float64)
        tets = np.array([parts for _, parts in tokens[n_nodes + 2 :]], dtype=np.int64)
    except (ValueError, OverflowError, IndexError):
        return None
    if nodes.shape != (n_nodes, 3) or tets.shape != (n_tets, 4):
        return None
    return nodes, tets


def _walk_blocks(path, tokens: list[tuple[int, list[str]]]) -> tuple[np.ndarray, np.ndarray]:
    """The node and tet arrays line by line, raising a line-numbered
    :class:`MeshFormatError` at the first line that does not fit."""
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
    return nodes, tets


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


@dataclass
class AngleConditionReport:
    """Result of the weak-acuteness check on the P1 stiffness matrix."""

    satisfied: bool
    max_offdiagonal: float
    n_violations: int
    worst_pair: tuple[int, int] | None


def check_angle_condition(mesh: TetMesh) -> AngleConditionReport:
    """Check the off-diagonal sign condition of the P1 stiffness matrix.

    The tangent-plane update's renormalization step is energy-decreasing when
    every off-diagonal stiffness entry satisfies <grad eta_i, grad eta_j> <= 0
    (weakly acute meshes).  Structured meshes with nonobtuse dihedral angles
    pass with entries that are exactly zero where hats do not interact, so
    the check uses a small positive tolerance, 1e-12.

    Returns:
        AngleConditionReport; ``satisfied`` is True when the largest
        off-diagonal entry is at most the tolerance.
    """
    from . import fem  # local import: fem depends on mesh

    tol = 1e-12
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
