"""P1 finite element fields, assembly, and constrained SPD solves.

Everything here is first-order Lagrange on tetrahedra (volume) and the
induced P1/P0 spaces on the boundary triangulation.  Element matrices are
assembled with closed-form integrals (exact for P1), so quadrature enters
only where point evaluations of user callables are integrated:

* triangles use a 7-point rule exact to degree 5 by default (a 3-point
  degree-2 rule is selectable where a degree parameter is exposed);
* tetrahedra use a fixed 4-point rule, exact to degree 2.

The mass and stiffness matrices of a mesh are assembled once and shared by
every caller, and so is every other fixed linear map a time step applies:
the divergence load (N x 3N), the volume-weighted nodal lift of the
elementwise gradient (3N x N), the Clement boundary interpolation (Nb x F)
and the outward normal derivative (F x N) are each built once per mesh or
surface as a CSR matrix and then applied as one matvec.  Linear solves
eliminate the constrained nodes and use a sparse LU factorization of the
free block, built once per operator and set of constrained nodes; every
solution is checked against the relative residual bound SOLVE_RESIDUAL_TOL
and raises instead of returning a bad solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from .mesh import SurfaceMesh, TetMesh

# 7-point degree-5 triangle rule (barycentric points, weights sum to 1).
_SQRT15 = np.sqrt(15.0)
_A1 = (6.0 - _SQRT15) / 21.0
_A2 = (6.0 + _SQRT15) / 21.0
TRI_QUAD_POINTS = np.array(
    [
        [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        [1.0 - 2.0 * _A1, _A1, _A1],
        [_A1, 1.0 - 2.0 * _A1, _A1],
        [_A1, _A1, 1.0 - 2.0 * _A1],
        [1.0 - 2.0 * _A2, _A2, _A2],
        [_A2, 1.0 - 2.0 * _A2, _A2],
        [_A2, _A2, 1.0 - 2.0 * _A2],
    ]
)
TRI_QUAD_WEIGHTS = np.array(
    [
        9.0 / 40.0,
        (155.0 - _SQRT15) / 1200.0,
        (155.0 - _SQRT15) / 1200.0,
        (155.0 - _SQRT15) / 1200.0,
        (155.0 + _SQRT15) / 1200.0,
        (155.0 + _SQRT15) / 1200.0,
        (155.0 + _SQRT15) / 1200.0,
    ]
)

# 3-point degree-2 triangle rule (edge midpoints).
TRI_QUAD_DEGREE2_POINTS = np.array(
    [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]
)
TRI_QUAD_DEGREE2_WEIGHTS = np.full(3, 1.0 / 3.0)

_TRI_RULES = {
    2: (TRI_QUAD_DEGREE2_POINTS, TRI_QUAD_DEGREE2_WEIGHTS),
    5: (TRI_QUAD_POINTS, TRI_QUAD_WEIGHTS),
}

# 4-point degree-2 tetrahedron rule (barycentric, weights sum to 1).
_TA = (5.0 + 3.0 * np.sqrt(5.0)) / 20.0
_TB = (5.0 - np.sqrt(5.0)) / 20.0
TET_QUAD_POINTS = np.array(
    [
        [_TA, _TB, _TB, _TB],
        [_TB, _TA, _TB, _TB],
        [_TB, _TB, _TA, _TB],
        [_TB, _TB, _TB, _TA],
    ]
)
TET_QUAD_WEIGHTS = np.full(4, 0.25)


@dataclass
class NodalScalarField:
    """P1 scalar field: one coefficient per mesh node."""

    mesh: TetMesh
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.shape != (self.mesh.n_nodes,):
            raise ValueError(f"expected shape ({self.mesh.n_nodes},), got {self.values.shape}")

    def gradient(self) -> np.ndarray:
        """(M, 3) piecewise-constant gradient."""
        return self.mesh.element_gradient(self.values)

    def integral_mean(self) -> float:
        w = self.mesh.hat_integrals
        return float(w @ self.values / w.sum())


@dataclass
class NodalVectorField:
    """P1 vector field: a 3-vector per mesh node."""

    mesh: TetMesh
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.shape != (self.mesh.n_nodes, 3):
            raise ValueError(f"expected shape ({self.mesh.n_nodes}, 3), got {self.values.shape}")

    def nodewise_norms(self) -> np.ndarray:
        return np.linalg.norm(self.values, axis=1)

    def integral_mean(self) -> np.ndarray:
        """Componentwise volume average over the mesh."""
        w = self.mesh.hat_integrals
        return (w @ self.values) / w.sum()


@dataclass
class FaceDensity:
    """P0 surface field: one constant per boundary face."""

    surface: SurfaceMesh
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.shape != (self.surface.n_faces,):
            raise ValueError(
                f"expected shape ({self.surface.n_faces},), got {self.values.shape}"
            )

    def integral(self) -> float:
        return float(self.surface.areas @ self.values)


@dataclass
class SparseOperator:
    """Assembled sparse Galerkin matrix plus the factorizations solves reuse."""

    matrix: sparse.csr_matrix
    mesh: TetMesh
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def shape(self):
        return self.matrix.shape


def assemble_mass(mesh: TetMesh) -> SparseOperator:
    """Consistent P1 mass matrix: M_ij = <eta_i, eta_j>.

    Assembled once per mesh; every call returns the same operator.
    """
    if "fem.mass" not in mesh._cache:
        vol = mesh.volumes
        local = (np.ones((4, 4)) + np.eye(4)) / 20.0
        mesh._cache["fem.mass"] = _scatter(mesh, vol[:, None, None] * local[None, :, :])
    return mesh._cache["fem.mass"]


def assemble_stiffness(mesh: TetMesh) -> SparseOperator:
    """P1 stiffness matrix: K_ij = <grad eta_i, grad eta_j>.

    Assembled once per mesh; every call returns the same operator.
    """
    if "fem.stiffness" not in mesh._cache:
        g = mesh.hat_gradients
        data = np.einsum("mid,mjd->mij", g, g) * mesh.volumes[:, None, None]
        mesh._cache["fem.stiffness"] = _scatter(mesh, data)
    return mesh._cache["fem.stiffness"]


def assemble_weighted_stiffness(mesh: TetMesh, weights: np.ndarray) -> SparseOperator:
    """Stiffness with a positive piecewise-constant coefficient.

    The result has the sparsity pattern of ``assemble_stiffness(mesh)``.
    Its CSR data is linear in the weights, so a sparse map from the
    per-tet weights to that data is built once per mesh and each call is
    one sparse matvec; no element blocks are recomputed and no entries
    re-sorted.

    Args:
        weights: (M,) per-tet coefficient w_T; entries must be positive.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (mesh.n_tets,):
        raise ValueError(f"expected ({mesh.n_tets},) weights, got {weights.shape}")
    if np.any(weights <= 0.0) or not np.isfinite(weights).all():
        raise ValueError("element weights must be positive and finite")
    if "fem.weighted_stiffness" not in mesh._cache:
        mesh._cache["fem.weighted_stiffness"] = _weights_to_stiffness_data(mesh)
    pattern, weight_map = mesh._cache["fem.weighted_stiffness"]
    matrix = sparse.csr_matrix(
        (weight_map @ weights, pattern.indices.copy(), pattern.indptr.copy()),
        shape=pattern.shape,
    )
    return SparseOperator(matrix=matrix, mesh=mesh)


def _weights_to_stiffness_data(mesh: TetMesh) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """The stiffness pattern and the (nnz, M) map from tet weights to its data.

    Entry p of the weighted stiffness data is the sum over tets T touching
    that node pair of w_T |T| <grad eta_i, grad eta_j>_T.
    """
    pattern = assemble_stiffness(mesh).matrix
    g = mesh.hat_gradients
    local = np.einsum("mid,mjd->mij", g, g) * mesh.volumes[:, None, None]
    tets = np.repeat(np.arange(mesh.n_tets), 16)
    weight_map = sparse.csr_matrix(
        (local.ravel(), (pattern_positions(mesh).ravel(), tets)), shape=(pattern.nnz, mesh.n_tets)
    )
    return pattern, weight_map


def pattern_positions(mesh: TetMesh) -> np.ndarray:
    """(M, 4, 4) position of each tet's node pair in the shared P1 pattern.

    Entry [T, i, j] indexes the CSR data of ``assemble_stiffness(mesh)``
    and of ``assemble_mass(mesh)`` (the same canonical pattern, as both
    come from ``_scatter``) at row ``tets[T, i]``, column ``tets[T, j]``.
    """
    pattern = assemble_stiffness(mesh).matrix
    n = mesh.n_nodes
    keys = np.repeat(np.arange(n), np.diff(pattern.indptr)) * n + pattern.indices
    tets = mesh.tets
    return np.searchsorted(keys, tets[:, :, None] * n + tets[:, None, :])


def _scatter(mesh: TetMesh, element_blocks: np.ndarray) -> SparseOperator:
    rows = np.repeat(mesh.tets, 4, axis=1).ravel()
    cols = np.tile(mesh.tets, (1, 4)).ravel()
    matrix = sparse.coo_matrix(
        (element_blocks.ravel(), (rows, cols)), shape=(mesh.n_nodes, mesh.n_nodes)
    ).tocsr()
    matrix.sum_duplicates()
    return SparseOperator(matrix=matrix, mesh=mesh)


def divergence_load(mesh: TetMesh, m_values: np.ndarray) -> np.ndarray:
    """Load vector b_i = <m, grad eta_i> for a nodal vector field m (exact)."""
    if "fem.divergence" not in mesh._cache:
        mesh._cache["fem.divergence"] = _divergence_matrix(mesh)
    return mesh._cache["fem.divergence"] @ np.asarray(m_values, dtype=np.float64).reshape(-1)


def _divergence_matrix(mesh: TetMesh) -> sparse.csr_matrix:
    """(N, 3N) map from node-major m to b, composed as G^T W A.

    A (3M x 3N) averages m over each tet's vertices (its exact tet mean, as
    m is linear), W weights row 3T + d by |T| and G^T tests against the hat
    gradients.
    """
    rows = np.repeat(np.arange(3 * mesh.n_tets), 4)
    cols = 3 * np.repeat(mesh.tets, 3, axis=0) + np.tile(np.arange(3), mesh.n_tets)[:, None]
    weighted_mean = sparse.csr_matrix(
        (np.repeat(0.25 * mesh.volumes, 12), (rows, cols.ravel())),
        shape=(3 * mesh.n_tets, 3 * mesh.n_nodes),
    )
    return (mesh.gradient_matrix.T @ weighted_mean).tocsr()


def lifted_gradient(mesh: TetMesh, values: np.ndarray) -> np.ndarray:
    """Elementwise gradient of a nodal scalar field, lifted to the nodes.

    Node value = sum_T |T| grad(u)_T / sum_T |T| over the tets T containing
    the node, so affine fields keep their exact gradient.

    Returns:
        (N, 3) nodal gradient.
    """
    if "fem.lifted_gradient" not in mesh._cache:
        mesh._cache["fem.lifted_gradient"] = _lifted_gradient_matrix(mesh)
    return (mesh._cache["fem.lifted_gradient"] @ values).reshape(-1, 3)


def _lifted_gradient_matrix(mesh: TetMesh) -> sparse.csr_matrix:
    """(3N, N) map composed as L G: the (3M, N) gradient, then the (3N, 3M)
    lift whose row 3n + d weights component d on each tet T at node n by
    |T| / patch(n)."""
    shape = (mesh.n_tets, 4, 3)  # [T, corner, d]
    rows = 3 * mesh.tets[:, :, None] + np.arange(3)
    cols = np.broadcast_to(3 * np.arange(mesh.n_tets)[:, None, None] + np.arange(3), shape)
    weights = mesh.volumes[:, None] / mesh.node_patch_volumes[mesh.tets]
    lift = sparse.csr_matrix(
        (np.broadcast_to(weights[:, :, None], shape).ravel(), (rows.ravel(), cols.ravel())),
        shape=(3 * mesh.n_nodes, 3 * mesh.n_tets),
    )
    return (lift @ mesh.gradient_matrix).tocsr()


# Relative residual bound ||b - A x|| <= SOLVE_RESIDUAL_TOL ||b|| that every
# solve_spd result is checked against on its free rows.
SOLVE_RESIDUAL_TOL = 1e-10


def solve_spd(
    op: SparseOperator,
    rhs: np.ndarray,
    *,
    constraint: str = "none",
    dirichlet_nodes: np.ndarray | None = None,
    dirichlet_values: np.ndarray | None = None,
) -> np.ndarray:
    """Solve a symmetric positive (semi-)definite system by Dirichlet elimination.

    Every constraint fixes the values at a set of nodes and solves for the
    rest with a sparse LU factorization of the free block.  The factor is
    built on the first solve with a given node set and cached on ``op``.

    Args:
        op: assembled operator (stiffness or mass family).
        rhs: (N,) load vector.
        constraint: one of
            ``"none"`` - plain SPD solve (no constrained nodes);
            ``"zero-mean"`` - stiffness-type singular system; the rhs is
                projected onto the compatible subspace (component sum
                removed), node 0 is pinned to zero, and the solution is
                shifted to zero hat-weighted integral mean;
            ``"zero-dirichlet"`` - homogeneous Dirichlet on all boundary nodes;
            ``"dirichlet"`` - inhomogeneous data on ``dirichlet_nodes``.
        dirichlet_nodes / dirichlet_values: constrained node ids and values
            (``"dirichlet"`` only; ``"zero-dirichlet"`` derives both).

    Returns:
        (N,) solution; constraints hold exactly (Dirichlet rows are set, the
        zero-mean shift is applied after the solve), and the residual
        satisfies ||b - A x|| <= SOLVE_RESIDUAL_TOL ||b|| on the free rows.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape != (op.shape[0],):
        raise ValueError(f"rhs shape {rhs.shape} does not match operator {op.shape}")
    values = None
    if constraint == "none":
        nodes = []
    elif constraint == "zero-mean":
        rhs = rhs - rhs.mean()
        nodes = [0]
    elif constraint == "zero-dirichlet":
        nodes = op.mesh.boundary().boundary_nodes
    elif constraint == "dirichlet":
        if dirichlet_nodes is None or dirichlet_values is None:
            raise ValueError("dirichlet constraint requires nodes and values")
        nodes = dirichlet_nodes
        values = np.asarray(dirichlet_values, dtype=np.float64)
        if np.shape(nodes) != values.shape:
            raise ValueError("dirichlet nodes/values shape mismatch")
    else:
        raise ValueError(f"unknown constraint {constraint!r}")
    nodes = np.asarray(nodes, dtype=np.int64)
    if values is None:
        values = np.zeros(nodes.size)

    key = nodes.tobytes()
    if key not in op._cache:
        free = np.ones(op.shape[0], dtype=bool)
        free[nodes] = False
        rows = op.matrix[free]
        lu = spla.splu(rows[:, free].tocsc()) if free.any() else None
        op._cache[key] = (free, lu, rows[:, nodes].tocsr())
    free, lu, a_fd = op._cache[key]

    x = np.zeros(op.shape[0])
    x[nodes] = values
    if lu is not None:
        b_free = rhs[free] - a_fd @ values
        x[free] = lu.solve(b_free)
        residual = np.linalg.norm((rhs - op.matrix @ x)[free])
        norm_b = np.linalg.norm(b_free)
        if residual > SOLVE_RESIDUAL_TOL * norm_b:
            raise RuntimeError(
                f"sparse LU solve inaccurate: residual {residual:.3e}, |b| {norm_b:.3e}"
            )
    if constraint == "zero-mean":
        w = op.mesh.hat_integrals
        x -= (w @ x) / w.sum()
    return x


def face_quadrature_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric points and reference weights of a triangle rule."""
    if degree not in _TRI_RULES:
        raise ValueError(f"no triangle rule of degree {degree}; available: 2, 5")
    return _TRI_RULES[degree]


def face_quadrature(surface: SurfaceMesh, degree: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """Physical quadrature points and weights of a triangle rule, per face.

    Args:
        degree: polynomial exactness of the rule, 5 (7 points, default) or
            2 (3 points).

    Returns:
        points (F, Q, 3) and weights (F, Q); weights include face areas, so
        summing ``w * g(points)`` integrates g over the surface.
    """
    bary, ref_weights = face_quadrature_rule(degree)
    v = surface.vertex_coords
    points = np.einsum("qk,fkd->fqd", bary, v)
    weights = surface.areas[:, None] * ref_weights[None, :]
    return points, weights


def integrate_faces(surface: SurfaceMesh, g) -> np.ndarray:
    """Per-face integrals of a point-evaluable function (triangle rule).

    Args:
        g: callable mapping (P, 3) points to (P,) values.

    Returns:
        (F,) array of integrals over each face.
    """
    points, weights = face_quadrature(surface)
    vals = np.asarray(g(points.reshape(-1, 3)), dtype=np.float64).reshape(points.shape[:2])
    return np.einsum("fq,fq->f", weights, vals)


def integrate_volume(mesh: TetMesh, g) -> float:
    """Integral of a point-evaluable function over the mesh (tet rule)."""
    p = mesh.nodes[mesh.tets]
    points = np.einsum("qk,mkd->mqd", TET_QUAD_POINTS, p)
    vals = np.asarray(g(points.reshape(-1, 3)), dtype=np.float64).reshape(points.shape[:2])
    return float(np.einsum("m,q,mq->", mesh.volumes, TET_QUAD_WEIGHTS, vals))


def l2_projection_faces(surface: SurfaceMesh, g) -> FaceDensity:
    """Facewise L2 projection of a point-evaluable function onto P0.

    The projection onto constants is the face average (integral / area),
    computed with the fixed triangle rule; exact for polynomials to degree 5,
    in particular an affine g projects to its centroid values.
    """
    return FaceDensity(surface, integrate_faces(surface, g) / surface.areas)


def clement_boundary_interpolation(surface: SurfaceMesh, g) -> np.ndarray:
    """Area-weighted face-average interpolation onto boundary nodes.

    Node value = (sum of the integrals of g over the faces touching the
    node) / (total area of those faces).  Accepts either a point-evaluable
    callable (integrated with the fixed triangle rule) or an (F,) array of
    precomputed per-face integrals of g, which is the form in which boundary
    integral operators deliver their output.  An (F, k) array interpolates k
    functions at once, column by column.

    Values are convex combinations of face averages: constants are
    reproduced exactly and the output range is contained in the range of g.

    Returns:
        (Nb,) nodal values ordered like ``surface.boundary_nodes``, or
        (Nb, k) for (F, k) input.
    """
    if callable(g):
        face_integrals = integrate_faces(surface, g)
    else:
        face_integrals = np.asarray(g, dtype=np.float64)
        if face_integrals.ndim not in (1, 2) or face_integrals.shape[0] != surface.n_faces:
            raise ValueError(
                f"expected ({surface.n_faces},) or ({surface.n_faces}, k) face integrals, "
                f"got {face_integrals.shape}"
            )
    return clement_matrix(surface) @ face_integrals


def clement_matrix(surface: SurfaceMesh) -> sparse.csr_matrix:
    """(Nb, F) Clement map from per-face integrals to boundary nodal values.

    Entry (n, f) is 1 / (patch area of node n) for the three nodes of face
    f.  Built once per surface.
    """
    if "fem.clement" not in surface._cache:
        rows = surface.local_face_indices.ravel()
        cols = np.repeat(np.arange(surface.n_faces), 3)
        surface._cache["fem.clement"] = sparse.csr_matrix(
            (1.0 / surface.node_patch_areas[rows], (rows, cols)),
            shape=(surface.boundary_nodes.size, surface.n_faces),
        )
    return surface._cache["fem.clement"]


def assemble_boundary_mass(surface: SurfaceMesh) -> sparse.csr_matrix:
    """Mixed boundary mass Mb[f, n] = integral of hat n over face f.

    Rows are faces (P0 test functions), columns are boundary nodes in the
    ``surface.boundary_nodes`` local ordering.  For P1 hats the entry is
    |F|/3 for each of the three vertices of F.
    """
    f = surface.n_faces
    rows = np.repeat(np.arange(f), 3)
    cols = surface.local_face_indices.ravel()
    data = np.repeat(surface.areas / 3.0, 3)
    return sparse.coo_matrix(
        (data, (rows, cols)), shape=(f, surface.boundary_nodes.size)
    ).tocsr()


def normal_derivative(u: NodalScalarField, surface: SurfaceMesh) -> FaceDensity:
    """Elementwise outward normal derivative of a P1 field on the boundary.

    Each face takes the (constant) gradient of its parent tet dotted with
    the outward unit normal.  That is a fixed (F, N) map, built once per
    surface: row f holds the parent tet's four hat gradients dotted with
    the normal of f, at the columns of the tet's nodes.
    """
    if "fem.normal_derivative" not in surface._cache:
        mesh, parents = u.mesh, surface.parent_tets
        data = np.einsum("fid,fd->fi", mesh.hat_gradients[parents], surface.normals)
        rows = np.repeat(np.arange(surface.n_faces), 4)
        surface._cache["fem.normal_derivative"] = sparse.csr_matrix(
            (data.ravel(), (rows, mesh.tets[parents].ravel())),
            shape=(surface.n_faces, mesh.n_nodes),
        )
    return FaceDensity(surface, surface._cache["fem.normal_derivative"] @ u.values)


def trace_values(values: np.ndarray, surface: SurfaceMesh) -> np.ndarray:
    """Restrict nodal values to the boundary nodes (local ordering)."""
    return np.asarray(values)[surface.boundary_nodes]


def l2_inner(mass: SparseOperator, a: np.ndarray, b: np.ndarray) -> float:
    """L2 inner product of nodal fields through the mass matrix.

    Accepts (N,) scalars or (N, 3) vectors; vector fields sum over
    components.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    if a.ndim == 1:
        return float(a @ (mass.matrix @ b))
    return float(np.einsum("nd,nd->", a, mass.matrix @ b))


def l2_norm(mass: SparseOperator, a: np.ndarray) -> float:
    """L2 norm of a nodal scalar or vector field."""
    return float(np.sqrt(max(l2_inner(mass, a, a), 0.0)))


def h1_seminorm_sq(stiffness: SparseOperator, a: np.ndarray) -> float:
    """Squared gradient seminorm of a nodal scalar or vector field."""
    return max(l2_inner(stiffness, a, a), 0.0)
