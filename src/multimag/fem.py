"""P1 finite element fields, assembly, and constrained SPD solves.

Everything here is first-order Lagrange on tetrahedra (volume) and the
induced P1/P0 spaces on the boundary triangulation.  Element matrices are
assembled with closed-form integrals (exact for P1); the one quadrature rule
is the 7-point triangle rule exact to degree 5, which the boundary element
code uses for its outer (test) integrals and the cross-gap transfers.

The mass and stiffness matrices of a mesh are assembled once and shared by
every caller, and so is every other fixed linear map a time step applies:
the divergence load (N x 3N), the volume-weighted nodal lift of the
elementwise gradient (3N x N), the outward normal derivative (F x N), the
Clement interpolation (Nb x F) and the boundary mass (F x Nb), each a CSR
matrix applied as one matvec.  All are ``mesh.per_mesh`` builders: the
first call for a mesh or surface builds, freezes and stores the operator
there, and every later call returns it.  Linear solves eliminate the
constrained nodes (node 0 for a zero-mean solve, the mesh's own boundary
nodes for a Dirichlet one) and use a sparse LU factorization of the free
block, built once per operator and constraint; every solution is checked
against the relative residual bound SOLVE_RESIDUAL_TOL, above the
roundoff floor of the residual, and raises instead of returning a bad
solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from .mesh import SurfaceMesh, TetMesh, per_mesh

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


@dataclass
class NodalScalarField:
    """P1 scalar field: one coefficient per mesh node."""

    mesh: TetMesh
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.shape != (self.mesh.n_nodes,):
            raise ValueError(f"expected shape ({self.mesh.n_nodes},), got {self.values.shape}")


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


@dataclass(eq=False)
class SparseOperator:
    """Assembled sparse Galerkin matrix plus the factorizations solves reuse."""

    matrix: sparse.csr_matrix
    mesh: TetMesh
    _cache: dict = field(default_factory=dict, init=False, repr=False)


@per_mesh
def assemble_mass(mesh: TetMesh) -> SparseOperator:
    """Consistent P1 mass matrix: M_ij = <eta_i, eta_j>.

    Assembled once per mesh, read-only; every call returns the same operator.
    """
    local = (np.ones((4, 4)) + np.eye(4)) / 20.0
    return _scatter(mesh, mesh.volumes[:, None, None] * local[None, :, :])


@per_mesh
def assemble_stiffness(mesh: TetMesh) -> SparseOperator:
    """P1 stiffness matrix: K_ij = <grad eta_i, grad eta_j>.

    Assembled once per mesh, read-only; every call returns the same operator.
    """
    return _scatter(mesh, _stiffness_blocks(mesh))


def assemble_weighted_stiffness(mesh: TetMesh, weights: np.ndarray) -> SparseOperator:
    """Stiffness with a positive piecewise-constant coefficient.

    The element blocks of ``assemble_stiffness`` scaled by w_T, scattered
    the same way: the result has its sparsity pattern, and at w = 1 its
    entries bit for bit.

    Args:
        weights: (M,) per-tet coefficient w_T; entries must be positive.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (mesh.n_tets,):
        raise ValueError(f"expected ({mesh.n_tets},) weights, got {weights.shape}")
    if np.any(weights <= 0.0) or not np.isfinite(weights).all():
        raise ValueError("element weights must be positive and finite")
    return _scatter(mesh, _stiffness_blocks(mesh) * weights[:, None, None])


def _stiffness_blocks(mesh: TetMesh) -> np.ndarray:
    """(M, 4, 4) element stiffness blocks |T| <grad eta_i, grad eta_j>_T."""
    g = mesh.hat_gradients
    return np.einsum("mid,mjd->mij", g, g) * mesh.volumes[:, None, None]


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
    return _divergence_matrix(mesh) @ np.asarray(m_values, dtype=np.float64).reshape(-1)


@per_mesh
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
    return (_lifted_gradient_matrix(mesh) @ values).reshape(-1, 3)


@per_mesh
def _lifted_gradient_matrix(mesh: TetMesh) -> sparse.csr_matrix:
    """(3N, N) map composed as L G: the (3M, N) gradient, then the (3N, 3M)
    lift whose row 3n + d weights component d on each tet T at node n by
    |T| / patch(n), the patch volume being 4 times the hat integral."""
    shape = (mesh.n_tets, 4, 3)  # [T, corner, d]
    rows = 3 * mesh.tets[:, :, None] + np.arange(3)
    cols = np.broadcast_to(3 * np.arange(mesh.n_tets)[:, None, None] + np.arange(3), shape)
    weights = mesh.volumes[:, None] / (4.0 * mesh.hat_integrals)[mesh.tets]
    lift = sparse.csr_matrix(
        (np.broadcast_to(weights[:, :, None], shape).ravel(), (rows.ravel(), cols.ravel())),
        shape=(3 * mesh.n_nodes, 3 * mesh.n_tets),
    )
    return (lift @ mesh.gradient_matrix).tocsr()


# Relative residual bound ||b - A x|| <= SOLVE_RESIDUAL_TOL ||b|| that every
# solve_spd result is checked against on its free rows.  A load that cancels
# to roundoff gets the floor ROUNDOFF_FACTOR eps || |b| + |A| |x| || on top:
# the size of the rounding error in computing b - A x itself.
SOLVE_RESIDUAL_TOL = 1e-10
ROUNDOFF_FACTOR = 64


def solve_spd(
    op: SparseOperator,
    rhs: np.ndarray,
    *,
    constraint: str,
    dirichlet_values: np.ndarray | None = None,
) -> np.ndarray:
    """Solve a symmetric positive (semi-)definite system by Dirichlet elimination.

    Every constraint fixes the values at a set of nodes of ``op.mesh`` and
    solves for the rest with a sparse LU factorization of the free block.
    The factor is built on the first solve with a given constraint and
    cached on ``op``: one cached LU per operator and constraint.

    Args:
        op: assembled operator (stiffness or mass family).
        rhs: (N,) load vector.
        constraint: one of
            ``"zero-mean"`` - stiffness-type singular system; the rhs is
                projected onto the compatible subspace (component sum
                removed), node 0 is pinned to zero, and the solution is
                shifted to zero hat-weighted integral mean;
            ``"dirichlet"`` - data ``dirichlet_values`` on the mesh's own
                boundary, ordered like ``op.mesh.boundary().boundary_nodes``.

    Returns:
        (N,) solution; constraints hold exactly (Dirichlet rows are set, the
        zero-mean shift is applied after the solve), and the residual
        satisfies ||b - A x|| <= SOLVE_RESIDUAL_TOL ||b|| on the free rows,
        up to the roundoff floor of computing b - A x.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    n = op.matrix.shape[0]
    if rhs.shape != (n,):
        raise ValueError(f"rhs shape {rhs.shape} does not match operator {op.matrix.shape}")
    if constraint == "zero-mean":
        rhs = rhs - rhs.mean()
        nodes, values = np.zeros(1, dtype=np.int64), np.zeros(1)
    elif constraint == "dirichlet":
        nodes = op.mesh.boundary().boundary_nodes
        values = np.asarray(dirichlet_values, dtype=np.float64)
        if values.shape != nodes.shape:
            raise ValueError(f"expected ({nodes.size},) dirichlet values, got {values.shape}")
    else:
        raise ValueError(f"unknown constraint {constraint!r}")

    if constraint not in op._cache:
        free = np.ones(n, dtype=bool)
        free[nodes] = False
        rows = op.matrix[free]
        lu = spla.splu(rows[:, free].tocsc()) if free.any() else None
        op._cache[constraint] = (free, lu, rows[:, nodes].tocsr(), abs(rows))
    free, lu, a_fd, abs_rows = op._cache[constraint]

    x = np.zeros(n)
    x[nodes] = values
    if lu is not None:
        b_free = rhs[free] - a_fd @ values
        x[free] = lu.solve(b_free)
        residual = np.linalg.norm((rhs - op.matrix @ x)[free])
        norm_b = np.linalg.norm(b_free)
        if residual > SOLVE_RESIDUAL_TOL * norm_b:
            scale = np.abs(rhs[free]) + abs_rows @ np.abs(x)
            floor = ROUNDOFF_FACTOR * np.finfo(np.float64).eps * np.linalg.norm(scale)
            if residual > SOLVE_RESIDUAL_TOL * norm_b + floor:
                raise RuntimeError(
                    f"sparse LU solve inaccurate: residual {residual:.3e}, |b| {norm_b:.3e}, "
                    f"roundoff floor {floor:.3e}"
                )
    if constraint == "zero-mean":
        w = op.mesh.hat_integrals
        x -= (w @ x) / w.sum()
    return x


def face_quadrature(surface: SurfaceMesh) -> tuple[np.ndarray, np.ndarray]:
    """Physical points and weights of the 7-point triangle rule, per face.

    Returns:
        points (F, 7, 3) and weights (F, 7); weights include face areas, so
        summing ``w * g(points)`` integrates g over the surface.
    """
    points = np.einsum("qk,fkd->fqd", TRI_QUAD_POINTS, surface.vertex_coords)
    weights = surface.areas[:, None] * TRI_QUAD_WEIGHTS[None, :]
    return points, weights


@per_mesh
def clement_matrix(surface: SurfaceMesh) -> sparse.csr_matrix:
    """(Nb, F) Clement map from per-face integrals to boundary nodal values.

    Node value = (sum of the integrals of g over the faces touching the
    node) / (total area of those faces), ordered like
    ``surface.boundary_nodes``: entry (n, f) is 1 / (patch area of node n)
    for the three nodes of face f.  Boundary integral operators deliver
    their output as per-face integrals; applied to an (F, k) array the map
    interpolates k functions at once.  Values are convex combinations of
    face averages, so constants are reproduced exactly and the output range
    lies in the range of g.  Built once per surface, read-only.
    """
    rows = surface.local_face_indices.ravel()
    cols = np.repeat(np.arange(surface.n_faces), 3)
    return sparse.csr_matrix(
        (1.0 / surface.node_patch_areas[rows], (rows, cols)),
        shape=(surface.boundary_nodes.size, surface.n_faces),
    )


@per_mesh
def assemble_boundary_mass(surface: SurfaceMesh) -> sparse.csr_matrix:
    """Mixed boundary mass Mb[f, n] = integral of hat n over face f.

    Rows are faces (P0 test functions), columns are boundary nodes in the
    ``surface.boundary_nodes`` local ordering.  For P1 hats the entry is
    |F|/3 for each of the three vertices of F.  Built once per surface,
    read-only.
    """
    f = surface.n_faces
    rows = np.repeat(np.arange(f), 3)
    cols = surface.local_face_indices.ravel()
    data = np.repeat(surface.areas / 3.0, 3)
    return sparse.coo_matrix(
        (data, (rows, cols)), shape=(f, surface.boundary_nodes.size)
    ).tocsr()


def normal_derivative(mesh: TetMesh, values: np.ndarray) -> np.ndarray:
    """(F,) elementwise outward normal derivative of a nodal field on the boundary.

    Each face of ``mesh.boundary()`` takes the (constant) gradient of its
    parent tet dotted with the outward unit normal, through one fixed map.
    """
    return _normal_derivative_matrix(mesh) @ values


@per_mesh
def _normal_derivative_matrix(mesh: TetMesh) -> sparse.csr_matrix:
    """(F, N) map whose row f holds the parent tet's four hat gradients dotted
    with the normal of f, at the columns of the tet's nodes."""
    surface = mesh.boundary()
    parents = surface.parent_tets
    data = np.einsum("fid,fd->fi", mesh.hat_gradients[parents], surface.normals)
    rows = np.repeat(np.arange(surface.n_faces), 4)
    return sparse.csr_matrix(
        (data.ravel(), (rows, mesh.tets[parents].ravel())),
        shape=(surface.n_faces, mesh.n_nodes),
    )


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
