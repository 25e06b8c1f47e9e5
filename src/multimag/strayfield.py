"""Hybrid FEM-BEM stray-field operators on the magnetic body.

Both methods compute pi(m) = grad(u1) where u1 is the magnetostatic
potential of the magnetization m, split as u1 = u11 + u12 with u11 a purely
interior FEM solve and u12 a harmonic correction whose Dirichlet trace is
produced by a boundary integral operator:

* Fredkin-Koehler: u11 solves the zero-mean Neumann-type problem
  <grad u11, grad v> = <m, grad v>; the trace of u12 is the interior trace
  of the double layer potential of trace(u11), realized as the Galerkin
  face integrals (K - 1/2 Mb) applied to the trace and pushed through the
  area-weighted boundary interpolation.

* Garcia-Cervera-Roma: u11 solves the same equation with zero Dirichlet
  data; the trace of u12 is the single layer potential of the face density
  phi = P0(m.nu) - du11/dnu, again via Galerkin face integrals plus
  boundary interpolation.

The boundary step of each method is a fixed linear map, built once per
workspace as a dense matrix: C (K - 1/2 Mb) from the trace of u11 (fk,
Nb x Nb) and C V from phi (gcr, Nb x F), with C the Clement matrix.  The
workspace keeps this map and nothing else of the BEM assembly.

The returned field is the elementwise gradient of u11 + u12 lifted to nodes
by volume-weighted averaging (one fixed sparse map), so it lives in the
same nodal space the time integrator consumes.  For a uniformly magnetized
sphere the exact operator gives grad(u1) = m/3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bem import assemble_bem
from .fem import (
    NodalVectorField,
    SparseOperator,
    assemble_boundary_mass,
    assemble_mass,  # noqa: F401  perfbench/tracer.py wraps it at this module
    assemble_stiffness,
    clement_matrix,
    divergence_load,
    lifted_gradient,
    normal_derivative,
    solve_spd,
)
from .fields import FieldContribution
from .mesh import SurfaceMesh, TetMesh


@dataclass
class StrayfieldWorkspace:
    """Per-mesh state of repeated stray-field evaluations by one method.

    ``boundary_map`` is the method's fixed map to the Dirichlet data of u12:
    C (K - 1/2 Mb) applied to the trace of u11 (fk, Nb x Nb), or C V applied
    to the face density phi (gcr, Nb x F); ``make_strayfield_workspace``
    builds it.  A map whose shape does not fit the method is rejected, so
    ``dataclasses.replace(ws, method=...)`` raises (except on a 4-face
    surface, where Nb = F).
    """

    mesh: TetMesh
    surface: SurfaceMesh
    stiffness: SparseOperator
    method: str
    boundary_map: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_method(self.method)
        rows = self.surface.boundary_nodes.size
        shape = (rows, rows if self.method == "fk" else self.surface.n_faces)
        got = self.boundary_map.shape
        if got != shape:
            raise ValueError(f"{self.method} boundary map must have shape {shape}, got {got}")

    def verify(self) -> None:
        """Check the assembled stiffness belongs to the stored mesh.

        The mesh itself cannot change after assembly: its arrays are
        read-only.
        """
        if self.stiffness.mesh is not self.mesh:
            raise RuntimeError("workspace operators do not belong to the stored mesh")


def _check_method(method: str) -> None:
    if method not in ("fk", "gcr"):
        raise ValueError(f"unknown stray-field method {method!r}")


def make_strayfield_workspace(mesh: TetMesh, method: str = "fk") -> StrayfieldWorkspace:
    """Assemble the stiffness and the method's boundary map; the BEM
    operator the method does not apply is dropped on return."""
    _check_method(method)
    surface = mesh.boundary()
    single_layer, double_layer = assemble_bem(surface)
    clement = clement_matrix(surface)
    if method == "fk":
        boundary_map = clement @ double_layer
        boundary_map -= 0.5 * (clement @ assemble_boundary_mass(surface)).toarray()
    else:
        boundary_map = clement @ single_layer
    return StrayfieldWorkspace(
        mesh=mesh,
        surface=surface,
        stiffness=assemble_stiffness(mesh),
        method=method,
        boundary_map=boundary_map,
    )


def fk_strayfield(ws: StrayfieldWorkspace, m: NodalVectorField) -> NodalVectorField:
    """Fredkin-Koehler stray-field evaluation, pi(m) = grad(u11 + u12)."""
    ws.verify()
    rhs = divergence_load(ws.mesh, m.values)
    u11 = solve_spd(ws.stiffness, rhs, constraint="zero-mean")
    return _add_u12_and_lift(ws, u11, ws.boundary_map @ u11[ws.surface.boundary_nodes])


def p0_normal_trace(surface: SurfaceMesh, m_values: np.ndarray) -> np.ndarray:
    """Facewise L2 projection of the normal trace m.nu of a nodal field.

    For P1 data the projection onto face constants is the vertex average,
    exactly.
    """
    face_mean = m_values[surface.faces].mean(axis=1)
    return np.einsum("fd,fd->f", face_mean, surface.normals)


def gcr_strayfield(ws: StrayfieldWorkspace, m: NodalVectorField) -> NodalVectorField:
    """Garcia-Cervera-Roma stray-field evaluation, pi(m) = grad(u11 + u12)."""
    ws.verify()
    rhs = divergence_load(ws.mesh, m.values)
    u11 = solve_spd(
        ws.stiffness,
        rhs,
        constraint="dirichlet",
        dirichlet_nodes=ws.surface.boundary_nodes,
        dirichlet_values=np.zeros(ws.surface.boundary_nodes.size),
    )
    phi = p0_normal_trace(ws.surface, m.values) - normal_derivative(ws.mesh, ws.surface, u11)
    return _add_u12_and_lift(ws, u11, ws.boundary_map @ phi)


def _add_u12_and_lift(
    ws: StrayfieldWorkspace, u11: np.ndarray, dirichlet: np.ndarray
) -> NodalVectorField:
    """grad(u11 + u12) lifted to the nodes, u12 the harmonic extension of the
    Dirichlet data ``dirichlet`` on the boundary nodes."""
    u12 = solve_spd(
        ws.stiffness,
        np.zeros(ws.mesh.n_nodes),
        constraint="dirichlet",
        dirichlet_nodes=ws.surface.boundary_nodes,
        dirichlet_values=dirichlet,
    )
    return NodalVectorField(ws.mesh, lifted_gradient(ws.mesh, u11 + u12))


@dataclass
class StrayfieldContribution(FieldContribution):
    """Stray field as an effective-field term (linear in m, self-adjoint
    up to discretization error, so it participates in the quadratic
    interaction-energy bookkeeping)."""

    workspace: StrayfieldWorkspace

    name = "strayfield"
    linear_self_adjoint = True

    def evaluate(self, m, zeta=None, time_index=0):
        if self.workspace.method == "fk":
            return fk_strayfield(self.workspace, m)
        return gcr_strayfield(self.workspace, m)
