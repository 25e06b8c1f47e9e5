"""Macroscopic coupling: the magnetizable-environment field on the body.

The magnetic body occupies Omega_1; a second, possibly nonlinearly
magnetizable body occupies Omega_2 at positive distance.  The contribution
pi(m, f) = grad(u2) of the environment to the effective field on Omega_1 is
computed by the pipeline

  1. u11 on Omega_1:    <grad u11, grad v> = <m, grad v>   (zero mean)
  2. u1 on Omega_2:     interior Dirichlet extension of the double layer
                        potential of trace(u11), evaluated across the gap
  3. u_app on Omega_2:  <grad u_app, grad v> = -<f, grad v> (zero mean)
  4. (phi, u) on Omega_2/Gamma_2: stabilized nonlinear one-equation FEM-BEM
                        coupling (below)
  5. u2 on Omega_1:     interior Dirichlet extension of the representation
                        formula -V2 phi + K2 (u - u1 - u_app)

The geometry is fixed, so the boundary data of steps 2 and 5 are fixed
linear maps of the Gamma_1 trace and of (phi, w) on Gamma_2.  Each is built
once, on first use, as a dense matrix on the MultiscaleWorkspace (the layer
potential integrated over each target face, ``bem.layer_integrals``, then
Clement averaged onto the target nodes) and then applied as a matrix-vector
product.  The build is two sweeps of panel integrals: Gamma_1's panels on
Gamma_2's faces for the double layer of step 2 alone, and Gamma_2's panels on
Gamma_1's faces for the single and double layers of step 5, which share
that one sweep.
Step 3 depends on f alone: the CouplingWorkspace keeps the last u_app with a
copy of its f and solves again only when f changes bitwise, so a constant
applied field costs one solve per workspace.  ``coupling_data`` runs steps
1-3 and stages the data of step 4; ``MultiscaleContribution.evaluate`` runs
the whole pipeline.

The coupling system for the total potential u in Omega_2 and the exterior
normal derivative phi on Gamma_2 reads, with g(t) = t + chi(t) t,

  <(1 + chi(|grad u|)) grad u, grad v> - <phi, v>_Gamma
        = <lambda, v>_Gamma - <f, grad v>            for all v,
  <V phi + (1/2 - K) u, psi>_Gamma
        = <(1/2 - K)(u1 + u_app), psi>_Gamma          for all psi,

where lambda is the conormal flux of u1.  It enters only through its
moments against the boundary hats, which the discrete Green formula gives
exactly as the Galerkin load <grad u1, grad v> = (S u1)_v on the boundary
rows of the stiffness S (``conormal_flux``); no density lambda is formed.
1/2 - K is one dense (F, Nb) matrix, 1/2 Mb - K with Mb the boundary mass,
kept as ``CouplingWorkspace.trace_map``; P, A, b and the stabilization
vector all apply it.  The plain Galerkin operator of
this system is not strongly monotone; it is stabilized by the rank-one
augmentation A(x) = A~(x) + s (s.x) and b = b~ + (sum of the BEM-block
entries of b~) s, where s.x is the BEM row tested with psi = 1.  Constants
satisfy s.x = <V phi + (1/2-K)u, 1> = <V phi, 1> + <u, 1> (the double layer
of a constant has interior trace -1, so (1/2 - K)1 = 1), which is what
restores definiteness on the constant direction.  Any solution of the plain
system solves the stabilized one and vice versa.

Material laws supply chi with derivative bounds g' in [gamma, lip]; the
stabilized operator is strongly monotone when gamma > 1/4, which is
enforced at solver entry.  The nonlinear solve is a damped Zarantonello
iteration x <- x - delta P^-1 (A(x) - b) with delta = gamma / lip^2 and P
the chi == 0 stabilized matrix, or optionally a Kacanov iteration that
refreezes the weights w = 1 + chi(|grad u|) and solves A_w x = b.  Kacanov
is for laws whose lip/gamma makes Zarantonello's step gamma/lip^2 too
short: for tanh 3 1 on two 85-node spheres Zarantonello needs ~300
iterations, past its default cap of 200, and Kacanov 9.  Both converge from
any start x0 (Aurada, Feischl, Fuehrer, Karkulik, Melenk & Praetorius,
Comput. Mech. 51, 2013).  A MultiscaleContribution therefore starts each
solve from the previous converged state it keeps in ``last_state``, and
from x = 0 at time index 0, so every run starts from the same point and
reruns repeat exactly.  A has one form, ``CouplingWorkspace.apply``, which
acts through the gradient map G of the mesh as G^T (w |T| Gu) and assembles
no matrix.  P is the one dense matrix and its LU the one factorisation: a
linear law is one solve of A_w x = b, as is each Kacanov step, by restarted
GMRES on the matrix-free A_w preconditioned by P's LU.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.linalg import lu_factor, lu_solve
from scipy.sparse import linalg as spla

from .bem import (
    assemble_bem,
    eval_double_layer,  # noqa: F401  perfbench/tracer.py wraps it at this module
    eval_single_layer,  # noqa: F401  perfbench/tracer.py wraps it at this module
    layer_integrals,
    solid_angles,
)
from .fem import (
    NodalScalarField,
    NodalVectorField,
    SparseOperator,
    assemble_boundary_mass,
    assemble_stiffness,
    assemble_weighted_stiffness,  # noqa: F401  perfbench/tracer.py wraps it at this module
    clement_matrix,
    divergence_load,
    lifted_gradient,
    solve_spd,
)
from .fields import FieldContribution
from .mesh import SurfaceMesh, TetMesh

logger = logging.getLogger("multimag")

GMRES_TOL_FRACTION = 1e-2  # frozen-coefficient GMRES: rtol as a fraction of tol_nl,
GMRES_RTOL_FLOOR = 1e-14  # but no lower, where roundoff stalls it,
GMRES_RESTART = 50  # iterations between restarts,
GMRES_CYCLES = 10  # and restart cycles before it counts as stopped short

# Smallest tol_nl a nonlinear coupling solve accepts.  The preconditioned
# residual stalls at its roundoff floor: for tanh 1 1 (random m, f = 0.5 e_z)
# both schemes bottom out at 2.5e-15, 3.8e-15 and 7.6e-15 relative on 85-,
# 325- and 2569-node Omega_2 bodies, and a tol below that is reported as a
# residual increase.  1e-14 converged at each size; the floor is a decade above.
TOL_NL_FLOOR = 1e-13

# (point, point) pairs per block of the boundary node gap: 1.5 MiB of differences
GAP_PAIRS = 2**16

# A boundary node seeing the other body's surface under a solid angle below
# -CONTACT_ANGLE lies on it.  Off it the angle is 0 up to rounding (<= 2.8e-15 pi
# on 1280-face spheres 0.03 apart); on it, minus the interior angle (-pi/2 at a cube corner).
CONTACT_ANGLE = 1e-6 * np.pi

_LAW_ARITY = {"zero": 0, "linear": 1, "tanh": 2, "rational": 4}


@dataclass(frozen=True)
class MaterialLaw:
    """Susceptibility law chi(t) with monotonicity bounds for g(t) = t + chi(t) t.

    Attributes:
        kind: one of ``zero``, ``linear``, ``tanh``, ``rational``.
        params: law coefficients (see :func:`material_law`).
        gamma: lower bound of g' (strong monotonicity constant).
        lip: upper bound of g' (Lipschitz constant).
    """

    kind: str
    params: tuple
    gamma: float
    lip: float

    def chi(self, t: np.ndarray) -> np.ndarray:
        """chi(t) for t >= 0, vectorized."""
        t = np.asarray(t, dtype=np.float64)
        if self.kind == "zero":
            return np.zeros_like(t)
        if self.kind == "linear":
            return np.full_like(t, self.params[0])
        if self.kind == "tanh":
            c1, c2 = self.params
            with np.errstate(invalid="ignore", divide="ignore"):
                out = np.where(t > 0.0, c1 * np.tanh(c2 * t) / np.where(t > 0, t, 1.0), c1 * c2)
            return out
        c1, c2, c3, c4 = self.params
        return (c1 + c2 * t) / (1.0 + c3 * t + c4 * t**2)

    def g(self, t: np.ndarray) -> np.ndarray:
        """g(t) = t + chi(t) t."""
        t = np.asarray(t, dtype=np.float64)
        return t + self.chi(t) * t

    @property
    def is_linear(self) -> bool:
        return self.kind in ("zero", "linear")


def material_law(kind: str, *params: float) -> MaterialLaw:
    """Construct a material law and derive its monotonicity bounds.

    * ``zero``: chi == 0, g' == 1.
    * ``linear c``: chi == c >= 0, g' == 1 + c.
    * ``tanh c1 c2``: chi(t) = c1 tanh(c2 t)/t, so g(t) = t + c1 tanh(c2 t)
      and g'(t) = 1 + c1 c2 sech^2(c2 t) in [1, 1 + c1 c2] for c1, c2 > 0.
    * ``rational c1 c2 c3 c4``: chi(t) = (c1 + c2 t)/(1 + c3 t + c4 t^2);
      bounds are estimated by sampling g' on a log-spaced grid over
      [0, 1e6] with a 5% safety margin and then validated.
    """
    if kind not in _LAW_ARITY:
        raise ValueError(f"unknown material law {kind!r}")
    if len(params) != _LAW_ARITY[kind]:
        raise ValueError(f"law {kind!r} takes {_LAW_ARITY[kind]} parameters, got {len(params)}")
    if np.isinf(params).any():  # NaN fails each law's own checks below
        raise ValueError(f"law {kind!r} parameters must be finite, got {params}")
    if kind == "zero":
        return MaterialLaw(kind, (), gamma=1.0, lip=1.0)
    if kind == "linear":
        (c,) = params
        if not c >= 0.0:  # NaN fails too
            raise ValueError("linear susceptibility must be nonnegative")
        return MaterialLaw(kind, (float(c),), gamma=1.0 + c, lip=1.0 + c)
    if kind == "tanh":
        c1, c2 = params
        if not (c1 > 0.0 and c2 > 0.0):
            raise ValueError("tanh law requires positive c1, c2")
        return MaterialLaw(kind, (float(c1), float(c2)), gamma=1.0, lip=1.0 + c1 * c2)
    c1, c2, c3, c4 = (float(p) for p in params)
    law = MaterialLaw(kind, (c1, c2, c3, c4), gamma=1.0, lip=1.0)
    ts = np.concatenate([[0.0], np.logspace(-6, 6, 4001)])
    dg = _numeric_dg(law, ts)
    if not np.isfinite(dg).all():
        raise ValueError("rational law has a non-finite derivative on [0, 1e6]")
    gamma = float(dg.min()) * 0.95 if dg.min() > 0 else float(dg.min()) * 1.05
    lip = float(dg.max()) * 1.05
    if gamma <= 0.0:
        raise ValueError(f"rational law is not monotone: min g' = {dg.min():.4g}")
    return MaterialLaw(kind, (c1, c2, c3, c4), gamma=gamma, lip=lip)


def _numeric_dg(law: MaterialLaw, ts: np.ndarray) -> np.ndarray:
    h = np.maximum(1e-7 * np.maximum(ts, 1.0), 1e-9)
    return (law.g(ts + h) - law.g(np.maximum(ts - h, 0.0))) / (h + np.minimum(ts, h))


@dataclass
class CouplingState:
    """Result of one coupling solve."""

    phi: np.ndarray  # (F,) exterior normal derivative on Gamma_2
    u: NodalScalarField
    residual_history: list  # relative residual after each iteration, in order

    @property
    def residual(self) -> float:
        """The final relative residual."""
        return self.residual_history[-1]

    @property
    def iterations(self) -> int:
        return len(self.residual_history)

    @property
    def x(self) -> np.ndarray:
        """The solution vector (u, phi), a start point for the next solve."""
        return np.concatenate([self.u.values, self.phi])


@dataclass
class CouplingData:
    """Right-hand-side data of the coupling system."""

    flux: np.ndarray  # (N2,) Galerkin load <lambda, v>_Gamma of u1's conormal flux, 0 inside
    f: np.ndarray  # (N2, 3) applied-field nodal values on Omega_2
    gamma_trace: np.ndarray  # (Nb,) trace of u1 + u_app, local boundary order


@dataclass
class CouplingWorkspace:
    """Assembled operators of the coupling problem on Omega_2.

    Built as ``CouplingWorkspace(mesh)``: the mesh's own boundary ``surface``,
    that surface's Galerkin V and trace map 1/2 Mb - K, Mb^T for the -<phi, v>
    block, and the mesh's own ``stiffness``.
    """

    mesh: TetMesh
    single_layer: np.ndarray = field(init=False, repr=False)  # (F, F) Galerkin V of Gamma_2
    trace_map: np.ndarray = field(init=False, repr=False)  # (F, Nb) 1/2 Mb - K of Gamma_2
    surface: SurfaceMesh = field(init=False, repr=False)
    stiffness: SparseOperator = field(init=False, repr=False)
    boundary_mass_t: sparse.csr_matrix = field(init=False, repr=False)  # (Nb, F) Mb^T
    s_vec: np.ndarray = field(init=False, repr=False)  # stabilization vector
    p_lu: tuple = field(init=False, repr=False)  # LU of the chi==0 matrix
    gradient_t: sparse.csr_matrix = field(default=None, init=False, repr=False)  # (N, 3M) G^T
    _uapp: tuple = field(default=None, init=False, repr=False)  # (f bytes, u_app)

    def __post_init__(self) -> None:
        self.surface = self.mesh.boundary()
        self.single_layer, double_layer = assemble_bem(self.surface, True, True)
        self.stiffness = assemble_stiffness(self.mesh)
        boundary_mass = assemble_boundary_mass(self.surface)
        self.boundary_mass_t = boundary_mass.T.tocsr()
        self.trace_map = 0.5 * boundary_mass.toarray() - double_layer
        n2, bnodes = self.n_u, self.surface.boundary_nodes
        ones = np.ones(self.n_phi)
        self.s_vec = np.zeros(n2 + self.n_phi)
        self.s_vec[bnodes] = self.trace_map.T @ ones
        self.s_vec[n2:] = self.single_layer.T @ ones
        # P, the chi == 0 matrix, built on the body's one stiffness
        p = np.zeros((n2 + self.n_phi, n2 + self.n_phi))
        p[:n2, :n2] = self.stiffness.matrix.toarray()
        p[bnodes, n2:] -= self.boundary_mass_t.toarray()
        p[n2:, bnodes] += self.trace_map
        p[n2:, n2:] += self.single_layer
        p += np.outer(self.s_vec, self.s_vec)
        self.p_lu = lu_factor(p)
        self.gradient_t = self.mesh.gradient_matrix.T.tocsr()

    @property
    def n_u(self) -> int:
        return self.mesh.n_nodes

    @property
    def n_phi(self) -> int:
        return self.surface.n_faces

    def uapp(self, f_values: np.ndarray) -> NodalScalarField:
        """:func:`solve_uapp` of f, solved again only when f changes bitwise.

        u_app is a function of f alone, so the last result is kept with a
        copy of its f and returned while f stays the same.
        """
        key = np.ascontiguousarray(f_values, dtype=np.float64).tobytes()
        if self._uapp is None or self._uapp[0] != key:
            self._uapp = (key, solve_uapp(self, f_values))
        return self._uapp[1]

    def apply(self, law: MaterialLaw, x: np.ndarray) -> np.ndarray:
        """Stabilized nonlinear operator A(x) = A_w x, w = 1 + chi(|Gu|) taken at
        x = (u, phi), with G the (3M, N) gradient map; nothing is assembled."""
        grad = self._gradient(x)
        return self._weighted(self._weights(law, grad), grad, x)

    def _gradient(self, x: np.ndarray) -> np.ndarray:
        return self.mesh.element_gradient(x[: self.n_u])

    def _weights(self, law: MaterialLaw, grad: np.ndarray) -> np.ndarray:
        return (1.0 + law.chi(np.linalg.norm(grad, axis=1))) * self.mesh.volumes

    def _weighted(self, weights: np.ndarray, grad: np.ndarray, x: np.ndarray) -> np.ndarray:
        """G^T (weights grad) + BEM blocks + s s^T at x; weights include |T|."""
        u, phi = x[: self.n_u], x[self.n_u :]
        out = np.empty_like(x)
        out[: self.n_u] = self.gradient_t @ (weights[:, None] * grad).ravel()
        bnodes = self.surface.boundary_nodes
        out[: self.n_u][bnodes] -= self.boundary_mass_t @ phi
        out[self.n_u :] = self.single_layer @ phi + self.trace_map @ u[bnodes]
        return out + self.s_vec * (self.s_vec @ x)

    def rhs(self, data: CouplingData) -> np.ndarray:
        """Stabilized right-hand side b."""
        n2 = self.n_u
        b = np.empty(n2 + self.n_phi)
        b[:n2] = data.flux
        b[:n2] -= divergence_load(self.mesh, data.f)
        b[n2:] = self.trace_map @ data.gamma_trace
        return b + self.s_vec * b[n2:].sum()


def solve_uapp(ws: CouplingWorkspace, f_values: np.ndarray) -> NodalScalarField:
    """Zero-mean auxiliary potential: <grad u_app, grad v> = -<f, grad v>."""
    rhs = -divergence_load(ws.mesh, np.broadcast_to(f_values, (ws.mesh.n_nodes, 3)))
    return NodalScalarField(ws.mesh, solve_spd(ws.stiffness, rhs, constraint="zero-mean"))


def conormal_flux(ws: CouplingWorkspace, u_values: np.ndarray) -> NodalScalarField:
    """Galerkin Neumann load of a nodal field: <grad u, grad v> for each
    boundary hat v, and 0 on the interior nodes.

    These boundary rows of S u (S the stiffness) are the moments
    <lambda, v>_Gamma of u's conormal flux lambda against the boundary hats,
    by the discrete Green formula.  For a
    discrete-harmonic u this is the exact discrete flux, so substituting u
    back into the coupled system leaves no residual; the elementwise normal
    derivative would leave an O(h) one.
    """
    bnodes = ws.surface.boundary_nodes
    load = np.zeros(ws.n_u)
    load[bnodes] = (ws.stiffness.matrix @ u_values)[bnodes]
    return NodalScalarField(ws.mesh, load)


def check_solver_settings(law: MaterialLaw, scheme: str, tol_nl: float, max_iter: int) -> None:
    """Reject what :func:`solve_coupling` cannot solve with: a law with gamma <= 1/4, an
    unknown scheme, tol_nl <= 0 (< TOL_NL_FLOOR for a nonlinear law) or max_iter < 1."""
    if not law.gamma > 0.25:
        raise ValueError(
            f"material monotonicity constant gamma = {law.gamma:.4g} must exceed 1/4 "
            "for the stabilized coupling to be strongly monotone"
        )
    if scheme not in ("zarantonello", "kacanov"):
        raise ValueError(f"unknown nonlinear scheme {scheme!r}; known: zarantonello, kacanov")
    if not tol_nl > 0.0:  # NaN fails too
        raise ValueError(f"tol must be positive, got {tol_nl}")
    if not max_iter >= 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not law.is_linear and not tol_nl >= TOL_NL_FLOOR:
        raise ValueError(
            f"tol = {tol_nl:g} is below the roundoff floor {TOL_NL_FLOOR:g} "
            "of the nonlinear coupling solve"
        )


def solve_coupling(
    ws: CouplingWorkspace,
    data: CouplingData,
    law: MaterialLaw,
    *,
    scheme: str = "zarantonello",
    tol_nl: float = 1e-8,
    max_iter: int = 200,
    x0: np.ndarray | None = None,
) -> CouplingState:
    """Solve the stabilized coupling system for (u, phi).

    A linear law is one :func:`_frozen_solve`.  Nonlinear laws iterate
    (Zarantonello or Kacanov, a frozen solve per step) from ``x0`` (zero when
    None; linear laws ignore it) until the preconditioned residual
    ||P^-1 (A(x) - b)||_2 falls below ``tol_nl`` relative to ||P^-1 b||_2;
    the residual history must decrease strictly monotonically, and the
    iteration cap aborts with the history attached.  The settings must
    pass :func:`check_solver_settings`.  The scheme, the start, the
    iterations and the final residual are logged at DEBUG.

    Args:
        x0: (N2 + F,) start vector (u, phi), such as the ``x`` of an
            earlier :class:`CouplingState` on this workspace.
    """
    check_solver_settings(law, scheme, tol_nl, max_iter)
    b = ws.rhs(data)
    scale = np.linalg.norm(lu_solve(ws.p_lu, b)) or 1.0  # ||P^-1 b||, 1 when b = 0

    if law.is_linear:
        x = _frozen_solve(ws, law, np.zeros(ws.n_u + ws.n_phi), b, tol_nl)
        res = float(np.linalg.norm(lu_solve(ws.p_lu, ws.apply(law, x) - b)) / scale)
        return _pack_state(ws, x, [res], "linear", "cold")

    if x0 is None:
        x, start = np.zeros(ws.n_u + ws.n_phi), "cold"
    else:
        x, start = np.array(x0, dtype=np.float64), "warm"
        if x.shape != (ws.n_u + ws.n_phi,):
            raise ValueError(f"expected ({ws.n_u + ws.n_phi},) start vector, got {x.shape}")
    history: list[float] = []
    delta = law.gamma / law.lip**2
    for iteration in range(1, max_iter + 1):
        r = ws.apply(law, x) - b
        z = lu_solve(ws.p_lu, r)
        res = float(np.linalg.norm(z) / scale)
        if history and res >= history[-1] and res > tol_nl:
            raise RuntimeError(
                f"residual increased at iteration {iteration}: "
                f"{history[-1]:.6e} -> {res:.6e}; history: {history}"
            )
        history.append(res)
        if res <= tol_nl:
            return _pack_state(ws, x, history, scheme, start)
        if scheme == "zarantonello":
            x = x - delta * z
        else:
            x = _frozen_solve(ws, law, x, b, tol_nl)
    raise RuntimeError(
        f"coupling solve did not reach tol {tol_nl:g} within {max_iter} iterations; "
        f"last residuals: {history[-5:]}"
    )


def _frozen_solve(ws, law, x, b, tol_nl) -> np.ndarray:
    """A_w^-1 b, w = 1 + chi(|grad u|) frozen at x, by GMRES from x on the
    matrix-free A_w preconditioned by P's LU; RuntimeError if it stops short."""
    weights = ws._weights(law, ws._gradient(x))
    shape = (x.size, x.size)
    a_w = spla.LinearOperator(shape, lambda y: ws._weighted(weights, ws._gradient(y), y),
                              dtype=np.float64)
    p_inv = spla.LinearOperator(shape, lambda r: lu_solve(ws.p_lu, r), dtype=np.float64)
    rtol = max(GMRES_TOL_FRACTION * tol_nl, GMRES_RTOL_FLOOR)
    y, info = spla.gmres(a_w, b, x0=x, rtol=rtol, restart=GMRES_RESTART,
                         maxiter=GMRES_CYCLES, M=p_inv)
    if info != 0:
        raise RuntimeError(f"frozen-coefficient solve did not converge: GMRES info {info}")
    return y


def _pack_state(ws, x, history, scheme, start) -> CouplingState:
    logger.debug(
        "coupling solve (%s, %s start): %d iterations, relative residual %.3e",
        scheme, start, len(history), history[-1],
    )
    return CouplingState(
        phi=x[ws.n_u :], u=NodalScalarField(ws.mesh, x[: ws.n_u]), residual_history=history
    )


@dataclass
class MultiscaleWorkspace:
    """Assembled state of the full two-domain pipeline.

    Built as ``MultiscaleWorkspace(mesh1, coupling)``, with ``coupling``
    the workspace of Omega_2; ``surface1`` and ``stiffness1`` are Omega_1's
    own boundary and stiffness, taken from ``mesh1`` on construction.  The
    cross-gap transfers are dense matrices built on first use and kept
    here: the Clement averages of ``bem.layer_integrals`` on the target
    faces, whose integrals are regular since the domains are separated.
    Building them costs two sweeps of panel integrals, 7 F1 F2
    (point, panel) pairs each: Gamma_1 -> Gamma_2 for the double layer, and
    Gamma_2 -> Gamma_1 for the single and double layers together.
    Applying them costs a few matrix-vector products.
    """

    mesh1: TetMesh
    coupling: CouplingWorkspace
    surface1: SurfaceMesh = field(init=False, repr=False)
    stiffness1: SparseOperator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.surface1 = self.mesh1.boundary()
        _check_separated(self.surface1, self.coupling.surface)
        self.stiffness1 = assemble_stiffness(self.mesh1)

    @cached_property
    def transfer_12(self) -> np.ndarray:
        """(Nb2, Nb1) map from a Gamma_1 trace to the Gamma_2 boundary values
        of its double layer potential (pipeline step 2)."""
        s2 = self.coupling.surface
        return clement_matrix(s2) @ layer_integrals(self.surface1, s2, False, True)[1]

    @cached_property
    def transfer_21(self) -> tuple[np.ndarray, np.ndarray]:
        """(Nb1, F2) and (Nb1, Nb2) maps from phi and from a Gamma_2 trace to
        the Gamma_1 boundary values of their single and double layer
        potentials (pipeline step 5), from one sweep of Gamma_2's panels."""
        clement = clement_matrix(self.surface1)
        single, double = layer_integrals(self.coupling.surface, self.surface1, True, True)
        return clement @ single, clement @ double


def _check_separated(s1: SurfaceMesh, s2: SurfaceMesh) -> None:
    """The two bodies must be disjoint with positive distance.  A node sees a
    surface under the solid angle -4 pi inside it, 0 outside it, and minus
    the interior angle on it: -2 pi on a face, -pi on a right-angled edge.
    An edge of one body that crosses a face of the other is an overlap; one
    that meets a closed face without crossing it, with no node on the other
    surface, is a contact."""
    d1, d2 = s1.nodes[s1.boundary_nodes], s2.nodes[s2.boundary_nodes]
    angles = np.concatenate([solid_angles(s1, d2), solid_angles(s2, d1)])
    if (angles < -3.0 * np.pi).any():
        raise ValueError("domains overlap: boundary nodes of one body lie inside the other")
    (cross12, touch12), (cross21, touch21) = _edge_contacts(s1, s2), _edge_contacts(s2, s1)
    if cross12 or cross21:
        raise ValueError("domains overlap: an edge of one body crosses the other's surface")
    if (angles < -CONTACT_ANGLE).any() or not _node_gap(d1, d2) > 0.0:
        raise ValueError("domains touch: a boundary node of one body lies on the other's surface")
    if touch12 or touch21:
        raise ValueError("domains touch: an edge of one body meets the other's surface")


def _edge_face_blocks(s: SurfaceMesh, t: SurfaceMesh):
    """Blocks of about GAP_PAIRS (edge, face) pairs of the edges of ``s`` and
    the faces of ``t`` that meet the overlap of the two bounding boxes, as
    ``(p, q, a, b, c)``: (rows, 1, 3) edge ends and (1, T, 3) face vertices."""
    vs, vt = s.vertex_coords.reshape(-1, 3), t.vertex_coords.reshape(-1, 3)
    lo = np.maximum(vs.min(axis=0), vt.min(axis=0))
    hi = np.minimum(vs.max(axis=0), vt.max(axis=0))
    if (lo > hi).any():
        return

    def in_box(points):  # (n, k, 3) -> (n,) whose bounding box meets [lo, hi]
        return ((points.max(axis=1) >= lo) & (points.min(axis=1) <= hi)).all(axis=1)

    edges = np.unique(np.sort(s.faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1), axis=0)
    segs, tris = s.nodes[edges], t.vertex_coords
    segs, tris = segs[in_box(segs)], tris[in_box(tris)]
    a, b, c = (tris[None, :, k] for k in range(3))
    rows = max(1, GAP_PAIRS // max(1, len(tris)))
    for start in range(0, len(segs), rows):
        p, q = (segs[start : start + rows, None, k] for k in range(2))
        yield p, q, a, b, c


def _edge_contacts(s: SurfaceMesh, t: SurfaceMesh) -> tuple[bool, bool]:
    """Whether an edge of ``s`` crosses a face of ``t``, and whether one meets
    a closed face of ``t``, by orient3d signs.

    An edge crosses a face if its ends lie strictly on either side of the
    face's plane and it passes strictly inside the face.  For meeting, a
    zero sign counts as contact.  An edge that leaves the face's plane
    meets the face if its ends do not lie strictly on one side of the plane
    and its line passes through the face or its boundary (the turns about
    the three face edges are not of both signs).  An edge in the plane meets
    the face unless a line separates them in the plane: a face edge's line
    with both ends strictly outside it, or the edge's own line with all
    three face vertices strictly on one side.  A crossing edge also meets
    the face, so the sweep stops at the first crossing."""
    touches = False
    for p, q, a, b, c in _edge_face_blocks(s, t):
        sp, sq = _orient(a, b, c, p), _orient(a, b, c, q)
        turns = np.stack([_orient(p, q, a, b), _orient(p, q, b, c), _orient(p, q, c, a)])
        if ((sp * sq < 0) & (np.abs(turns.sum(axis=0)) == 3)).any():
            return True, True
        in_plane = (sp == 0) & (sq == 0)
        mixed = (turns.max(axis=0) > 0) & (turns.min(axis=0) < 0)
        touches |= bool(((sp * sq <= 0) & ~in_plane & ~mixed).any())
        if touches or not in_plane.any():
            continue
        n = np.cross(b - a, c - a)
        apart = np.zeros(in_plane.shape, dtype=bool)
        for u, v in ((a, b), (b, c), (c, a)):
            apart |= (_turn(u, v, p, n) < 0) & (_turn(u, v, q, n) < 0)
        across = np.stack([_turn(p, q, a, n), _turn(p, q, b, n), _turn(p, q, c, n)])
        apart |= (across > 0).all(axis=0) | (across < 0).all(axis=0)
        touches = bool((in_plane & ~apart).any())
    return False, touches


def _orient(a, b, c, d) -> np.ndarray:
    """orient3d: the sign of det[b - a, c - a, d - a], broadcast over points."""
    return _turn(a, b, c, d - a)


def _turn(a, b, c, n) -> np.ndarray:
    """The sign of det[b - a, c - a, n]: for points in a plane of normal n,
    whether a -> b -> c turns counterclockwise seen from n's side."""
    return np.sign(np.einsum("...i,...i->...", np.cross(b - a, c - a), n))


def _node_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Smallest distance from a point of ``a`` to one of ``b``, from squared
    distances formed in row blocks of about GAP_PAIRS pairs."""
    rows = max(1, GAP_PAIRS // len(b))
    best = np.inf
    for start in range(0, len(a), rows):
        diff = a[start : start + rows, None, :] - b[None, :, :]
        best = min(best, (diff * diff).sum(axis=2).min())
    return float(np.sqrt(best))


def make_multiscale_workspace(mesh1: TetMesh, mesh2: TetMesh) -> MultiscaleWorkspace:
    return MultiscaleWorkspace(mesh1, CouplingWorkspace(mesh2))


def transfer_u1_to_omega2(
    mws: MultiscaleWorkspace, u11_values: np.ndarray
) -> NodalScalarField:
    """Interior Dirichlet extension of the Gamma_1 double layer of trace(u11).

    The Gamma_2 boundary values are the face-averaged potential at the
    Gamma_2 nodes, applied through ``mws.transfer_12``; they are extended
    into Omega_2 harmonically.
    """
    cws = mws.coupling
    boundary_vals = mws.transfer_12 @ u11_values[mws.surface1.boundary_nodes]
    u1 = solve_spd(
        cws.stiffness, np.zeros(cws.mesh.n_nodes), constraint="dirichlet",
        dirichlet_values=boundary_vals,
    )
    return NodalScalarField(cws.mesh, u1)


@contextmanager
def _stage(name: str):
    """Re-raise a failure inside the block as a pipeline error naming ``name``."""
    try:
        yield
    except Exception as exc:
        raise RuntimeError(f"multiscale pipeline failed at stage: {name}") from exc


def coupling_data(mws: MultiscaleWorkspace, m_values: np.ndarray, f) -> CouplingData:
    """Right-hand-side data of the coupling solve for m on Omega_1 in the uniform field f.

    Runs pipeline steps 1-3: u11 on Omega_1, its transfer u1 onto Omega_2
    and the workspace's kept u_app of f; then the Galerkin load of u1's
    conormal flux and the Gamma_2 trace of u1 + u_app.  Stage failures are
    re-raised with the stage named.

    Args:
        m_values: (N1, 3) magnetization on Omega_1.
        f: (3,) applied field, taken on every node of Omega_2.
    """
    cws = mws.coupling
    f_values = np.broadcast_to(np.asarray(f, dtype=np.float64), (cws.mesh.n_nodes, 3))
    with _stage("interior potential u11 on Omega_1"):
        rhs = divergence_load(mws.mesh1, m_values)
        u11 = solve_spd(mws.stiffness1, rhs, constraint="zero-mean")
    with _stage("transfer of u1 onto Omega_2"):
        u1 = transfer_u1_to_omega2(mws, u11).values
    with _stage("auxiliary potential u_app"):
        uapp = cws.uapp(f_values).values
    with _stage("conormal flux of u1"):
        flux = conormal_flux(cws, u1).values
    trace = (u1 + uapp)[cws.surface.boundary_nodes]
    return CouplingData(flux=flux, f=f_values, gamma_trace=trace)


@dataclass
class MultiscaleContribution(FieldContribution):
    """Environment field as an effective-field term; zeta carries f.

    zeta is the applied field's one 3-vector at this time level, taken at
    every node of Omega_1 and of Omega_2.  ``last_state`` is the converged
    coupling state of the latest evaluation.  The next evaluation starts its
    solve there, except at time index 0, which starts from x = 0 so that
    each run starts the same way.
    """

    workspace: MultiscaleWorkspace
    law: MaterialLaw
    scheme: str = "zarantonello"
    tol_nl: float = 1e-8
    max_iter: int = 200
    last_state: CouplingState | None = field(default=None, init=False, repr=False)

    name = "multiscale"
    linear_self_adjoint = False

    def __post_init__(self) -> None:
        check_solver_settings(self.law, self.scheme, self.tol_nl, self.max_iter)

    def evaluate(self, m, zeta=None, time_index=0):
        if zeta is None:
            raise ValueError("multiscale contribution needs the applied field as zeta")
        x0 = self.last_state.x if time_index > 0 and self.last_state is not None else None
        mws, cws = self.workspace, self.workspace.coupling
        data = coupling_data(mws, m.values, zeta)
        with _stage("coupling solve"):
            state = solve_coupling(
                cws, data, self.law,
                scheme=self.scheme, tol_nl=self.tol_nl, max_iter=self.max_iter, x0=x0,
            )
        with _stage("representation formula transfer to Omega_1"):
            # -V2 phi + K2 w, with w = u - u1 - u_app on Gamma_2
            w = state.u.values[cws.surface.boundary_nodes] - data.gamma_trace
            single_21, double_21 = mws.transfer_21
            boundary_vals = double_21 @ w - single_21 @ state.phi
        with _stage("interior extension of u2 on Omega_1"):
            u2 = solve_spd(
                mws.stiffness1, np.zeros(mws.mesh1.n_nodes), constraint="dirichlet",
                dirichlet_values=boundary_vals,
            )
        self.last_state = state
        return NodalVectorField(mws.mesh1, lifted_gradient(mws.mesh1, u2))
