"""Tangent-plane time integration of the Landau-Lifshitz-Gilbert dynamics.

Each step solves a linear system for the update velocity v in the discrete
tangent space of the current magnetization (two unknowns per node, spanned
by a deterministic orthonormal frame):

    alpha <v, psi> + C_exch k theta <grad v, grad psi> + <m x v, psi>
        = -C_exch <grad m, grad psi> - <pi(m, zeta), psi> + <f, psi>

for all tangent test fields psi, then renormalizes nodewise:

    m_next(z) = (m(z) + k v(z)) / |m(z) + k v(z)|.

Tangency makes |m + k v|^2 = 1 + k^2 |v|^2 >= 1 at every node, so the
update is always well defined, and the nodal increments satisfy
|m_next - m| <= k |v| and |m_next - m - k v| <= (k^2/2) |v|^2.

The cross term <m x v, psi> is assembled exactly (the integrand is a cubic
polynomial per element); its matrix is skew-symmetric, so the system's
symmetric part is alpha M + C_exch k theta K, positive definite for any
k > 0 - the basis of the scheme's unconditional stability for theta >= 1/2.
The nonsymmetric reduced system is solved with diagonally preconditioned
BiCGStab.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from .fem import NodalVectorField, SparseOperator, assemble_mass, assemble_stiffness
from .fields import FieldContribution, NondimConstants, sample_applied_field
from .mesh import TetMesh

logger = logging.getLogger("multimag")

# Exact integrals of hat products int_T eta_i eta_j eta_k / |T| on a tet.
_CROSS_TENSOR = np.empty((4, 4, 4))
for _i in range(4):
    for _j in range(4):
        for _k in range(4):
            distinct = len({_i, _j, _k})
            _CROSS_TENSOR[_i, _j, _k] = (1.0 / 120.0, 1.0 / 60.0, 1.0 / 20.0)[3 - distinct]
del _i, _j, _k


@dataclass
class MagnetizationState:
    """Nodal magnetization at one time level; unit modulus at every node."""

    m: NodalVectorField
    step: int
    time: float

    def __post_init__(self) -> None:
        norms = self.m.nodewise_norms()
        worst = float(np.abs(norms - 1.0).max()) if norms.size else 0.0
        if worst > 1e-12:
            raise ValueError(f"magnetization not unit-modulus: max deviation {worst:.3e}")


@dataclass
class TangentFrame:
    """Per-node orthonormal basis of the plane orthogonal to m."""

    t1: np.ndarray  # (N, 3)
    t2: np.ndarray  # (N, 3)

    def __post_init__(self) -> None:
        for name, t in (("t1", self.t1), ("t2", self.t2)):
            err = float(np.abs(np.linalg.norm(t, axis=1) - 1.0).max())
            if err > 1e-12:
                raise ValueError(f"frame vector {name} not unit: {err:.3e}")
        cross = float(np.abs(np.einsum("nd,nd->n", self.t1, self.t2)).max())
        if cross > 1e-12:
            raise ValueError(f"frame vectors not orthogonal: {cross:.3e}")


def build_tangent_frame(state: MagnetizationState) -> TangentFrame:
    """Deterministic orthonormal tangent frame at every node.

    The first frame vector is the normalized projection of the coordinate
    axis least aligned with m (first such axis on ties); the second is
    m x t1.  For m = (0,0,1) this gives {(1,0,0), (0,1,0)}.
    """
    m = state.m.values
    axis_idx = np.argmin(np.abs(m), axis=1)
    a = np.eye(3)[axis_idx]
    t1 = a - np.einsum("nd,nd->n", a, m)[:, None] * m
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    t2 = np.cross(m, t1)
    t2 /= np.linalg.norm(t2, axis=1)[:, None]
    frame = TangentFrame(t1=t1, t2=t2)
    ortho = max(
        float(np.abs(np.einsum("nd,nd->n", t1, m)).max()),
        float(np.abs(np.einsum("nd,nd->n", t2, m)).max()),
    )
    if ortho > 1e-12:
        raise RuntimeError(f"tangent frame not orthogonal to m: {ortho:.3e}")
    return frame


@dataclass
class LlgWorkspace:
    """Per-mesh assembled state reused across time steps."""

    mesh: TetMesh
    mass: SparseOperator
    stiffness: SparseOperator
    mass3: sparse.csr_matrix
    stiffness3: sparse.csr_matrix
    _cross_rows: np.ndarray = field(default=None, repr=False)
    _cross_cols: np.ndarray = field(default=None, repr=False)
    _frame_rows: np.ndarray = field(default=None, repr=False)
    _frame_cols: np.ndarray = field(default=None, repr=False)

    def __post_init__(self) -> None:
        tets = self.mesh.tets
        n = self.mesh.n_nodes
        if self._cross_rows is None:
            # index pattern of the (M,4,4,3,3) cross-term blocks in 3N x 3N
            rows = 3 * tets[:, :, None, None, None] + np.arange(3)[None, None, None, :, None]
            cols = 3 * tets[:, None, :, None, None] + np.arange(3)[None, None, None, None, :]
            shape = (self.mesh.n_tets, 4, 4, 3, 3)
            self._cross_rows = np.broadcast_to(rows, shape).ravel()
            self._cross_cols = np.broadcast_to(cols, shape).ravel()
        if self._frame_rows is None:
            node = np.arange(n)
            self._frame_rows = np.repeat(3 * node, 6) + np.tile([0, 1, 2, 0, 1, 2], n)
            self._frame_cols = np.repeat(2 * node, 6) + np.tile([0, 0, 0, 1, 1, 1], n)

    def cross_matrix(self, m_values: np.ndarray) -> sparse.csr_matrix:
        """Exact Galerkin matrix of v -> <m x v, .> in the 3N nodal basis."""
        mk = m_values[self.mesh.tets]  # (M, 4, 3)
        skew = np.zeros((self.mesh.n_tets, 4, 3, 3))
        skew[:, :, 0, 1] = -mk[:, :, 2]
        skew[:, :, 0, 2] = mk[:, :, 1]
        skew[:, :, 1, 0] = mk[:, :, 2]
        skew[:, :, 1, 2] = -mk[:, :, 0]
        skew[:, :, 2, 0] = -mk[:, :, 1]
        skew[:, :, 2, 1] = mk[:, :, 0]
        blocks = np.einsum("ijk,m,mkab->mijab", _CROSS_TENSOR, self.mesh.volumes, skew)
        n3 = 3 * self.mesh.n_nodes
        return sparse.coo_matrix(
            (blocks.ravel(), (self._cross_rows, self._cross_cols)), shape=(n3, n3)
        ).tocsr()

    def frame_matrix(self, frame: TangentFrame) -> sparse.csr_matrix:
        """(3N, 2N) basis matrix whose columns are the nodal frame vectors."""
        n = self.mesh.n_nodes
        data = np.concatenate([frame.t1, frame.t2], axis=1).ravel()
        return sparse.coo_matrix(
            (data, (self._frame_rows, self._frame_cols)), shape=(3 * n, 2 * n)
        ).tocsr()


def make_llg_workspace(mesh: TetMesh) -> LlgWorkspace:
    mass = assemble_mass(mesh)
    stiffness = assemble_stiffness(mesh)
    eye3 = sparse.identity(3, format="csr")
    return LlgWorkspace(
        mesh=mesh,
        mass=mass,
        stiffness=stiffness,
        mass3=sparse.kron(mass.matrix, eye3).tocsr(),
        stiffness3=sparse.kron(stiffness.matrix, eye3).tocsr(),
    )


def evaluate_contributions(
    contributions: list[FieldContribution],
    m: NodalVectorField,
    zeta,
    time_index: int,
) -> tuple[NodalVectorField, list[NodalVectorField]]:
    """Evaluate pi_i(m, zeta) once per contribution, validating finiteness.

    Returns:
        (total, outputs): the sum over all contributions, accumulated in
        order from zeros, and the per-contribution outputs in order.
    """
    total = np.zeros_like(m.values)
    outputs = []
    for contrib in contributions:
        out = contrib.evaluate(m, zeta=zeta, time_index=time_index)
        if not np.isfinite(out.values).all():
            raise RuntimeError(f"contribution {contrib.name!r} produced non-finite values")
        total += out.values
        outputs.append(out)
    return NodalVectorField(m.mesh, total), outputs


def llg_step(
    ws: LlgWorkspace,
    state: MagnetizationState,
    contributions: list[FieldContribution],
    f_field: NodalVectorField | None,
    constants: NondimConstants,
    theta: float,
    k: float,
    *,
    pi_field: NodalVectorField | None = None,
    solver_tol: float = 1e-10,
) -> tuple[NodalVectorField, MagnetizationState]:
    """One tangent-plane step: solve for v, renormalize nodewise.

    Args:
        pi_field: optionally a precomputed pi(m, zeta) for this state (the
            contributions are evaluated here otherwise, with zeta bound to
            the applied field).
        solver_tol: relative tolerance of the velocity solve.

    Returns:
        (v, next_state); v lies in the nodal tangent planes exactly by
        construction of the reduced system.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    if not k > 0.0:
        raise ValueError(f"time step must be positive, got {k}")
    mesh = ws.mesh
    m_vec = state.m.values.ravel()

    if pi_field is None:
        pi_field, _ = evaluate_contributions(contributions, state.m, f_field, state.step)
    if not np.isfinite(pi_field.values).all():
        raise RuntimeError("field contribution produced non-finite values")

    rhs_nodal = -(constants.c_exch * (ws.stiffness3 @ m_vec)) - ws.mass3 @ pi_field.values.ravel()
    if f_field is not None:
        rhs_nodal += ws.mass3 @ f_field.values.ravel()

    frame = build_tangent_frame(state)
    q = ws.frame_matrix(frame)
    a_full = (
        constants.alpha * ws.mass3
        + (constants.c_exch * k * theta) * ws.stiffness3
        + ws.cross_matrix(state.m.values)
    )
    a_red = (q.T @ a_full @ q).tocsr()
    b_red = q.T @ rhs_nodal

    c = _solve_velocity(a_red, b_red, solver_tol)
    v = NodalVectorField(mesh, (q @ c).reshape(-1, 3))

    m_new = state.m.values + k * v.values
    norms = np.linalg.norm(m_new, axis=1)
    m_new = m_new / norms[:, None]
    next_state = MagnetizationState(
        m=NodalVectorField(mesh, m_new), step=state.step + 1, time=state.time + k
    )

    # floor at unit-vector rounding noise: delta is a difference of O(1) vectors
    delta = np.linalg.norm(next_state.m.values - state.m.values, axis=1)
    kv = k * np.linalg.norm(v.values, axis=1)
    if np.any(delta > kv * (1.0 + 1e-9) + 1e-13):
        raise RuntimeError("nodal increment bound |m+ - m| <= k|v| violated")
    second = np.linalg.norm(next_state.m.values - state.m.values - k * v.values, axis=1)
    if np.any(second > 0.5 * kv**2 * (1.0 + 1e-9) + 1e-13):
        raise RuntimeError("nodal increment bound |m+ - m - kv| <= k^2|v|^2/2 violated")
    return v, next_state


def _solve_velocity(a: sparse.csr_matrix, b: np.ndarray, tol: float) -> np.ndarray:
    """Transpose-free Krylov solve of the reduced velocity system.

    BiCGStab first; its short recurrence can break down when the skew part
    dominates (large k), in which case restarted GMRES finishes the job at
    the same tolerance.
    """
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros_like(b)
    precond = sparse.diags(1.0 / a.diagonal())
    x, info = spla.bicgstab(a, b, M=precond, rtol=tol, atol=0.0, maxiter=10 * b.size)
    if info != 0:
        x2, info2 = spla.gmres(a, b, M=precond, rtol=tol, atol=0.0, restart=200, maxiter=50)
        if np.linalg.norm(b - a @ x2) < np.linalg.norm(b - a @ x):
            x, info = x2, info2
    residual = np.linalg.norm(b - a @ x)
    if residual > tol * norm_b * 10.0:
        raise RuntimeError(
            f"velocity solve did not converge: rel residual {residual / norm_b:.3e} "
            f"(info={info})"
        )
    return x


@dataclass
class RunSetup:
    """Everything one time-integration run needs."""

    mesh: TetMesh
    m0: np.ndarray  # (N, 3), normalized on load
    constants: NondimConstants
    contributions: list
    applied_field: object = None  # callable f(t, points) or None
    theta: float = 1.0
    k: float = 1e-3
    n_steps: int = 0
    solver_tol: float = 1e-10


@dataclass
class Trajectory:
    """States, velocities, and energy records of one run.

    ``defect_coefficient`` is the run's estimate c = (k/2) sup|pi - f| of
    the O(k) coefficient in the energy-decay defect c * k * sum_i |v_i|^2
    caused by the nodal renormalization acting on the lower-order terms;
    ``defect_allowance`` is that defect evaluated for this run.  Both are
    zero for exchange-only runs.
    """

    states: list
    velocities: list
    records: list
    defect_coefficient: float = 0.0
    defect_allowance: float = 0.0

    @property
    def final(self) -> MagnetizationState:
        return self.states[-1]


def run(setup: RunSetup, *, on_step=None) -> Trajectory:
    """Execute the time loop of the tangent-plane scheme.

    Energy records are produced for the initial state and after every step;
    a failure at step i raises with the step index and the partial
    trajectory attached to the exception as ``partial_trajectory``.

    Args:
        on_step: optional callback ``on_step(trajectory, state)`` invoked
            after the initial state and each completed step (for streaming
            output).
    """
    from .diagnostics import energy  # late import; diagnostics also imports fem

    if setup.theta <= 0.5:
        logger.warning(
            "theta = %g <= 1/2: energy decay is only conditional (requires k/h -> 0)",
            setup.theta,
        )
    m0 = np.array(setup.m0, dtype=np.float64)
    norms = np.linalg.norm(m0, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-6):
        logger.warning(
            "initial magnetization deviates from unit modulus by up to %.3e; renormalizing",
            float(np.abs(norms - 1.0).max()),
        )
    m0 /= norms[:, None]

    ws = make_llg_workspace(setup.mesh)
    state = MagnetizationState(m=NodalVectorField(setup.mesh, m0), step=0, time=0.0)
    dissipation = 0.0

    def sample_f(t: float) -> NodalVectorField | None:
        if setup.applied_field is None:
            return None
        return sample_applied_field(setup.applied_field, setup.mesh, t)

    f0 = sample_f(0.0)
    pi0, outputs0 = evaluate_contributions(setup.contributions, state.m, f0, 0)
    traj = Trajectory(
        states=[state],
        velocities=[],
        records=[
            energy(state, setup.contributions, f0, setup.constants, ws, outputs=outputs0,
                   dissipation_sum=0.0)
        ],
    )
    if on_step is not None:
        on_step(traj, state)

    pi_current = pi0
    f_current = f0
    defect_sup = 0.0
    velocity_sq_sum = 0.0
    for i in range(setup.n_steps):
        try:
            lower_order = pi_current.values if f_current is None else (
                pi_current.values - f_current.values
            )
            defect_sup = max(defect_sup, float(np.linalg.norm(lower_order, axis=1).max()))
            v, state = llg_step(
                ws,
                state,
                setup.contributions,
                f_current,
                setup.constants,
                setup.theta,
                setup.k,
                pi_field=pi_current,
                solver_tol=setup.solver_tol,
            )
            velocity_sq_sum += _l2_sq(ws, v.values)
            dissipation = setup.constants.alpha * setup.k * velocity_sq_sum
            f_next = sample_f(state.time)
            pi_current, outputs = evaluate_contributions(
                setup.contributions, state.m, f_next, state.step
            )
            f_current = f_next
            record = energy(
                state,
                setup.contributions,
                f_next,
                setup.constants,
                ws,
                outputs=outputs,
                dissipation_sum=dissipation,
            )
        except Exception as exc:
            err = RuntimeError(f"run aborted at step {i}: {exc}")
            err.partial_trajectory = traj
            raise err from exc
        traj.states.append(state)
        traj.velocities.append(v)
        traj.records.append(record)
        if on_step is not None:
            on_step(traj, state)
    traj.defect_coefficient = 0.5 * setup.k * defect_sup
    traj.defect_allowance = traj.defect_coefficient * setup.k * velocity_sq_sum
    if traj.defect_coefficient > 0.0:
        logger.info(
            "energy-decay defect estimate: c = %.6e, c*k*sum|v|^2 = %.6e",
            traj.defect_coefficient,
            traj.defect_allowance,
        )
    return traj


def _l2_sq(ws: LlgWorkspace, values: np.ndarray) -> float:
    return float(np.einsum("nd,nd->", values, (ws.mass.matrix @ values)))
