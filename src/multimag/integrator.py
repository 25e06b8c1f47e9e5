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

The reduced 2N x 2N system is assembled in the frame coefficients, one 2x2
block per entry (i, j) of the mesh's shared P1 pattern.  The cross term
<m x v, psi> is exact (a cubic integrand per element) and its blocks are
skew, so the symmetric part is the frame reduction of
alpha M + C_exch k theta K, positive definite for any k > 0 - the basis of
the scheme's unconditional stability for theta >= 1/2.  The nonsymmetric
system is solved with BiCGStab, preconditioned by the inverses of the 2x2
nodal diagonal blocks (block Jacobi), with restarted GMRES as the fallback.

The CSR structure of the reduced matrix depends on the mesh alone, so
``LlgWorkspace(mesh)`` lays it out once, with the data position of every
block entry and of every nodal diagonal block.  A step gathers the frames
at both ends of each pattern entry into contiguous planes, computes the
block entries plane by plane, and writes them straight into the CSR data;
the preconditioner is inverted from the diagonal block entries onto a
fixed block-diagonal pattern.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from .fem import (
    NodalVectorField,
    SparseOperator,
    assemble_mass,
    assemble_stiffness,
    l2_inner,
    pattern_positions,
)
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
        if not worst <= 1e-12:
            raise ValueError(f"magnetization not unit-modulus: max deviation {worst:.3e}")


@dataclass
class TangentFrame:
    """Per-node orthonormal basis of the plane orthogonal to m."""

    t1: np.ndarray  # (N, 3)
    t2: np.ndarray  # (N, 3)

    def __post_init__(self) -> None:
        for name, t in (("t1", self.t1), ("t2", self.t2)):
            err = float(np.abs(np.linalg.norm(t, axis=1) - 1.0).max())
            if not err <= 1e-12:
                raise ValueError(f"frame vector {name} not unit: {err:.3e}")
        cross = float(np.abs(np.einsum("nd,nd->n", self.t1, self.t2)).max())
        if not cross <= 1e-12:
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
    (m0, m1, m2), (a0, a1, a2) = m.T, t1.T  # m x t1 written out, as in cross_matrix
    t2 = np.stack((m1 * a2 - m2 * a1, m2 * a0 - m0 * a2, m0 * a1 - m1 * a0), axis=1)
    t2 /= np.linalg.norm(t2, axis=1)[:, None]
    frame = TangentFrame(t1=t1, t2=t2)
    ortho = max(
        float(np.abs(np.einsum("nd,nd->n", t1, m)).max()),
        float(np.abs(np.einsum("nd,nd->n", t2, m)).max()),
    )
    if not ortho <= 1e-12:
        raise RuntimeError(f"tangent frame not orthogonal to m: {ortho:.3e}")
    return frame


@dataclass
class LlgWorkspace:
    """Per-mesh operators and the fixed layout of the reduced velocity system.

    Built as ``LlgWorkspace(mesh)``, which derives the rest.  The reduced
    velocity system has one 2x2 block per entry p = (i, j) of the P1 pattern
    that the mesh's ``mass`` and ``stiffness`` share.  ``cross_map`` is the
    fixed (nnz, N) map from nodal m to w_p = sum_T |T| sum_k c_ijk m_k;
    ``rows`` and ``cols`` hold the nodes i and j of each entry.

    The 2N x 2N CSR structure follows from the pattern alone, so it is laid
    out once: ``slots[a, b, p]`` is the position of entry [a, b] of block p
    in the data of ``reduced``, and ``diagonal_slots[a, b, n]`` that of the
    nodal diagonal block n.  ``jacobi`` is the block-diagonal matrix of
    the preconditioner.  Each step only refills the data of these two
    matrices, so the matrices the workspace hands out are overwritten by
    its next call.  The mesh is read-only, so the layout cannot go stale.
    """

    mesh: TetMesh
    mass: SparseOperator = field(init=False, repr=False)
    stiffness: SparseOperator = field(init=False, repr=False)
    cross_map: sparse.csr_matrix = field(init=False, repr=False)
    rows: np.ndarray = field(init=False, repr=False)
    cols: np.ndarray = field(init=False, repr=False)
    slots: np.ndarray = field(init=False, repr=False)
    diagonal_slots: np.ndarray = field(init=False, repr=False)
    reduced: sparse.csr_matrix = field(init=False, repr=False)
    jacobi: sparse.csr_matrix = field(init=False, repr=False)

    def __post_init__(self) -> None:
        mesh = self.mesh
        self.mass = assemble_mass(mesh)
        self.stiffness = assemble_stiffness(mesh)
        pattern = self.stiffness.matrix
        n, nnz = mesh.n_nodes, pattern.nnz
        index = pattern.indptr.dtype  # scipy would copy wider index arrays down to it
        positions = pattern_positions(mesh).astype(index)[..., None]
        positions = np.broadcast_to(positions, (mesh.n_tets, 4, 4, 4))
        nodes = np.broadcast_to(mesh.tets.astype(index)[:, None, None, :], positions.shape)
        weights = mesh.volumes[:, None, None, None] * _CROSS_TENSOR
        self.cross_map = sparse.csr_matrix(
            (weights.ravel(), (positions.ravel(), nodes.ravel())), shape=(nnz, n)
        )
        rows = self.rows = np.repeat(np.arange(n), np.diff(pattern.indptr))
        cols = self.cols = pattern.indices.astype(np.intp)

        # CSR matvecs run about twice as fast as 2x2-block ones in the Krylov loop.
        # Row 2i + a holds columns 2j, 2j + 1 for each entry (i, j) of pattern row i, in order.
        a, b = np.arange(2)[:, None, None], np.arange(2)[None, :, None]
        indptr = np.concatenate(([0], np.cumsum(np.repeat(2 * np.diff(pattern.indptr), 2))))
        slots = self.slots = indptr[2 * rows + a] + 2 * (np.arange(nnz) - pattern.indptr[rows]) + b
        indices = np.empty(4 * nnz, dtype=np.intp)
        indices[slots] = 2 * cols + b
        self.diagonal_slots = slots[:, :, np.flatnonzero(rows == cols)]
        n2 = 2 * n
        self.reduced = sparse.csr_matrix((np.zeros(4 * nnz), indices, indptr), shape=(n2, n2))
        # rows 2n and 2n + 1 each hold columns 2n, 2n + 1
        self.jacobi = sparse.csr_matrix(
            (np.zeros(2 * n2), np.arange(n2).reshape(-1, 2).repeat(2, axis=0).ravel(),
             np.arange(0, 2 * n2 + 1, 2)),
            shape=(n2, n2),
        )

    def frame_matrix(self, frame: TangentFrame) -> np.ndarray:
        """(N, 2, 3) nodal frames: [n, a] is t_a(n)."""
        return np.stack((frame.t1, frame.t2), axis=1)

    def pattern_frames(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The frames at both ends of every pattern entry p = (i, j).

        Returns:
            (ti, tj), C-contiguous (3, 2, nnz) planes: ti[d, a, p] is
            component d of t_a(i) and tj[d, b, p] that of t_b(j).
        """
        planes = np.ascontiguousarray(t.transpose(2, 1, 0))
        return np.take(planes, self.rows, axis=2), np.take(planes, self.cols, axis=2)

    def cross_matrix(self, m_values: np.ndarray, ti: np.ndarray, tj: np.ndarray) -> np.ndarray:
        """(2, 2, nnz) reduced blocks of v -> <m x v, .> on the P1 pattern.

        Entry [a, b, p] of block p = (i, j) is w_p . (t_b(j) x t_a(i)), from
        the ``pattern_frames`` planes.  Swapping the factors of a cross
        product negates it exactly, so the assembled matrix is exactly skew.
        """
        w = np.ascontiguousarray((self.cross_map @ m_values).T)[:, None, None]
        u, v = tj[:, None], ti[:, :, None]  # [d, a, b, p]
        # written out: np.cross costs more than it computes here
        u_x_v = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
        return _dot(w, u_x_v)

    def velocity_matrix(
        self, m_values: np.ndarray, t: np.ndarray, mass_coeff: float, stiffness_coeff: float
    ) -> sparse.csr_matrix:
        """Reduced 2N x 2N matrix; row 2i + a tests with t_a(i), column 2j + b
        is the coefficient of t_b(j).  Block (i, j) is the cross block plus
        (mass_coeff M_ij + stiffness_coeff K_ij) <t_a(i), t_b(j)>.

        The blocks are written straight into the data of ``reduced`` through
        ``slots``; that matrix is returned and is overwritten by the next call.
        """
        sym = mass_coeff * self.mass.matrix.data + stiffness_coeff * self.stiffness.matrix.data
        ti, tj = self.pattern_frames(t)
        blocks = self.cross_matrix(m_values, ti, tj)
        blocks += sym * _dot(ti[:, :, None], tj[:, None])
        self.reduced.data[self.slots] = blocks
        return self.reduced

    def block_jacobi(self, a: sparse.csr_matrix) -> sparse.csr_matrix:
        """Inverses of the 2x2 nodal diagonal blocks of a reduced matrix.

        Block n covers rows and columns 2n, 2n + 1 and is read from the data
        of ``a`` (laid out as ``reduced``) at ``diagonal_slots``.  It is
        [[d, s], [-s, d]] up to rounding: the symmetric part contributes
        (alpha M_nn + C_exch k theta K_nn) <t_a(n), t_b(n)> with M_nn > 0,
        the cross part is skew.  So its determinant d^2 + s^2 is positive
        and every block inverts.

        Returns:
            ``jacobi`` holding the block-diagonal inverse; it is overwritten
            by the next call.
        """
        block = a.data[self.diagonal_slots]
        d0, upper, lower, d1 = block[0, 0], block[0, 1], block[1, 0], block[1, 1]
        det = d0 * d1 - upper * lower
        inverse = self.jacobi.data.reshape(-1, 2, 2)
        inverse[:, 0, 0], inverse[:, 0, 1], inverse[:, 1, 0], inverse[:, 1, 1] = (
            d1, -upper, -lower, d0
        )
        inverse /= det[:, None, None]
        return self.jacobi


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot product over the leading axis of length 3 (vector components)."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def make_llg_workspace(mesh: TetMesh) -> LlgWorkspace:
    return LlgWorkspace(mesh)


def evaluate_contributions(
    contributions: list[FieldContribution],
    m: NodalVectorField,
    zeta,
    time_index: int,
) -> tuple[NodalVectorField, list[NodalVectorField]]:
    """Evaluate pi_i(m, zeta) once per contribution, validating its mesh and finiteness.

    Returns:
        (total, outputs): the sum over all contributions, accumulated in
        order from zeros, and the per-contribution outputs in order.
    """
    total = np.zeros_like(m.values)
    outputs = []
    for contrib in contributions:
        out = contrib.evaluate(m, zeta=zeta, time_index=time_index)
        if out.mesh is not m.mesh:
            raise RuntimeError(f"contribution {contrib.name!r} returned a field on another mesh")
        if not np.isfinite(out.values).all():
            raise RuntimeError(f"contribution {contrib.name!r} produced non-finite values")
        total += out.values
        outputs.append(out)
    return NodalVectorField(m.mesh, total), outputs


def llg_step(
    ws: LlgWorkspace,
    state: MagnetizationState,
    pi_field: NodalVectorField,
    f: np.ndarray | None,
    constants: NondimConstants,
    theta: float,
    k: float,
    *,
    solver_tol: float = 1e-10,
) -> tuple[NodalVectorField, MagnetizationState]:
    """One tangent-plane step: solve for v, renormalize nodewise.

    The reduced 2N system (``LlgWorkspace.velocity_matrix``) has one 2x2
    block per entry (i, j) of the P1 pattern, with mass coefficient alpha
    and stiffness coefficient C_exch k theta; its rhs at node i is
    t(i)^T (-C_exch K m - M (pi - f))_i, and v = c_1 t_1 + c_2 t_2.

    Args:
        pi_field: pi(m, zeta) for this state (``evaluate_contributions``).
        f: the applied field's 3-vector at this state, or None.
        solver_tol: relative tolerance of the velocity solve.

    Returns:
        (v, next_state); v lies in the nodal tangent planes exactly by
        construction of the reduced system.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    if not k > 0.0:
        raise ValueError(f"time step must be positive, got {k}")
    if not np.isfinite(pi_field.values).all():
        raise RuntimeError("field contribution produced non-finite values")
    mesh = ws.mesh
    mass, stiffness = ws.mass.matrix, ws.stiffness.matrix
    rhs_nodal = -(constants.c_exch * (stiffness @ state.m.values)) - mass @ pi_field.values
    if f is not None:
        rhs_nodal += mass @ np.full((mesh.n_nodes, 3), f)

    t = ws.frame_matrix(build_tangent_frame(state))
    a_red = ws.velocity_matrix(state.m.values, t, constants.alpha, constants.c_exch * k * theta)
    b_red = np.einsum("nad,nd->na", t, rhs_nodal).ravel()

    solve = _solve_velocity(a_red, ws.block_jacobi(a_red), b_red, solver_tol)
    logger.debug(
        "step %d velocity solve: %d BiCGStab iterations, GMRES fallback %s, "
        "relative residual %.3e",
        state.step, solve.bicgstab_iterations, solve.gmres_fired, solve.residual,
    )
    v = NodalVectorField(mesh, np.einsum("na,nad->nd", solve.x.reshape(-1, 2), t))

    m_new = state.m.values + k * v.values
    norms = np.linalg.norm(m_new, axis=1)
    m_new = m_new / norms[:, None]
    next_state = MagnetizationState(
        m=NodalVectorField(mesh, m_new), step=state.step + 1, time=state.time + k
    )

    # floor at unit-vector rounding noise: delta is a difference of O(1) vectors;
    # "not <=" so that NaN fails
    delta = np.linalg.norm(next_state.m.values - state.m.values, axis=1)
    kv = k * np.linalg.norm(v.values, axis=1)
    if not np.all(delta <= kv * (1.0 + 1e-9) + 1e-13):
        raise RuntimeError("nodal increment bound |m+ - m| <= k|v| violated")
    second = np.linalg.norm(next_state.m.values - state.m.values - k * v.values, axis=1)
    if not np.all(second <= 0.5 * kv**2 * (1.0 + 1e-9) + 1e-13):
        raise RuntimeError("nodal increment bound |m+ - m - kv| <= k^2|v|^2/2 violated")
    return v, next_state


@dataclass
class VelocitySolve:
    """Outcome of one reduced velocity solve."""

    x: np.ndarray  # (2N,) frame coefficients
    bicgstab_iterations: int
    gmres_fired: bool
    residual: float  # final ||b - A x|| / ||b||


def _solve_velocity(
    a: sparse.csr_matrix, precond: sparse.csr_matrix, b: np.ndarray, tol: float
) -> VelocitySolve:
    """Transpose-free Krylov solve of the reduced velocity system.

    BiCGStab preconditioned by ``precond`` (``LlgWorkspace.block_jacobi``)
    first; if it stops short, restarted GMRES finishes the job at the same
    tolerance.  That fallback guards a breakdown nobody has observed: the
    skew cross blocks do not grow with k while alpha M + C_exch k theta K
    does, and BiCGStab converged on a 325-node sphere for alpha from 1e-4
    to 1 and k from 1e-5 to 0.5.  Only a test that forces BiCGStab to fail
    reaches it.
    """
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return VelocitySolve(np.zeros_like(b), 0, False, 0.0)
    iterations = 0

    def count(xk):
        nonlocal iterations
        iterations += 1

    x, info = spla.bicgstab(
        a, b, M=precond, rtol=tol, atol=0.0, maxiter=10 * b.size, callback=count
    )
    gmres_fired = info != 0
    if gmres_fired:
        x2, info2 = spla.gmres(
            a, b, M=precond, rtol=tol, atol=0.0, restart=200, maxiter=50, callback_type="pr_norm"
        )
        if np.linalg.norm(b - a @ x2) < np.linalg.norm(b - a @ x):
            x, info = x2, info2
    residual = np.linalg.norm(b - a @ x)
    if not residual <= tol * norm_b * 10.0:
        raise RuntimeError(
            f"velocity solve did not converge: rel residual {residual / norm_b:.3e} "
            f"(info={info})"
        )
    return VelocitySolve(x, iterations, gmres_fired, float(residual / norm_b))


@dataclass
class RunSetup:
    """Everything one time-integration run needs."""

    mesh: TetMesh
    m0: np.ndarray  # (N, 3), normalized on load
    constants: NondimConstants
    contributions: list
    applied_field: object = None  # callable f(t) -> 3-vector, or None
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
    trajectory attached to the exception as ``partial_trajectory``.  A
    failure while evaluating the initial state (the applied field at t = 0,
    a contribution or the energy) raises the same way as step 0, with no
    trajectory attached.  Each contribution the energy leaves out is
    logged once, at the start.

    Args:
        on_step: optional callback ``on_step(trajectory, state)`` invoked
            after the initial state and each completed step (for streaming
            output).
    """
    # late import; diagnostics also imports fem
    from .diagnostics import energy, log_energy_exclusions

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
    log_energy_exclusions(setup.contributions)

    ws = make_llg_workspace(setup.mesh)
    state = MagnetizationState(m=NodalVectorField(setup.mesh, m0), step=0, time=0.0)

    def evaluate_state(state: MagnetizationState, dissipation_sum: float):
        """f, pi(m, f) and the energy record of one state."""
        f = None
        if setup.applied_field is not None:
            f = sample_applied_field(setup.applied_field, state.time)
        pi, outputs = evaluate_contributions(setup.contributions, state.m, f, state.step)
        record = energy(state, setup.contributions, f, setup.constants, outputs=outputs,
                        dissipation_sum=dissipation_sum)
        return f, pi, record

    try:
        f_current, pi_current, record = evaluate_state(state, 0.0)
    except Exception as exc:
        raise RuntimeError(f"run aborted at step 0: {exc}") from exc
    traj = Trajectory(states=[state], velocities=[], records=[record])
    if on_step is not None:
        on_step(traj, state)

    defect_sup = 0.0
    velocity_sq_sum = 0.0
    for i in range(setup.n_steps):
        try:
            lower_order = pi_current.values if f_current is None else pi_current.values - f_current
            defect_sup = max(defect_sup, float(np.linalg.norm(lower_order, axis=1).max()))
            v, state = llg_step(ws, state, pi_current, f_current, setup.constants, setup.theta,
                                setup.k, solver_tol=setup.solver_tol)
            velocity_sq_sum += l2_inner(ws.mass, v.values, v.values)
            dissipation = setup.constants.alpha * setup.k * velocity_sq_sum
            f_current, pi_current, record = evaluate_state(state, dissipation)
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

