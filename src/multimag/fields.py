"""Local effective-field contributions and the non-dimensional constants.

The integrator treats the effective field as

    h_eff = C_exch * laplace(m) - pi(m, zeta) + f

where the exchange term is handled implicitly through the stiffness matrix,
f is the applied field, and pi collects all remaining contributions
(anisotropy, stray field, macroscopic coupling).  Each contribution is a
:class:`FieldContribution` carrying its own scaling constant; the integrator
sums their outputs nodewise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import NodalVectorField, assemble_mass, assemble_stiffness, h1_seminorm_sq, l2_norm
from .mesh import TetMesh

MU0 = 4.0e-7 * np.pi
GAMMA0 = 2.210173e5


@dataclass(frozen=True)
class NondimConstants:
    """Reduced constants of the dimensionless form of the dynamics.

    Attributes:
        c_exch: exchange constant 2A / (mu0 Ms^2 L^2).
        c_ani: anisotropy constant K / (mu0 Ms).
        alpha: Gilbert damping.
        t_final: reduced final time gamma0 Ms T.
    """

    c_exch: float
    c_ani: float
    alpha: float
    t_final: float

    def __post_init__(self) -> None:
        for name in ("c_exch", "c_ani", "alpha", "t_final"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


def compute_constants(
    A: float, K: float, M_s: float, alpha: float, L_char: float, T_physical: float
) -> NondimConstants:
    """Derive the reduced constants from SI material parameters.

    Args:
        A: exchange stiffness [J/m].
        K: anisotropy constant [J/m^3].
        M_s: saturation magnetization [A/m].
        alpha: Gilbert damping (dimensionless).
        L_char: characteristic length of the rescaling [m].  Choosing the
            intrinsic exchange length sqrt(2A / (mu0 Ms^2)) gives c_exch = 1.
        T_physical: physical final time [s].
    """
    params = {"A": A, "K": K, "M_s": M_s, "alpha": alpha, "L_char": L_char,
              "T_physical": T_physical}
    for name, value in params.items():
        if not value > 0.0:
            raise ValueError(f"{name} must be positive, got {value}")
    return NondimConstants(
        c_exch=2.0 * A / (MU0 * M_s**2 * L_char**2),
        c_ani=K / (MU0 * M_s),
        alpha=alpha,
        t_final=GAMMA0 * M_s * T_physical,
    )


class FieldContribution:
    """One additive term of pi(m, zeta).

    Subclasses implement :meth:`evaluate`; ``linear_self_adjoint`` marks
    contributions that are linear and self-adjoint in the mass inner
    product, which is what admits them to the quadratic interaction-energy
    bookkeeping.
    """

    name: str = "contribution"
    linear_self_adjoint: bool = False

    def evaluate(
        self, m: NodalVectorField, zeta=None, time_index: int = 0
    ) -> NodalVectorField:
        raise NotImplementedError

    def boundedness_ratio(self, m: NodalVectorField, output: NodalVectorField) -> float:
        """||pi(m)|| / (1 + ||grad m||), the constant of the growth bound.

        Contributions are required to stay bounded by C (1 + ||grad m||)
        uniformly over unit-modulus m; this hook reports the observed
        quotient, in the norms of m's mesh, so tests and long runs can
        assert an empirical C.
        """
        grad = np.sqrt(h1_seminorm_sq(assemble_stiffness(m.mesh), m.values))
        return l2_norm(assemble_mass(m.mesh), output.values) / (1.0 + grad)


def sample_applied_field(f, mesh: TetMesh, t: float) -> NodalVectorField:
    """Nodal interpolation of an applied field f(t, x) at one time level.

    Args:
        f: callable ``f(t, points)`` with points (N, 3), returning (N, 3)
            values or a single broadcastable 3-vector.

    Raises:
        ValueError: if any sampled value is not finite.
    """
    values = np.asarray(f(t, mesh.nodes), dtype=np.float64)
    values = np.broadcast_to(values, (mesh.n_nodes, 3)).copy()
    if not np.isfinite(values).all():
        raise ValueError(f"applied field is not finite at t = {t:.6g}")
    return NodalVectorField(mesh, values)


def make_applied_field(kind: str, amplitude, omega: float = 0.0):
    """Named applied-field presets used by run configurations.

    ``constant`` is f(t, x) = amplitude; ``sinusoidal`` is
    f(t, x) = amplitude * sin(omega * t).  The kind is checked first.
    """
    if kind not in ("constant", "sinusoidal"):
        raise ValueError(f"kind must be constant or sinusoidal, got {kind!r}")
    vector = np.asarray(amplitude, dtype=np.float64)
    if vector.shape != (3,):
        raise ValueError(f"applied field amplitude must be a 3-vector, got {amplitude!r}")
    if kind == "constant":
        return lambda t, points: vector
    return lambda t, points: vector * np.sin(omega * t)


@dataclass
class UniaxialContribution(FieldContribution):
    """Scaled uniaxial anisotropy term scale * (-(m.e) e); e is a unit vector."""

    axis: np.ndarray
    scale: float = 1.0

    name = "uniaxial"
    linear_self_adjoint = True

    def __post_init__(self) -> None:
        self.axis = np.asarray(self.axis, dtype=np.float64)
        # "not <=" so that a NaN axis fails
        if self.axis.shape != (3,) or not abs(np.linalg.norm(self.axis) - 1.0) <= 1e-12:
            raise ValueError("easy axis must be a unit 3-vector (|e| = 1 within 1e-12)")

    def evaluate(self, m, zeta=None, time_index=0):
        proj = m.values @ self.axis
        out = NodalVectorField(m.mesh, -proj[:, None] * self.axis[None, :])
        out.values *= self.scale
        return out


@dataclass
class CubicContribution(FieldContribution):
    """Scaled gradient of the cubic density K1 (m1^2 m2^2 + m2^2 m3^2) + K2 m1^2 m2^2 m3^2.

    The density couples coordinate pairs asymmetrically (there is no
    m1^2 m3^2 term), so the operator is not invariant under exchanging the
    first and third components.  It is nonlinear, so it enters the energy
    through its pointwise density, not a quadratic form.
    """

    K1: float
    K2: float
    scale: float = 1.0

    name = "cubic"
    linear_self_adjoint = False

    def __post_init__(self) -> None:
        if not (self.K1 >= 0.0 and self.K2 >= 0.0):  # NaN fails too
            raise ValueError("cubic anisotropy constants must be nonnegative")

    def evaluate(self, m, zeta=None, time_index=0):
        K1, K2 = self.K1, self.K2
        x1, x2, x3 = m.values[:, 0], m.values[:, 1], m.values[:, 2]
        g = np.empty_like(m.values)
        g[:, 0] = 2.0 * K1 * x1 * x2**2 + 2.0 * K2 * x1 * x2**2 * x3**2
        g[:, 1] = 2.0 * K1 * x2 * (x1**2 + x3**2) + 2.0 * K2 * x2 * x1**2 * x3**2
        g[:, 2] = 2.0 * K1 * x3 * x2**2 + 2.0 * K2 * x3 * x1**2 * x2**2
        g *= self.scale
        return NodalVectorField(m.mesh, g)

    def energy_density(self, m) -> np.ndarray:
        """Nodal values of scale * (K1 (m1^2 m2^2 + m2^2 m3^2) + K2 m1^2 m2^2 m3^2)."""
        x1, x2, x3 = m.values[:, 0], m.values[:, 1], m.values[:, 2]
        return self.scale * (
            self.K1 * (x1**2 * x2**2 + x2**2 * x3**2) + self.K2 * x1**2 * x2**2 * x3**2
        )
