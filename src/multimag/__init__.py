"""Multiscale micromagnetic simulation: LLG integration with FEM-BEM fields.

The package solves the Landau-Lifshitz-Gilbert equation with a first-order
tangent-plane scheme on P1 tetrahedral elements.  Effective-field
contributions compose freely: local anisotropies, hybrid FEM-BEM stray
fields (Fredkin-Koehler or Garcia-Cervera-Roma splitting), and a
stabilized Johnson-Nedelec FEM-BEM coupling to a possibly nonlinear
magnetizable environment.  All quantities are in reduced (dimensionless)
units; ``compute_constants`` maps SI material parameters onto them.
"""

from .bem import assemble_bem, eval_double_layer, eval_single_layer, solid_angles
from .config import SimulationConfig, build_run_setup, load_config
from .diagnostics import (
    DecayReport,
    EnergyRecord,
    check_energy_decay,
    energy,
    read_energies_csv,
    read_snapshot,
    write_energies_csv,
    write_snapshot,
    write_trajectory,
    write_vtk,
)
from .fem import (
    NodalScalarField,
    NodalVectorField,
    assemble_boundary_mass,
    assemble_mass,
    assemble_stiffness,
    solve_spd,
)
from .fields import (
    GAMMA0,
    MU0,
    CubicContribution,
    FieldContribution,
    NondimConstants,
    UniaxialContribution,
    compute_constants,
    make_applied_field,
    sample_applied_field,
)
from .integrator import (
    LlgWorkspace,
    MagnetizationState,
    RunSetup,
    TangentFrame,
    Trajectory,
    build_tangent_frame,
    evaluate_contributions,
    llg_step,
    make_llg_workspace,
    run,
)
from .mesh import SurfaceMesh, TetMesh, check_angle_condition, load_mesh, write_mesh
from .multiscale import (
    CouplingState,
    CouplingWorkspace,
    MaterialLaw,
    MultiscaleContribution,
    MultiscaleWorkspace,
    make_multiscale_workspace,
    material_law,
    solve_coupling,
)
from .shapes import icosphere_volume, reference_tet
from .strayfield import (
    StrayfieldContribution,
    StrayfieldWorkspace,
    fk_strayfield,
    gcr_strayfield,
    make_strayfield_workspace,
)

__version__ = "1.0.0"

__all__ = [
    "CouplingState",
    "CouplingWorkspace",
    "CubicContribution",
    "DecayReport",
    "EnergyRecord",
    "FieldContribution",
    "GAMMA0",
    "LlgWorkspace",
    "MU0",
    "MagnetizationState",
    "MaterialLaw",
    "MultiscaleContribution",
    "MultiscaleWorkspace",
    "NodalScalarField",
    "NodalVectorField",
    "NondimConstants",
    "RunSetup",
    "SimulationConfig",
    "StrayfieldContribution",
    "StrayfieldWorkspace",
    "SurfaceMesh",
    "TangentFrame",
    "TetMesh",
    "Trajectory",
    "UniaxialContribution",
    "assemble_bem",
    "assemble_boundary_mass",
    "assemble_mass",
    "assemble_stiffness",
    "build_run_setup",
    "build_tangent_frame",
    "check_angle_condition",
    "check_energy_decay",
    "compute_constants",
    "energy",
    "eval_double_layer",
    "eval_single_layer",
    "evaluate_contributions",
    "fk_strayfield",
    "gcr_strayfield",
    "icosphere_volume",
    "llg_step",
    "load_config",
    "load_mesh",
    "make_applied_field",
    "make_llg_workspace",
    "make_multiscale_workspace",
    "make_strayfield_workspace",
    "material_law",
    "read_energies_csv",
    "read_snapshot",
    "reference_tet",
    "run",
    "sample_applied_field",
    "solid_angles",
    "solve_coupling",
    "solve_spd",
    "write_energies_csv",
    "write_mesh",
    "write_snapshot",
    "write_trajectory",
    "write_vtk",
]
