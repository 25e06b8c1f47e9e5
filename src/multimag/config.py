"""Run configuration: INI parsing, validation, and run assembly.

The configuration file is flat INI with the sections documented in the
README.  Parsing is fail-fast: unknown sections, unknown keys, missing
required keys, and out-of-range values all raise with the offending name.
Material parameters come either as SI constants in a ``[material]``
section (converted through compute_constants) or directly in reduced
units in a ``[constants]`` section; exactly one of the two must appear.

Rules owned elsewhere are asked of their owner, before any mesh is read:
the material law and solver settings (multiscale), the stray-field method
(strayfield) and the applied-field presets (fields, which build the field
here, once).  An owner's ValueError is re-raised naming its INI section.
"""

from __future__ import annotations

import configparser
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .fields import (
    CubicContribution,
    NondimConstants,
    UniaxialContribution,
    compute_constants,
    make_applied_field,
)
from .integrator import RunSetup
from .mesh import load_mesh
from .multiscale import MaterialLaw, check_solver_settings, material_law
from .strayfield import check_method

_KNOWN_KEYS = {
    "mesh": {"omega1", "omega2"},
    "material": {
        "exchange_a",
        "anisotropy_k",
        "saturation_ms",
        "alpha",
        "length_scale",
        "time_horizon",
    },
    "constants": {"c_exch", "c_ani", "alpha", "t_final"},
    "run": {"theta", "k", "n_steps", "initial", "initial_vector", "initial_snapshot"},
    "contributions": {"terms"},
    "uniaxial": {"axis"},
    "cubic": {"k1", "k2"},
    "strayfield": {"method"},
    "multiscale": {"law", "params", "scheme", "tol", "max_iter"},
    "applied_field": {"kind", "amplitude", "omega"},
    "solver": {"tol"},
    "output": {"directory", "cadence", "vtk"},
}

_KNOWN_TERMS = ("uniaxial", "cubic", "strayfield", "multiscale")


@dataclass(frozen=True)
class SimulationConfig:
    """Validated run configuration; all fields in reduced units."""

    mesh_omega1: str
    mesh_omega2: str | None
    constants: NondimConstants
    theta: float
    k: float
    n_steps: int
    initial_vector: np.ndarray | None  # unit length; None when starting from a snapshot
    initial_snapshot: str | None
    terms: tuple
    uniaxial_axis: np.ndarray | None
    cubic_k1: float
    cubic_k2: float
    strayfield_method: str | None  # None without the term
    multiscale_law: MaterialLaw | None  # None without the term
    multiscale_scheme: str
    multiscale_tol: float
    multiscale_max_iter: int
    applied_field: object  # callable f(t, points) from make_applied_field, or None
    applied_amplitude: np.ndarray | None
    solver_tol: float
    output_dir: str
    cadence: int
    vtk: bool


def _vector3(text: str, where: str) -> np.ndarray:
    parts = text.split()
    if len(parts) != 3:
        raise ValueError(f"{where} must be three space-separated numbers, got {text!r}")
    return np.array([_finite_float(p, where) for p in parts])


def _unit(vector: np.ndarray, where: str) -> np.ndarray:
    """``vector / |vector|`` for any finite nonzero vector.

    The vector is first scaled, exactly, by the power of two of its largest
    |component|, so the norm neither underflows nor overflows.  Scaling by
    a power of two changes no rounding in the normal range: for components
    between 1e-100 and 1e100 in magnitude the result has the bits of
    ``vector / np.linalg.norm(vector)``.
    """
    largest = np.abs(vector).max()
    if largest == 0.0:
        raise ValueError(f"{where} must be nonzero")
    scaled = np.ldexp(vector, -np.frexp(largest)[1])
    return scaled / np.linalg.norm(scaled)


def _finite_float(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{where} must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{where} must be finite, got {text!r}")
    return value


def _int(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{where} must be an integer, got {text!r}") from None


@contextmanager
def _section(name: str):
    """Re-raise a rule owner's ValueError inside the block naming INI section ``name``."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"[{name}] {exc}") from exc


def load_config(path: str) -> SimulationConfig:
    """Parse and validate an INI run configuration."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file not found: {path}")
    # flat INI: no %(name)s interpolation, so a '%' in a value is plain text
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        parser.read(path)
    except configparser.Error as exc:  # duplicate keys or sections, no section header
        raise ValueError(f"cannot parse {path}: {exc}") from exc

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ValueError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                raise ValueError(f"unknown key {key!r} in section [{section}]")

    def get(section: str, key: str, default=None, required: bool = False) -> str | None:
        if parser.has_option(section, key):
            return parser.get(section, key)
        if required:
            raise ValueError(f"missing required key {key!r} in section [{section}]")
        return default

    def get_float(section: str, key: str, default: str | float | None = None,
                  required: bool = False) -> float:
        return _finite_float(get(section, key, default, required), f"[{section}] {key}")

    if not parser.has_section("mesh"):
        raise ValueError("missing required section [mesh]")
    mesh_omega1 = get("mesh", "omega1", required=True)
    mesh_omega2 = get("mesh", "omega2")
    base = os.path.dirname(os.path.abspath(path))
    mesh_omega1 = os.path.join(base, mesh_omega1)
    if mesh_omega2 is not None:
        mesh_omega2 = os.path.join(base, mesh_omega2)

    has_material = parser.has_section("material")
    has_constants = parser.has_section("constants")
    if has_material == has_constants:
        raise ValueError("exactly one of [material] or [constants] must be present")
    if has_material:
        constants = compute_constants(
            A=get_float("material", "exchange_a", required=True),
            K=get_float("material", "anisotropy_k", required=True),
            M_s=get_float("material", "saturation_ms", required=True),
            alpha=get_float("material", "alpha", required=True),
            L_char=get_float("material", "length_scale", required=True),
            T_physical=get_float("material", "time_horizon", required=True),
        )
    else:
        constants = NondimConstants(
            c_exch=get_float("constants", "c_exch", required=True),
            c_ani=get_float("constants", "c_ani", required=True),
            alpha=get_float("constants", "alpha", required=True),
            t_final=get_float("constants", "t_final", required=True),
        )

    if not parser.has_section("run"):
        raise ValueError("missing required section [run]")
    theta = get_float("run", "theta", "1.0")
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    k = get_float("run", "k", required=True)
    if not k > 0.0:
        raise ValueError(f"time step k must be positive, got {k}")
    n_steps = _int(get("run", "n_steps", required=True), "[run] n_steps")
    if n_steps < 0:
        raise ValueError(f"n_steps must be nonnegative, got {n_steps}")

    initial_kind = get("run", "initial", "uniform")
    initial_vector = None
    initial_snapshot = None
    if initial_kind == "uniform":
        vector = _vector3(get("run", "initial_vector", required=True), "initial_vector")
        initial_vector = _unit(vector, "initial_vector")
    elif initial_kind == "snapshot":
        initial_snapshot = os.path.join(base, get("run", "initial_snapshot", required=True))
    else:
        raise ValueError(f"initial must be 'uniform' or 'snapshot', got {initial_kind!r}")

    terms_text = get("contributions", "terms", "")
    terms = tuple(t.strip() for t in terms_text.split(",") if t.strip())
    for t in terms:
        if t not in _KNOWN_TERMS:
            raise ValueError(f"unknown contribution term {t!r}; known: {', '.join(_KNOWN_TERMS)}")
    if len(set(terms)) != len(terms):
        raise ValueError("duplicate contribution terms")

    uniaxial_axis = None
    if "uniaxial" in terms:
        axis = _vector3(get("uniaxial", "axis", required=True), "uniaxial axis")
        uniaxial_axis = _unit(axis, "uniaxial axis")

    cubic_k1 = cubic_k2 = 0.0
    if "cubic" in terms:
        cubic_k1 = get_float("cubic", "k1", required=True)
        cubic_k2 = get_float("cubic", "k2", "0.0")
        if cubic_k1 < 0.0 or cubic_k2 < 0.0:
            raise ValueError(f"cubic k1 and k2 must be nonnegative, got {cubic_k1}, {cubic_k2}")

    strayfield_method = None
    if "strayfield" in terms:
        strayfield_method = get("strayfield", "method", "fk")
        with _section("strayfield"):
            check_method(strayfield_method)

    multiscale_law = None
    multiscale_scheme, multiscale_tol, multiscale_max_iter = "zarantonello", 1e-8, 200
    if "multiscale" in terms:
        if mesh_omega2 is None:
            raise ValueError("multiscale term requires mesh omega2")
        law_kind = get("multiscale", "law", required=True)
        params_text = get("multiscale", "params", "")
        params = [_finite_float(p, "[multiscale] params") for p in params_text.split()]
        multiscale_scheme = get("multiscale", "scheme", multiscale_scheme)
        multiscale_tol = get_float("multiscale", "tol", multiscale_tol)
        multiscale_max_iter = _int(get("multiscale", "max_iter", multiscale_max_iter),
                                   "[multiscale] max_iter")
        with _section("multiscale"):
            multiscale_law = material_law(law_kind, *params)
            check_solver_settings(multiscale_law, multiscale_scheme, multiscale_tol,
                                  multiscale_max_iter)

    applied_field = None
    applied_amplitude = None
    kind = get("applied_field", "kind", "none")
    if kind != "none":
        amplitude = get("applied_field", "amplitude")
        if amplitude is not None:
            applied_amplitude = _vector3(amplitude, "applied field amplitude")
        omega = get_float("applied_field", "omega", "0.0")
        with _section("applied_field"):
            applied_field = make_applied_field(kind, applied_amplitude, omega)
    if "multiscale" in terms and applied_field is None:
        # the environment field pi(m, f) is driven by the applied field f
        raise ValueError("multiscale term requires an [applied_field] kind other than none")

    solver_tol = get_float("solver", "tol", "1e-10")
    if not solver_tol > 0.0:
        raise ValueError(f"solver tol must be positive, got {solver_tol}")

    if not parser.has_section("output"):
        raise ValueError("missing required section [output]")
    output_dir = os.path.join(base, get("output", "directory", required=True))
    cadence = _int(get("output", "cadence", "10"), "[output] cadence")
    if cadence < 1:
        raise ValueError(f"cadence must be a positive integer, got {cadence}")
    vtk_text = get("output", "vtk", "false").lower()
    if vtk_text not in ("true", "false"):
        raise ValueError(f"vtk must be true or false, got {vtk_text!r}")

    return SimulationConfig(
        mesh_omega1=mesh_omega1,
        mesh_omega2=mesh_omega2,
        constants=constants,
        theta=theta,
        k=k,
        n_steps=n_steps,
        initial_vector=initial_vector,
        initial_snapshot=initial_snapshot,
        terms=terms,
        uniaxial_axis=uniaxial_axis,
        cubic_k1=cubic_k1,
        cubic_k2=cubic_k2,
        strayfield_method=strayfield_method,
        multiscale_law=multiscale_law,
        multiscale_scheme=multiscale_scheme,
        multiscale_tol=multiscale_tol,
        multiscale_max_iter=multiscale_max_iter,
        applied_field=applied_field,
        applied_amplitude=applied_amplitude,
        solver_tol=solver_tol,
        output_dir=output_dir,
        cadence=cadence,
        vtk=vtk_text == "true",
    )


def build_run_setup(cfg: SimulationConfig) -> RunSetup:
    """Load meshes, build contributions, and assemble a RunSetup."""
    from .multiscale import MultiscaleContribution, make_multiscale_workspace
    from .strayfield import StrayfieldContribution, make_strayfield_workspace

    mesh1 = load_mesh(cfg.mesh_omega1)
    contributions = []
    for term in cfg.terms:
        if term == "uniaxial":
            contributions.append(
                UniaxialContribution(axis=cfg.uniaxial_axis, scale=cfg.constants.c_ani)
            )
        elif term == "cubic":
            contributions.append(
                CubicContribution(K1=cfg.cubic_k1, K2=cfg.cubic_k2, scale=cfg.constants.c_ani)
            )
        elif term == "strayfield":
            ws = make_strayfield_workspace(mesh1, cfg.strayfield_method)
            contributions.append(StrayfieldContribution(workspace=ws))
        elif term == "multiscale":
            mesh2 = load_mesh(cfg.mesh_omega2)
            mws = make_multiscale_workspace(mesh1, mesh2)
            contributions.append(
                MultiscaleContribution(
                    workspace=mws,
                    law=cfg.multiscale_law,
                    scheme=cfg.multiscale_scheme,
                    tol_nl=cfg.multiscale_tol,
                    max_iter=cfg.multiscale_max_iter,
                )
            )

    if cfg.initial_snapshot is None:
        m0 = np.tile(cfg.initial_vector, (mesh1.n_nodes, 1))
    else:
        from .diagnostics import field_from_snapshot

        m0 = field_from_snapshot(mesh1, cfg.initial_snapshot).values

    return RunSetup(
        mesh=mesh1,
        m0=m0,
        constants=cfg.constants,
        contributions=contributions,
        applied_field=cfg.applied_field,
        theta=cfg.theta,
        k=cfg.k,
        n_steps=cfg.n_steps,
        solver_tol=cfg.solver_tol,
    )
