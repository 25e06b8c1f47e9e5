"""Run configuration: INI parsing, validation, and run assembly.

The configuration file is flat INI with the sections documented in the
README.  Parsing is fail-fast: unknown sections, unknown keys, missing
required keys, and out-of-range values all raise with the offending name.
Material parameters come either as SI constants in a ``[material]``
section (converted through compute_constants) or directly in reduced
units in a ``[constants]`` section; exactly one of the two must appear.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field

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
from .multiscale import TOL_NL_FLOOR, material_law

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
    initial_kind: str  # "uniform" | "snapshot"
    initial_vector: np.ndarray | None
    initial_snapshot: str | None
    terms: tuple
    uniaxial_axis: np.ndarray | None
    cubic_k1: float
    cubic_k2: float
    strayfield_method: str | None  # "fk" | "gcr"; None without the term
    multiscale_law: str
    multiscale_params: tuple
    multiscale_scheme: str
    multiscale_tol: float
    multiscale_max_iter: int
    applied_kind: str  # "none" | "constant" | "sinusoidal"
    applied_amplitude: np.ndarray | None
    applied_omega: float
    solver_tol: float
    output_dir: str
    cadence: int
    vtk: bool


def _vector3(text: str, where: str) -> np.ndarray:
    parts = text.split()
    if len(parts) != 3:
        raise ValueError(f"{where} must be three space-separated numbers, got {text!r}")
    return np.array([_finite_float(p, where) for p in parts])


def _nonzero_norm(vector: np.ndarray, where: str) -> float:
    with np.errstate(over="ignore"):  # the squares overflow past ~1e154
        norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        raise ValueError(f"{where} must be nonzero")
    if norm == math.inf:
        raise ValueError(f"{where} is too large to normalise, got {vector.tolist()}")
    return norm


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

    def get_float(section: str, key: str, default: str | None = None,
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
        initial_vector = _vector3(get("run", "initial_vector", required=True), "initial_vector")
        _nonzero_norm(initial_vector, "initial_vector")
    elif initial_kind == "snapshot":
        initial_snapshot = os.path.join(base, get("run", "initial_snapshot", required=True))
    else:
        raise ValueError(f"initial must be 'uniform' or 'snapshot', got {initial_kind!r}")

    terms_text = get("contributions", "terms", "") if parser.has_section("contributions") else ""
    terms = tuple(t.strip() for t in terms_text.split(",") if t.strip())
    for t in terms:
        if t not in _KNOWN_TERMS:
            raise ValueError(f"unknown contribution term {t!r}; known: {', '.join(_KNOWN_TERMS)}")
    if len(set(terms)) != len(terms):
        raise ValueError("duplicate contribution terms")

    uniaxial_axis = None
    if "uniaxial" in terms:
        axis = _vector3(get("uniaxial", "axis", required=True), "uniaxial axis")
        uniaxial_axis = axis / _nonzero_norm(axis, "uniaxial axis")

    cubic_k1 = cubic_k2 = 0.0
    if "cubic" in terms:
        cubic_k1 = get_float("cubic", "k1", required=True)
        cubic_k2 = get_float("cubic", "k2", "0.0")
        if cubic_k1 < 0.0 or cubic_k2 < 0.0:
            raise ValueError(f"cubic k1 and k2 must be nonnegative, got {cubic_k1}, {cubic_k2}")

    strayfield_method = None
    if "strayfield" in terms:
        strayfield_method = get("strayfield", "method", "fk")
        if strayfield_method not in ("fk", "gcr"):
            raise ValueError(f"strayfield method must be fk or gcr, got {strayfield_method!r}")

    multiscale_law = "zero"
    multiscale_params: tuple = ()
    multiscale_scheme = "zarantonello"
    multiscale_tol = 1e-8
    multiscale_max_iter = 200
    if "multiscale" in terms:
        if mesh_omega2 is None:
            raise ValueError("multiscale term requires mesh omega2")
        multiscale_law = get("multiscale", "law", required=True)
        params_text = get("multiscale", "params", "")
        multiscale_params = tuple(
            _finite_float(p, "[multiscale] params") for p in params_text.split()
        )
        law = material_law(multiscale_law, *multiscale_params)
        multiscale_scheme = get("multiscale", "scheme", "zarantonello")
        if multiscale_scheme not in ("zarantonello", "kacanov"):
            raise ValueError(f"unknown nonlinear scheme {multiscale_scheme!r}")
        multiscale_tol = get_float("multiscale", "tol", "1e-8")
        multiscale_max_iter = _int(get("multiscale", "max_iter", "200"), "[multiscale] max_iter")
        if not multiscale_tol > 0.0:
            raise ValueError(f"multiscale tol must be positive, got {multiscale_tol}")
        if not law.is_linear and multiscale_tol < TOL_NL_FLOOR:
            raise ValueError(
                f"[multiscale] tol = {multiscale_tol:g} is below the roundoff floor "
                f"{TOL_NL_FLOOR:g} of the nonlinear coupling solve"
            )
        if multiscale_max_iter < 1:
            raise ValueError(f"multiscale max_iter must be at least 1, got {multiscale_max_iter}")

    applied_kind = "none"
    applied_amplitude = None
    applied_omega = 0.0
    if parser.has_section("applied_field"):
        applied_kind = get("applied_field", "kind", "none")
        if applied_kind not in ("none", "constant", "sinusoidal"):
            raise ValueError(f"applied field kind must be none, constant, or sinusoidal, got {applied_kind!r}")
        if applied_kind != "none":
            applied_amplitude = _vector3(
                get("applied_field", "amplitude", required=True), "applied field amplitude"
            )
            applied_omega = get_float("applied_field", "omega", "0.0")
    if "multiscale" in terms and applied_kind == "none":
        # the environment field pi(m, f) is driven by the applied field f
        raise ValueError(
            "multiscale term requires an [applied_field] section of kind constant or sinusoidal"
        )

    solver_tol = get_float("solver", "tol", "1e-10") if parser.has_section("solver") else 1e-10
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
        initial_kind=initial_kind,
        initial_vector=initial_vector,
        initial_snapshot=initial_snapshot,
        terms=terms,
        uniaxial_axis=uniaxial_axis,
        cubic_k1=cubic_k1,
        cubic_k2=cubic_k2,
        strayfield_method=strayfield_method,
        multiscale_law=multiscale_law,
        multiscale_params=multiscale_params,
        multiscale_scheme=multiscale_scheme,
        multiscale_tol=multiscale_tol,
        multiscale_max_iter=multiscale_max_iter,
        applied_kind=applied_kind,
        applied_amplitude=applied_amplitude,
        applied_omega=applied_omega,
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
            law = material_law(cfg.multiscale_law, *cfg.multiscale_params)
            contributions.append(
                MultiscaleContribution(
                    workspace=mws,
                    law=law,
                    scheme=cfg.multiscale_scheme,
                    tol_nl=cfg.multiscale_tol,
                    max_iter=cfg.multiscale_max_iter,
                )
            )

    if cfg.initial_kind == "uniform":
        m0 = np.tile(cfg.initial_vector / np.linalg.norm(cfg.initial_vector), (mesh1.n_nodes, 1))
    else:
        from .diagnostics import field_from_snapshot

        m0 = field_from_snapshot(mesh1, cfg.initial_snapshot).values

    applied = None
    if cfg.applied_kind != "none":
        applied = make_applied_field(cfg.applied_kind, cfg.applied_amplitude, cfg.applied_omega)

    return RunSetup(
        mesh=mesh1,
        m0=m0,
        constants=cfg.constants,
        contributions=contributions,
        applied_field=applied,
        theta=cfg.theta,
        k=cfg.k,
        n_steps=cfg.n_steps,
        solver_tol=cfg.solver_tol,
    )
