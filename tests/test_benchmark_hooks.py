"""The benchmark tracer's wrap sites still name bound functions.

``perfbench/tracer.py`` replaces functions where the program looks them
up: a module's globals, a class's methods, or the solvers behind a
module's ``spla`` alias.  A refactor that unbinds one of those names
would only fail a traced benchmark run; this test makes it fail here.
The tracer source is read and executed in a fresh namespace, so nothing
is written next to it.
"""

import ast
import importlib
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_function_sites_resolve(tracer):
    for module_name, attr, _ in tracer.FUNCTION_SITES:
        module = importlib.import_module(module_name)
        assert callable(module.__dict__.get(attr)), f"{module_name}.{attr}"


def test_tracer_only_imports_are_sites(tracer):
    # an import the program keeps only for the tracer ("# noqa: F401") must
    # be a FUNCTION_SITES entry of its module; dropping a site without its
    # import leaves an unused name, which this test names
    sites = {(module_name, attr) for module_name, attr, _ in tracer.FUNCTION_SITES}
    for path in sorted((ROOT / "src" / "multimag").glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        marked = {n for n, line in enumerate(lines, 1) if "# noqa: F401" in line}
        found = set()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.lineno in marked:
                        found.add(alias.lineno)
                        name = alias.asname or alias.name
                        assert (f"multimag.{path.stem}", name) in sites, f"{path.name}: {name}"
        assert found == marked, f"{path.name}: a '# noqa: F401' line is not a from-import"


def test_method_sites_resolve(tracer):
    for module_name, cls_name, attr, _ in tracer.METHOD_SITES:
        cls = importlib.import_module(module_name).__dict__[cls_name]
        assert callable(cls.__dict__.get(attr)), f"{module_name}.{cls_name}.{attr}"


def test_integrator_method_sites_run_once_per_step(tracer, monkeypatch):
    # a step that bypassed a wrapped method would leave its span at zero
    from meshes import kuhn_cube
    from multimag import (
        MagnetizationState,
        NodalVectorField,
        NondimConstants,
        evaluate_contributions,
        llg_step,
        make_llg_workspace,
    )

    calls = {}
    for module_name, cls_name, attr, _ in tracer.METHOD_SITES:
        if module_name != "multimag.integrator":
            continue
        cls = importlib.import_module(module_name).__dict__[cls_name]

        def counting(*args, _method=cls.__dict__[attr], _attr=attr, **kwargs):
            calls[_attr] = calls.get(_attr, 0) + 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(cls, attr, counting)
        calls[attr] = 0
    assert set(calls) == {"cross_matrix", "frame_matrix"}

    mesh = kuhn_cube(1)
    state = MagnetizationState(
        m=NodalVectorField(mesh, np.tile([0.0, 0.0, 1.0], (mesh.n_nodes, 1))), step=0, time=0.0
    )
    f = np.array([0.3, 0.0, 0.5])
    pi, _ = evaluate_contributions([], state.m, f, 0)
    constants = NondimConstants(c_exch=1.0, c_ani=1.0, alpha=1.0, t_final=1.0)
    llg_step(make_llg_workspace(mesh), state, pi, f, constants, 1.0, 1e-3)
    assert calls == {"cross_matrix": 1, "frame_matrix": 1}


def test_solver_sites_resolve(tracer):
    for module_name, solver, _, _ in tracer.SOLVER_SITES:
        spla = importlib.import_module(module_name).__dict__["spla"]
        assert callable(getattr(spla, solver, None)), f"{module_name}.spla.{solver}"


def test_tracer_counts_the_iterations_the_velocity_solve_reports(tracer, monkeypatch):
    # the program's own iteration callback and the tracer's chained one
    # must count the same BiCGStab iterations
    from meshes import kuhn_cube
    from multimag import (
        MagnetizationState,
        NodalVectorField,
        NondimConstants,
        llg_step,
        make_llg_workspace,
    )
    from multimag import integrator

    reports = []
    solve = integrator._solve_velocity

    def recording(*args):
        reports.append(solve(*args))
        return reports[-1]

    monkeypatch.setattr(integrator, "_solve_velocity", recording)
    mesh = kuhn_cube(2)
    rng = np.random.default_rng(7)
    m = np.tile([0.0, 0.0, 1.0], (mesh.n_nodes, 1)) + 0.3 * rng.normal(size=(mesh.n_nodes, 3))
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    state = MagnetizationState(m=NodalVectorField(mesh, m), step=0, time=0.0)
    f = np.array([0.3, 0.0, 0.5])
    constants = NondimConstants(c_exch=1.0, c_ani=1.0, alpha=1.0, t_final=1.0)
    ws = make_llg_workspace(mesh)

    traced = tracer.Tracer("velocity-solve-counter")
    traced.install()
    try:
        llg_step(ws, state, NodalVectorField(mesh, np.zeros_like(m)), f, constants, 1.0, 1e-3)
    finally:
        traced.uninstall()
    assert len(reports) == 1 and reports[0].bicgstab_iterations > 0
    assert traced.counter("integrator.bicgstab_iters") == reports[0].bicgstab_iterations
    assert traced.counter("integrator.gmres_iters") == 0


def test_tracer_sees_each_bem_sweep_at_its_wrapped_sites(tracer, monkeypatch, pair_ws):
    # the fk build goes through the wrapped assemble_bem once, and each
    # sweep, whatever layers it integrates, counts 7 F_target F_source
    # panel pairs.  One worker: the tracer's counters are not thread-safe.
    from multimag import bem, icosphere_volume
    from multimag.multiscale import MultiscaleWorkspace
    from multimag.strayfield import StrayfieldWorkspace

    monkeypatch.setattr(bem, "_usable_cpus", lambda: 1)
    mesh = icosphere_volume(1, n_radial=2)
    faces = mesh.boundary().n_faces
    traced = tracer.Tracer("bem-sweeps")
    traced.install()
    try:
        StrayfieldWorkspace(mesh, "fk")
    finally:
        traced.uninstall()
    assert traced.summary()["bem.assemble_bem"]["calls"] == 1
    assert traced.counter("bem.panel_pairs") == 7 * faces * faces

    fresh = MultiscaleWorkspace(pair_ws.mesh1, pair_ws.coupling)
    f1, f2 = fresh.surface1.n_faces, fresh.coupling.surface.n_faces
    traced = tracer.Tracer("transfer-sweeps")
    traced.install()
    try:
        fresh.transfer_12, fresh.transfer_21
    finally:
        traced.uninstall()
    assert traced.counter("bem.panel_pairs") == 7 * f2 * f1 + 7 * f1 * f2
