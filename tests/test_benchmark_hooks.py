"""The benchmark tracer's wrap sites still name bound functions.

``perfbench/tracer.py`` replaces functions where the program looks them
up: a module's globals, a class's methods, or the solvers behind a
module's ``spla`` alias.  A refactor that unbinds one of those names
would only fail a traced benchmark run; this test makes it fail here.
The tracer source is read and executed in a fresh namespace, so nothing
is written next to it.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_function_sites_resolve(tracer):
    for module_name, attr, _ in tracer.FUNCTION_SITES:
        module = importlib.import_module(module_name)
        assert callable(module.__dict__.get(attr)), f"{module_name}.{attr}"


def test_method_sites_resolve(tracer):
    for module_name, cls_name, attr, _ in tracer.METHOD_SITES:
        cls = importlib.import_module(module_name).__dict__[cls_name]
        assert callable(cls.__dict__.get(attr)), f"{module_name}.{cls_name}.{attr}"


def test_solver_sites_resolve(tracer):
    for module_name, solver, _, _ in tracer.SOLVER_SITES:
        spla = importlib.import_module(module_name).__dict__["spla"]
        assert callable(getattr(spla, solver, None)), f"{module_name}.spla.{solver}"
