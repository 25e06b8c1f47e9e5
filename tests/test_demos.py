"""The demos still import what they use, and the demo INI still loads.

The demos are not run here (they take minutes); their imports are read
from the source, so a name removed from ``multimag`` fails this test.
"""

import ast
import importlib
from pathlib import Path

from multimag import load_config

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_demo_imports_resolve_and_ini_loads():
    scripts = sorted(DEMOS.glob("*.py"))
    assert scripts
    for path in scripts:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
                names = []
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module]
                names = [alias.name for alias in node.names]
            else:
                continue
            for module_name in modules:
                if module_name.split(".")[0] != "multimag":
                    continue
                module = importlib.import_module(module_name)
                for name in names:
                    assert hasattr(module, name), f"{path.name}: {module_name}.{name}"
    cfg = load_config(str(DEMOS / "relaxation.ini"))
    assert cfg.terms == ("uniaxial", "strayfield")
