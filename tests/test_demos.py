"""The demos still import what they use, the demo INI still loads, and the
multiscale demo runs.

The other demos are not run here (they take minutes); their imports are
read from the source, so a name removed from ``multimag`` fails this test.
"""

import ast
import importlib
import importlib.util
import re
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


def test_multiscale_demo_recovers_sphere_factor(capsys):
    spec = importlib.util.spec_from_file_location(
        "multiscale_iteration", DEMOS / "multiscale_iteration.py"
    )
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main()
    out = capsys.readouterr().out
    # linear chi = 2: the interior field is 3/(3+chi) = 0.6 of the applied one
    err = float(re.search(r"linear chi = 2: 3/\(3\+chi\) error ([0-9.e+-]+)", out).group(1))
    assert err <= 0.1
    assert "kacanov" in out and "zarantonello" in out
