"""The package's size, counted one way and held under ceilings.

Two counts describe how much a caller can set and name, and a third how
much code there is:

* settable values: the INI keys in ``config._KNOWN_KEYS``, plus every
  keyword parameter that has a default or is keyword-only, plus every
  dataclass field whose ``init`` is not False, all read from the source of
  ``src/multimag/*.py`` by ``ast``;
* ``len(multimag.__all__)``;
* source lines: the line count of ``src/multimag/*.py``, as ``wc -l`` gives it.

A change may lower a ceiling freely.  A change that raises one must say
why in CHANGES.md.
"""

import ast
from pathlib import Path

import multimag

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "multimag").glob("*.py"))

SETTABLE_CEILING = 179
ALL_CEILING = 62
SOURCE_LINES_CEILING = 4171


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _field_is_init(value) -> bool:
    """False only for ``field(..., init=False, ...)``."""
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        for kw in value.keywords:
            if kw.arg == "init" and isinstance(kw.value, ast.Constant):
                return bool(kw.value.value)
    return True


def _known_ini_keys(tree: ast.Module) -> int:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "_KNOWN_KEYS" for t in node.targets
        ):
            return sum(len(keys.elts) for keys in node.value.values)
    return 0


def settable_counts() -> dict:
    """The three parts of the settable-value count over the package source."""
    ini = keywords = fields = 0
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "config.py":
            ini = _known_ini_keys(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                keywords += len(node.args.defaults) + len(node.args.kwonlyargs)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += sum(
                    1
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and _field_is_init(stmt.value)
                )
    return {"ini_keys": ini, "keywords": keywords, "dataclass_fields": fields}


def test_ini_keys_are_found():
    # a count of zero would mean the parser no longer finds the table
    assert settable_counts()["ini_keys"] > 0


def test_settable_values_stay_under_ceiling():
    counts = settable_counts()
    total = sum(counts.values())
    assert total <= SETTABLE_CEILING, (
        f"{total} settable values {counts} exceed the ceiling {SETTABLE_CEILING}; "
        "a change that raises the ceiling must justify it in CHANGES.md"
    )


def test_public_names_stay_under_ceiling():
    assert len(multimag.__all__) <= ALL_CEILING, (
        f"multimag.__all__ has {len(multimag.__all__)} names, over the ceiling "
        f"{ALL_CEILING}; a change that raises the ceiling must justify it in CHANGES.md"
    )


def test_source_lines_stay_under_ceiling():
    lines = sum(path.read_bytes().count(b"\n") for path in SOURCES)
    assert lines <= SOURCE_LINES_CEILING, (
        f"src/multimag/*.py has {lines} lines, over the ceiling {SOURCE_LINES_CEILING}; "
        "a change that raises the ceiling must justify it in CHANGES.md"
    )
