"""Package layout: no module of the package imports another's private name."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "semiwkb"


def test_no_module_imports_a_private_name():
    paths, found = sorted(SRC.glob("*.py")), []
    assert len(paths) > 1
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{path.name}: from {'.' * node.level}{node.module or ''} "
                          f"import {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []
