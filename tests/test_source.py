import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "fanofib").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_sit_at_module_top(path):
    # a function-local import hides a module's dependencies; the package
    # has no import cycle that would need one
    tree = ast.parse(path.read_text(), filename=str(path))
    local = [f"{path.name}:{node.lineno}"
             for func in ast.walk(tree)
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(func)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not local, f"function-local imports at {local}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    # the package depends on numpy alone (pyproject.toml); scipy would cost
    # every command its import time: in a fresh interpreter on a 2-vCPU
    # Xeon, `from scipy.linalg import solve_banded` took 0.64 s and
    # `from scipy.sparse.linalg import splu` 0.66 s, against 0.25 s for
    # `import numpy` alone (medians of five)
    tree = ast.parse(path.read_text(), filename=str(path))
    top = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            top.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            top.add(node.module.split(".")[0])
    foreign = sorted(top - set(sys.stdlib_module_names) - {"numpy"})
    assert not foreign, f"{path.name} imports {foreign}"
