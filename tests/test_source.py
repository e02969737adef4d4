import ast
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import same_bytes

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "fanofib").glob("*.py"))
# the test modules and the benchmark's; beside the stdlib and numpy they may
# import these and their sibling modules.  mpmath, sympy and scipy are
# installed on some hosts but not declared, so no module may import them
TEST_SOURCES = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
TEST_IMPORTS = {"pytest", "hypothesis", "fanofib"}
# the program: the package, the benchmark and the acceptance suite, whose
# calls are the frozen contract
PROGRAM = sorted({*SOURCES, ROOT / "tests" / "test_acceptance.py",
                  *(ROOT / "perfbench").glob("*.py")})
# suffixes of the per-function metrics the benchmark's span tracer reports
FUNCTION_METRICS = ("self_s", "calls", "total_s")


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


@pytest.mark.parametrize("path", SOURCES + TEST_SOURCES,
                         ids=lambda p: p.name if p in SOURCES else f"{p.parent.name}/{p.name}")
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
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    if path not in SOURCES:
        allowed |= TEST_IMPORTS | {p.stem for p in path.parent.glob("*.py")}
    foreign = sorted(top - allowed)
    assert not foreign, f"{path.name} imports {foreign}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    # a name imported at the top of a module and never read there is a
    # dependency kept for nothing, such as a re-export that no module
    # imports; ``from __future__`` imports are compiler directives
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert not imported - read, (
        f"{path.name} imports names it never reads: {sorted(imported - read)}")


def _benchmark_functions() -> dict[str, set[str]]:
    """layer -> the functions BENCHMARK.json names per-layer metrics of."""
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    named = {}
    for metric in per_layer:
        parts = metric["name"].split(".")
        if len(parts) == 3 and parts[2] in FUNCTION_METRICS:
            named.setdefault(parts[0], set()).add(parts[1])
    return named


def test_benchmark_per_layer_functions_are_public_defs():
    # the traced benchmark reads one metric per named function and fails
    # with a KeyError deep in a subprocess when a function is renamed
    named = _benchmark_functions()
    assert named
    missing = []
    for layer, functions in sorted(named.items()):
        tree = ast.parse((ROOT / "src" / "fanofib" / f"{layer}.py").read_text())
        defs = {node.name for node in tree.body
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
        missing += [f"{layer}.{name}" for name in sorted(functions - defs)]
    assert not missing, f"BENCHMARK.json names no public def {missing}"


def test_every_public_def_is_referenced_in_src():
    # a public def or class, or a public method or property of a public
    # class, that no module of the package reads is API kept alive only by
    # its tests.  A read is matched by name alone: a Name or Attribute node
    # for a def or class, an Attribute node for a method or property.  A
    # method or property named like an ndarray attribute (``shape``,
    # ``copy``, ...) is reported whatever reads it: every array's read of
    # that name would match.  The functions the benchmark traces are
    # exempt.
    exempt = _benchmark_functions()
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    attrs = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    names = attrs | {node.id for node in nodes if isinstance(node, ast.Name)}
    public = [(module, node, names) for module, tree in trees.items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    members = [(f"{module}.{cls.name}", item) for module, cls, _ in public
               if isinstance(cls, ast.ClassDef) for item in cls.body
               if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    public += [(owner, item, attrs) for owner, item in members]
    unused = [f"{owner}.{node.name}" for owner, node, used in public
              if node.name not in used and node.name not in exempt.get(owner, ())]
    assert not unused, f"public names no module of the package uses: {unused}"
    shadowed = [f"{owner}.{item.name}" for owner, item in members
                if item.name in dir(np.ndarray)]
    assert not shadowed, f"public members named like ndarray attributes: {shadowed}"


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        func = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(func, "id", getattr(func, "attr", None)) == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read_in_src():
    # a result field that no stage reads is computed, stored and documented
    # for nothing.  A read is an Attribute load of the field's name anywhere
    # in the package, matched by name alone: a field that shares its name
    # with a live one (``kind``, ``name``, ...) passes however dead it is,
    # so this is a floor, not a proof
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    loads = {node.attr for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{module}.{cls.name}.{item.target.id}"
              for module, tree in trees.items() for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
              for item in cls.body
              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
              and item.target.id not in loads]
    assert not unread, f"dataclass fields no module of the package reads: {unread}"


def _knobs(tree: ast.Module):
    """(function name, parameter, positional index or None) for every
    defaulted parameter of a public function or public method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield from _defaulted(node, 0)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    yield from _defaulted(item, 0 if static else 1)


def _defaulted(func: ast.FunctionDef, bound: int):
    if func.name.startswith("_"):
        return
    args = func.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index in range(max(first, bound), len(positional)):
        yield func.name, positional[index].arg, index - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield func.name, arg.arg, None


def _passed(knobs) -> set:
    """The (name, parameter) pairs of ``knobs`` that some call of the
    program passes.  A call is matched by the called name; one with *args
    or **kwargs counts as passing every parameter."""
    passed = set()
    for path in PROGRAM:
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            n_pos = (float("inf") if any(isinstance(a, ast.Starred) for a in call.args)
                     else len(call.args))
            every_keyword = any(kw.arg is None for kw in call.keywords)
            keywords = {kw.arg for kw in call.keywords}
            for func, param, index in knobs:
                if func == name and (every_keyword or param in keywords or
                                     (index is not None and index < n_pos)):
                    passed.add((func, param))
    return passed


# defaulted parameters that no program call passes and that stay: the
# axis of diff1 and diff2, defs alive only because BENCHMARK.json names
# them, and the argv of an entry point, passed by the interpreter's caller
UNTURNED_KNOBS = {"diff1(axis)", "diff2(axis)", "main(argv)"}


def test_every_defaulted_parameter_is_passed_somewhere():
    # a parameter that no call passes is a knob nobody turns: its default
    # is the only value the program has ever run with, so it belongs in
    # the body as a constant.  Only the program (``PROGRAM``) counts as a
    # caller; a knob that only unit tests turn is API kept alive by its
    # tests.
    knobs = [knob for path in SOURCES
             for knob in _knobs(ast.parse(path.read_text()))]
    passed = _passed(knobs)
    unturned = {f"{func}({param})" for func, param, _ in knobs
                if (func, param) not in passed}
    assert unturned <= UNTURNED_KNOBS, (
        f"defaulted parameters no call passes: {sorted(unturned - UNTURNED_KNOBS)}")
    # an entry whose knob is gone or now passed leaves the allowlist
    assert UNTURNED_KNOBS <= unturned, (
        f"allowed unturned knobs that are not: {sorted(UNTURNED_KNOBS - unturned)}")


def test_every_parameter_default_is_taken_somewhere():
    # the converse of the lint above, as for dataclass fields below: a
    # default that every program call overrides is a value no run has used,
    # kept for the calls of unit tests.  A call is matched by the called
    # name, and one with *args or **kwargs counts as taking every default.
    # The functions the benchmark traces are exempt
    exempt = _benchmark_functions()
    knobs = [knob for path in SOURCES
             for knob in _knobs(ast.parse(path.read_text()))
             if knob[0] not in exempt.get(path.stem, ())]
    taken = set()
    for path in PROGRAM:
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            every = (any(isinstance(arg, ast.Starred) for arg in call.args)
                     or any(kw.arg is None for kw in call.keywords))
            keywords = {kw.arg for kw in call.keywords}
            taken |= {(func, param) for func, param, index in knobs
                      if func == name and (every or (
                          (index is None or index >= len(call.args))
                          and param not in keywords))}
    untaken = sorted(f"{func}({param})" for func, param, _ in knobs
                     if (func, param) not in taken)
    assert not untaken, f"parameter defaults no program call takes: {untaken}"


def _dataclass_fields(tree: ast.Module):
    """(class name, field, positional index, default expression or None)
    for every field of a dataclass."""
    for cls in tree.body:
        if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
            continue
        fields = [item for item in cls.body
                  if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
        for index, item in enumerate(fields):
            yield cls.name, item.target.id, index, item.value


def _field_defaults(tree: ast.Module):
    """(class name, field, positional index) for every field of a dataclass
    whose default is a value; a ``field(...)`` default, such as the
    accumulator ``field(default_factory=list)``, is not one."""
    for cls, name, index, default in _dataclass_fields(tree):
        if default is not None and not (isinstance(default, ast.Call) and
                                        getattr(default.func, "id", None) == "field"):
            yield cls, name, index


def test_every_defaulted_dataclass_field_is_set_somewhere():
    # a field default is a knob too: a field that no construction and no
    # assignment of the program sets holds its default in every run.  A
    # construction is matched by the class's name, as a call is above, and
    # a ``dataclasses.replace`` or attribute assignment by the field's name
    # alone.  A factory's ``cls(...)`` is not matched: it passes the
    # factory's own parameters, which the lint above reads, and leaves the
    # field defaults to the constructions by name
    knobs = [knob for path in SOURCES
             for knob in _field_defaults(ast.parse(path.read_text()))]
    passed = _passed(knobs)
    for path in PROGRAM:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                passed |= {(cls, name) for cls, name, _ in knobs if name == node.attr}
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "replace":
                keywords = {kw.arg for kw in node.keywords}
                passed |= {(cls, name) for cls, name, _ in knobs if name in keywords}
    unset = sorted(f"{cls}.{name}" for cls, name, _ in knobs
                   if (cls, name) not in passed)
    assert not unset, f"dataclass field defaults no program code overrides: {unset}"


def _constructions(tree: ast.Module):
    """(class name, call) for every call that may construct a class: a call
    by the class's name, or ``cls(...)`` inside the class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield from ((node.name, call) for call in ast.walk(node)
                        if isinstance(call, ast.Call)
                        and getattr(call.func, "id", None) == "cls")
        elif isinstance(node, ast.Call):
            yield getattr(node.func, "id", getattr(node.func, "attr", None)), node


def test_every_dataclass_field_default_is_taken_somewhere():
    # the converse of the lint above: a default, a value or a ``field(...)``,
    # that every construction of the program overrides is a value no run
    # has used, kept for the constructions of unit tests.  A construction
    # with *args or **kwargs counts as taking every default
    defaults = [(cls, name, index) for path in SOURCES
                for cls, name, index, default
                in _dataclass_fields(ast.parse(path.read_text()))
                if default is not None]
    taken = set()
    for path in PROGRAM:
        for cls, call in _constructions(ast.parse(path.read_text())):
            every = (any(isinstance(arg, ast.Starred) for arg in call.args)
                     or any(kw.arg is None for kw in call.keywords))
            keywords = {kw.arg for kw in call.keywords}
            taken |= {(c, name) for c, name, index in defaults if c == cls and
                      (every or (index >= len(call.args) and name not in keywords))}
    untaken = sorted(f"{cls}.{name}" for cls, name, _ in defaults
                     if (cls, name) not in taken)
    assert not untaken, (
        f"dataclass field defaults no program construction takes: {untaken}")


# the functions that may allocate a dense square matrix: the dense L, which
# no run builds and which stays while the benchmark's per-layer metrics name it
SQUARE_ALLOCATORS = {"calculus.lap_matrix"}


def _is_np_call(node, names) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in names
            and getattr(node.func.value, "id", None) == "np")


def _square_shape(call: ast.Call) -> bool:
    """Whether ``call`` makes a 2D array whose two extents are textually
    equal expressions: np.zeros, np.empty or np.ones of such a shape, or
    an array over a buffer (np.frombuffer, as over a memory mapping)
    reshaped to one."""
    if _is_np_call(call, ("zeros", "empty", "ones")):
        shape = (call.args[0] if call.args else
                 next((kw.value for kw in call.keywords if kw.arg == "shape"),
                      None))
        dims = shape.elts if isinstance(shape, ast.Tuple) else ()
    elif (isinstance(call.func, ast.Attribute) and call.func.attr == "reshape"
          and _is_np_call(call.func.value, ("frombuffer",))):
        dims = (call.args[0].elts if len(call.args) == 1
                and isinstance(call.args[0], ast.Tuple) else call.args)
    else:
        return False
    return len(dims) == 2 and ast.unparse(dims[0]) == ast.unparse(dims[1])


def _square_allocations(tree: ast.Module, module: str):
    """(qualified name of the enclosing def, line) of every call that
    ``_square_shape`` flags."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif isinstance(child, ast.Call) and _square_shape(child):
                yield inner, child.lineno
            yield from visit(child, inner)

    yield from visit(tree, module)


@pytest.mark.parametrize("source, square", [
    ("np.zeros((n + 1, n + 1))", True),
    ("np.empty(shape=(m, m))", True),
    ("np.frombuffer(pages, dtype=float).reshape(n + 1, n + 1)", True),
    ("np.frombuffer(pages).reshape((n, n))", True),
    ("np.zeros((n + 1, m + 1))", False),
    ("np.frombuffer(pages).reshape(n, m)", False),
    ("rows.reshape(n, n)", False),
])
def test_square_allocation_lint_sees_each_form(source, square):
    found = list(_square_allocations(ast.parse(f"def f():\n    A = {source}\n"), "m"))
    assert found == ([("m.f", 2)] if square else [])


def test_dense_square_matrices_are_allocated_only_where_allowed():
    # an (n+1)^2 array at n = 2048 spans 33.6 MB, more than every field of
    # a 2048x64 run together.  The banded operators need none, and the
    # Einstein residual applies L by row slabs of 3.1 MB at n = 2048
    found = [(scope, f"{path.name}:{line}") for path in SOURCES
             for scope, line in _square_allocations(ast.parse(path.read_text()),
                                                    path.stem)]
    assert {scope for scope, _ in found} == SQUARE_ALLOCATORS, (
        f"square dense allocations: {found}")


def test_same_bytes_names_each_differing_or_missing_file(tmp_path):
    # the byte-identity tool's comparison, on two trees of emitted files
    a, b = tmp_path / "at_rev", tmp_path / "working"
    for side in (a, b):
        (side / "cell").mkdir(parents=True)
        (side / "cell" / "report.json").write_bytes(b'{"pass": true}\n')
        (side / "checks.csv").write_bytes(b"name,value\n")
    assert same_bytes.differences(a, b) == []
    (b / "checks.csv").write_bytes(b"name,valuf\n")
    assert same_bytes.differences(a, b) == ["differs: checks.csv"]
    (a / "cell" / "extra.csv").write_bytes(b"")
    (b / "extra.json").write_bytes(b"")
    assert same_bytes.differences(a, b) == ["only under at_rev: cell/extra.csv",
                                            "only under working: extra.json",
                                            "differs: checks.csv"]
