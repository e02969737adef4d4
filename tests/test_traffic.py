"""The runs the program serves reach every statement of the package.

A subprocess runs the documented commands on small grids under
``sys.settrace``, plus one direct call per axis and per shape of each def
that BENCHMARK.json names and no run calls.  Every statement inside a
function of ``src/fanofib`` must then have run, except docstrings,
``raise`` statements, blocks that end in a ``raise``, ``except`` handlers
and the methods of the exception classes in ``errors.py``: code that only
a failure reaches.  A statement that no run reaches is API kept alive by
its tests, or a branch that no input takes.

Run as a script, this file is the traced subprocess:
``python tests/test_traffic.py PLAN.json OUT.json``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from fanofib import cli
from fanofib.calculus import audit_lap, ddbar_invariant, diff1, diff2, fs_ratio
from fanofib.grids import BASE, FIBER, Grid

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fanofib"

# the benchmark's model; the comment and blank lines reach the parser's
# skip branch
MODEL = """\
# warped fiber, both families

a = 2
c = 1
warp_amplitude = 0.2   # as the benchmark draws it
warp_shape = fiber_cubic
pipeline = both
"""
# a warp so large that omega0 is not positive: a stage fails
NOT_POSITIVE = "a = 2\nc = 1\nwarp_amplitude = 40\nwarp_shape = fiber_cubic\n"
# the benchmark's known defect einstein_c_ne_1: the Einstein Newton takes a
# step on 512x64, and its line search stalls
DEFECT = "a = 3\nc = 2\nwarp_amplitude = 0\npipeline = ske\n"


def _plan(tmp: Path) -> list:
    """(argv, expected exit code) of every traced command."""
    configs = {}
    for name, text in (("model", MODEL), ("not_positive", NOT_POSITIVE),
                       ("defect", DEFECT)):
        configs[name] = tmp / f"{name}.cfg"
        configs[name].write_text(text)
    model = ["--config", str(configs["model"])]
    return [
        (["constants", "-a", "2", "-c", "1"], 0),
        (["refine", *model, "--grid", "32x32", "--grid", "64x64",
          "--out", str(tmp / "refine")], 0),
        (["run", *model, "--grid", "32x256"], 0),
        # from n = 1024 on, lap_matrix places L on an anonymous mapping
        (["run", *model, "--grid", "1024x16"], 0),
        (["check", "gprime", *model, "--grid", "32x32", "--pipeline", "spr"], 0),
        (["run", "--config", str(configs["not_positive"]), "--grid", "32x32",
          "--out", str(tmp / "failed")], 2),
        (["refine", *model, "--grid", "32x32"], 2),
        (["run", "--config", str(configs["defect"]), "--grid", "512x64"], 2),
    ]


def _benchmark_defs() -> None:
    """One call per axis and per shape of the defs that only BENCHMARK.json
    names."""
    grid = Grid(16, 32)
    field = np.outer(np.cos(grid.nodes_f), np.sin(grid.nodes_b) + 2.0)
    for axis, h in enumerate((grid.h(FIBER), grid.h(BASE))):
        diff1(field, h, axis)
        diff2(field, h, axis)
    for axis_name, profile in ((FIBER, field[:, 0]), (BASE, field[0])):
        audit_lap(grid, field, axis_name)
        audit_lap(grid, profile, axis_name)
    ddbar_invariant(grid, field)
    fs_ratio(grid, field * np.outer(grid.g_f, grid.g_b))


def _traced(plan: list) -> tuple[dict, list]:
    """Run ``plan`` and ``_benchmark_defs`` under ``sys.settrace``: the
    lines executed per file of the package, and each command's exit code."""
    lines = {}

    def trace_lines(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(str(PACKAGE)):
            return None
        lines.setdefault(path, set())
        return trace_lines

    codes = []
    sys.settrace(trace_calls)
    try:
        for argv, _ in plan:
            try:
                codes.append(cli.main(argv))
            except SystemExit as exc:       # argparse's usage error
                codes.append(exc.code)
        _benchmark_defs()
    finally:
        sys.settrace(None)
    return {path: sorted(hit) for path, hit in lines.items()}, codes


def _required(path: Path) -> list[int]:
    """The first lines of the statements inside the functions of ``path``
    that a run must reach."""
    required = []

    def block(body, branch=True):
        # a branch that ends in a raise is a failure's; a function body
        # is no branch
        if branch and body and isinstance(body[-1], ast.Raise):
            return
        for stmt in body:
            if isinstance(stmt, ast.Raise):
                continue
            required.append(stmt.lineno)
            if isinstance(stmt, ast.FunctionDef):
                function(stmt)
            else:       # an ast.Try's handlers are not among these
                for name in ("body", "orelse", "finalbody"):
                    block(getattr(stmt, name, []))

    def function(func):
        body = func.body
        first = body[0]
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                and isinstance(first.value.value, str):
            body = body[1:]
        block(body, branch=False)

    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            function(node)
        elif isinstance(node, ast.ClassDef) and path.name != "errors.py":
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    function(item)
    return sorted(required)


def test_the_runs_reach_every_statement(tmp_path):
    plan = _plan(tmp_path)
    plan_path, out_path = tmp_path / "plan.json", tmp_path / "lines.json"
    plan_path.write_text(json.dumps(plan))
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, __file__, str(plan_path), str(out_path)],
                          env=env, cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out_path.read_text())
    assert result["codes"] == [code for _, code in plan], proc.stderr
    executed = {Path(path).name: set(lines) for path, lines in result["lines"].items()}
    missed = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
              for line in _required(path)
              if line not in executed.get(path.name, ())]
    assert not missed, f"statements no run reaches: {missed}"


if __name__ == "__main__":
    plan_file, out_file = sys.argv[1:3]
    lines, codes = _traced(json.loads(Path(plan_file).read_text()))
    Path(out_file).write_text(json.dumps({"lines": lines, "codes": codes}))
